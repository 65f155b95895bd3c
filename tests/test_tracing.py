"""The benchmark's tracer (perfbench/tracing.py) reaches every lumpkit import
site it needs, so a rename that would break ``run.py --trace 1`` fails here."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import lumpkit as lk

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_required_site_and_uninstall_restores(rational3):
    tracing = load_tracing()
    modules = {name: importlib.import_module(name) for name in tracing.IMPORT_SITES}

    def site(name):
        module, _, attr = name.rpartition(".")
        return getattr(modules[module], attr)

    before = {name: dict(vars(module)) for name, module in modules.items()}
    originals = {name: site(name) for name in tracing.REQUIRED_SITES}
    tracer = tracing.Tracer()
    patched = tracer.install()
    try:
        assert set(tracing.REQUIRED_SITES) <= set(patched)
        for name, original in originals.items():
            assert site(name) is not original, name
        basis = modules["lumpkit.jacobian"].sample_jacobian_basis(
            rational3, lk.default_domain(rational3)
        )
    finally:
        tracer.uninstall()
    for name, module in modules.items():
        after = vars(module)
        assert all(after[key] is value for key, value in before[name].items()), name

    cols = tracer.columns()
    duals = cols["layer"] == "model.drift_dual"
    assert basis.dimension == 5
    assert duals.any()
    assert np.all(cols["layer"][cols["parent"][duals]] == "jacobian.sample")
