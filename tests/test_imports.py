"""Checks on the imports and the value types of the package modules."""

import ast
import dataclasses
import importlib
import math
import pkgutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import lumpkit
from lumpkit.model import DualVector, equal_values

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lumpkit"


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module never references; names
    listed in ``__all__`` count as used (re-exports)."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from x import a, b as c\n"
        "__all__ = ['a']\n"
    )
    assert unused_imports(source) == ["os (line 2)", "c (line 3)"]


def unused_imports_under(directory: Path) -> dict[str, list[str]]:
    """:func:`unused_imports` of each module in ``directory`` that has any."""
    paths = sorted(directory.glob("*.py"))
    assert paths, f"no modules found under {directory}"
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in paths}
    return {name: found for name, found in unused.items() if found}


def test_no_unused_imports_in_package():
    assert unused_imports_under(PACKAGE) == {}


def test_no_unused_imports_in_tests():
    assert unused_imports_under(Path(__file__).resolve().parent) == {}


def private_imports(source: str) -> list[str]:
    """Underscore names imported from another package module; dunders such
    as ``__version__`` are allowed."""
    return [
        f"{node.module or ''}.{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "lumpkit")
        for alias in node.names
        if alias.name.startswith("_")
        and not (alias.name.startswith("__") and alias.name.endswith("__"))
    ]


def test_private_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "from . import __version__\n"
        "from .jacobian import SamplingDomain, _build_basis\n"
        "from lumpkit.model import _points\n"
        "from numpy.linalg import _umath_linalg\n"
        "def f():\n"
        "    from .model import _Column\n"
    )
    assert private_imports(source) == [
        "jacobian._build_basis (line 3)",
        "lumpkit.model._points (line 4)",
        "model._Column (line 7)",
    ]


def test_no_private_imports_in_package():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules found under {PACKAGE}"
    found = {path.name: private_imports(path.read_text()) for path in paths}
    assert {name: names for name, names in found.items() if names} == {}


def array_records_without_equal_values(module) -> list[str]:
    """Dataclasses defined in ``module`` with a field annotated ``np.ndarray``
    whose ``__eq__`` is not :func:`~lumpkit.model.equal_values`. DualVector is
    exempt: it is an arithmetic operand, not a record."""
    return [
        name
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
        and any("ndarray" in str(field.type) for field in dataclasses.fields(obj))
        and obj.__eq__ is not equal_values
        and obj is not DualVector
    ]


def test_array_records_without_equal_values_are_found(monkeypatch):
    module = types.ModuleType("records")
    monkeypatch.setitem(sys.modules, "records", module)  # dataclass looks its module up
    source = (
        "from __future__ import annotations\n"
        "from dataclasses import dataclass\n"
        "import numpy as np\n"
        "from lumpkit.model import equal_values\n"
        "@dataclass(frozen=True)\n"
        "class Plain:\n"
        "    values: tuple[np.ndarray, ...]\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class Ruled:\n"
        "    values: np.ndarray\n"
        "    __eq__ = equal_values\n"
        "@dataclass(frozen=True)\n"
        "class Scalar:\n"
        "    value: float\n"
    )
    exec(source, vars(module))
    assert array_records_without_equal_values(module) == ["Plain"]


def test_array_records_compare_by_equal_values():
    names = [info.name for info in pkgutil.iter_modules(lumpkit.__path__)]
    assert "simulate" in names, f"no modules found in {lumpkit.__path__}"
    modules = [importlib.import_module(f"lumpkit.{name}") for name in names]
    found = {module.__name__: array_records_without_equal_values(module) for module in modules}
    assert {name: records for name, records in found.items() if records} == {}


def test_rank_test_names_are_the_model_module_objects():
    # one rank test, re-exported under the names it had before
    from lumpkit import jacobian, lumping, model

    assert lumpkit.RANK_RTOL is jacobian.RANK_RTOL is lumping.RANK_RTOL is model.RANK_RTOL
    assert not hasattr(lumping, "ZERO_EPSILON_RTOL")
    assert "RANK_RTOL" in jacobian.__all__
    assert lumpkit.orthonormalize_rows is lumping.orthonormalize_rows is model.orthonormalize_rows


# the settings types, each with the fewest arguments it is valid with
SETTINGS = {
    lumpkit.SamplingDomain: dict(lower=np.zeros(2), upper=np.ones(2)),
    lumpkit.SolverConfig: {},
    lumpkit.EpsilonSearchConfig: dict(cutoff_size=1),
}


@pytest.mark.parametrize(
    "settings, field",
    [(settings, field) for settings in SETTINGS for field in dataclasses.fields(settings)],
    ids=lambda value: getattr(value, "__name__", None) or value.name,
)
def test_every_setting_rejects_nan(settings, field):
    # a setting added without a check of its own turns this red
    valid = SETTINGS[settings]
    settings(**valid)
    nan = np.full(2, math.nan) if "ndarray" in str(field.type) else math.nan
    with pytest.raises(ValueError):
        settings(**{**valid, field.name: nan})
