"""In-memory spans around the calls into each lumpkit layer.

lumpkit's modules bind each other's functions with ``from .x import f``, so a
function is reachable under several names (``lumpkit.model.evaluate_drift``,
``lumpkit.simulate.evaluate_drift``, ``lumpkit.lumping.evaluate_drift``, the
package re-export, ...). :meth:`Tracer.install` replaces the function at every
module attribute that holds it, so calls made inside the package are traced
too, and :meth:`Tracer.uninstall` puts the originals back. Nothing in lumpkit
itself changes.

A span is (layer, start, end, parent span, pipeline id, error, size). The
benchmark also opens spans of its own (one per pipeline and one per CLI
command) through :meth:`Tracer.span`. ``size`` is the basis dimension for
Jacobian sampling, the row count for a lumping and the accepted step count
for an integration; -1 elsewhere.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import time
from pathlib import Path

import numpy as np

# layer name -> (defining module, function)
LAYERS = {
    "model.parse": ("lumpkit.model", "parse_model"),
    "model.drift": ("lumpkit.model", "evaluate_drift"),
    "model.drift_dual": ("lumpkit.model", "evaluate_drift_dual"),
    "jacobian.sample": ("lumpkit.jacobian", "sample_jacobian_basis"),
    "lumping.lump": ("lumpkit.lumping", "approximate_lump"),
    "lumping.search": ("lumpkit.lumping", "find_epsilon"),
    "lumping.epsilon_max": ("lumpkit.lumping", "epsilon_max"),
    "lumping.staircase": ("lumpkit.lumping", "staircase"),
    "lumping.deviation": ("lumpkit.lumping", "deviation"),
    "simulate.integrate": ("lumpkit.simulate", "integrate"),
    "simulate.lipschitz": ("lumpkit.simulate", "estimate_lipschitz"),
    "simulate.report": ("lumpkit.simulate", "reduction_report"),
    "simulate.write_csv": ("lumpkit.simulate", "write_series_csv"),
}

# modules whose attributes are searched for the functions above
IMPORT_SITES = (
    "lumpkit",
    "lumpkit.model",
    "lumpkit.jacobian",
    "lumpkit.lumping",
    "lumpkit.simulate",
    "lumpkit.cli",
)

# sites that must be patched, or the per-layer numbers miss most calls
REQUIRED_SITES = (
    "lumpkit.simulate.evaluate_drift",
    "lumpkit.lumping.evaluate_drift",
    "lumpkit.jacobian.evaluate_drift_dual",
    "lumpkit.simulate.evaluate_drift_dual",
    "lumpkit.simulate.deviation",
    "lumpkit.cli.parse_model",
    "lumpkit.cli.evaluate_drift",
    "lumpkit.cli.default_domain",
    "lumpkit.cli.sample_jacobian_basis",
    "lumpkit.cli.approximate_lump",
    "lumpkit.cli.epsilon_max",
    "lumpkit.cli.find_epsilon",
    "lumpkit.cli.staircase",
    "lumpkit.cli.integrate",
    "lumpkit.cli.reduction_report",
    "lumpkit.cli.write_series_csv",
)

# default_domain is wrapped only so that REQUIRED_SITES can confirm the cli
# module's import of it is reached; it is not reported as a layer
_UNREPORTED = {"jacobian.domain": ("lumpkit.jacobian", "default_domain")}


def _size_of(layer: str, result) -> int:
    if layer == "jacobian.sample":
        return result.dimension
    if layer == "lumping.lump":
        return result.dim
    if layer == "simulate.integrate":
        return result.times.size - 1
    return -1


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.pipeline = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, layer: str, fn, *args, **kwargs):
        """Call fn inside a span named layer and return its result."""
        spans = self.spans
        sid = len(spans)
        parent = self._stack[-1] if self._stack else -1
        spans.append(None)
        self._stack.append(sid)
        error = ""
        size = -1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            size = _size_of(layer, result)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            spans[sid] = (layer, start, end, parent, self.pipeline, error, size)

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            return self.span(layer, fn, *args, **kwargs)

        return traced

    def install(self) -> list[str]:
        """Patch every import site; returns the patched attribute names."""
        modules = {name: importlib.import_module(name) for name in IMPORT_SITES}
        sites = []
        for layer, (module_name, attr) in {**LAYERS, **_UNREPORTED}.items():
            original = getattr(modules[module_name], attr)
            wrapper = self._wrap(layer, original)
            for site_name, module in modules.items():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
                        sites.append(f"{site_name}.{key}")
        missing = [s for s in REQUIRED_SITES if s not in sites]
        if missing:
            self.uninstall()
            raise RuntimeError(f"tracing could not patch {missing}")
        return sites

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def columns(self) -> dict[str, np.ndarray]:
        """Spans as columns, with each span's self time: its duration minus
        the durations of its direct children."""
        layer = np.array([s[0] for s in self.spans], dtype=object)
        start = np.array([s[1] for s in self.spans], dtype=float)
        end = np.array([s[2] for s in self.spans], dtype=float)
        parent = np.array([s[3] for s in self.spans], dtype=int)
        pipeline = np.array([s[4] for s in self.spans], dtype=int)
        error = np.array([bool(s[5]) for s in self.spans], dtype=bool)
        size = np.array([s[6] for s in self.spans], dtype=int)
        duration = end - start
        child = np.zeros(len(self.spans))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "layer": layer,
            "parent": parent,
            "pipeline": pipeline,
            "error": error,
            "size": size,
            "duration": duration,
            "self": duration - child,
        }

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "layer", "start", "end", "parent", "pipeline", "error", "size"])
            for sid, (layer, start, end, parent, pipeline, error, size) in enumerate(self.spans):
                writer.writerow([sid, layer, repr(start), repr(end), parent, pipeline, error, size])
