"""Workload inputs, pipelines and output checks.

Every workload draws its inputs from a fixed catalogue of instances. The
workload seed only fixes the order in which the catalogue is cycled, so every
run covers the same instances and the recorded reference (reference.json)
covers every input any seed can produce.

A workload provides:

- ``instances``: the catalogue, as a list of hashable instance keys;
- ``prepare(root, key)``: build the inputs of one pipeline outside the timed
  region (``root`` is the checkout);
- ``run(lk, inputs, span)``: the timed pipeline, through lumpkit's public API
  only. It returns its output and the wall time of each CLI command it ran.
  ``span(name, fn, *args)`` calls ``fn(*args)``, inside a trace span when
  tracing is on;
- ``observe(lk, inputs, output)``: problems found by checks that need no
  reference, the outputs that reference.json pins, and counters.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# ---------------------------------------------------------------------------
# seeded model generators (independent of tests/conftest.py, whose generator
# draws m in 3..6; these fix m so a pipeline's cost does not depend on a draw)

SEARCH_DIM = 20
OSCILLATOR_DIM = 10
OSCILLATOR_HORIZON = 10.0
OSCILLATOR_EXTRA_ROWS = 3
SIMULATE_REL_TOL = 1e-9
SIMULATE_ABS_TOL = 1e-12

BUNDLED_MODELS = ("rational3", "rational3_perturbed", "poly4")
CLI_SEEDS = (0, 1, 2, 3)
SEARCH_MODELS = 8
OSCILLATOR_MODELS = 8


def _var_names(m: int) -> list[str]:
    return [f"x{i + 1}" for i in range(m)]


def rational_model_text(seed: int, m: int = SEARCH_DIM) -> str:
    """Random rational system with m states. Each equation has a linear, a
    bilinear and two rational terms whose denominators 1 + d*x (d > 0) stay
    positive on the sampling box, so no Jacobian sample is singular. The
    rational terms give about four new Jacobian-span directions per state,
    so a sampled basis has K of about 4m matrices."""
    rng = np.random.Generator(np.random.PCG64(seed))
    xs = _var_names(m)

    def var() -> str:
        return xs[int(rng.integers(0, m))]

    def coeff() -> str:
        return repr(float(rng.uniform(-1.0, 1.0)))

    def slope() -> str:
        return repr(float(rng.uniform(0.5, 2.0)))

    lines = [f"model search{seed}", "var " + ", ".join(xs)]
    for x in xs:
        terms = [
            f"{coeff()}*{var()}",
            f"{coeff()}*{var()}*{var()}",
            f"{coeff()}*{var()}/(1 + {slope()}*{var()})",
            f"{coeff()}/(1 + {slope()}*{var()})",
        ]
        lines.append(f"eq {x} = " + " + ".join(terms))
    for x in xs:
        lines.append(f"init {x} = {float(rng.uniform(0.2, 1.0))!r}")
    lines.append("obs = " + " + ".join(f"{float(rng.uniform(0.1, 1.0))!r}*{x}" for x in xs))
    lines.append("horizon 1")
    return "\n".join(lines) + "\n"


def oscillator_model_text(seed: int, m: int = OSCILLATOR_DIM) -> str:
    """Weakly damped chain of m/2 rotations with bounded rational couplings
    (denominators 1 + x^2 never vanish). Frequencies in [0.5, 1.5] over the
    horizon of 10 need about 270 accepted steps at rel_tol 1e-9."""
    rng = np.random.Generator(np.random.PCG64(seed))
    xs = _var_names(m)
    damping = 0.05

    def var() -> str:
        return xs[int(rng.integers(0, m))]

    def coupling() -> str:
        return repr(float(rng.uniform(-0.3, 0.3)))

    lines = [f"model oscillator{seed}", "var " + ", ".join(xs)]
    for k in range(0, m, 2):
        u, v = xs[k], xs[k + 1]
        w = float(rng.uniform(0.5, 1.5))
        a, b = var(), var()
        lines.append(f"eq {u} = {-damping!r}*{u} + {w!r}*{v} + {coupling()}*{a}/(1 + {b}^2)")
        a, b = var(), var()
        lines.append(
            f"eq {v} = {-w!r}*{u} - {damping!r}*{v} + {coupling()}*{a}*{b}/(1 + {a}^2 + {b}^2)"
        )
    for x in xs:
        lines.append(f"init {x} = {float(rng.uniform(-1.0, 1.0))!r}")
    lines.append("obs = " + " + ".join(f"{float(rng.uniform(0.1, 1.0))!r}*{x}" for x in xs))
    lines.append(f"horizon {OSCILLATOR_HORIZON!r}")
    return "\n".join(lines) + "\n"


def oscillator_rows(seed: int, observables: np.ndarray) -> np.ndarray:
    """The observable row followed by seeded Gaussian rows."""
    rng = np.random.Generator(np.random.PCG64(seed))
    extra = rng.standard_normal((OSCILLATOR_EXTRA_ROWS, observables.shape[1]))
    return np.vstack([observables, extra])


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple
    prepare: Callable
    run: Callable
    observe: Callable


def _projector(rows) -> np.ndarray:
    L = np.atleast_2d(np.asarray(rows, dtype=float))
    return L.T @ L


def lumping_invariants(L: np.ndarray, observables: np.ndarray) -> list[str]:
    """Properties every lumping matrix has, whatever the reference says:
    orthonormal rows and the observables inside rsp(L)."""
    problems = []
    gram = float(np.max(np.abs(L @ L.T - np.eye(L.shape[0]))))
    if gram > 1e-9:
        problems.append(f"rows not orthonormal (defect {gram:.3e})")
    M = np.atleast_2d(observables)
    outside = float(np.max(np.abs(M - M @ L.T @ L)))
    if outside > 1e-8 * max(1.0, float(np.max(np.abs(M)))):
        problems.append(f"observables leave rsp(L) by {outside:.3e}")
    return problems


# search: parse -> Jacobian basis -> find_epsilon on a random rational model


def _search_prepare(root: Path, key):
    return {"key": key, "text": rational_model_text(key)}


def _search_run(lk, inputs, span):
    system = lk.parse_model(inputs["text"])
    basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=inputs["key"]))
    config = lk.EpsilonSearchConfig(cutoff_size=system.dim // 2)
    result = lk.find_epsilon(basis, system.observables, config)
    return (system, result), {}


def _search_observe(lk, inputs, output):
    system, result = output
    L = result.lump.matrix
    problems = lumping_invariants(L, system.observables)
    if result.lump.dim > system.dim // 2:
        problems.append(f"reduced size {result.lump.dim} exceeds the cutoff {system.dim // 2}")
    return problems, {
        "reduced_size": result.lump.dim,
        "epsilon": result.epsilon,
        "iterations": result.iterations,
        "rows": L.tolist(),
    }, {}


# simulate_long: parse -> reduction_report over a long horizon at a tight tolerance


def _simulate_prepare(root: Path, key):
    return {"key": key, "text": oscillator_model_text(key)}


def _simulate_run(lk, inputs, span):
    system = lk.parse_model(inputs["text"])
    rows = oscillator_rows(inputs["key"], system.observables)
    lump = lk.LumpingMatrix.from_rows(rows, observable_rank=1)
    config = lk.SolverConfig(rel_tol=SIMULATE_REL_TOL, abs_tol=SIMULATE_ABS_TOL)
    report = lk.reduction_report(system, lump, config=config, seed=inputs["key"])
    return (system, lump, report), {}


def _simulate_observe(lk, inputs, output):
    system, lump, report = output
    problems = lumping_invariants(lump.matrix, system.observables)
    if report.times.size != 200 or not report.errors[0] <= 1e-12:
        problems.append("report grid or e(0) is wrong")
    return problems, {
        "reduced_size": lump.dim,
        "rows": lump.matrix.tolist(),
        "e_max": report.e_max,
        "eta": report.eta,
    }, {}


# bundled_cli: the four commands of lumpkit.cli.main on one bundled model

CLI_COMMANDS = ("lump", "find-epsilon", "simulate", "sweep")


def _cli_prepare(root: Path, key):
    model, seed = key
    out = root / "perfbench" / "out" / "cli"
    shutil.rmtree(out, ignore_errors=True)
    model_path = str(root / "models" / f"{model}.ode")
    common = ["--model", model_path, "--seed", str(seed)]
    argvs = {
        "lump": ["lump", *common, "--out", str(out / "lump"), "--epsilon", "0.1"],
        "find-epsilon": ["find-epsilon", *common, "--out", str(out / "find"), "--ratio", "0.67"],
        "simulate": [
            "simulate", *common, "--out", str(out / "simulate"),
            "--lumping", str(out / "lump" / "L.json"),
        ],
        "sweep": ["sweep", *common, "--out", str(out / "sweep"), "--grid", "50"],
    }
    return {"key": key, "out": out, "model": model_path, "argvs": argvs}


def run_cli_command(lk, argv) -> int:
    """Run one command in process, its printed output captured and dropped;
    returns the exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return lk.cli.main(argv)


def _cli_run(lk, inputs, span):
    codes = {}
    seconds = {}
    for command in CLI_COMMANDS:
        t0 = time.perf_counter()
        layer = "cli." + command.replace("-", "_")
        codes[command] = span(layer, run_cli_command, lk, inputs["argvs"][command])
        seconds[command] = time.perf_counter() - t0
    return codes, seconds


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def artifact_bytes(out: Path) -> int:
    """Bytes of every artifact except manifest.json, whose wall-clock
    timings make its length vary from run to run."""
    files = (p for p in out.rglob("*") if p.is_file() and p.name != "manifest.json")
    return sum(p.stat().st_size for p in files)


def _cli_observe(lk, inputs, codes):
    out = inputs["out"]
    problems = [f"{c} exited {code}" for c, code in codes.items() if code != 0]
    if problems:
        return problems, {}, {}
    system = lk.parse_model(Path(inputs["model"]).read_text())
    expected_files = {
        "lump": ("basis.json", "L.json", "manifest.json"),
        "find": ("search.json", "L.json", "manifest.json"),
        "simulate": (
            "original.csv", "reduced.csv", "error.csv", "deviation.csv",
            "report.json", "manifest.json",
        ),
        "sweep": ("staircase.csv", "manifest.json"),
    }
    for sub, names in expected_files.items():
        problems += [f"missing {sub}/{n}" for n in names if not (out / sub / n).is_file()]
    if problems:
        return problems, {}, {}

    lump_L = json.loads((out / "lump" / "L.json").read_text())
    find_L = json.loads((out / "find" / "L.json").read_text())
    search = json.loads((out / "find" / "search.json").read_text())
    report = json.loads((out / "simulate" / "report.json").read_text())
    for L in (lump_L, find_L):
        problems += lumping_invariants(np.asarray(L["matrix"]), system.observables)
    if search["reduced_size"] != find_L["rows"]:
        problems.append("search.json and L.json disagree on the reduced size")
    if search["boundary"] is None and search["reduced_size"] > search["cutoff_size"]:
        problems.append("find-epsilon returned more rows than the cutoff")
    original = _read_csv(out / "simulate" / "original.csv")
    reduced = _read_csv(out / "simulate" / "reduced.csv")
    if len(original) != 201 or len(original[0]) != system.dim + 1:
        problems.append("original.csv has the wrong shape")
    if len(reduced) != 201 or len(reduced[0]) != lump_L["rows"] + 1:
        problems.append("reduced.csv has the wrong shape")
    stairs = _read_csv(out / "sweep" / "staircase.csv")[1:]
    sizes = [int(row[2]) for row in stairs]
    if len(sizes) != 50 or any(b > a for a, b in zip(sizes, sizes[1:])):
        problems.append("staircase is not 50 non-increasing sizes")
    return problems, {
        "lump_size": lump_L["rows"],
        "lump_rows": lump_L["matrix"],
        "find_size": search["reduced_size"],
        "find_epsilon": search["epsilon"],
        "find_iterations": search["iterations"],
        "find_rows": find_L["matrix"],
        "e_max": report["e_max"],
        "eta": report["eta"],
        "staircase_sizes": sizes,
    }, {"cli.artifact_bytes": artifact_bytes(out)}


WORKLOADS = {
    "bundled_cli": Workload(
        "bundled_cli",
        tuple((model, seed) for seed in CLI_SEEDS for model in BUNDLED_MODELS),
        _cli_prepare,
        _cli_run,
        _cli_observe,
    ),
    "search": Workload(
        "search", tuple(range(SEARCH_MODELS)), _search_prepare, _search_run, _search_observe
    ),
    "simulate_long": Workload(
        "simulate_long",
        tuple(range(OSCILLATOR_MODELS)),
        _simulate_prepare,
        _simulate_run,
        _simulate_observe,
    ),
}


def instance_id(key) -> str:
    return "/".join(str(part) for part in key) if isinstance(key, tuple) else str(key)


def schedule(workload: Workload, seed: int) -> list:
    """The catalogue in the order the seed gives; runs cycle through it."""
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(workload.instances))
    return [workload.instances[int(i)] for i in order]


# ---------------------------------------------------------------------------
# comparison against reference.json

# Pinned exactly: reduced sizes, iteration counts and staircase sizes.
# Pinned within tolerances: find_epsilon's epsilon, e_max and eta, and rsp(L)
# through its projector L.T @ L, which ignores row signs. The absolute floor
# on e_max and eta admits roundoff where a reduction is exact and the
# reference value is itself roundoff (eta ~ 1e-15).
# key -> (relative tolerance, absolute tolerance)
_CLOSE = {
    "epsilon": (1e-9, 0.0),
    "find_epsilon": (1e-9, 0.0),
    "e_max": (1e-7, 1e-12),
    "eta": (1e-7, 1e-12),
}
PROJECTOR_ATOL = 1e-8
_ROWS = {"rows", "lump_rows", "find_rows"}


def compare(observed: dict, expected: dict) -> list[str]:
    problems = []
    if set(observed) != set(expected):
        return [f"observed keys {sorted(observed)} differ from the reference {sorted(expected)}"]
    for key, want in expected.items():
        got = observed[key]
        if key in _CLOSE:
            rtol, atol = _CLOSE[key]
            if not abs(got - want) <= rtol * abs(want) + atol:
                problems.append(f"{key}: {got!r} != reference {want!r}")
        elif key in _ROWS:
            gap = float(np.max(np.abs(_projector(got) - _projector(want))))
            if not gap <= PROJECTOR_ATOL:
                problems.append(f"{key}: rsp(L) differs from the reference by {gap:.3e}")
        elif got != want:
            problems.append(f"{key}: {got!r} != reference {want!r}")
    return problems
