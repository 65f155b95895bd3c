"""Shared fixtures: bundled models, golden reference data, random corpus."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import lumpkit as lk

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"

# Reference sample points for the three-variable rational model. Evaluating
# the Jacobian at these five points yields a complete basis of its span.
CANONICAL_POINTS = (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (1.0, 5.0, 2.0),
    (3.0, 3.0, 2.0),
)

# Expected Jacobians of the plain rational model at CANONICAL_POINTS, rounded
# to three decimals. Entry [1][1] of the last matrix is
# (4*x3 - 2*x1) / (x2 + 2*x3 + 1)^2 = (8 - 6) / 64 = 0.03125 at (3, 3, 2).
GOLDEN_J_PLAIN = (
    np.array([[0.0, 0.0, 0.0], [2.0, -2.0, -8.0], [-1.0, 0.0, 2.0]]),
    np.array([[0.0, 2.0, 4.0], [1.0, 0.0, -2.0], [-0.5, -0.25, 0.5]]),
    np.array([[0.0, 4.0, 8.0], [0.667, 0.444, -0.444], [-0.333, -0.333, 0.0]]),
    np.array([[-40.5, 9.0, 18.0], [0.200, 0.060, -0.280], [-0.100, -0.040, 0.120]]),
    np.array([[-2.94, 1.4, 2.8], [0.25, 0.031, -0.438], [-0.125, -0.031, 0.188]]),
)

# Reference basis for the perturbed model, rounded to three decimals. The
# lumping sweep on these six matrices has a fully worked-out expected run
# (see test_lumping and the acceptance suite).
WORKED_BASIS_PERTURBED = (
    np.array([[0.0, 0.0, 0.0], [2.0, -2.0, -8.0], [-1.0, 0.0, 2.0]]),
    np.array([[0.0, 2.0, 4.05], [1.0, 0.0, -2.0], [-0.5, -0.25, 0.5]]),
    np.array([[0.0, 4.05, 8.0], [0.667, 0.444, -0.444], [-0.333, -0.333, 0.0]]),
    np.array([[-40.75, 9.05, 18.125], [0.200, 0.060, -0.280], [-0.100, -0.040, 0.120]]),
    np.array([[-2.958, 1.41, 2.815], [0.25, 0.031, -0.438], [-0.125, -0.031, 0.188]]),
    np.array([[-0.951, 0.621, 1.235], [0.222, 0.025, -0.395], [-0.111, -0.025, 0.173]]),
)

# Rows spanning the exact reduction of the plain rational model.
REFERENCE_ROWS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0]])

# a^400 overflows above a ~ 5.897 and its derivative 400 a^399 above
# a ~ 5.84, so points there are singular; the Jacobian span is {E11, E21}.
BIG_POWER = (
    "model big\nvar a, b\neq a = a^400\neq b = a\n"
    "init a = 10\ninit b = 1\nobs b\nhorizon 1\n"
)

# models deeper than Python's recursion limit: 300 or 5,000 parenthesis
# pairs on line 3, which the parser rejects, and a 3,000-term drift sum on
# line 3 or observable on line 7, which every reader of the tree takes
_SHALLOW = "model deep\nvar a, b\neq a = b\neq b = a\ninit a = 1\ninit b = 1\nobs a\nhorizon 1\n"
DEEP_NESTING = {
    "parentheses": _SHALLOW.replace("eq a = b", "eq a = " + "(" * 300 + "b" + ")" * 300),
    "parentheses_5000": _SHALLOW.replace("eq a = b", "eq a = " + "(" * 5000 + "b" + ")" * 5000),
    "drift_sum": _SHALLOW.replace("eq a = b", "eq a = " + " + ".join(["b"] * 3000)),
    "observable_sum": _SHALLOW.replace("obs a", "obs " + " + ".join(["a"] * 3000)),
}

# 1e300*a*a overflows to inf above a ~ 1.34e4, and its derivative above
# a ~ 1.8e8, where inf times a zero partial puts a nan into J.
NON_FINITE = (
    "model nonfinite\nvar a, b\neq a = 1e300*a*a\neq b = a\n"
    "init a = 1\ninit b = 1\nobs b\nhorizon 1\n"
)


def benchmark_workloads():
    """The benchmark's workload module, perfbench/workloads.py."""
    path = MODELS_DIR.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # registered first: its dataclasses look their module up by name
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


def model_path(name: str) -> Path:
    return MODELS_DIR / name


@pytest.fixture(scope="session")
def rational3() -> lk.OdeSystem:
    return lk.parse_model(model_path("rational3.ode").read_text())


@pytest.fixture(scope="session")
def rational3_perturbed() -> lk.OdeSystem:
    return lk.parse_model(model_path("rational3_perturbed.ode").read_text())


@pytest.fixture(scope="session")
def poly4() -> lk.OdeSystem:
    return lk.parse_model(model_path("poly4.ode").read_text())


@pytest.fixture(scope="session")
def worked_basis() -> lk.JacobianBasis:
    return lk.basis_from_matrices(WORKED_BASIS_PERTURBED)


@pytest.fixture(scope="session")
def reference_lump() -> lk.LumpingMatrix:
    return lk.LumpingMatrix.from_rows(REFERENCE_ROWS, observable_rank=1)


@pytest.fixture
def sweep_log(monkeypatch):
    """Tolerances of the real sweeps run through lk.lumping._sweep, capped or
    not, in call order; the wrapper calls through to the sweep."""
    original = lk.lumping._sweep
    log = []

    def counting(basis, observables, epsilon, record_trace, cap):
        log.append(epsilon)
        return original(basis, observables, epsilon, record_trace, cap)

    monkeypatch.setattr(lk.lumping, "_sweep", counting)
    return log


def random_polynomial_model(seed: int) -> str:
    """Model text for a random polynomial system: m in 3..6 variables, 2-4
    monomials of total degree <= 3 per equation, one dense random linear
    observable. Coefficients are printed at full precision so the text is a
    lossless carrier."""
    rng = np.random.Generator(np.random.PCG64(seed))
    m = int(rng.integers(3, 7))
    names = [f"x{i + 1}" for i in range(m)]
    lines = [f"model random{seed}", "var " + ", ".join(names)]
    for name in names:
        terms = []
        for _ in range(int(rng.integers(2, 5))):
            coeff = float(rng.uniform(-1.0, 1.0))
            degree = int(rng.integers(1, 4))
            factors = [names[int(rng.integers(0, m))] for _ in range(degree)]
            terms.append(f"{coeff!r}*" + "*".join(factors))
        lines.append(f"eq {name} = " + " + ".join(terms))
    for name in names:
        lines.append(f"init {name} = {float(rng.uniform(0.2, 1.0))!r}")
    obs_terms = [f"{float(rng.uniform(0.1, 1.0))!r}*{n}" for n in names]
    lines.append("obs = " + " + ".join(obs_terms))
    lines.append("horizon 1")
    return "\n".join(lines) + "\n"


def scaled_chain(c1: str, c2: str) -> str:
    """a' = c1*b, b' = c2*c, c' = -c, observing a: one constant Jacobian,
    whose sweep appends b at any tolerance below c1 and c at any below c2,
    so epsilon_max is c1 and 2 rows fit from c2 up."""
    return (
        f"model chain\nvar a, b, c\neq a = {c1}*b\neq b = {c2}*c\neq c = -c\n"
        "init a = 1\ninit b = 1\ninit c = 1\nobs a\nhorizon 1\n"
    )


def phosphorylation_model(n: int, delta: float = 0.0, seed: int = 0) -> str:
    """Model text for multisite phosphorylation at n sites (Feret et al.,
    PNAS 2009): the 2^n phosphoforms p<S>, bit i of S set when site i is
    phosphorylated, and a kinase e. Mass action p<S> + e -> p<S+i> + e at
    k_i and p<S> -> p<S-i> at d_i, and e' = 1 - e - 0.1 e sum (n - |S|) p<S>.
    Rates are k_i = 1 and d_i = 0.5, each perturbed by delta * U(-1, 1)
    from a seeded generator. p0 starts at 1, the other forms at 0, e at
    0.5; the observable is e. At delta = 0 the exact reduction has 3 rows."""
    rng = np.random.Generator(np.random.PCG64(seed))
    k = (1.0 + delta * rng.uniform(-1.0, 1.0, n)).tolist()
    d = (0.5 + delta * rng.uniform(-1.0, 1.0, n)).tolist()
    forms = range(2**n)
    gain: dict[int, list[str]] = {s: [] for s in forms}
    loss: dict[int, list[str]] = {s: [] for s in forms}
    for s in forms:
        for i in range(n):
            if s >> i & 1:
                flux, target = f"{d[i]!r}*p{s}", s & ~(1 << i)
            else:
                flux, target = f"{k[i]!r}*p{s}*e", s | 1 << i
            loss[s].append(flux)
            gain[target].append(flux)
    names = [f"p{s}" for s in forms] + ["e"]
    lines = [f"model phospho{n}", "var " + ", ".join(names)]
    for s in forms:
        lines.append(f"eq p{s} = " + " + ".join(gain[s]) + " - " + " - ".join(loss[s]))
    uptake = " + ".join(f"{n - s.bit_count()}*p{s}" for s in forms if s != 2**n - 1)
    lines.append(f"eq e = 1 - e - 0.1*e*({uptake})")
    lines += [f"init p{s} = {1 if s == 0 else 0}" for s in forms]
    lines += ["init e = 0.5", "obs e", "horizon 5"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def random_corpus():
    """20 deterministic random polynomial systems with sampled bases.

    Each entry is (system, basis, epsilon_max). Candidates are screened: the
    system must not be exactly lumpable by its observable (epsilon_max well
    above zero), and its tolerance staircase must be certified monotone by
    the library itself on the 257-point lattice the search oracle uses. The
    greedy sweep admits rare non-monotone systems (that is why
    MonotonicityError exists); bisection against a grid oracle is only
    meaningful on the monotone ones.
    """
    corpus = []
    seed = 0
    while len(corpus) < 20:
        system = lk.parse_model(random_polynomial_model(seed))
        domain = lk.default_domain(system, seed=seed)
        basis = lk.sample_jacobian_basis(system, domain)
        eps_mx = lk.epsilon_max(basis, system.observables)
        seed += 1
        if eps_mx <= 1e-6:
            continue
        try:
            lk.staircase(basis, system.observables, np.linspace(0.0, eps_mx, 257))
        except lk.errors.MonotonicityError:
            continue
        corpus.append((system, basis, eps_mx))
    return corpus


def central_difference_jacobian(system: lk.OdeSystem, x: np.ndarray) -> np.ndarray:
    """Independent Jacobian oracle: central differences of evaluate_drift
    with per-coordinate step h_i = 1e-6 * max(1, |x_i|)."""
    m = system.dim
    J = np.empty((m, m))
    for j in range(m):
        h = 1e-6 * max(1.0, abs(float(x[j])))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (lk.evaluate_drift(system, xp) - lk.evaluate_drift(system, xm)) / (2 * h)
    return J


def sweep_fixpoint_holds(basis: lk.JacobianBasis, lump: lk.LumpingMatrix) -> bool:
    """Certificate that one more sweep pass would append nothing: every
    row/matrix defect stays within the append threshold the sweep used."""
    L = lump.matrix
    for r in L:
        for J in basis.matrices:
            v = r @ J
            defect = v - (v @ L.T) @ L
            distance = float(np.linalg.norm(defect))
            threshold = max(lump.epsilon, lk.RANK_RTOL * float(np.linalg.norm(v)))
            if distance > threshold * (1 + 1e-12) + 1e-300:
                return False
    return True


ACCEPTANCE_LINES: list[str] = []


def record_acceptance(index: int, ok: bool, description: str):
    line = f"[A{index}] {'PASS' if ok else 'FAIL'}: {description}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
