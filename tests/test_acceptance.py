"""Top-level acceptance checks, one test per shipped guarantee.

Each test prints one `[A<n>] PASS/FAIL` line (collected again in the summary
section at the end of the run) and then asserts, so a red criterion is visible
both in the test report and in the acceptance listing.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import lumpkit as lk
from lumpkit.cli import main as cli_main

from conftest import (
    CANONICAL_POINTS,
    GOLDEN_J_PLAIN,
    record_acceptance,
    sweep_fixpoint_holds,
    central_difference_jacobian,
)

MODELS = Path(__file__).resolve().parent.parent / "models"
OBS_X1 = np.array([[1.0, 0.0, 0.0]])


def test_criterion_1_jacobian_goldens(rational3, rational3_perturbed):
    t0 = time.perf_counter()
    worst = 0.0
    for point, expected in zip(CANONICAL_POINTS, GOLDEN_J_PLAIN):
        _, J = lk.evaluate_drift_dual(rational3, np.array(point))
        worst = max(worst, float(np.max(np.abs(J - expected))))

    dims = []
    for system in (rational3, rational3_perturbed):
        domain = lk.default_domain(system, seed=0, confirmations=1)
        basis = lk.sample_jacobian_basis(system, domain, CANONICAL_POINTS)
        dims.append(basis.dimension)
    elapsed = time.perf_counter() - t0

    ok = worst <= 5e-3 and dims == [5, 6] and elapsed < 1.0
    record_acceptance(
        1,
        ok,
        f"AD Jacobians match reference tables (max dev {worst:.2e} <= 5e-3), "
        f"span dims {dims} == [5, 6], {elapsed:.2f}s < 1s",
    )
    assert worst <= 5e-3
    assert dims == [5, 6]
    assert elapsed < 1.0


def test_criterion_2_deviation_goldens(rational3, rational3_perturbed, reference_lump):
    t0 = time.perf_counter()
    x = np.array([1.0, 1.0, 1.0])
    dev_perturbed = lk.deviation(rational3_perturbed, reference_lump, x)
    dev_plain = lk.deviation(rational3, reference_lump, x)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(dev_perturbed - 0.007) <= 1e-3
        and dev_plain <= 1e-12
        and elapsed < 1.0
    )
    record_acceptance(
        2,
        ok,
        f"deviation {dev_perturbed:.6f} == 0.007 +- 1e-3 perturbed, "
        f"{dev_plain:.2e} <= 1e-12 plain, {elapsed:.2f}s < 1s",
    )
    assert dev_perturbed == pytest.approx(0.007, abs=1e-3)
    assert dev_plain <= 1e-12
    assert elapsed < 1.0


def test_criterion_3_sweep_golden(worked_basis):
    t0 = time.perf_counter()
    lump = lk.approximate_lump(worked_basis, OBS_X1, 0.2, record_trace=True)
    elapsed = time.perf_counter() - t0

    expected_L = np.array([[1.0, 0.0, 0.0], [0.0, 0.443, 0.897]])
    matrix_dev = float(np.max(np.abs(lump.matrix - expected_L)))

    rejections = {
        ev.matrix: ev.distance
        for ev in lump.trace
        if ev.sweep == 1 and ev.row == 0 and not ev.appended and ev.matrix >= 2
    }
    expected = {2: 0.089, 3: 0.09, 4: 0.018, 5: 0.01}
    dist_dev = max(
        abs(rejections[k] - v) for k, v in expected.items()
    ) if set(expected) <= set(rejections) else math.inf

    ok = matrix_dev <= 1e-3 and dist_dev <= 2e-3 and elapsed < 1.0
    record_acceptance(
        3,
        ok,
        f"sweep output matches reference rows (max dev {matrix_dev:.2e} <= 1e-3), "
        f"rejection distances within {dist_dev:.2e} <= 2e-3, {elapsed:.2f}s < 1s",
    )
    assert matrix_dev <= 1e-3
    assert set(expected) <= set(rejections)
    assert dist_dev <= 2e-3
    assert elapsed < 1.0


def test_criterion_4_exactness(rational3, reference_lump):
    t0 = time.perf_counter()
    report = lk.reduction_report(rational3, reference_lump, config=lk.SolverConfig(rel_tol=1e-8))
    elapsed = time.perf_counter() - t0

    ok = report.e_max <= 1e-6 and elapsed < 5.0
    record_acceptance(
        4,
        ok,
        f"exact reduction commutes: max |y - Lx| = {report.e_max:.2e} <= 1e-6, "
        f"{elapsed:.2f}s < 5s",
    )
    assert report.e_max <= 1e-6
    assert elapsed < 5.0


def test_criterion_5_deviation_bound(rational3_perturbed, reference_lump):
    t0 = time.perf_counter()
    report = lk.reduction_report(rational3_perturbed, reference_lump)
    elapsed = time.perf_counter() - t0

    dominated = bool(np.all(report.errors <= report.bound)) and report.bound_satisfied
    eta_ok = report.eta <= 0.05
    runtime_ok = elapsed < 10.0
    record_acceptance(
        5,
        dominated and eta_ok and runtime_ok,
        f"eta = {report.eta:.6f} <= 0.05 ({'yes' if eta_ok else 'NO'}), "
        f"errors dominated by eta*K ({'yes' if dominated else 'NO'}), "
        f"{elapsed:.2f}s < 10s",
    )
    assert dominated
    assert runtime_ok
    assert report.eta <= 0.05, (
        f"measured deviation ceiling eta = {report.eta:.17g} exceeds 0.05; the "
        "trajectory deviation grows monotonically and peaks at the horizon"
    )


def test_criterion_6_epsilon_max_thresholds(random_corpus):
    t0 = time.perf_counter()
    failures = []
    for idx, (system, basis, eps_mx) in enumerate(random_corpus):
        p = system.observables.shape[0]
        above = lk.approximate_lump(basis, system.observables, eps_mx * (1 + 1e-9))
        below = lk.approximate_lump(basis, system.observables, eps_mx * (1 - 1e-3))
        if above.dim != p or below.dim < p:
            failures.append((idx, above.dim, below.dim, p))
    elapsed = time.perf_counter() - t0

    ok = not failures and elapsed < 30.0
    record_acceptance(
        6,
        ok,
        f"epsilon_max threshold on 20 random systems: above -> exactly p rows, "
        f"below -> >= p rows ({len(failures)} failures), {elapsed:.2f}s < 30s",
    )
    assert not failures, failures
    assert elapsed < 30.0


def lattice_scan(basis, observables, cutoff, d_min, eps_mx, coarse=16384):
    """Smallest multiple of d_min whose sweep size fits the cutoff.

    Coarse pass over the lattice first, then a fine pass inside the located
    bracket; visits every candidate point because size is non-increasing in
    the tolerance.
    """

    def size_at(k):
        return lk.approximate_lump(basis, observables, k * d_min).dim

    k_top = int(math.ceil(eps_mx / d_min))
    ks = list(range(0, k_top + 1, coarse))
    if ks[-1] != k_top:
        ks.append(k_top)
    prev = 0
    hi = k_top
    for k in ks:
        if size_at(k) <= cutoff:
            hi = k
            break
        prev = k
    for j in range(prev, hi + 1):
        if size_at(j) <= cutoff:
            return j * d_min
    raise AssertionError("no lattice point fits the cutoff")


def test_criterion_7_search_vs_grid_oracle(worked_basis, random_corpus):
    t0 = time.perf_counter()
    cases = [(worked_basis, OBS_X1, 2, 1e-6, lk.epsilon_max(worked_basis, OBS_X1))]
    for system, basis, eps_mx in random_corpus:
        cases.append(
            (basis, system.observables, system.dim - 1, eps_mx / 256.0, eps_mx)
        )

    failures = []
    for idx, (basis, observables, cutoff, d_min, eps_mx) in enumerate(cases):
        config = lk.EpsilonSearchConfig(cutoff_size=cutoff, d_min=d_min)
        result = lk.find_epsilon(basis, observables, config)
        eps_grid = lattice_scan(basis, observables, cutoff, d_min, eps_mx)
        grid_size = lk.approximate_lump(basis, observables, eps_grid).dim
        if result.lump.dim != grid_size or abs(result.epsilon - eps_grid) > d_min:
            failures.append((idx, result.lump.dim, grid_size,
                             result.epsilon, eps_grid))
    elapsed = time.perf_counter() - t0

    ok = not failures and elapsed < 60.0
    record_acceptance(
        7,
        ok,
        f"bisection agrees with the brute-force lattice on {len(cases)} cases "
        f"({len(failures)} failures), {elapsed:.2f}s < 60s",
    )
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_8_property_suite(
    rational3, rational3_perturbed, poly4, random_corpus
):
    t0 = time.perf_counter()
    problems = []

    # integrator closed forms
    traj = lk.integrate(lambda y: -y, np.array([1.0]), 1.0)
    if abs(traj.states[-1][0] - math.exp(-1.0)) > 1e-6:
        problems.append("exponential decay")
    traj = lk.integrate(
        lambda y: np.array([y[1], -y[0]]), np.array([1.0, 0.0]), 2 * math.pi
    )
    if float(np.max(np.abs(traj.states[-1] - [1.0, 0.0]))) > 1e-5:
        problems.append("oscillator period")

    # forward-mode derivatives against central differences
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(100):
        x = rng.uniform(0.2, 1.8, 3)
        _, ad = lk.evaluate_drift_dual(rational3_perturbed, x)
        fd = central_difference_jacobian(rational3_perturbed, x)
        if np.max(np.abs(ad - fd)) > 1e-6 * max(1.0, float(np.max(np.abs(ad)))):
            problems.append(f"AD vs FD at {x}")
            break

    # sweep output properties across the random corpus
    for system, basis, eps_mx in random_corpus[:8]:
        for eps in (0.0, eps_mx / 2.0):
            lump = lk.approximate_lump(basis, system.observables, eps)
            L = lump.matrix
            if np.max(np.abs(L @ L.T - np.eye(lump.dim))) > 1e-10:
                problems.append(f"orthonormality at eps={eps}")
            M = system.observables
            if np.max(np.abs(M - (M @ L.T) @ L)) > 1e-8:
                problems.append(f"observable containment at eps={eps}")
            if not sweep_fixpoint_holds(basis, lump):
                problems.append(f"fixpoint certificate at eps={eps}")

    # staircase monotonicity on every bundled model
    for system in (rational3, rational3_perturbed, poly4):
        domain = lk.default_domain(system, seed=0)
        basis = lk.sample_jacobian_basis(system, domain)
        eps_mx = lk.epsilon_max(basis, system.observables)
        pairs = lk.staircase(
            basis, system.observables, np.linspace(0.0, eps_mx, 9)
        )
        sizes = [size for _, size in pairs]
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            problems.append("staircase monotonicity")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    record_acceptance(
        8,
        ok,
        f"integrator, derivative, sweep, and staircase properties hold "
        f"({len(problems)} problems), {elapsed:.2f}s < 60s",
    )
    assert not problems, problems
    assert elapsed < 60.0


def _same_artifacts(dir_a: Path, dir_b: Path) -> bool:
    names = sorted(p.name for p in dir_a.iterdir())
    if names != sorted(p.name for p in dir_b.iterdir()):
        return False
    for name in names:
        a, b = (dir_a / name).read_bytes(), (dir_b / name).read_bytes()
        if name == "manifest.json":
            # wall-clock phase timings are the one permitted difference
            ma, mb = json.loads(a), json.loads(b)
            ma.pop("timings"), mb.pop("timings")
            if ma != mb:
                return False
        elif a != b:
            return False
    return True


def test_criterion_9_cli_determinism(tmp_path):
    perturbed = str(MODELS / "rational3_perturbed.ode")
    plain = str(MODELS / "rational3.ode")
    s = 5.0**0.5
    lpath = tmp_path / "L.json"
    lpath.write_text(
        json.dumps(
            {
                "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0 / s, 2.0 / s]],
                "epsilon": 0.05,
                "observable_rank": 1,
            }
        )
    )
    commands = {
        "lump": ["lump", "--model", perturbed, "--seed", "5",
                 "--epsilon", "0.05"],
        "find-epsilon": ["find-epsilon", "--model", perturbed, "--seed", "1",
                         "--ratio", "0.67"],
        "sweep": ["sweep", "--model", plain, "--seed", "2", "--grid", "7"],
        "simulate": ["simulate", "--model", perturbed,
                     "--lumping", str(lpath)],
    }

    mismatched = []
    for name, argv in commands.items():
        dir_a = tmp_path / f"{name}-a"
        dir_b = tmp_path / f"{name}-b"
        assert cli_main(argv + ["--out", str(dir_a)]) == 0
        assert cli_main(argv + ["--out", str(dir_b)]) == 0
        if not _same_artifacts(dir_a, dir_b):
            mismatched.append(name)

    ok = not mismatched
    record_acceptance(
        9,
        ok,
        f"repeat CLI runs produce byte-identical artifacts for all four "
        f"commands (mismatches: {mismatched or 'none'})",
    )
    assert not mismatched, mismatched
