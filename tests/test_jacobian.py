"""Jacobian sampling, the incremental rank test, and span membership."""

import warnings
from collections import deque

import numpy as np
import pytest

import lumpkit as lk
from lumpkit.errors import DimensionMismatchError, EvaluationError, SamplingError
from lumpkit.jacobian import _build_basis, sample_jacobians
from lumpkit.model import project_out

from conftest import BIG_POWER, CANONICAL_POINTS, GOLDEN_J_PLAIN, NON_FINITE, benchmark_workloads


def per_point_basis(system, domain, initial_points=()):
    """Test-only oracle: the sampler with one draw and one dual evaluation
    per point."""
    m = system.dim
    limit = domain.max_resamples if domain.max_resamples is not None else 100 * m
    rng = np.random.Generator(np.random.PCG64(domain.seed))
    queue = deque(np.asarray(x, dtype=float) for x in initial_points)

    def candidates():
        failures = 0
        while True:
            x = queue.popleft() if queue else rng.uniform(domain.lower, domain.upper)
            try:
                _, J = lk.evaluate_drift_dual(system, x)
            except EvaluationError:
                failures += 1
                if failures > limit:
                    raise SamplingError(f"{failures} consecutive singular samples") from None
                continue
            failures = 0
            yield J, x

    return _build_basis(m, candidates(), domain.confirmations)


class TestGoldenJacobians:
    def test_canonical_points_match_reference_tables(self, rational3):
        # reference tables are rounded to three decimals
        for point, expected in zip(CANONICAL_POINTS, GOLDEN_J_PLAIN):
            _, J = lk.evaluate_drift_dual(rational3, np.array(point))
            np.testing.assert_allclose(J, expected, rtol=0, atol=5e-3)

    def test_plain_basis_dimension_from_canonical_points(self, rational3):
        basis = lk.basis_from_points(rational3, CANONICAL_POINTS)
        assert basis.dimension == 5

    def test_plain_basis_dimension_with_random_continuation(self, rational3):
        domain = lk.default_domain(rational3, seed=0, confirmations=1)
        basis = lk.sample_jacobian_basis(rational3, domain, CANONICAL_POINTS)
        assert basis.dimension == 5

    def test_perturbed_basis_dimension(self, rational3_perturbed):
        domain = lk.default_domain(rational3_perturbed, seed=0, confirmations=1)
        basis = lk.sample_jacobian_basis(
            rational3_perturbed, domain, CANONICAL_POINTS
        )
        assert basis.dimension == 6


class TestSampling:
    @pytest.mark.parametrize("seed", range(10))
    def test_dimension_is_seed_invariant(self, rational3, rational3_perturbed, seed):
        basis = lk.sample_jacobian_basis(
            rational3, lk.default_domain(rational3, seed=seed)
        )
        assert basis.dimension == 5
        basis_p = lk.sample_jacobian_basis(
            rational3_perturbed, lk.default_domain(rational3_perturbed, seed=seed)
        )
        assert basis_p.dimension == 6

    def test_sampling_is_deterministic_per_seed(self, rational3):
        domain = lk.default_domain(rational3, seed=42)
        a = lk.sample_jacobian_basis(rational3, domain)
        b = lk.sample_jacobian_basis(rational3, domain)
        assert a.dimension == b.dimension
        for Ja, Jb in zip(a.matrices, b.matrices):
            np.testing.assert_array_equal(Ja, Jb)
        for xa, xb in zip(a.sample_points, b.sample_points):
            np.testing.assert_array_equal(xa, xb)

    def test_span_covers_fresh_jacobians(self, rational3):
        basis = lk.sample_jacobian_basis(rational3, lk.default_domain(rational3))
        rng = np.random.Generator(np.random.PCG64(123))
        for _ in range(50):
            x = rng.uniform(0.1, 2.0, 3)
            _, J = lk.evaluate_drift_dual(rational3, x)
            assert lk.membership_residual(basis, J) <= 1e-6 * np.linalg.norm(J)

    def test_linear_system_has_one_dimensional_span(self):
        system = lk.parse_model(
            "model lin\nvar a, b\neq a = a + 2*b\neq b = 3*a - b\n"
            "init a = 1\ninit b = 1\nobs a\nhorizon 1\n"
        )
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system))
        assert basis.dimension == 1
        np.testing.assert_allclose(
            basis.matrices[0], [[1.0, 2.0], [3.0, -1.0]], rtol=0, atol=1e-12
        )

    def test_full_span_stops_at_the_m_squared_cap(self, monkeypatch):
        # J = [[a^2, b^2], [b, a]] spans all 2x2 matrices: the cap, not the
        # 50 confirmations, ends sampling, so no draw is wasted after it
        system = lk.parse_model(
            "model full\nvar a, b\neq a = a^3/3 + b^3/3\neq b = a*b\n"
            "init a = 1\ninit b = 1\nobs a\nhorizon 1\n"
        )
        points = []

        def counting(system, x):
            points.extend(np.atleast_2d(x))
            return lk.evaluate_drift_dual(system, x)

        monkeypatch.setattr("lumpkit.jacobian.evaluate_drift_dual", counting)
        domain = lk.default_domain(system, confirmations=50)
        basis = lk.sample_jacobian_basis(system, domain)
        assert basis.dimension == 4
        assert len(points) == 4

    def test_dependent_candidates_shrink_the_last_blocks(self, monkeypatch):
        # the repeated initial point is dependent, so the cap is met only at
        # the fifth candidate: blocks of 2, 2 and 1 evaluate exactly five
        system = lk.parse_model(
            "model full\nvar a, b\neq a = a^3/3 + b^3/3\neq b = a*b\n"
            "init a = 1\ninit b = 1\nobs a\nhorizon 1\n"
        )
        points = []

        def counting(system, x):
            points.extend(np.atleast_2d(x))
            return lk.evaluate_drift_dual(system, x)

        monkeypatch.setattr("lumpkit.jacobian.evaluate_drift_dual", counting)
        domain = lk.default_domain(system, confirmations=50)
        basis = lk.sample_jacobian_basis(system, domain, [[1.0, 2.0], [1.0, 2.0]])
        assert basis.dimension == 4
        assert len(points) == 5

    def test_huge_entries_keep_the_span(self):
        # J = [[400 a^399, 0], [1, 0]] spans {E11, E21}; entries up to ~1e308
        # must not overflow the squared norms of the rank test
        system = lk.parse_model(
            "model big\nvar a, b\neq a = a^400\neq b = a\n"
            "init a = 10\ninit b = 1\nobs b\nhorizon 1\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sampled = lk.sample_jacobian_basis(system, lk.default_domain(system))
            explicit = lk.basis_from_points(system, [[5.0, 0.0], [0.5, 0.0]])
            inside = lk.membership_residual(explicit, [[1e300, 0.0], [-1e300, 0.0]])
            outside = lk.membership_residual(explicit, [[0.0, 1e300], [0.0, 0.0]])
        assert sampled.dimension == 2
        assert explicit.dimension == 2
        assert inside <= 1e-12 * 1e300
        assert outside == pytest.approx(1e300, rel=1e-12)

    @pytest.mark.parametrize("name", ("rational3", "rational3_perturbed"))
    def test_ortho_flat_is_orthonormal(self, request, name):
        system = request.getfixturevalue(name)
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system))
        Q = basis.ortho_flat
        assert Q.shape == (basis.dimension, system.dim**2)
        assert np.max(np.abs(Q @ Q.T - np.eye(basis.dimension))) <= 1e-12

    def test_everywhere_singular_drift_aborts(self):
        system = lk.parse_model(
            "model sing\nvar a, b\neq a = 1/(a - a)\neq b = a\n"
            "init a = 1\ninit b = 1\nobs a\nhorizon 1\n"
        )
        domain = lk.SamplingDomain(
            lower=np.zeros(2), upper=np.ones(2), max_resamples=5
        )
        with pytest.raises(SamplingError):
            lk.sample_jacobian_basis(system, domain)

    def test_domain_dimension_mismatch(self, rational3):
        domain = lk.SamplingDomain(lower=np.zeros(2), upper=np.ones(2))
        with pytest.raises(DimensionMismatchError):
            lk.sample_jacobian_basis(rational3, domain)

    def test_overflowing_power_derivative_is_singular(self):
        # 400 a^399 overflows on the whole box (and a^400 too above ~5.897):
        # every point is skipped, where the inf and nan Jacobians used to
        # give a basis of dimension 0
        system = lk.parse_model(BIG_POWER)
        domain = lk.SamplingDomain(lower=[5.84, 0.0], upper=[5.89, 1.0])
        with pytest.raises(SamplingError):
            lk.sample_jacobian_basis(system, domain)

    def test_non_finite_samples_are_singular(self):
        # J = [[inf, nan], [1, 0]] on the whole box: every point is skipped,
        # where the nan rank test used to count it as dependent and return a
        # basis of dimension 0
        system = lk.parse_model(NON_FINITE)
        domain = lk.SamplingDomain(lower=[1e10, 0.0], upper=[2e10, 1.0])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SamplingError):
            lk.sample_jacobian_basis(system, domain)

    def test_non_finite_samples_are_skipped(self):
        # at a = 2e4, f = 4e308 overflows to inf while J is still finite:
        # the point is skipped, and the next one enters the basis
        system = lk.parse_model(NON_FINITE)
        domain = lk.SamplingDomain(lower=[0.0, 0.0], upper=[2e4, 1.0])
        with np.errstate(over="ignore"):
            f, J = lk.evaluate_drift_dual(system, np.array([2e4, 0.5]))
            assert f[0] == np.inf and np.isfinite(J).all()
            basis = lk.sample_jacobian_basis(system, domain, [[2e4, 0.5], [1.0, 0.5]])
        np.testing.assert_array_equal(basis.sample_points[0], [1.0, 0.5])


def vstack_basis(system_dim, candidates, confirmations=None):
    """Test-only oracle: the rank test regrowing its orthonormal stack with
    np.vstack on every accepted candidate."""
    cap = system_dim * system_dim
    Q = np.empty((0, cap))
    mats, pts = [], []
    dependent_run = 0
    for J, point in candidates:
        vec = np.ldexp(J.ravel(), -int(np.frexp(np.max(np.abs(J), initial=0.0))[1]))
        scale = float(np.linalg.norm(vec))
        r = project_out(project_out(vec, Q), Q)
        rnorm = float(np.linalg.norm(r))
        if scale > 0.0 and rnorm > lk.RANK_RTOL * scale:
            Q = np.vstack((Q, r / rnorm))
            mats.append(J)
            pts.append(None if point is None else np.array(point, dtype=float))
            dependent_run = 0
        else:
            dependent_run += 1
        if len(mats) == cap or dependent_run == confirmations:
            break
    matrices = np.reshape(mats, (-1, system_dim, system_dim))
    return lk.JacobianBasis(system_dim, matrices, tuple(pts), Q)


class TestBasisStack:
    """The rank test fills a preallocated stack and matrix buffer of m rows
    each and doubles both when full; the basis is the one a stack regrown on
    every accepted candidate gives, bit for bit."""

    @staticmethod
    def assert_matches_vstack(monkeypatch, build, *args):
        basis = build(*args)
        with monkeypatch.context() as patched:
            patched.setattr(lk.jacobian, "_build_basis", vstack_basis)
            assert basis == build(*args)
        assert basis.ortho_flat.shape == (basis.dimension, basis.state_dim**2)
        assert basis.ortho_flat.base is None
        return basis

    @pytest.mark.parametrize("m", (5, 10))
    def test_growth_past_the_initial_capacity(self, m, monkeypatch):
        # m^2 random matrices with a dependent one after every fifth: at
        # m = 10 the buffers grow 10 -> 20 -> 40 -> 80 -> 100 rows, at m = 5
        # 5 -> 10 -> 20 -> 25
        rng = np.random.Generator(np.random.PCG64(m))
        mats = list(rng.normal(size=(m * m, m, m)))
        for i in range(5, len(mats) + len(mats) // 5, 6):
            mats.insert(i, mats[i - 1] - 2.0 * mats[i - 3])
        basis = self.assert_matches_vstack(monkeypatch, lk.basis_from_matrices, mats)
        assert basis.dimension == m * m > 4 * m  # doubled past 2m and 4m

    def test_sampled_bases(
        self, rational3, rational3_perturbed, poly4, random_corpus, monkeypatch
    ):
        workloads = benchmark_workloads()
        search = [lk.parse_model(workloads.rational_model_text(key)) for key in range(2)]
        systems = [rational3, rational3_perturbed, poly4, *search]
        systems += [system for system, _, _ in random_corpus]
        for system in systems:
            for seed in range(2):
                domain = lk.default_domain(system, seed=seed)
                self.assert_matches_vstack(monkeypatch, lk.sample_jacobian_basis, system, domain)


@pytest.mark.parametrize(
    "points, index",
    [
        ([1.0, 2.0, 3.0], 0),  # a flat list is three scalars, not one point
        ([[1.0, 5.0, 2.0], [3.0, 3.0]], 1),
        ([[1.0, 5.0, 2.0], [[3.0, 3.0, 2.0]]], 1),
    ],
    ids=["flat", "short", "nested"],
)
def test_initial_points_must_be_state_vectors(rational3, points, index):
    domain = lk.default_domain(rational3)
    with pytest.raises(ValueError, match=f"sample point {index} is not a vector of length 3"):
        lk.sample_jacobian_basis(rational3, domain, initial_points=points)


class TestBlockSampling:
    """Blocks of draws give the basis of one draw and one evaluation at a
    time: same matrices, points and ortho_flat bits."""

    def test_bundled_models_and_random_corpus(
        self, rational3, rational3_perturbed, poly4, random_corpus
    ):
        cases = [(s, seed) for s in (rational3, rational3_perturbed, poly4) for seed in range(4)]
        cases += [(system, 0) for system, _, _ in random_corpus]
        for system, seed in cases:
            domain = lk.default_domain(system, seed=seed)
            assert lk.sample_jacobian_basis(system, domain) == per_point_basis(system, domain)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("key", range(2))
    def test_search_models(self, key, seed):
        # K ~ 4m: the one place where the doubling blocks outgrow m
        system = lk.parse_model(benchmark_workloads().rational_model_text(key))
        domain = lk.default_domain(system, seed=seed)
        assert lk.sample_jacobian_basis(system, domain) == per_point_basis(system, domain)

    @pytest.mark.parametrize("key, blocks", [(0, [20, 20, 40, 80]), (1, [20, 20, 40])])
    def test_blocks_double(self, monkeypatch, key, blocks):
        # each block is as large as all the candidates before it, so the
        # points evaluated past the stop are at most the candidates consumed
        system = lk.parse_model(benchmark_workloads().rational_model_text(key))
        sizes = []
        consumed = 0

        def counting(system, x):
            sizes.append(len(x))
            return lk.evaluate_drift_dual(system, x)

        def counted(candidates):
            nonlocal consumed
            for candidate in candidates:
                consumed += 1
                yield candidate

        monkeypatch.setattr("lumpkit.jacobian.evaluate_drift_dual", counting)
        monkeypatch.setattr(
            "lumpkit.jacobian.sample_jacobians", lambda *args: counted(sample_jacobians(*args))
        )
        lk.sample_jacobian_basis(system, lk.default_domain(system, seed=key))
        assert sizes == blocks
        assert sum(sizes) <= max(system.dim, 2 * consumed)

    @pytest.mark.parametrize("seed", range(4))
    def test_singular_point_inside_a_block(self, rational3, seed):
        # (1, -3, 1) zeroes a denominator, so the first block of initial
        # points is evaluated again one point at a time
        initial = [[1.0, -3.0, 1.0], *CANONICAL_POINTS]
        domain = lk.default_domain(rational3, seed=seed)
        with pytest.raises(EvaluationError):
            lk.evaluate_drift_dual(rational3, np.array(initial[:3]))
        basis = lk.sample_jacobian_basis(rational3, domain, initial_points=initial)
        assert basis == per_point_basis(rational3, domain, initial)
        assert not any(np.array_equal(x, initial[0]) for x in basis.sample_points)

    def test_singular_runs_are_counted_across_blocks(self):
        # about 70% of [0, 20] x [0, 1] is singular, so runs of singular
        # draws often span blocks of m = 2; the run that exceeds
        # max_resamples must be the one point-by-point sampling counts
        system = lk.parse_model(BIG_POWER)
        outcomes = set()
        for limit in range(1, 7):
            for seed in range(10):
                domain = lk.SamplingDomain(
                    lower=[0.0, 0.0], upper=[20.0, 1.0], seed=seed, max_resamples=limit
                )
                try:
                    expected = per_point_basis(system, domain)
                except SamplingError as exc:
                    expected = str(exc)
                try:
                    got = lk.sample_jacobian_basis(system, domain)
                except SamplingError as exc:
                    got = str(exc).split(";")[0]
                assert got == expected
                outcomes.add(isinstance(got, str))
        assert outcomes == {True, False}


class TestSamplingDomain:
    def test_default_domain_box(self, rational3):
        domain = lk.default_domain(rational3, seed=9)
        np.testing.assert_array_equal(domain.lower, np.zeros(3))
        np.testing.assert_array_equal(domain.upper, np.full(3, 2.0))
        assert domain.seed == 9

    @pytest.mark.parametrize(
        "kwargs, exc",
        [
            (dict(lower=np.ones(2), upper=np.zeros(2)), ValueError),
            (dict(lower=np.zeros(2), upper=np.ones(2), seed=-1), ValueError),
            (dict(lower=np.zeros(2), upper=np.ones(2), confirmations=0), ValueError),
            (dict(lower=np.zeros(2), upper=np.ones(2), max_resamples=0), ValueError),
            (dict(lower=np.zeros((2, 2)), upper=np.ones((2, 2))), DimensionMismatchError),
        ],
    )
    def test_validation(self, kwargs, exc):
        with pytest.raises(exc):
            lk.SamplingDomain(**kwargs)

    def test_equality_compares_arrays_by_value(self):
        domain = lk.SamplingDomain(lower=np.zeros(2), upper=np.ones(2), seed=3)
        assert domain == lk.SamplingDomain(lower=[0.0, 0.0], upper=[1.0, 1.0], seed=3)
        assert domain != lk.SamplingDomain(lower=np.zeros(2), upper=np.ones(2), seed=4)
        assert domain != lk.SamplingDomain(lower=np.zeros(2), upper=np.full(2, 2.0), seed=3)
        assert domain != lk.SamplingDomain(lower=np.zeros(3), upper=np.ones(3), seed=3)

    def test_bounds_are_read_only(self):
        lower = np.zeros(2)
        domain = lk.SamplingDomain(lower=lower, upper=np.ones(2))
        assert not (domain.lower.flags.writeable or domain.upper.flags.writeable)
        lower[0] = -1.0  # a copy, not a view of the caller's array
        assert domain.lower[0] == 0.0


class TestExplicitBases:
    def test_dependent_matrices_are_filtered(self):
        J1, J2 = GOLDEN_J_PLAIN[0], GOLDEN_J_PLAIN[1]
        basis = lk.basis_from_matrices([J1, 2.0 * J1, J2, J1 + J2])
        assert basis.dimension == 2
        np.testing.assert_array_equal(basis.matrices[0], J1)
        np.testing.assert_array_equal(basis.matrices[1], J2)

    def test_empty_basis_needs_state_dim(self):
        with pytest.raises(ValueError):
            lk.basis_from_matrices([])
        basis = lk.basis_from_matrices([], state_dim=3)
        assert basis.dimension == 0

    def test_wrong_shape_matrix_rejected(self):
        with pytest.raises(DimensionMismatchError, match="wrong shape"):
            lk.basis_from_matrices([GOLDEN_J_PLAIN[0], np.eye(2)])

    def test_inconsistent_fields_rejected(self):
        basis = lk.basis_from_matrices([GOLDEN_J_PLAIN[0], GOLDEN_J_PLAIN[1]])
        fields = (basis.state_dim, basis.matrices, basis.sample_points, basis.ortho_flat)
        with pytest.raises(DimensionMismatchError, match="one sample point slot per matrix"):
            lk.JacobianBasis(*fields[:2], (None,), fields[3])
        with pytest.raises(DimensionMismatchError, match="ortho_flat shape"):
            lk.JacobianBasis(*fields[:3], fields[3][:1])

    def test_equality_compares_arrays_by_value(self):
        J1, J2 = GOLDEN_J_PLAIN[0], GOLDEN_J_PLAIN[1]
        basis = lk.basis_from_matrices([J1, J2])
        assert basis == lk.basis_from_matrices([J1.copy(), J2.copy()])
        assert basis != lk.basis_from_matrices([J2, J1])
        assert basis != lk.basis_from_matrices([J1, J2], sample_points=[None, np.ones(3)])
        assert basis != lk.basis_from_matrices([J1])
        assert basis != lk.basis_from_matrices([], state_dim=3)

    def test_matrices_are_one_read_only_array(self, rational3):
        J1, J2 = GOLDEN_J_PLAIN[0], GOLDEN_J_PLAIN[1]
        bases = [
            lk.sample_jacobian_basis(rational3, lk.default_domain(rational3)),
            lk.basis_from_points(rational3, CANONICAL_POINTS),
            lk.basis_from_matrices([J1, 2.0 * J1, J2]),
            lk.basis_from_matrices([], state_dim=3),
        ]
        for basis in bases:
            assert isinstance(basis.matrices, np.ndarray)
            assert basis.matrices.dtype == float
            assert basis.matrices.shape == (basis.dimension, 3, 3)
            assert not basis.matrices.flags.writeable
        assert bases[2].dimension == 2
        assert bases[3].matrices.shape == (0, 3, 3)

    def test_every_array_is_read_only(self, rational3):
        bases = [
            lk.sample_jacobian_basis(rational3, lk.default_domain(rational3)),
            lk.basis_from_points(rational3, CANONICAL_POINTS),
            lk.basis_from_matrices([GOLDEN_J_PLAIN[0]], sample_points=[np.ones(3)]),
        ]
        for basis in bases:
            arrays = [basis.matrices, basis.ortho_flat, *basis.sample_points]
            assert not any(values.flags.writeable for values in arrays)

    def test_to_json_dict_schema(self, worked_basis):
        payload = worked_basis.to_json_dict()
        assert payload["state_dim"] == 3
        assert payload["dimension"] == worked_basis.dimension
        assert len(payload["matrices"]) == worked_basis.dimension
        assert payload["rank_rtol"] == lk.RANK_RTOL


class TestMembershipResidual:
    def test_member_has_zero_residual(self, worked_basis):
        for J in worked_basis.matrices:
            assert lk.membership_residual(worked_basis, J) <= 1e-12 * np.linalg.norm(J)

    def test_combination_of_members_has_zero_residual(self, worked_basis):
        combo = sum(
            c * J for c, J in zip([0.3, -1.2, 0.7, 2.0, -0.4, 1.1], worked_basis.matrices)
        )
        assert lk.membership_residual(worked_basis, combo) <= 1e-10 * np.linalg.norm(combo)

    def test_empty_basis_returns_full_norm(self):
        basis = lk.basis_from_matrices([], state_dim=3)
        residual = lk.membership_residual(basis, np.eye(3))
        assert residual == pytest.approx(np.sqrt(3.0), rel=1e-15)

    def test_residual_matches_projection_oracle(self):
        # one-matrix basis: the residual is the classic Gram-Schmidt defect
        J1, J2 = GOLDEN_J_PLAIN[0], GOLDEN_J_PLAIN[1]
        basis = lk.basis_from_matrices([J1])
        v1 = J1.ravel() / np.linalg.norm(J1)
        v2 = J2.ravel()
        expected = np.linalg.norm(v2 - (v2 @ v1) * v1)
        assert lk.membership_residual(basis, J2) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch_rejected(self, worked_basis):
        with pytest.raises(DimensionMismatchError):
            lk.membership_residual(worked_basis, np.eye(4))

    def test_residual_past_the_float_range_is_a_silent_inf(self):
        # the residual's norm is about 2.4e308; warnings are errors in tier-1
        basis = lk.basis_from_matrices([np.diag([1.0, 0.0])])
        assert lk.membership_residual(basis, [[0.0, 1.7e308], [1.7e308, 0.0]]) == np.inf
