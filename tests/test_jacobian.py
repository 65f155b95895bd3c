"""Jacobian sampling, the incremental rank test, and span membership."""

import warnings

import numpy as np
import pytest

import lumpkit as lk
from lumpkit.errors import DimensionMismatchError, SamplingError

from conftest import CANONICAL_POINTS, GOLDEN_J_PLAIN


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
        calls = []

        def counting(system, x):
            calls.append(x)
            return lk.evaluate_drift_dual(system, x)

        monkeypatch.setattr("lumpkit.jacobian.evaluate_drift_dual", counting)
        domain = lk.default_domain(system, confirmations=50)
        basis = lk.sample_jacobian_basis(system, domain)
        assert basis.dimension == 4
        assert len(calls) == 4

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
