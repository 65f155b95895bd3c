"""Lumping sweep, tolerance extremes, and the size-targeted bisection."""

import contextlib
import math
import warnings
from operator import attrgetter

import numpy as np
import pytest

import lumpkit as lk
from lumpkit.errors import (
    DimensionMismatchError,
    EvaluationError,
    MonotonicityError,
    RankDeficiencyError,
)
from lumpkit.lumping import _decide, _measure

from conftest import (
    REFERENCE_ROWS,
    benchmark_workloads,
    model_path,
    phosphorylation_model,
    scaled_chain,
    sweep_fixpoint_holds,
)

OBS_X1 = np.array([[1.0, 0.0, 0.0]])

# projector onto span{(1,0,0), (0,1,2)}
REFERENCE_PROJECTOR = REFERENCE_ROWS.T @ np.diag([1.0, 0.2]) @ REFERENCE_ROWS


class TestOrthonormalize:
    def test_already_orthonormal_rows_kept(self):
        Q = lk.orthonormalize_rows(np.eye(3)[:2])
        np.testing.assert_array_equal(Q, np.eye(3)[:2])

    def test_gram_schmidt_example(self):
        Q = lk.orthonormalize_rows([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        np.testing.assert_allclose(Q, [[1, 0, 0], [0, 1, 0]], rtol=0, atol=1e-15)

    def test_reorthogonalization_quality(self):
        rng = np.random.Generator(np.random.PCG64(3))
        M = rng.normal(size=(20, 40))
        Q = lk.orthonormalize_rows(M)
        assert np.max(np.abs(Q @ Q.T - np.eye(20))) <= 1e-12

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["huge", "tiny"])
    def test_power_of_two_scale_keeps_bits(self, scale):
        # squares of these entries overflow or underflow unless measured at scale
        M = np.random.Generator(np.random.PCG64(5)).normal(size=(4, 6))
        assert lk.orthonormalize_rows(scale * M).tobytes() == lk.orthonormalize_rows(M).tobytes()

    def test_dependent_rows_rejected(self):
        with pytest.raises(RankDeficiencyError, match="row 1"):
            lk.orthonormalize_rows([[1.0, 0.0], [2.0, 0.0]])


class TestLumpingMatrix:
    def test_from_rows_orthonormalizes(self, reference_lump):
        L = reference_lump.matrix
        np.testing.assert_allclose(L @ L.T, np.eye(2), rtol=0, atol=1e-15)
        np.testing.assert_allclose(L[0], [1, 0, 0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            L[1], [0, 1 / np.sqrt(5), 2 / np.sqrt(5)], rtol=0, atol=1e-15
        )

    def test_rejects_non_orthonormal_rows(self):
        with pytest.raises(RankDeficiencyError, match="orthonormal"):
            lk.LumpingMatrix(
                matrix=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0]]),
                epsilon=0.0,
                observable_rank=1,
            )

    def test_rejects_nan(self):
        with pytest.raises(RankDeficiencyError, match="orthonormal"):
            lk.LumpingMatrix(matrix=[[np.nan, 0.0, 0.0]], epsilon=0.0, observable_rank=1)
        with pytest.raises(ValueError, match="epsilon"):
            lk.LumpingMatrix(matrix=np.eye(3)[:1], epsilon=np.nan, observable_rank=1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatchError):
            lk.LumpingMatrix(matrix=np.eye(3), epsilon=0.0, observable_rank=4)
        provenance = (lk.lumping.RowProvenance("observable"),)
        with pytest.raises(DimensionMismatchError, match="one provenance entry per row"):
            lk.LumpingMatrix(
                matrix=np.eye(3)[:2], epsilon=0.0, observable_rank=1, provenance=provenance
            )

    def test_projection_and_pseudoinverse(self, reference_lump):
        x = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            reference_lump.project(x), [1.0, 0.6, 1.2], rtol=0, atol=1e-15
        )
        np.testing.assert_array_equal(
            reference_lump.pseudoinverse, reference_lump.matrix.T
        )

    def test_matrix_is_read_only(self, reference_lump, worked_basis):
        with pytest.raises(ValueError):
            reference_lump.matrix[0, 0] = 2.0
        assert not lk.approximate_lump(worked_basis, OBS_X1, 0.2).matrix.flags.writeable

    def test_equality_compares_arrays_by_value(self, worked_basis):
        rows = np.eye(3)[:2]
        assert lk.LumpingMatrix.from_rows(rows) == lk.LumpingMatrix.from_rows(rows.copy())
        assert lk.LumpingMatrix.from_rows(rows) != lk.LumpingMatrix.from_rows(np.eye(3)[1:])
        assert lk.LumpingMatrix.from_rows(rows) != lk.LumpingMatrix.from_rows(rows, epsilon=0.1)
        first = lk.approximate_lump(worked_basis, OBS_X1, 0.2, record_trace=True)
        again = lk.approximate_lump(worked_basis, OBS_X1, 0.2, record_trace=True)
        assert first == again
        assert first != lk.approximate_lump(worked_basis, OBS_X1, 0.2)


@pytest.fixture(scope="module")
def worked_sweep_lump(worked_basis):
    return lk.approximate_lump(worked_basis, OBS_X1, 0.2, record_trace=True)


class TestWorkedSweep:
    """The six-matrix reference basis has a fully worked expected run at
    epsilon = 0.2: one append driven by the second matrix, then twelve
    rejections whose distances are known to three decimals."""

    @pytest.fixture
    def lump(self, worked_sweep_lump):
        return worked_sweep_lump

    def test_resulting_matrix(self, lump):
        assert lump.dim == 2
        assert lump.observable_rank == 1
        np.testing.assert_allclose(lump.matrix[0], [1, 0, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            lump.matrix[1], [0.0, 0.443, 0.897], rtol=0, atol=1e-3
        )

    def test_append_provenance(self, lump):
        assert [p.origin for p in lump.provenance] == ["observable", "appended"]
        appended = lump.provenance[1]
        assert appended.source_row == 0
        assert appended.source_matrix == 1
        assert appended.distance == pytest.approx(4.52, abs=5e-3)

    def test_first_row_rejection_distances(self, lump):
        by_key = {(e.sweep, e.row, e.matrix): e for e in lump.trace}
        expected = {0: 0.0, 2: 0.089, 3: 0.09, 4: 0.018, 5: 0.01}
        for matrix, value in expected.items():
            event = by_key[(1, 0, matrix)]
            assert not event.appended
            assert event.distance == pytest.approx(value, abs=2e-3)
        assert by_key[(1, 0, 1)].appended

    def test_appended_row_swept_in_same_pass(self, lump):
        by_key = {(e.sweep, e.row, e.matrix): e for e in lump.trace}
        expected = [0.02, 0.007, 0.004, 0.001, 0.001, 0.001]
        for matrix, value in enumerate(expected):
            event = by_key[(1, 1, matrix)]
            assert not event.appended
            assert event.distance == pytest.approx(value, abs=2e-3)

    def test_one_pass_checks_each_pair_once(self, lump, worked_basis):
        assert len(lump.trace) == lump.dim * 6
        pairs = [(row, k) for row in range(lump.dim) for k in range(6)]
        assert [(e.row, e.matrix) for e in lump.trace] == pairs
        assert all(e.sweep == 1 for e in lump.trace)
        assert sweep_fixpoint_holds(worked_basis, lump)

    def test_fixpoint_certificate(self, worked_basis):
        for eps in (0.0, 0.05, 0.2, 1.0):
            lump = lk.approximate_lump(worked_basis, OBS_X1, eps)
            assert sweep_fixpoint_holds(worked_basis, lump)


class TestExactLumping:
    def test_plain_model_reduces_to_reference_rowspace(self, rational3):
        basis = lk.sample_jacobian_basis(rational3, lk.default_domain(rational3))
        lump = lk.approximate_lump(basis, rational3.observables, 0.0)
        assert lump.dim == 2
        P = lump.matrix.T @ lump.matrix
        np.testing.assert_allclose(P, REFERENCE_PROJECTOR, rtol=0, atol=1e-8)

    def test_exact_lumping_has_zero_deviation(self, rational3):
        basis = lk.sample_jacobian_basis(rational3, lk.default_domain(rational3))
        lump = lk.approximate_lump(basis, rational3.observables, 0.0)
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(20):
            x = rng.uniform(0.2, 1.8, 3)
            assert lk.deviation(rational3, lump, x) <= 1e-10

    def test_worst_case_returns_full_rank(self, worked_basis):
        lump = lk.approximate_lump(worked_basis, OBS_X1, 0.0)
        assert lump.dim == 3
        np.testing.assert_allclose(
            lump.matrix @ lump.matrix.T, np.eye(3), rtol=0, atol=1e-12
        )

    def test_nan_tolerance_rejected(self, worked_basis):
        with pytest.raises(ValueError, match="epsilon"):
            lk.approximate_lump(worked_basis, OBS_X1, np.nan)

    def test_observables_of_another_dimension_rejected(self, worked_basis):
        with pytest.raises(DimensionMismatchError, match="different state dims"):
            lk.approximate_lump(worked_basis, [[1.0, 0.0]], 0.1)

    def test_images_whose_squares_overflow_append(self):
        # Jacobian entries up to 2.3e217: the squared norms of the images of
        # row a overflow, so the sweep measures them at a power-of-two scale
        system = lk.parse_model(
            "model big\nvar a, b, c\neq a = c * a^200\neq b = a\neq c = -c\n"
            "init a = 1\ninit b = 1\ninit c = 1\nobs b\nhorizon 1\n"
        )
        basis = lk.basis_from_points(system, [(10, 1, 2), (12, 1, 2), (15, 1, 2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lump = lk.approximate_lump(basis, system.observables, 0.0, record_trace=True)
        assert lump.dim == 3
        # distances in true units: row a's image along c is a^200 = 1e200
        assert [row.distance for row in lump.provenance] == [None, 1.0, 1e200]
        assert lump.valid_for == (0.0, 1.0)
        assert [event.distance for event in lump.trace if event.appended] == [1.0, 1e200]

    @pytest.mark.parametrize(
        "coefficient, epsilon, distance",
        [(1.5e308, 0.1, math.inf), (1e-170, 0.0, 1e-170 * math.sqrt(2))],
        ids=["past_float_range", "squares_underflow"],
    )
    def test_images_past_the_float_range_append(self, coefficient, epsilon, distance):
        # the image of row a is c * (0, 1, 1): its norm overflows, or its
        # squares underflow, in true units; at its own scale it is independent
        system = lk.parse_model(
            f"model edge\nvar a, b, c\neq a = {coefficient!r}*b + {coefficient!r}*c\n"
            "eq b = -b\neq c = -c\ninit a = 1\ninit b = 1\ninit c = 1\nobs a\nhorizon 1\n"
        )
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system))
        lump = lk.approximate_lump(basis, system.observables, epsilon)
        assert lump.dim == 2
        assert lump.provenance[1].distance == pytest.approx(distance, rel=1e-15)
        assert lump.valid_for == (0.0, lump.provenance[1].distance)
        assert lk.epsilon_max(basis, system.observables) == lump.provenance[1].distance
        # the top interval [epsilon_max, inf) is the single tolerance inf when
        # epsilon_max is inf
        top = lk.approximate_lump(basis, system.observables, math.inf)
        assert top.valid_for == (lump.provenance[1].distance, math.inf)

    @pytest.mark.parametrize(
        "variables, observable, distance",
        [("a, b", "a + b", math.inf), ("a, b, d", "a + b - d", 1.7e308 / math.sqrt(3))],
        ids=["past_float_range", "cancels_back"],
    )
    def test_products_past_the_float_range_append(self, variables, observable, distance):
        # the observable row r times J overflows in the product itself, so the
        # image is taken again from J at its own power-of-two scale; its true
        # norm is inf, or back in range where the sum cancels
        names = [*variables.split(", "), "c"]
        system = lk.parse_model(
            f"model edge\nvar {variables}, c\n"
            + "".join(f"eq {n} = 1.7e308*c\n" for n in names[:-1])
            + "eq c = c\n" + "".join(f"init {n} = 1\n" for n in names)
            + f"obs {observable}\nhorizon 1\n"
        )
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system))
        lump = lk.approximate_lump(basis, system.observables, 0.1)
        assert lump.dim == 2
        np.testing.assert_array_equal(lump.matrix[1], np.eye(len(names))[-1])
        assert lump.provenance[1].distance == pytest.approx(distance, rel=1e-15)
        assert lump.valid_for == (0.0, lump.provenance[1].distance)

    @pytest.mark.parametrize("power", [600, -550], ids=["huge", "tiny"])
    def test_power_of_two_scale_keeps_decisions(self, power):
        # a basis scaled by 2**power, swept at a tolerance scaled alike, gives
        # the same rows, and trace, provenance and valid_for distances scaled
        # exactly: the rank rule is applied at each image's own scale
        def scale(distance):
            return None if distance is None else math.ldexp(distance, power)

        workloads = benchmark_workloads()
        for key in range(3):
            system = lk.parse_model(workloads.rational_model_text(key))
            basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=key))
            scaled = lk.JacobianBasis(
                basis.state_dim, np.ldexp(basis.matrices, power), basis.sample_points, basis.ortho_flat
            )
            M = system.observables
            for epsilon in (0.0, 0.5 * lk.epsilon_max(basis, M), math.inf):
                lump = lk.approximate_lump(basis, M, epsilon, record_trace=True)
                other = lk.approximate_lump(scaled, M, scale(epsilon), record_trace=True)
                assert other.matrix.tobytes() == lump.matrix.tobytes()
                assert [p.distance for p in other.provenance] == [
                    scale(p.distance) for p in lump.provenance
                ]
                assert [(scale(t.distance), t.appended) for t in lump.trace] == [
                    (t.distance, t.appended) for t in other.trace
                ]
                assert other.valid_for == tuple(map(scale, lump.valid_for))


def per_point_deviation(system, lump, x):
    """Test-only oracle: the deviation at one point, as it stood before
    deviation took blocks."""
    L = lump.matrix
    f_at_x = lk.evaluate_drift(system, x)
    f_at_proj = lk.evaluate_drift(system, L.T @ (L @ x))
    return float(np.linalg.norm(L @ f_at_proj - L @ f_at_x))


class TestDeviation:
    def test_block_matches_point_by_point(self, random_corpus):
        cases = [
            (system, lk.approximate_lump(basis, system.observables, eps))
            for system, basis, eps_max in random_corpus[:8]
            for eps in (0.0, 0.3 * eps_max, eps_max)
        ]
        for name in ("rational3.ode", "rational3_perturbed.ode", "poly4.ode"):
            system = lk.parse_model(model_path(name).read_text())
            for rows in (system.observables, np.eye(system.dim)[: system.dim - 1]):
                cases.append((system, lk.LumpingMatrix.from_rows(rows, observable_rank=1)))
        rng = np.random.Generator(np.random.PCG64(23))
        for system, lump in cases:
            for size in (1, 2, 60):
                X = rng.uniform(0.2, 1.8, (size, system.dim))
                block = lk.deviation(system, lump, X)
                assert block.shape == (size,) and block.dtype == float
                expected = [per_point_deviation(system, lump, x) for x in X]
                assert block.tobytes() == np.array(expected).tobytes()
                for x, value in zip(X, expected):
                    got = lk.deviation(system, lump, x)
                    assert type(got) is float and got == value

    @pytest.mark.parametrize(
        "block, first",
        [
            # row 0 is regular, its projection (1, 0) is not; row 1 is not
            ([[1.0, 2.0], [3.0, 0.0]], [1.0, 0.0]),
            ([[3.0, 0.0], [1.0, 2.0]], [3.0, 0.0]),
        ],
    )
    def test_singular_point_is_the_first_a_loop_meets(self, block, first):
        system = lk.parse_model(
            "model d\nvar a, b\neq a = 1/b\neq b = a\n"
            "init a = 1\ninit b = 1\nobs a\nhorizon 1\n"
        )
        lump = lk.LumpingMatrix.from_rows([[1.0, 0.0]])
        with pytest.raises(EvaluationError) as exc_info:
            lk.deviation(system, lump, np.array(block))
        assert exc_info.value.component == 0
        np.testing.assert_array_equal(exc_info.value.point, first)
        assert str(exc_info.value) == f"zero denominator evaluating da/dt at x={first}"

    def test_perturbed_deviation_at_ones(self, rational3_perturbed, reference_lump):
        value = lk.deviation(
            rational3_perturbed, reference_lump, np.array([1.0, 1.0, 1.0])
        )
        assert value == pytest.approx(0.007, abs=1e-3)

    def test_plain_deviation_vanishes(self, rational3, reference_lump):
        value = lk.deviation(rational3, reference_lump, np.array([1.0, 1.0, 1.0]))
        assert value <= 1e-12

    def test_dimension_mismatch(self, rational3):
        lump = lk.LumpingMatrix.from_rows(np.eye(4)[:2], observable_rank=1)
        with pytest.raises(DimensionMismatchError):
            lk.deviation(rational3, lump, np.ones(3))


class TestEpsilonMax:
    def test_worked_basis_value(self, worked_basis):
        # the extreme first-pass defect comes from (0, 9.05, 18.125) against
        # rows spanning only the first coordinate
        expected = float(np.hypot(9.05, 18.125))
        value = lk.epsilon_max(worked_basis, OBS_X1)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(20.2588, abs=1e-4)

    def test_matches_row_wise_oracle(self, worked_basis):
        ortho = lk.orthonormalize_rows(OBS_X1)
        worst = 0.0
        for J in worked_basis.matrices:
            for r in ortho:
                v = r @ J
                worst = max(worst, float(np.linalg.norm(v - (v @ ortho.T) @ ortho)))
        assert lk.epsilon_max(worked_basis, OBS_X1) == worst

    def test_full_rank_observables_give_zero(self, worked_basis):
        assert lk.epsilon_max(worked_basis, np.eye(3)) == 0.0

    def test_exactly_lumpable_observables_give_roundoff(self, rational3):
        basis = lk.sample_jacobian_basis(rational3, lk.default_domain(rational3))
        assert lk.epsilon_max(basis, REFERENCE_ROWS) <= 1e-9

    def test_thresholds_bracket_the_sweep(self, worked_basis):
        eps_mx = lk.epsilon_max(worked_basis, OBS_X1)
        at_max = lk.approximate_lump(worked_basis, OBS_X1, eps_mx)
        assert at_max.dim == 1
        above = lk.approximate_lump(worked_basis, OBS_X1, eps_mx * (1 + 1e-9))
        assert above.dim == 1
        below = lk.approximate_lump(worked_basis, OBS_X1, eps_mx * (1 - 1e-3))
        assert below.dim >= 2

    def test_is_lower_end_of_valid_for_at_infinity(self, worked_basis, random_corpus):
        cases = [(worked_basis, OBS_X1), *bundled_bases()]
        cases += [(basis, system.observables) for system, basis, _ in random_corpus]
        for basis, observables in cases:
            top = lk.approximate_lump(basis, observables, math.inf)
            assert lk.epsilon_max(basis, observables) == top.valid_for[0]
            assert top.valid_for[1] == math.inf

    def test_exactly_lumpable_observables_give_zero(self, rational3):
        # the observables alone are invariant: the sweep at 0 keeps them, so
        # nothing above 0 is needed, whatever roundoff the checks measure
        for seed in range(4):
            basis = lk.sample_jacobian_basis(rational3, lk.default_domain(rational3, seed=seed))
            assert lk.epsilon_max(basis, REFERENCE_ROWS) == 0.0
            assert lk.approximate_lump(basis, REFERENCE_ROWS, 0.0).dim == 2
            config = lk.EpsilonSearchConfig(cutoff_size=1)
            result = lk.find_epsilon(basis, REFERENCE_ROWS, config)
            assert result.epsilon == 0.0
            assert result.boundary == "cutoff_below_observable_rank"
            assert result.lump.epsilon == 0.0 and result.lump.dim == 2


class TestFindEpsilon:
    def test_cutoff_below_observable_rank(self, worked_basis):
        result = lk.find_epsilon(
            worked_basis, OBS_X1, lk.EpsilonSearchConfig(cutoff_size=0)
        )
        assert result.boundary == "cutoff_below_observable_rank"
        assert result.iterations == 1
        assert result.epsilon == lk.epsilon_max(worked_basis, OBS_X1)
        assert result.lump.dim == 1

    def test_cutoff_admits_exact_reduction(self, worked_basis, rational3):
        result = lk.find_epsilon(
            worked_basis, OBS_X1, lk.EpsilonSearchConfig(cutoff_size=3)
        )
        assert result.boundary == "exact_fits_cutoff"
        assert result.epsilon == 0.0
        assert result.lump.dim == 3

        basis = lk.sample_jacobian_basis(rational3, lk.default_domain(rational3))
        result = lk.find_epsilon(
            basis, rational3.observables, lk.EpsilonSearchConfig(cutoff_size=2)
        )
        assert result.boundary == "exact_fits_cutoff"
        assert result.epsilon == 0.0
        assert result.lump.dim == 2

    def test_bisection_hits_two_rows(self, worked_basis):
        config = lk.EpsilonSearchConfig(cutoff_size=2, d_min=1e-6)
        result = lk.find_epsilon(worked_basis, OBS_X1, config)
        assert result.boundary is None
        assert result.lump.dim == 2
        assert result.lump.epsilon == result.epsilon
        # just below the returned tolerance the reduction is strictly larger
        below = lk.approximate_lump(
            worked_basis, OBS_X1, max(result.epsilon - config.d_min, 0.0)
        )
        assert below.dim > result.lump.dim

    def test_bisection_brackets_halve(self, worked_basis):
        config = lk.EpsilonSearchConfig(cutoff_size=2, d_min=1e-6)
        result = lk.find_epsilon(worked_basis, OBS_X1, config)
        assert result.iterations == len(result.history)
        widths = [step.hi - step.lo for step in result.history]
        for prev, cur in zip(widths, widths[1:]):
            assert cur == pytest.approx(0.5 * prev, rel=1e-9)
        assert widths[-1] < 2 * config.d_min

    def test_bisection_agrees_with_grid_scan(self, worked_basis):
        d_min = 1e-3
        config = lk.EpsilonSearchConfig(cutoff_size=2, d_min=d_min)
        result = lk.find_epsilon(worked_basis, OBS_X1, config)
        sizes = [
            lk.approximate_lump(worked_basis, OBS_X1, k * d_min).dim
            for k in range(int(lk.epsilon_max(worked_basis, OBS_X1) / d_min) + 2)
        ]
        first_fit = next(k for k, size in enumerate(sizes) if size <= 2)
        assert result.lump.dim == sizes[first_fit]
        assert abs(result.epsilon - first_fit * d_min) <= d_min

    def test_benchmark_search_lumpings_are_fixpoints(self):
        # the search workload's models: m = 20, K about 4m, cutoff m // 2
        workloads = benchmark_workloads()
        for key in range(workloads.SEARCH_MODELS):
            system = lk.parse_model(workloads.rational_model_text(key))
            basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=key))
            config = lk.EpsilonSearchConfig(cutoff_size=system.dim // 2)
            lump = lk.find_epsilon(basis, system.observables, config).lump
            assert sweep_fixpoint_holds(basis, lump)
            assert second_pass_is_idle(basis, lump)

    def test_bracket_below_float_resolution_ends_the_search(self, rational3_perturbed):
        system = rational3_perturbed
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=0, confirmations=3))
        config = lk.EpsilonSearchConfig(cutoff_size=2, d_min=5e-324)
        result = lk.find_epsilon(basis, system.observables, config)
        # the 61st midpoint rounds onto an end of a bracket of adjacent floats
        assert result.iterations == 61 == len(result.history) + 1
        lo = max((step.epsilon for step in result.history if step.size > 2), default=0.0)
        assert np.nextafter(lo, math.inf) == result.epsilon

    def test_badly_scaled_bracket_is_searched_to_the_end(self):
        # the bracket [0, 1e70] takes 253 halvings at d_min 1e-6
        system = lk.parse_model(scaled_chain("1e70", "0.001"))
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=0))
        result = lk.find_epsilon(basis, system.observables, lk.EpsilonSearchConfig(cutoff_size=2))
        assert result.iterations == 253 == len(result.history)
        assert result.epsilon == 0.0010004137654221405
        assert result.lump.dim == 2

    @pytest.mark.parametrize("c1, c2", [("1e70", "1e-3"), ("1e300", "1e-3"), ("1e300", "1e-300")])
    @pytest.mark.parametrize("d_min", [1e-6, 5e-324])
    def test_bisection_ends_by_its_bracket(self, c1, c2, d_min):
        system = lk.parse_model(scaled_chain(c1, c2))
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=0))
        result = lk.find_epsilon(basis, system.observables, lk.EpsilonSearchConfig(2, d_min))
        assert result.lump.dim <= 2
        # a difference of logs: epsilon_max / 5e-324 overflows
        halvings = math.log2(lk.epsilon_max(basis, system.observables)) - math.log2(d_min)
        assert result.iterations <= math.ceil(halvings) + 1
        assert result.iterations <= 2100
        if d_min == 5e-324:
            below = lk.approximate_lump(basis, system.observables, np.nextafter(result.epsilon, 0))
            assert below.dim > 2

    @pytest.mark.parametrize("cutoff", [0, 1, 2, 3])
    def test_dependent_observable_rows_rejected(self, worked_basis, cutoff):
        config = lk.EpsilonSearchConfig(cutoff_size=cutoff)
        with pytest.raises(RankDeficiencyError, match="row 1"):
            lk.find_epsilon(worked_basis, np.vstack([OBS_X1, 2 * OBS_X1]), config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            lk.EpsilonSearchConfig(cutoff_size=-1)
        for cutoff in (1.5, 2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="whole number"):
                lk.EpsilonSearchConfig(cutoff_size=cutoff)
        with pytest.raises(ValueError):
            lk.EpsilonSearchConfig(cutoff_size=1, d_min=0.0)

    @pytest.mark.parametrize(
        "name, cutoff", [("rational3", 1), ("rational3_perturbed", 2), ("poly4", 3)]
    )
    def test_whole_cutoff_of_any_type(self, name, cutoff):
        # cutoff + 0.5 is rejected (test_config_validation); it used to be
        # answered as "the exact lumping fits" with cutoff + 1 rows
        system = lk.parse_model(model_path(f"{name}.ode").read_text())
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=0))
        results = [
            lk.find_epsilon(basis, system.observables, lk.EpsilonSearchConfig(c))
            for c in (cutoff, np.int64(cutoff), float(cutoff))
        ]
        assert results[0].lump.dim <= cutoff
        for result in results[1:]:
            assert (result.epsilon, result.history) == (results[0].epsilon, results[0].history)
            assert result.boundary == results[0].boundary


class TestFindEpsilonReuse:
    """find_epsilon reuses a swept lumping for any tolerance inside its
    valid_for interval; a replay that sweeps at every tolerance must agree."""

    @staticmethod
    def assert_replay_agrees(basis, observables, result):
        for step in result.history:
            assert step.size == lk.approximate_lump(basis, observables, step.epsilon).dim
        replay = lk.approximate_lump(basis, observables, result.epsilon)
        assert result.lump.matrix.tobytes() == replay.matrix.tobytes()
        assert result.lump.provenance == replay.provenance
        assert result.lump.epsilon == result.epsilon

    def test_worked_basis_sweeps_fewer_times_than_it_bisects(self, worked_basis, sweep_log):
        config = lk.EpsilonSearchConfig(cutoff_size=2, d_min=1e-6)
        result = lk.find_epsilon(worked_basis, OBS_X1, config)
        # without reuse: exact, epsilon_max, its lumping, one per iteration
        assert len(sweep_log) < result.iterations + 2
        self.assert_replay_agrees(worked_basis, OBS_X1, result)

    def test_random_corpus_replay(self, random_corpus, sweep_log):
        for system, basis, _ in random_corpus:
            for cutoff in (0, 1, system.dim // 2, system.dim - 1):
                config = lk.EpsilonSearchConfig(cutoff_size=cutoff, d_min=1e-6)
                sweep_log.clear()
                result = lk.find_epsilon(basis, system.observables, config)
                assert len(sweep_log) <= result.iterations + 3
                self.assert_replay_agrees(basis, system.observables, result)


class TestSweepCounts:
    """Which tolerances find_epsilon and staircase really sweep at."""

    def test_cutoff_below_rank_sweeps_once_at_infinity(self, worked_basis, sweep_log):
        result = lk.find_epsilon(worked_basis, OBS_X1, lk.EpsilonSearchConfig(cutoff_size=0))
        assert result.boundary == "cutoff_below_observable_rank"
        assert sweep_log == [math.inf]
        assert result.lump.epsilon == result.epsilon == lk.epsilon_max(worked_basis, OBS_X1)
        assert result.lump.valid_for == (result.epsilon, math.inf)

    def test_exact_fit_sweeps_once_at_zero(self, worked_basis, sweep_log):
        result = lk.find_epsilon(worked_basis, OBS_X1, lk.EpsilonSearchConfig(cutoff_size=3))
        assert result.boundary == "exact_fits_cutoff"
        assert sweep_log == [0.0]

    def test_bisection_does_not_sweep_at_the_bracket_top(
        self, worked_basis, random_corpus, sweep_log
    ):
        cases = [(worked_basis, OBS_X1, 2)]
        for system, basis, _ in random_corpus:
            cases += [(basis, system.observables, c) for c in (1, system.dim // 2)]
        bisected = 0
        for basis, observables, cutoff in cases:
            top = lk.epsilon_max(basis, observables)
            sweep_log.clear()
            result = lk.find_epsilon(basis, observables, lk.EpsilonSearchConfig(cutoff))
            if result.boundary is None:
                bisected += 1
                assert result.history[0].hi == top
                assert sweep_log[:2] == [0.0, math.inf]
                assert top not in sweep_log
        assert bisected > len(cases) // 2

    def test_staircase_reuse_builds_no_lumping(self, worked_basis, sweep_log, monkeypatch):
        built = []
        check = lk.LumpingMatrix.__post_init__

        def counting(self):
            built.append(self.epsilon)
            check(self)

        monkeypatch.setattr(lk.LumpingMatrix, "__post_init__", counting)
        grid = np.linspace(0.0, lk.epsilon_max(worked_basis, OBS_X1), 50)
        sweep_log.clear()
        built.clear()
        lk.staircase(worked_basis, OBS_X1, grid)
        assert len(sweep_log) < len(grid)
        assert built == sweep_log


def uncapped_search(basis, observables, cutoff, d_min=1e-6):
    """find_epsilon with an exact check that sweeps at 0 to the end and a
    bisection that sweeps at every midpoint: the full lumping at 0 and its
    size decide the boundary case, then the same bisection. Returns the
    fields of an EpsilonSearchResult."""

    def lump_at(eps):
        return lk.approximate_lump(basis, observables, eps)

    p = len(observables)
    exact = lump_at(0.0)
    if cutoff >= p and exact.dim <= cutoff:
        return 0.0, exact, 1, (), "exact_fits_cutoff"
    best = lump_at(math.inf)
    lo, hi = 0.0, best.valid_for[0]
    if cutoff < p:
        return hi, best, 1, (), "cutoff_below_observable_rank"
    history, iterations = [], 0
    while hi - lo >= d_min:
        iterations += 1
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        candidate = lump_at(mid)
        history.append(lk.lumping.SearchStep(iterations, lo, hi, mid, candidate.dim))
        if candidate.dim <= cutoff:
            hi, best = mid, candidate
        else:
            lo = mid
    return hi, best, iterations, tuple(history), None


class TestCappedExactCheck:
    """find_epsilon's exact check stops at the first append that would make
    row cutoff + 1, so it answers "does the exact lumping fit?" without
    sweeping the rest; the search result is the uncapped one bit for bit."""

    def test_every_cutoff_matches_the_uncapped_search(self, random_corpus):
        boundaries = set()
        for basis, observables in search_cases(random_corpus):
            for cutoff in range(basis.state_dim + 1):
                result = lk.find_epsilon(basis, observables, lk.EpsilonSearchConfig(cutoff))
                epsilon, lump, iterations, history, boundary = uncapped_search(
                    basis, observables, cutoff
                )
                assert (result.epsilon, result.iterations) == (epsilon, iterations)
                assert (result.history, result.boundary) == (history, boundary)
                assert result.lump.matrix.tobytes() == lump.matrix.tobytes()
                assert result.lump.provenance == lump.provenance
                boundaries.add(boundary)
        assert boundaries == {None, "exact_fits_cutoff", "cutoff_below_observable_rank"}

    def test_exact_check_appends_at_most_cutoff_rows(self, monkeypatch):
        # perturbed phosphorylation at n = 6: the exact lumping has all 65
        # rows, the cutoff 3; appends are counted per sweep, the aborted one
        # included, so the work does not depend on the host
        system = lk.parse_model(phosphorylation_model(6, delta=0.05))
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=0))
        M = system.observables
        sweep, decide = lk.lumping._sweep, lk.lumping._decide
        appends = []

        def counting_sweep(*args):
            appends.append(0)
            return sweep(*args)

        def counting_decide(dist, *args):
            n, lo = decide(dist, *args)
            appends[-1] += n < len(dist)
            return n, lo

        monkeypatch.setattr(lk.lumping, "_sweep", counting_sweep)
        monkeypatch.setattr(lk.lumping, "_decide", counting_decide)
        result = lk.find_epsilon(basis, M, lk.EpsilonSearchConfig(cutoff_size=3))
        assert result.boundary is None and result.lump.dim <= 3
        assert appends[0] <= 4
        assert lk.approximate_lump(basis, M, 0.0).dim == 65
        assert appends[-1] == 64


class TestReuseRule:
    """One find_epsilon or staircase run never sweeps at a tolerance inside
    the valid_for of an earlier sweep of that run: the lumpings it holds are
    all the ones that can still match."""

    @staticmethod
    def checked_sweeps(monkeypatch):
        """The valid_for of each approximate_lump call since the list was
        last cleared; a call inside one of them fails the test."""
        original = lk.lumping.approximate_lump
        swept = []

        def checking(basis, observables, epsilon, record_trace=False):
            assert not any(lo <= epsilon < hi for lo, hi in swept), (epsilon, swept)
            lump = original(basis, observables, epsilon, record_trace)
            swept.append(lump.valid_for)
            return lump

        monkeypatch.setattr(lk.lumping, "approximate_lump", checking)
        return swept

    def test_find_epsilon_at_every_cutoff(self, random_corpus, monkeypatch):
        cases = search_cases(random_corpus)
        swept = self.checked_sweeps(monkeypatch)
        reused = 0
        for basis, observables in cases:
            for cutoff in range(basis.state_dim + 1):
                swept.clear()
                result = lk.find_epsilon(basis, observables, lk.EpsilonSearchConfig(cutoff))
                reused += len(result.history) + 1 > len(swept)
        assert reused > 0

    def test_staircase_grids(self, random_corpus, monkeypatch):
        cases = search_cases(random_corpus)
        swept = self.checked_sweeps(monkeypatch)
        for basis, observables in cases:
            top = lk.epsilon_max(basis, observables)
            for points in (50, 257):
                swept.clear()
                with contextlib.suppress(MonotonicityError):
                    lk.staircase(basis, observables, np.linspace(0.0, top, points))
                assert 0 < len(swept) < points


class TestValidFor:
    @staticmethod
    def assert_interval_holds(basis, observables, eps):
        lump = lk.approximate_lump(basis, observables, eps)
        lo, hi = lump.valid_for
        assert 0.0 <= lo <= eps < hi
        inside = [lo, np.nextafter(hi, lo)]
        if np.isfinite(hi):
            inside.append(0.5 * (lo + hi))
        for tol in inside:
            other = lk.approximate_lump(basis, observables, tol)
            assert other.matrix.tobytes() == lump.matrix.tobytes()
            assert other.provenance == lump.provenance
        if np.isfinite(hi):
            beyond = lk.approximate_lump(basis, observables, hi)
            assert beyond.provenance != lump.provenance

    def test_worked_basis(self, worked_basis):
        eps_mx = lk.epsilon_max(worked_basis, OBS_X1)
        for eps in (0.0, 0.05, 0.2, 1.0, eps_mx):
            self.assert_interval_holds(worked_basis, OBS_X1, eps)

    def test_random_corpus(self, random_corpus):
        for system, basis, eps_mx in random_corpus:
            for eps in (0.0, 0.1 * eps_mx, 0.5 * eps_mx, eps_mx):
                self.assert_interval_holds(basis, system.observables, eps)

    def test_not_serialized(self, worked_basis, reference_lump):
        assert reference_lump.valid_for is None
        lump = lk.approximate_lump(worked_basis, OBS_X1, 0.2)
        assert lump.valid_for is not None
        assert set(lump.to_json_dict()) == {
            "rows", "cols", "epsilon", "observable_rank", "matrix", "provenance"
        }


@pytest.mark.parametrize(
    "dist, independent, epsilon, lo, decision",
    [
        ([1e-13, 5e-13, 0.0, 9e-13], [0, 0, 0, 0], 0.1, 0.02, (4, 0.02)),  # none independent
        ([0.02, 0.05, 1e-13, 0.01], [1, 1, 0, 1], 0.05, 0.0, (4, 0.05)),  # none over epsilon
        ([0.03, 0.2, 0.09, 0.5], [1, 1, 1, 1], 0.1, 0.0, (1, 0.03)),  # lo from before the first over
        ([0.3, 5.0, 1e-14, 7.0], [1, 1, 0, 1], math.inf, 0.4, (4, 7.0)),  # an infinite tolerance
        ([5e-13, 3e-12, 1.0, 0.0], [0, 1, 1, 0], 0.0, 0.0, (1, 0.0)),  # at 0 the mask decides
        ([0.1, 2.0, 0.5], [1, 0, 1], 0.2, 0.0, (2, 0.1)),  # a dependent image never counts
        ([0.1, math.inf, 0.3], [1, 1, 1], 1e300, 0.0, (1, 0.1)),  # a distance past the float range
        ([0.1, math.inf, 0.3], [1, 1, 1], math.inf, 0.0, (3, math.inf)),  # ... at an infinite one
    ],
    ids=["below_slack", "within_epsilon", "first_over", "infinite", "zero", "masked",
         "inf_distance", "inf_both"],
)
def test_decide(dist, independent, epsilon, lo, decision):
    n, new_lo = _decide(np.array(dist), epsilon, np.array(independent, dtype=bool), lo)
    assert (n, new_lo) == decision
    assert type(n) is int and type(new_lo) is float


def per_check_lump(basis, observables, epsilon):
    """Reference sweep as the paper states it: one (row, matrix) check at a
    time with scalar norms, repeating passes until one appends nothing.
    Returns the matrix, the provenance and the trace of every pass."""
    ortho = lk.orthonormalize_rows(observables)
    m = ortho.shape[1]
    L = np.zeros((m, m))
    count = len(ortho)
    L[:count] = ortho
    provenance = [lk.lumping.RowProvenance("observable") for _ in range(count)]
    trace = []
    sweep, appended_in_pass = 0, True
    while appended_in_pass:
        appended_in_pass = False
        sweep += 1
        row = 0
        while row < count:
            for k, J in enumerate(basis.matrices):
                v = L[row] @ J
                cur = L[:count]
                defect = v - (v @ cur.T) @ cur
                distance = float(np.linalg.norm(defect))
                slack = lk.RANK_RTOL * float(np.linalg.norm(v))
                append = distance > max(epsilon, slack) and count < m
                trace.append(lk.lumping.TraceEvent(sweep, row, k, distance, append))
                if append:
                    defect = defect - (defect @ cur.T) @ cur
                    L[count] = defect / np.linalg.norm(defect)
                    count += 1
                    provenance.append(lk.lumping.RowProvenance("appended", row, k, distance))
                    appended_in_pass = True
            row += 1
    return L[:count], provenance, trace


def second_pass_is_idle(basis, lump):
    """Whether a second batched pass over the rows of ``lump`` would change
    nothing: it appends no row and moves no end of ``valid_for``, so a sweep
    that repeats passes until one appends nothing returns ``lump`` bit for
    bit. The checks are the batched ones, against the whole final stack."""
    L = lump.matrix
    if lump.dim == lump.state_dim:
        return True  # a full stack appends nothing and tracks no distance
    lo = lump.valid_for[0]
    for row in L:
        V = row @ basis.matrices
        _, dist = _measure(V, L)
        independent = dist > lk.RANK_RTOL * np.linalg.norm(V, axis=1)
        if _decide(dist, lump.epsilon, independent, lo) != (len(dist), lo):
            return False
    return True


def bundled_bases():
    for name in ("rational3.ode", "rational3_perturbed.ode", "poly4.ode"):
        system = lk.parse_model(model_path(name).read_text())
        for seed in range(4):
            domain = lk.default_domain(system, seed=seed)
            yield lk.sample_jacobian_basis(system, domain), system.observables


def search_cases(random_corpus):
    """(basis, observables) of the random corpus, the 12 bundled bases and
    perturbed phosphorylation at n = 3-5 (basis seed 0)."""
    cases = [(basis, system.observables) for system, basis, _ in random_corpus]
    cases += list(bundled_bases())
    for n in (3, 4, 5):
        system = lk.parse_model(phosphorylation_model(n, delta=0.05))
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=0))
        cases.append((basis, system.observables))
    return cases


class TestBatchedSweep:
    """approximate_lump checks each row against all basis matrices in one
    batch and makes one pass; per_check_lump checks one pair at a time and
    repeats passes until one appends nothing. Its passes after the first
    must append nothing, and its first pass is the one approximate_lump
    makes. Batching changes the summation order, so distances agree to
    roundoff and the decisions agree exactly. Tolerances sit at 0, inside
    each decision interval and at inf: at an interval edge a last-ulp change
    in a distance flips the decision by design."""

    @staticmethod
    def assert_agrees(basis, observables, eps, atol=1e-12):
        lump = lk.approximate_lump(basis, observables, eps, record_trace=True)
        L, provenance, trace = per_check_lump(basis, observables, eps)
        assert not any(e.appended for e in trace if e.sweep > 1)
        assert second_pass_is_idle(basis, lump)
        trace = [e for e in trace if e.sweep == 1]
        assert lump.dim == len(L)
        origin = attrgetter("origin", "source_row", "source_matrix")
        assert list(map(origin, lump.provenance)) == list(map(origin, provenance))
        check = attrgetter("sweep", "row", "matrix", "appended")
        assert list(map(check, lump.trace)) == list(map(check, trace))
        appended = lump.provenance[lump.observable_rank:], provenance[lump.observable_rank:]
        for ours, ref in [*zip(lump.trace, trace), *zip(*appended)]:
            assert abs(ours.distance - ref.distance) <= atol
        assert np.max(np.abs(lump.matrix.T @ lump.matrix - L.T @ L)) <= atol

    def assert_agrees_on_every_interval(self, basis, observables):
        self.assert_agrees(basis, observables, 0.0)
        lo, hi = 0.0, lk.approximate_lump(basis, observables, 0.0).valid_for[1]
        while hi < np.inf:
            self.assert_agrees(basis, observables, 0.5 * (lo + hi))
            lo, hi = hi, lk.approximate_lump(basis, observables, hi).valid_for[1]
        self.assert_agrees(basis, observables, np.inf)

    def test_worked_basis(self, worked_basis):
        self.assert_agrees_on_every_interval(worked_basis, OBS_X1)

    def test_bundled_models(self):
        for basis, observables in bundled_bases():
            self.assert_agrees_on_every_interval(basis, observables)

    def test_random_corpus(self, random_corpus):
        for system, basis, _ in random_corpus:
            self.assert_agrees_on_every_interval(basis, system.observables)

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_perturbed_phosphorylation(self, n):
        # at epsilon = 0 and at 1e-8 the sweep returns the exact lumping,
        # n + 2 rows (test_exact_oracle checks it against the oracle). Its
        # distances not appended are roundoff up to 2.5e-10, at most 1.1e-10
        # of their image's norm, a decade below the rank test's RANK_RTOL,
        # and the two summation orders differ in them by up to 7.2e-11
        system = lk.parse_model(phosphorylation_model(n, delta=0.05))
        M = system.observables
        for seed in range(3):
            basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=seed))
            self.assert_agrees(basis, M, 0.0, atol=1e-9)
            self.assert_agrees(basis, M, 1e-8, atol=1e-9)
            assert sweep_fixpoint_holds(basis, lk.approximate_lump(basis, M, 0.0))

    def test_empty_basis(self):
        # a constant drift has the zero Jacobian everywhere: no basis
        # matrices, so there is nothing to check
        system = lk.parse_model(
            "model constant\nvar a, b\neq a = 1\neq b = -2\n"
            "init a = 0\ninit b = 0\nobs a\nhorizon 1\n"
        )
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system))
        assert basis.dimension == 0
        M = system.observables
        lump = lk.approximate_lump(basis, M, 0.0, record_trace=True)
        assert (lump.dim, lump.trace, lump.valid_for) == (1, (), (0.0, np.inf))
        assert lk.epsilon_max(basis, M) == 0.0
        result = lk.find_epsilon(basis, M, lk.EpsilonSearchConfig(cutoff_size=1))
        assert (result.boundary, result.epsilon, result.lump.dim) == ("exact_fits_cutoff", 0.0, 1)
        assert lk.staircase(basis, M, [0.0, 1.0]) == ((0.0, 1), (1.0, 1))

    def test_stack_fills_mid_row(self, monkeypatch):
        # with no rank slack every nonzero distance counts, so the roundoff
        # distances measured once the stack is full would move valid_for[0]
        # off 0 if they were taken into account
        monkeypatch.setattr(lk.lumping, "RANK_RTOL", 0.0)
        rng = np.random.Generator(np.random.PCG64(7))
        basis = lk.basis_from_matrices(rng.normal(size=(6, 4, 4)))
        lump = lk.approximate_lump(basis, rng.normal(size=(1, 4)), 0.0, record_trace=True)
        assert lump.dim == 4
        assert [(e.row, e.matrix) for e in lump.trace if e.appended] == [(0, 0), (0, 1), (0, 2)]
        assert len(lump.trace) == 4 * 6
        assert any(e.distance > 0.0 for e in lump.trace[3:])
        assert lump.valid_for == (0.0, min(pr.distance for pr in lump.provenance[1:]))


class TestStaircase:
    def test_worked_basis_staircase(self, worked_basis):
        pairs = lk.staircase(worked_basis, OBS_X1, [0.0, 0.05, 0.2, 1.0, 21.0])
        assert pairs == (
            (0.0, 3),
            (0.05, 3),
            (0.2, 2),
            (1.0, 2),
            (21.0, 1),
        )

    def test_grid_is_sorted_first(self, worked_basis):
        pairs = lk.staircase(worked_basis, OBS_X1, [21.0, 0.0, 0.2])
        assert [eps for eps, _ in pairs] == [0.0, 0.2, 21.0]

    def test_negative_tolerance_rejected(self, worked_basis):
        with pytest.raises(ValueError):
            lk.staircase(worked_basis, OBS_X1, [-0.1, 0.2])

    def test_violation_raises(self, worked_basis, monkeypatch):
        from types import SimpleNamespace

        sizes = iter([2, 3])

        def fake_lump(basis, observables, epsilon, record_trace=False):
            # an empty valid_for, so that every grid point reaches the stub
            return SimpleNamespace(dim=next(sizes), valid_for=(epsilon, epsilon))

        monkeypatch.setattr(lk.lumping, "approximate_lump", fake_lump)
        with pytest.raises(MonotonicityError, match="grew"):
            lk.lumping.staircase(worked_basis, OBS_X1, [0.0, 1.0])

    def test_nan_tolerance_rejected(self, worked_basis, sweep_log):
        with pytest.raises(ValueError, match="grid"):
            lk.staircase(worked_basis, OBS_X1, [0.1, float("nan"), 0.0])
        assert sweep_log == []


class TestStaircaseReuse:
    """staircase sweeps once per decision interval the grid touches; the
    oracle sweeps at every grid point."""

    @staticmethod
    def oracle(basis, observables, grid):
        lumps = [lk.approximate_lump(basis, observables, e) for e in sorted(grid)]
        return [lump.dim for lump in lumps], {lump.valid_for for lump in lumps}

    def assert_matches_oracle(self, basis, observables, grid, sweep_log):
        sizes, intervals = self.oracle(basis, observables, grid)
        sweep_log.clear()
        pairs = lk.staircase(basis, observables, grid)
        assert [eps for eps, _ in pairs] == sorted(float(e) for e in grid)
        assert [size for _, size in pairs] == sizes
        assert len(sweep_log) == len(intervals)
        return len(sweep_log)

    def test_worked_basis(self, worked_basis, sweep_log):
        eps_mx = lk.epsilon_max(worked_basis, OBS_X1)
        for grid in ([0.0, 0.05, 0.2, 1.0, 21.0], np.linspace(0.0, eps_mx, 50)):
            self.assert_matches_oracle(worked_basis, OBS_X1, grid, sweep_log)

    def test_bundled_bases(self, sweep_log):
        for basis, observables in bundled_bases():
            grid = np.linspace(0.0, lk.epsilon_max(basis, observables), 50)
            assert self.assert_matches_oracle(basis, observables, grid, sweep_log) <= 4

    def test_random_corpus(self, random_corpus, sweep_log):
        for system, basis, eps_mx in random_corpus:
            grid = np.linspace(0.0, eps_mx, 257)
            self.assert_matches_oracle(basis, system.observables, grid, sweep_log)

    def test_non_monotone_model(self, sweep_log):
        # model 0 of the benchmark's search workload, with the basis it samples
        system = lk.parse_model(benchmark_workloads().rational_model_text(0))
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=0))
        M = system.observables
        grid = np.linspace(0.0, lk.epsilon_max(basis, M), 50)
        sizes, _ = self.oracle(basis, M, grid)
        k = next(k for k in range(1, len(sizes)) if sizes[k] > sizes[k - 1])
        expected = (
            f"reduction size grew with the tolerance: size {sizes[k - 1]} at "
            f"eps={float(grid[k - 1])!r} but size {sizes[k]} at eps={float(grid[k])!r}"
        )
        sweep_log.clear()
        with pytest.raises(MonotonicityError) as exc_info:
            lk.staircase(basis, M, grid)
        assert str(exc_info.value) == expected
        assert len(sweep_log) < k + 1


class TestRandomCorpusProperties:
    def test_threshold_scaling(self, random_corpus):
        for system, basis, eps_mx in random_corpus:
            at_above = lk.approximate_lump(
                basis, system.observables, eps_mx * (1 + 1e-9)
            )
            assert at_above.dim == 1
            at_below = lk.approximate_lump(
                basis, system.observables, eps_mx * (1 - 1e-3)
            )
            assert at_below.dim >= 2

    def test_output_is_orthonormal_with_observables_contained(self, random_corpus):
        for system, basis, eps_mx in random_corpus[:8]:
            for eps in (0.0, 0.5 * eps_mx):
                lump = lk.approximate_lump(basis, system.observables, eps)
                L = lump.matrix
                assert np.max(np.abs(L @ L.T - np.eye(lump.dim))) <= 1e-10
                M = system.observables
                assert np.max(np.abs(M - (M @ L.T) @ L)) <= 1e-8
                assert sweep_fixpoint_holds(basis, lump)
