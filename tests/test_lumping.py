"""Lumping sweep, tolerance extremes, and the size-targeted bisection."""

import numpy as np
import pytest

import lumpkit as lk
from lumpkit.errors import (
    ConvergenceError,
    DimensionMismatchError,
    MonotonicityError,
    RankDeficiencyError,
)

from conftest import REFERENCE_ROWS, sweep_fixpoint_holds

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

    def test_projection_and_pseudoinverse(self, reference_lump):
        x = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            reference_lump.project(x), [1.0, 0.6, 1.2], rtol=0, atol=1e-15
        )
        np.testing.assert_array_equal(
            reference_lump.pseudoinverse, reference_lump.matrix.T
        )

    def test_matrix_is_read_only(self, reference_lump):
        with pytest.raises(ValueError):
            reference_lump.matrix[0, 0] = 2.0


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

    def test_final_pass_appends_nothing(self, lump):
        final = max(e.sweep for e in lump.trace)
        last_pass = [e for e in lump.trace if e.sweep == final]
        assert len(last_pass) == lump.dim * 6
        assert not any(e.appended for e in last_pass)

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


class TestDeviation:
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

    def test_iteration_cap(self, worked_basis):
        config = lk.EpsilonSearchConfig(cutoff_size=2, d_min=1e-12, max_iterations=3)
        with pytest.raises(ConvergenceError):
            lk.find_epsilon(worked_basis, OBS_X1, config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            lk.EpsilonSearchConfig(cutoff_size=-1)
        with pytest.raises(ValueError):
            lk.EpsilonSearchConfig(cutoff_size=1, d_min=0.0)
        with pytest.raises(ValueError):
            lk.EpsilonSearchConfig(cutoff_size=1, max_iterations=0)


@pytest.fixture
def sweep_log(monkeypatch):
    """Tolerances of the real sweeps run through lk.lumping.approximate_lump,
    in call order; the wrapper calls through to the sweep."""
    original = lk.lumping.approximate_lump
    log = []

    def counting(basis, observables, epsilon, record_trace=False):
        log.append(epsilon)
        return original(basis, observables, epsilon, record_trace)

    monkeypatch.setattr(lk.lumping, "approximate_lump", counting)
    return log


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
            return SimpleNamespace(dim=next(sizes))

        monkeypatch.setattr(lk.lumping, "approximate_lump", fake_lump)
        with pytest.raises(MonotonicityError, match="grew"):
            lk.lumping.staircase(worked_basis, OBS_X1, [0.0, 1.0])


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
