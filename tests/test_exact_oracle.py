"""The exact oracle over the rationals, and the gate it judges: the sweep at
epsilon = 0 returns the exact lumping."""

import functools

import numpy as np
import pytest

import lumpkit as lk
from conftest import model_path, phosphorylation_model
from exact_oracle import exact_lumping


@functools.cache
def phosphorylation(n: int, delta: float) -> lk.OdeSystem:
    return lk.parse_model(phosphorylation_model(n, delta=delta))


@functools.cache
def oracle_projector(n: int, delta: float) -> np.ndarray:
    Q = exact_lumping(phosphorylation(n, delta))
    return Q.T @ Q


class TestOracle:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_phosphorylation_sizes(self, n):
        # the closed forms: n + 2 rows when perturbed, 3 at delta = 0
        assert len(exact_lumping(phosphorylation(n, 0.05))) == n + 2
        assert len(exact_lumping(phosphorylation(n, 0.0))) == 3

    def test_poly4_does_not_lump(self):
        system = lk.parse_model(model_path("poly4.ode").read_text())
        Q = exact_lumping(system)
        np.testing.assert_allclose(Q @ Q.T, np.eye(4), rtol=0, atol=1e-12)

    def test_rows_hold_the_observables(self):
        system = phosphorylation(4, 0.05)
        M = system.observables
        assert np.max(np.abs(M @ oracle_projector(4, 0.05) - M)) <= 1e-12

    def test_division_by_a_variable_is_refused(self):
        system = lk.parse_model(model_path("rational3.ode").read_text())
        with pytest.raises(ValueError, match="only by a nonzero constant"):
            exact_lumping(system)


def assert_exact_at_zero(n, delta, seed, size):
    system = phosphorylation(n, delta)
    basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=seed))
    lump = lk.approximate_lump(basis, system.observables, 0.0)
    assert lump.dim == size
    L = lump.matrix
    assert np.max(np.abs(L.T @ L - oracle_projector(n, delta))) <= 1e-8


@pytest.mark.parametrize(
    "n, seed",
    [
        *((n, seed) for n in (3, 4, 5) for seed in range(3)),
        pytest.param(
            6, 0,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP item 14: a roundoff defect of 1.3e-9 passes the rank "
                "test, and the sweep appends noise rows up to m = 65",
            ),
        ),
        (6, 1),
        (6, 2),
    ],
)
def test_perturbed_phosphorylation_at_zero(n, seed):
    assert_exact_at_zero(n, 0.05, seed, n + 2)


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("seed", range(3))
def test_phosphorylation_at_zero(n, seed):
    assert_exact_at_zero(n, 0.0, seed, 3)
