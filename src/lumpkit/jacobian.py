"""Spanning sets for the space of drift Jacobians.

For a polynomial or rational drift f, the Jacobians {J(x)} span a
finite-dimensional matrix space. A basis for that span is what the lumping
algorithm consumes. We build one by evaluating J at random points and keeping
the matrices whose flattened form is numerically independent of what was
kept so far (the rank test :func:`~lumpkit.model.scaled_residual`).
Sampling stops once a run of consecutive draws adds nothing new.

:func:`sample_jacobians` holds the sampling rules, for the basis and for the
Lipschitz estimate of :mod:`lumpkit.simulate` alike: the seeded stream of
points, one :func:`~lumpkit.model.evaluate_drift_dual` call per block of
them, and the skipping of singular points. The basis takes doubling blocks,
each as large as all the candidates before it (at least m), and sends their
Jacobians through the rank test one by one. A block draws the same numbers as
the same count of single draws, and the dual evaluation of a block gives each
point's bits, so the basis is the one point-by-point sampling builds.

Randomness comes from numpy's PCG64 generator seeded explicitly, so a given
seed reproduces the same basis on any platform.
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EvaluationError, SamplingError
from .model import RANK_RTOL, OdeSystem, equal_values, evaluate_drift_dual, read_only, scaled_residual

__all__ = [
    "RANK_RTOL",
    "SamplingDomain",
    "JacobianBasis",
    "default_domain",
    "sample_jacobian_basis",
    "basis_from_points",
    "basis_from_matrices",
    "membership_residual",
]


def check_seed(seed) -> None:
    """Raise ValueError unless ``seed`` is an integer in [0, 2^64), a PCG64 seed."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= int(seed) < 2**64):
        raise ValueError("seed must be an integer in [0, 2^64)")


@dataclass(frozen=True, eq=False)
class SamplingDomain:
    """Axis-aligned box to draw sample points from, plus sampling knobs.

    The bounds are finite, with lower < upper and a finite width in every
    coordinate. ``seed`` is an integer in [0, 2^64) seeding the PCG64 stream,
    and ``confirmations``, a whole number, is the number of consecutive
    dependent samples required before the basis is declared complete.
    """

    lower: np.ndarray
    upper: np.ndarray
    seed: int = 0
    confirmations: int = 3

    __eq__ = equal_values

    def __post_init__(self):
        object.__setattr__(self, "lower", read_only(self.lower))
        object.__setattr__(self, "upper", read_only(self.upper))
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise DimensionMismatchError("domain bounds must be vectors of equal length")
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan widths fail below
            width = self.upper - self.lower
        if not np.all((0 < width) & (width < np.inf)):
            raise ValueError("domain requires lower < upper and a finite width in every coordinate")
        check_seed(self.seed)
        if not (self.confirmations >= 1 and float(self.confirmations).is_integer()):
            raise ValueError("confirmations must be a positive whole number")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


def default_domain(system: OdeSystem, seed: int = 0, confirmations: int = 3) -> SamplingDomain:
    """The box [0, max(1, 2 max_i |x0_i|)]^m around the initial condition x0."""
    hi = max(1.0, 2.0 * float(np.max(np.abs(system.initial_condition))))
    return SamplingDomain(
        lower=np.zeros(system.dim),
        upper=np.full(system.dim, hi),
        seed=seed,
        confirmations=confirmations,
    )


@dataclass(frozen=True, eq=False)
class JacobianBasis:
    """Numerically independent Jacobian samples spanning span{J(x)}.

    ``matrices`` is one read-only ``(K, m, m)`` array, one matrix per basis
    member. ``ortho_flat`` holds the orthonormalized flattened matrices, one
    row per basis member, and is what residual computations project against.
    """

    state_dim: int
    matrices: np.ndarray
    sample_points: tuple[np.ndarray | None, ...]
    ortho_flat: np.ndarray

    __eq__ = equal_values

    def __post_init__(self):
        m = self.state_dim
        points = tuple(None if x is None else read_only(x) for x in self.sample_points)
        object.__setattr__(self, "matrices", read_only(self.matrices).reshape(-1, m, m))
        object.__setattr__(self, "sample_points", points)
        object.__setattr__(self, "ortho_flat", read_only(self.ortho_flat))
        # max |entry| (nan if one is nan) and min nonzero |entry| gate the sweep's rescaling
        size = np.abs(self.matrices)
        object.__setattr__(self, "_max_abs", float(size.max(initial=0.0)))
        object.__setattr__(self, "_min_abs", float(size[size > 0].min(initial=np.inf)))
        if len(self.matrices) != len(self.sample_points):
            raise DimensionMismatchError("one sample point slot per matrix required")
        if self.ortho_flat.shape != (len(self.matrices), m * m):
            raise DimensionMismatchError("ortho_flat shape mismatch")

    @property
    def dimension(self) -> int:
        return len(self.matrices)

    def to_json_dict(self) -> dict:
        return {
            "state_dim": self.state_dim,
            "dimension": self.dimension,
            "rank_rtol": RANK_RTOL,
            "matrices": self.matrices.tolist(),
            "sample_points": [
                None if x is None else x.tolist() for x in self.sample_points
            ],
        }


def _build_basis(system_dim: int, candidates, confirmations: int | None = None) -> JacobianBasis:
    """Filter (J, point) candidates through the incremental rank test.

    Stops once the span reaches its m^2 cap or, when ``confirmations`` is
    given, once that many consecutive candidates are dependent; candidates
    after that are never drawn."""
    cap = system_dim * system_dim
    stack = np.empty((system_dim, cap))  # one block's worth, like mats
    mats = np.empty((system_dim, system_dim, system_dim))
    pts: list[np.ndarray | None] = []
    dependent_run = 0
    for J, point in candidates:
        if J.shape != (system_dim, system_dim):
            raise DimensionMismatchError("Jacobian sample has wrong shape")
        r, rnorm, _, independent = scaled_residual(J.ravel(), stack[: len(pts)])
        if independent:
            if len(pts) == len(stack):  # full: double both, up to the m^2 cap
                stack = np.vstack((stack, np.empty_like(stack[: cap - len(stack)])))
                mats = np.vstack((mats, np.empty_like(mats[: cap - len(mats)])))
            stack[len(pts)] = r / rnorm
            mats[len(pts)] = J  # a copy, so the evaluated block J came from is freed
            pts.append(point)
            dependent_run = 0
        else:
            dependent_run += 1
        if len(pts) == cap or dependent_run == confirmations:
            break
    return JacobianBasis(
        state_dim=system_dim, matrices=mats[: len(pts)], sample_points=pts, ortho_flat=stack[: len(pts)]
    )


def basis_from_matrices(matrices, sample_points=None, state_dim=None) -> JacobianBasis:
    """Build a basis from explicit matrices, keeping the independent ones."""
    mats = [np.asarray(J, dtype=float) for J in matrices]
    if state_dim is None:
        if not mats:
            raise ValueError("state_dim required for an empty matrix list")
        state_dim = mats[0].shape[0]
    if sample_points is None:
        sample_points = [None] * len(mats)
    return _build_basis(state_dim, zip(mats, sample_points))


def basis_from_points(system: OdeSystem, points) -> JacobianBasis:
    """Build a basis from Jacobians at explicit sample points, in the given
    order, stopping only at the m^2 cap. Used for reproducible reference runs."""

    def candidates():
        for x in points:
            x = np.asarray(x, dtype=float)
            _, J = evaluate_drift_dual(system, x)
            yield J, x

    return _build_basis(system.dim, candidates())


def sample_jacobians(system: OdeSystem, domain: SamplingDomain, block_size, evaluate, points=()):
    """Yield ``(J(x), x)`` at ``points``, then along the PCG64 ``uniform(lower,
    upper)`` stream of ``domain.seed``, in blocks of ``block_size(yielded)``
    points, ``yielded`` counting the pairs so far. Each block is one call of
    ``evaluate``, :func:`~lumpkit.model.evaluate_drift_dual` as the calling
    module names it (so whatever wraps that name there sees each call); a
    block that raises is evaluated again point by point. Points where the
    drift is singular or f or J is non-finite are skipped; more than 100 * m
    in a row raise :class:`~lumpkit.errors.SamplingError`. The pairs and the
    skips are those of one draw and one evaluation per point."""
    m = system.dim
    if domain.dim != m:
        raise DimensionMismatchError("domain dimension does not match the system")
    limit = 100 * m
    rng = np.random.Generator(np.random.PCG64(domain.seed))
    queue = deque(np.asarray(x, dtype=float) for x in points)
    for i, x in enumerate(queue):
        if x.shape != (m,):
            raise ValueError(f"sample point {i} is not a vector of length {m}: shape {x.shape}")
    failures = yielded = 0
    while True:
        size = block_size(yielded)
        if queue:
            X = np.array([queue.popleft() for _ in range(min(size, len(queue)))])
        else:
            X = rng.uniform(domain.lower, domain.upper, size=(size, m))
        try:
            f, jacobians = evaluate(system, X)
        except EvaluationError:
            f, jacobians = np.full(X.shape, np.nan), np.full(X.shape + (m,), np.nan)
            for i, x in enumerate(X):
                with contextlib.suppress(EvaluationError):  # the row stays NaN
                    f[i], jacobians[i] = evaluate(system, x)
        regular = np.isfinite(f).all(axis=1) & np.isfinite(jacobians).all(axis=(1, 2))
        for x, J, ok in zip(X, jacobians, regular.tolist()):
            if not ok:
                failures += 1
                if failures > limit:
                    raise SamplingError(
                        f"{failures} consecutive singular samples; shrink or move the domain"
                    )
                continue
            failures = 0
            yielded += 1
            yield J, x


def sample_jacobian_basis(
    system: OdeSystem, domain: SamplingDomain, initial_points=()
) -> JacobianBasis:
    """Sample Jacobians at uniform random points of ``domain`` until
    ``domain.confirmations`` consecutive samples are dependent on the basis
    collected so far (or the span reaches its m^2 cap).

    ``initial_points`` are consumed before any random draw and go through the
    same independence test. Singular points are skipped as
    :func:`sample_jacobians` skips them. Points are evaluated in blocks of
    max(m, yielded), the candidates so far, so at most ``yielded`` are evaluated
    past the stop; near the m^2 cap, fewer: the span fills no sooner than
    m^2 - yielded more candidates, so no point of a block is evaluated in vain.
    """
    m = system.dim
    candidates = sample_jacobians(
        system,
        domain,
        lambda yielded: max(1, min(max(m, yielded), m * m - yielded)),
        evaluate_drift_dual,
        initial_points,
    )
    return _build_basis(m, candidates, domain.confirmations)


def membership_residual(basis: JacobianBasis, J) -> float:
    """Distance ||vec(J) - proj_basis(vec(J))||_2; zero (up to roundoff) iff
    J lies in the span of the basis."""
    J = np.asarray(J, dtype=float)
    if J.shape != (basis.state_dim, basis.state_dim):
        raise DimensionMismatchError("matrix shape does not match the basis")
    _, rnorm, e, _ = scaled_residual(J.ravel(), basis.ortho_flat)
    with np.errstate(over="ignore"):  # a residual past the float range is inf
        return float(np.ldexp(rnorm, e))
