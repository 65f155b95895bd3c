"""Constrained lumping of ODE systems up to a tolerance.

A lumping matrix L (orthonormal rows) maps the full state x to a reduced
state y = Lx while keeping every requested observable row inside rsp(L).
Exact lumpings leave rsp(L) invariant under every drift Jacobian; the
approximate variant tolerates invariance defects up to a tolerance epsilon.

The central routine is :func:`approximate_lump`: starting from the
orthonormalized observable rows its sweep (:func:`_sweep`) checks each row
against all basis Jacobians in one batch, measures each image's defect
against the current row space (:func:`_measure`) and appends the normalized
defect when the decision (:func:`_decide`) finds it larger than epsilon; one
pass over the growing row list is a fixpoint. :func:`epsilon_max` gives the
smallest tolerance that collapses the result back to the observables alone,
the lower end of ``valid_for`` at an infinite tolerance. :func:`find_epsilon`
bisects between the two extremes to hit a target size and :func:`staircase`
tabulates size against tolerance, both sweeping once per decision interval
(``valid_for``) and holding only the lumpings whose interval can still hold
the next tolerance; the exact check of :func:`find_epsilon` stops at
cutoff + 1 rows. :func:`deviation` measures how far a lumping is from exact,
at one point or at a block of points in one drift call.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, MonotonicityError, RankDeficiencyError
from .jacobian import JacobianBasis
from .model import RANK_RTOL, OdeSystem, equal_values, evaluate_drift, orthonormalize_rows, project_out, read_only

__all__ = [
    "RowProvenance",
    "TraceEvent",
    "LumpingMatrix",
    "EpsilonSearchConfig",
    "EpsilonSearchResult",
    "SearchStep",
    "orthonormalize_rows",
    "approximate_lump",
    "deviation",
    "epsilon_max",
    "find_epsilon",
    "staircase",
]

_ORTHONORMALITY_ATOL = 1e-10


@dataclass(frozen=True)
class RowProvenance:
    """Where a row of L came from: an observable row, or the defect of
    (source row) @ (basis matrix) at the recorded distance."""

    origin: str
    source_row: int | None = None
    source_matrix: int | None = None
    distance: float | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TraceEvent:
    """One residual check of the sweep: row index against matrix index, the
    measured distance, and whether a row was appended for it. The sweep makes
    one pass, so ``sweep`` is always 1."""

    sweep: int
    row: int
    matrix: int
    distance: float
    appended: bool


@dataclass(frozen=True, eq=False)
class LumpingMatrix:
    """A reduction y = Lx with orthonormal rows.

    Rows 0..observable_rank-1 span the observable row space; later rows were
    appended by the lumping sweep. Orthonormal rows make the transpose a
    pseudoinverse, so lifting back is just L.T @ y.

    ``valid_for`` is set by :func:`approximate_lump`: the half-open interval
    [lo, hi) of tolerances at which the sweep takes the same append decisions,
    and so returns this same matrix and provenance bit for bit; (inf, inf)
    stands for the single tolerance inf. It is None for a matrix built any
    other way and is not part of the JSON form.
    """

    matrix: np.ndarray
    epsilon: float
    observable_rank: int
    provenance: tuple[RowProvenance, ...] = ()
    trace: tuple[TraceEvent, ...] | None = None
    valid_for: tuple[float, float] | None = None

    __eq__ = equal_values

    def __post_init__(self):
        L = np.atleast_2d(read_only(self.matrix))
        l, m = L.shape
        if not (1 <= self.observable_rank <= l <= m):
            raise DimensionMismatchError(
                f"need observable_rank <= rows <= columns, got p={self.observable_rank}, "
                f"shape {L.shape}"
            )
        gram_defect = np.max(np.abs(L @ L.T - np.eye(l)))
        if not gram_defect <= _ORTHONORMALITY_ATOL:
            raise RankDeficiencyError(
                f"rows are not orthonormal (defect {gram_defect:.3e})"
            )
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be non-negative")
        object.__setattr__(self, "matrix", L)
        if self.provenance and len(self.provenance) != l:
            raise DimensionMismatchError("one provenance entry per row required")

    @classmethod
    def from_rows(cls, rows, epsilon: float = 0.0, observable_rank: int | None = None):
        """Orthonormalize arbitrary full-row-rank rows into a LumpingMatrix."""
        L = orthonormalize_rows(rows)
        p = L.shape[0] if observable_rank is None else observable_rank
        return cls(matrix=L, epsilon=epsilon, observable_rank=p)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def state_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def pseudoinverse(self) -> np.ndarray:
        return self.matrix.T

    def project(self, x) -> np.ndarray:
        """Project a full state onto rsp(L): x -> L.T @ (L @ x)."""
        x = np.asarray(x, dtype=float)
        return self.matrix.T @ (self.matrix @ x)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.dim,
            "cols": self.state_dim,
            "epsilon": self.epsilon,
            "observable_rank": self.observable_rank,
            "matrix": self.matrix.tolist(),
            "provenance": [pr.to_json_dict() for pr in self.provenance],
        }


def _measure(V, stack):
    """Each image's defect against the orthonormal ``stack``, and its norm."""
    defects = project_out(V, stack)
    return defects, np.sqrt(np.add.reduce(defects * defects, axis=1))


def _decide(dist, epsilon, independent, lo):
    """The decision on a batch of checks in order: n, the checks before the
    first append (``len(dist)`` if none), and ``lo`` raised to the largest of
    their distances whose image is ``independent`` (the mask the sweep takes in
    the images' own scale by the rule of :func:`~lumpkit.model.scaled_residual`,
    which alone decides epsilon = 0). The tolerance enters only here, through
    ``distance > epsilon`` in true units for independent images while rows can
    still be appended, so ``valid_for`` is [lo, hi): lo the largest such distance
    not appended (0 if none), hi the smallest appended distance (inf if none)."""
    over = independent & (dist > epsilon)
    n = int(over.argmax()) if over.any() else len(dist)
    return n, float(dist[:n][independent[:n]].max(initial=lo))


def approximate_lump(
    basis: JacobianBasis,
    observables,
    epsilon: float,
    record_trace: bool = False,
) -> LumpingMatrix:
    """Reduce as far as the tolerance allows while keeping the observables.

    Starting from L = orthonormalized observable rows, sweep rows in append
    order and basis matrices in index order; for each pair compute
    v = r @ J_i and its defect against the current row space. A defect that
    passes the package's one rank test, larger than RANK_RTOL * ||v|| in v's
    own power-of-two scale (all that counts at epsilon = 0), and that is
    larger than epsilon in true units appends the normalized defect as a new
    row; a defect past the float range is inf, larger than any finite
    epsilon. New rows are swept in the same pass, and one pass is a
    fixpoint: a defect measured against a larger row space is never larger,
    and an appended image already lies in the span.

    :func:`_sweep` is the skeleton (row walk, append, provenance, trace,
    ``valid_for``). A row's images are measured in one batch
    (:func:`_measure`) and decided on in order (:func:`_decide`, the one
    place the tolerance enters); after an append only the unchecked images
    are measured again, against the grown stack. Decisions, their order and
    the trace are those of one check at a time, and distances agree with a
    per-check loop to roundoff.

    The worst case returns all m rows, never an error.
    """
    if not epsilon >= 0:
        raise ValueError("epsilon must be non-negative")
    return _sweep(basis, observables, epsilon, record_trace, basis.state_dim)


def _sweep(basis, observables, epsilon, record_trace, cap) -> LumpingMatrix | None:
    """The sweep of :func:`approximate_lump`, or None at the first append
    that would make row ``cap + 1``: its lumping has more than ``cap`` rows."""
    M = np.atleast_2d(np.asarray(observables, dtype=float))
    m = M.shape[1]
    if basis.state_dim != m:
        raise DimensionMismatchError("observables and basis have different state dims")
    ortho = orthonormalize_rows(M)
    p = ortho.shape[0]

    L = np.zeros((m, m))
    L[:p] = ortho
    count = p
    provenance: list[RowProvenance] = [RowProvenance("observable") for _ in range(p)]
    trace: list[TraceEvent] = []
    lo, hi = 0.0, math.inf

    bound = 2 * m * basis._max_abs  # |r @ J| <= sqrt(m) max|J| for a unit row r, so
    # squared image norms stay below bound**2; below 2**-450 an entry's images
    # near the subnormal range when squared, where squares lose bits or vanish
    rescale = not math.isfinite(bound * bound) or basis._min_abs < 2.0**-450
    row = 0
    while row < count:
        if rescale:  # image k at 2**-e[k], max|image| = f * 2**e (0.5 <= f < 1)
            with np.errstate(over="ignore", invalid="ignore"):
                V = L[row] @ basis.matrices
            # a product past the float range is taken again from J_k at 2**-s
            lost = np.flatnonzero(~np.isfinite(V).all(axis=1))
            s = np.frexp(np.abs(basis.matrices[lost]).max(axis=(1, 2)))[1]
            V[lost] = L[row] @ np.ldexp(basis.matrices[lost], -s[:, None, None])
            e = np.frexp(np.abs(V).max(axis=1))[1]
            V = np.ldexp(V, -e[:, None])
            e[lost] += s
        else:
            V = L[row] @ basis.matrices
        floor = RANK_RTOL * np.sqrt(np.add.reduce(V * V, axis=1))
        k0 = 0
        while k0 < len(V):
            # the images from k0 on are unchecked; every check before
            # the first append among them is final as measured here
            cur = L[:count]
            defects, dist = _measure(V[k0:], cur)
            independent = dist > floor[k0:]
            if rescale:
                with np.errstate(over="ignore"):  # a distance past the float range is inf
                    dist = np.ldexp(dist, e[k0:])
            n, lo = _decide(dist, epsilon, independent, lo) if count < m else (len(dist), lo)
            if record_trace:
                trace.extend(
                    TraceEvent(1, row, k0 + j, float(dist[j]), j == n)
                    for j in range(min(n + 1, len(dist)))
                )
            if n == len(dist):
                break
            if count == cap:
                return None
            distance = float(dist[n])
            hi = min(hi, distance)
            # one extra projection pass keeps the stack orthonormal
            defect = project_out(defects[n], cur)
            L[count] = defect / np.sqrt(defect.dot(defect))
            count += 1
            provenance.append(RowProvenance("appended", row, k0 + n, distance))
            k0 += n + 1
        row += 1

    return LumpingMatrix(
        matrix=L[:count],
        epsilon=epsilon,
        observable_rank=p,
        provenance=tuple(provenance),
        trace=tuple(trace) if record_trace else None,
        valid_for=(lo, hi),
    )


def deviation(system: OdeSystem, lump: LumpingMatrix, x) -> float | np.ndarray:
    """How far the drift is from commuting with the reduction at x:
    ||L f(L.T L x) - L f(x)||_2. Zero everywhere means an exact lumping.

    ``x`` may also be an ``(N, m)`` block, one point per row, for an ``(N,)``
    result. The drift runs once, on the points interleaved with their
    projections, so a singular one raises the error a loop over the points
    meets first; stacked products keep the bits of one point at a time."""
    x = np.asarray(x, dtype=float)
    if lump.state_dim != system.dim:
        raise DimensionMismatchError("lumping matrix does not match the system")
    L = lump.matrix
    points = x.reshape(-1, x.shape[-1], 1)  # a point is a block of one
    pairs = np.stack([points, lump.project(points)], axis=1)
    f = evaluate_drift(system, pairs.reshape(-1, system.dim)).reshape(pairs.shape)
    d = L @ f[:, 1] - L @ f[:, 0]
    norms = np.sqrt(d.transpose(0, 2, 1) @ d).reshape(-1)
    return norms if x.ndim == 2 else float(norms[0])


def epsilon_max(basis: JacobianBasis, observables) -> float:
    """Smallest tolerance at which :func:`approximate_lump` keeps only the
    observable rows: the lower end of ``valid_for`` of the sweep at an
    infinite tolerance, which appends nothing, so that interval is
    [epsilon_max, inf), or the single tolerance inf when epsilon_max is inf."""
    return approximate_lump(basis, observables, math.inf).valid_for[0]


@dataclass(frozen=True)
class EpsilonSearchConfig:
    """Bisection parameters: target reduction size (at most cutoff_size rows)
    and the absolute bracket width d_min below which the search stops."""

    cutoff_size: int
    d_min: float = 1e-6

    def __post_init__(self):
        if not (self.cutoff_size >= 0 and float(self.cutoff_size).is_integer()):
            raise ValueError("cutoff_size must be a non-negative whole number")
        if not (self.d_min > 0):
            raise ValueError("d_min must be positive")


@dataclass(frozen=True)
class SearchStep:
    iteration: int
    lo: float
    hi: float
    epsilon: float
    size: int


@dataclass(frozen=True)
class EpsilonSearchResult:
    epsilon: float
    lump: LumpingMatrix
    iterations: int
    history: tuple[SearchStep, ...] = ()
    # set when a boundary case short-circuits the bisection
    boundary: str | None = None


def find_epsilon(
    basis: JacobianBasis, observables, config: EpsilonSearchConfig
) -> EpsilonSearchResult:
    """Find the smallest tolerance whose reduction has at most cutoff_size
    rows, by bisection on [0, epsilon_max].

    Boundary cases resolve without bisecting: a cutoff below the observable
    rank returns epsilon_max (nothing smaller is achievable), and a cutoff at
    or above the exact-reduction size returns 0; that check sweeps at 0 only
    until it would append row cutoff_size + 1. Otherwise the bracket keeps
    size(hi) <= cutoff < size(lo) invariant and halves until its width drops
    below d_min or its midpoint rounds onto an end: at most
    ceil(log2(epsilon_max / d_min)) + 1 steps, and never more than about
    2,100, as a float bracket can be halved only that often. The returned
    tolerance is the hi end, whose lumping is returned with it.

    epsilon_max and the observables-only lumping come from one sweep at an
    infinite tolerance (see :func:`epsilon_max`). A midpoint inside the
    ``valid_for`` of ``best`` (which holds hi) or of the last lumping too
    large (which holds lo) takes that lumping; any other is swept. No other
    earlier sweep can match: every earlier tolerance lies outside the open
    bracket, so an earlier interval that holds the midpoint also holds lo or
    hi, and intervals of different sweeps are disjoint.
    """
    M = np.atleast_2d(np.asarray(observables, dtype=float))
    p = len(M)
    target = config.cutoff_size

    if target >= p:
        exact = _sweep(basis, M, 0.0, False, target)
        if exact is not None:
            return EpsilonSearchResult(
                epsilon=0.0, lump=exact, iterations=1, boundary="exact_fits_cutoff"
            )

    best = approximate_lump(basis, M, math.inf)
    lo, hi = 0.0, best.valid_for[0]
    if target < p:
        lump = replace(best, epsilon=hi)
        return EpsilonSearchResult(
            epsilon=hi, lump=lump, iterations=1, boundary="cutoff_below_observable_rank"
        )

    history: list[SearchStep] = []
    iterations = 0
    too_large = None
    while hi - lo >= config.d_min:
        iterations += 1
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket is below float resolution
        held = [k for k in (best, too_large) if k and k.valid_for[0] <= mid < k.valid_for[1]]
        candidate = held[0] if held else approximate_lump(basis, M, mid)
        history.append(SearchStep(iterations, lo, hi, mid, candidate.dim))
        if candidate.dim <= target:
            hi = mid
            best = candidate
        else:
            lo = mid
            too_large = candidate
    return EpsilonSearchResult(
        epsilon=hi, lump=replace(best, epsilon=hi), iterations=iterations, history=tuple(history)
    )


def staircase(basis: JacobianBasis, observables, grid) -> tuple[tuple[float, int], ...]:
    """Reduction size at each tolerance of the grid, in ascending tolerance
    order, sweeping once per decision interval the grid touches: the last
    lumping serves every tolerance up to the top of its ``valid_for``, and no
    earlier one can, as the grid is sorted. Sizes must not increase with the
    tolerance; a violation raises :class:`~lumpkit.errors.MonotonicityError`
    naming the offending pair."""
    eps_values = sorted(float(e) for e in grid)
    if not all(e >= 0 for e in eps_values):
        raise ValueError("grid tolerances must be non-negative numbers")
    lump = None
    pairs: list[tuple[float, int]] = []
    for eps in eps_values:
        if lump is None or eps >= lump.valid_for[1]:
            lump = approximate_lump(basis, observables, eps)
        size = lump.dim
        if pairs and size > pairs[-1][1]:
            raise MonotonicityError(
                f"reduction size grew with the tolerance: size {pairs[-1][1]} at "
                f"eps={pairs[-1][0]!r} but size {size} at eps={eps!r}"
            )
        pairs.append((eps, size))
    return tuple(pairs)
