"""Trajectory integration and reduction quality reports.

The integrator is an embedded Dormand-Prince 5(4) pair with proportional
step control and the pair's quartic dense-output interpolant. It is explicit
on purpose: stiffness is reported (step underflow after repeated
rejections), not worked around. The step loop forms its stage sums with
``np.dot`` over stage prefixes, makes six drift calls per step (the last, at
the step's end, is the next step's first), keeps times in Python floats and
never writes a state in place, so it logs each state uncopied; the
trajectory copies each log once.

:func:`reduction_report` integrates the full and the reduced system side by
side on a shared output grid and summarizes the observable error, the drift
deviation along the trajectory, and an a-priori error bound built from an
estimated Lipschitz constant. The grid is evaluated in blocks, with the bits
of one evaluation per point: :meth:`Trajectory.sample` interpolates all grid
times at once, :func:`~lumpkit.lumping.deviation` takes all grid points in
one drift call, and :func:`estimate_lipschitz` takes its sample Jacobians
from :func:`~lumpkit.jacobian.sample_jacobians`, the sampler of the Jacobian
basis, and their spectral norms in one stacked call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, EvaluationError, IntegrationError, PseudoinverseError
from .jacobian import SamplingDomain, sample_jacobians
from .lumping import LumpingMatrix, deviation
from .model import OdeSystem, equal_values, evaluate_drift, evaluate_drift_dual, read_only

__all__ = [
    "SolverConfig",
    "Trajectory",
    "ReductionReport",
    "integrate",
    "build_reduced_drift",
    "reduction_report",
    "error_bound_constant",
    "estimate_lipschitz",
    "write_series_csv",
]

# Dormand-Prince 5(4) tableau
_A = (
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
# difference between the 5th and the embedded 4th order weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# dense-output polynomial coefficients, one row per stage, powers theta..theta^4
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9
# a step no longer than this times max(|t|, 1) (16 ulps of 1) underflows
_MIN_RELATIVE_STEP = 16 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolverConfig:
    """Adaptive step control settings. ``initial_step=None`` picks the first
    step automatically from the local derivative scale."""

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    initial_step: float | None = None
    max_step: float = math.inf
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.initial_step is not None and not (self.initial_step > 0):
            raise ValueError("initial_step must be positive")
        if not (self.max_step > 0):
            raise ValueError("max_step must be positive")
        if self.initial_step is not None and self.initial_step > self.max_step:
            raise ValueError("initial_step must not exceed max_step")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Accepted solver steps plus a dense interpolant between them.

    ``times`` is strictly increasing, starts at 0 and ends exactly at the
    requested horizon; ``states[k]`` is the state at ``times[k]``. Step k
    runs from ``times[k]`` over ``steps[k]``, with the ``(7, dim)`` drift
    stages ``stages[k]``.
    """

    times: np.ndarray
    states: np.ndarray
    steps: np.ndarray
    stages: np.ndarray

    __eq__ = equal_values

    def __post_init__(self):
        for name in ("times", "states", "steps", "stages"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def at(self, t: float) -> np.ndarray:
        """Dense-output state at any time in [0, horizon]."""
        return self.sample([t])[0]

    def sample(self, times) -> np.ndarray:
        """Dense-output states at ``times``, one row each: ``(len(times), dim)``.

        Times may be unsorted and repeat. One on a step boundary, the horizon
        among them, gives the stored state; the others evaluate their step's
        quartic interpolant all at once, by stacked products with the bits of
        one product per time. Times outside [0, horizon] or NaN raise
        ``ValueError``."""
        ts = np.asarray(times, dtype=float).reshape(-1)
        outside = ~((0.0 <= ts) & (ts <= self.horizon))
        if outside.any():
            raise ValueError(f"time {float(ts[outside][0])} outside [0, {self.horizon}]")
        k = np.searchsorted(self.times, ts, side="right") - 1
        X = self.states[k]
        inner = np.flatnonzero(ts != self.times[k])
        if inner.size:
            j = k[inner]
            h = self.steps[j]
            powers = ((ts[inner] - self.times[j]) / h)[:, None] ** np.arange(1, 5)
            stages = self.stages[j].transpose(0, 2, 1)
            X[inner] = self.states[j] + h[:, None] * (stages @ (_P @ powers[..., None]))[..., 0]
        return X


def _rms(q: np.ndarray) -> float:
    """Root mean square of q, with the bits of ``np.sqrt(np.mean(q**2))``."""
    return math.sqrt(float(np.add.reduce(q * q)) / q.size)


def _call_drift(drift, y: np.ndarray, t: float) -> np.ndarray:
    try:
        f = np.asarray(drift(y), dtype=float)
    except EvaluationError as exc:
        raise IntegrationError(
            f"drift evaluation failed at t={t!r}, state={y.tolist()}: {exc}",
            time_reached=t,
        ) from exc
    if f.shape != y.shape:
        raise DimensionMismatchError("drift returned a vector of the wrong length")
    return f


def _initial_step(drift, y0, f0, horizon, cfg: SolverConfig) -> float:
    """Standard two-probe guess for the first step size."""
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        d0 = float(np.linalg.norm(y0 / scale)) / math.sqrt(y0.size)
        d1 = float(np.linalg.norm(f0 / scale)) / math.sqrt(y0.size)
    if not math.isfinite(d0 + d1):  # h0 would be 0 or nan
        raise IntegrationError(
            f"first step guess overflows at t=0: scaled norms {d0!r}, {d1!r}", time_reached=0.0
        )
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, horizon)
    f1 = _call_drift(drift, y0 + h0 * f0, h0)
    d2 = float(np.linalg.norm((f1 - f0) / scale)) / math.sqrt(y0.size) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, cfg.max_step, horizon)


def integrate(drift: Callable, x0, horizon: float, config: SolverConfig | None = None) -> Trajectory:
    """Integrate x' = drift(x) from t=0 to t=horizon.

    Accepts a step when the embedded error estimate, scaled per component by
    max(abs_tol, rel_tol * |x_i|), has RMS at most one. Steps land exactly on
    the horizon. Raises :class:`~lumpkit.errors.IntegrationError` on a
    non-finite initial state or drift, on step underflow (stiffness
    suspected) or when max_steps step attempts are spent, naming the time
    reached. The horizon must be positive and finite (``ValueError``).
    """
    cfg = config or SolverConfig()
    if not (0 < horizon < math.inf):
        raise ValueError("horizon must be positive and finite")
    y = np.asarray(x0, dtype=float).copy()
    if y.ndim != 1 or y.size == 0:
        raise DimensionMismatchError("initial state must be a non-empty vector")
    n = y.size

    t = 0.0
    f_cur = _call_drift(drift, y, t)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(f_cur))):
        raise IntegrationError(
            f"non-finite start at t=0: state={y.tolist()}, drift={f_cur.tolist()}",
            time_reached=t,
        )
    h = cfg.initial_step if cfg.initial_step is not None else _initial_step(drift, y, f_cur, horizon, cfg)
    h = min(h, cfg.max_step, horizon)

    times = [0.0]
    states = [y]
    steps: list[float] = []
    stage_log: list[np.ndarray] = []
    stages = np.empty((7, n))
    abs_y = np.abs(y)
    attempts = 0
    rejected_streak = 0

    while t < horizon:
        if attempts >= cfg.max_steps:
            raise IntegrationError(
                f"step budget ({cfg.max_steps}) exhausted at t={t!r}", time_reached=t
            )
        attempts += 1
        final_step = h >= horizon - t
        if final_step:
            h = horizon - t
        # a step that lands on the horizon ends the run, however short
        if not final_step and h <= _MIN_RELATIVE_STEP * max(abs(t), 1.0):
            raise IntegrationError(
                f"step size underflow at t={t!r} after {rejected_streak} rejections; "
                "the system looks stiff for an explicit solver",
                time_reached=t,
            )

        stages[0] = f_cur
        for s in range(1, 7):
            y_stage = y + h * np.dot(_A[s], stages[:s])
            stages[s] = _call_drift(drift, y_stage, t + _C[s] * h)
        # the last stage is y_new (_C[6] = 1), and f there is the next step's stage 0
        y_new = y_stage

        err_vec = h * np.dot(_E, stages)
        abs_new = np.abs(y_new)
        scale = np.maximum(cfg.abs_tol, cfg.rel_tol * np.maximum(abs_y, abs_new))
        err = _rms(err_vec / scale)

        if err <= 1.0:
            steps.append(h)
            stage_log.append(stages.copy())
            t = horizon if final_step else t + h
            y, abs_y = y_new, abs_new
            f_cur = stages[6].copy()
            times.append(t)
            states.append(y)
            factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**-0.2)
            if rejected_streak > 0:
                factor = min(factor, 1.0)
            rejected_streak = 0
        else:
            factor = max(_MIN_FACTOR, _SAFETY * err**-0.2)
            rejected_streak += 1
        h = min(h * factor, cfg.max_step)

    return Trajectory(times=times, states=states, steps=steps, stages=stage_log)


def build_reduced_drift(system: OdeSystem, L, Lbar=None) -> Callable[[np.ndarray], np.ndarray]:
    """Closure computing the reduced drift y -> L f(Lbar y).

    With ``Lbar=None`` the rows of L must be orthonormal and the transpose is
    used. An explicit Lbar must satisfy L @ Lbar = I within 1e-8.
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if L.shape[1] != system.dim:
        raise DimensionMismatchError("L columns must match the system dimension")
    if Lbar is None:
        Lbar = L.T
    else:
        Lbar = np.asarray(Lbar, dtype=float)
        if Lbar.shape != (L.shape[1], L.shape[0]):
            raise DimensionMismatchError("Lbar must have the transposed shape of L")
    defect = np.max(np.abs(L @ Lbar - np.eye(L.shape[0])))
    if not defect <= 1e-8:
        raise PseudoinverseError(f"L @ Lbar deviates from the identity by {defect:.3e}")

    def reduced(y: np.ndarray) -> np.ndarray:
        return np.dot(L, evaluate_drift(system, np.dot(Lbar, y)))

    return reduced


def error_bound_constant(C: float, norm_L: float, norm_Lbar: float, horizon: float) -> float:
    """Growth factor K such that the reduced-state error stays below
    eta * K when the deviation along the trajectory stays below eta:
    K = (exp(beta*T) - 1) / beta with beta = C * ||L|| * ||Lbar||.

    Uses the series limit T * (1 + beta*T/2) for beta*T < 1e-8 and saturates
    to inf for beta*T > 700, where exp overflows anyway.
    """
    if C < 0 or norm_L < 0 or norm_Lbar < 0:
        raise ValueError("norms and the Lipschitz constant must be non-negative")
    if not (horizon > 0):
        raise ValueError("horizon must be positive")
    beta = C * norm_L * norm_Lbar
    bt = beta * horizon
    if bt < 1e-8:
        return horizon * (1.0 + 0.5 * bt)
    if bt > 700.0:
        return math.inf
    return math.expm1(bt) / beta


def estimate_lipschitz(
    system: OdeSystem, domain: SamplingDomain, n_samples: int = 64
) -> float:
    """Estimate a Lipschitz constant of the drift over the domain as the
    largest spectral norm ``np.linalg.norm(J(x), 2)`` at random sample points,
    times a 1.1 safety factor. The Jacobians are the first ``n_samples`` that
    :func:`~lumpkit.jacobian.sample_jacobians` yields for ``domain``: the
    points of the seeded stream Jacobian sampling draws, with singular and
    non-finite ones skipped under the same ``max_resamples`` limit and
    :class:`~lumpkit.errors.SamplingError`. They come in blocks of the
    ``n_samples - yielded`` points still missing, and their spectral norms are
    taken in one stacked call; this gives the bits of one draw, one
    evaluation and one norm per point."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    samples = sample_jacobians(
        system, domain, lambda yielded: n_samples - yielded, evaluate_drift_dual
    )
    jacobians = np.array([J for J, _ in itertools.islice(samples, n_samples)])
    return 1.1 * float(np.max(np.linalg.norm(jacobians, 2, axis=(1, 2))))


@dataclass(frozen=True, eq=False)
class ReductionReport:
    """Side-by-side comparison of a system and its reduction on one grid.

    ``errors[k] = ||reduced(t_k) - L x(t_k)||_2``; ``deviations`` is the
    drift deviation along the original trajectory. ``e_rel_at_T`` divides by
    the norm of the original trajectory's observable at the horizon and is
    None when that norm falls below 1e-12. ``bound`` is eta times the growth
    factor from :func:`error_bound_constant`, or 0 when eta is 0.
    """

    times: np.ndarray
    original_states: np.ndarray
    reduced_states: np.ndarray
    errors: np.ndarray
    deviations: np.ndarray
    e_at_T: float
    e_max: float
    e_rel_at_T: float | None
    eta: float
    lipschitz_constant: float
    bound: float
    bound_satisfied: bool

    __eq__ = equal_values

    def __post_init__(self):
        for name in ("times", "original_states", "reduced_states", "errors", "deviations"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    def to_json_dict(self) -> dict:
        return {
            "grid_points": int(self.times.size),
            "e_at_T": self.e_at_T,
            "e_max": self.e_max,
            "e_rel_at_T": self.e_rel_at_T,
            "eta": self.eta,
            "lipschitz_constant": self.lipschitz_constant,
            "bound": self.bound,
            "bound_satisfied": self.bound_satisfied,
        }


def reduction_report(
    system: OdeSystem,
    lump: LumpingMatrix,
    horizon: float | None = None,
    config: SolverConfig | None = None,
    grid_points: int = 200,
    seed: int = 0,
) -> ReductionReport:
    """Integrate the original and the reduced system and report the error
    e(t) = ||y(t) - L x(t)|| on a shared grid of at least 200 points, from
    the first initial condition x0.

    The Lipschitz constant is estimated over the bounding box of the original
    trajectory and its projection onto rsp(L). e(0) is zero by construction
    since the reduced run starts from L x0. No outcome of the bound warns.
    """
    if lump.state_dim != system.dim:
        raise DimensionMismatchError("lumping matrix does not match the system")
    if grid_points < 200:
        raise ValueError("grid_points must be at least 200")
    x0 = system.initial_conditions[0]
    T = system.time_horizon if horizon is None else float(horizon)
    L = lump.matrix

    full = integrate(lambda x: evaluate_drift(system, x), x0, T, config)
    reduced_drift = build_reduced_drift(system, L)
    reduced = integrate(reduced_drift, L @ x0, T, config)

    ts = np.linspace(0.0, T, grid_points)
    X = full.sample(ts)
    Y = reduced.sample(ts)
    errors = np.linalg.norm(Y - X @ L.T, axis=1)
    deviations = deviation(system, lump, X)

    eta = float(np.max(deviations))
    e_at_T = float(errors[-1])
    e_max = float(np.max(errors))

    obs_at_T = system.observables @ X[-1]
    obs_norm = float(np.linalg.norm(obs_at_T))
    e_rel_at_T = e_at_T / obs_norm if obs_norm >= 1e-12 else None

    # Lipschitz estimate over the box visited by the trajectory and its
    # projection; degenerate axes get a small pad to keep lower < upper
    cloud = np.vstack([X, X @ L.T @ L])
    lower = cloud.min(axis=0)
    upper = cloud.max(axis=0)
    pad = np.maximum(1e-9, 1e-6 * (np.abs(lower) + np.abs(upper)))
    degenerate = upper - lower < pad
    lower = np.where(degenerate, lower - pad, lower)
    upper = np.where(degenerate, upper + pad, upper)
    box = SamplingDomain(lower=lower, upper=upper, seed=seed)
    C = estimate_lipschitz(system, box)

    K = error_bound_constant(
        C, float(np.linalg.norm(L, 2)), float(np.linalg.norm(L.T, 2)), T
    )
    bound = eta * K if eta else 0.0  # eta = 0 bounds e by 0 at every finite K; 0 * inf is nan
    bound_satisfied = bool(np.all(errors <= bound * (1 + 1e-9) + 1e-15))

    return ReductionReport(
        times=ts,
        original_states=X,
        reduced_states=Y,
        errors=errors,
        deviations=deviations,
        e_at_T=e_at_T,
        e_max=e_max,
        e_rel_at_T=e_rel_at_T,
        eta=eta,
        lipschitz_constant=C,
        bound=bound,
        bound_satisfied=bound_satisfied,
    )


def write_series_csv(path, times, columns: dict[str, np.ndarray]):
    """Write a time series as UTF-8 CSV, one line per time and every number
    as ``"%.17g"``: 17 significant digits, '.' decimal separator. Columns: t,
    then the given ones, each as long as ``times`` (checked before opening)."""
    ts = np.asarray(times, dtype=float)
    series = [np.asarray(values, dtype=float) for values in columns.values()]
    if ts.ndim != 1 or any(values.shape != ts.shape for values in series):
        raise DimensionMismatchError("times and every column must be vectors of one length")
    write_table(path, ",".join(["t", *columns]), np.column_stack([ts, *series]))


def write_table(path, header: str, table: np.ndarray):
    """Write ``header`` and a CSV line of ``"%.17g"`` numbers per row of the
    2-D ``table`` as UTF-8, in one write and formatted by one ``%``."""
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"{header}\n" + (line * len(table)) % tuple(table.ravel().tolist()))
