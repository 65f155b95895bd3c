"""Command line front end.

Four subcommands: ``lump`` (reduce at a fixed tolerance), ``find-epsilon``
(bisect for a tolerance hitting a target size ratio), ``simulate`` (integrate
and, given a reduction, report errors), and ``sweep`` (tolerance staircase).
Every command writes its artifacts plus a manifest.json into ``--out``.

Exit codes: 0 success, 1 parse or usage error, 2 numeric failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DimensionMismatchError,
    LumpkitError,
    ModelSyntaxError,
    ModelValidationError,
)
from .jacobian import default_domain, sample_jacobian_basis
from .lumping import (
    EpsilonSearchConfig,
    LumpingMatrix,
    approximate_lump,
    epsilon_max,
    find_epsilon,
    staircase,
)
from .model import evaluate_drift, parse_model
from .simulate import SolverConfig, integrate, reduction_report, write_series_csv, write_table

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; usage problems must exit 1
    def error(self, message):
        raise _UsageError(message)


@functools.cache  # built on the first main() call, then kept for the process
def _build_parser() -> _Parser:
    parser = _Parser(prog="lumpkit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"lumpkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by every command, and by the three that sample a basis
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True, help="model file path")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument(
        "--seed", type=int, default=None, help="PRNG seed; falls back to LUMPKIT_SEED, then 0"
    )
    sampling = argparse.ArgumentParser(add_help=False, parents=[common])
    sampling.add_argument(
        "--confirmations",
        type=int,
        default=3,
        help="consecutive dependent samples ending basis sampling",
    )

    p_lump = sub.add_parser("lump", help="reduce at a fixed tolerance", parents=[sampling])
    p_lump.add_argument("--epsilon", type=float, required=True)
    p_lump.add_argument("--points", default=None, help="JSON file with explicit sample points")

    p_find = sub.add_parser("find-epsilon", help="bisect for a target size", parents=[sampling])
    p_find.add_argument("--ratio", type=float, required=True, help="target size / m")
    p_find.add_argument(
        "--d-min", type=float, default=1e-6, help="absolute bracket width that ends the search"
    )

    p_sim = sub.add_parser(
        "simulate", help="integrate, optionally against a reduction", parents=[common]
    )
    p_sim.add_argument("--rel-tol", type=float, default=1e-6)
    p_sim.add_argument("--abs-tol", type=float, default=1e-9)
    p_sim.add_argument("--horizon", type=float, default=None)
    p_sim.add_argument("--lumping", default=None, help="L.json from a lump run")
    p_sim.add_argument("--grid", type=int, default=200, help="output grid points")

    p_sweep = sub.add_parser(
        "sweep", help="tolerance staircase over [0, epsilon_max]", parents=[sampling]
    )
    p_sweep.add_argument("--grid", type=int, default=50, help="grid points")

    return parser


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("LUMPKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"LUMPKIT_SEED must be an integer, got {env!r}") from None
    return 0


def _write_json(path: Path, payload: dict):
    """Write ``payload`` as strict JSON (RFC 8259), each non-finite float as null."""
    dump = functools.partial(json.dumps, indent=2, sort_keys=True, allow_nan=False)
    try:
        text = dump(payload)
    except ValueError:  # only a payload holding inf or nan pays for the round trip
        text = dump(json.loads(json.dumps(payload), parse_constant=lambda _: None))
    path.write_text(text + "\n")


def _write_manifest(out: Path, args, timings: dict, **resolved):
    """Write manifest.json: the command's flags as settings, with the values
    the command resolved (the seed, a default horizon) in place of theirs."""
    settings = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    _write_json(
        out / "manifest.json",
        {
            "tool": "lumpkit",
            "version": __version__,
            "command": args.command,
            "settings": {**settings, **resolved},
            "timings": {k: round(v, 6) for k, v in timings.items()},
        },
    )


class _Phases:
    def __init__(self):
        self.timings: dict[str, float] = {}
        self._t0 = time.perf_counter()

    def mark(self, name: str):
        now = time.perf_counter()
        self.timings[name] = now - self._t0
        self._t0 = now


def _load_json(path: str, kind: type, what: str):
    """The JSON value in ``path``; anything but a ``kind`` is a ValueError."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, kind):
        raise ValueError(f"{path}: expected {what}, got {type(data).__name__}")
    return data


def _load_points(path: str | None):
    if path is None:
        return ()
    data = _load_json(path, list, "a list of points")
    try:
        return [np.asarray(x, dtype=float) for x in data]
    except TypeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _start(args, sample: bool = True, points: str | None = None):
    """The preamble every command shares: resolve the seed, create ``--out``,
    start the phase clock and parse the model; with ``sample``, also sample
    the Jacobian basis (seeded by ``points`` first, if given).

    Returns ``(seed, out, phases, system, basis)``; ``basis`` is None
    without ``sample``."""
    seed = _resolve_seed(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    phases = _Phases()

    system = parse_model(Path(args.model).read_text(encoding="utf-8"))
    phases.mark("parse")
    if not sample:
        return seed, out, phases, system, None

    domain = default_domain(system, seed=seed, confirmations=args.confirmations)
    basis = sample_jacobian_basis(system, domain, _load_points(points))
    phases.mark("basis")
    return seed, out, phases, system, basis


def _cmd_lump(args) -> int:
    if not 0 <= args.epsilon < math.inf:
        raise _UsageError("--epsilon must be non-negative and finite")
    seed, out, phases, system, basis = _start(args, points=args.points)

    lump = approximate_lump(basis, system.observables, args.epsilon)
    eps_mx = epsilon_max(basis, system.observables)
    phases.mark("lump")

    _write_json(out / "basis.json", {"seed": seed, **basis.to_json_dict()})
    _write_json(out / "L.json", lump.to_json_dict())
    _write_manifest(out, args, phases.timings, seed=seed)
    ratio = args.epsilon / eps_mx if eps_mx > 0 else 0.0
    print(f"reduced size: {lump.dim} of {system.dim}")
    print(f"epsilon / epsilon_max: {ratio:.6g}")
    return 0


def _cmd_find_epsilon(args) -> int:
    if not (0 < args.ratio <= 1):
        raise _UsageError("--ratio must lie in (0, 1]")
    if not 0 < args.d_min < math.inf:
        raise _UsageError("--d-min must be positive and finite")
    seed, out, phases, system, basis = _start(args)

    # fractional cutoffs bound the size from above, so round down
    cutoff = int(math.floor(args.ratio * system.dim + 1e-9))
    config = EpsilonSearchConfig(cutoff_size=cutoff, d_min=args.d_min)
    result = find_epsilon(basis, system.observables, config)
    if math.isinf(result.epsilon):
        raise LumpkitError("the tolerance found is inf: a defect lies past the float range")
    phases.mark("search")

    if result.boundary == "cutoff_below_observable_rank":
        warning = "warning: cutoff size is below the observable rank; returning epsilon_max"
        print(warning, file=sys.stderr)
    _write_json(
        out / "search.json",
        {
            "ratio": args.ratio,
            "cutoff_size": cutoff,
            "d_min": args.d_min,
            "epsilon": result.epsilon,
            "iterations": result.iterations,
            "boundary": result.boundary,
            "reduced_size": result.lump.dim,
            "history": [asdict(step) for step in result.history],
        },
    )
    _write_json(out / "L.json", result.lump.to_json_dict())
    _write_manifest(out, args, phases.timings, seed=seed)
    print(f"epsilon: {result.epsilon:.17g}")
    print(f"reduced size: {result.lump.dim} of {system.dim}")
    print(f"iterations: {result.iterations}")
    return 0


def _load_lumping(path: str, state_dim: int) -> LumpingMatrix:
    data = _load_json(path, dict, "an object with a 'matrix' entry")
    if "matrix" not in data:
        raise ValueError(f"{path}: no 'matrix' entry")
    try:
        matrix = np.asarray(data["matrix"], dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != state_dim:
            raise DimensionMismatchError(
                f"lumping matrix has {matrix.shape} shape, expected columns = {state_dim}"
            )
        epsilon = float(data.get("epsilon", 0.0))
        observable_rank = int(data.get("observable_rank", matrix.shape[0]))
    except TypeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return LumpingMatrix(matrix=matrix, epsilon=epsilon, observable_rank=observable_rank)


def _cmd_simulate(args) -> int:
    if args.grid < 200:
        raise _UsageError("--grid must be at least 200")
    if not (0 < args.rel_tol < math.inf and 0 < args.abs_tol < math.inf):
        raise _UsageError("--rel-tol and --abs-tol must be positive and finite")
    if args.horizon is not None and not (0 < args.horizon < math.inf):
        raise _UsageError("--horizon must be positive and finite")
    seed, out, phases, system, _ = _start(args, sample=False)
    config = SolverConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    horizon = system.time_horizon if args.horizon is None else args.horizon

    if args.lumping is None:
        x0 = system.initial_conditions[0]
        trajectory = integrate(lambda x: evaluate_drift(system, x), x0, horizon, config)
        ts = np.linspace(0.0, horizon, args.grid)
        X = trajectory.sample(ts)
    else:
        lump = _load_lumping(args.lumping, system.dim)
        report = reduction_report(
            system, lump, horizon=horizon, config=config, grid_points=args.grid, seed=seed
        )
        ts, X = report.times, report.original_states
    phases.mark("integrate")

    write_series_csv(
        out / "original.csv", ts, {name: X[:, j] for j, name in enumerate(system.var_names)}
    )
    if args.lumping is None:
        _write_manifest(out, args, phases.timings, seed=seed, horizon=horizon)
        print(f"integrated to t={horizon:g} ({trajectory.times.size - 1} steps)")
        return 0

    write_series_csv(
        out / "reduced.csv", ts, {f"y{j + 1}": report.reduced_states[:, j] for j in range(lump.dim)}
    )
    write_series_csv(out / "error.csv", ts, {"error": report.errors})
    write_series_csv(out / "deviation.csv", ts, {"deviation": report.deviations})
    _write_json(out / "report.json", report.to_json_dict())
    _write_manifest(out, args, phases.timings, seed=seed, horizon=horizon)
    rel = "n/a" if report.e_rel_at_T is None else f"{report.e_rel_at_T:.6g}"
    print(f"e(T)={report.e_at_T:.6g} e_max={report.e_max:.6g} e_rel(T)={rel}")
    print(f"eta={report.eta:.6g} bound={report.bound:.6g}")
    return 0


def _cmd_sweep(args) -> int:
    """Write the reduced size at ``--grid`` tolerances spread over [0, epsilon_max].
    The last one is not swept: a sweep at epsilon_max keeps only the observable
    rows (see :func:`~lumpkit.lumping.epsilon_max`)."""
    if args.grid < 2:
        raise _UsageError("--grid must be at least 2")
    seed, out, phases, system, basis = _start(args)

    eps_mx = epsilon_max(basis, system.observables)
    if math.isinf(eps_mx):
        raise LumpkitError("epsilon_max is inf: a defect lies past the float range")
    grid = np.linspace(0.0, eps_mx, args.grid)
    pairs = (*staircase(basis, system.observables, grid[:-1]), (eps_mx, len(system.observables)))
    phases.mark("sweep")

    # every tolerance of the grid is 0 when epsilon_max is
    table = np.array([(eps, eps / (eps_mx or 1.0), size) for eps, size in pairs])
    write_table(out / "staircase.csv", "epsilon,epsilon_over_epsilon_max,reduced_size", table)
    _write_manifest(out, args, phases.timings, seed=seed)
    print(f"epsilon_max: {eps_mx:.17g}")
    print(f"sizes: {pairs[0][1]} down to {pairs[-1][1]} over {args.grid} tolerances")
    return 0


_COMMANDS = {
    "lump": _cmd_lump,
    "find-epsilon": _cmd_find_epsilon,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    # json.JSONDecodeError is a ValueError, and every LumpkitError but the two
    # parse errors is a numeric failure
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError, ModelSyntaxError, ModelValidationError) as exc:
        error, code = exc, 1
    except LumpkitError as exc:
        error, code = exc, 2
    except OSError as exc:
        error, code = exc, 3
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
