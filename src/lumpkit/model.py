"""ODE models with polynomial or rational drifts.

A model is a system x' = f(x) together with one initial condition, a linear
observable matrix M, and a time horizon. Drift components are stored as
expression trees, and every reader of a tree loops over its postfix list
(:func:`_postfix`), so a tree of any depth is read without recursion. Each
system keeps the postfix program of each drift component, and :func:`_run`
evaluates it on plain floats or on dual numbers, so Jacobians come out of
forward-mode differentiation exactly (up to float roundoff) instead of finite
differencing. An ``(N, m)`` block of points runs each program once, on value
columns or on duals whose values are ``(N,)`` arrays, with the bits of a
one-point evaluation. Only f at one float point, the integrator's step loop,
runs compiled code: the first such call compiles the programs to one function
returning all m components as nested expressions (a temporary every 50
levels of parentheses) that apply the operators in the order of :func:`_run`,
so with its bits. The programs hold Python floats, written as literals.

Models can be built programmatically or parsed from a small line-oriented
text format, see :func:`parse_model`. ``init`` and ``horizon`` take constant
expressions. ``^`` binds tighter than unary minus and associates to the left:
-x^2 is -(x^2) and x^2^3 is (x^2)^3. Operators over constants fold as they
are parsed (a system built in code may hold none), so a constant zero divisor
or overflow (``1/0``, ``1e200*1e200``) is a syntax error, while ``b/0``
parses and fails at evaluation. A syntax error names the line, and the column
when a token is at fault. Sums of any length parse; parentheses or unary
minuses nested too deeply for Python's recursion limit are a syntax error.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import re
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError, ModelSyntaxError, ModelValidationError, RankDeficiencyError

__all__ = [
    "Expression",
    "Constant",
    "Variable",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "IntPow",
    "DualVector",
    "OdeSystem",
    "parse_model",
    "evaluate_drift",
    "evaluate_drift_dual",
    "expression_to_text",
]


# ---------------------------------------------------------------------------
# dual numbers and value columns


def _has_zero(value) -> bool:
    return not value.all() if isinstance(value, np.ndarray) else value == 0.0


@dataclass(eq=False, slots=True)
class DualVector:
    """A value together with its partial derivatives w.r.t. the m state
    variables. Arithmetic implements the chain rule, so running an
    expression tree on DualVector inputs yields one Jacobian row per drift
    component in a single pass. It is a mutable slotted operand, not a
    record: arithmetic builds new ones and never changes one in place.

    ``value`` is a float with ``(m,)`` partials, or, for a block of N points,
    an ``(N,)`` array with ``(m, N)`` partials. numpy applies the same IEEE
    operations per element as Python floats do, and integer powers run
    Python's float ``**`` per element, so each point of a block gets the bits
    of its one-point evaluation. A zero divisor anywhere in the block raises
    ``ZeroDivisionError``; an overflowing power, or power derivative at a
    finite value, raises ``OverflowError``."""

    value: float | np.ndarray
    partials: np.ndarray

    def __add__(self, other):
        if isinstance(other, DualVector):
            return DualVector(self.value + other.value, self.partials + other.partials)
        return DualVector(self.value + other, self.partials)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DualVector):
            return DualVector(self.value - other.value, self.partials - other.partials)
        return DualVector(self.value - other, self.partials)

    def __rsub__(self, other):
        return DualVector(other - self.value, -self.partials)

    def __mul__(self, other):
        if isinstance(other, DualVector):
            return DualVector(
                self.value * other.value,
                self.value * other.partials + other.value * self.partials,
            )
        return DualVector(self.value * other, self.partials * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DualVector):
            if _has_zero(other.value):
                raise ZeroDivisionError("division by zero")
            inv = 1.0 / other.value
            val = self.value * inv
            return DualVector(val, (self.partials - val * other.partials) * inv)
        if other == 0.0:
            raise ZeroDivisionError("division by zero")
        return DualVector(self.value / other, self.partials / other)

    def __rtruediv__(self, other):
        if _has_zero(self.value):
            raise ZeroDivisionError("division by zero")
        val = other / self.value
        return DualVector(val, -val / self.value * self.partials)

    def __neg__(self):
        return DualVector(-self.value, -self.partials)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("dual exponent must be a non-negative integer")
        if exponent == 0:
            return DualVector(1.0, np.zeros_like(self.partials))
        if exponent == 1:
            return self
        if isinstance(self.value, np.ndarray):
            # np.power may differ from Python's ** in the last bit
            values = self.value.tolist()
            power = np.array([v**exponent for v in values])
            slope = np.array([exponent * v ** (exponent - 1) for v in values])
            overflow = bool((np.isinf(slope) & np.isfinite(self.value)).any())
        else:
            power = self.value**exponent
            slope = exponent * self.value ** (exponent - 1)
            overflow = math.isinf(slope) and math.isfinite(self.value)
        if overflow:
            # as ** raises for the value, instead of inf and nan partials
            raise OverflowError("derivative of an integer power overflows")
        return DualVector(power, slope * self.partials)


class _Column(np.ndarray):
    """The values of one variable at the N points of a block. ``/`` checks
    for a zero divisor and ``**`` runs Python's float power per element, so
    each point gets the bits and the errors of a one-point evaluation."""

    def __truediv__(self, other):
        if _has_zero(other):
            raise ZeroDivisionError("division by zero")
        return np.true_divide(self, other)

    def __rtruediv__(self, other):
        if _has_zero(self):
            raise ZeroDivisionError("division by zero")
        return np.true_divide(other, self)

    def __pow__(self, exponent):
        # np.power may differ from Python's ** in the last bit
        powers = map(pow, self.tolist(), [exponent] * len(self))
        return np.fromiter(powers, float, len(self)).view(_Column)


# ---------------------------------------------------------------------------
# expression trees


class Expression:
    """Base class for drift expression nodes. Nodes are immutable; the only
    normalization applied at construction time is constant folding. Every
    reader of a tree, ``==``, ``hash``, ``repr`` and pickling included, loops
    over :func:`_postfix`, so a tree of any depth is read without recursion."""

    __slots__ = ()

    def evaluate(self, values):
        """Evaluate with ``values[i]`` bound to variable i. Works on floats
        and on :class:`DualVector` alike. This tree walk is the reference that
        the compiled drift of :func:`evaluate_drift` reproduces, but with the
        caller's constants: on numpy scalars it follows numpy's rules
        (``b / np.float64(0.0)`` is inf) where every evaluator raises."""
        return _run(_postfix(self), values)

    def __eq__(self, other):
        return _postfix(self) == _postfix(other) if isinstance(other, Expression) else NotImplemented

    def __hash__(self):
        return hash(tuple(_postfix(self)))

    def __reduce__(self):
        return _from_postfix, (_postfix(self),)

    def __repr__(self):
        done: list[str] = []  # the dataclass repr of each finished operand
        for kind, arg in _postfix(self):
            cut = len(done) - len(kind.__slots__) + (arg is not None)  # its operands
            fields = done[cut:] + ([] if arg is None else [repr(arg)])
            del done[cut:]
            pairs = ", ".join(f"{name}={text}" for name, text in zip(kind.__slots__, fields))
            done.append(f"{kind.__qualname__}({pairs})")
        return done.pop()


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Constant(Expression):
    value: float


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Variable(Expression):
    index: int


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Add(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Sub(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Mul(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Div(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Neg(Expression):
    operand: Expression


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class IntPow(Expression):
    """Power with a literal non-negative integer exponent."""

    base: Expression
    exponent: int


_BINARY_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_APPLY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _postfix(expr: Expression) -> list[tuple[type, object]]:
    """``(type, value/index/exponent or None)`` per node of ``expr`` in
    post-order, operands left to right, for a reader to loop over with a stack
    of operand results. Listed node, right, left and reversed, no recursion."""
    nodes: list = []
    todo = [expr]
    while todo:
        node = todo.pop()
        kind, arg = type(node), None
        if kind in _BINARY_OPS:
            todo += (node.left, node.right)
        elif kind is Neg:
            todo.append(node.operand)
        elif kind is IntPow:
            todo.append(node.base)
            arg = node.exponent
        elif kind is Constant or kind is Variable:
            arg = node.value if kind is Constant else node.index
        else:
            raise TypeError(f"not an expression node: {node!r}")
        nodes.append((kind, arg))
    nodes.reverse()
    return nodes


def _run(program, values):
    """Run a :func:`_postfix` program with ``values[i]`` bound to variable i."""
    done: list = []  # the value of each finished operand
    for kind, arg in program:
        if kind is Constant or kind is Variable:
            done.append(arg if kind is Constant else values[arg])
        elif kind is Neg or kind is IntPow:
            done.append(-done.pop() if kind is Neg else done.pop() ** arg)
        else:
            right = done.pop()
            done.append(_APPLY[kind](done.pop(), right))
    return done.pop()


def _from_postfix(nodes) -> Expression:
    """The tree whose :func:`_postfix` is ``nodes``; how a tree unpickles."""
    done: list[Expression] = []
    for kind, arg in nodes:
        if kind is Constant or kind is Variable:
            done.append(kind(arg))
        elif kind is Neg or kind is IntPow:
            done.append(Neg(done.pop()) if kind is Neg else IntPow(done.pop(), arg))
        else:
            right = done.pop()
            done.append(kind(done.pop(), right))
    return done.pop()


# how tightly each operator binds, loosest first; atoms bind at 5
_PRECEDENCE = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, IntPow: 4}


def expression_to_text(expr: Expression, var_names: Sequence[str]) -> str:
    """Render an expression with only the parentheses the grammar needs: an
    operand binding looser than its operator is wrapped, and so is the right
    operand of a binary operator that binds as loosely; a negative constant
    binds as unary minus. Parsing the result yields a structurally identical
    tree, however long its sums (used by ``to_text`` and round-trip tests)."""
    done: list[tuple[str, int]] = []  # text and precedence of each finished operand

    def operand(level: int) -> str:
        text, operand_level = done.pop()
        return text if operand_level >= level else f"({text})"

    for kind, arg in _postfix(expr):
        if kind is Constant or kind is Variable:
            text = repr(float(arg)) if kind is Constant else var_names[arg]
            done.append((text, 3 if text[0] == "-" else 5))
        elif kind is Neg or kind is IntPow:
            text = operand(_PRECEDENCE[kind])
            done.append((f"-{text}" if kind is Neg else f"{text} ^ {arg}", _PRECEDENCE[kind]))
        else:
            level = _PRECEDENCE[kind]
            right = operand(level + 1)  # wrapped at equal precedence too
            done.append((f"{operand(level)} {_BINARY_OPS[kind]} {right}", level))
    return done.pop()[0]


_SPILL_HEIGHT = 50  # nested parentheses per temporary; CPython's parser allows 200


def _nested_code(program, body: list[str]) -> str:
    """The postfix ``program`` as one parenthesized expression, variables
    read as ``v[i]`` and constants, Python floats, as their literals. A
    subtree nesting ``_SPILL_HEIGHT`` parentheses becomes a statement
    ``tK = ...`` of ``body``, after the pending operands that ran before it."""
    done: list[tuple[str, int]] = []  # code and nesting height of each finished operand
    for kind, arg in program:
        if kind is Constant or kind is Variable:
            done.append((f"({arg!r})" if kind is Constant else f"v[{arg}]", 0))
            continue
        operand, height = done.pop()
        if kind is Neg or kind is IntPow:
            code = f"(-{operand})" if kind is Neg else f"({operand} ** {arg})"
        else:
            left, left_height = done.pop()
            code, height = f"({left} {_BINARY_OPS[kind]} {operand})", max(left_height, height)
        done.append((code, height + 1))
        if height + 1 >= _SPILL_HEIGHT:
            for k, (pending, nested) in enumerate(done):
                if nested:
                    body.append(f"t{len(body)} = {pending}")
                    done[k] = (f"t{len(body) - 1}", 0)
    return done[0][0]


def _compile_drift(name: str, programs) -> Callable:
    """One function ``f(v)``, defined by a single ``exec``, that returns the
    list of all drift components, each the nested code of :func:`_nested_code`
    of its postfix program, with a temporary every ``_SPILL_HEIGHT`` levels,
    built without recursion, so any drift compiles. Operators run in the
    order of :func:`_run` over the programs, component by component, so the
    results and the errors raised agree bit for bit; the caller names the
    failing component by running the programs again. ``f`` reads no global."""
    lines = ["def f(v):"]
    for i, program in enumerate(programs):
        # each component numbers its temporaries from t0 again, so the next
        # one rebinds and frees them, as returning from a function would
        body: list[str] = []
        result = _nested_code(program, body)
        lines.extend(f"    {statement}" for statement in body)
        lines.append(f"    r{i} = {result}")
    lines.append(f"    return [{', '.join(f'r{i}' for i in range(len(programs)))}]")
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<drift of {name}>", "exec"), namespace)
    # popped, so that the function and its globals form no reference cycle
    # and are freed with the system instead of by the cycle collector
    return namespace.pop("f")


# ---------------------------------------------------------------------------
# systems


def read_only(values) -> np.ndarray:
    """A read-only float copy of ``values``: how value types hold arrays."""
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _as_float(value) -> float | None:
    """``value`` as a Python float if it is a real number, not a bool, that
    ``float`` keeps exactly (numpy scalars too), NaN and inf included; else
    None, as the model text carries no other. Past the float range is inf."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        out = float(value)
    except OverflowError:
        return math.inf
    return out if out == value or out != out else None


def equal_values(a, b) -> bool:
    """Field-by-field equality of two dataclass instances of one type that
    hold arrays: arrays compare by ``np.array_equal``, tuples item by item,
    anything else by ``==``. Value types use it as their ``__eq__``."""
    if type(a) is not type(b):
        return NotImplemented
    return all(_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def _equal(x, y) -> bool:
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    if isinstance(x, tuple) and isinstance(y, tuple):
        return len(x) == len(y) and all(map(_equal, x, y))
    return x == y


# relative tolerance of the numerical rank test (see scaled_residual)
RANK_RTOL = 1e-9


def project_out(v: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """One classical Gram-Schmidt pass: v minus its projection onto the
    orthonormal rows of Q. Two passes are enough for full accuracy."""
    return v - (v @ Q.T) @ Q


def scaled_residual(v: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, float, int, bool]:
    """The rank test: ``(r, ||r||, e, independent)``, r the residual of
    w = v * 2**-e (max|v| = f * 2**e, 0.5 <= f < 1) after two
    :func:`project_out` passes against the orthonormal rows of Q, and v
    independent of them iff ||r|| > RANK_RTOL * ||w||. A power-of-two scale is
    exact, and it keeps the squares of huge or tiny entries finite and nonzero."""
    e = int(np.frexp(np.max(np.abs(v), initial=0.0))[1])
    v = np.ldexp(v, -e)
    r = project_out(project_out(v, Q), Q)
    rnorm = math.sqrt(r.dot(r))
    return r, rnorm, e, rnorm > RANK_RTOL * math.sqrt(v.dot(v))


def orthonormalize_rows(matrix) -> np.ndarray:
    """Orthonormalize rows in order; a row that fails :func:`scaled_residual`
    against those before it raises :class:`~lumpkit.errors.RankDeficiencyError`."""
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    Q = np.empty_like(M)
    for i, row in enumerate(M):
        r, rnorm, _, independent = scaled_residual(row, Q[:i])
        if not independent:
            raise RankDeficiencyError(f"row {i} is linearly dependent on earlier rows")
        Q[i] = r / rnorm
    return Q


@dataclass(frozen=True, eq=False)
class OdeSystem:
    """An autonomous system x' = f(x) with linear observables x_obs = M x.

    Invariants checked at construction: identifier names, distinct variable
    names other than directives, one drift expression and one initial value
    per variable, finite drift constants and initial values, int exponents of
    at least 0, no drift operator over constants only (the parser folds them),
    a positive finite horizon, and a finite observable matrix with
    1 <= p < m whose rows pass :func:`orthonormalize_rows`, the rank test of
    every lumping. So rows the sweep would reject, such as a and a + 1e-10 b,
    fail here, while tiny independent rows, such as 1e-17 b beside a, are kept.
    Constants and the horizon are real numbers, not bools, that ``float``
    keeps exactly (numpy scalars too); the programs and ``time_horizon`` hold
    them as Python floats, and the ``drift`` trees keep the caller's.

    Construction sets ``dim``, the state dimension, and keeps each drift
    tree's postfix program, and the first one-point :func:`evaluate_drift`
    compiles the programs; none of these is a field. Pickling and copying go
    through the constructor, and each copy compiles its own.
    """

    name: str
    var_names: tuple[str, ...]
    drift: tuple[Expression, ...]
    initial_condition: np.ndarray
    time_horizon: float
    observables: np.ndarray

    __eq__ = equal_values

    def __post_init__(self):
        object.__setattr__(self, "var_names", tuple(self.var_names))
        object.__setattr__(self, "drift", tuple(self.drift))
        for name in (self.name, *self.var_names):
            if not (isinstance(name, str) and _IDENTIFIER.fullmatch(name)):
                raise ModelValidationError(f"name {name!r} is not an identifier")
        m = len(self.var_names)
        if len(set(self.var_names)) != m or not _DIRECTIVES.isdisjoint(self.var_names):
            raise ModelValidationError("variable names must be distinct and not directives")
        if len(self.drift) != m:
            raise ModelValidationError("one drift expression per variable required")
        object.__setattr__(self, "dim", m)
        object.__setattr__(self, "_programs", tuple(map(_postfix, self.drift)))
        for var, program in zip(self.var_names, self._programs):
            for j, (kind, arg) in enumerate(program):
                if kind is Constant:
                    value = arg if type(arg) is float else _as_float(arg)  # parsed ones are floats
                    if value is None:
                        raise ModelValidationError(f"drift of {var} holds an invalid constant {arg!r}")
                    if not math.isfinite(value):
                        raise ModelValidationError(f"drift of {var} holds a constant that is not finite")
                    program[j] = (kind, value)
                elif kind is IntPow and not (type(arg) is int and arg >= 0):
                    raise ModelValidationError(f"drift of {var} holds an invalid exponent {arg!r}")
                elif kind is not Variable and program[j - 1][0] is Constant and (
                    kind not in _BINARY_OPS or program[j - 2][0] is Constant
                ):  # an operand ends at j - 1, and a left one at j - 2 if the right is a leaf
                    raise ModelValidationError(f"drift of {var} holds an operator over constants only")
        object.__setattr__(self, "initial_condition", read_only(self.initial_condition))
        if self.initial_condition.shape != (m,):
            raise ModelValidationError("initial condition has wrong dimension")
        if not np.isfinite(self.initial_condition).all():
            raise ModelValidationError("initial condition holds a value that is not finite")
        horizon = _as_float(self.time_horizon)
        if horizon is None or not (0 < horizon < math.inf):
            raise ModelValidationError("time horizon must be positive and finite")
        object.__setattr__(self, "time_horizon", horizon)
        M = np.atleast_2d(read_only(self.observables))
        p = M.shape[0]
        if M.shape[1] != m:
            raise ModelValidationError("observable matrix has wrong column count")
        if not (1 <= p < m):
            raise ModelValidationError(
                f"observable count must satisfy 1 <= p < m (got p={p}, m={m})"
            )
        if not np.isfinite(M).all():
            raise ModelValidationError("observable matrix holds an entry that is not finite")
        try:
            orthonormalize_rows(M)
        except RankDeficiencyError:
            raise ModelValidationError("observable matrix is rank-deficient") from None
        object.__setattr__(self, "observables", M)

    @functools.cached_property
    def _drift_function(self) -> Callable:
        return _compile_drift(self.name, self._programs)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def to_text(self) -> str:
        """Serialize back to the model text format."""
        lines = [f"model {self.name}", "var " + ", ".join(self.var_names)]
        for name, expr in zip(self.var_names, self.drift):
            lines.append(f"eq {name} = {expression_to_text(expr, self.var_names)}")
        for name, value in zip(self.var_names, self.initial_condition):
            lines.append(f"init {name} = {float(value)!r}")
        for row in self.observables:
            terms = []
            for name, c in zip(self.var_names, row):
                if c == 0.0:
                    continue
                terms.append(name if c == 1.0 else f"{float(c)!r}*{name}")
            lines.append("obs " + " + ".join(terms))
        lines.append(f"horizon {self.time_horizon!r}")
        return "\n".join(lines) + "\n"


def _evaluate_components(system: OdeSystem, x: np.ndarray, lift) -> list:
    """Run each drift component's program on ``lift(x)``. A zero denominator
    or an overflowing power raises :class:`~lumpkit.errors.EvaluationError`
    naming the component and x; for an ``(N, m)`` block x, the points are
    then evaluated one at a time, so the error names the first singular
    point as a one-point call would."""
    values = lift(x)
    results = []
    for i, program in enumerate(system._programs):
        try:
            results.append(_run(program, values))
        except (ZeroDivisionError, OverflowError) as exc:
            if x.ndim == 2:
                for point in x:
                    _evaluate_components(system, point, lift)
            cause = "zero denominator" if isinstance(exc, ZeroDivisionError) else "overflow"
            raise EvaluationError(
                f"{cause} evaluating d{system.var_names[i]}/dt at x={x.tolist()}",
                component=i,
                point=x.copy(),
            ) from exc
    return results


def _columns(x: np.ndarray) -> list:
    # a point (a failing block's row, retried) lifts to floats; a block's variables are its columns
    return x.tolist() if x.ndim == 1 else list(x.T.copy().view(_Column))


def _duals(x: np.ndarray) -> list:
    # variable j carries the j-th unit vector as its partials; the variables
    # of an (N, m) block are its columns, with (m, N) partials
    seeds = np.eye(x.shape[-1])
    if x.ndim == 1:
        return [DualVector(float(v), seed) for v, seed in zip(x, seeds)]
    seeds = np.broadcast_to(seeds[:, :, None], seeds.shape + x.shape[:1])
    return [DualVector(column, seed) for column, seed in zip(x.T.copy(), seeds)]


def _points(system: OdeSystem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != system.dim:
        raise ValueError(
            f"expected a vector of length {system.dim} or an (N, {system.dim}) block, "
            f"got shape {x.shape}"
        )
    return x


def evaluate_drift(system: OdeSystem, x) -> np.ndarray:
    """Evaluate f(x) with the bits of ``[e.evaluate(x.tolist()) for e in
    system.drift]``. Pure and deterministic: identical inputs give
    bit-identical outputs. A zero denominator or an overflowing power raises
    :class:`~lumpkit.errors.EvaluationError` naming the component.

    One point runs the system's compiled drift, compiled on the first such
    call. ``x`` may also be an ``(N, m)`` block, one point per row, for an
    ``(N, m)`` f; each program runs once, on the block's columns, with the
    bits and the errors of one call per point."""
    x = np.asarray(x, dtype=float)
    if x.shape == (system.dim,):  # one point, as the step loop of integrate calls it
        try:
            return np.array(system._drift_function(x.tolist()), dtype=float)
        except (ZeroDivisionError, OverflowError):  # again, for the error that names the component
            return np.array(_evaluate_components(system, x, np.ndarray.tolist), dtype=float)
    x = _points(system, x)
    with np.errstate(all="ignore"):  # inf and nan arise silently, as for floats
        columns = _evaluate_components(system, x, _columns)
    # a constant component broadcasts
    return np.column_stack([np.broadcast_to(column, len(x)) for column in columns])


def evaluate_drift_dual(system: OdeSystem, x) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate f(x) and the exact Jacobian J(x) by forward-mode dual
    numbers. Returns ``(f, J)`` with ``J[i, j] = df_i/dx_j``.

    Each program runs once on dual inputs; nothing is compiled. ``x`` may
    also be an ``(N, m)`` block of points, one per row; then f is
    ``(N, m)`` and J is ``(N, m, m)``, and each program runs once for the
    whole block. Each row of the result has the bits of a one-point call.
    A singular point anywhere in the block raises the
    :class:`~lumpkit.errors.EvaluationError` of the first such point."""
    m = system.dim
    x = _points(system, x)
    f = np.empty(x.shape)
    jac = np.zeros(x.shape + (m,))
    with np.errstate(all="ignore"):  # inf and nan arise silently, as for floats
        for i, result in enumerate(_evaluate_components(system, x, _duals)):
            if isinstance(result, DualVector):
                f[..., i] = result.value
                jac[..., i, :] = result.partials.T
            else:
                # constant drift component: zero partials
                f[..., i] = result
    return f, jac


# ---------------------------------------------------------------------------
# text format

_DIRECTIVES = {"model", "var", "eq", "init", "obs", "horizon"}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")  # a model or variable name
_TOKEN_RE = re.compile(
    r"(?P<space>\s+)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{_IDENTIFIER.pattern})"
    r"|(?P<op>[+\-*/^(),=])"
    r"|(?P<bad>\S)"
)

# the binary operators of each precedence level, loosest first
_LEVELS = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})


class _Line:
    """One line's ``(kind, text, column)`` tokens, read by recursive descent.
    Precedence from loosest to tightest: additive, multiplicative, unary
    minus, power. The power operator binds tighter than unary minus, so -x^2
    means -(x^2); binary operators and ^ associate to the left, and exponents
    must be non-negative integer literals. Every operator whose operands are
    all constants folds to a :class:`Constant` as it is read."""

    def __init__(self, text: str, line_no: int):
        self.line_no = line_no
        self.tokens: list[tuple[str, str, int]] = []
        self.pos = 0
        for match in _TOKEN_RE.finditer(text.split("#", 1)[0]):
            kind, column = match.lastgroup, match.start() + 1
            if kind == "bad":
                self.fail(f"unexpected character {match.group()!r}", column)
            if kind != "space":
                self.tokens.append((kind, match.group(), column))

    def fail(self, message: str, column: int | None = None):
        raise ModelSyntaxError(message, self.line_no, column)

    def at_end(self) -> bool:
        return self.pos == len(self.tokens)

    def op(self) -> str | None:
        """The next token's text if it is an operator, else None."""
        if self.at_end() or self.tokens[self.pos][0] != "op":
            return None
        return self.tokens[self.pos][1]

    def next(self) -> tuple[str, str, int]:
        if self.at_end():
            self.fail("unexpected end of line")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, op: str):
        kind, text, column = self.next()
        if (kind, text) != ("op", op):
            self.fail(f"expected {op!r}", column)

    def end(self):
        if not self.at_end():
            _, text, column = self.tokens[self.pos]
            self.fail(f"unexpected trailing {text!r}", column)

    def expression(self, var_index: dict[str, int], level: int = 0) -> Expression:
        if level == len(_LEVELS):
            return self.unary(var_index)
        ops = _LEVELS[level]
        node = self.expression(var_index, level + 1)
        while self.op() in ops:
            _, text, column = self.next()
            node = self.fold(ops[text](node, self.expression(var_index, level + 1)), column)
        return node

    def constant(self) -> float:
        # with no variables every identifier raises, and every operator over
        # constants folds, so the expression is a Constant
        return self.expression({}).value

    def unary(self, var_index: dict[str, int]) -> Expression:
        if self.op() == "-":
            column = self.next()[2]
            return self.fold(Neg(self.unary(var_index)), column)
        node = self.atom(var_index)
        while self.op() == "^":
            column = self.next()[2]
            kind, text, exponent_column = self.next()
            exponent = float(text) if kind == "num" else math.nan
            if not (math.isfinite(exponent) and exponent.is_integer()):
                self.fail("exponent must be a non-negative integer literal", exponent_column)
            node = self.fold(IntPow(node, int(exponent)), column)
        return node

    def atom(self, var_index: dict[str, int]) -> Expression:
        kind, text, column = self.next()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                self.fail(f"numeric literal {text} overflows to infinity", column)
            return Constant(value)
        if kind == "ident":
            if text not in var_index:
                self.fail(f"undeclared variable {text!r}", column)
            return Variable(var_index[text])
        if text != "(":
            self.fail(f"unexpected {text!r}", column)
        node = self.expression(var_index)
        self.expect(")")
        return node

    def fold(self, node: Expression, column: int) -> Expression:
        """``node`` evaluated to a :class:`Constant` when all of its expression
        operands are constants, else ``node`` itself. A zero divisor or a
        result out of the float range (``10^400``, ``1e200*1e200``) is a
        :class:`ModelSyntaxError` at the operator's ``column``."""
        # slot 0 is an expression operand; binary operators have a second
        if type(getattr(node, node.__slots__[0])) is not Constant or (
            type(node) in _APPLY and type(node.right) is not Constant
        ):
            return node
        message = "overflow in constant expression"
        try:
            value = node.evaluate(())
            if math.isfinite(value):
                return Constant(value)
        except ZeroDivisionError:
            message = "division by zero in constant expression"
        except OverflowError:
            pass
        self.fail(message, column)


def _linear_form(expr: Expression, m: int) -> np.ndarray | None:
    """The m coefficients of a linear expression followed by its constant
    term, or None on products of variables, variable denominators, or powers
    above one of a non-constant (``e^0`` is 1 whatever ``e`` is). Raises
    OverflowError as soon as a form leaves the float range."""
    done: list = []  # the form of each finished operand, None if nonlinear
    for kind, arg in _postfix(expr):
        if kind is Constant:
            form = np.append(np.zeros(m), arg)
        elif kind is Variable:
            form = np.zeros(m + 1)
            form[arg] = 1.0
        elif kind is Neg or kind is IntPow:
            form = done.pop()
            if kind is IntPow and arg == 0:
                form = np.append(np.zeros(m), 1.0)
            elif form is not None and kind is Neg:
                form = -form
            elif form is not None and arg > 1:
                form = None if form[:m].any() else np.append(np.zeros(m), float(form[m]) ** arg)
        else:
            right, left = done.pop(), done.pop()
            if left is None or right is None:
                form = None
            elif kind is Add or kind is Sub:
                form = left + right if kind is Add else left - right
            elif kind is Mul:
                if not left[:m].any():
                    form = left[m] * right
                else:
                    form = None if right[:m].any() else right[m] * left
            else:
                form = None if right[:m].any() or right[m] == 0.0 else left / right[m]
        if form is not None and not np.isfinite(form).all():
            raise OverflowError  # a product or quotient of constants left the float range
        done.append(form)
    return done.pop()


def parse_model(text: str) -> OdeSystem:
    """Parse the line-oriented model format.

    Directives, one per line, ``#`` starts a comment::

        model <identifier>
        var <name> [, <name> ...]
        eq <name> = <expression>
        init <name> = <constant expression>
        obs [=] <linear combination of variables>
        horizon <constant expression>

    Every variable needs exactly one ``eq`` and one ``init`` line. Expressions
    use + - * / ^ ( ) with numeric literals and declared variable names.
    """
    name: str | None = None
    var_names: list[str] = []
    var_index: dict[str, int] = {}
    equations: dict[str, Expression] = {}
    inits: dict[str, float] = {}
    obs_rows: list[tuple[Expression, int]] = []
    horizon: float | None = None

    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = _Line(raw, line_no)
            if line.at_end():
                continue
            kind, directive, column = line.next()
            if kind != "ident" or directive not in _DIRECTIVES:
                line.fail(f"expected a directive ({', '.join(sorted(_DIRECTIVES))})", column)

            if directive == "model":
                if name is not None:
                    line.fail("duplicate model declaration")
                kind, name, column = line.next()
                if kind != "ident":
                    line.fail("expected a model name", column)
            elif directive == "var":
                while True:
                    kind, var, column = line.next()
                    if kind != "ident":
                        line.fail("expected a variable name", column)
                    if var in _DIRECTIVES:
                        line.fail(f"{var!r} is reserved", column)
                    if var in var_index:
                        line.fail(f"duplicate variable {var!r}", column)
                    var_index[var] = len(var_names)
                    var_names.append(var)
                    if line.at_end():
                        break
                    line.expect(",")
            elif directive in ("eq", "init"):
                what, table = ("equation", equations) if directive == "eq" else ("initial value", inits)
                kind, var, column = line.next()
                if kind != "ident" or var not in var_index:
                    line.fail(f"{what} for undeclared variable {var!r}", column)
                if var in table:
                    line.fail(f"duplicate {what} for {var!r}", column)
                line.expect("=")
                table[var] = line.expression(var_index) if directive == "eq" else line.constant()
            elif directive == "obs":
                if line.op() == "=":
                    line.next()
                obs_rows.append((line.expression(var_index), line_no))
            else:  # horizon
                if horizon is not None:
                    line.fail("duplicate horizon")
                horizon = line.constant()
            line.end()
    except RecursionError:  # parentheses or unary minuses nest too deeply
        raise ModelSyntaxError("expression nests too deeply", line_no) from None

    if name is None:
        raise ModelSyntaxError("missing model declaration")
    if not var_names:
        raise ModelSyntaxError("missing var declaration")
    for what, table in (("equation", equations), ("initial value", inits)):
        missing = [v for v in var_names if v not in table]
        if missing:
            raise ModelSyntaxError(f"missing {what} for {missing[0]!r}")
    if horizon is None:
        raise ModelSyntaxError("missing horizon")
    if not obs_rows:
        raise ModelSyntaxError("at least one obs line required")

    m = len(var_names)
    M = np.zeros((len(obs_rows), m))
    for k, (expr, line_no) in enumerate(obs_rows):
        try:
            with np.errstate(all="ignore"):  # every form is checked to be finite
                form = _linear_form(expr, m)
        except OverflowError:  # a constant that overflows, like (a - a + 10)^400
            raise ModelSyntaxError("overflow in observable", line_no) from None
        if form is None:
            raise ModelSyntaxError("observable must be linear in the state variables", line_no)
        if form[m] != 0.0:
            raise ModelSyntaxError("observable must have no constant term", line_no)
        if not form[:m].any():
            raise ModelSyntaxError("observable must involve at least one variable", line_no)
        M[k] = form[:m]

    return OdeSystem(
        name=name,
        var_names=tuple(var_names),
        drift=tuple(equations[v] for v in var_names),
        initial_condition=np.array([inits[v] for v in var_names]),
        time_horizon=horizon,
        observables=M,
    )
