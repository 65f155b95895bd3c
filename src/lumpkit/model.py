"""ODE models with polynomial or rational drifts.

A model is a system x' = f(x) together with one or more initial conditions,
a linear observable matrix M, and a time horizon. Drift components are stored
as expression trees; the same tree walk evaluates plain floats and dual
numbers, so Jacobians come out of forward-mode differentiation exactly
(up to float roundoff) instead of finite differencing.

Models can be built programmatically or parsed from a small line-oriented
text format, see :func:`parse_model`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import EvaluationError, ModelSyntaxError, ModelValidationError

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
# dual numbers


@dataclass(frozen=True, eq=False)
class DualVector:
    """A value together with its partial derivatives w.r.t. the m state
    variables. Arithmetic implements the chain rule, so running an
    expression tree on DualVector inputs yields one Jacobian row per drift
    component in a single pass."""

    value: float
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
            if other.value == 0.0:
                raise ZeroDivisionError("division by zero")
            inv = 1.0 / other.value
            val = self.value * inv
            return DualVector(val, (self.partials - val * other.partials) * inv)
        if other == 0.0:
            raise ZeroDivisionError("division by zero")
        return DualVector(self.value / other, self.partials / other)

    def __rtruediv__(self, other):
        if self.value == 0.0:
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
        return DualVector(
            self.value**exponent,
            exponent * self.value ** (exponent - 1) * self.partials,
        )


# ---------------------------------------------------------------------------
# expression trees


class Expression:
    """Base class for drift expression nodes. Nodes are immutable; the only
    normalization applied at construction time is constant folding."""

    __slots__ = ()

    def evaluate(self, values):
        """Evaluate with ``values[i]`` bound to variable i. Works on floats
        and on :class:`DualVector` alike."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Constant(Expression):
    value: float

    def evaluate(self, values):
        return self.value


@dataclass(frozen=True, slots=True)
class Variable(Expression):
    index: int

    def evaluate(self, values):
        return values[self.index]


@dataclass(frozen=True, slots=True)
class Add(Expression):
    left: Expression
    right: Expression

    def evaluate(self, values):
        return self.left.evaluate(values) + self.right.evaluate(values)


@dataclass(frozen=True, slots=True)
class Sub(Expression):
    left: Expression
    right: Expression

    def evaluate(self, values):
        return self.left.evaluate(values) - self.right.evaluate(values)


@dataclass(frozen=True, slots=True)
class Mul(Expression):
    left: Expression
    right: Expression

    def evaluate(self, values):
        return self.left.evaluate(values) * self.right.evaluate(values)


@dataclass(frozen=True, slots=True)
class Div(Expression):
    left: Expression
    right: Expression

    def evaluate(self, values):
        return self.left.evaluate(values) / self.right.evaluate(values)


@dataclass(frozen=True, slots=True)
class Neg(Expression):
    operand: Expression

    def evaluate(self, values):
        return -self.operand.evaluate(values)


@dataclass(frozen=True, slots=True)
class IntPow(Expression):
    """Power with a literal non-negative integer exponent."""

    base: Expression
    exponent: int

    def evaluate(self, values):
        return self.base.evaluate(values) ** self.exponent


def expression_to_text(expr: Expression, var_names: Sequence[str]) -> str:
    """Render an expression fully parenthesized. Parsing the result yields a
    structurally identical tree (used for debugging and round-trip tests)."""
    if isinstance(expr, Constant):
        return repr(expr.value)
    if isinstance(expr, Variable):
        return var_names[expr.index]
    if isinstance(expr, Add):
        return f"({expression_to_text(expr.left, var_names)} + {expression_to_text(expr.right, var_names)})"
    if isinstance(expr, Sub):
        return f"({expression_to_text(expr.left, var_names)} - {expression_to_text(expr.right, var_names)})"
    if isinstance(expr, Mul):
        return f"({expression_to_text(expr.left, var_names)} * {expression_to_text(expr.right, var_names)})"
    if isinstance(expr, Div):
        return f"({expression_to_text(expr.left, var_names)} / {expression_to_text(expr.right, var_names)})"
    if isinstance(expr, Neg):
        return f"(-{expression_to_text(expr.operand, var_names)})"
    if isinstance(expr, IntPow):
        return f"({expression_to_text(expr.base, var_names)} ^ {expr.exponent})"
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True)
class OdeSystem:
    """An autonomous system x' = f(x) with linear observables x_obs = M x.

    Invariants checked at construction: one drift expression and one initial
    value per variable, a positive horizon, and an observable matrix with
    1 <= p < m whose numerical rank equals its row count.
    """

    name: str
    var_names: tuple[str, ...]
    drift: tuple[Expression, ...]
    initial_conditions: tuple[np.ndarray, ...]
    time_horizon: float
    observables: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "var_names", tuple(self.var_names))
        object.__setattr__(self, "drift", tuple(self.drift))
        m = len(self.var_names)
        if len(self.drift) != m:
            raise ModelValidationError("one drift expression per variable required")
        inits = []
        for x0 in self.initial_conditions:
            arr = np.asarray(x0, dtype=float)
            if arr.shape != (m,):
                raise ModelValidationError("initial condition has wrong dimension")
            arr = arr.copy()
            arr.setflags(write=False)
            inits.append(arr)
        if not inits:
            raise ModelValidationError("at least one initial condition required")
        object.__setattr__(self, "initial_conditions", tuple(inits))
        if not (self.time_horizon > 0):
            raise ModelValidationError("time horizon must be positive")
        M = np.atleast_2d(np.asarray(self.observables, dtype=float)).copy()
        p = M.shape[0]
        if M.shape[1] != m:
            raise ModelValidationError("observable matrix has wrong column count")
        if not (1 <= p < m):
            raise ModelValidationError(
                f"observable count must satisfy 1 <= p < m (got p={p}, m={m})"
            )
        if np.linalg.matrix_rank(M) != p:
            raise ModelValidationError("observable matrix is rank-deficient")
        M.setflags(write=False)
        object.__setattr__(self, "observables", M)

    @property
    def dim(self) -> int:
        return len(self.var_names)

    def to_text(self) -> str:
        """Serialize back to the model text format."""
        lines = [f"model {self.name}", "var " + ", ".join(self.var_names)]
        for name, expr in zip(self.var_names, self.drift):
            lines.append(f"eq {name} = {expression_to_text(expr, self.var_names)}")
        x0 = self.initial_conditions[0]
        for name, value in zip(self.var_names, x0):
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


def _evaluate_components(system: OdeSystem, x, lift) -> list:
    """Evaluate every drift component on ``lift(x)`` after checking that x is
    a state vector. A zero denominator or an overflowing power raises
    :class:`~lumpkit.errors.EvaluationError` naming the component and x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (system.dim,):
        raise ValueError(f"expected a vector of length {system.dim}, got shape {x.shape}")
    values = lift(x)
    results = []
    for i, expr in enumerate(system.drift):
        try:
            results.append(expr.evaluate(values))
        except (ZeroDivisionError, OverflowError) as exc:
            cause = "zero denominator" if isinstance(exc, ZeroDivisionError) else "overflow"
            raise EvaluationError(
                f"{cause} evaluating d{system.var_names[i]}/dt at x={x.tolist()}",
                component=i,
                point=x.copy(),
            ) from exc
    return results


def _duals(x: np.ndarray) -> list:
    # variable j carries the j-th unit vector as its partials
    return [DualVector(float(v), seed) for v, seed in zip(x, np.eye(x.shape[0]))]


def evaluate_drift(system: OdeSystem, x) -> np.ndarray:
    """Evaluate f(x). Pure and deterministic: identical inputs give
    bit-identical outputs. A zero denominator raises
    :class:`~lumpkit.errors.EvaluationError` naming the component."""
    return np.array(_evaluate_components(system, x, np.ndarray.tolist), dtype=float)


def evaluate_drift_dual(system: OdeSystem, x) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate f(x) and the exact Jacobian J(x) by forward-mode dual
    numbers. Returns ``(f, J)`` with ``J[i, j] = df_i/dx_j``."""
    m = system.dim
    f = np.empty(m)
    jac = np.zeros((m, m))
    for i, result in enumerate(_evaluate_components(system, x, _duals)):
        if isinstance(result, DualVector):
            f[i] = result.value
            jac[i, :] = result.partials
        else:
            # constant drift component: zero partials
            f[i] = result
    return f, jac


# ---------------------------------------------------------------------------
# text format

_DIRECTIVES = {"model", "var", "eq", "init", "obs", "horizon"}

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[+\-*/^(),=])"
    r"|(?P<bad>\S)"
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    stripped = text.split("#", 1)[0]
    tokens = []
    pos = 0
    while pos < len(stripped):
        if stripped[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(stripped, pos)
        if match is None or match.lastgroup == "bad":
            raise ModelSyntaxError(
                f"unexpected character {stripped[pos]!r}", line_no, pos + 1
            )
        tokens.append(_Token(match.lastgroup, match.group(), line_no, match.start() + 1))
        pos = match.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token], line_no: int):
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ModelSyntaxError("unexpected end of line", self.line_no)
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ModelSyntaxError(f"expected {op!r}", tok.line, tok.column)
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def require_end(self):
        tok = self.peek()
        if tok is not None:
            raise ModelSyntaxError(f"unexpected trailing {tok.text!r}", tok.line, tok.column)


def _fold(node: Expression, op: _Token) -> Expression:
    """``node`` evaluated to a :class:`Constant` when all of its expression
    operands are constants, else ``node`` itself. A zero divisor or an
    overflowing power is a :class:`ModelSyntaxError` at the operator ``op``."""
    operands = [getattr(node, f.name) for f in fields(node)]
    if not all(isinstance(v, Constant) for v in operands if isinstance(v, Expression)):
        return node
    try:
        return Constant(node.evaluate(()))
    except ZeroDivisionError:
        message = "division by zero in constant expression"
    except OverflowError:
        message = "overflow in constant expression"
    raise ModelSyntaxError(message, op.line, op.column)


class _ExpressionParser:
    """Recursive descent over one line. Precedence from loosest to tightest:
    additive, multiplicative, unary minus, power. The power operator binds
    tighter than unary minus, so -x^2 means -(x^2); exponents must be
    non-negative integer literals."""

    def __init__(self, stream: _TokenStream, var_index: dict[str, int]):
        self.stream = stream
        self.var_index = var_index

    def parse(self) -> Expression:
        node = self._additive()
        return node

    def _additive(self) -> Expression:
        node = self._multiplicative()
        while True:
            tok = self.stream.peek()
            if tok is not None and tok.kind == "op" and tok.text in "+-":
                self.stream.next()
                rhs = self._multiplicative()
                node = _fold(Add(node, rhs) if tok.text == "+" else Sub(node, rhs), tok)
            else:
                return node

    def _multiplicative(self) -> Expression:
        node = self._unary()
        while True:
            tok = self.stream.peek()
            if tok is not None and tok.kind == "op" and tok.text in "*/":
                self.stream.next()
                rhs = self._unary()
                node = _fold(Mul(node, rhs) if tok.text == "*" else Div(node, rhs), tok)
            else:
                return node

    def _unary(self) -> Expression:
        tok = self.stream.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.stream.next()
            return _fold(Neg(self._unary()), tok)
        return self._power()

    def _power(self) -> Expression:
        node = self._atom()
        while True:
            tok = self.stream.peek()
            if tok is not None and tok.kind == "op" and tok.text == "^":
                self.stream.next()
                exp_tok = self.stream.next()
                if exp_tok.kind != "num":
                    raise ModelSyntaxError(
                        "exponent must be a non-negative integer literal",
                        exp_tok.line,
                        exp_tok.column,
                    )
                value = float(exp_tok.text)
                if value != int(value):
                    raise ModelSyntaxError(
                        "exponent must be a non-negative integer literal",
                        exp_tok.line,
                        exp_tok.column,
                    )
                node = _fold(IntPow(node, int(value)), tok)
            else:
                return node

    def _atom(self) -> Expression:
        tok = self.stream.next()
        if tok.kind == "num":
            return Constant(float(tok.text))
        if tok.kind == "ident":
            index = self.var_index.get(tok.text)
            if index is None:
                raise ModelSyntaxError(f"undeclared variable {tok.text!r}", tok.line, tok.column)
            return Variable(index)
        if tok.kind == "op" and tok.text == "(":
            node = self._additive()
            self.stream.expect_op(")")
            return node
        raise ModelSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.column)


class _NonlinearObservable(Exception):
    pass


def _linear_coefficients(expr: Expression, m: int) -> tuple[np.ndarray, float]:
    """Extract (coefficients, constant) from a linear expression; raises
    _NonlinearObservable on products of variables, variable denominators,
    or powers above one."""
    if isinstance(expr, Constant):
        return np.zeros(m), expr.value
    if isinstance(expr, Variable):
        coeffs = np.zeros(m)
        coeffs[expr.index] = 1.0
        return coeffs, 0.0
    if isinstance(expr, Add):
        c1, k1 = _linear_coefficients(expr.left, m)
        c2, k2 = _linear_coefficients(expr.right, m)
        return c1 + c2, k1 + k2
    if isinstance(expr, Sub):
        c1, k1 = _linear_coefficients(expr.left, m)
        c2, k2 = _linear_coefficients(expr.right, m)
        return c1 - c2, k1 - k2
    if isinstance(expr, Neg):
        c, k = _linear_coefficients(expr.operand, m)
        return -c, -k
    if isinstance(expr, Mul):
        c1, k1 = _linear_coefficients(expr.left, m)
        c2, k2 = _linear_coefficients(expr.right, m)
        if not c1.any():
            return k1 * c2, k1 * k2
        if not c2.any():
            return k2 * c1, k1 * k2
        raise _NonlinearObservable
    if isinstance(expr, Div):
        c2, k2 = _linear_coefficients(expr.right, m)
        if c2.any() or k2 == 0.0:
            raise _NonlinearObservable
        c1, k1 = _linear_coefficients(expr.left, m)
        return c1 / k2, k1 / k2
    if isinstance(expr, IntPow):
        if expr.exponent == 0:
            return np.zeros(m), 1.0
        if expr.exponent == 1:
            return _linear_coefficients(expr.base, m)
        c, k = _linear_coefficients(expr.base, m)
        if c.any():
            raise _NonlinearObservable
        return np.zeros(m), k**expr.exponent
    raise _NonlinearObservable


def _parse_constant(stream: _TokenStream, what: str) -> float:
    expr = _ExpressionParser(stream, {}).parse()
    if not isinstance(expr, Constant):
        raise ModelSyntaxError(f"{what} must be a numeric constant", stream.line_no)
    return expr.value


def parse_model(text: str) -> OdeSystem:
    """Parse the line-oriented model format.

    Directives, one per line, ``#`` starts a comment::

        model <identifier>
        var <name> [, <name> ...]
        eq <name> = <expression>
        init <name> = <number>
        obs [=] <linear combination of variables>
        horizon <number>

    Every variable needs exactly one ``eq`` and one ``init`` line; there is a
    single initial condition per file. Expressions use + - * / ^ ( ) with
    numeric literals and declared variable names.
    """
    name: str | None = None
    var_names: list[str] = []
    var_index: dict[str, int] = {}
    equations: dict[str, tuple[Expression, int]] = {}
    inits: dict[str, float] = {}
    obs_rows: list[tuple[Expression, int]] = []
    horizon: float | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        head = tokens[0]
        if head.kind != "ident" or head.text not in _DIRECTIVES:
            raise ModelSyntaxError(
                f"expected a directive ({', '.join(sorted(_DIRECTIVES))})",
                head.line,
                head.column,
            )
        stream = _TokenStream(tokens[1:], line_no)
        directive = head.text

        if directive == "model":
            if name is not None:
                raise ModelSyntaxError("duplicate model declaration", line_no)
            tok = stream.next()
            if tok.kind != "ident":
                raise ModelSyntaxError("expected a model name", tok.line, tok.column)
            stream.require_end()
            name = tok.text
        elif directive == "var":
            while True:
                tok = stream.next()
                if tok.kind != "ident":
                    raise ModelSyntaxError("expected a variable name", tok.line, tok.column)
                if tok.text in _DIRECTIVES:
                    raise ModelSyntaxError(
                        f"{tok.text!r} is reserved", tok.line, tok.column
                    )
                if tok.text in var_index:
                    raise ModelSyntaxError(
                        f"duplicate variable {tok.text!r}", tok.line, tok.column
                    )
                var_index[tok.text] = len(var_names)
                var_names.append(tok.text)
                if stream.at_end():
                    break
                stream.expect_op(",")
        elif directive == "eq":
            tok = stream.next()
            if tok.kind != "ident" or tok.text not in var_index:
                raise ModelSyntaxError(
                    f"equation for undeclared variable {tok.text!r}", tok.line, tok.column
                )
            if tok.text in equations:
                raise ModelSyntaxError(
                    f"duplicate equation for {tok.text!r}", tok.line, tok.column
                )
            stream.expect_op("=")
            expr = _ExpressionParser(stream, var_index).parse()
            stream.require_end()
            equations[tok.text] = (expr, line_no)
        elif directive == "init":
            tok = stream.next()
            if tok.kind != "ident" or tok.text not in var_index:
                raise ModelSyntaxError(
                    f"initial value for undeclared variable {tok.text!r}",
                    tok.line,
                    tok.column,
                )
            if tok.text in inits:
                raise ModelSyntaxError(
                    f"duplicate initial value for {tok.text!r}", tok.line, tok.column
                )
            stream.expect_op("=")
            inits[tok.text] = _parse_constant(stream, "initial value")
            stream.require_end()
        elif directive == "obs":
            tok = stream.peek()
            if tok is not None and tok.kind == "op" and tok.text == "=":
                stream.next()
            expr = _ExpressionParser(stream, var_index).parse()
            stream.require_end()
            obs_rows.append((expr, line_no))
        else:  # horizon
            if horizon is not None:
                raise ModelSyntaxError("duplicate horizon", line_no)
            horizon = _parse_constant(stream, "horizon")
            stream.require_end()

    if name is None:
        raise ModelSyntaxError("missing model declaration")
    if not var_names:
        raise ModelSyntaxError("missing var declaration")
    missing_eq = [v for v in var_names if v not in equations]
    if missing_eq:
        raise ModelSyntaxError(f"missing equation for {missing_eq[0]!r}")
    missing_init = [v for v in var_names if v not in inits]
    if missing_init:
        raise ModelSyntaxError(f"missing initial value for {missing_init[0]!r}")
    if horizon is None:
        raise ModelSyntaxError("missing horizon")
    if not obs_rows:
        raise ModelSyntaxError("at least one obs line required")

    m = len(var_names)
    M = np.zeros((len(obs_rows), m))
    for k, (expr, line_no) in enumerate(obs_rows):
        try:
            coeffs, const = _linear_coefficients(expr, m)
        except _NonlinearObservable:
            raise ModelSyntaxError(
                "observable must be linear in the state variables", line_no
            ) from None
        if const != 0.0:
            raise ModelSyntaxError("observable must have no constant term", line_no)
        if not coeffs.any():
            raise ModelSyntaxError("observable must involve at least one variable", line_no)
        M[k] = coeffs

    return OdeSystem(
        name=name,
        var_names=tuple(var_names),
        drift=tuple(equations[v][0] for v in var_names),
        initial_conditions=(np.array([inits[v] for v in var_names]),),
        time_horizon=horizon,
        observables=M,
    )
