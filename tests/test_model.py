"""Model text format, expression evaluation, and forward-mode derivatives."""

import copy
import dataclasses
import math
import operator
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lumpkit as lk
from lumpkit.errors import EvaluationError, ModelSyntaxError, ModelValidationError
from lumpkit.model import Add, Constant, Div, Expression, IntPow, Mul, Neg, Sub, Variable, _Line

from conftest import (
    BIG_POWER,
    DEEP_NESTING,
    NON_FINITE,
    benchmark_workloads,
    central_difference_jacobian,
    model_path,
)


def two_var(body: str) -> str:
    return (
        "model probe\nvar a, b\n"
        f"{body}\n"
        "init a = 1\ninit b = 1\nobs a\nhorizon 1\n"
    )


# lines 1-8: model, var, eq a, eq b, init a, init b, obs, horizon
VALID = two_var("eq a = b\neq b = a")


def variant(old: str, new: str) -> str:
    """VALID with its one occurrence of ``old`` replaced by ``new``."""
    assert VALID.count(old) == 1
    return VALID.replace(old, new)


# one row per ModelSyntaxError raise site of parse_model:
# (model text, message, line, column)
SYNTAX_ERRORS = {
    "unexpected_character": (
        variant("eq a = b", "eq a = b $ 1"),
        "unexpected character '$'",
        3,
        10,
    ),
    "expected_directive": (
        variant("obs a", "ob a"),
        "expected a directive (eq, horizon, init, model, obs, var)",
        7,
        1,
    ),
    "directive_not_a_name": (
        variant("obs a", "= a"),
        "expected a directive (eq, horizon, init, model, obs, var)",
        7,
        1,
    ),
    "duplicate_model": (
        variant("var a, b", "model other\nvar a, b"),
        "duplicate model declaration",
        2,
        None,
    ),
    "model_name": (variant("model probe", "model 1"), "expected a model name", 1, 7),
    "variable_name": (variant("var a, b", "var a, 2"), "expected a variable name", 2, 8),
    "reserved_name": (variant("var a, b", "var a, b, obs"), "'obs' is reserved", 2, 11),
    "duplicate_variable": (variant("var a, b", "var a, b, a"), "duplicate variable 'a'", 2, 11),
    "expected_comma": (variant("var a, b", "var a b"), "expected ','", 2, 7),
    "eq_undeclared": (
        variant("eq a = b", "eq c = b"),
        "equation for undeclared variable 'c'",
        3,
        4,
    ),
    "eq_target_not_a_name": (
        variant("eq a = b", "eq 1 = b"),
        "equation for undeclared variable '1'",
        3,
        4,
    ),
    "eq_duplicate": (variant("eq b = a", "eq a = a"), "duplicate equation for 'a'", 4, 4),
    "init_undeclared": (
        variant("init a = 1", "init c = 1"),
        "initial value for undeclared variable 'c'",
        5,
        6,
    ),
    "init_duplicate": (
        variant("init b = 1", "init a = 1"),
        "duplicate initial value for 'a'",
        6,
        6,
    ),
    "expected_equals": (variant("eq a = b", "eq a b"), "expected '='", 3, 6),
    "end_of_line": (variant("eq a = b", "eq a = b +"), "unexpected end of line", 3, None),
    "trailing_token": (variant("eq a = b", "eq a = b c"), "unexpected trailing 'c'", 3, 10),
    "undeclared_variable": (variant("eq a = b", "eq a = c"), "undeclared variable 'c'", 3, 8),
    "init_variable": (variant("init a = 1", "init a = b"), "undeclared variable 'b'", 5, 10),
    "horizon_variable": (variant("horizon 1", "horizon a"), "undeclared variable 'a'", 8, 9),
    "unexpected_token": (variant("eq a = b", "eq a = *b"), "unexpected '*'", 3, 8),
    "expected_paren": (variant("eq a = b", "eq a = (b b)"), "expected ')'", 3, 11),
    "exponent_name": (
        variant("eq a = b", "eq a = b^a"),
        "exponent must be a non-negative integer literal",
        3,
        10,
    ),
    "exponent_fraction": (
        variant("eq a = b", "eq a = b^1.5"),
        "exponent must be a non-negative integer literal",
        3,
        10,
    ),
    "exponent_infinite": (
        variant("eq a = b", "eq a = b^1e400"),
        "exponent must be a non-negative integer literal",
        3,
        10,
    ),
    "literal_overflow": (
        variant("eq a = b", "eq a = 1e400*b"),
        "numeric literal 1e400 overflows to infinity",
        3,
        8,
    ),
    "fold_division": (
        variant("eq a = b", "eq a = b + 1/(2-2)"),
        "division by zero in constant expression",
        3,
        13,
    ),
    "fold_overflow": (
        variant("eq a = b", "eq a = 10.0^400*b"),
        "overflow in constant expression",
        3,
        12,
    ),
    "duplicate_horizon": (VALID + "horizon 2\n", "duplicate horizon", 9, None),
    "missing_model": (variant("model probe\n", ""), "missing model declaration", None, None),
    "missing_var": ("model probe\n", "missing var declaration", None, None),
    "missing_equation": (variant("eq b = a\n", ""), "missing equation for 'b'", None, None),
    "missing_init": (variant("init b = 1\n", ""), "missing initial value for 'b'", None, None),
    "missing_horizon": (variant("horizon 1\n", ""), "missing horizon", None, None),
    "missing_obs": (variant("obs a\n", ""), "at least one obs line required", None, None),
    "nonlinear_obs": (
        variant("obs a", "obs a*b"),
        "observable must be linear in the state variables",
        7,
        None,
    ),
    "obs_constant_term": (
        variant("obs a", "obs a + 1"),
        "observable must have no constant term",
        7,
        None,
    ),
    "obs_without_variable": (
        variant("obs a", "obs 0*a"),
        "observable must involve at least one variable",
        7,
        None,
    ),
}

# the characters of the model format, a character outside it, and line breaks
MODEL_ALPHABET = "abdx1234567890 .eE+-*/^(),=#\t\n$"


def mutate(text: str, edits) -> str:
    """``text`` after each edit ``(kind, position, character)`` in turn:
    insert or delete a character, or duplicate, drop or truncate a line."""
    for kind, position, character in edits:
        if kind == "insert":
            at = position % (len(text) + 1)
            text = text[:at] + character + text[at:]
        elif kind == "delete" and text:
            at = position % len(text)
            text = text[:at] + text[at + 1 :]
        elif kind in ("duplicate", "drop", "truncate"):
            lines = text.splitlines()
            if not lines:
                continue
            k = position % len(lines)
            if kind == "duplicate":
                lines.insert(k, lines[k])
            elif kind == "drop":
                del lines[k]
            else:
                lines[k] = lines[k][: position % (len(lines[k]) + 1)]
            text = "\n".join(lines) + "\n"
    return text


def dual_inputs(x: np.ndarray) -> list:
    # variable j carries the j-th unit vector as its partials
    return [lk.DualVector(float(v), seed) for v, seed in zip(x, np.eye(x.shape[0]))]


def tree_walk(system, x: np.ndarray) -> np.ndarray:
    """Reference f(x): Expression.evaluate on every drift component."""
    return np.array([expr.evaluate(x.tolist()) for expr in system.drift], dtype=float)


def tree_walk_dual(system, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference (f, J): Expression.evaluate on dual inputs."""
    m = system.dim
    f = np.empty(m)
    J = np.zeros((m, m))
    for i, expr in enumerate(system.drift):
        result = expr.evaluate(dual_inputs(x))
        if isinstance(result, lk.DualVector):
            f[i], J[i] = result.value, result.partials
        else:
            f[i] = result
    return f, J


def assert_matches_tree_walk(system, x: np.ndarray):
    assert lk.evaluate_drift(system, x).tobytes() == tree_walk(system, x).tobytes()
    f, J = lk.evaluate_drift_dual(system, x)
    f_ref, J_ref = tree_walk_dual(system, x)
    assert f.tobytes() == f_ref.tobytes()
    assert J.tobytes() == J_ref.tobytes()


class TestParsing:
    def test_rational3_shape(self, rational3):
        assert rational3.var_names == ("x1", "x2", "x3")
        assert rational3.dim == 3
        assert rational3.time_horizon == 1.75
        np.testing.assert_array_equal(rational3.observables, [[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(rational3.initial_conditions[0], [1.0, 1.0, 1.0])

    def test_observable_with_leading_equals(self):
        text = (
            "model m\nvar a, b, c\n"
            "eq a = b\neq b = c\neq c = a\n"
            "init a = 1\ninit b = 1\ninit c = 1\n"
            "obs = b + 2*c\nhorizon 1\n"
        )
        system = lk.parse_model(text)
        np.testing.assert_array_equal(system.observables, [[0.0, 1.0, 2.0]])

    def test_observable_coefficients(self):
        text = (
            "model m\nvar a, b\neq a = b\neq b = a\n"
            "init a = 1\ninit b = 1\nobs 3*a - 0.5*b\nhorizon 1\n"
        )
        system = lk.parse_model(text)
        np.testing.assert_array_equal(system.observables, [[3.0, -0.5]])

    def test_comments_and_blank_lines_ignored(self, rational3):
        text = "# leading comment\n\n" + rational3.to_text().replace(
            "var x1, x2, x3", "var x1, x2, x3  # state variables"
        )
        reparsed = lk.parse_model(text)
        assert reparsed.var_names == rational3.var_names

    def test_round_trip_preserves_semantics(self, rational3_perturbed):
        text = rational3_perturbed.to_text()
        reparsed = lk.parse_model(text)
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(20):
            x = rng.uniform(0.2, 1.8, 3)
            a = lk.evaluate_drift(rational3_perturbed, x)
            b = lk.evaluate_drift(reparsed, x)
            np.testing.assert_array_equal(a, b)
        assert reparsed.to_text() == text

    def test_round_trip_identical_tree(self, rational3):
        reparsed = lk.parse_model(rational3.to_text())
        assert reparsed.drift == rational3.drift

    @pytest.mark.parametrize(
        "text",
        [
            "a + b - a - b",
            "a - (b - a)",
            "a / (b * a) * b",
            "(a + b) * -a",
            "-(a * b) - -2.5",
            "(-a) ^ 2 + -a ^ 2 ^ 3",
            "(a - b) ^ 2 / (-3.0 * b)",
            "--a",
        ],
    )
    def test_to_text_writes_only_needed_parentheses(self, text):
        system = lk.parse_model(two_var(f"eq a = {text}\neq b = a"))
        assert f"eq a = {text}\n" in system.to_text()
        assert lk.parse_model(system.to_text()).drift == system.drift

    def test_negative_constant_binds_as_unary_minus(self):
        assert lk.expression_to_text(IntPow(Constant(-2.0), 2), []) == "(-2.0) ^ 2"

    def test_equality_compares_arrays_by_value(self, poly4):
        text = model_path("poly4.ode").read_text()
        assert lk.parse_model(text) == lk.parse_model(text)
        lk.evaluate_drift(poly4, np.ones(4))  # compiled functions do not count
        assert pickle.loads(pickle.dumps(poly4)) == poly4
        other = dataclasses.replace(poly4, observables=[[0.0, 0.0, 1.0, 0.0]])
        assert other != poly4
        assert poly4 != text

    def test_arrays_are_read_only(self, poly4):
        for values in (*poly4.initial_conditions, poly4.observables):
            assert not values.flags.writeable

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ("eq a = b^1.5\neq b = a", "exponent"),
            ("eq a = b^-1\neq b = a", "exponent"),
            ("eq a = c\neq b = a", "undeclared"),
            ("eq a = 1/0\neq b = a", "division by zero"),
            ("eq a = b\neq a = a\neq b = a", "duplicate equation"),
            ("eq a = b", "missing equation"),
            ("eq a = b +\neq b = a", "unexpected end of line"),
            ("eq a = 10^400\neq b = a", "overflow"),
        ],
    )
    def test_syntax_errors(self, body, fragment):
        with pytest.raises(ModelSyntaxError, match=fragment):
            lk.parse_model(two_var(body))

    @pytest.mark.parametrize(
        "old, new, position, fragment",
        [
            ("eq a = b", "eq a = -1e400*a + b", (3, 9), "overflows to infinity"),
            ("eq b = a", "eq b = a^1e400", (4, 10), "exponent"),
            ("init a = 1", "init a = 1e400", (5, 10), "overflows to infinity"),
            ("obs a", "obs 1e999*a", (7, 5), "overflows to infinity"),
            ("horizon 1", "horizon 1e400", (8, 9), "overflows to infinity"),
        ],
        ids=["eq", "exponent", "init", "obs", "horizon"],
    )
    def test_non_finite_literal_rejected(self, old, new, position, fragment):
        # float("1e400") is inf, which to_text would write back as "inf"
        text = two_var("eq a = b\neq b = a").replace(old, new)
        with pytest.raises(ModelSyntaxError, match=fragment) as exc_info:
            lk.parse_model(text)
        assert (exc_info.value.line, exc_info.value.column) == position

    def test_constant_subtrees_fold_to_one_constant(self):
        system = lk.parse_model(two_var("eq a = 2^3 * -(4/8) - 1 + a/(2-2+1)\neq b = a"))
        assert system.drift[0] == Add(Constant(-5.0), Div(Variable(0), Constant(1.0)))

    def test_fold_gives_the_trees_of_the_every_operand_rule(self, monkeypatch):
        # the oracle looks at every slot of a node that holds an expression
        def every_operand_fold(self, node, column):
            operands = [getattr(node, name) for name in node.__slots__]
            if all(isinstance(v, Constant) for v in operands if isinstance(v, Expression)):
                return Constant(node.evaluate(()))
            return node

        workloads = benchmark_workloads()
        bundled = ("rational3.ode", "rational3_perturbed.ode", "poly4.ode")
        texts = [model_path(name).read_text() for name in bundled]
        texts += [workloads.rational_model_text(key) for key in range(workloads.SEARCH_MODELS)]
        texts += [
            workloads.oscillator_model_text(key) for key in range(workloads.OSCILLATOR_MODELS)
        ]
        texts.append(two_var("eq a = 2^3 * -(4/8) - 1 + a/(2-2+1) - -b^2\neq b = a"))
        parsed = [lk.parse_model(text) for text in texts]
        monkeypatch.setattr(_Line, "fold", every_operand_fold)
        for system, text in zip(parsed, texts):
            expected = lk.parse_model(text)
            assert system == expected
            assert repr(system.drift) == repr(expected.drift)

    @pytest.mark.parametrize(
        "body, column", [("eq a = 1/0", 9), ("eq a = 10^400", 10), ("eq a = -(2/(1-1))", 11)]
    )
    def test_constant_fold_error_position(self, body, column):
        with pytest.raises(ModelSyntaxError) as exc_info:
            lk.parse_model(two_var(body + "\neq b = a"))
        assert (exc_info.value.line, exc_info.value.column) == (3, column)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ModelSyntaxError) as exc_info:
            lk.parse_model(two_var("eq a = c\neq b = a"))
        assert exc_info.value.line == 3
        assert exc_info.value.column is not None

    def test_nonlinear_observable_rejected(self):
        text = (
            "model m\nvar a, b\neq a = b\neq b = a\n"
            "init a = 1\ninit b = 1\nobs a*b\nhorizon 1\n"
        )
        with pytest.raises(ModelSyntaxError, match="linear"):
            lk.parse_model(text)

    @pytest.mark.parametrize(
        "observable, row",
        [
            ("-(-a)", [1.0, 0.0]),
            ("(a + b)/2", [0.5, 0.5]),
            ("a*2", [2.0, 0.0]),
            ("a^1", [1.0, 0.0]),
            ("2^0*a", [1.0, 0.0]),
            ("(2*a)^1", [2.0, 0.0]),
            ("b*(a - a + 2)", [0.0, 2.0]),
            ("a + (a*b)^0 - 1", [1.0, 0.0]),
        ],
    )
    def test_observable_forms(self, observable, row):
        system = lk.parse_model(variant("obs a", f"obs {observable}"))
        np.testing.assert_array_equal(system.observables, [row])

    @pytest.mark.parametrize("observable", ["a/0", "a^2", "a + a*b"])
    def test_observable_over_zero_or_squared_rejected(self, observable):
        with pytest.raises(ModelSyntaxError, match="observable must be linear") as exc_info:
            lk.parse_model(variant("obs a", f"obs {observable}"))
        assert exc_info.value.line == 7

    def test_observable_constant_term_rejected(self):
        text = (
            "model m\nvar a, b\neq a = b\neq b = a\n"
            "init a = 1\ninit b = 1\nobs a + 1\nhorizon 1\n"
        )
        with pytest.raises(ModelSyntaxError, match="constant"):
            lk.parse_model(text)

    def test_single_variable_model_rejected(self):
        text = "model m\nvar a\neq a = a\ninit a = 1\nobs a\nhorizon 1\n"
        with pytest.raises(ModelValidationError, match="p < m"):
            lk.parse_model(text)

    def test_full_rank_observable_count_rejected(self):
        text = (
            "model m\nvar a, b\neq a = b\neq b = a\n"
            "init a = 1\ninit b = 1\nobs a\nobs b\nhorizon 1\n"
        )
        with pytest.raises(ModelValidationError, match="p < m"):
            lk.parse_model(text)

    def test_rank_deficient_observables_rejected(self):
        text = (
            "model m\nvar a, b, c\neq a = b\neq b = c\neq c = a\n"
            "init a = 1\ninit b = 1\ninit c = 1\n"
            "obs a + b\nobs 2*a + 2*b\nhorizon 1\n"
        )
        with pytest.raises(ModelValidationError, match="rank"):
            lk.parse_model(text)

    def test_observables_failing_the_rank_test_rejected(self):
        # numpy's SVD rank is 2, but the sweep cannot orthonormalize these rows
        text = (
            "model m\nvar a, b, c\neq a = b\neq b = c\neq c = a\n"
            "init a = 1\ninit b = 1\ninit c = 1\n"
            "obs a\nobs a + 1e-10*b\nhorizon 1\n"
        )
        with pytest.raises(ModelValidationError, match="rank-deficient"):
            lk.parse_model(text)

    def test_tiny_independent_observable_kept(self):
        # numpy's SVD tolerance reads this as rank 1
        text = (
            "model m\nvar a, b, c\neq a = b\neq b = c\neq c = a\n"
            "init a = 1\ninit b = 1\ninit c = 1\n"
            "obs a\nobs 1e-17*b\nhorizon 1\n"
        )
        np.testing.assert_array_equal(lk.parse_model(text).observables, [[1, 0, 0], [0, 1e-17, 0]])

    @pytest.mark.parametrize("horizon_line", ["horizon 0", "horizon -2"])
    def test_bad_horizon_rejected(self, horizon_line):
        text = (
            "model m\nvar a, b\neq a = b\neq b = a\n"
            f"init a = 1\ninit b = 1\nobs a\n{horizon_line}\n"
        )
        with pytest.raises(ModelValidationError, match="horizon"):
            lk.parse_model(text)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, rational3, horizon):
        with pytest.raises(ModelValidationError, match="horizon"):
            dataclasses.replace(rational3, time_horizon=horizon)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("drift", (Variable(0),), "one drift expression per variable"),
            ("initial_conditions", ([1.0, 1.0],), "initial condition has wrong dimension"),
            ("initial_conditions", (), "at least one initial condition"),
            ("observables", [[1.0, 0.0]], "wrong column count"),
        ],
        ids=["drift_count", "initial_shape", "no_initial", "observable_columns"],
    )
    def test_system_invariants(self, rational3, field, value, message):
        with pytest.raises(ModelValidationError, match=message):
            dataclasses.replace(rational3, **{field: value})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_drift_constant_rejected(self, value):
        # the parser rejects such constants, but a tree built in code may hold
        # one, and to_text would write it as "inf", which does not parse back
        system = lk.parse_model(VALID)
        drift = (Mul(Constant(value), Variable(1)), system.drift[1])
        with pytest.raises(ModelValidationError, match="drift of a holds a constant that is not finite"):
            dataclasses.replace(system, drift=drift)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_initial_condition_rejected(self, rational3, value):
        # to_text would write "init x1 = inf", and sampling would start from it
        x0 = np.array([value, 0.5, 0.5])
        with pytest.raises(ModelValidationError, match="initial condition holds a value that is not finite"):
            dataclasses.replace(rational3, initial_conditions=(x0,))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_observable_rejected(self, rational3, value):
        # caught before the rank test, which reads such a matrix as rank-deficient or fails
        with pytest.raises(ModelValidationError, match="observable matrix holds an entry that is not finite"):
            dataclasses.replace(rational3, observables=[[1.0, value, 0.0]])

    def test_missing_pieces_rejected(self):
        with pytest.raises(ModelSyntaxError, match="horizon"):
            lk.parse_model(
                "model m\nvar a, b\neq a = b\neq b = a\ninit a = 1\ninit b = 1\nobs a\n"
            )
        with pytest.raises(ModelSyntaxError, match="init"):
            lk.parse_model(
                "model m\nvar a, b\neq a = b\neq b = a\nobs a\nhorizon 1\n"
            )

    def test_unknown_directive_rejected(self):
        with pytest.raises(ModelSyntaxError, match="directive"):
            lk.parse_model("model m\nfoo bar\n")

    def test_valid_base_text_parses(self):
        assert lk.parse_model(VALID).var_names == ("a", "b")

    @pytest.mark.parametrize(
        "text, message, line, column", SYNTAX_ERRORS.values(), ids=SYNTAX_ERRORS.keys()
    )
    def test_syntax_error_message_and_position(self, text, message, line, column):
        with pytest.raises(ModelSyntaxError) as exc_info:
            lk.parse_model(text)
        if column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        assert str(exc_info.value) == message
        assert (exc_info.value.line, exc_info.value.column) == (line, column)

    @pytest.mark.parametrize(
        "expression, tree",
        [
            ("-b^2", Neg(IntPow(Variable(1), 2))),
            ("b^2^3", IntPow(IntPow(Variable(1), 2), 3)),
            ("a - b - 1", Sub(Sub(Variable(0), Variable(1)), Constant(1.0))),
            ("a/b/2", Div(Div(Variable(0), Variable(1)), Constant(2.0))),
            ("-a*b", Mul(Neg(Variable(0)), Variable(1))),
        ],
    )
    def test_precedence_and_associativity(self, expression, tree):
        system = lk.parse_model(variant("eq a = b", f"eq a = {expression}"))
        assert system.drift[0] == tree

    def test_init_and_horizon_fold_to_constants(self):
        text = variant("init a = 1", "init a = 2/3").replace("horizon 1", "horizon 2^2")
        system = lk.parse_model(text)
        assert system.initial_conditions[0][0] == 2 / 3
        assert system.time_horizon == 4.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.sampled_from(["rational3.ode", "rational3_perturbed.ode", "poly4.ode"]),
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "duplicate", "drop", "truncate"]),
                st.integers(0, 10**6),
                st.sampled_from(MODEL_ALPHABET),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_mutated_models_parse_or_raise_model_errors(self, name, edits):
        text = mutate(model_path(name).read_text(), edits)
        try:
            assert isinstance(lk.parse_model(text), lk.OdeSystem)
        except ModelValidationError:
            pass
        except ModelSyntaxError as exc:
            lines = text.splitlines()
            if exc.line is not None:
                assert 1 <= exc.line <= len(lines)
            if exc.column is not None:
                assert 1 <= exc.column <= len(lines[exc.line - 1])


class TestDriftEvaluation:
    def test_plain_drift_at_ones(self, rational3):
        f = lk.evaluate_drift(rational3, np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(f, [4.5, -0.5, -0.5], rtol=0, atol=1e-15)

    def test_perturbed_drift_at_ones(self, rational3_perturbed):
        f = lk.evaluate_drift(rational3_perturbed, np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(f, [4.525, -0.5, -0.5], rtol=0, atol=1e-15)

    def test_linear_drift_at_origin(self):
        system = lk.parse_model(
            "model lin\nvar a, b\neq a = 2*a - b\neq b = a\n"
            "init a = 1\ninit b = 1\nobs a\nhorizon 1\n"
        )
        np.testing.assert_array_equal(
            lk.evaluate_drift(system, np.zeros(2)), np.zeros(2)
        )

    def test_evaluation_is_bit_deterministic(self, rational3_perturbed):
        x = np.array([0.73, 1.21, 0.4])
        first = lk.evaluate_drift(rational3_perturbed, x)
        reparsed = lk.parse_model(rational3_perturbed.to_text())
        for _ in range(3):
            np.testing.assert_array_equal(
                lk.evaluate_drift(rational3_perturbed, x), first
            )
            np.testing.assert_array_equal(lk.evaluate_drift(reparsed, x), first)

    def test_zero_denominator_names_component(self, rational3):
        # x2 + 2*x3 + 1 vanishes at (1, -3, 1), hitting components 2 and 3
        with pytest.raises(EvaluationError, match="x2") as exc_info:
            lk.evaluate_drift(rational3, np.array([1.0, -3.0, 1.0]))
        assert exc_info.value.component == 1
        np.testing.assert_array_equal(exc_info.value.point, [1.0, -3.0, 1.0])

    def test_symbolic_zero_denominator_is_runtime_error(self):
        system = lk.parse_model(two_var("eq a = b/(2 - 2)\neq b = a"))
        with pytest.raises(EvaluationError):
            lk.evaluate_drift(system, np.ones(2))

    def test_power_overflow_is_evaluation_error(self):
        system = lk.parse_model(two_var("eq a = b\neq b = a^400"))
        for evaluate in (lk.evaluate_drift, lk.evaluate_drift_dual):
            with pytest.raises(EvaluationError, match="overflow evaluating db/dt") as exc_info:
                evaluate(system, np.array([10.0, 1.0]))
            assert exc_info.value.component == 1

    def test_wrong_length_rejected(self, rational3):
        with pytest.raises(ValueError, match="length 3"):
            lk.evaluate_drift(rational3, np.ones(4))


class TestDualNumbers:
    def test_values_match_plain_evaluation(self, rational3_perturbed, poly4):
        # dual and float tree walks may associate differently, so allow ulps
        rng = np.random.Generator(np.random.PCG64(11))
        for system in (rational3_perturbed, poly4):
            for _ in range(10):
                x = rng.uniform(0.2, 1.5, system.dim)
                f, _ = lk.evaluate_drift_dual(system, x)
                np.testing.assert_allclose(
                    f, lk.evaluate_drift(system, x), rtol=1e-14, atol=0
                )

    def test_jacobian_matches_central_differences(self, rational3, poly4):
        # denominators stay positive on [0.2, 1.8]^m for the rational model
        rng = np.random.Generator(np.random.PCG64(5))
        for system in (rational3, poly4):
            for _ in range(100):
                x = rng.uniform(0.2, 1.8, system.dim)
                _, J = lk.evaluate_drift_dual(system, x)
                J_fd = central_difference_jacobian(system, x)
                scale = np.maximum(1.0, np.abs(J))
                assert np.max(np.abs(J - J_fd) / scale) <= 1e-6

    def test_power_rules(self):
        x = lk.DualVector(3.0, np.array([1.0, 0.0]))
        sq = x**2
        assert sq.value == 9.0
        np.testing.assert_array_equal(sq.partials, [6.0, 0.0])
        one = x**0
        assert one.value == 1.0
        np.testing.assert_array_equal(one.partials, [0.0, 0.0])
        assert (x**1).value == x.value

    @pytest.mark.parametrize("exponent", [-1, 2.0])
    def test_exponent_must_be_a_non_negative_integer(self, exponent):
        x = lk.DualVector(3.0, np.array([1.0, 0.0]))
        with pytest.raises(TypeError, match="non-negative integer"):
            _ = x**exponent

    def test_quotient_rule(self):
        u = lk.DualVector(1.0, np.array([1.0, 0.0]))
        v = lk.DualVector(2.0, np.array([0.0, 1.0]))
        q = u / v
        assert q.value == 0.5
        np.testing.assert_allclose(q.partials, [0.5, -0.25], rtol=0, atol=1e-16)

    def test_division_by_zero_value(self):
        u = lk.DualVector(1.0, np.array([1.0]))
        z = lk.DualVector(0.0, np.array([1.0]))
        with pytest.raises(ZeroDivisionError):
            _ = u / z

    def test_constant_zero_divisor_raises_evaluation_error(self):
        system = lk.parse_model(two_var("eq a = b/0\neq b = a"))
        for x in (np.array([1.0, 2.0]), np.array([[1.0, 2.0], [3.0, 4.0]])):
            with pytest.raises(EvaluationError, match="zero denominator evaluating da/dt"):
                lk.evaluate_drift_dual(system, x)

    def test_dual_zero_denominator_raises_evaluation_error(self, rational3):
        with pytest.raises(EvaluationError):
            lk.evaluate_drift_dual(rational3, np.array([1.0, -3.0, 1.0]))

    def test_power_derivative_overflow_raises(self):
        # 5.86^400 is finite, 400 * 5.86^399 is not: raise as ** does for
        # the value, instead of an inf partial and an inf * 0 = nan one
        x = lk.DualVector(5.86, np.array([1.0, 0.0]))
        block = lk.DualVector(np.array([1.0, 5.86]), np.array([[1.0, 1.0], [0.0, 0.0]]))
        for dual in (x, block):
            with pytest.raises(OverflowError):
                _ = dual**400
        system = lk.parse_model(two_var("eq a = a^400\neq b = a"))
        point = np.array([5.86, 0.0])
        assert np.isfinite(lk.evaluate_drift(system, point)).all()
        for x in (point, np.array([[1.0, 0.0], point])):
            with pytest.raises(EvaluationError) as exc_info:
                lk.evaluate_drift_dual(system, x)
            assert str(exc_info.value) == "overflow evaluating da/dt at x=[5.86, 0.0]"
            assert exc_info.value.component == 0
            np.testing.assert_array_equal(exc_info.value.point, point)


class TestBatchedDuals:
    """evaluate_drift_dual on an (N, m) block gives each row the bits of a
    one-point call."""

    @staticmethod
    def assert_block_matches_points(system, X):
        F, J = lk.evaluate_drift_dual(system, X)
        assert F.shape == X.shape and J.shape == X.shape + (system.dim,)
        for x, f, jac in zip(X, F, J):
            f_ref, J_ref = lk.evaluate_drift_dual(system, x)
            assert f.tobytes() == f_ref.tobytes()
            assert jac.tobytes() == J_ref.tobytes()

    def test_bundled_models_and_random_corpus(
        self, rational3, rational3_perturbed, poly4, random_corpus
    ):
        # negative coordinates put negative bases under the integer powers
        systems = [rational3, rational3_perturbed, poly4]
        systems += [system for system, _, _ in random_corpus]
        rng = np.random.Generator(np.random.PCG64(8))
        for system in systems:
            for size in (1, system.dim, 40):
                self.assert_block_matches_points(
                    system, rng.uniform(-2.0, 2.0, (size, system.dim))
                )

    def test_every_node_kind(self):
        system = lk.parse_model(
            "model kinds\nvar a, b, c\n"
            "eq a = 3\neq b = c\neq c = -a + a^0 - (a*b)^3/(b^2 + 1.5)\n"
            "init a = 1\ninit b = 1\ninit c = 1\nobs a\nhorizon 1\n"
        )
        X = np.random.Generator(np.random.PCG64(4)).uniform(-2.0, 2.0, (50, 3))
        assert (X < 0).any(axis=0).all()
        self.assert_block_matches_points(system, X)

    def test_integer_powers_round_as_python_floats(self):
        # np.power rounds differently from Python's float ** on a few
        # percent of the values for these exponents on some hosts
        names = [f"x{k}" for k in range(2, 10)]
        system = lk.parse_model(
            "model powers\nvar " + ", ".join(names) + "\n"
            + "".join(f"eq {n} = {n}^{k}\n" for n, k in zip(names, range(2, 10)))
            + "".join(f"init {n} = 1\n" for n in names)
            + "obs x2\nhorizon 1\n"
        )
        X = np.random.Generator(np.random.PCG64(9)).uniform(-3.0, 3.0, (500, 8))
        self.assert_block_matches_points(system, X)

    def test_error_names_the_first_singular_point(self):
        # (2, 2) is singular in db/dt only, (1, 0) in da/dt: the block run
        # fails first in da/dt whatever the order, but must report the
        # error of the first singular row, as point-by-point calls would
        system = lk.parse_model(two_var("eq a = b/(a - 1)\neq b = a/(b - 2)"))
        for block, first in (
            ([[0.5, 0.5], [2.0, 2.0], [1.0, 0.0]], [2.0, 2.0]),
            ([[1.0, 0.0], [2.0, 2.0]], [1.0, 0.0]),
        ):
            block, first = np.array(block), np.array(first)
            with pytest.raises(EvaluationError) as block_error:
                lk.evaluate_drift_dual(system, block)
            with pytest.raises(EvaluationError) as point_error:
                lk.evaluate_drift_dual(system, first)
            assert str(block_error.value) == str(point_error.value)
            assert block_error.value.component == point_error.value.component
            np.testing.assert_array_equal(block_error.value.point, first)
            assert type(block_error.value.__cause__) is ZeroDivisionError

    @pytest.mark.parametrize(
        "drift, x",
        [("eq a = a*a\neq b = a", [1e200, 1.0]), ("eq a = 1e300*a*a - 1e300*b*b\neq b = a", [1e10, 1e10])],
        ids=["overflow", "inf_minus_inf"],
    )
    def test_overflow_is_as_silent_as_a_point(self, drift, x):
        # a float product overflows to inf without a warning; so must a block's
        system = lk.parse_model(two_var(drift))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_block_matches_points(system, np.array([x]))
            self.assert_block_matches_points(system, np.array([x, x]))

    def test_shape_validation(self, rational3):
        for bad in (np.ones(4), np.ones((2, 4)), np.ones((2, 2, 3)), np.float64(1.0)):
            with pytest.raises(ValueError, match="length 3"):
                lk.evaluate_drift_dual(rational3, bad)


class TestBatchedDrift:
    """evaluate_drift on an (N, m) block gives each row the bits of a
    one-point call."""

    @staticmethod
    def assert_block_matches_points(system, X):
        F = lk.evaluate_drift(system, X)
        assert F.shape == X.shape and F.dtype == float
        for x, f in zip(X, F):
            assert f.tobytes() == lk.evaluate_drift(system, x).tobytes()

    def test_bundled_models_and_random_corpus(
        self, rational3, rational3_perturbed, poly4, random_corpus
    ):
        systems = [rational3, rational3_perturbed, poly4]
        systems += [system for system, _, _ in random_corpus]
        rng = np.random.Generator(np.random.PCG64(18))
        for system in systems:
            for size in (1, system.dim, 40):
                self.assert_block_matches_points(
                    system, rng.uniform(-2.0, 2.0, (size, system.dim))
                )

    def test_every_node_kind(self):
        # negative bases under odd and even powers, a constant component
        system = lk.parse_model(
            "model kinds\nvar a, b, c\n"
            "eq a = 3\neq b = c\neq c = -a + a^0 - (a*b)^3/(b^2 + 1.5)\n"
            "init a = 1\ninit b = 1\ninit c = 1\nobs a\nhorizon 1\n"
        )
        X = np.random.Generator(np.random.PCG64(4)).uniform(-2.0, 2.0, (50, 3))
        assert (X < 0).any(axis=0).all()
        self.assert_block_matches_points(system, X)

    def test_integer_powers_round_as_python_floats(self):
        # np.power differs from Python's float ** in the last bit on a few
        # percent of these values
        names = [f"x{k}" for k in range(2, 10)]
        system = lk.parse_model(
            "model powers\nvar " + ", ".join(names) + "\n"
            + "".join(f"eq {n} = {n}^{k}\n" for n, k in zip(names, range(2, 10)))
            + "".join(f"init {n} = 1\n" for n in names)
            + "obs x2\nhorizon 1\n"
        )
        X = np.random.Generator(np.random.PCG64(9)).uniform(-3.0, 3.0, (500, 8))
        assert (np.power(X, np.arange(2, 10)) != lk.evaluate_drift(system, X)).any()
        self.assert_block_matches_points(system, X)

    def test_constant_over_an_expression(self):
        # 1/(b - 1) divides a float by a column, through _Column.__rtruediv__
        system = lk.parse_model(two_var("eq a = 1/(b - 1)\neq b = a"))
        X = np.random.Generator(np.random.PCG64(6)).uniform(-2.0, 2.0, (50, 2))
        self.assert_block_matches_points(system, X)

    def test_constant_components_broadcast(self):
        system = lk.parse_model(two_var("eq a = 2*4\neq b = -1.5"))
        X = np.arange(10.0).reshape(5, 2)
        np.testing.assert_array_equal(lk.evaluate_drift(system, X), [[8.0, -1.5]] * 5)
        self.assert_block_matches_points(system, X)
        assert lk.evaluate_drift(system, np.empty((0, 2))).shape == (0, 2)

    def test_overflow_and_nan_arise_silently_as_for_a_point(self):
        # 1e300*a*a is inf and inf - inf is nan without an error, in Python
        # floats and in the block alike
        system = lk.parse_model(two_var("eq a = 1e300*a*a - 1e300*b*b\neq b = a"))
        X = np.array([[1e10, 1e10], [1.0, 2.0], [1e10, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = lk.evaluate_drift(system, X)
        assert np.isnan(F[0, 0]) and F[2, 0] == math.inf
        self.assert_block_matches_points(system, X)

    @pytest.mark.parametrize(
        "body, block, first",
        [
            # (2, 2) is singular in db/dt only, (1, 0) in da/dt: the block
            # fails first in da/dt, but the error is the first singular row's
            ("eq a = b/(a - 1)\neq b = a/(b - 2)", [[0.5, 0.5], [2.0, 2.0], [1.0, 0.0]], [2.0, 2.0]),
            ("eq a = b/(a - 1)\neq b = a/(b - 2)", [[1.0, 0.0], [2.0, 2.0]], [1.0, 0.0]),
            ("eq a = b\neq b = a^400", [[1.0, 1.0], [10.0, 1.0], [20.0, 1.0]], [10.0, 1.0]),
            ("eq a = 1/(b - 1)\neq b = a", [[0.5, 0.5], [0.0, 1.0], [2.0, 1.0]], [0.0, 1.0]),
        ],
        ids=["later_component_first", "first_row", "power_overflow", "constant_over_a_column"],
    )
    def test_error_names_the_first_singular_row(self, body, block, first):
        system = lk.parse_model(two_var(body))
        block, first = np.array(block), np.array(first)
        with pytest.raises(EvaluationError) as block_error:
            lk.evaluate_drift(system, block)
        with pytest.raises(EvaluationError) as point_error:
            lk.evaluate_drift(system, first)
        assert str(block_error.value) == str(point_error.value)
        assert block_error.value.component == point_error.value.component
        np.testing.assert_array_equal(block_error.value.point, first)
        assert type(block_error.value.__cause__) is type(point_error.value.__cause__)

    def test_shape_validation(self, rational3):
        bad = [np.ones(4), np.ones((2, 4)), np.ones((2, 2, 3)), np.float64(1.0), [1.0, 2.0]]
        bad += [np.ones(4, dtype=int), np.ones((3, 1)), np.ones(6)[::2][:2]]
        for x in bad:
            with pytest.raises(ValueError, match="length 3"):
                lk.evaluate_drift(rational3, x)


class TestCompiledDrift:
    """evaluate_drift at one point runs each system's compiled drift, built on
    its first such call; blocks and dual evaluations run the postfix programs
    kept at construction. Expression.evaluate is the reference."""

    def test_bit_parity_with_the_tree_walk(
        self, rational3, rational3_perturbed, poly4, random_corpus
    ):
        workloads = benchmark_workloads()
        systems = [rational3, rational3_perturbed, poly4]
        systems += [system for system, _, _ in random_corpus]
        # the m = 20 rational models of the benchmark's search workload
        systems += [
            lk.parse_model(workloads.rational_model_text(key))
            for key in range(workloads.SEARCH_MODELS)
        ]
        rng = np.random.Generator(np.random.PCG64(3))
        for system in systems:
            for _ in range(30):
                assert_matches_tree_walk(system, rng.uniform(-2.0, 2.0, system.dim))

    @staticmethod
    def point_kinds(x: np.ndarray) -> list:
        # one point as a list, a strided view, a read-only and a big-endian array
        read_only = x.copy()
        read_only.setflags(write=False)
        return [x.tolist(), np.repeat(x, 3)[1::3], read_only, x.astype(">f8")]

    def test_one_point_inputs_of_every_kind(self, rational3, rational3_perturbed, poly4):
        workloads = benchmark_workloads()
        systems = [rational3, rational3_perturbed, poly4]
        systems += [lk.parse_model(BIG_POWER), lk.parse_model(NON_FINITE)]
        systems += [
            lk.parse_model(workloads.oscillator_model_text(key))
            for key in range(workloads.OSCILLATOR_MODELS)
        ]
        rng = np.random.Generator(np.random.PCG64(21))
        for system in systems:
            for _ in range(20):
                x = rng.uniform(-3.0, 3.0, system.dim)
                expected = tree_walk(system, x).tobytes()
                for point in self.point_kinds(x):
                    assert lk.evaluate_drift(system, point).tobytes() == expected
            ints = rng.integers(-2, 3, system.dim)
            try:
                expected = tree_walk(system, ints.astype(float)).tobytes()
            except (ZeroDivisionError, OverflowError):
                continue
            assert lk.evaluate_drift(system, ints).tobytes() == expected

    @pytest.mark.parametrize(
        "model, x",
        [("rational3", [1.0, -3.0, 1.0]), (BIG_POWER, [10.0, 1.0]), (BIG_POWER, [-6.0, 0.0])],
        ids=["zero_denominator", "overflow", "negative_overflow"],
    )
    def test_singular_point_errors_for_every_input_kind(self, model, x):
        text = model_path(f"{model}.ode").read_text() if model == "rational3" else model
        system = lk.parse_model(text)
        x = np.array(x)
        errors = []
        for point in [x, *self.point_kinds(x)]:
            with pytest.raises(EvaluationError) as exc_info:
                lk.evaluate_drift(system, point)
            error = exc_info.value
            errors.append((str(error), error.component, error.point.tobytes(), type(error.__cause__)))
        assert errors == errors[:1] * len(errors)
        # the tree walk fails first in the component the error names
        with pytest.raises((ZeroDivisionError, OverflowError)):
            system.drift[errors[0][1]].evaluate(x.tolist())
        for expr in system.drift[: errors[0][1]]:
            expr.evaluate(x.tolist())

    def test_every_node_kind(self):
        # constant and bare-variable components, a^0, unary minus, all four operators
        system = lk.parse_model(
            "model kinds\nvar a, b, c\n"
            "eq a = 3\neq b = c\neq c = -a + a^0 - (a*b)^3/(b^2 + 1.5)\n"
            "init a = 1\ninit b = 1\ninit c = 1\nobs a\nhorizon 1\n"
        )
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(20):
            assert_matches_tree_walk(system, rng.uniform(-2.0, 2.0, 3))

    def test_four_hundred_term_sum(self):
        # CPython rejects more than 200 nested parentheses; the compiled
        # code binds every 50 levels to a temporary, so any sum compiles
        terms = " + ".join(f"{k + 1}*a*b^{k % 3}" for k in range(400))
        system = lk.parse_model(two_var(f"eq a = {terms}\neq b = a"))
        assert_matches_tree_walk(system, np.array([0.7, -1.3]))

    def test_spilled_subtree_keeps_the_operator_order(self):
        # the 61-term sum nests past the spill height and becomes a temporary;
        # the quotient to its left must still fail first, as in the tree walk
        chain = " + ".join(["b^400"] + ["b"] * 60)
        system = lk.parse_model(two_var(f"eq a = 1/(a - 1) + ({chain})\neq b = a"))
        x = np.array([1.0, 10.0])
        with pytest.raises(ZeroDivisionError):
            system.drift[0].evaluate(x.tolist())
        for evaluate in (lk.evaluate_drift, lk.evaluate_drift_dual):
            with pytest.raises(EvaluationError, match="zero denominator evaluating da/dt"):
                evaluate(system, x)
        assert_matches_tree_walk(system, np.array([2.0, 1.5]))

    def test_constants_bound_by_value(self):
        # a tree built in code may hold a numpy scalar, whose repr
        # np.float64(-1.5) does not parse back as a number
        system = lk.OdeSystem(
            name="built",
            var_names=("a", "b"),
            drift=(Mul(Constant(np.float64(-1.5)), Variable(1)), Add(Variable(0), Constant(-0.0))),
            initial_conditions=([1.0, 1.0],),
            time_horizon=1.0,
            observables=[[1.0, 0.0]],
        )
        assert_matches_tree_walk(system, np.array([0.5, -2.0]))
        assert lk.evaluate_drift(system, np.array([0.5, -2.0]))[0] == 3.0

    @pytest.mark.parametrize(
        "body, x, cause, error",
        [
            ("eq a = b\neq b = a/(b - 1)", [2.0, 1.0], "zero denominator", ZeroDivisionError),
            ("eq a = b\neq b = a^400", [10.0, 1.0], "overflow", OverflowError),
        ],
        ids=["zero_denominator", "overflow"],
    )
    def test_errors_keep_component_point_and_message(self, body, x, cause, error):
        system = lk.parse_model(two_var(body))
        x = np.array(x)
        for evaluate, lift in (
            (lk.evaluate_drift, np.ndarray.tolist),
            (lk.evaluate_drift_dual, dual_inputs),
        ):
            with pytest.raises(error):
                system.drift[1].evaluate(lift(x))
            with pytest.raises(EvaluationError) as exc_info:
                evaluate(system, x)
            assert str(exc_info.value) == f"{cause} evaluating db/dt at x={x.tolist()}"
            assert exc_info.value.component == 1
            np.testing.assert_array_equal(exc_info.value.point, x)
            assert type(exc_info.value.__cause__) is error

    def test_component_index_after_components_without_statements(self):
        # da/dt and db/dt are a variable and a constant, which cannot fail,
        # and the failing third component must still be the one named
        system = lk.parse_model(
            "model skip\nvar a, b, c\neq a = b\neq b = 2\neq c = 1/(a - 1)\n"
            "init a = 0\ninit b = 0\ninit c = 0\nobs a\nhorizon 1\n"
        )
        x = np.array([1.0, 0.5, -2.0])
        block = np.array([[0.0, 1.0, 1.0], x, [1.0, 3.0, 3.0]])
        for evaluate, argument in (
            (lk.evaluate_drift, x),
            (lk.evaluate_drift_dual, x),
            (lk.evaluate_drift_dual, block),
        ):
            with pytest.raises(EvaluationError) as exc_info:
                evaluate(system, argument)
            assert exc_info.value.component == 2
            np.testing.assert_array_equal(exc_info.value.point, x)
            assert str(exc_info.value) == "zero denominator evaluating dc/dt at x=[1.0, 0.5, -2.0]"
            assert type(exc_info.value.__cause__) is ZeroDivisionError

    def test_pickle_round_trip(self, rational3_perturbed):
        # pickling, copying and replace all build the copy through the
        # constructor, so it compiles its own drift on its first one-point call
        system = rational3_perturbed
        x = np.array([0.73, 1.21, 0.4])
        f = lk.evaluate_drift(system, x)
        f_ref, J_ref = lk.evaluate_drift_dual(system, x)
        for again in (
            pickle.loads(pickle.dumps(system)),
            copy.deepcopy(system),
            copy.copy(system),
            dataclasses.replace(system),
        ):
            assert type(again) is lk.OdeSystem and again == system
            assert again.to_text() == system.to_text()
            assert again.drift == system.drift
            assert "_drift_function" not in vars(again)
            f_dual, J = lk.evaluate_drift_dual(again, x)
            assert "_drift_function" not in vars(again)
            assert lk.evaluate_drift(again, x).tobytes() == f.tobytes()
            assert vars(again)["_drift_function"] is not vars(system)["_drift_function"]
            assert f_dual.tobytes() == f_ref.tobytes()
            assert J.tobytes() == J_ref.tobytes()

    @staticmethod
    def count_compiles(monkeypatch) -> list:
        compiled = []
        compile_drift = lk.model._compile_drift

        def counting(*args):
            compiled.append(args[0])
            return compile_drift(*args)

        monkeypatch.setattr(lk.model, "_compile_drift", counting)
        return compiled

    def test_compiled_on_the_first_one_point_call(self, monkeypatch):
        compiled = self.count_compiles(monkeypatch)
        system = lk.parse_model(model_path("rational3.ode").read_text())
        x = np.array([0.73, 1.21, 0.4])
        lk.evaluate_drift(system, np.array([x, 2 * x]))
        lk.evaluate_drift_dual(system, x)
        lk.evaluate_drift_dual(system, np.array([x, 2 * x]))
        assert compiled == []
        lk.evaluate_drift(system, x)
        assert compiled == ["rational3"]
        lk.evaluate_drift(system, 2 * x)
        lk.evaluate_drift(system, np.array([x, 2 * x]))
        lk.evaluate_drift_dual(system, x)
        assert compiled == ["rational3"]

    def test_search_pipeline_compiles_nothing(self, monkeypatch):
        # parse, basis and tolerance search evaluate only duals on blocks
        compiled = self.count_compiles(monkeypatch)
        workloads = benchmark_workloads()
        system = lk.parse_model(workloads.rational_model_text(0))
        basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=0))
        config = lk.EpsilonSearchConfig(cutoff_size=system.dim // 2)
        result = lk.find_epsilon(basis, system.observables, config)
        assert result.lump.dim <= system.dim // 2
        assert compiled == []

    def test_postfix_rejects_a_non_node(self):
        with pytest.raises(TypeError, match="not an expression node: 2.0"):
            lk.model._postfix(Add(Variable(0), 2.0))

    def test_each_tree_is_walked_once(self, monkeypatch):
        # rational3 folds no constant: its m = 3 drift trees and p = 1
        # observable are walked once each by parsing; evaluation on points,
        # blocks and duals, and the compile, read the programs kept then
        walked = []
        postfix = lk.model._postfix

        def counting(expr):
            walked.append(expr)
            return postfix(expr)

        monkeypatch.setattr(lk.model, "_postfix", counting)
        system = lk.parse_model(model_path("rational3.ode").read_text())
        x = np.array([0.73, 1.21, 0.4])
        for points in (x, np.array([x, 2 * x])):
            lk.evaluate_drift(system, points)
            lk.evaluate_drift_dual(system, points)
        assert "_drift_function" in vars(system)
        assert len(walked) == system.dim + len(system.observables) == 4
        assert all(map(operator.is_, walked[1:], system.drift))  # the obs line, then each drift


class TestDeepNesting:
    """Lines nested deeper than Python's recursion limit are model errors,
    never a RecursionError, and a sum of any length is read by every reader
    of the tree."""

    @pytest.mark.parametrize(
        "text",
        [
            DEEP_NESTING["parentheses"],
            DEEP_NESTING["parentheses_5000"],
            two_var("eq a = " + "-" * 3000 + "b\neq b = a"),
        ],
        ids=["parentheses", "parentheses_5000", "minuses"],
    )
    def test_nested_expression(self, text):
        with pytest.raises(ModelSyntaxError) as exc_info:
            lk.parse_model(text)
        assert str(exc_info.value) == "line 3: expression nests too deeply"
        assert exc_info.value.line == 3

    def test_moderate_nesting_parses(self):
        system = lk.parse_model(two_var("eq a = " + "(" * 100 + "b" + ")" * 100 + "\neq b = a"))
        assert system.drift[0] == Variable(1)

    def test_long_drift_sum(self):
        # the parser reads a sum in a loop, and the drift compiler keeps its own stack
        system = lk.parse_model(DEEP_NESTING["drift_sum"])
        x = np.array([1.0, 2.0])
        assert lk.evaluate_drift(system, x).tolist() == [6000.0, 1.0]
        f, J = lk.evaluate_drift_dual(system, x)
        assert f.tolist() == [6000.0, 1.0]
        assert J.tolist() == [[0.0, 3000.0], [1.0, 0.0]]

    def test_long_observable_sum(self):
        system = lk.parse_model(DEEP_NESTING["observable_sum"])
        assert system.observables.tolist() == [[3000.0, 0.0]]

    def test_every_tree_reader_takes_a_long_sum(self):
        text = DEEP_NESTING["drift_sum"]
        system, again = lk.parse_model(text), lk.parse_model(text)
        assert system.drift[0].evaluate([1.0, 2.0]) == 6000.0
        assert system == again and system.drift[0] == again.drift[0]
        assert hash(system.drift[0]) == hash(again.drift[0])
        assert pickle.loads(pickle.dumps(system)) == system
        assert copy.deepcopy(system) == system
        for text in (text, DEEP_NESTING["observable_sum"]):
            system = lk.parse_model(text)
            assert lk.parse_model(system.to_text()) == system


def numpy_constant_system():
    """VALID with ``eq a = 2.0 * b``, its constant a numpy scalar as a
    program, not the parser, may build it."""
    system = lk.parse_model(VALID)
    drift = (Mul(Constant(np.float64(2.0)), Variable(1)), system.drift[1])
    return dataclasses.replace(system, drift=drift)


@pytest.mark.parametrize(
    "make, position",
    [
        (lambda: lk.parse_model(DEEP_NESTING["drift_sum"]), None),
        (lambda: lk.parse_model(variant("eq a = b", "eq a = 1e200*1e200*a")), (3, 13)),
        (lambda: lk.parse_model(variant("obs a", "obs b + (a - a + 10)^400")), (7, None)),
        (
            lambda: lk.parse_model(variant("obs a", "obs b + (a - a + 1e200)*(a - a + 1e200)*b")),
            (7, None),
        ),
        (numpy_constant_system, None),
    ],
    ids=["deep_repr", "folded_overflow", "observable_power", "observable_product", "numpy_constant"],
)
def test_model_prints_and_writes_back_or_names_its_line(make, position):
    """A model's repr and text are readable at any depth and for any float
    constant, and its text parses back to it; a model whose constants leave
    the float range is a syntax error on the line at fault, never a model
    holding inf, never a raw OverflowError."""
    if position is not None:
        with pytest.raises(ModelSyntaxError, match="overflow in") as exc_info:
            make()
        assert (exc_info.value.line, exc_info.value.column) == position
        return
    system = make()
    try:
        text = repr(system)
    except RecursionError:  # fail fast: pytest's report of it compares each frame's locals
        text = "RecursionError"
    assert text.startswith(f"OdeSystem(name={system.name!r}, ")
    assert lk.parse_model(system.to_text()) == system


@pytest.mark.parametrize(
    "expr, text",
    [
        (Add(Variable(0), Constant(2.0)), "Add(left=Variable(index=0), right=Constant(value=2.0))"),
        (IntPow(Neg(Variable(1)), 3), "IntPow(base=Neg(operand=Variable(index=1)), exponent=3)"),
        (
            Div(Sub(Constant(-1.5), Variable(0)), Mul(Variable(1), Variable(0))),
            "Div(left=Sub(left=Constant(value=-1.5), right=Variable(index=0)), "
            "right=Mul(left=Variable(index=1), right=Variable(index=0)))",
        ),
        (Constant(np.float64(2.0)), "Constant(value=np.float64(2.0))"),
    ],
)
def test_repr_is_the_dataclass_form(expr, text):
    assert repr(expr) == text
