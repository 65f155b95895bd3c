"""Model text format, expression evaluation, and forward-mode derivatives."""

import numpy as np
import pytest

import lumpkit as lk
from lumpkit.errors import EvaluationError, ModelSyntaxError, ModelValidationError
from lumpkit.model import Add, Constant, Div, Variable

from conftest import central_difference_jacobian


def two_var(body: str) -> str:
    return (
        "model probe\nvar a, b\n"
        f"{body}\n"
        "init a = 1\ninit b = 1\nobs a\nhorizon 1\n"
    )


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

    def test_constant_subtrees_fold_to_one_constant(self):
        system = lk.parse_model(two_var("eq a = 2^3 * -(4/8) - 1 + a/(2-2+1)\neq b = a"))
        assert system.drift[0] == Add(Constant(-5.0), Div(Variable(0), Constant(1.0)))

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

    @pytest.mark.parametrize("horizon_line", ["horizon 0", "horizon -2"])
    def test_bad_horizon_rejected(self, horizon_line):
        text = (
            "model m\nvar a, b\neq a = b\neq b = a\n"
            f"init a = 1\ninit b = 1\nobs a\n{horizon_line}\n"
        )
        with pytest.raises(ModelValidationError, match="horizon"):
            lk.parse_model(text)

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

    def test_dual_zero_denominator_raises_evaluation_error(self, rational3):
        with pytest.raises(EvaluationError):
            lk.evaluate_drift_dual(rational3, np.array([1.0, -3.0, 1.0]))
