"""Adaptive integrator, reduced systems, error bounds, and reports."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lumpkit as lk
from lumpkit.cli import main
from lumpkit.errors import (
    DimensionMismatchError,
    EvaluationError,
    IntegrationError,
    PseudoinverseError,
    SamplingError,
)
from lumpkit.simulate import _A, _E, _P, _call_drift, _initial_step, _rms

from conftest import BIG_POWER, NON_FINITE, benchmark_workloads, model_path

REFERENCE_RAW_L = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0]])
REFERENCE_LBAR = np.array([[1.0, 0.0], [0.0, 0.2], [0.0, 0.4]])

# endpoint of the plain rational model from (1,1,1) to t=1.75, computed with
# a fixed-step classic RK4 at h=1e-4 (17500 steps)
PLAIN_ENDPOINT = np.array(
    [2.516815399284407, 4.260970818887071, -1.725634568522338]
)


def per_point_lipschitz(system, domain, n_samples):
    """Test-only oracle: the Lipschitz estimate with one draw and one dual
    evaluation per point."""
    rng = np.random.Generator(np.random.PCG64(domain.seed))
    limit = domain.max_resamples if domain.max_resamples is not None else 100 * system.dim
    worst, collected, failures = 0.0, 0, 0
    while collected < n_samples:
        x = rng.uniform(domain.lower, domain.upper)
        try:
            _, J = lk.evaluate_drift_dual(system, x)
        except EvaluationError:
            failures += 1
            if failures > limit:
                raise SamplingError("too many singular points") from None
            continue
        failures = 0
        collected += 1
        worst = max(worst, float(np.linalg.norm(J, 2)))
    return 1.1 * worst


def per_point_sample(traj, times):
    """Test-only oracle: the dense output one time at a time, as it stood
    before sampling was vectorised."""
    rows = []
    for t in times:
        t = float(t)
        if not (0.0 <= t <= traj.horizon):
            raise ValueError(f"time {t} outside [0, {traj.horizon}]")
        k = int(np.searchsorted(traj.times, t, side="right") - 1)
        if k >= len(traj.steps):
            rows.append(traj.states[-1].copy())
        elif t == traj.times[k]:
            rows.append(traj.states[k].copy())
        else:
            t0, h = float(traj.times[k]), float(traj.steps[k])
            powers = ((t - t0) / h) ** np.arange(1, 5)
            rows.append(traj.states[k] + h * (traj.stages[k].T @ (_P @ powers)))
    return np.array(rows).reshape(-1, traj.dim)


def simulate_long_oscillators():
    """The 8 seeded m = 10 oscillator models of the benchmark's simulate_long
    workload (perfbench/workloads.py)."""
    workloads = benchmark_workloads()
    return [
        lk.parse_model(workloads.oscillator_model_text(key))
        for key in range(workloads.OSCILLATOR_MODELS)
    ]


def rk4(drift, x0, horizon, steps):
    """Independent fixed-step oracle."""
    y = np.asarray(x0, dtype=float).copy()
    h = horizon / steps
    for _ in range(steps):
        k1 = drift(y)
        k2 = drift(y + 0.5 * h * k1)
        k3 = drift(y + 0.5 * h * k2)
        k4 = drift(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def reference_integrate(drift, x0, horizon, cfg):
    """Test-only oracle: the Dormand-Prince step loop as it stood before its
    bookkeeping was trimmed (numpy stage times, np.mean error norm, copies of
    every state). Returns times, states and (t0, h, y0, stages) per step."""
    c = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
    y = np.asarray(x0, dtype=float).copy()
    n = y.size
    t = 0.0
    f_cur = _call_drift(drift, y, t)
    h = cfg.initial_step if cfg.initial_step is not None else _initial_step(drift, y, f_cur, horizon, cfg)
    h = min(h, cfg.max_step, horizon)
    times, states, segments = [0.0], [y.copy()], []
    stages = np.empty((7, n))
    rejected_streak = 0
    while t < horizon:
        final_step = h >= horizon - t
        if final_step:
            h = horizon - t
        if h <= 16 * np.finfo(float).eps * max(abs(t), 1.0):
            raise IntegrationError("step size underflow", time_reached=t)
        stages[0] = f_cur
        for s in range(1, 7):
            y_stage = y + h * (stages[:s].T @ _A[s])
            stages[s] = _call_drift(drift, y_stage, t + c[s] * h)
        y_new = y + h * (stages[:6].T @ _A[6])
        stages[6] = _call_drift(drift, y_new, t + h)
        err_vec = h * (stages.T @ _E)
        scale = np.maximum(cfg.abs_tol, cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new)))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            segments.append((t, h, y.copy(), stages.copy()))
            t = horizon if final_step else t + h
            y = y_new
            f_cur = stages[6].copy()
            times.append(t)
            states.append(y.copy())
            factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err**-0.2)
            if rejected_streak > 0:
                factor = min(factor, 1.0)
            rejected_streak = 0
        else:
            factor = max(0.2, 0.9 * err**-0.2)
            rejected_streak += 1
        h = min(h * factor, cfg.max_step)
    return np.array(times), np.vstack(states), segments


def assert_same_steps(traj, times, states, segments):
    """traj has the bits of a reference_integrate run: every time, state,
    step size and stage."""
    t0s, hs, y0s, stages = zip(*segments)
    # each reference step starts at the time and state before it, as steps and stages assume
    assert np.array(t0s).tobytes() == times[:-1].tobytes()
    assert np.array(y0s).tobytes() == states[:-1].tobytes()
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()
    assert traj.steps.tobytes() == np.array(hs).tobytes()
    assert traj.stages.tobytes() == np.array(stages).tobytes()


def oscillator_chain(seed: int, m: int = 10) -> lk.OdeSystem:
    """m/2 weakly damped rotations, each pair coupled to random states
    through terms whose denominators 1 + x^2 never vanish."""
    rng = np.random.Generator(np.random.PCG64(seed))
    xs = [f"x{k}" for k in range(m)]
    lines = [f"model chain{seed}", "var " + ", ".join(xs)]
    for u, v in zip(xs[::2], xs[1::2]):
        w = float(rng.uniform(0.5, 1.5))
        a, b = (xs[int(k)] for k in rng.integers(0, m, 2))
        g = float(rng.uniform(-0.3, 0.3))
        lines.append(f"eq {u} = -0.05*{u} + {w!r}*{v} + {g!r}*{a}*{b}/(1 + {b}^2)")
        lines.append(f"eq {v} = {-w!r}*{u} - 0.05*{v} + {g!r}*{b}/(1 + {a}^2)")
    lines += [f"init {x} = {float(rng.uniform(-1.0, 1.0))!r}" for x in xs]
    lines += ["obs x0", "horizon 10"]
    return lk.parse_model("\n".join(lines) + "\n")


class TestIntegrate:
    def test_scalar_exponential_decay(self):
        traj = lk.integrate(lambda y: -y, np.array([1.0]), 1.0)
        assert abs(traj.states[-1][0] - math.exp(-1.0)) <= 1e-6

    def test_harmonic_oscillator_period(self):
        traj = lk.integrate(
            lambda y: np.array([y[1], -y[0]]), np.array([1.0, 0.0]), 2 * math.pi
        )
        np.testing.assert_allclose(traj.states[-1], [1.0, 0.0], rtol=0, atol=1e-5)
        energies = np.sum(traj.states**2, axis=1)
        assert np.max(np.abs(energies - 1.0)) <= 1e-5

    def test_rational_model_against_rk4_oracles(self, rational3, rational3_perturbed):
        for system, frozen in ((rational3, PLAIN_ENDPOINT), (rational3_perturbed, None)):
            drift = lambda x: lk.evaluate_drift(system, x)
            traj = lk.integrate(drift, np.array([1.0, 1.0, 1.0]), 1.75)
            live = rk4(drift, np.array([1.0, 1.0, 1.0]), 1.75, 1750)
            np.testing.assert_allclose(traj.states[-1], live, rtol=0, atol=1e-5)
            if frozen is not None:
                np.testing.assert_allclose(traj.states[-1], frozen, rtol=0, atol=1e-5)

    def test_lands_exactly_on_horizon(self, rational3):
        traj = lk.integrate(
            lambda x: lk.evaluate_drift(rational3, x), np.ones(3), 1.75
        )
        assert traj.times[-1] == 1.75
        assert traj.horizon == 1.75

    def test_tightening_tolerance_reduces_error(self):
        drift = lambda y: -y
        errors = []
        for rel_tol in (1e-4, 1e-6, 1e-8):
            traj = lk.integrate(
                drift, np.array([1.0]), 1.0, lk.SolverConfig(rel_tol=rel_tol)
            )
            errors.append(abs(traj.states[-1][0] - math.exp(-1.0)))
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]

    def test_dense_output_between_steps(self, rational3):
        drift = lambda x: lk.evaluate_drift(rational3, x)
        coarse = lk.integrate(drift, np.ones(3), 1.75)
        fine = lk.integrate(
            drift, np.ones(3), 1.75, lk.SolverConfig(rel_tol=1e-10, abs_tol=1e-12)
        )
        for t in np.linspace(0.0, 1.75, 57):
            np.testing.assert_allclose(
                coarse.at(float(t)), fine.at(float(t)), rtol=0, atol=1e-5
            )

    def test_at_returns_nodes_exactly(self):
        traj = lk.integrate(lambda y: -y, np.array([1.0]), 1.0)
        for k in (0, len(traj.times) // 2, -1):
            t = float(traj.times[k])
            np.testing.assert_array_equal(traj.at(t), traj.states[k])

    def test_at_rejects_times_outside_range(self):
        traj = lk.integrate(lambda y: -y, np.array([1.0]), 1.0)
        with pytest.raises(ValueError):
            traj.at(-0.1)
        with pytest.raises(ValueError):
            traj.at(1.1)

    def test_sample_matches_at(self):
        traj = lk.integrate(lambda y: -y, np.array([1.0]), 1.0)
        ts = np.linspace(0.0, 1.0, 7)
        sampled = traj.sample(ts)
        for k, t in enumerate(ts):
            np.testing.assert_array_equal(sampled[k], traj.at(float(t)))

    def test_sample_of_no_times_is_empty(self):
        traj = lk.integrate(lambda y: -y, np.array([1.0, 2.0]), 1.0)
        for times in ([], np.array([])):
            sampled = traj.sample(times)
            assert sampled.shape == (0, 2) and sampled.dtype == float

    def test_finite_time_blowup_reports_stiffness(self):
        with pytest.raises(IntegrationError, match="stiff") as exc_info:
            lk.integrate(lambda y: y**2, np.array([1.0]), 1.2)
        assert 0.9 < exc_info.value.time_reached < 1.2

    def test_final_sliver_is_no_underflow(self):
        # steps of 0.025 leave a last step of about 3e-15 before t = 2, below
        # the underflow threshold, but a step that lands on the horizon ends the run
        system = lk.parse_model(
            "model slow\nvar a, b\neq a = -0.001*a\neq b = a\n"
            "init a = 1\ninit b = 0\nobs b\nhorizon 2\n"
        )
        config = lk.SolverConfig(max_step=0.025, initial_step=0.025)
        drift = lambda x: lk.evaluate_drift(system, x)
        traj = lk.integrate(drift, system.initial_conditions[0], 2.0, config)
        assert traj.times[-1] == 2.0 and traj.steps[-1] < 1e-14

    @pytest.mark.parametrize("horizon", [2e-16, 1e-15, 3.5e-15])
    def test_horizon_below_underflow_threshold(self, rational3, horizon):
        drift = lambda x: lk.evaluate_drift(rational3, x)
        traj = lk.integrate(drift, rational3.initial_conditions[0], horizon)
        assert traj.times.tolist() == [0.0, horizon]

    def test_step_budget(self):
        with pytest.raises(IntegrationError, match="budget") as exc_info:
            lk.integrate(
                lambda y: np.array([y[1], -y[0]]),
                np.array([1.0, 0.0]),
                1000.0,
                lk.SolverConfig(max_steps=10),
            )
        assert exc_info.value.time_reached < 1000.0

    @pytest.mark.parametrize(
        "x0, drift",
        (([math.inf, 1.0], lambda y: -y), ([1.0, 1.0], lambda y: np.array([math.nan, 0.0]))),
        ids=("inf_state", "nan_drift"),
    )
    def test_non_finite_start(self, x0, drift):
        with pytest.raises(IntegrationError, match=r"non-finite start.*state=\[") as exc_info:
            lk.integrate(drift, np.array(x0), 1.0, lk.SolverConfig(max_steps=10))
        assert exc_info.value.time_reached == 0.0

    def test_overflowing_first_step_scale(self):
        # f(x0) = 1e300 is finite, but divided by the error scale its norm
        # overflows, which used to make the first step guess 0 and divide by it
        system = lk.parse_model(NON_FINITE)
        with pytest.raises(IntegrationError, match="first step guess overflows") as exc_info:
            lk.integrate(lambda x: lk.evaluate_drift(system, x), np.array([1.0, 1.0]), 1.0)
        assert exc_info.value.time_reached == 0.0
        assert str(exc_info.value).endswith(", inf")

    def test_flat_drift_first_step(self):
        # no derivative scale to go by: the first step is the 1e-6 floor
        traj = lk.integrate(np.zeros_like, np.array([1.0, -2.0]), 1.0)
        assert traj.steps[0] == 1e-6
        np.testing.assert_array_equal(traj.states[-1], [1.0, -2.0])

    def test_singular_drift_becomes_integration_error(self, rational3):
        with pytest.raises(IntegrationError):
            lk.integrate(
                lambda x: lk.evaluate_drift(rational3, x),
                np.array([1.0, -3.0, 1.0]),
                1.0,
            )

    def test_stage_failure_reports_a_python_float_time(self):
        # calls 1 and 2 are f(x0) and the initial step probe; call 4 is the
        # second stage of the first step, at t = 3/10 h
        calls = []

        def drift(y):
            calls.append(y)
            if len(calls) == 4:
                raise EvaluationError("singular", component=0, point=y)
            return -y

        with pytest.raises(IntegrationError) as exc_info:
            lk.integrate(drift, np.array([1.0, 2.0]), 1.0)
        time_reached = exc_info.value.time_reached
        assert type(time_reached) is float and 0.0 < time_reached < 1.0
        assert "np.float64" not in str(exc_info.value)
        assert str(exc_info.value).startswith(f"drift evaluation failed at t={time_reached!r}, ")

    def test_fsal_stage_failure_reports_the_end_of_the_step(self):
        # with a given first step there is no probe: call 1 is f(x0) and calls
        # 2-7 are the stages of the first step, the last at (t+h, y_new)
        calls = []

        def drift(y):
            calls.append(y)
            if len(calls) == 7:
                raise EvaluationError("singular", component=0, point=y)
            return -y

        with pytest.raises(IntegrationError) as exc_info:
            lk.integrate(drift, np.array([1.0, 2.0]), 1.0, lk.SolverConfig(initial_step=0.1))
        assert type(exc_info.value.time_reached) is float
        assert exc_info.value.time_reached == 0.1
        assert str(exc_info.value) == (
            f"drift evaluation failed at t=0.1, state={calls[-1].tolist()}: singular"
        )

    def test_wrong_length_at_a_later_stage(self):
        # numpy would broadcast the length-1 vector into the stage row silently
        calls = []

        def drift(y):
            calls.append(y)
            return -y if len(calls) < 6 else np.array([1.0])

        with pytest.raises(DimensionMismatchError, match="wrong length"):
            lk.integrate(drift, np.array([1.0, 2.0]), 1.0)
        assert len(calls) == 6

    def test_six_drift_calls_per_step(self):
        # FSAL: a step reuses f at its start and ends with f(t+h, y_new)
        calls = []

        def drift(y):
            calls.append(y)
            return -y

        # no step of this run is rejected
        traj = lk.integrate(drift, np.array([1.0, 2.0]), 3.0, lk.SolverConfig(initial_step=0.1))
        assert len(traj.steps) > 5
        assert len(calls) == 1 + 6 * len(traj.steps)
        # the last call of each step evaluates the state the step ends at
        np.testing.assert_array_equal(np.array(calls[6::6]), traj.states[1:])

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            lk.integrate(lambda y: -y, np.array([1.0]), 0.0)
        with pytest.raises(DimensionMismatchError):
            lk.integrate(lambda y: -y, np.ones((2, 2)), 1.0)
        with pytest.raises(DimensionMismatchError):
            lk.integrate(lambda y: np.ones(3), np.ones(2), 1.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, -math.inf])
    def test_horizon_must_be_finite(self, horizon):
        # rejected before the first drift call, not after the step budget
        calls = []
        with pytest.raises(ValueError, match="positive and finite"):
            lk.integrate(
                lambda y: calls.append(y) or -y,
                np.array([1.0]),
                horizon,
                lk.SolverConfig(max_steps=20000),
            )
        assert calls == []

    def test_solver_config_validation(self):
        for kwargs in (
            dict(rel_tol=0.0),
            dict(abs_tol=-1.0),
            dict(initial_step=0.0),
            dict(max_step=0.0),
            dict(initial_step=2.0, max_step=1.0),
            dict(max_steps=0),
        ):
            with pytest.raises(ValueError):
                lk.SolverConfig(**kwargs)

    def test_equality_compares_arrays_by_value(self):
        def rotation(horizon):
            return lk.integrate(lambda y: np.array([y[1], -y[0]]), np.array([1.0, 0.0]), horizon)

        traj = rotation(3.0)
        assert traj == rotation(3.0)
        assert traj != rotation(2.0)
        assert traj != dataclasses.replace(traj, stages=traj.stages * 2.0)

    def test_arrays_are_read_only(self):
        traj = lk.integrate(lambda y: -y, np.array([1.0, 2.0]), 1.0)
        assert traj.steps.shape == (traj.times.size - 1,)
        assert traj.stages.shape == (traj.steps.size, 7, 2)
        for field in dataclasses.fields(traj):
            assert not getattr(traj, field.name).flags.writeable


class TestStepLoopParity:
    """integrate matches the untrimmed step loop of reference_integrate bit
    for bit: every time, state, step size and stage."""

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-9])
    def test_models(self, rel_tol, rational3, rational3_perturbed, poly4, random_corpus):
        systems = [rational3, rational3_perturbed, poly4, oscillator_chain(0), oscillator_chain(1)]
        systems += [system for system, _, _ in random_corpus]
        config = lk.SolverConfig(rel_tol=rel_tol, abs_tol=1e-12)
        underflows = 0
        for system in systems:
            drift = lambda x: lk.evaluate_drift(system, x)
            x0, horizon = system.initial_conditions[0], system.time_horizon
            try:
                times, states, segments = reference_integrate(drift, x0, horizon, config)
            except IntegrationError as exc:
                # a random polynomial system that blows up before the horizon
                with pytest.raises(IntegrationError, match="underflow") as exc_info:
                    lk.integrate(drift, x0, horizon, config)
                assert exc_info.value.time_reached == exc.time_reached
                underflows += 1
                continue
            assert_same_steps(lk.integrate(drift, x0, horizon, config), times, states, segments)
        assert underflows < len(systems) // 4

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-9])
    def test_reduced_drift(self, rel_tol, tmp_path, rational3, rational3_perturbed, poly4):
        # rows of `lumpkit lump --epsilon 0.1` on the bundled models, CLI seeds 0-3
        config = lk.SolverConfig(rel_tol=rel_tol, abs_tol=1e-12)
        for system in (rational3, rational3_perturbed, poly4):
            name = system.name
            for seed in range(4):
                out = tmp_path / f"{name}-{seed}"
                argv = ["lump", "--model", str(model_path(f"{name}.ode")), "--out", str(out)]
                assert main(argv + ["--seed", str(seed), "--epsilon", "0.1"]) == 0
                L = np.array(json.loads((out / "L.json").read_text())["matrix"])
                drift = lk.build_reduced_drift(system, L)
                x0, horizon = L @ system.initial_conditions[0], system.time_horizon
                times, states, segments = reference_integrate(drift, x0, horizon, config)
                traj = lk.integrate(drift, x0, horizon, config)
                assert_same_steps(traj, times, states, segments)

    @given(
        st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=64),
        st.sampled_from([1e-150, 1e-5, 1.0, 1e5, 1e150]),
    )
    def test_error_norm_matches_numpy_mean(self, values, scale):
        q = np.array(values) * scale
        expected = np.sqrt(np.mean(q**2))
        assert np.float64(_rms(q)).tobytes() == expected.tobytes()


# the 5th-order weights of the Dormand-Prince pair, spelled out rather than
# read from the solver's tableau
B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])


class TestStageSums:
    """The stage sums of integrate and the products of build_reduced_drift
    have the bits of plain matrix products."""

    @staticmethod
    def systems_and_rows(rational3, rational3_perturbed, poly4):
        # bundled models with the rows of approximate_lump at epsilon 0.1, and
        # two simulate_long oscillators with their benchmark rows
        for system in (rational3, rational3_perturbed, poly4):
            basis = lk.sample_jacobian_basis(system, lk.default_domain(system, seed=0))
            yield system, lk.approximate_lump(basis, system.observables, 0.1).matrix
        workloads = benchmark_workloads()
        for key, system in enumerate(simulate_long_oscillators()[:2]):
            rows = workloads.oscillator_rows(key, system.observables)
            yield system, lk.LumpingMatrix.from_rows(rows, observable_rank=1).matrix

    def test_accepted_steps(self, rational3, rational3_perturbed, poly4):
        config = lk.SolverConfig(rel_tol=1e-9, abs_tol=1e-12)
        for system, _ in self.systems_and_rows(rational3, rational3_perturbed, poly4):
            drift = lambda x: lk.evaluate_drift(system, x)
            traj = lk.integrate(drift, system.initial_conditions[0], system.time_horizon, config)
            assert traj.steps.size > 10
            for k, (h, stages) in enumerate(zip(traj.steps, traj.stages)):
                step = traj.states[k] + h * (stages[:6].T @ B5)
                assert step.tobytes() == traj.states[k + 1].tobytes()
                assert stages[6].tobytes() == drift(traj.states[k + 1]).tobytes()

    def test_reduced_drift(self, rational3, rational3_perturbed, poly4):
        rng = np.random.Generator(np.random.PCG64(19))
        for system, L in self.systems_and_rows(rational3, rational3_perturbed, poly4):
            reduced = lk.build_reduced_drift(system, L)
            for y in rng.uniform(-2.0, 2.0, (20, L.shape[0])):
                expected = L @ lk.evaluate_drift(system, L.T @ y)
                assert reduced(y).tobytes() == expected.tobytes()


class TestDenseOutput:
    """Trajectory.sample evaluates all times at once with the bits of the
    per-point dense output of per_point_sample."""

    @staticmethod
    def assert_sample_matches_points(traj, times):
        sampled = traj.sample(times)
        assert sampled.shape == (len(times), traj.dim)
        assert sampled.tobytes() == per_point_sample(traj, times).tobytes()
        for t, row in zip(times, sampled):
            assert traj.at(t).tobytes() == row.tobytes()

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-9])
    def test_models(self, rel_tol, rational3, rational3_perturbed, poly4):
        systems = [rational3, rational3_perturbed, poly4, *simulate_long_oscillators()]
        config = lk.SolverConfig(rel_tol=rel_tol, abs_tol=1e-12)
        rng = np.random.Generator(np.random.PCG64(17))
        for system in systems:
            drift = lambda x: lk.evaluate_drift(system, x)
            T = system.time_horizon
            traj = lk.integrate(drift, system.initial_conditions[0], T, config)
            grid = np.linspace(0.0, T, 200)
            unsorted = rng.uniform(0.0, T, 50)
            knots = traj.times[rng.integers(0, traj.times.size, 10)]
            mixed = np.concatenate([unsorted, unsorted[:7], knots, grid[::-20], [T, 0.0, T]])
            for times in (grid, traj.times, mixed, [0.0], [T]):
                self.assert_sample_matches_points(traj, times)

    def test_knots_and_horizon_give_the_stored_states(self, rational3):
        traj = lk.integrate(lambda x: lk.evaluate_drift(rational3, x), np.ones(3), 1.75)
        np.testing.assert_array_equal(traj.sample(traj.times[::-1]), traj.states[::-1])
        sampled = traj.sample([1.75])
        sampled[0, 0] = -1.0  # a copy, not a view of the stored states
        assert traj.states[-1, 0] != -1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, math.inf])
    def test_times_outside_the_horizon_raise(self, bad):
        traj = lk.integrate(lambda y: -y, np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ValueError, match=f"time {bad} outside"):
            traj.sample([0.5, bad, 0.25])
        with pytest.raises(ValueError, match="outside"):
            traj.at(bad)


class TestReducedDrift:
    def test_perturbed_reduced_drift_golden(self, rational3_perturbed):
        reduced = lk.build_reduced_drift(
            rational3_perturbed, REFERENCE_RAW_L, REFERENCE_LBAR
        )
        np.testing.assert_allclose(
            reduced(np.array([1.0, 1.0])), [0.502, -1.0], rtol=0, atol=1e-12
        )

    def test_plain_reduced_drift_golden(self, rational3):
        reduced = lk.build_reduced_drift(rational3, REFERENCE_RAW_L, REFERENCE_LBAR)
        np.testing.assert_allclose(
            reduced(np.array([1.0, 1.0])), [0.5, -1.0], rtol=0, atol=1e-12
        )

    def test_identity_reduction_is_the_drift(self, rational3_perturbed):
        reduced = lk.build_reduced_drift(rational3_perturbed, np.eye(3))
        rng = np.random.Generator(np.random.PCG64(21))
        for _ in range(20):
            x = rng.uniform(0.2, 1.8, 3)
            np.testing.assert_array_equal(
                reduced(x), lk.evaluate_drift(rational3_perturbed, x)
            )

    def test_orthonormal_rows_use_transpose(self, rational3, reference_lump):
        reduced = lk.build_reduced_drift(rational3, reference_lump.matrix)
        y = reference_lump.matrix @ np.array([1.0, 1.0, 1.0])
        expected = reference_lump.matrix @ lk.evaluate_drift(
            rational3, reference_lump.project(np.array([1.0, 1.0, 1.0]))
        )
        np.testing.assert_allclose(reduced(y), expected, rtol=0, atol=1e-15)

    def test_bad_pseudoinverse_rejected(self, rational3):
        with pytest.raises(PseudoinverseError):
            lk.build_reduced_drift(rational3, REFERENCE_RAW_L, REFERENCE_LBAR * 1.5)
        # non-orthonormal L without an explicit pseudoinverse
        with pytest.raises(PseudoinverseError):
            lk.build_reduced_drift(rational3, REFERENCE_RAW_L)

    def test_nan_matrix_rejected(self, rational3):
        with pytest.raises(PseudoinverseError, match="nan"):
            lk.build_reduced_drift(rational3, [[np.nan, 0.0, 0.0]])

    def test_shape_validation(self, rational3):
        with pytest.raises(DimensionMismatchError):
            lk.build_reduced_drift(rational3, np.eye(4)[:2])
        with pytest.raises(DimensionMismatchError):
            lk.build_reduced_drift(rational3, REFERENCE_RAW_L, REFERENCE_LBAR.T)


class TestErrorBoundConstant:
    def test_unit_case(self):
        assert lk.error_bound_constant(1.0, 1.0, 1.0, 1.0) == pytest.approx(
            math.e - 1.0, rel=1e-12
        )

    def test_doubled_rate(self):
        assert lk.error_bound_constant(2.0, 1.0, 1.0, 1.0) == pytest.approx(
            (math.e**2 - 1.0) / 2.0, rel=1e-12
        )

    def test_vanishing_rate_limit(self):
        assert lk.error_bound_constant(0.0, 1.0, 1.0, 2.0) == pytest.approx(
            2.0, abs=1e-8
        )
        assert lk.error_bound_constant(1e-13, 1.0, 1.0, 2.0) == pytest.approx(
            2.0, abs=1e-8
        )

    def test_series_and_direct_branches_agree(self):
        T = 1.0
        for beta in (9.9e-9, 1.1e-8):
            direct = math.expm1(beta * T) / beta
            assert lk.error_bound_constant(beta, 1.0, 1.0, T) == pytest.approx(
                direct, rel=1e-10
            )

    def test_overflow_saturates_to_inf(self):
        assert lk.error_bound_constant(800.0, 1.0, 1.0, 1.0) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            lk.error_bound_constant(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            lk.error_bound_constant(1.0, 1.0, 1.0, 0.0)


class TestEstimateLipschitz:
    def test_scaled_identity(self):
        system = lk.parse_model(
            "model t\nvar a, b\neq a = 3*a\neq b = 3*b\n"
            "init a = 1\ninit b = 1\nobs a\nhorizon 1\n"
        )
        domain = lk.SamplingDomain(lower=np.zeros(2), upper=np.ones(2))
        assert lk.estimate_lipschitz(system, domain) == pytest.approx(3.3, abs=1e-9)

    def test_zero_drift(self):
        system = lk.parse_model(
            "model z\nvar a, b\neq a = 0\neq b = 0\n"
            "init a = 1\ninit b = 1\nobs a\nhorizon 1\n"
        )
        domain = lk.SamplingDomain(lower=np.zeros(2), upper=np.ones(2))
        assert lk.estimate_lipschitz(system, domain) == 0.0

    def test_linear_system_matches_spectral_norm(self):
        system = lk.parse_model(
            "model lin3\nvar a, b, c\n"
            "eq a = 0.3*a - 1.2*b + 0.5*c\n"
            "eq b = 2.0*a + 0.1*c\n"
            "eq c = -0.7*b + 0.4*c\n"
            "init a = 1\ninit b = 1\ninit c = 1\nobs a\nhorizon 1\n"
        )
        A = np.array([[0.3, -1.2, 0.5], [2.0, 0.0, 0.1], [0.0, -0.7, 0.4]])
        sigma = float(np.linalg.norm(A, 2))
        domain = lk.SamplingDomain(lower=-np.ones(3), upper=np.ones(3), seed=0)
        estimate = lk.estimate_lipschitz(system, domain)
        assert sigma <= estimate <= 1.1 * sigma * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_spectral_norm_on_the_seeded_stream(self, rational3, seed):
        domain = lk.default_domain(rational3, seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        n = 16
        # the box has no singular points, so no draw is skipped
        jacobians = [
            lk.evaluate_drift_dual(rational3, rng.uniform(domain.lower, domain.upper))[1]
            for _ in range(n)
        ]
        expected = 1.1 * max(np.linalg.norm(J, 2) for J in jacobians)
        assert lk.estimate_lipschitz(rational3, domain, n) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_block_matches_point_by_point(self, rational3, rational3_perturbed, poly4, seed):
        for system in (rational3, rational3_perturbed, poly4):
            domain = lk.default_domain(system, seed=seed)
            expected = per_point_lipschitz(system, domain, 64)
            assert lk.estimate_lipschitz(system, domain) == expected

    def test_singular_points_and_runs_across_blocks(self):
        # a^400 or its derivative overflows above a ~ 5.84: about 70% of the
        # box is singular, so skipped points are replaced by further blocks
        # and singular runs span them
        system = lk.parse_model(BIG_POWER)
        outcomes = set()
        for limit in (2, 3, 4, 5, 6, None):
            for seed in range(6):
                domain = lk.SamplingDomain(
                    lower=[0.0, 0.0], upper=[20.0, 1.0], seed=seed, max_resamples=limit
                )
                try:
                    expected = per_point_lipschitz(system, domain, 8)
                except SamplingError:
                    expected = "SamplingError"
                try:
                    got = lk.estimate_lipschitz(system, domain, 8)
                except SamplingError:
                    got = "SamplingError"
                assert got == expected
                outcomes.add(got == "SamplingError")
        assert outcomes == {True, False}

    def test_overflowing_power_derivative_is_singular(self):
        # every point of the box overflows 400 a^399, which used to give inf
        # and nan Jacobians and a LinAlgError from the spectral norm
        system = lk.parse_model(BIG_POWER)
        domain = lk.SamplingDomain(lower=[5.84, 0.0], upper=[5.89, 1.0])
        with pytest.raises(SamplingError):
            lk.estimate_lipschitz(system, domain)

    def test_non_finite_samples_are_singular(self):
        # 1e300*a*a overflows to inf on the whole box, and so does its
        # derivative, with an inf * 0 = nan beside it: J = [[inf, nan], [1, 0]]
        system = lk.parse_model(NON_FINITE)
        domain = lk.SamplingDomain(lower=[1e10, 0.0], upper=[2e10, 1.0])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SamplingError):
            lk.estimate_lipschitz(system, domain)

    def test_non_finite_samples_are_skipped(self):
        # f is inf above a ~ 1.34e4, where J is still finite: those points
        # are skipped as well, and the others keep their order in the stream
        system = lk.parse_model(NON_FINITE)
        domain = lk.SamplingDomain(lower=[0.0, 0.0], upper=[2e4, 1.0], seed=5)
        rng = np.random.Generator(np.random.PCG64(5))
        norms = []
        with np.errstate(over="ignore"):
            while len(norms) < 16:
                f, J = lk.evaluate_drift_dual(system, rng.uniform(domain.lower, domain.upper))
                if np.isfinite(f).all() and np.isfinite(J).all():
                    norms.append(float(np.linalg.norm(J, 2)))
            assert lk.estimate_lipschitz(system, domain, 16) == 1.1 * max(norms)

    def test_everywhere_singular_model(self):
        system = lk.parse_model(
            "model s\nvar a, b\neq a = 1/(a - a)\neq b = a\n"
            "init a = 1\ninit b = 1\nobs a\nhorizon 1\n"
        )
        domain = lk.SamplingDomain(lower=np.zeros(2), upper=np.ones(2), max_resamples=5)
        with pytest.raises(SamplingError) as lipschitz_error:
            lk.estimate_lipschitz(system, domain)
        # Jacobian basis sampling draws through the same sampler and gives up
        # with the same message
        with pytest.raises(SamplingError) as basis_error:
            lk.sample_jacobian_basis(system, domain)
        assert str(lipschitz_error.value) == str(basis_error.value)
        assert str(lipschitz_error.value).startswith("6 consecutive singular samples")

    def test_validation(self, rational3):
        domain = lk.SamplingDomain(lower=np.zeros(3), upper=np.ones(3))
        with pytest.raises(ValueError):
            lk.estimate_lipschitz(rational3, domain, n_samples=0)
        bad = lk.SamplingDomain(lower=np.zeros(2), upper=np.ones(2))
        with pytest.raises(DimensionMismatchError):
            lk.estimate_lipschitz(rational3, bad)


@pytest.fixture(scope="module")
def perturbed_report(rational3_perturbed, reference_lump):
    return lk.reduction_report(rational3_perturbed, reference_lump)


class TestReductionReport:
    def test_error_starts_at_zero(self, perturbed_report):
        assert perturbed_report.errors[0] == 0.0

    def test_deviation_series_endpoints(self, perturbed_report):
        assert perturbed_report.deviations[0] == pytest.approx(0.007, abs=1e-3)
        # the deviation grows along this trajectory and peaks at the horizon
        assert perturbed_report.eta == perturbed_report.deviations[-1]
        assert perturbed_report.eta == pytest.approx(0.0509385, abs=1e-5)

    def test_error_summary_values(self, perturbed_report):
        assert perturbed_report.e_at_T == pytest.approx(0.0107596, abs=1e-5)
        assert perturbed_report.e_max == perturbed_report.e_at_T
        assert perturbed_report.e_rel_at_T == pytest.approx(0.0042874, abs=1e-5)

    def test_bound_dominates_errors(self, perturbed_report):
        assert perturbed_report.bound_satisfied
        assert np.all(perturbed_report.errors <= perturbed_report.bound)

    def test_equality_compares_arrays_by_value(
        self, perturbed_report, rational3_perturbed, reference_lump
    ):
        again = lk.reduction_report(rational3_perturbed, reference_lump)
        assert perturbed_report == again
        assert perturbed_report != dataclasses.replace(again, errors=again.errors + 1.0)
        assert perturbed_report != dataclasses.replace(again, eta=2 * again.eta)

    def test_arrays_are_read_only(self, perturbed_report):
        arrays = [getattr(perturbed_report, field.name) for field in dataclasses.fields(perturbed_report)]
        arrays = [values for values in arrays if isinstance(values, np.ndarray)]
        assert len(arrays) == 5
        assert not any(values.flags.writeable for values in arrays)

    def test_json_schema(self, perturbed_report):
        payload = perturbed_report.to_json_dict()
        assert payload["grid_points"] == 200
        for key in ("e_at_T", "e_max", "e_rel_at_T", "eta", "bound", "bound_satisfied"):
            assert key in payload

    def test_exact_reduction_commutes(self, rational3, reference_lump):
        report = lk.reduction_report(
            rational3, reference_lump, config=lk.SolverConfig(rel_tol=1e-8)
        )
        assert report.e_max <= 1e-6
        assert report.eta <= 1e-12

    def test_exact_error_shrinks_with_tolerance(self, rational3, reference_lump):
        maxima = [
            lk.reduction_report(
                rational3, reference_lump, config=lk.SolverConfig(rel_tol=rt)
            ).e_max
            for rt in (1e-4, 1e-6, 1e-8)
        ]
        assert maxima[1] < maxima[0]
        assert maxima[2] < maxima[1]

    def test_zero_deviation_bound_is_zero(self, rational3_perturbed):
        # the growth factor saturates to inf here, and 0 * inf would be nan
        identity = lk.LumpingMatrix(matrix=np.eye(3), epsilon=0.0, observable_rank=1)
        report = lk.reduction_report(rational3_perturbed, identity)
        assert report.e_max == report.eta == 0.0
        assert lk.error_bound_constant(report.lipschitz_constant, 1.0, 1.0, 1.75) == math.inf
        assert report.bound == 0.0
        assert report.bound_satisfied

    def test_validation(self, rational3, reference_lump):
        with pytest.raises(ValueError):
            lk.reduction_report(rational3, reference_lump, grid_points=100)
        wrong = lk.LumpingMatrix.from_rows(np.eye(4)[:2], observable_rank=1)
        with pytest.raises(DimensionMismatchError):
            lk.reduction_report(rational3, wrong)


class TestCsvWriter:
    def test_bytes_match_the_row_by_row_writer(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(5))
        times = np.linspace(0.0, 7.0, 201)
        columns = {
            f"c{k}": rng.standard_normal(201) * 10.0 ** rng.integers(-300, 300, 201)
            for k in range(4)
        }
        columns["ints"] = np.arange(201)
        columns["special"] = np.array([-0.0, math.inf, -math.inf, math.nan, 5e-324] * 40 + [1.0])
        path = tmp_path / "series.csv"
        lk.write_series_csv(path, times, columns)
        # the writer as it stood: one float() and one format() per entry
        rows = [",".join(["t", *columns])]
        for k, t in enumerate(times):
            values = [t, *(column[k] for column in columns.values())]
            rows.append(",".join(format(float(v), ".17g") for v in values))
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()

    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_column_lengths_checked_before_the_file_opens(self, tmp_path, length):
        path = tmp_path / "series.csv"
        with pytest.raises(DimensionMismatchError):
            lk.write_series_csv(path, np.arange(3.0), {"a": np.ones(3), "b": np.ones(length)})
        assert not path.exists()

    def test_exact_format(self, tmp_path):
        path = tmp_path / "series.csv"
        lk.write_series_csv(
            path, np.array([0.0, 0.5]), {"a": np.array([1.0, 1.0 / 3.0])}
        )
        content = path.read_bytes().decode()
        assert content == "t,a\n0,1\n0.5,0.33333333333333331\n"
        assert "\r" not in content
