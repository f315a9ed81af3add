import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsync.control import (
    PiControllerState,
    find_ultimate_gain,
    pi_step,
    ziegler_nichols_gains,
)
from cohsync.control import ERROR_SCALE, OUTPUT_SCALE


def make_state(**overrides):
    defaults = dict(k_p=1e-5, t_i=3.3, x_prev=3.5e6, e_prev=0.0)
    defaults.update(overrides)
    return PiControllerState(**defaults)


class TestPiStep:
    def test_zero_error_holds_output(self):
        state = make_state()
        new, x = pi_step(state, 0.0, 21.0)
        assert x == state.x_prev
        assert new.e_prev == 0.0

    def test_published_gain_step_value(self):
        # oracle: hand evaluation of the velocity form with the mm/MHz
        # normalization: 3.5e6 + 1e6 * 1e-5 * ((1 + 21/3.3) * 5.0 - 0)
        state = make_state()
        _, x = pi_step(state, 0.005, 21.0)
        assert x == pytest.approx(3500368.1818181816, rel=1e-12)

    def test_sustained_positive_error_rises_to_clamp(self):
        state = make_state(k_p=0.05)
        outputs = []
        for _ in range(200):
            state, x = pi_step(state, 0.005, 21.0)
            outputs.append(x)
        diffs = np.diff(outputs)
        assert np.all(diffs >= -1e-9)
        assert outputs[-1] == 7.5e6

    def test_velocity_increments_match_positional_law(self):
        # summing the increments must reproduce the positional PI value:
        # x[N] = x0 + Kp*(e[N] - e[0]) + (Kp*dt/Ti) * sum(e[1..N])
        rng = np.random.default_rng(2)
        errors = rng.uniform(-0.002, 0.002, 50)
        dt, t_i, k_p = 21.0, 3.3, 1e-5
        state = make_state(k_p=k_p, t_i=t_i, x_min=-1e12, x_max=1e12)
        x0, e0 = state.x_prev, state.e_prev
        for e in errors:
            state, x = pi_step(state, float(e), dt)
        scale = OUTPUT_SCALE * ERROR_SCALE
        positional = (
            x0
            + k_p * (errors[-1] - e0) * scale
            + k_p * dt / t_i * errors.sum() * scale
        )
        assert x == pytest.approx(positional, rel=1e-9)

    def test_direction_matches_error_combination(self):
        state = make_state(e_prev=0.004)
        new, x = pi_step(state, 0.001, 21.0)
        combo = (1 + 21.0 / 3.3) * 0.001 - 0.004
        assert math.copysign(1, x - state.x_prev) == math.copysign(1, combo)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(-0.1, 0.1, allow_nan=False), min_size=1, max_size=40),
        st.floats(0.1, 100.0, allow_nan=False),
    )
    def test_clamp_invariant(self, errors, dt):
        state = make_state(k_p=0.5)
        for e in errors:
            state, x = pi_step(state, e, dt)
            assert 0.0 <= x <= 7.5e6

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.1, 1e4, allow_nan=False), st.floats(1e-3, 1e3, allow_nan=False))
    def test_zero_error_identity_any_timing(self, dt, t_i):
        state = make_state(t_i=t_i)
        _, x = pi_step(state, 0.0, dt)
        assert x == state.x_prev

    def test_rejects_nan_and_bad_dt(self):
        state = make_state()
        with pytest.raises(ValueError):
            pi_step(state, math.nan, 21.0)
        with pytest.raises(ValueError):
            pi_step(state, 0.0, 0.0)

    def test_state_invariants(self):
        with pytest.raises(ValueError):
            make_state(t_i=0.0)
        with pytest.raises(ValueError):
            make_state(x_prev=9e6)  # outside default clamp


class TestZieglerNichols:
    def test_unit_inputs(self):
        assert ziegler_nichols_gains(1.0, 1.0) == (0.450, 0.833)

    def test_deployed_gain_reconstruction(self):
        # inverse-solved pair that lands on the deployed values
        k_p, t_i = ziegler_nichols_gains(2.22e-5, 3.96)
        assert k_p == pytest.approx(9.99e-6, rel=1e-9)
        assert t_i == pytest.approx(3.29868, rel=1e-9)
        assert round(k_p, 7) == pytest.approx(1.0e-5, rel=2e-3)
        assert round(t_i, 1) == 3.3

    def test_linearity(self):
        k1, t1 = ziegler_nichols_gains(1.5, 2.0)
        k10, t10 = ziegler_nichols_gains(15.0, 2.0)
        assert k10 == pytest.approx(10 * k1)
        assert t10 == t1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ziegler_nichols_gains(0.0, 1.0)
        with pytest.raises(ValueError):
            ziegler_nichols_gains(1.0, -2.0)


def lag_plant(a: float, n_steps: int = 240, setpoint: float = 1.0):
    """Sampled first-order lag with unit-delay P control.

    y[k+1] = a*y[k] + (1-a)*u[k], u sampled from the previous output;
    the closed-loop pole is a - (1-a)*k, so the analytic ultimate gain
    is (1+a)/(1-a) with a two-sample period.
    """

    def plant(k: float):
        y = np.zeros(n_steps)
        for i in range(1, n_steps):
            u = k * (setpoint - y[i - 1])
            y[i] = a * y[i - 1] + (1 - a) * u
        return y

    return plant


class TestFindUltimateGain:
    def test_lag_plant_analytic_ultimate_gain(self):
        a = 0.9
        k_u_true = (1 + a) / (1 - a)  # 19.0
        grid = np.arange(10.0, 30.0, 0.5)
        result = find_ultimate_gain(lag_plant(a), grid, dt=1.0)
        assert result is not None
        assert abs(result.k_u - k_u_true) <= 0.5  # within one grid step
        assert result.t_u == pytest.approx(2.0, rel=0.1)

    def test_integrator_never_oscillates(self):
        # exact continuous closed loop: y(t) relaxes exponentially for
        # any proportional gain, no oscillation
        def plant(k: float):
            t = np.arange(60.0)
            return 1.0 - np.exp(-k * t)

        assert find_ultimate_gain(plant, np.geomspace(0.01, 10.0, 12)) is None

    def test_reports_smallest_oscillating_gain(self):
        a = 0.8
        grid = [5.0, 9.0, 12.0, 20.0, 40.0]
        result = find_ultimate_gain(lag_plant(a), grid, dt=2.0)
        assert result is not None
        assert result.k_u == 9.0  # first grid entry at/above (1+a)/(1-a) = 9
        assert result.t_u == pytest.approx(4.0, rel=0.1)

    def test_rejects_empty_grid_and_bad_gain(self):
        with pytest.raises(ValueError):
            find_ultimate_gain(lambda k: [0.0] * 50, [])
        with pytest.raises(ValueError):
            find_ultimate_gain(lambda k: [0.0] * 50, [-1.0])

    def test_shortest_series_can_show_an_oscillation(self):
        # a two-sample limit cycle, the fastest there is: MIN_SERIES_LENGTH
        # samples are the fewest in which it can be reported
        from cohsync.control import MIN_SERIES_LENGTH

        def cycle(n):
            return lambda k: [1.0, -1.0] * (n // 2) + [1.0] * (n % 2)

        assert MIN_SERIES_LENGTH == 13
        result = find_ultimate_gain(cycle(MIN_SERIES_LENGTH), [1.0], dt=1.0)
        assert result is not None
        assert result.t_u == pytest.approx(2.0)
        assert find_ultimate_gain(cycle(MIN_SERIES_LENGTH - 1), [1.0], dt=1.0) is None
