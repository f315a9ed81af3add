import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsync.channel import ChannelState, apply_round_trip_response, delay_ramp
from freqlock_model import SelfMixInput, path_phase, self_mix, wrap_phase
from cohsync.waveform import SPEED_OF_LIGHT


class TestSelfMix:
    def test_reference_frequency_910_920(self):
        f_ref, _ = self_mix(SelfMixInput(f_s1=910e6, f_s2=920e6))
        assert f_ref == 10e6

    def test_equal_phases_cancel(self):
        _, phi5 = self_mix(SelfMixInput(910e6, 920e6, phi1=1.234, phi2=1.234))
        assert phi5 == 0.0

    def test_path_derived_phase_90m(self):
        # oracle: wrap(-2*pi*(f_s2 - f_s1)*d/c) evaluated independently
        d = 90.0
        inp = SelfMixInput(
            910e6, 920e6, phi1=path_phase(910e6, d), phi2=path_phase(920e6, d)
        )
        _, phi5 = self_mix(inp)
        assert phi5 == pytest.approx(-0.013049276026258383, abs=1e-9)
        oracle = wrap_phase(-2 * math.pi * 10e6 * d / SPEED_OF_LIGHT)
        assert phi5 == pytest.approx(oracle, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-50, 50, allow_nan=False))
    def test_common_phase_offset_invariance(self, common):
        base = SelfMixInput(910e6, 920e6, phi1=0.4, phi2=-0.9)
        shifted = SelfMixInput(910e6, 920e6, phi1=0.4 + common, phi2=-0.9 + common)
        assert self_mix(shifted)[1] == pytest.approx(self_mix(base)[1], abs=1e-9)

    def test_scale_free_in_absolute_frequency(self):
        lo = self_mix(SelfMixInput(910e6, 920e6))[0]
        hi = self_mix(SelfMixInput(910e6 + 1.5e9, 920e6 + 1.5e9))[0]
        assert lo == hi

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            SelfMixInput(f_s1=920e6, f_s2=910e6)
        with pytest.raises(ValueError):
            SelfMixInput(f_s1=0.0, f_s2=910e6)


class TestWrapPhase:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1e4, 1e4, allow_nan=False))
    def test_range_and_equivalence(self, phi):
        w = wrap_phase(phi)
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(phi), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(phi), abs=1e-9)

    def test_boundary_maps_to_positive_pi(self):
        assert wrap_phase(math.pi) == pytest.approx(math.pi)
        assert wrap_phase(-math.pi) == pytest.approx(math.pi)


class TestLockedResidualAlgebra:
    def test_locked_plans_return_f_b_exactly(self):
        # locked carriers leave no residual offset, so the round trip only
        # delays a tone at f_b: its frame comes back unshifted, bit for bit
        rng, n, fs = np.random.default_rng(17), 1024, 25e6
        ramp, locked = delay_ramp(n, fs, 90.0), ChannelState(true_range=90.0, snr_db=math.inf)
        for _ in range(50):
            f_b = float(rng.uniform(1e3, 5e6))
            spectrum = np.fft.fft(np.exp(2j * np.pi * f_b * np.arange(n) / fs))
            back = apply_round_trip_response(spectrum, ramp, locked, fs)
            assert np.array_equal(back, np.fft.ifft(spectrum * ramp))
