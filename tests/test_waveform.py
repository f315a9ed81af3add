import cmath
import math

import numpy as np
import pytest

from cohsync import waveform
from cohsync.waveform import (
    SPEED_OF_LIGHT,
    TwoToneSpec,
    crlb_sigma_r,
    generate_disambiguation,
    generate_two_tone,
)

FS = 25e6


class TestGenerateTwoTone:
    def test_operating_point_pulse_length_and_spectral_peaks(self):
        # 143.7 us at 25 Msps -> 3592 samples with tones at 20 kHz and 7.52 MHz
        pulse = generate_two_tone(TwoToneSpec(20e3, 7.52e6), 143.7e-6, FS)
        assert pulse.size == 3592
        assert pulse.dtype == np.complex128 and pulse.ndim == 1
        spectrum = np.abs(np.fft.fft(pulse))
        freqs = np.fft.fftfreq(pulse.size, d=1.0 / FS)
        bin_width = FS / pulse.size
        top_two = np.argsort(spectrum)[-2:]
        peak_freqs = sorted(freqs[top_two])
        assert abs(peak_freqs[0] - 20e3) <= bin_width
        assert abs(peak_freqs[1] - 7.52e6) <= bin_width

    def test_degenerate_equal_tones_is_constant_modulus(self):
        pulse = generate_two_tone(TwoToneSpec(1e6, 1e6), 20e-6, FS)
        mags = np.abs(pulse)
        assert np.allclose(mags, mags[0], rtol=1e-12)

    def test_energy_matches_bruteforce_summation(self):
        # oracle: sample-by-sample evaluation of the analytic formula with
        # cmath, summed in plain Python (frozen value below)
        pulse = generate_two_tone(TwoToneSpec(20e3, 3.5e6), 143.7e-6, FS)
        oracle = 0.0
        for k in range(3592):
            t = k / FS
            s = cmath.exp(2j * cmath.pi * 20e3 * t) + cmath.exp(2j * cmath.pi * 3.5e6 * t)
            oracle += abs(s) ** 2
        assert oracle == pytest.approx(7184.086801375509, rel=1e-12)
        assert np.sum(np.abs(pulse) ** 2) == pytest.approx(oracle, rel=1e-9)

    def test_positive_frequency_content_only(self):
        # analytic tones: negative-frequency half carries only leakage
        pulse = generate_two_tone(TwoToneSpec(20e3, 7.52e6), 143.7e-6, FS)
        power = np.abs(np.fft.fft(pulse)) ** 2
        freqs = np.fft.fftfreq(pulse.size, d=1.0 / FS)
        negative = power[freqs < 0].sum()
        assert negative < 0.02 * power.sum()

    def test_rejects_aliasing_and_bad_width(self):
        with pytest.raises(ValueError):
            generate_two_tone(TwoToneSpec(20e3, 13e6), 1e-4, FS)
        with pytest.raises(ValueError):
            generate_two_tone(TwoToneSpec(20e3, 7.52e6), 0.0, FS)
        with pytest.raises(ValueError):
            generate_two_tone(TwoToneSpec(20e3, 7.52e6), 1e-8, FS)  # < 2 samples


class TestGenerateDisambiguation:
    def test_operating_point_one_period(self):
        pulse = generate_disambiguation(1.875e6, FS)
        assert pulse.size == round(FS / 1.875e6) == 13
        assert pulse.dtype == np.complex128 and pulse.ndim == 1
        assert abs(pulse.size / FS - 1.0 / 1.875e6) <= 1.0 / FS

    def test_exact_divisor_traces_one_rotation(self):
        pulse = generate_disambiguation(FS / 4, FS)
        assert pulse.size == 4
        assert np.allclose(pulse, [1, 1j, -1, -1j], atol=1e-12)

    def test_autocorrelation_peaks_at_zero_lag(self):
        pulse = generate_disambiguation(1.875e6, FS)
        corr = np.correlate(pulse, pulse, mode="full")
        assert np.argmax(np.abs(corr)) == pulse.size - 1  # zero lag

    def test_rejects_aliasing(self):
        with pytest.raises(ValueError):
            generate_disambiguation(13e6, FS)
        with pytest.raises(ValueError):
            generate_disambiguation(0.0, FS)


class TestCrlbSigmaR:
    def test_infinite_snr_limit(self):
        assert crlb_sigma_r(3.75e6, math.inf) == 0.0

    def test_scaling_laws(self):
        base = crlb_sigma_r(3.75e6, 1e6)
        assert crlb_sigma_r(3.75e6, 4e6) == pytest.approx(base / 2, rel=1e-12)
        assert crlb_sigma_r(7.5e6, 1e6) == pytest.approx(base / 2, rel=1e-12)

    def test_frozen_direct_evaluation(self):
        # oracle: sigma_t = sqrt(1 / (beta^2 * rho)) with beta^2 = (2 pi df)^2,
        # then the one-way factor c/2
        assert crlb_sigma_r(3.75e6, 1e6) == pytest.approx(
            0.006361793545649256, rel=1e-12
        )

    def test_sqrt_snr_invariance(self):
        values = [crlb_sigma_r(3.75e6, rho) * math.sqrt(rho) for rho in (1e2, 1e5, 1e9)]
        assert max(values) == pytest.approx(min(values), rel=1e-12)

    def test_monotone_decreasing(self):
        assert crlb_sigma_r(3.75e6, 1e6) < crlb_sigma_r(3.75e6, 1e5)
        assert crlb_sigma_r(4e6, 1e6) < crlb_sigma_r(3e6, 1e6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            crlb_sigma_r(0.0, 1e6)
        with pytest.raises(ValueError):
            crlb_sigma_r(3.75e6, 0.0)


class TestToneCache:
    """A pulse sums two cached tones, and has the bytes of the formula it sums."""

    def test_pulse_has_the_bytes_of_the_direct_formula(self):
        # every ordered pair of the grid, f1 = f2 included, each pulse twice
        # (the second call reads both tones from the cache)
        grid = (0.0, 20e3, 1e6, 1e6 + 0.3e6, 3.52e6, 7.52e6, 12.4e6)
        for width in (20e-6, 143.7e-6):
            t = np.arange(round(width * FS)) / FS
            for f1 in grid:
                for f2 in (f for f in grid if f >= f1):
                    expected = np.exp(2j * np.pi * f1 * t) + np.exp(2j * np.pi * f2 * t)
                    for _ in range(2):
                        pulse = generate_two_tone(TwoToneSpec(f1, f2), width, FS)
                        assert pulse.tobytes() == expected.tobytes(), (width, f1, f2)

    def test_cached_tones_are_read_only_and_pulses_fresh(self):
        spec = TwoToneSpec(1e6, 1e6)
        first, second = (generate_two_tone(spec, 20e-6, FS) for _ in range(2))
        tone = waveform._tone(1e6, 500, FS)
        with pytest.raises(ValueError, match="read-only"):
            tone[0] = 0
        assert waveform._tone.cache_info().hits >= 3  # the pulses read this tone
        for pulse in (first, second):
            assert pulse.flags.writeable and not np.shares_memory(pulse, tone)
        assert not np.shares_memory(first, second)
        first[:] = 0  # writing one pulse changes neither the tone nor the next pulse
        assert generate_two_tone(spec, 20e-6, FS).tobytes() == second.tobytes()


class TestTypes:
    def test_two_tone_spec_ordering(self):
        with pytest.raises(ValueError):
            TwoToneSpec(f1=2e6, f2=1e6)
        with pytest.raises(ValueError):
            TwoToneSpec(f1=-1e3, f2=1e6)
        assert TwoToneSpec(1e6, 2e6).delta_f == pytest.approx(0.5e6)

    def test_generated_pulse_energy_positive(self, full_waveform):
        pulse = generate_two_tone(
            full_waveform.two_tone, full_waveform.ranging_pulse_width, FS
        )
        energy = float(np.sum(np.abs(pulse) ** 2))
        assert energy > 0
        assert math.isfinite(energy)
