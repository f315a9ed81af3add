import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohsync.channel import (
    ChannelState,
    _certify,
    _complete_noise,
    _max_modulus,
    apply_round_trip_response,
    delay_ramp,
    lag_block_factor,
    matched_noise_block,
    matched_noise_peaks,
    matched_noise_rows,
    noise_power_for,
    peak_search,
    scaled_noise_power,
)
from cohsync.ranging import _circular_correlation, effective_window_length
from cohsync.waveform import (
    SPEED_OF_LIGHT,
    TwoToneSpec,
    generate_disambiguation,
    generate_two_tone,
)
from ranging_oracle import correlate, noisy_rows, round_trip, select_and_refine
from scipy import stats

FS = 25e6


def assert_moments(block, covariance):
    """Sample covariance and pseudo-covariance of the rows within five standard errors."""
    n_rows = len(block)
    bound = 5.0 * covariance[0, 0].real / math.sqrt(n_rows)
    sample = block.T @ block.conj() / n_rows
    pseudo = block.T @ block / n_rows
    assert np.max(np.abs(sample - covariance)) <= bound
    assert np.max(np.abs(pseudo)) <= bound


def padded_frame(waveform_cfg, pad=128):
    pulse = generate_two_tone(
        waveform_cfg.two_tone, waveform_cfg.ranging_pulse_width, FS
    )
    return np.concatenate([pulse, np.zeros(pad)]), pulse


class TestResidualBasebandFrequency:
    """A tone at ``f_b`` comes back from the round trip at ``f_b + residual_offset``."""

    @staticmethod
    def tone_back(f_b, residual_offset, n=5000):
        """The returned 90 m round trip of a tone at ``f_b``, and the same trip unshifted.

        ``f_b`` is a multiple of ``FS / n``, so the delay leaves a pure tone."""
        spectrum = np.fft.fft(np.exp(2j * np.pi * f_b * np.arange(n) / FS))
        ramp = delay_ramp(n, FS, 90.0)
        state = ChannelState(true_range=90.0, snr_db=math.inf, residual_offset=residual_offset)
        return apply_round_trip_response(spectrum, ramp, state, FS), np.fft.ifft(spectrum * ramp)

    @staticmethod
    def frequency(tone):
        """The mean phase step of a tone, in Hz."""
        return float(np.mean(np.angle(tone[1:] * np.conj(tone[:-1])))) * FS / (2 * np.pi)

    def test_locked_plan_returns_f_b(self):
        # equal outbound and return offsets, as frequency-locked carriers
        # have, leave a residual of 0: the frame comes back unshifted
        back, unshifted = self.tone_back(20e3, 0.0)
        assert np.array_equal(back, unshifted)
        assert self.frequency(back) == pytest.approx(20e3, abs=1e-6)

    def test_single_offset_shifts(self):
        # an outbound offset of 100 Hz alone is a residual of -100 Hz
        back, unshifted = self.tone_back(20e3, -100.0)
        assert self.frequency(back) == pytest.approx(19.9e3, abs=1e-6)
        assert np.allclose(np.abs(back), np.abs(unshifted), rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1e5, 1e5, allow_nan=False), st.floats(0, 1e6, allow_nan=False))
    def test_equal_offsets_cancel(self, offset, f_b):
        # the residual is the return offset minus the outbound one; equal
        # offsets of any size leave a tone at any f_b unshifted
        back, unshifted = self.tone_back(f_b, offset - offset)
        assert np.array_equal(back, unshifted)


class TestPropagateRoundTrip:
    """The round trip's delay and shift, and noise at the calibrated power."""

    def test_identity(self, full_waveform):
        frame, _ = padded_frame(full_waveform)
        state = ChannelState(true_range=0.0, snr_db=math.inf)
        out = round_trip(frame, state, FS)
        assert np.allclose(out, frame, atol=1e-10)

    def test_90m_delay_lands_at_analytic_lag(self, full_waveform, noise_free_90m):
        frame, pulse = padded_frame(full_waveform)
        out = round_trip(frame, noise_free_90m, FS)
        mf = correlate(out, pulse)
        coarse = np.array([round(2 * 90.0 / SPEED_OF_LIGHT * FS)])
        (range_m,), (peak_lag,), _ = select_and_refine(mf[None], coarse, full_waveform)
        expected_lag = 2 * 90.0 / SPEED_OF_LIGHT
        assert peak_lag == pytest.approx(expected_lag, abs=1e-12)
        assert peak_lag * FS == pytest.approx(15.0, abs=0.05)
        assert range_m == pytest.approx(90.0, abs=1e-3)

    def test_equal_offsets_produce_zero_shift(self, full_waveform, noise_free_90m):
        frame, _ = padded_frame(full_waveform)
        shifted = ChannelState(
            true_range=90.0,
            snr_db=math.inf,
            residual_offset=1e3 - 1e3,
        )
        a = round_trip(frame, shifted, FS)
        b = round_trip(frame, noise_free_90m, FS)
        assert np.array_equal(a, b)

    def test_noise_calibration_within_tolerance(self):
        # 1.2e5 samples, requested 10 dB; measured within +/- 0.3 dB
        n = 120000
        t = np.arange(n) / FS
        sig = np.exp(2j * np.pi * 1e6 * t)
        state = ChannelState(true_range=0.0, snr_db=10.0)
        clean = round_trip(sig, state, FS)
        sigma2 = scaled_noise_power(noise_power_for(clean), state.snr_db)
        out = noisy_rows(clean, sigma2, 1, np.random.default_rng(7))[0]
        noise = out - clean
        measured = 10 * np.log10(
            np.mean(np.abs(clean) ** 2) / np.mean(np.abs(noise) ** 2)
        )
        assert measured == pytest.approx(10.0, abs=0.3)

    def test_delay_linearity_over_ten_ranges(self, full_waveform):
        ranges = np.linspace(5.0, 140.0, 10)
        estimated = []
        for r in ranges:
            frame, pulse = padded_frame(full_waveform)
            state = ChannelState(true_range=float(r), snr_db=math.inf)
            out = round_trip(frame, state, FS)
            mf = correlate(out, pulse)
            coarse = np.array([round(2 * r / SPEED_OF_LIGHT * FS)])
            _, (peak_lag,), _ = select_and_refine(mf[None], coarse, full_waveform)
            estimated.append(peak_lag)
        slope = np.polyfit(ranges, estimated, 1)[0]
        assert slope == pytest.approx(2.0 / SPEED_OF_LIGHT, rel=1e-6)
        back = SPEED_OF_LIGHT * np.asarray(estimated) / 2.0
        assert np.max(np.abs(back - ranges)) < 1e-3

    def test_rejects_delay_beyond_window(self):
        spectrum = np.fft.fft(np.ones(64, dtype=complex))
        # 64 samples at 25 Msps = 2.56 us window; 500 m two-way is 3.3 us
        state = ChannelState(true_range=500.0, snr_db=math.inf)
        with pytest.raises(ValueError):
            apply_round_trip_response(spectrum, delay_ramp(64, FS, 500.0), state, FS)


class TestNoisyRows:
    """The reference's noise drawn on every sample (``ranging_oracle``)."""

    def test_same_floats_as_interleaved_draw(self):
        # the (P, 2n) draw read as complex is the (P, n, 2) draw's stream
        clean = np.exp(2j * np.pi * 0.01 * np.arange(300))
        rows = noisy_rows(clean, 0.7, 4, np.random.default_rng(3))
        g = np.random.default_rng(3).standard_normal((4, 300, 2))
        expected = clean + math.sqrt(0.7 / 2.0) * (g[..., 0] + 1j * g[..., 1])
        assert np.array_equal(rows, expected)

    def test_noise_free_rows_draw_nothing(self):
        clean = np.ones(16, dtype=complex)
        rng = np.random.default_rng(5)
        rows = noisy_rows(clean, 0.0, 3, rng)
        assert rows.shape == (3, 16) and np.array_equal(rows[2], clean)
        assert rng.standard_normal() == np.random.default_rng(5).standard_normal()


class TestMatchedNoise:
    """Matched-filter noise drawn directly, against its Gaussian model.

    White noise of per-sample variance s2 through the circular matched
    filter of template T has lag covariance s2 * r[(k - l) mod n], with
    r = ifft(|T|**2), and zero pseudo-covariance.  Sample moments of N
    rows carry a standard error of about r[0] * s2 / sqrt(N) per entry,
    so the bounds sit at five of those.
    """

    N_LAGS = 640
    S2 = 0.7

    @pytest.fixture
    def spectrum(self):
        pulse = generate_two_tone(TwoToneSpec(20e3, 1.02e6), 20e-6, FS)  # 500 samples
        return np.fft.fft(pulse, self.N_LAGS)

    def model(self, spectrum, width):
        r = np.fft.ifft(np.abs(spectrum) ** 2)
        k = np.arange(width)
        return self.S2 * r[(k[:, None] - k) % self.N_LAGS]

    def test_block_covariance_is_the_autocorrelation(self, spectrum):
        for width in (12, self.N_LAGS - 500 + 1):  # and the widest block, n - L + 1 lags
            root = lag_block_factor(spectrum, self.S2, width)
            block = matched_noise_block(root, 20000, np.random.default_rng(3))
            assert block.shape == (20000, width)
            assert_moments(block, self.model(spectrum, width))

    @settings(max_examples=40, deadline=None)
    @given(
        length=st.integers(2, 400),
        pad=st.integers(1, 300),
        separation=st.floats(0.29e6, 7.5e6),
    )
    @example(length=2, pad=1, separation=0.29e6)  # the shortest pulse
    @example(length=3592, pad=1, separation=3.5e6)  # a pulse that nearly fills the window
    @example(length=3592, pad=158, separation=3.5e6)  # the reference; tones on DFT bins
    @example(length=1250, pad=1250, separation=7.45e6)  # tones on DFT bins, n = 2 L
    def test_widest_block_factor_exists(self, length, pad, separation):
        # at n - L + 1 lags the covariance is positive definite, so the
        # factor exists and reproduces it
        n = length + pad
        pulse = generate_two_tone(TwoToneSpec(20e3, 20e3 + separation), length / FS, FS)
        spectrum = np.fft.fft(pulse, n)
        factors = []
        real = np.linalg.cholesky

        def spy(covariance):
            factors.append((covariance, real(covariance)))
            return factors[-1][1]

        width = n - length + 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", spy)
            lag_block_factor(spectrum, self.S2, width)
        ((covariance, root),) = factors
        r = np.fft.ifft(np.abs(spectrum) ** 2)
        k = np.arange(width)
        model = self.S2 * r[(k[:, None] - k) % n]
        assert np.array_equal(covariance, model)
        assert np.all(np.isfinite(root))
        assert np.max(np.abs(root @ root.conj().T - model)) <= 1e-12 * model[0, 0].real

    def test_row_covariance_is_the_autocorrelation(self, spectrum):
        # lags n - 5 .. n + 6 straddle the circular wrap
        rows = matched_noise_rows(spectrum, self.S2, 4000, np.random.default_rng(4))
        assert rows.shape == (4000, self.N_LAGS)
        assert_moments(np.roll(rows, 5, axis=1)[:, :12], self.model(spectrum, 12))

    def test_rows_match_time_domain_noise(self, spectrum):
        # the reference: white noise on every sample, then the FFT filter
        pulse = np.fft.ifft(spectrum)[:500]
        rows = noisy_rows(np.zeros(self.N_LAGS, complex), self.S2, 4000, np.random.default_rng(5))
        filtered = _circular_correlation(rows, np.fft.fft(pulse, self.N_LAGS))
        assert_moments(filtered[:, 100:112], self.model(spectrum, 12))


class TestCertifiedPeaks:
    """The disambiguation peak placed from the lags near the clean peak.

    The near lags and their input samples are drawn exactly, the largest
    modulus R of the other m input samples from its law, and rows the
    certificate cannot settle are completed around R.
    """

    S2 = 0.7

    @staticmethod
    def disambiguation_row(full_waveform, snr_db):
        """Clean disambiguation output, its template and noise power at 90 m."""
        state = ChannelState(true_range=90.0, snr_db=snr_db)
        n = effective_window_length(full_waveform, state)
        pulse = generate_disambiguation(full_waveform.f_d, FS)
        clean = round_trip(np.concatenate([pulse, np.zeros(n - pulse.size)]), state, FS)
        row = _circular_correlation(clean[None, :], np.fft.fft(pulse, n))[0]
        return row, pulse, scaled_noise_power(noise_power_for(clean), snr_db)

    @pytest.mark.parametrize("snr_db", [13.0, 23.0])
    def test_certifies_every_pulse_at_operating_snr(self, full_waveform, snr_db):
        row, template, s2 = self.disambiguation_row(full_waveform, snr_db)
        search = peak_search(row, template, np.fft.fft(template, row.size))
        index, certified = matched_noise_peaks(search, s2, 2000, np.random.default_rng(1))
        assert certified.all()
        assert index.shape == (2000,)

    def test_largest_modulus_follows_the_exp_max_law(self):
        m = 500
        r = _max_modulus(self.S2, m, 4000, np.random.default_rng(2))
        cdf = lambda x: (-np.expm1(-(x**2) / self.S2)) ** m
        assert stats.kstest(r, cdf).pvalue > 0.01

    def test_completed_rows_are_white(self):
        # 21 given samples of 40, then the other 19 around their largest
        # modulus: together white CN(0, S2) noise
        n, width, n_rows = 40, 21, 20000
        rng = np.random.default_rng(3)
        near = math.sqrt(self.S2 / 2.0) * rng.standard_normal((n_rows, 2 * width)).view(complex)
        r_max = _max_modulus(self.S2, n - width, n_rows, rng)
        rows = _complete_noise(near, r_max, self.S2, n, rng)
        assert np.array_equal(rows[:, :width], near)
        assert np.allclose(np.abs(rows[:, width:]).max(axis=1), r_max, rtol=1e-12, atol=0.0)
        assert_moments(rows, self.S2 * np.eye(n))

    @pytest.mark.parametrize("snr_db", [-15.0, -25.0])
    def test_certified_peaks_hold_for_every_completion(self, full_waveform, snr_db):
        # 41 near lags around the clean peak read 53 input samples; every
        # row completed around them and R must peak where the certificate
        # says.  At -15 dB it settles some pulses but not all; at -25 dB
        # it settles none unless its bound is too small.
        row, template, s2 = self.disambiguation_row(full_waveform, snr_db)
        n, n_rows = row.size, 2000
        rotated = np.roll(row, 20 - int(np.argmax(np.abs(row))))
        rng = np.random.default_rng(5)
        near = math.sqrt(s2 / 2.0) * rng.standard_normal((n_rows, 2 * 53)).view(complex)
        r_max = _max_modulus(s2, n - 53, n_rows, rng)
        spectrum = np.fft.fft(template, n)
        search = peak_search(row, template, spectrum)
        assert search.n_inputs == 53 and np.array_equal(search.clean_row, rotated)
        peak, certified = _certify(search, near, r_max)
        full = _circular_correlation(_complete_noise(near, r_max, s2, n, rng), spectrum) + rotated
        assert np.array_equal(np.argmax(np.abs(full), axis=1)[certified], peak[certified])
        if snr_db == -15.0:
            assert 0 < certified.sum() < n_rows


class TestChannelState:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ChannelState(true_range=-1.0, snr_db=10.0)
        with pytest.raises(ValueError):
            ChannelState(true_range=1.0, snr_db=math.nan)
