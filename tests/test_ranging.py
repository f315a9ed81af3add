import math
import warnings
from dataclasses import replace
from statistics import mean, stdev

import numpy as np
import pytest

from cohsync import ranging
from cohsync.channel import ChannelState
from cohsync.config import config_from_dict, default_config
from cohsync.ranging import (
    INTERP_BETA,
    INTERP_TAPS,
    _dense_argmax,
    _interp_matrix,
    _interp_table,
    _natural_spline_max,
    window_stats,
)
from cohsync.scenario import simulate_window
from cohsync.waveform import (
    SPEED_OF_LIGHT,
    TwoToneSpec,
    crlb_sigma_r,
    generate_disambiguation,
    generate_two_tone,
)

import ranging_oracle
from conftest import state_for_post_snr, traced_peak

FS = 25e6


def frame_with_delay_samples(pulse, delay, total):
    samples = np.zeros(total, dtype=complex)
    samples[delay : delay + pulse.size] = pulse
    return samples


class TestMatchedFilter:
    def test_autocorrelation_identity(self, full_waveform):
        pulse = generate_two_tone(full_waveform.two_tone, 143.7e-6, FS)
        mags = np.abs(ranging_oracle.correlate(pulse, pulse))
        assert int(np.argmax(mags)) == 0
        assert mags[0] == pytest.approx(np.sum(np.abs(pulse) ** 2), rel=1e-12)

    def test_delayed_copy_peaks_at_40(self, full_waveform):
        pulse = generate_two_tone(full_waveform.two_tone, 143.7e-6, FS)
        received = frame_with_delay_samples(pulse, 40, pulse.size + 128)
        mf = ranging_oracle.correlate(received, pulse)
        assert int(np.argmax(np.abs(mf))) == 40

    def test_disambiguation_self_output_single_lobe(self):
        pulse = generate_disambiguation(1.875e6, FS)
        received = frame_with_delay_samples(pulse, 30, pulse.size + 64)
        mags = np.abs(ranging_oracle.correlate(received, pulse))
        floor = mags.max() / math.sqrt(2.0)  # -3 dB of peak
        above = mags >= floor
        # local maxima above -3 dB: only the main lobe itself
        interior = above[1:-1] & (mags[1:-1] >= mags[:-2]) & (mags[1:-1] >= mags[2:])
        assert interior.sum() == 1

    def test_fft_correlation_matches_direct(self):
        rng = np.random.default_rng(5)
        received = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        template = rng.standard_normal(90) + 1j * rng.standard_normal(90)
        mf = ranging_oracle.correlate(received, template)
        direct = np.correlate(received, template, mode="full")
        # full-overlap lags 0 .. N-M map to direct index lag + M - 1
        n, m = 300, 90
        ours = mf[: n - m + 1]
        theirs = direct[m - 1 : n]  # full-overlap lags 0 .. N - M
        assert np.max(np.abs(ours - theirs)) <= 1e-6 * np.max(np.abs(theirs))


class TestDisambiguateAndRefine:
    def test_noise_free_90m_within_1mm(self, full_waveform, noise_free_90m):
        ranges, gross = simulate_window(full_waveform, noise_free_90m, 2, seed=0)
        assert gross == 0
        assert np.max(np.abs(ranges - 90.0)) < 1e-3

    @pytest.mark.parametrize("true_range", [0.0, 10.0, 37.3, 90.0, 151.7])
    @pytest.mark.parametrize("separation_hz", [3.5e6, 4.4e6, 5.5e6, 7.5e6])
    def test_noise_free_error_across_lattice_spans(self, full_waveform, separation_hz, true_range):
        # above 3.125 MHz half a lobe spacing is under NEIGHBORS samples, so
        # the dense grid is a shorter run of the lattice at each separation
        waveform = replace(full_waveform, two_tone=TwoToneSpec(20e3, 20e3 + separation_hz))
        state = ChannelState(true_range=true_range, snr_db=math.inf)
        ranges, gross = simulate_window(waveform, state, 2, seed=0)
        assert gross == 0
        bound = 1e-4 if separation_hz == 7.5e6 else 5e-4
        assert np.max(np.abs(ranges - true_range)) < bound

    def test_zero_delay(self, full_waveform):
        state = ChannelState(true_range=0.0, snr_db=math.inf)
        pulse = generate_two_tone(full_waveform.two_tone, 143.7e-6, FS)
        received = frame_with_delay_samples(pulse, 0, pulse.size + 128)
        disamb = generate_disambiguation(full_waveform.f_d, FS)
        rx_d = frame_with_delay_samples(disamb, 0, pulse.size + 128)
        coarse = ranging_oracle.peak_lags(ranging_oracle.correlate(rx_d, disamb)[None])
        (range_m,), _, (gross,) = ranging_oracle.select_and_refine(
            ranging_oracle.correlate(received, pulse)[None], coarse, full_waveform
        )
        assert range_m == pytest.approx(0.0, abs=1e-3)
        assert not gross

    def test_ambiguity_offset_without_disambiguation(self, full_waveform):
        # with the lobe chosen against a stale prior, a k-period delay
        # offset aliases to a range error of k * c / (2 * (f2 - f1))
        pulse = generate_two_tone(full_waveform.two_tone, 143.7e-6, FS)
        separation = full_waveform.two_tone.separation
        ambiguity_m = SPEED_OF_LIGHT / (2 * separation)
        base_range = 90.0
        prior_lag = 2 * base_range / SPEED_OF_LIGHT
        for k in (1, 2, 3):
            true_range = base_range + k * ambiguity_m
            state = ChannelState(true_range=true_range, snr_db=math.inf)
            frame = np.concatenate([pulse, np.zeros(256)])
            rx = ranging_oracle.round_trip(frame, state, FS)
            mf = ranging_oracle.correlate(rx, pulse)
            (range_m,), _, _ = ranging_oracle.select_and_refine(
                mf[None], np.array([round(prior_lag * FS)]), full_waveform
            )
            # the estimator stays on the prior's lobe, so the report is
            # off by exactly k ambiguity periods
            error = abs(range_m - true_range)
            assert error == pytest.approx(k * ambiguity_m, abs=2e-3)
            assert range_m == pytest.approx(base_range, abs=2e-3)

    def test_gross_error_flag_on_monotone_neighborhood(self, full_waveform):
        # correlation magnitude rising straight through the selection
        # window forces the in-window argmax onto the boundary
        n = 512
        ramp = np.linspace(0.0, 1.0, n) + 0j
        spike = np.zeros(n, dtype=complex)
        spike[200] = 1.0
        coarse = ranging_oracle.peak_lags(spike[None])
        _, _, (gross,) = ranging_oracle.select_and_refine(ramp[None], coarse, full_waveform)
        assert gross


class TestEstimatorStatistics:
    def test_unbiased_at_moderate_snr(self, full_waveform):
        state = state_for_post_snr(full_waveform, 1e6)
        ranges, _ = simulate_window(full_waveform, state, 1000, seed=11)
        sigma = ranges.std(ddof=1)
        assert abs(ranges.mean() - 90.0) < sigma / 10.0

    def test_std_within_factor_two_of_bound(self, full_waveform):
        state = state_for_post_snr(full_waveform, 1e6)
        ranges, gross = simulate_window(full_waveform, state, 300, seed=3)
        bound = crlb_sigma_r(full_waveform.two_tone.delta_f, 1e6)
        assert gross == 0
        assert bound / 2 < ranges.std(ddof=1) < bound * 2

    def test_std_decreases_with_wider_separation(self, full_waveform):
        from dataclasses import replace

        from cohsync.waveform import TwoToneSpec

        narrow = replace(full_waveform, two_tone=TwoToneSpec(20e3, 2.02e6))
        post = 1e5
        s_narrow = simulate_window(
            narrow, state_for_post_snr(narrow, post), 150, seed=4
        )[0].std(ddof=1)
        s_wide = simulate_window(
            full_waveform, state_for_post_snr(full_waveform, post), 150, seed=4
        )[0].std(ddof=1)
        assert s_wide < s_narrow


class TestWindowStats:
    def test_identical_values_zero_sigma(self):
        stats = window_stats(np.full(200, 90.0))
        assert stats.sigma_d == 0.0
        assert stats.mean_range == pytest.approx(90.0)
        assert stats.group_means.size == 40

    def test_sqrt5_reduction_for_iid_gaussian(self):
        rng = np.random.default_rng(8)
        sigmas = []
        for _ in range(1000):
            stats = window_stats(rng.normal(0.0, 1.0, 200))
            sigmas.append(stats.sigma_d)
        assert np.mean(sigmas) == pytest.approx(1.0 / math.sqrt(5.0), rel=0.10)

    def test_seeded_sequence_matches_stdlib_oracle(self):
        rng = np.random.default_rng(21)
        values = rng.normal(100.0, 0.5, 200)
        stats = window_stats(values)
        groups = [list(values[i : i + 5]) for i in range(0, 200, 5)]
        oracle_means = [mean(g) for g in groups]
        assert stats.sigma_d == pytest.approx(stdev(oracle_means), rel=1e-12)
        assert stats.mean_range == pytest.approx(mean(values), rel=1e-12)

    def test_order_sensitivity(self):
        # grouping is positional: permuting inputs changes the group means
        values = np.concatenate([np.zeros(100), np.ones(100)])
        shuffled = values.copy()
        shuffled[::2], shuffled[1::2] = values[:100], values[100:]
        assert window_stats(values).sigma_d != pytest.approx(
            window_stats(shuffled).sigma_d
        )

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            window_stats(np.zeros(199))
        with pytest.raises(ValueError):
            window_stats(np.zeros(200), group_size=3)
        with pytest.raises(ValueError):
            window_stats(np.zeros(200), group_size=0)


class TestSplineSolver:
    def test_matches_scipy_natural_spline(self):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 24))
            y = rng.standard_normal(n)
            x0 = float(rng.uniform(-4, 4))
            h = float(rng.uniform(0.05, 1.5))
            x = x0 + h * np.arange(n)
            (peak_x,), (peak_v,) = _natural_spline_max(x0, h, y[None, :])
            ref = CubicSpline(x, y, bc_type="natural")
            roots = ref.derivative().roots(extrapolate=False)
            cand = np.concatenate([np.real(roots[np.isreal(roots)]), x[[0, -1]]])
            cand = cand[(cand >= x[0]) & (cand <= x[-1])]
            best = cand[np.argmax(ref(cand))]
            assert peak_v == pytest.approx(float(ref(best)), rel=1e-9, abs=1e-9)
            assert peak_x == pytest.approx(float(best), abs=1e-6)


def oracle_window(mf_r, mf_d, waveform):
    """The per-pulse reference over every row, as arrays like refine_window's."""
    out = [
        ranging_oracle.refine_pulse(r, d, waveform.sample_rate, waveform)
        for r, d in zip(mf_r, mf_d)
    ]
    return tuple(np.array(column) for column in zip(*out))


def assert_matches_oracle(mf_r, mf_d, waveform):
    ranges, lags, gross = ranging_oracle.select_and_refine(mf_r, ranging_oracle.peak_lags(mf_d), waveform)
    o_ranges, o_lags, o_gross = oracle_window(mf_r, mf_d, waveform)
    assert np.max(np.abs(ranges - o_ranges)) <= 1e-8
    assert np.array_equal(gross, o_gross)
    return ranges, lags, gross


class TestBatchedKernel:
    """refine_window against the per-pulse reference on identical rows."""

    @pytest.mark.parametrize("snr_db", [-25.0, 13.0, 23.0, math.inf])
    def test_matches_per_pulse_oracle(self, full_waveform, snr_db):
        state = ChannelState(true_range=90.0, snr_db=snr_db)
        gross_total = 0
        # half a spacing is exactly 4 samples at 3.125 MHz, and 0.125 MHz
        # cuts whole rows to a lobe window wider than any lag block
        for separation_hz in (0.125e6, 1e6, 3.125e6, 3.5e6, 7.5e6):
            waveform = replace(full_waveform, two_tone=TwoToneSpec(20e3, 20e3 + separation_hz))
            for seed in range(3):
                mf_r, mf_d = ranging_oracle.matched_filter_rows(waveform, state, 50, (17, seed))
                gross_total += assert_matches_oracle(mf_r, mf_d, waveform)[2].sum()
        if snr_db < 0:
            assert gross_total > 0  # the gross-error branch was reached

    def test_truncated_spline_window(self, full_waveform):
        # magnitudes rising (falling) through the lobe window put the dense
        # argmax on the grid's last (first) point, so the spline reads the
        # grid's last (first) 17 points; an ordinary row rides in the same batch
        n = 512
        ramp = np.linspace(0.0, 1.0, n) + 0j
        lobe = np.zeros(n, dtype=complex)
        lobe[195:206] = np.hanning(11)
        spike = np.zeros(n, dtype=complex)
        spike[200] = 1.0
        mf_r = np.stack([ramp, ramp[::-1], lobe])
        mf_d = np.stack([spike, spike, spike])
        ranges, lags, gross = assert_matches_oracle(mf_r, mf_d, full_waveform)
        fs = full_waveform.sample_rate
        half = fs / full_waveform.two_tone.separation / 2  # half a lobe spacing
        span = math.floor(64 * min(4.0, half)) / 64  # the last lattice point within it
        hi, lo = math.floor(200 + half), math.ceil(200 - half)
        assert lags[0] * fs == pytest.approx(hi + span, abs=1e-9)
        assert lags[1] * fs == pytest.approx(lo - span, abs=1e-9)
        assert lags[2] * fs == pytest.approx(200.0, abs=1e-6)
        assert gross.tolist() == [True, True, False]

    def test_one_spline_shape_a_batch(self, monkeypatch, full_waveform):
        # test_truncated_spline_window's batch: two grid-end rows and an
        # ordinary one take one 17-knot spline call between them
        n = 512
        ramp = np.linspace(0.0, 1.0, n) + 0j
        lobe = np.zeros(n, dtype=complex)
        lobe[195:206] = np.hanning(11)
        shapes = []
        real = ranging._natural_spline_max

        def spy(x0, h, y):
            shapes.append(y.shape)
            return real(x0, h, y)

        monkeypatch.setattr(ranging, "_natural_spline_max", spy)
        ranging_oracle.select_and_refine(np.stack([ramp, ramp[::-1], lobe]), np.full(3, 200), full_waveform)
        assert shapes == [(3, 17)]

    def test_separation_zero_branch(self, full_waveform):
        # f2 == f1 has no lobes and no two-tone bound: a window rejects it,
        # and a config whose clamp reaches it fails at load
        waveform = replace(full_waveform, two_tone=TwoToneSpec(20e3, 20e3))
        state = ChannelState(true_range=37.3, snr_db=math.inf)
        with pytest.raises(ValueError, match=r"tone separation=0\.0 Hz must exceed 284090\.9"):
            simulate_window(waveform, state, 2, seed=0)
        with pytest.raises(ValueError, match=r"controller\.x_min_hz=0\.0 Hz must exceed"):
            config_from_dict({"controller": {"x_min_hz": 0.0}})

    def test_peak_memory_of_default_window(self):
        # default config: P = 200 rows of n = 3750 lags; one full-window
        # magnitude array alone would be 5.7 MiB
        config = default_config()
        waveform = config.waveform
        mf_r, mf_d = ranging_oracle.matched_filter_rows(waveform, config.channel, 200, 0)
        assert mf_r.shape == (200, 3750)
        _interp_table.cache_clear()
        _, peak = traced_peak(
            lambda: ranging_oracle.select_and_refine(mf_r, ranging_oracle.peak_lags(mf_d), waveform)
        )
        assert peak <= 4 * 2**20


class TestSplineInterval:
    """The spline evaluates the two intervals beside its centre knot, and every
    interval only of rows that the bound on the others does not settle."""

    @staticmethod
    def spline_inputs(run):
        """``(x0, h, y)`` of each ``_natural_spline_max`` call that ``run()`` makes."""
        calls, real = [], ranging._natural_spline_max

        def spy(x0, h, y):
            calls.append((x0, h, y))
            return real(x0, h, y)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ranging, "_natural_spline_max", spy)
            run()
        return calls

    def test_unsettled_rows_take_every_interval(self, monkeypatch, full_waveform):
        # test_truncated_spline_window's batch (two grid-end rows and a
        # centred lobe), a 13 dB window's rows, a row peaking at knot 3, a
        # noisy row holding inf and a row whose largest knot is 8 but whose
        # spline peaks on interval 5, as one batch of 17-knot splines
        n = 512
        ramp = np.linspace(0.0, 1.0, n) + 0j
        lobe = np.zeros(n, dtype=complex)
        lobe[195:206] = np.hanning(11)
        rows = np.stack([ramp, ramp[::-1], lobe])
        ((x0_a, h, y_a),) = self.spline_inputs(
            lambda: ranging_oracle.select_and_refine(rows, np.full(3, 200), full_waveform)
        )
        state = ChannelState(true_range=90.0, snr_db=13.0)
        ((x0_b, h_b, y_b),) = self.spline_inputs(lambda: simulate_window(full_waveform, state, 12, 4))
        assert h_b == h
        knots = np.arange(17.0)
        off_centre = 1.0 - 1e-3 * (knots - 3.2) ** 2
        with_inf = y_b[0].copy()
        with_inf[12] = np.inf
        bulge = np.zeros(17)
        bulge[5:9] = 0.99, 0.99, 0.9, 1.0  # interval 5 lies above its chord by 0.12
        y = np.vstack([y_a, y_b, off_centre, with_inf, bulge])
        x0 = np.concatenate([x0_a, x0_b, [-0.125] * 3])
        unsettled = [0, 1, 15, 16, 17]

        evaluated, real = [], ranging._spline_candidates

        def spy(y_part, m, h):
            evaluated.append(y_part)
            return real(y_part, m, h)

        monkeypatch.setattr(ranging, "_spline_candidates", spy)
        with np.errstate(invalid="ignore"):  # inf - inf in the inf row's coefficients
            peaks = _natural_spline_max(x0, h, y)
            expected = ranging_oracle.all_interval_spline_max(x0, h, y)
        centre, whole = evaluated
        assert centre.tobytes() == y[:, 7:10].tobytes()  # knots 7 to 9: intervals 7 and 8
        assert whole.tobytes() == y[unsettled].tobytes()
        assert peaks[0][-1] == pytest.approx(-0.125 + 5.4112 * h, abs=1e-4 * h)
        for a, b in zip(peaks, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def hypot_spline_peaks(offsets, parts):
    """The spline refinement on np.hypot of every dense point, argmax included."""
    dense = np.hypot(*parts)
    m = np.argmax(dense, axis=1)
    lo = np.maximum(m - 8, 0)
    width = np.minimum(m + 9, dense.shape[1]) - lo
    h = float(offsets[1] - offsets[0])
    peaks = np.empty(len(dense))
    for w in np.unique(width):
        rows = np.flatnonzero(width == w)
        y = dense[rows[:, None], lo[rows, None] + np.arange(w)]
        peaks[rows], _ = _natural_spline_max(offsets[lo[rows]], h, y)
    return peaks


def assert_bit_equal_to_hypot_reference(monkeypatch, mf_r, coarse, waveform):
    """refine_window's outputs carry the bytes of the np.hypot reference's."""
    out = ranging_oracle.select_and_refine(mf_r, coarse, waveform)
    with monkeypatch.context() as patch:
        patch.setattr(ranging, "_spline_peaks", hypot_spline_peaks)
        expected = ranging_oracle.select_and_refine(mf_r, coarse, waveform)
    for a, b in zip(out, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDenseArgmax:
    """The dense argmax is the first argmax of the squared magnitudes.

    Dense magnitudes are formed only on the 17 points the spline reads;
    on realistic windows every result keeps the bytes of a refinement
    that takes np.hypot of every dense point.
    """

    def test_tie_goes_to_the_first_equal_square(self):
        # (3, 4), (5, 0), (4, 3) and (0, 5) square to 25 exactly; the
        # ties sit at random places in noise of squares below 2
        rng = np.random.default_rng(11)
        parts = rng.uniform(-1.0, 1.0, (2, 300, 129))
        rows = np.arange(300)
        i, j = rng.choice(129, (2, 300))
        j = np.where(i == j, (i + 1) % 129, j)
        first, second = np.minimum(i, j), np.maximum(i, j)
        ties = np.array([[3.0, 4.0], [5.0, 0.0], [4.0, 3.0], [0.0, 5.0]])
        pair = rng.integers(0, 4, (2, 300))
        parts[:, rows, first] = ties[pair[0]].T
        parts[:, rows, second] = ties[pair[1]].T
        assert np.array_equal(_dense_argmax(parts), first)

    def test_extreme_squares_raise_no_warning(self):
        # squares past overflow, among subnormals and underflowing to 0;
        # the last row's one overflowing square is its largest
        base = np.array([[3.0, 5.0, 4.0, 0.0, 1.0], [4.0, 0.0, 3.0, 5.0, 2.0]])
        scales = (1e155, 1e160, 1e200, 1e-160, 1e-170, 1e-320)
        parts = np.stack([scale * base for scale in scales] + [[[1.0, 2.0, 0.0, 1e200, 3.0]] * 2], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            best = _dense_argmax(parts)
        assert ((best >= 0) & (best < 5)).all() and best[-1] == 3

    @pytest.mark.parametrize("snr_db", [-25.0, 13.0, 23.0, math.inf])
    def test_batched_kernel_grid(self, monkeypatch, full_waveform, snr_db):
        # TestBatchedKernel's windows, three seeds to a batch of 150 rows
        state = ChannelState(true_range=90.0, snr_db=snr_db)
        for separation_hz in (1e6, 3.5e6, 7.5e6):
            waveform = replace(full_waveform, two_tone=TwoToneSpec(20e3, 20e3 + separation_hz))
            windows = [ranging_oracle.matched_filter_rows(waveform, state, 50, (17, seed)) for seed in range(3)]
            mf_r = np.concatenate([r for r, _ in windows])
            coarse = np.concatenate([ranging_oracle.peak_lags(d) for _, d in windows])
            assert_bit_equal_to_hypot_reference(monkeypatch, mf_r, coarse, waveform)


def scattered(gather, weights):
    """First lag and dense ``(L, n)`` matrix of the oracle's gather offsets and weights."""
    first = int(gather.min())
    matrix = np.zeros((int(gather.max()) - first + 1, len(gather)))
    matrix[gather - first, np.arange(len(gather))[:, None]] = weights
    return first, matrix


class TestInterpTable:
    """The one Kaiser-sinc table and the views of it the refinement reads."""

    def test_built_once_across_separations(self, full_waveform):
        _interp_table.cache_clear()
        state = ChannelState(true_range=90.0, snr_db=23.0)
        for separation_hz in (3.3e6, 4.4e6, 5.5e6, 7.5e6):
            waveform = replace(full_waveform, two_tone=TwoToneSpec(20e3, 20e3 + separation_hz))
            simulate_window(waveform, state, 10, seed=0)
        assert _interp_table.cache_info().misses == 1

    @pytest.mark.parametrize("span", [1.0, 25 / 7.5 / 2, 2.5, 25 / 4.4 / 2, 25 / 3.3 / 2, 4.0])
    def test_matrix_is_the_kernel_on_the_lattice(self, span):
        offsets, first, matrix = _interp_matrix(span)
        m = math.floor(64 * span)
        assert np.array_equal(offsets, np.arange(-m, m + 1) / 64)
        expected_first, expected = scattered(
            *ranging_oracle.interp_kernel(offsets, INTERP_TAPS, INTERP_BETA)
        )
        assert first == expected_first
        assert np.array_equal(matrix, expected)
        assert np.shares_memory(matrix, _interp_table()[2])

    def test_full_table_is_the_linspace_grid(self):
        # separations up to 3.125 MHz read the whole table, so their
        # estimates are those of a np.linspace(-4, 4, 513) grid, to the bit
        grid = np.linspace(-4.0, 4.0, 513)
        offsets, first, matrix = _interp_table()
        expected_first, expected = scattered(
            *ranging_oracle.interp_kernel(grid, INTERP_TAPS, INTERP_BETA)
        )
        assert offsets.tobytes() == grid.tobytes()
        assert first == expected_first
        assert matrix.tobytes() == expected.tobytes()
