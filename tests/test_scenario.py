import math
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import ranging_oracle
from conftest import (
    FULL_SEPARATION, INTERVAL_S, PRINT_BLAS_THREADS, clear_frame_caches, constant_trace, on_workers,
    post_snr_for, reaches_clamp, run_python, step_trace, traced_peak, tuned_config, write_trace,
)
from cohsync import channel, cli, coherence, ranging, scenario
from cohsync.channel import ChannelState
from cohsync.config import config_from_dict, default_config
from cohsync.control import (
    ERROR_SCALE,
    OUTPUT_SCALE,
    find_ultimate_gain,
    pi_step,
    ziegler_nichols_gains,
)
from cohsync.ranging import (
    WINDOW_PAD_SAMPLES,
    effective_window_length,
    refine_window,
    window_stats,
)
from cohsync.scenario import (
    EnvironmentRecord,
    ProcessingIntervalLog,
    ranging_sigma_plant,
    read_run_log_csv,
    read_trace_csv,
    run_adaptive,
    run_fixed_bandwidth,
    simulate_window,
    summarize_run,
    write_run_log_csv,
)
from cohsync.waveform import SPEED_OF_LIGHT, crlb_sigma_r
from scipy import stats

def predicted_sigma_d(config, snr_db):
    n_win = effective_window_length(config.waveform, config.channel)
    rho = post_snr_for(n_win, snr_db)
    delta_f = config.controller.x_prev / 2
    return crlb_sigma_r(delta_f, rho) / math.sqrt(config.loop.group_size)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        records = step_trace((2, 17.5), (1, 0.1), (2, -3.25), cadence_s=5.25)
        assert read_trace_csv(write_trace(tmp_path / "trace.csv", records)) == records

    def test_byte_order_mark_and_crlf_read_as_plain(self, tmp_path):
        # spreadsheet programs save CSV as UTF-8 with a byte-order mark
        records = step_trace((2, 17.5), (1, -3.25))
        plain = write_trace(tmp_path / "plain.csv", records)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
        assert read_trace_csv(marked) == read_trace_csv(plain) == records

    def test_missing_optional_columns_permitted(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("timestamp_s,snr_db\n0.0,20.0\n60.0,21.0\n")
        assert read_trace_csv(path) == [EnvironmentRecord(0.0, 20.0), EnvironmentRecord(60.0, 21.0)]

    def test_rejects_bad_traces(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp_s,snr_db\n")
        with pytest.raises(ValueError, match="no records"):
            read_trace_csv(empty)
        unknown = tmp_path / "unknown.csv"
        unknown.write_text("timestamp_s,snr_db,bogus\n0,1,2\n")
        with pytest.raises(ValueError, match="unknown"):
            read_trace_csv(unknown)
        disordered = tmp_path / "disordered.csv"
        disordered.write_text("timestamp_s,snr_db\n60.0,1.0\n0.0,2.0\n")
        with pytest.raises(ValueError, match="increasing"):
            read_trace_csv(disordered)
        for row in ("0.0,1.0,abc", "abc,1.0,2.0"):
            bad = tmp_path / "bad.csv"
            bad.write_text(f"timestamp_s,snr_db,wind_mps\n-60.0,1.0,2.0\n{row}\n")
            column = "wind_mps" if row.endswith("abc") else "timestamp_s"
            with pytest.raises(ValueError, match=rf"bad\.csv: line 3, column '{column}': 'abc' is not a number"):
                read_trace_csv(bad)
        extra = tmp_path / "extra.csv"
        extra.write_text("timestamp_s,snr_db\n-60,20\n0,20,99\n")
        with pytest.raises(ValueError, match=r"extra\.csv: line 3: 3 cells, but the header names 2 columns"):
            read_trace_csv(extra)
        twice = tmp_path / "twice.csv"
        twice.write_text("timestamp_s,snr_db,snr_db\n0,20,5\n")
        with pytest.raises(ValueError, match=r"twice\.csv: column 'snr_db' appears twice"):
            read_trace_csv(twice)


class TestRunLoop:
    def test_fixed_run_tracks_crlb_prediction(self):
        config = tuned_config(snr_db=20.0, seed=5)
        trace = constant_trace(20.0, 6)
        logs = run_fixed_bandwidth(config, trace, duration_s=6 * INTERVAL_S)
        assert len(logs) == 6
        assert all(l.f2_hz == 3.52e6 for l in logs)
        predicted = predicted_sigma_d(config, 20.0)
        mean_sigma = np.mean([l.sigma_d_m for l in logs])
        assert predicted / 2 < mean_sigma < predicted * 2

    def test_fixed_run_snr_step_scales_sigma_by_sqrt10(self):
        config = tuned_config(seed=6)
        trace = step_trace((3, 23.0), (3, 13.0), cadence_s=INTERVAL_S)
        logs = run_fixed_bandwidth(config, trace, duration_s=6 * INTERVAL_S)
        before = np.mean([l.sigma_d_m for l in logs[:3]])
        after = np.mean([l.sigma_d_m for l in logs[3:]])
        assert after / before == pytest.approx(math.sqrt(10.0), rel=0.25)

    def test_zero_noise_floor(self):
        config = tuned_config(snr_db=math.inf)
        trace = constant_trace(math.inf, 2)
        logs = run_fixed_bandwidth(config, trace, duration_s=2 * INTERVAL_S)
        assert all(l.sigma_d_m < 1e-4 for l in logs)

    def test_interval_timing_bookkeeping(self):
        config = tuned_config(seed=2)
        trace = constant_trace(23.0, 3)
        logs = run_fixed_bandwidth(config, trace, duration_s=3 * INTERVAL_S)
        stamps = [l.timestamp_s for l in logs]
        assert stamps == [0.0, 21.0, 42.0]

    def test_sigma_respects_averaged_bound(self):
        # per-interval sigma estimates carry chi^2 noise, so the bound
        # check is mean-based with a generous per-interval floor.  At 1000
        # pulses (200 groups) an interval's sigma/bound spread by 5.2 %
        # over 200 seeds (11 % at 200 pulses, where 8 % of seeds failed):
        # the floor sits 4.7 and the mean bound 4.3 standard deviations
        # away, a false-alarm rate of 2e-5 by a normal fit.  More intervals
        # would only lower the minimum.
        config = tuned_config(snr_db=20.0, pulses=1000, seed=8)
        dt = config.loop.interval_duration_s
        trace = constant_trace(20.0, 6, cadence_s=dt)
        logs = run_fixed_bandwidth(config, trace, duration_s=6 * dt)
        bound = predicted_sigma_d(config, 20.0)
        sigmas = np.array([l.sigma_d_m for l in logs])
        assert sigmas.mean() >= 0.9 * bound
        assert sigmas.min() >= 0.75 * bound

    def test_bit_identical_reproducibility(self, tmp_path):
        config = tuned_config(pulses=100, seed=11)  # 10.5 s intervals
        trace = constant_trace(23.0, 3, cadence_s=10.5)
        a = run_adaptive(config, trace, duration_s=3 * 10.5)
        b = run_adaptive(config, trace, duration_s=3 * 10.5)
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_log_csv(pa, a)
        write_run_log_csv(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_trace_gap_held_with_warning(self, caplog):
        config = tuned_config(pulses=50, seed=3)  # 5.25 s intervals
        records = [
            EnvironmentRecord(timestamp_s=10.5 * i, snr_db=23.0) for i in range(6)
        ] + [EnvironmentRecord(timestamp_s=600.0, snr_db=23.0)]
        import logging

        with caplog.at_level(logging.WARNING, logger="cohsync.scenario"):
            logs = run_fixed_bandwidth(config, records, duration_s=16 * 5.25)
        assert len(logs) == 16
        assert any("gap" in rec.message for rec in caplog.records)

    def test_rejects_bad_inputs(self):
        config = tuned_config()
        with pytest.raises(ValueError):
            run_fixed_bandwidth(config, [], duration_s=100.0)
        trace = constant_trace(23.0, 2)
        with pytest.raises(ValueError):
            run_fixed_bandwidth(config, trace, duration_s=1.0)
        for duration_s in (math.inf, math.nan):
            with pytest.raises(ValueError, match="duration_s"):
                run_fixed_bandwidth(config, trace, duration_s=duration_s)


class TestAdaptiveRuns:
    def test_settles_near_minimal_separation(self):
        config = tuned_config(seed=7)  # 23 dB: 3.5 MHz more than suffices
        trace = constant_trace(23.0, 14)
        logs = run_adaptive(config, trace, duration_s=14 * INTERVAL_S)
        sigma_tail = np.mean([l.sigma_d_m for l in logs[-5:]])
        assert abs(sigma_tail - config.loop.target_sigma_m) <= 2e-3
        n_win = effective_window_length(config.waveform, config.channel)
        rho = post_snr_for(n_win, 23.0)
        x_star = SPEED_OF_LIGHT / (
            2 * math.pi * math.sqrt(5.0) * math.sqrt(rho) * config.loop.target_sigma_m
        )
        separation_tail = np.mean([l.f2_hz - 20e3 for l in logs[-5:]])
        assert separation_tail == pytest.approx(x_star, rel=0.20)

    def test_clamp_stress_saturates_and_completes(self):
        # 6 dB: even the full 7.5 MHz separation cannot reach 10 mm
        config = tuned_config(snr_db=6.0, seed=9)
        trace = constant_trace(6.0, 10)
        logs = run_adaptive(config, trace, duration_s=10 * INTERVAL_S)
        assert len(logs) == 10
        assert reaches_clamp(logs)
        assert logs[-1].sigma_d_m > config.loop.target_sigma_m
        for l in logs:
            assert 20e3 <= l.f2_hz <= 7.52e6 + 1e-6

    def test_clamp_check_fails_for_held_bandwidth(self):
        # the clamp-stress run with the separation held at 3.5 MHz never
        # reaches the clamp, so the check above is not vacuous
        config = tuned_config(snr_db=6.0, seed=9)
        trace = constant_trace(6.0, 8)
        logs = run_fixed_bandwidth(config, trace, duration_s=8 * INTERVAL_S)
        assert logs[-1].sigma_d_m > config.loop.target_sigma_m
        assert not reaches_clamp(logs)

    def test_target_override_feeds_controller_error(self):
        config = tuned_config(pulses=50, seed=12)
        config = replace(config, loop=replace(config.loop, target_sigma_m=0.02))
        trace = constant_trace(23.0, 2, cadence_s=5.25)
        logs = run_adaptive(config, trace, duration_s=2 * 5.25)
        assert logs[0].controller_error_m == pytest.approx(
            logs[0].sigma_d_m - 0.02, rel=1e-12
        )


class TestTuningPipeline:
    def test_tuning_pipeline_smoke(self):
        # live ultimate-gain search on a reduced loop, then the ZN gains
        # must actually regulate sigma toward the target
        config = tuned_config(x0_hz=1.8e6, pulses=100, seed=101)
        plant = ranging_sigma_plant(config, n_intervals=24)
        result = find_ultimate_gain(
            plant, [0.1, 0.2, 0.3, 0.45], dt=config.loop.interval_duration_s
        )
        assert result is not None
        assert 0.05 <= result.k_u <= 0.5
        k_p, t_i = ziegler_nichols_gains(result.k_u, result.t_u)
        loop_cfg = replace(
            config,
            controller=replace(config.controller, k_p=k_p, t_i=t_i, x_prev=3.5e6),
            seed=13,
        )
        trace = constant_trace(23.0, 10)
        logs = run_adaptive(loop_cfg, trace, duration_s=10 * INTERVAL_S)
        tail = np.mean([l.sigma_d_m for l in logs[-3:]])
        assert abs(tail - 0.010) <= 3e-3


class TestSummaries:
    def test_run_log_round_trip_and_summary(self, tmp_path):
        config = tuned_config(pulses=50, seed=14)  # 5.25 s intervals
        trace = constant_trace(23.0, 3)
        logs = run_fixed_bandwidth(config, trace, duration_s=3 * 5.25)
        path = tmp_path / "log.csv"
        write_run_log_csv(path, logs)
        back = read_run_log_csv(path)
        assert back == logs
        summary = summarize_run(back)
        assert summary["intervals"] == 3
        assert summary["sigma_d_m"]["mean"] == pytest.approx(
            np.mean([l.sigma_d_m for l in logs])
        )
        assert set(summary["max_coherent_frequency_hz"]) == {"0.9", "0.8", "0.7"}


class TestNoiseStreams:
    """Pins which noise stream each closed loop draws, by replaying it by hand.

    Interval ``i`` of a run draws ``SeedSequence((seed, 1, i))``; interval
    ``i`` of the tuning plant draws ``SeedSequence((seed, 3, i))``.
    Comparisons are exact, so any change of stream or of the control-law
    arithmetic shows here.
    """

    @staticmethod
    def window_sigma(config, separation_hz, seed, snr_db=None):
        channel = config.channel if snr_db is None else replace(config.channel, snr_db=snr_db)
        pulses = config.loop.pulses_per_interval
        ranges, _ = simulate_window(config.waveform, separation_hz, channel, pulses, seed=seed)
        stats = window_stats(ranges, config.loop.group_size, pulses)
        return stats.sigma_d, stats.mean_range

    def test_plant_uses_stream_3_and_p_law(self):
        config = tuned_config(x0_hz=1.8e6, pulses=50, seed=101)
        ctl, seed, k = config.controller, config.seed, 0.3
        x0 = ctl.x_prev
        x, expected = x0, []
        for i in range(2):
            sigma, _ = self.window_sigma(config, x, (seed, 3, i))
            expected.append(sigma * ERROR_SCALE)
            error_units = (sigma - config.loop.target_sigma_m) * ERROR_SCALE
            x = min(max(x0 + k * error_units * OUTPUT_SCALE, ctl.x_min), ctl.x_max)
        plant = ranging_sigma_plant(config, n_intervals=2)
        assert list(plant(k)) == expected

    def test_adaptive_run_uses_stream_1_and_pi_law(self):
        config = tuned_config(pulses=50, seed=5)
        dt = config.loop.interval_duration_s
        trace = [
            EnvironmentRecord(timestamp_s=0.0, snr_db=23.0),
            EnvironmentRecord(timestamp_s=dt, snr_db=17.0),
        ]
        seed = config.seed
        controller, x, expected = config.controller, config.controller.x_prev, []
        for i, rec in enumerate(trace):
            sigma, mean_range = self.window_sigma(config, x, (seed, 1, i), rec.snr_db)
            error = sigma - config.loop.target_sigma_m
            expected.append(
                ProcessingIntervalLog(
                    interval_index=i,
                    f2_hz=config.waveform.f1 + x,
                    sigma_d_m=sigma,
                    mean_range_m=mean_range,
                    snr_db=rec.snr_db,
                    controller_error_m=error,
                    timestamp_s=rec.timestamp_s,
                )
            )
            controller, x = pi_step(controller, error, dt)
        assert run_adaptive(config, trace, duration_s=2 * dt) == expected


def oracle_refined(waveform, separation, state, n_pulses, seed):
    """Selection and refinement on the oracle's whole rows of time-domain noise."""
    mf_r, mf_d = ranging_oracle.matched_filter_rows(waveform, separation, state, n_pulses, seed)
    return ranging_oracle.select_and_refine(mf_r, ranging_oracle.peak_lags(mf_d), waveform, separation)


def direct_refined(waveform, separation, state, n_pulses, seed):
    """``refine_window`` on the window's selected draws, as ``simulate_window`` runs it."""
    support, peak, gross, _, reads = scenario._matched_filter_rows(
        waveform, separation, state, n_pulses, seed
    )
    return (*refine_window(support, peak, reads), gross)


def oracle_window(waveform, separation, state, n_pulses, seed):
    """``simulate_window`` on the oracle's whole rows of time-domain noise."""
    ranges, _, gross = oracle_refined(waveform, separation, state, n_pulses, seed)
    return ranges, int(gross.sum())


def widest_block(waveform, n):
    """Most lags drawn as one block: ``n - L + 1``, ``L`` the ranging pulse's length."""
    return n - round(waveform.ranging_pulse_width * waveform.sample_rate) + 1


class TestDirectNoiseDraws:
    """The window's direct noise draws against the oracle's time-domain noise.

    Each side pools 3 seeds x 1000 pulses of independent range estimates,
    drawn from independent streams, so the bounds are four standard
    errors of the difference: about 1/sqrt(n) for a ratio of sample
    standard deviations and binomial for gross-error counts.
    """

    SEEDS = (1, 2, 3)

    def pooled(self, simulate, waveform, separation, state):
        runs = [
            simulate(waveform, separation, state, 200, (seed, k)) for seed in self.SEEDS for k in range(5)
        ]
        return np.concatenate([ranges for ranges, _ in runs]), sum(gross for _, gross in runs)

    @pytest.mark.parametrize("snr_db", [13.0, 23.0])
    @pytest.mark.parametrize("separation_hz", [1e6, 3.5e6])
    def test_std_and_bias_match_oracle(self, full_waveform, separation_hz, snr_db):
        state = ChannelState(true_range=90.0, snr_db=snr_db)
        direct, gross = self.pooled(simulate_window, full_waveform, separation_hz, state)
        oracle, oracle_gross = self.pooled(oracle_window, full_waveform, separation_hz, state)
        assert gross == oracle_gross == 0
        n = direct.size
        s_direct, s_oracle = direct.std(ddof=1), oracle.std(ddof=1)
        assert abs(s_direct / s_oracle - 1.0) <= 4.0 / math.sqrt(n)
        assert abs(direct.mean() - oracle.mean()) <= 4.0 * math.hypot(s_direct, s_oracle) / math.sqrt(n)

    def test_gross_error_rate_matches_oracle(self, full_waveform):
        state = ChannelState(true_range=90.0, snr_db=-25.0)
        direct, gross = self.pooled(simulate_window, full_waveform, FULL_SEPARATION, state)
        _, oracle_gross = self.pooled(oracle_window, full_waveform, FULL_SEPARATION, state)
        n = direct.size
        rate = (gross + oracle_gross) / (2 * n)
        assert gross > 0 and oracle_gross > 0
        assert abs(gross - oracle_gross) <= 4.0 * math.sqrt(2 * n * rate * (1 - rate))

    def test_lobe_slip_law_matches_oracle(self, full_waveform):
        # A far disambiguation peak still finds a lobe maximum, so it shows
        # as a slip, not a gross error.  The selected peak always lies in
        # the lobe window around the coarse lag, so a slip shows only
        # against the true delay, and is counted in lobes from it.
        # Slips beyond 3 lobes share a bin on each side; a chi-square test
        # of homogeneity must not reject at the 0.1 % level.
        state = ChannelState(true_range=90.0, snr_db=-25.0)
        fs = full_waveform.sample_rate
        true_lag = 2 * 90.0 / SPEED_OF_LIGHT * fs
        spacing = fs / FULL_SEPARATION
        seeds = [(seed, k) for seed in self.SEEDS for k in range(5)]

        def histogram(refined):
            peak_lag = np.concatenate(
                [refined(full_waveform, FULL_SEPARATION, state, 200, s)[1] for s in seeds]
            )
            slips = np.rint((peak_lag * fs - true_lag) / spacing).astype(int)
            return np.bincount(np.clip(slips, -4, 4) + 4, minlength=9)

        table = np.array([histogram(direct_refined), histogram(oracle_refined)])
        assert table[1, [0, -1]].sum() > 0  # the oracle's pulses slip beyond 3 lobes
        table = table[:, table.sum(axis=0) > 0]
        assert stats.chi2_contingency(table).pvalue > 1e-3

    @pytest.mark.parametrize("separation_hz", [0.0, 1e5, 3.5e6, 7.5e6])
    def test_noise_free_matches_oracle_and_draws_nothing(
        self, full_waveform, separation_hz, monkeypatch
    ):
        state = ChannelState(true_range=90.0, snr_db=math.inf)
        below_floor = separation_hz < 0.29e6  # 0 and 0.1 MHz: rejected
        expected = None if below_floor else oracle_window(full_waveform, separation_hz, state, 4, 0)[0]

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"a noise-free window called rng.{name}")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
        if below_floor:
            with pytest.raises(ValueError, match="must exceed"):
                simulate_window(full_waveform, separation_hz, state, 4, seed=0)
            return
        ranges, gross = simulate_window(full_waveform, separation_hz, state, 4, seed=0)
        assert gross == 0
        assert np.max(np.abs(ranges - expected)) <= 1e-9


class TestRejectedWindow:
    """A separation no window takes is rejected before the window starts any work."""

    @pytest.mark.parametrize("separation_hz", [12.48e6, 13e6])  # f2 at fs/2 and past it
    def test_aliasing_upper_tone_starts_no_fill(self, monkeypatch, separation_hz):
        config, started = default_config(), []
        real = scenario.start_task

        def spy(fn, *args):
            started.append(fn)
            return real(fn, *args)

        monkeypatch.setattr(channel, "_WORKERS", 2)
        monkeypatch.setattr(channel, "_pool", None)
        monkeypatch.setattr(scenario, "start_task", spy)
        with pytest.raises(ValueError, match="aliases"):
            simulate_window(config.waveform, separation_hz, config.channel, 10, seed=0)
        assert started == [] and channel._pool is None


class TestRowChunks:
    """Row chunks return their rows' peaks in row order, each chunk on its own stream."""

    @staticmethod
    def disambiguation_search(snr_db):
        """The reference disambiguation frame's peak search and noise power at ``snr_db``."""
        config = default_config()
        waveform, geometry = config.waveform, replace(config.channel, snr_db=0.0)
        n = effective_window_length(waveform, geometry)
        fs = waveform.sample_rate
        search, power = scenario._disambiguation_frame(waveform.f_d, fs, n, geometry)
        return search, channel.scaled_noise_power(power, snr_db)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [1, 16, 17, 40])
    def test_map_row_chunks_returns_each_reduction_in_order(self, monkeypatch, n_rows, workers):
        clean_row = np.linspace(0.0, 1.5, 8) * np.exp(1j * np.arange(8))
        drawn = []

        def draw(rows, stream):
            drawn.append((rows.start, rows.stop))
            return stream.standard_normal((rows.stop - rows.start, 16)).view(np.complex128)

        got = on_workers(
            monkeypatch,
            workers,
            lambda: channel._row_peaks(clean_row, n_rows, draw, np.random.default_rng(11)),
            n_rows > 16,
        )
        starts = range(0, n_rows, 16)
        streams = map(np.random.default_rng, np.random.SeedSequence(11).spawn(len(starts)))
        expected = [
            np.argmax(np.abs(clean_row + s.standard_normal((min(16, n_rows - a), 16)).view(complex)), 1)
            for a, s in zip(starts, streams)
        ]
        assert sorted(drawn) == [(a, min(a + 16, n_rows)) for a in starts]
        assert got.shape == (n_rows,)
        assert got.tobytes() == np.concatenate(expected).tobytes()

    def test_every_row_certified_runs_no_chunk(self, monkeypatch):
        # at 23 dB the certificate settles every pulse, so nothing is completed
        search, s2 = self.disambiguation_search(23.0)
        monkeypatch.setattr(channel, "_complete_noise", None)  # a completion would fail
        rng = np.random.default_rng(5)
        near = rng.standard_normal((40, 2 * search.n_inputs))
        index, certified = channel.matched_noise_peaks(search, s2, 40, near, rng)
        assert certified.all()
        assert np.array_equal(index, np.full(40, search.peak))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_no_row_certified_completes_each_chunk_on_its_stream(self, monkeypatch, workers):
        # at -20 dB the certificate settles no pulse: every row is completed
        # around its largest far modulus, 16 rows a stream
        search, s2 = self.disambiguation_search(-20.0)
        n, n_rows = search.clean_row.size, 40

        def peaks():
            rng = np.random.default_rng(5)
            near = rng.standard_normal((n_rows, 2 * search.n_inputs))
            return channel.matched_noise_peaks(search, s2, n_rows, near, rng)

        index, certified = on_workers(monkeypatch, workers, peaks)
        assert not certified.any()
        rng = np.random.default_rng(5)
        near = rng.standard_normal((n_rows, 2 * search.n_inputs)).view(np.complex128)
        near *= math.sqrt(s2 / 2.0)
        r_max = channel._max_modulus(s2, n - search.n_inputs, n_rows, rng)
        streams = map(np.random.default_rng, np.random.SeedSequence(5).spawn(3))
        expected = []
        for start, stream in zip(range(0, n_rows, 16), streams):
            rows = slice(start, start + 16)
            noise = channel._complete_noise(near[rows], r_max[rows], s2, n, stream)
            full = np.fft.ifft(np.fft.fft(noise, axis=1) * np.conj(search.spectrum), axis=1)
            expected.append(np.argmax(np.abs(full + search.clean_row), axis=1))
        assert np.array_equal(index, (search.first + np.concatenate(expected)) % n)


class TestStreamedRows:
    """Whole matched-filter rows are drawn and reduced 16 at a time."""

    # (disambiguation, separation) pairs whose ranging rows are drawn as one lag block
    BLOCK_DRAWS = [(None, 0.29e6), (None, 0.5e6), (6.3e3, 0.29e6)]

    @pytest.mark.parametrize("snr_db", [6.0, 13.0, 23.0, math.inf])
    @pytest.mark.parametrize(
        "disambiguation_hz, separation_hz",
        [(None, 0.0), (None, 1e5), (None, 0.2e6), (None, 0.28e6), (6.3e3, 0.0), (6.3e3, 0.05e6)]
        + BLOCK_DRAWS
        + [(None, 6.8e3), (None, 1e4)],
    )
    def test_same_bytes_as_whole_arrays(self, disambiguation_hz, separation_hz, snr_db, monkeypatch):
        # 50 pulses: three full chunks and a partial one.  A 6.3 kHz
        # disambiguation pulse draws whole disambiguation rows.  At 0.29 and
        # 0.5 MHz the lags each pulse reads fit a block (158 and 122 of the
        # widest block's 159 lags, 158 of 505 beside the 6.3 kHz pulse's
        # longer window).  The other pairs read more lags than a block holds
        # (160 to 3748 at the reference window, 572 of 505 at 50 kHz beside
        # the 6.3 kHz pulse) or have no lobes (separation 0); a window
        # rejects them at every SNR before it draws.  The window runs inline
        # and on 2 and 3 threads.
        overrides = {} if disambiguation_hz is None else {"disambiguation_hz": disambiguation_hz}
        config = config_from_dict({"waveform": overrides})
        waveform = config.waveform
        state = replace(config.channel, snr_db=snr_db)
        n = effective_window_length(waveform, state)
        fits = separation_hz > 0 and (
            ranging.readout(n, waveform.sample_rate, separation_hz).width <= widest_block(waveform, n)
        )
        assert fits == ((disambiguation_hz, separation_hz) in self.BLOCK_DRAWS)
        if not fits:
            with pytest.raises(ValueError, match="must exceed"):
                on_workers(monkeypatch, 2, lambda: simulate_window(waveform, separation_hz, state, 50, (4, 2)))
            assert channel._pool is None
            return
        expected, expected_gross = ranging_oracle.whole_array_window(
            waveform, separation_hz, state, 50, (4, 2)
        )
        # a window with noise fills its unit normals on the pool; a noise-free
        # window draws nothing and starts no thread
        for workers in (1, 2, 3):
            ranges, gross = on_workers(
                monkeypatch,
                workers,
                lambda: simulate_window(waveform, separation_hz, state, 50, seed=(4, 2)),
                snr_db < math.inf,
            )
            assert ranges.tobytes() == expected.tobytes(), workers
            assert gross == expected_gross

    def test_completed_rows_same_bytes_on_any_worker_count(self, monkeypatch):
        # at -20 dB the certificate settles next to no pulse, so the
        # disambiguation rows are completed, 16 rows a stream
        config = default_config()
        state = replace(config.channel, snr_db=-20.0)
        completed = []
        real = channel._complete_noise

        def spy(near, *args):
            completed.append(len(near))
            return real(near, *args)

        monkeypatch.setattr(channel, "_complete_noise", spy)
        digests = set()
        for workers in (1, 2, 3):
            ranges, _ = on_workers(
                monkeypatch,
                workers,
                lambda: simulate_window(config.waveform, config.controller.x_prev, state, 50, seed=(4, 2)),
            )
            digests.add(ranges.tobytes())
        assert len(completed) > 3 and len(digests) == 1

    @pytest.mark.parametrize(
        "separation_hz", [0.0, 6.8e3, 1e4, 2e4, 5e4, 0.2e6, 0.29e6, 3.5e6, 7.5e6]
    )
    def test_peak_memory_is_a_third_of_a_frame_array(self, separation_hz):
        # a frame array is P x n complex samples; a window that held its
        # whole ranging rows at once would peak above 1.2 of them.  From
        # 0.29 MHz the lags each pulse reads are one block, and every window
        # stays at 0.12-0.23.  Below the floor (0.284 MHz) a window is
        # rejected before it builds a frame: under 32 KiB, about half of
        # one 3750-sample row
        config = default_config()
        waveform = config.waveform
        state = replace(config.channel, snr_db=13.0)
        n = effective_window_length(waveform, state)
        if separation_hz < 0.29e6:

            def rejected():
                with pytest.raises(ValueError, match="must exceed"):
                    simulate_window(waveform, separation_hz, state, 800, seed=1)

            assert traced_peak(rejected)[1] <= 2**15
            return
        simulate_window(waveform, separation_hz, state, 2, seed=0)  # the process's tables
        _, peak = traced_peak(lambda: simulate_window(waveform, separation_hz, state, 800, seed=1))
        assert peak <= 0.35 * 800 * n * 16

    @pytest.mark.parametrize("separation_hz", [0.2e6, 3.5e6])
    def test_peak_memory_with_whole_disambiguation_rows(self, separation_hz):
        # the 6.3 kHz pulse's rows are drawn whole and scanned 16 at a time:
        # 0.19-0.21 of a frame array; its longer window puts the floor at
        # 57.6 kHz, so 0.2 MHz is a block there
        config = config_from_dict({"waveform": {"disambiguation_hz": 6.3e3}})
        waveform = config.waveform
        state = replace(config.channel, snr_db=13.0)
        simulate_window(waveform, separation_hz, state, 2, seed=0)  # the process's tables
        n = effective_window_length(waveform, state)
        _, peak = traced_peak(lambda: simulate_window(waveform, separation_hz, state, 800, seed=1))
        assert peak <= 0.35 * 800 * n * 16

    @pytest.mark.parametrize(
        "doc",
        [
            {"waveform": {"disambiguation_hz": 27e3}},
            {
                "waveform": {"sample_rate_hz": 100e6, "disambiguation_hz": 27.8e3},
                "controller": {"x_min_hz": 1.3e6},
            },
        ],
    )
    def test_peak_memory_with_long_disambiguation_templates(self, doc):
        # the certificate's near product over L = 926 and 3597 template
        # samples would take a 157 MiB and a 2.31 GiB Toeplitz matrix; it
        # costs more than a whole row there, so the rows are drawn whole and
        # a window, its frames built afresh, stays within a third of a frame array
        config = config_from_dict(doc)
        waveform, separation = config.waveform, config.controller.x_prev
        state = replace(config.channel, snr_db=13.0)
        simulate_window(waveform, separation, state, 2, seed=0)  # the process's tables
        clear_frame_caches()
        n = effective_window_length(waveform, state)
        _, peak = traced_peak(lambda: simulate_window(waveform, separation, state, 800, seed=1))
        assert peak <= 0.35 * 800 * n * 16


class TestUnitNormalFills:
    """A window's unit-normal fills run as pool tasks and keep the bytes of one thread."""

    @staticmethod
    def on_each_worker_count(monkeypatch, run):
        """``[run()]`` inline and on 2 and 3 workers, threads switching between nearly
        every bytecode."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return [on_workers(monkeypatch, workers, run) for workers in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "disambiguation_hz, snr_db",
        # a lag block beside certified peaks at 23 and 13 dB; at -20 dB the
        # certificate settles no pulse, so the window completes its rows on the
        # pool after joining its fills; 6.3 kHz rows are drawn whole
        [(None, 23.0), (None, 13.0), (None, -20.0), (6.3e3, 13.0)],
    )
    def test_window_same_bytes_at_any_worker_count(self, monkeypatch, disambiguation_hz, snr_db):
        overrides = {} if disambiguation_hz is None else {"disambiguation_hz": disambiguation_hz}
        config = config_from_dict({"waveform": overrides, "channel": {"snr_db": snr_db}})

        def window():
            ranges, gross = simulate_window(
                config.waveform, config.controller.x_prev, config.channel, 200, seed=(4, 2)
            )
            return ranges.tobytes(), gross

        first, *others = self.on_each_worker_count(monkeypatch, window)
        assert others == [first, first]

    def test_adaptive_run_log_same_bytes_at_any_worker_count(self, monkeypatch, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"loop": {"pulses_per_interval": 50}, "controller": {"k_p": 0.09}}')
        trace = write_trace(tmp_path / "trace.csv", step_trace((3, 23.0), (3, 13.0), cadence_s=5.25))
        runs = iter(range(3))

        def run_log():
            out = tmp_path / f"out{next(runs)}"
            argv = ["run", "--config", str(config), "--trace", str(trace), "--adaptive", "--out", str(out)]
            assert cli.main(argv) == 0
            return (out / "run_log.csv").read_bytes()

        first, *others = self.on_each_worker_count(monkeypatch, run_log)
        assert len(first.splitlines()) == 6 and others == [first, first]


class TestCoarseLagLaw:
    """Coarse lags of the window's draw against the oracle's whole rows.

    At -15 dB the certificate settles about 60 % of the pulses and the
    rest are completed rows; at -20 and -25 dB it settles none, and at
    -25 dB lags far from the clean peak win often.  Each side pools 2000
    pulses.  Lags more than 3 from the clean peak share a bin on each
    side, lags more than 20 away (outside the certificate's near lags)
    one more, and a chi-square test of homogeneity must not reject at the
    0.1 % level.
    """

    @pytest.mark.parametrize("snr_db", [-15.0, -20.0, -25.0])
    def test_histogram_matches_oracle(self, full_waveform, snr_db):
        state = ChannelState(true_range=90.0, snr_db=snr_db)
        seeds = [(seed, 7) for seed in range(10)]
        direct = [
            scenario._matched_filter_rows(full_waveform, FULL_SEPARATION, state, 200, s)[3] for s in seeds
        ]
        oracle = [
            ranging_oracle.peak_lags(
                ranging_oracle.matched_filter_rows(full_waveform, FULL_SEPARATION, state, 200, s)[1]
            )
            for s in seeds
        ]
        peak = round(2 * 90.0 / SPEED_OF_LIGHT * full_waveform.sample_rate)

        def histogram(coarse):
            offset = np.concatenate(coarse) - peak
            bins = np.where(np.abs(offset) > 20, 9, np.clip(offset, -4, 4) + 4)
            return np.bincount(bins, minlength=10)

        table = np.array([histogram(direct), histogram(oracle)])
        table = table[:, table.sum(axis=0) > 0]
        assert table.shape[1] > 1  # the argmax varies
        assert stats.chi2_contingency(table).pvalue > 1e-3


class TestBlasThreads:
    # 0.5 MHz makes a 122-lag block and 1 MHz a 96-lag one, both wide
    # enough that OpenBLAS would thread their Cholesky factor; at -20 dB
    # every disambiguation row is completed
    SCRIPT = """
import hashlib
from cohsync.channel import ChannelState
from cohsync.config import default_config
from cohsync.scenario import simulate_window
waveform = default_config().waveform
digest = hashlib.sha256()
for separation, snr_db in ((0.5e6, 13.0), (1e6, 13.0), (3.5e6, 13.0), (3.5e6, -20.0)):
    ranges, _ = simulate_window(waveform, separation, ChannelState(90.0, snr_db), 200, 4)
    digest.update(ranges.tobytes())
print(digest.hexdigest())
"""

    def test_window_bytes_do_not_depend_on_blas_threads(self):
        digests = set()
        for threads in ("1", "2"):
            digests.add(run_python("-c", self.SCRIPT, env={"OPENBLAS_NUM_THREADS": threads}))
        assert len(digests) == 1

    RESTORE = """
import sys, threading
import numpy as np
from cohsync import channel
from cohsync.config import default_config
from cohsync.scenario import simulate_window
config = default_config()
simulate_window(config.waveform, config.controller.x_prev, config.channel, 20, seed=1)  # a 77-lag block
# more threads than cores factor 96-lag blocks at once, switching often
spectrum = np.fft.fft(np.exp(0.3j * np.arange(3592)), 3750)
draw = lambda: channel.matched_noise_block(
    channel.lag_block_factor(spectrum, 1.0, 96), np.random.default_rng(0).standard_normal((4, 192))
)
expected = draw().tobytes()
sys.setswitchinterval(1e-6)
blocks = []
def work():
    for _ in range(50):
        blocks.append(draw().tobytes())
threads = [threading.Thread(target=work) for _ in range(6)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
assert blocks == [expected] * 300
""" + PRINT_BLAS_THREADS

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_blocks_restore_the_thread_count(self):
        stdout = run_python("-c", self.RESTORE, env={"OPENBLAS_NUM_THREADS": "2"})
        assert stdout.split() == ["2"]


class TestFrameCache:
    """Each frame is built once per process for every input but the SNR.

    Warm windows must give the bytes of windows built on empty caches,
    whatever order geometries come in; a key that left out one input of
    a frame would hand a window another geometry's frame.
    """

    @staticmethod
    def geometries():
        """(waveform, separation, channel) triples; each after the first changes one
        input of the first.

        Only the pulse-width variant changes the window length, so the
        others test the keys' fields other than ``n``.
        """
        config = default_config()
        base_w, base_x = config.waveform, 3.5e6
        base_c = replace(config.channel, snr_db=13.0)
        return [
            (base_w, base_x, base_c),
            (base_w, base_x, replace(base_c, true_range=93.0)),
            (replace(base_w, f_d=2.0e5), base_x, base_c),
            (base_w, base_x, replace(base_c, residual_offset=-400.0)),
            (replace(base_w, sample_rate=25.01e6), base_x, base_c),
            (replace(base_w, ranging_pulse_width=150e-6), base_x, base_c),  # another window length
            (base_w, base_x, replace(base_c, snr_db=23.0)),  # what no key may hold: the SNR
            (base_w, 1.8e6, base_c),  # the ranging tones only
        ]

    def test_warm_windows_equal_cold_windows(self):
        geometries = self.geometries()
        n = {effective_window_length(w, c) for w, _, c in geometries}
        assert len(n) == 2  # only the pulse-width variant changes the window length
        order = [0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 3, 1, 4, 2, 5]
        cold = []
        for step, index in enumerate(order):
            clear_frame_caches()
            cold.append(simulate_window(*geometries[index], 40, seed=(5, step)))
        clear_frame_caches()
        for step, index in enumerate(order):
            warm = simulate_window(*geometries[index], 40, seed=(5, step))
            assert warm[0].tobytes() == cold[step][0].tobytes(), (step, index)
            assert warm[1] == cold[step][1], (step, index)
        # each cache holds two frames: geometry 0 comes back every other
        # window, and shares its disambiguation frame with 6 and 7 and its
        # ranging frame with 2 (the disambiguation tone) and 6; each of the
        # 12 lag-block factors built reads its ranging frame once more
        assert scenario._disambiguation_frame.cache_info()[:2] == (8, 11)
        assert scenario._ranging_frame.cache_info()[:2] == (20, 11)
        assert scenario._lag_block_root.cache_info()[:2] == (7, 12)

    def test_lag_block_factor_cache_counts(self, monkeypatch):
        # test_warm_windows_equal_cold_windows' order on warm caches.  A factor
        # is keyed on its ranging frame, SNR and readout width: geometry 0
        # shares it with 2 (the disambiguation tone) but not with 6 (the SNR),
        # so of 19 windows 12 build one, one more than build a ranging frame.
        # Each build reads its frame's spectrum and 0 dB power from the frame cache
        def spy(name):
            calls, real = [], getattr(scenario, name)

            def wrapper(*args):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(scenario, name, wrapper)
            return calls

        lookups, builds = spy("_lag_block_root"), spy("lag_block_factor")
        geometries = self.geometries()
        order = [0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 3, 1, 4, 2, 5]
        for step, index in enumerate(order):
            simulate_window(*geometries[index], 40, seed=(5, step))
        assert (len(lookups), len(builds)) == (19, 12)
        assert scenario._ranging_frame.cache_info()[:2] == (20, 11)
        # geometry 6 differs from 0 in the SNR only, by 10 dB
        frame_0, snr_0, width_0 = lookups[order.index(0)]
        frame_6, snr_6, width_6 = lookups[order.index(6)]
        assert frame_6 == frame_0 and width_6 == width_0
        assert (snr_0, snr_6) == (13.0, 23.0)
        # geometry 0 builds the first factor and 6 the sixth
        spectrum_0, power_0, _ = builds[0]
        spectrum_6, power_6, _ = builds[5]
        assert spectrum_6 is spectrum_0  # the cached frame's spectrum
        assert power_0 == pytest.approx(10.0 * power_6, rel=1e-12)

    def test_cached_factor_is_read_only(self):
        waveform, separation, state = self.geometries()[0]
        simulate_window(waveform, separation, state, 10, seed=0)
        n, fs = effective_window_length(waveform, state), waveform.sample_rate
        frame = (waveform.f1, waveform.f1 + separation, waveform.ranging_pulse_width, fs, n,
                 replace(state, snr_db=0.0))
        root = scenario._lag_block_root(frame, state.snr_db, ranging.readout(n, fs, separation).width)
        assert scenario._lag_block_root.cache_info()[:2] == (1, 1)  # the window's factor
        with pytest.raises(ValueError, match="read-only"):
            root[0, 0] = 0

    def test_one_build_per_distinct_input(self, monkeypatch):
        builds = Counter()

        def spy(name, real):
            def build(*args):
                builds[name] += 1
                return real(*args)

            return build

        for name in ("generate_disambiguation", "generate_two_tone"):
            monkeypatch.setattr(scenario, name, spy(name, getattr(scenario, name)))
        once = Counter(generate_disambiguation=1, generate_two_tone=1)
        config = tuned_config(pulses=50)
        trace = step_trace((2, 23.0), (2, 13.0), cadence_s=5.25)
        first = run_fixed_bandwidth(config, trace, duration_s=4 * 5.25)
        assert [log.snr_db for log in first] == [23.0, 23.0, 13.0, 13.0]
        assert builds == once  # the SNR is in no key
        # a later run builds nothing, and logs the same
        assert run_fixed_bandwidth(config, trace, duration_s=4 * 5.25) == first
        assert builds == once
        # other tones build a ranging frame only
        simulate_window(config.waveform, 1.8e6, config.channel, 10, seed=0)
        assert builds == once + Counter(generate_two_tone=1)

    def test_cached_arrays_are_read_only(self):
        waveform, separation, state = self.geometries()[0]
        fs, geometry = waveform.sample_rate, replace(state, snr_db=0.0)
        n = effective_window_length(waveform, state)
        search, _ = scenario._disambiguation_frame(waveform.f_d, fs, n, geometry)
        spectrum, row, _ = scenario._ranging_frame(
            waveform.f1, waveform.f1 + separation, waveform.ranging_pulse_width, fs, n, geometry
        )
        ramp = channel.delay_ramp(n, fs, state.true_range)
        for array in (search.spectrum, search.toeplitz, search.clean_row, spectrum, row, ramp):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestBenchmarkPatchPoints:
    """Names the benchmark patches or wraps on cohsync's modules, and what its hooks read.

    Its traced runs span the scenario, cli and coherence names below, and
    every run wraps its workload's step function (``simulate_window`` or
    ``probability_curve``) and ``cli.main``.  Its hooks count from those
    calls: ``count_window`` unpacks a window's result as ``ranges, gross``,
    ``count_curve`` reads a curve's scenario, grid and ``trials=`` keyword,
    and ``saturation`` unpacks a controller step as ``state, x``.
    """

    NAMES = (
        "simulate_window",
        "_circular_correlation",
        "disambiguate_and_refine",
        "generate_two_tone",
        "generate_disambiguation",
        "apply_round_trip_response",
        "noise_power_for",
        "window_stats",
        "pi_step",
    )
    CLI_NAMES = (
        "main",
        "load_config",
        "save_config",
        "read_trace_csv",
        "write_run_log_csv",
        "read_run_log_csv",
        "summarize_run",
        "run_adaptive",
        "run_fixed_bandwidth",
        "find_ultimate_gain",
        "ranging_sigma_plant",
    )
    COHERENCE_NAMES = ("probability_curve", "threshold_crossings")

    def test_names_stay_bound(self):
        for module, names in (
            (scenario, self.NAMES),
            (cli, self.CLI_NAMES),
            (coherence, self.COHERENCE_NAMES),
        ):
            for name in names:
                assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"

    def test_closed_loop_calls_through_the_names(self, monkeypatch):
        called = set()

        def spy(name, real):
            def wrapper(*args, **kwargs):
                called.add(name)
                return real(*args, **kwargs)

            return wrapper

        for name in self.NAMES:
            monkeypatch.setattr(scenario, name, spy(name, getattr(scenario, name)))
        trace = constant_trace(23.0, 2, cadence_s=5.25)
        run_adaptive(tuned_config(pulses=50), trace, duration_s=2 * 5.25)
        assert called == set(self.NAMES)

    def test_names_run_on_the_calling_thread_and_windows_join_their_tasks(self, monkeypatch):
        # the benchmark times a window from its call to the next and samples its
        # speed reference in between, so a window's pool tasks must be done when
        # it returns, and no span may open on a worker
        monkeypatch.setattr(channel, "_WORKERS", 2)
        monkeypatch.setattr(channel, "_pool", None)
        clear_frame_caches()  # so the frame builders run too
        channel.start_task(int)()  # starts the pool
        pool, tasks, calls, pending = channel._pool, [], set(), []

        def submit(*args, _submit=pool.submit):
            tasks.append(_submit(*args))
            return tasks[-1]

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls.add((name, threading.get_ident()))
                result = real(*args, **kwargs)
                if name == "simulate_window":
                    pending.append(sum(not task.done() for task in tasks))
                return result

            return wrapper

        monkeypatch.setattr(pool, "submit", submit)
        for name in self.NAMES:
            monkeypatch.setattr(scenario, name, spy(name, getattr(scenario, name)))
        trace = step_trace((2, 23.0), (2, 13.0), cadence_s=5.25)
        try:
            run_adaptive(tuned_config(pulses=50), trace, duration_s=4 * 5.25)
        finally:
            pool.shutdown()
        assert {name for name, _ in calls} == set(self.NAMES)
        assert {thread for _, thread in calls} == {threading.get_ident()}
        assert len(tasks) > 1 and pending == [0] * 4

    @staticmethod
    def recorded(monkeypatch, module, name):
        """``(args, kwargs, result)`` of every call through ``module.name`` from now on."""
        calls, real = [], getattr(module, name)

        def spy(*args, **kwargs):
            calls.append((args, kwargs, real(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(module, name, spy)
        return calls

    def test_window_result_is_ranges_and_gross_count(self, monkeypatch):
        # count_window adds len(ranges) pulses and the gross count, on which
        # adaptive-step's zero-gross check and every gain_evals_per_s rest;
        # the run and the tune plant both reach the window through this name
        windows = self.recorded(monkeypatch, scenario, "simulate_window")
        config = tuned_config(pulses=50)
        run_adaptive(config, constant_trace(23.0, 2, cadence_s=5.25), duration_s=2 * 5.25)
        ranging_sigma_plant(config, n_intervals=2)(0.1)
        assert len(windows) == 4
        for _, _, result in windows:
            ranges, gross = result
            assert isinstance(ranges, np.ndarray) and ranges.shape == (50,)
            assert type(gross) is int and gross == 0

    def test_window_takes_the_separation_in_force(self, monkeypatch):
        # one closed-loop driver: on the run and on the tune plant, interval i's
        # window gets the loop's separation x as it stands, and logs f1 + x
        windows = self.recorded(monkeypatch, scenario, "simulate_window")
        steps = self.recorded(monkeypatch, scenario, "pi_step")
        loops = self.recorded(monkeypatch, scenario, "_closed_loop")
        config = tuned_config(pulses=50)
        ctl, f1 = config.controller, config.waveform.f1
        run_adaptive(config, constant_trace(13.0, 3, cadence_s=5.25), duration_s=3 * 5.25)
        k = 0.3
        ranging_sigma_plant(config, n_intervals=3)(k)
        (_, _, run_logs), (_, _, plant_logs) = loops
        in_force = [ctl.x_prev] + [x for _, _, (_, x) in steps[:-1]]
        in_force += [ctl.x_prev] + [
            min(max(ctl.x_prev + k * (log.controller_error_m * ERROR_SCALE) * OUTPUT_SCALE, ctl.x_min),
                ctl.x_max)
            for log in plant_logs[:-1]
        ]
        assert len(set(in_force)) > 2  # both loops moved the separation
        assert len(windows) == len(in_force) == 6
        for (args, _, _), log, x in zip(windows, run_logs + plant_logs, in_force):
            waveform, separation = args[:2]
            assert waveform is config.waveform
            assert separation == x and log.f2_hz == f1 + separation

    def test_curve_call_is_read_as_the_montecarlo_command_makes_it(self, monkeypatch, tmp_path):
        # count_curve adds trials x grid points x nodes gain evaluations from
        # args[0].n_nodes, len(args[1]) and kwargs["trials"]
        curves = self.recorded(monkeypatch, coherence, "probability_curve")
        argv = ["montecarlo", "--nodes", "3", "--trials", "1000", "--sigma-grid", "0.02:0.05:4",
                "--seed", "1", "--out", str(tmp_path / "curve.csv")]
        assert cli.main(argv) == 0
        ((args, kwargs, result),) = curves
        assert args[0].n_nodes == 3 and len(args[1]) == 4 and kwargs["trials"] == 1000
        assert result.shape == (4,)

    def test_controller_step_is_state_and_output(self, monkeypatch):
        # saturation counts a step whose output x is state.x_min or state.x_max
        steps = self.recorded(monkeypatch, scenario, "pi_step")
        run_adaptive(tuned_config(pulses=50), constant_trace(23.0, 3, cadence_s=5.25),
                     duration_s=3 * 5.25)
        assert len(steps) == 3
        for _, _, (state, x) in steps:
            assert state.x_prev == x and state.x_min <= x <= state.x_max
        state, x = pi_step(steps[0][2][0], 1e3, INTERVAL_S)  # an error that drives x to its clamp
        assert x in (state.x_min, state.x_max)

    def test_matched_filter_rows_correlate_2d_arrays(self, monkeypatch):
        # the benchmark counts FFT points from the (rows, n) shape of the
        # first argument, which is only ever a 2-D clean row: one for the
        # disambiguation frame, which the three windows share, and one for
        # each window's ranging frame.  A window keeps just the
        # interpolator's support around each selected peak, drawn from a
        # block of lags whether the block is narrow (3.5 MHz) or nearly
        # the widest (0.29 MHz)
        shapes = []
        real = scenario._circular_correlation

        def spy(rows, template):
            shapes.append(np.shape(rows))
            return real(rows, template)

        monkeypatch.setattr(scenario, "_circular_correlation", spy)
        config = tuned_config(pulses=50)
        waveform = config.waveform
        for separation_hz in (3.5e6, 0.5e6, 0.29e6):
            support, _, _, _, reads = scenario._matched_filter_rows(
                waveform, separation_hz, config.channel, 50, 0
            )
            n = effective_window_length(waveform, config.channel)
            assert reads is ranging.readout(n, waveform.sample_rate, separation_hz)
            assert support.shape == (50, reads.support) and reads.support < n
            assert reads.width <= widest_block(waveform, n)
        assert shapes == [(1, n)] * 4


class TestWindowLength:
    def test_reference_window(self):
        config = default_config()
        assert effective_window_length(config.waveform, config.channel) == 3750

    def test_disambiguation_pulse_longer_than_ranging_pulse(self):
        # one period of 6.3 kHz is 3968 samples, longer than the
        # 3592-sample ranging pulse, so it sizes the window
        config = config_from_dict({"waveform": {"disambiguation_hz": 6.3e3}})
        n = effective_window_length(config.waveform, config.channel)
        assert n >= 3968 + WINDOW_PAD_SAMPLES
        separation = config.controller.x_prev
        ranges, _ = simulate_window(config.waveform, separation, config.channel, 20, seed=1)
        assert ranges.shape == (20,) and np.all(np.isfinite(ranges))
        noise_free = replace(config.channel, snr_db=math.inf)
        ranges, gross = simulate_window(config.waveform, separation, noise_free, 2, seed=1)
        assert gross == 0
        assert np.max(np.abs(ranges - 90.0)) < 1e-3

    def test_long_disambiguation_pulse_draws_whole_rows(self, monkeypatch):
        # the near lags of a 3968-sample pulse and their inputs would cover
        # the window, so its noise is drawn as whole rows, 16 at a time
        config = config_from_dict(
            {"waveform": {"disambiguation_hz": 6.3e3}, "channel": {"snr_db": 13.0}}
        )
        n = effective_window_length(config.waveform, config.channel)
        calls = []
        real = channel.matched_noise_rows

        def spy(spectrum, noise_power, n_rows, rng):
            calls.append((spectrum.size, n_rows))
            return real(spectrum, noise_power, n_rows, rng)

        monkeypatch.setattr(channel, "matched_noise_rows", spy)
        separation = config.controller.x_prev
        ranges, gross = simulate_window(config.waveform, separation, config.channel, 200, seed=2)
        assert Counter(calls) == Counter([(n, 16)] * 12 + [(n, 8)])  # threads record in any order
        assert gross == 0
