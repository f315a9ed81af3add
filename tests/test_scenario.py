import math
from dataclasses import replace

import numpy as np
import pytest

from cohsync import (
    SPEED_OF_LIGHT,
    ChannelState,
    EnvironmentRecord,
    ProcessingIntervalLog,
    TraceSegment,
    TwoToneSpec,
    crlb_sigma_r,
    default_config,
    effective_window_length,
    find_ultimate_gain,
    pi_step,
    post_snr_from_sample_snr,
    ranging_sigma_plant,
    read_run_log_csv,
    read_trace_csv,
    run_adaptive,
    run_fixed_bandwidth,
    simulate_window,
    summarize_run,
    synthesize_trace,
    window_stats,
    write_run_log_csv,
    write_trace_csv,
    ziegler_nichols_gains,
)

# Gains from the ultimate-gain search on the simulated loop at the 23 dB
# operating point (K_u = 0.2 controller units, T_u = 2 intervals); see
# test_tuning_pipeline_smoke for the live pipeline check.
TUNED_KP = 0.09
TUNED_TI = 34.99

INTERVAL_S = 21.0  # 200 pulses x 105 ms


def tuned_config(snr_db=23.0, x0_hz=3.5e6, pulses=200):
    base = default_config()
    return replace(
        base,
        channel=replace(base.channel, snr_db=snr_db),
        controller=replace(base.controller, k_p=TUNED_KP, t_i=TUNED_TI, x_prev=x0_hz),
        loop=replace(base.loop, pulses_per_interval=pulses),
    )


def constant_trace(snr_db, n_intervals, cadence_s=INTERVAL_S):
    return synthesize_trace(
        [TraceSegment(duration_s=n_intervals * cadence_s, snr_db=snr_db)],
        cadence_s=cadence_s,
    )


def predicted_sigma_d(config, snr_db):
    n_win = effective_window_length(config.waveform, config.channel)
    rho = post_snr_from_sample_snr(n_win, snr_db)
    delta_f = config.waveform.two_tone.delta_f
    return crlb_sigma_r(delta_f, rho) / math.sqrt(config.loop.group_size)


class TestSynthesizeTrace:
    def test_constant_segment(self):
        records = synthesize_trace([TraceSegment(duration_s=300.0, snr_db=15.0)])
        assert len(records) == 5
        assert all(r.snr_db == 15.0 for r in records)
        assert [r.timestamp_s for r in records] == [0.0, 60.0, 120.0, 180.0, 240.0]

    def test_step_program_exact_boundary(self):
        records = synthesize_trace(
            [
                TraceSegment(duration_s=120.0, snr_db=20.0),
                TraceSegment(duration_s=120.0, snr_db=10.0),
            ]
        )
        assert [r.snr_db for r in records] == [20.0, 20.0, 10.0, 10.0]
        assert records[2].timestamp_s == 120.0

    def test_ramp_segment(self):
        records = synthesize_trace(
            [TraceSegment(duration_s=240.0, snr_db=10.0, snr_db_end=18.0)]
        )
        snrs = [r.snr_db for r in records]
        assert snrs == pytest.approx([10.0, 12.0, 14.0, 16.0])

    def test_ar1_fluctuation_statistics_and_determinism(self):
        seg = TraceSegment(
            duration_s=60.0 * 4000, snr_db=20.0, fluctuation_std_db=1.5, ar_coeff=0.5
        )
        a = synthesize_trace([seg], seed=9)
        b = synthesize_trace([seg], seed=9)
        assert [r.snr_db for r in a] == [r.snr_db for r in b]
        std = np.std([r.snr_db for r in a])
        assert std == pytest.approx(1.5, rel=0.10)

    def test_rejects_overlap_and_gap(self):
        with pytest.raises(ValueError, match="overlap"):
            synthesize_trace(
                [
                    TraceSegment(duration_s=120.0, snr_db=20.0),
                    TraceSegment(duration_s=60.0, snr_db=10.0, start_s=60.0),
                ]
            )
        with pytest.raises(ValueError, match="gap"):
            synthesize_trace(
                [
                    TraceSegment(duration_s=120.0, snr_db=20.0),
                    TraceSegment(duration_s=60.0, snr_db=10.0, start_s=600.0),
                ]
            )


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        records = synthesize_trace(
            [TraceSegment(duration_s=180.0, snr_db=17.5, wind_mps=4.0, rain_mmhr=0.2)]
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(path, records)
        back = read_trace_csv(path)
        assert back == records

    def test_missing_optional_columns_permitted(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("timestamp_s,snr_db\n0.0,20.0\n60.0,21.0\n")
        records = read_trace_csv(path)
        assert len(records) == 2
        assert math.isnan(records[0].wind_mps)

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


class TestRunLoop:
    def test_fixed_run_tracks_crlb_prediction(self):
        config = tuned_config(snr_db=20.0)
        trace = constant_trace(20.0, 6)
        logs = run_fixed_bandwidth(config, trace, duration_s=6 * INTERVAL_S, seed=5)
        assert len(logs) == 6
        assert all(l.f2_hz == 3.52e6 for l in logs)
        predicted = predicted_sigma_d(config, 20.0)
        mean_sigma = np.mean([l.sigma_d_m for l in logs])
        assert predicted / 2 < mean_sigma < predicted * 2

    def test_fixed_run_snr_step_scales_sigma_by_sqrt10(self):
        config = tuned_config()
        trace = synthesize_trace(
            [
                TraceSegment(duration_s=3 * INTERVAL_S, snr_db=23.0),
                TraceSegment(duration_s=3 * INTERVAL_S, snr_db=13.0),
            ],
            cadence_s=INTERVAL_S,
        )
        logs = run_fixed_bandwidth(config, trace, duration_s=6 * INTERVAL_S, seed=6)
        before = np.mean([l.sigma_d_m for l in logs[:3]])
        after = np.mean([l.sigma_d_m for l in logs[3:]])
        assert after / before == pytest.approx(math.sqrt(10.0), rel=0.25)

    def test_zero_noise_floor(self):
        config = tuned_config(snr_db=math.inf)
        trace = constant_trace(math.inf, 2)
        logs = run_fixed_bandwidth(config, trace, duration_s=2 * INTERVAL_S, seed=1)
        assert all(l.sigma_d_m < 1e-4 for l in logs)

    def test_interval_timing_bookkeeping(self):
        config = tuned_config()
        trace = constant_trace(23.0, 3)
        logs = run_fixed_bandwidth(config, trace, duration_s=3 * INTERVAL_S, seed=2)
        stamps = [l.timestamp_s for l in logs]
        assert stamps == [0.0, 21.0, 42.0]

    def test_sigma_respects_averaged_bound(self):
        # per-interval sigma estimates carry chi^2 noise (40 groups), so
        # the bound check is mean-based with a generous per-interval floor
        config = tuned_config(snr_db=20.0)
        trace = constant_trace(20.0, 6)
        logs = run_fixed_bandwidth(config, trace, duration_s=6 * INTERVAL_S, seed=8)
        bound = predicted_sigma_d(config, 20.0)
        sigmas = np.array([l.sigma_d_m for l in logs])
        assert sigmas.mean() >= 0.9 * bound
        assert sigmas.min() >= 0.75 * bound

    def test_bit_identical_reproducibility(self, tmp_path):
        config = tuned_config(pulses=100)  # 10.5 s intervals
        trace = constant_trace(23.0, 3, cadence_s=10.5)
        kwargs = dict(duration_s=3 * 10.5, seed=11)
        a = run_adaptive(config, trace, **kwargs)
        b = run_adaptive(config, trace, **kwargs)
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_log_csv(pa, a)
        write_run_log_csv(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_trace_gap_held_with_warning(self, caplog):
        config = tuned_config(pulses=50)  # 5.25 s intervals
        records = [
            EnvironmentRecord(timestamp_s=10.5 * i, snr_db=23.0) for i in range(6)
        ] + [EnvironmentRecord(timestamp_s=600.0, snr_db=23.0)]
        import logging

        with caplog.at_level(logging.WARNING, logger="cohsync.scenario"):
            logs = run_fixed_bandwidth(config, records, duration_s=16 * 5.25, seed=3)
        assert len(logs) == 16
        assert any("gap" in rec.message for rec in caplog.records)

    def test_rejects_bad_inputs(self):
        config = tuned_config()
        with pytest.raises(ValueError):
            run_fixed_bandwidth(config, [], duration_s=100.0)
        trace = constant_trace(23.0, 2)
        with pytest.raises(ValueError):
            run_fixed_bandwidth(config, trace, duration_s=1.0)


class TestAdaptiveRuns:
    def test_settles_near_minimal_separation(self):
        config = tuned_config()  # 23 dB: 3.5 MHz more than suffices
        trace = constant_trace(23.0, 14)
        logs = run_adaptive(config, trace, duration_s=14 * INTERVAL_S, seed=7)
        sigma_tail = np.mean([l.sigma_d_m for l in logs[-5:]])
        assert abs(sigma_tail - config.loop.target_sigma_m) <= 2e-3
        n_win = effective_window_length(config.waveform, config.channel)
        rho = post_snr_from_sample_snr(n_win, 23.0)
        x_star = SPEED_OF_LIGHT / (
            2 * math.pi * math.sqrt(5.0) * math.sqrt(rho) * config.loop.target_sigma_m
        )
        separation_tail = np.mean([l.f2_hz - 20e3 for l in logs[-5:]])
        assert separation_tail == pytest.approx(x_star, rel=0.20)

    def test_clamp_stress_saturates_and_completes(self):
        # 6 dB: even the full 7.5 MHz separation cannot reach 10 mm
        config = tuned_config(snr_db=6.0)
        trace = constant_trace(6.0, 10)
        logs = run_adaptive(config, trace, duration_s=10 * INTERVAL_S, seed=9)
        assert len(logs) == 10
        assert logs[-1].f2_hz == pytest.approx(20e3 + 7.5e6)
        assert logs[-1].sigma_d_m > config.loop.target_sigma_m
        for l in logs:
            assert 20e3 <= l.f2_hz <= 7.52e6 + 1e-6

    def test_target_override_feeds_controller_error(self):
        config = tuned_config(pulses=50)
        trace = constant_trace(23.0, 2, cadence_s=5.25)
        logs = run_adaptive(
            config, trace, duration_s=2 * 5.25, target_sigma_m=0.02, seed=12
        )
        assert logs[0].controller_error_m == pytest.approx(
            logs[0].sigma_d_m - 0.02, rel=1e-12
        )

    def test_weather_coupling_changes_effective_snr(self):
        config = tuned_config(pulses=50)
        coupled = replace(config, loop=replace(config.loop, weather_coupling=True))
        seg = TraceSegment(duration_s=2 * INTERVAL_S, snr_db=23.0, rain_mmhr=20.0)
        trace = synthesize_trace([seg], cadence_s=INTERVAL_S)
        plain = run_fixed_bandwidth(config, trace, duration_s=INTERVAL_S, seed=4)
        wet = run_fixed_bandwidth(coupled, trace, duration_s=INTERVAL_S, seed=4)
        assert plain[0].snr_db == 23.0
        assert wet[0].snr_db < 23.0


class TestTuningPipeline:
    def test_tuning_pipeline_smoke(self):
        # live ultimate-gain search on a reduced loop, then the ZN gains
        # must actually regulate sigma toward the target
        config = tuned_config(x0_hz=1.8e6, pulses=100)
        plant = ranging_sigma_plant(config, n_intervals=24, seed=101)
        result = find_ultimate_gain(
            plant, [0.1, 0.2, 0.3, 0.45], dt=config.loop.interval_duration_s
        )
        assert result is not None
        assert 0.05 <= result.k_u <= 0.5
        k_p, t_i = ziegler_nichols_gains(result.k_u, result.t_u)
        loop_cfg = replace(
            config,
            controller=replace(config.controller, k_p=k_p, t_i=t_i, x_prev=3.5e6),
        )
        trace = constant_trace(23.0, 10)
        logs = run_adaptive(loop_cfg, trace, duration_s=10 * INTERVAL_S, seed=13)
        tail = np.mean([l.sigma_d_m for l in logs[-3:]])
        assert abs(tail - 0.010) <= 3e-3


class TestSummaries:
    def test_run_log_round_trip_and_summary(self, tmp_path):
        config = tuned_config(pulses=50)  # 5.25 s intervals
        trace = constant_trace(23.0, 3)
        logs = run_fixed_bandwidth(config, trace, duration_s=3 * 5.25, seed=14)
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
        f1 = config.waveform.two_tone.f1
        waveform = replace(config.waveform, two_tone=TwoToneSpec(f1=f1, f2=f1 + separation_hz))
        channel = config.channel if snr_db is None else replace(config.channel, snr_db=snr_db)
        ranges, _ = simulate_window(waveform, channel, config.loop.pulses_per_interval, seed=seed)
        stats = window_stats(ranges, config.loop.group_size, config.loop.pulses_per_interval)
        return stats.sigma_d, stats.mean_range

    def test_plant_uses_stream_3_and_p_law(self):
        config = tuned_config(x0_hz=1.8e6, pulses=50)
        ctl, seed, k = config.controller, 101, 0.3
        x0 = ctl.x_prev
        x, expected = x0, []
        for i in range(2):
            sigma, _ = self.window_sigma(config, x, (seed, 3, i))
            expected.append(sigma * ctl.error_scale)
            error_units = (sigma - config.loop.target_sigma_m) * ctl.error_scale
            x = min(max(x0 + k * error_units * ctl.output_scale, ctl.x_min), ctl.x_max)
        plant = ranging_sigma_plant(config, n_intervals=2, seed=seed)
        assert list(plant(k)) == expected

    def test_adaptive_run_uses_stream_1_and_pi_law(self):
        config = tuned_config(pulses=50)
        dt = config.loop.interval_duration_s
        trace = [
            EnvironmentRecord(timestamp_s=0.0, snr_db=23.0),
            EnvironmentRecord(timestamp_s=dt, snr_db=17.0),
        ]
        seed = 5
        controller, x, expected = config.controller, config.controller.x_prev, []
        for i, rec in enumerate(trace):
            sigma, mean_range = self.window_sigma(config, x, (seed, 1, i), rec.snr_db)
            error = sigma - config.loop.target_sigma_m
            expected.append(
                ProcessingIntervalLog(
                    interval_index=i,
                    f2_hz=config.waveform.two_tone.f1 + x,
                    sigma_d_m=sigma,
                    mean_range_m=mean_range,
                    snr_db=rec.snr_db,
                    controller_error_m=error,
                    timestamp_s=rec.timestamp_s,
                )
            )
            controller, x = pi_step(controller, error, dt)
        assert run_adaptive(config, trace, duration_s=2 * dt, seed=seed) == expected
