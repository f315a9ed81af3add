"""Acceptance suite: one test per release criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion (pytest's capture hides the lines for passing tests
otherwise).
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from cohsync.channel import ChannelState, apply_round_trip_response, delay_ramp
from cohsync.cli import main
from cohsync.coherence import max_coherent_frequency
from cohsync.config import default_config
from freqlock_model import SelfMixInput, path_phase, self_mix, wrap_phase
from cohsync.ranging import effective_window_length
from cohsync.scenario import run_adaptive, simulate_window
from cohsync.waveform import SPEED_OF_LIGHT, crlb_sigma_r

import ranging_oracle
from conftest import (
    INTERVAL_S, TUNED_KP, TUNED_TI, constant_trace, post_snr_for, reaches_clamp, state_for_post_snr,
    step_trace, tuned_config, write_trace,
)

REFERENCE_THRESHOLDS = {0.9: 0.0495, 0.8: 0.0725, 0.7: 0.1040}


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


@pytest.fixture(scope="module")
def montecarlo_artifacts(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("mc")
    out = out_dir / "curve.csv"
    args = [
        "montecarlo",
        "--nodes",
        "2",
        "--trials",
        "10000",
        "--sigma-grid",
        "0.02:0.16:57",
        "--seed",
        "42",
        "--out",
        str(out),
    ]
    start = time.perf_counter()
    rc = main(args)
    elapsed = time.perf_counter() - start
    assert rc == 0
    return {
        "args": args,
        "out": out,
        "curve_bytes": out.read_bytes(),
        "report": json.loads((out_dir / "curve.report.json").read_text()),
        "elapsed_s": elapsed,
        "dir": out_dir,
    }


def test_criterion_1_two_node_thresholds(montecarlo_artifacts):
    with criterion("1 coherent-gain thresholds, N=2, 10k trials"):
        art = montecarlo_artifacts
        levels = art["report"]["sigma_over_lambda_at_probability"]
        for prob, reference in REFERENCE_THRESHOLDS.items():
            measured = levels[str(prob)]
            assert measured == pytest.approx(reference, rel=0.20), (
                f"threshold at Y={prob}: {measured:.4f} vs {reference}"
            )
        rows = art["curve_bytes"].decode().strip().splitlines()[1:]
        y = np.array([float(r.split(",")[1]) for r in rows])
        band = 2.0 * np.sqrt(np.maximum(y * (1 - y), 1e-9) / 10000)
        assert np.all(np.diff(y) <= band[:-1]), "curve not monotone within 2-sigma"
        assert art["elapsed_s"] <= 120.0


def test_criterion_2_crlb_efficiency_and_grouping(full_waveform):
    with criterion("2 CRLB efficiency and sqrt(5) grouping"):
        start = time.perf_counter()
        delta_f = full_waveform.two_tone.delta_f
        assert delta_f == pytest.approx(3.75e6)
        # 3600 pulses (720 groups) a point: over 200 seeds the grouping
        # ratio over sqrt(5) spread by 2.2-2.4 % a point (6.3 % at 600
        # pulses, where 30 % of seeds failed), so the +-10 % bound sits
        # 4.1-4.5 standard deviations away and a normal fit gives a
        # false-alarm rate of 5e-5 for the three points together; std/CRLB
        # spread by 1.2 %, far inside its factor of 2
        for post_snr, seed in ((1e4, 201), (1e6, 202), (1e8, 203)):
            state = state_for_post_snr(full_waveform, post_snr)
            ranges, gross = simulate_window(full_waveform, state, 3600, seed=seed)
            assert gross == 0
            bound = crlb_sigma_r(delta_f, post_snr)
            std = ranges.std(ddof=1)
            assert bound / 2 < std < 2 * bound, (
                f"2E/N0={post_snr:.0e}: std {std:.2e} vs bound {bound:.2e}"
            )
            group_std = ranges.reshape(-1, 5).mean(axis=1).std(ddof=1)
            assert std / group_std == pytest.approx(math.sqrt(5.0), rel=0.10)
        assert time.perf_counter() - start <= 120.0


def test_criterion_3_disambiguation_correctness(full_waveform):
    with criterion("3 zero gross errors + predicted ambiguity aliasing"):
        # 1000 trials at 2E/N0 = 1e4 across >= 5 ambiguity periods
        separation = full_waveform.two_tone.separation
        ambiguity_m = SPEED_OF_LIGHT / (2 * separation)
        ranges_m = np.linspace(10.0, 10.0 + 5.02 * ambiguity_m, 100)
        gross_total = 0
        worst = 0.0
        for i, r in enumerate(ranges_m):
            state = state_for_post_snr(full_waveform, 1e4, true_range=float(r))
            est, gross = simulate_window(
                full_waveform, state, 10, seed=(301, i)
            )
            gross_total += gross
            worst = max(worst, float(np.max(np.abs(est - r))))
        assert gross_total == 0
        assert worst < 0.5 * ambiguity_m, f"worst error {worst:.2f} m"

        # with disambiguation disabled, k-period offsets alias to 20 m * k
        from cohsync import waveform

        pulse = waveform.generate_two_tone(full_waveform.two_tone, 143.7e-6, 25e6)
        prior_lag = 2 * 90.0 / SPEED_OF_LIGHT
        for k in (1, 2, 3):
            true_range = 90.0 + k * ambiguity_m
            frame = np.concatenate([pulse, np.zeros(256)])
            rx = ranging_oracle.round_trip(
                frame, ChannelState(true_range=true_range, snr_db=math.inf), 25e6
            )
            (range_m,), _, _ = ranging_oracle.select_and_refine(
                ranging_oracle.correlate(rx, pulse)[None],
                np.array([round(prior_lag * 25e6)]),
                full_waveform,
            )
            assert abs(range_m - true_range) == pytest.approx(
                k * ambiguity_m, abs=2e-3
            )


@pytest.fixture(scope="module")
def adaptive_step_logs():
    config = tuned_config()
    trace = step_trace((12, 23.0), (31, 13.0), cadence_s=INTERVAL_S)
    return config, run_adaptive(config, trace, duration_s=42 * INTERVAL_S, seed=7)


def test_criterion_4_closed_loop_adaptation(adaptive_step_logs):
    with criterion("4 adaptive recovery from a -10 dB step + clamp stress"):
        config, logs = adaptive_step_logs
        step_at = 12
        sigma = np.array([l.sigma_d_m for l in logs])
        separation = np.array([l.f2_hz - 20e3 for l in logs])
        target = config.loop.target_sigma_m

        # direction: the controller widens the separation after the step
        assert separation[step_at + 2] > separation[step_at - 1]

        recovered_at = None
        for i in range(step_at + 2, len(sigma)):
            window = sigma[max(i - 2, step_at) : i + 1]
            if abs(window.mean() - target) <= 0.2 * target:
                recovered_at = i - step_at
                break
        assert recovered_at is not None and recovered_at <= 25, (
            f"no recovery within 25 intervals (got {recovered_at})"
        )

        n_win = effective_window_length(config.waveform, config.channel)
        rho_post = post_snr_for(n_win, 13.0)
        x_star = SPEED_OF_LIGHT / (
            2 * math.pi * math.sqrt(5.0) * math.sqrt(rho_post) * target
        )
        steady = separation[-5:].mean()
        assert steady == pytest.approx(x_star, rel=0.15), (
            f"steady separation {steady/1e6:.2f} MHz vs minimal {x_star/1e6:.2f}"
        )

        # clamp stress: target unreachable even at the 7.5 MHz bound
        stress = tuned_config(snr_db=6.0)
        stress_logs = run_adaptive(
            stress, constant_trace(6.0, 8), duration_s=8 * INTERVAL_S, seed=9
        )
        assert len(stress_logs) == 8
        assert reaches_clamp(stress_logs)
        assert stress_logs[-1].sigma_d_m > target
        assert all(20e3 <= l.f2_hz <= 7.52e6 + 1e-6 for l in stress_logs)


def test_criterion_5_coherent_frequency_mapping():
    with criterion("5 maximum beamforming frequency at 10 mm accuracy"):
        expected = {0.9: 1.5e9, 0.8: 2.2e9, 0.7: 3.1e9}
        for prob, target in expected.items():
            f = max_coherent_frequency(0.010, prob)
            assert abs(f - target) <= 0.1e9, f"P={prob}: {f/1e9:.3f} GHz"


def test_criterion_6_frequency_lock_algebra():
    with criterion("6 residual-frequency algebra and self-mixing phases"):
        # a residual offset of 0 (locked carriers) returns a tone's frame
        # unshifted, bit for bit; a residual delta multiplies it by exp(2 pi j delta t)
        rng, n, fs = np.random.default_rng(606), 1024, 25e6
        t, ramp = np.arange(n) / fs, delay_ramp(n, fs, 90.0)
        locked = ChannelState(true_range=90.0, snr_db=math.inf)
        for _ in range(100):
            f_b = float(rng.uniform(1e3, 7.5e6))
            spectrum = np.fft.fft(np.exp(2j * np.pi * f_b * t))
            unshifted = np.fft.ifft(spectrum * ramp)
            assert np.array_equal(apply_round_trip_response(spectrum, ramp, locked, fs), unshifted)
            delta = float(rng.uniform(-5e3, 5e3))
            back = apply_round_trip_response(spectrum, ramp, replace(locked, residual_offset=delta), fs)
            assert np.array_equal(back, unshifted * np.exp(2j * np.pi * delta * t))

        f_ref, phi5 = self_mix(
            SelfMixInput(
                910e6,
                920e6,
                phi1=path_phase(910e6, 90.0),
                phi2=path_phase(920e6, 90.0),
            )
        )
        assert f_ref == 10e6
        oracle = wrap_phase(-2 * math.pi * 10e6 * 90.0 / SPEED_OF_LIGHT)
        assert abs(phi5 - oracle) <= 1e-9


def test_criterion_7_determinism(montecarlo_artifacts, tmp_path):
    with criterion("7 bit-identical reruns under a fixed seed"):
        art = montecarlo_artifacts
        rerun = tmp_path / "rerun.csv"
        args = list(art["args"])
        args[args.index(str(art["out"]))] = str(rerun)
        assert main(args) == 0
        assert rerun.read_bytes() == art["curve_bytes"]

        # scenario path: adaptive CLI run repeated byte-for-byte
        trace_path = write_trace(tmp_path / "trace.csv", constant_trace(23.0, 3, cadence_s=5.25))
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "channel": {"snr_db": 23.0},
                    "loop": {"pulses_per_interval": 50},
                    "controller": {"k_p": TUNED_KP, "t_i_s": TUNED_TI},
                }
            )
        )
        blobs = []
        for name in ("d1", "d2"):
            out_dir = tmp_path / name
            rc = main(
                [
                    "run",
                    "--config",
                    str(config_path),
                    "--trace",
                    str(trace_path),
                    "--adaptive",
                    "--duration-s",
                    "10.5",
                    "--seed",
                    "900",
                    "--out",
                    str(out_dir),
                ]
            )
            assert rc == 0
            blobs.append((out_dir / "run_log.csv").read_bytes())
        assert blobs[0] == blobs[1]
