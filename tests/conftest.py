import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import cohsync
from cohsync import channel, ranging, scenario, waveform
from cohsync.channel import ChannelState
from cohsync.config import default_config
from cohsync.ranging import effective_window_length
from cohsync.scenario import EnvironmentRecord
from cohsync.waveform import TwoToneSpec, WaveformConfig

# Operating-point waveform: 20 kHz / 7.52 MHz tones (delta_f = 3.75 MHz),
# 1.875 MHz disambiguation tone, 143.7 us ranging pulse, 25 Msps.
FULL_SEPARATION = TwoToneSpec(f1=20e3, f2=7.52e6)

# Gains from the ultimate-gain search on the simulated loop at the 23 dB
# operating point (K_u = 0.2 controller units, T_u = 2 intervals); see
# test_tuning_pipeline_smoke for the live pipeline check.
TUNED_KP = 0.09
TUNED_TI = 34.99

INTERVAL_S = 21.0  # 200 pulses x 105 ms

# The ``src`` directory of the cohsync these tests import.
SRC = str(Path(cohsync.__file__).resolve().parents[1])

# Appended to a fresh interpreter's script: prints OpenBLAS's thread count.
PRINT_BLAS_THREADS = """
import ctypes
from cohsync import channel
library = ctypes.CDLL(channel._openblas_library())
for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
    getter = getattr(library, name, None)
    if getter is not None:
        getter.restype = ctypes.c_int
        print(getter())
        break
"""


def run_python(*argv: str, env: dict | None = None) -> str:
    """Standard output of ``python *argv`` in a fresh interpreter on :data:`SRC`.

    ``env`` entries override the inherited environment's.
    """
    result = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return result.stdout


def traced_peak(run):
    """``(run(), peak bytes tracemalloc traced during the call)``."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def on_workers(monkeypatch, workers, run, starts_pool=True):
    """``run()`` with chunks run inline (1) or on a fresh pool of ``workers`` threads.

    ``starts_pool`` says whether ``run`` maps more than one chunk, and so
    starts the pool when ``workers`` exceeds 1.
    """
    monkeypatch.setattr(channel, "_WORKERS", workers)
    monkeypatch.setattr(channel, "_pool", None)
    try:
        result = run()
        assert (channel._pool is not None) == (workers > 1 and starts_pool)
        return result
    finally:
        if channel._pool is not None:
            channel._pool.shutdown()


def clear_frame_caches() -> None:
    """Empty the process's frame, lag-block factor, readout, delay-ramp and tone caches."""
    for cached in (
        scenario._disambiguation_frame,
        scenario._ranging_frame,
        ranging.readout,
        channel.delay_ramp,
        waveform._tone,
    ):
        cached.cache_clear()
    scenario._lag_block_roots.clear()


@pytest.fixture(autouse=True)
def cold_frame_caches():
    """Start every test with empty frame caches.

    A test that patches a frame builder's callees (``scenario.generate_*``,
    ``apply_round_trip_response``) would otherwise leave its frame for
    later tests, and a test that spies on those callees would see none of
    them called on a frame an earlier test built.
    """
    clear_frame_caches()


@pytest.fixture
def full_waveform() -> WaveformConfig:
    return WaveformConfig(
        two_tone=FULL_SEPARATION,
        f_d=1.875e6,
        ranging_pulse_width=143.7e-6,
        pri=159.7e-6,
        sample_rate=25e6,
    )


@pytest.fixture
def noise_free_90m() -> ChannelState:
    return ChannelState(true_range=90.0, snr_db=math.inf)


def state_for_post_snr(
    waveform: WaveformConfig, post_snr: float, true_range: float = 90.0
) -> ChannelState:
    """Channel state whose window-average SNR realizes a target 2E/N0."""
    probe = ChannelState(true_range=true_range, snr_db=0.0)
    n_win = effective_window_length(waveform, probe)
    return ChannelState(
        true_range=true_range, snr_db=10.0 * math.log10(post_snr / (2.0 * n_win))
    )


def post_snr_for(window_len: int, snr_db: float) -> float:
    """Post-processing 2E/N0 of a frame padded to ``window_len`` samples at ``snr_db``."""
    return 2.0 * window_len * 10.0 ** (snr_db / 10.0)


def tuned_config(snr_db=23.0, x0_hz=3.5e6, pulses=200):
    base = default_config()
    return replace(
        base,
        channel=replace(base.channel, snr_db=snr_db),
        controller=replace(base.controller, k_p=TUNED_KP, t_i=TUNED_TI, x_prev=x0_hz),
        loop=replace(base.loop, pulses_per_interval=pulses),
    )


def constant_trace(snr_db, n_intervals, cadence_s=INTERVAL_S):
    return step_trace((n_intervals, snr_db), cadence_s=cadence_s)


def reaches_clamp(logs, f1_hz=20e3, x_max_hz=7.5e6):
    """Some interval ran at the upper separation clamp.

    The velocity-form PI legitimately steps back off the clamp when the
    error falls, so no single interval is required to sit on it.
    """
    return any(l.f2_hz == pytest.approx(f1_hz + x_max_hz) for l in logs)


def step_trace(*steps, cadence_s: float = 60.0) -> list[EnvironmentRecord]:
    """Piecewise-constant trace: ``steps`` are ``(n_records, snr_db)`` pairs in time order."""
    snrs = [snr_db for n_records, snr_db in steps for _ in range(n_records)]
    return [EnvironmentRecord(k * cadence_s, snr_db) for k, snr_db in enumerate(snrs)]


def write_trace(path, records) -> Path:
    """Write ``records`` as a two-column trace CSV; returns the path."""
    path = Path(path)
    rows = ["timestamp_s,snr_db", *(f"{r.timestamp_s!r},{r.snr_db!r}" for r in records)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path
