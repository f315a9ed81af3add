import math
from pathlib import Path

import pytest

from cohsync import channel, ranging, scenario
from cohsync.channel import CarrierPlan, ChannelState
from cohsync.ranging import effective_window_length
from cohsync.scenario import EnvironmentRecord
from cohsync.waveform import TwoToneSpec, WaveformConfig

# Operating-point waveform: 20 kHz / 7.52 MHz tones (delta_f = 3.75 MHz),
# 1.875 MHz disambiguation tone, 143.7 us ranging pulse, 25 Msps.
FULL_SEPARATION = TwoToneSpec(f1=20e3, f2=7.52e6)


def clear_frame_caches() -> None:
    """Empty the process's frame, readout and delay-ramp caches."""
    for cached in (
        scenario._disambiguation_frame,
        scenario._ranging_frame,
        ranging.readout,
        channel.delay_ramp,
    ):
        cached.cache_clear()


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
    return ChannelState(true_range=90.0, snr_db=math.inf, carrier=CarrierPlan())


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
