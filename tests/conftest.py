import math

import pytest

from cohsync import (
    CarrierPlan,
    ChannelState,
    TwoToneSpec,
    WaveformConfig,
    effective_window_length,
    sample_snr_for_post_snr,
)

# Operating-point waveform: 20 kHz / 7.52 MHz tones (delta_f = 3.75 MHz),
# 1.875 MHz disambiguation tone, 143.7 us ranging pulse, 25 Msps.
FULL_SEPARATION = TwoToneSpec(f1=20e3, f2=7.52e6)


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
        true_range=true_range, snr_db=sample_snr_for_post_snr(n_win, post_snr)
    )
