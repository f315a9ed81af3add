"""Spectrally sparse ranging waveforms and the accuracy bound they obey.

A pulse is a complex128 array of uniformly sampled complex baseband;
the sample rate travels with the call, not with the array.  The two
ranging tones are rendered at their positive offsets ``f1`` and
``f2`` (carrier handling lives in :mod:`cohsync.channel`).  About its
spectral centroid, a long two-tone pulse has mean-squared bandwidth
``(2*pi*delta_f)**2`` where ``delta_f = (f2 - f1) / 2``; the accuracy
bound :func:`crlb_sigma_r` takes that bandwidth.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class TwoToneSpec:
    """Tone frequencies of a two-tone ranging pulse, in Hz.

    ``delta_f`` is half the tone separation; the ranging ambiguity period
    is ``1 / (f2 - f1)``.
    """

    f1: float
    f2: float

    def __post_init__(self):
        if not 0 <= self.f1 <= self.f2:
            bad = "f2" if 0 <= self.f1 else "f1"  # lead with the tone at fault
            got = f"got f1={self.f1}, f2={self.f2}"
            raise ValueError(f"{bad}={getattr(self, bad)}: need 0 <= f1 <= f2, {got}")

    @property
    def delta_f(self) -> float:
        return (self.f2 - self.f1) / 2.0

    @property
    def separation(self) -> float:
        return self.f2 - self.f1


@dataclass(frozen=True)
class WaveformConfig:
    """Full pulse-train definition: ranging tones plus disambiguation tone.

    The disambiguation pulse is one full period of ``f_d``, so its width
    is ``1 / f_d``.
    """

    two_tone: TwoToneSpec
    f_d: float
    ranging_pulse_width: float
    pri: float
    sample_rate: float

    def __post_init__(self):
        fs = self.sample_rate
        if not fs > 0:
            raise ValueError("sample_rate must be positive")
        if not 0 < self.f_d < fs / 2:
            raise ValueError(f"f_d={self.f_d} must lie in (0, sample_rate/2)")
        if self.two_tone.f2 >= fs / 2:
            raise ValueError(f"f2={self.two_tone.f2} aliases at sample_rate={fs}")
        if not round(self.ranging_pulse_width * fs) >= 2:  # generate_two_tone's count
            raise ValueError(f"ranging_pulse_width={self.ranging_pulse_width} s is under 2 samples")
        if self.pri < max(self.ranging_pulse_width, 1.0 / self.f_d):
            raise ValueError("pri must cover the longest pulse")


def generate_two_tone(spec: TwoToneSpec, width: float, sample_rate: float) -> np.ndarray:
    """Render a two-tone ranging pulse of the given width, as complex samples.

    The pulse is ``exp(j*2*pi*f1*t) + exp(j*2*pi*f2*t)`` with both tones
    phase-zero at the first sample; the sample count is ``round(width *
    sample_rate)``.

    Raises
    ------
    ValueError
        If ``f2`` would alias, the width is not positive, or the pulse
        would contain fewer than 2 samples.
    """
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    if not sample_rate > 0:
        raise ValueError("sample_rate must be positive")
    if spec.f2 >= sample_rate / 2:
        raise ValueError(
            f"f2={spec.f2} Hz aliases at sample_rate={sample_rate} Hz"
        )
    n = int(round(width * sample_rate))
    if n < 2:
        raise ValueError("pulse must span at least 2 samples")
    return _tone(spec.f1, n, sample_rate) + _tone(spec.f2, n, sample_rate)


@lru_cache(maxsize=2)  # a run's lower tone never changes
def _tone(f: float, n: int, sample_rate: float) -> np.ndarray:
    """Read-only ``n`` samples of the phase-zero complex tone at ``f``."""
    t = np.arange(n) / sample_rate
    tone = np.exp(2j * np.pi * f * t)
    tone.flags.writeable = False
    return tone


def generate_disambiguation(f_d: float, sample_rate: float) -> np.ndarray:
    """Render exactly one period of a single complex tone at ``f_d``, as complex samples.

    A one-period pulse keeps the matched-filter output down to a single
    lobe, which is what makes it usable for ambiguity resolution.
    """
    if not 0 < f_d < sample_rate / 2:
        raise ValueError(f"f_d={f_d} must lie in (0, sample_rate/2)")
    n = int(round(sample_rate / f_d))
    t = np.arange(n) / sample_rate
    return np.exp(2j * np.pi * f_d * t)


def crlb_sigma_r(delta_f: float, post_snr: float) -> float:
    """Lower bound on one-way ranging standard deviation, in meters.

    ``delta_f`` is half the tone separation in Hz and ``post_snr`` is the
    post-processing energy ratio ``2E/N0`` (dimensionless).  The bound is
    ``(c/2) / (beta * sqrt(post_snr))`` with ``beta = 2*pi*delta_f``; the
    ``c/2`` factor converts the round-trip delay deviation to one-way
    range.
    """
    if not 0 < delta_f < math.inf:
        raise ValueError(f"delta_f must be positive and finite, got {delta_f}")
    if not post_snr > 0:
        raise ValueError(f"post_snr must be positive, got {post_snr}")
    beta = 2.0 * np.pi * delta_f
    return SPEED_OF_LIGHT / (2.0 * beta * math.sqrt(post_snr))
