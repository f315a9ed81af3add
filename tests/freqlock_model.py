"""Behavioral model of self-mixing frequency transfer.

The self-mixing receiver splits an incoming two-tone signal and mixes it
against itself; the filtered mixer output is a tone at the difference
frequency whose phase is the difference of the received tone phases.
That difference tone is the frequency reference the secondary node locks
its oscillator to.  Only the frequency/phase relations are modelled, not
the amplifier/filter chain that realizes them.

No command runs this model, so it lives with the tests: acceptance
criterion 6 and ``test_freqlock.py`` check its algebra.
"""

import math
from dataclasses import dataclass

from cohsync.waveform import SPEED_OF_LIGHT


@dataclass(frozen=True)
class SelfMixInput:
    """Two received synchronization tones and their phases at the antenna."""

    f_s1: float
    f_s2: float
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self):
        if not 0 < self.f_s1 < self.f_s2:
            raise ValueError(f"need f_s2 > f_s1 > 0, got {self.f_s1}, {self.f_s2}")


def wrap_phase(phi: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    wrapped = math.remainder(phi, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def self_mix(inp: SelfMixInput) -> tuple[float, float]:
    """Demodulated reference frequency and phase from the self-mixer.

    Assumes the split paths to the mixer's RF and LO ports are
    path-matched, so the output is ``cos(2*pi*(f_s2 - f_s1)*t + phi5)``
    with ``phi5 = phi2 - phi1`` (wrapped to (-pi, pi]).  The reference
    depends only on the tone separation and the path length, not on the
    absolute carrier phase.
    """
    return inp.f_s2 - inp.f_s1, wrap_phase(inp.phi2 - inp.phi1)


def path_phase(frequency: float, distance: float) -> float:
    """Propagation phase ``-2*pi*f*d/c`` of a tone over ``distance`` metres."""
    return -2.0 * math.pi * frequency * distance / SPEED_OF_LIGHT
