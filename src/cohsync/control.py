"""Discrete PI control of the ranging tone separation, plus tuning support.

The controller runs in velocity form,

    x[n] = x[n-1] + K_p * ((1 + dt/T_i) * e[n] - e[n-1]),

and maps a ranging-accuracy error (measured sigma minus target, in
metres) to the next tone separation ``x = f2 - f1`` in Hz.  Positive
error therefore widens the separation.

Unit normalization: the published gain values are dimensionless, so the
controller scales errors into millimetres (``ERROR_SCALE``) and outputs
into MHz (``OUTPUT_SCALE``) before applying ``k_p``; with the default
gains, ``k_p = 1e-5`` moves the separation by a few hundred Hz per
interval for a 5 mm error.

Anti-windup is by output clamping: the clamped output is what gets
stored as ``x_prev``, so the increment never accumulates beyond the
limits.
"""

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

# A sustained oscillation shows at least _MIN_PERIODS periods.  A period
# spans at least two samples and the detector examines the last three
# quarters of a series, so MIN_SERIES_LENGTH is the shortest series whose
# examined tail can hold that many periods; shorter ones are never examined.
_MIN_PERIODS = 5
MIN_SERIES_LENGTH = next(n for n in itertools.count(1) if n - n // 4 >= 2 * _MIN_PERIODS)

ERROR_SCALE = 1e3  # metres -> controller error units (mm)
OUTPUT_SCALE = 1e6  # controller output units (MHz) -> Hz


@dataclass(frozen=True)
class PiControllerState:
    """Gains, clamp limits and the one-step memory."""

    k_p: float
    t_i: float
    x_prev: float
    e_prev: float = 0.0
    x_min: float = 0.3e6
    x_max: float = 7.5e6

    def __post_init__(self):
        if not self.t_i > 0:
            raise ValueError("t_i must be positive")
        if not self.x_min <= self.x_prev <= self.x_max:
            raise ValueError(
                f"x_prev={self.x_prev} outside clamp [{self.x_min}, {self.x_max}]"
            )


def pi_step(
    state: PiControllerState, e_n: float, dt: float
) -> tuple[PiControllerState, float]:
    """One velocity-form PI update; returns the new state and output (Hz)."""
    if math.isnan(e_n):
        raise ValueError("error input is NaN")
    if not dt > 0:
        raise ValueError("dt must be positive")
    e_scaled = e_n * ERROR_SCALE
    e_prev_scaled = state.e_prev * ERROR_SCALE
    increment = state.k_p * ((1.0 + dt / state.t_i) * e_scaled - e_prev_scaled)
    x_n = state.x_prev + increment * OUTPUT_SCALE
    x_n = min(max(x_n, state.x_min), state.x_max)
    return replace(state, x_prev=x_n, e_prev=e_n), x_n


def ziegler_nichols_gains(k_u: float, t_u: float) -> tuple[float, float]:
    """PI gains from the ultimate gain and period: (0.450*K_u, 0.833*T_u)."""
    if not (k_u > 0 and t_u > 0):
        raise ValueError("k_u and t_u must be positive")
    return 0.450 * k_u, 0.833 * t_u


@dataclass(frozen=True)
class OscillationReport:
    """Outcome of scanning a gain grid for the stability boundary."""

    k_u: float
    t_u: float


def _detect_oscillation(y: np.ndarray, dt: float) -> float | None:
    """Period of a sustained oscillation in ``y``, or None.

    Sustained means the peak-to-peak amplitude does not decay between the
    two halves of the post-transient window and the motion is spectrally
    concentrated (constant period), with at least five periods observed.
    """
    y = np.asarray(y, dtype=float)
    if y.size < MIN_SERIES_LENGTH:
        return None
    tail = y[y.size // 4 :]
    scale = max(np.max(np.abs(tail)), 1.0)
    z = tail - tail.mean()
    if np.ptp(z) <= 1e-9 * scale:
        return None  # converged flat
    half = z.size // 2
    p2p_early, p2p_late = np.ptp(z[:half]), np.ptp(z[half:])
    if p2p_late < 0.5 * p2p_early:
        return None  # decaying
    spectrum = np.abs(np.fft.rfft(z)) ** 2
    spectrum[0] = 0.0
    total = spectrum.sum()
    if total <= 0:
        return None
    peak_bin = int(np.argmax(spectrum))
    concentration = spectrum[max(peak_bin - 1, 1) : peak_bin + 2].sum() / total
    if concentration < 0.75:
        # a constant-period limit cycle concentrates essentially all tail
        # power in one line; broadband measurement jitter never does
        return None
    # parabolic refinement of the spectral peak for non-integer periods
    b = float(peak_bin)
    if 1 <= peak_bin < spectrum.size - 1:
        s_m, s_0, s_p = spectrum[peak_bin - 1 : peak_bin + 2]
        denom = s_m - 2 * s_0 + s_p
        if denom != 0:
            b += 0.5 * (s_m - s_p) / denom
    period = z.size / b * dt
    if period * _MIN_PERIODS > z.size * dt:
        return None  # too few periods to call it sustained
    return period


def find_ultimate_gain(
    plant: Callable[[float], Sequence[float]],
    k_grid: Sequence[float],
    dt: float = 1.0,
) -> OscillationReport | None:
    """Scan proportional gains for the smallest that sustains oscillation.

    ``plant(k)`` must return the closed-loop output series under pure
    proportional control with gain ``k``, sampled every ``dt`` seconds,
    and must be deterministic.  Returns the first grid gain whose output
    oscillates with non-decaying amplitude over at least five periods,
    together with the measured period; None if no grid gain
    oscillates.
    """
    if len(k_grid) == 0:
        raise ValueError("k_grid is empty")
    for k in sorted(k_grid):
        if not k > 0:
            raise ValueError("gains must be positive")
        period = _detect_oscillation(np.asarray(plant(k), float), dt)
        if period is not None:
            return OscillationReport(k_u=float(k), t_u=float(period))
    return None
