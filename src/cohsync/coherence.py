"""Coherent gain of a distributed array versus ranging accuracy.

``coherent_gain`` is the ratio of achieved to ideal beamformed power at
the destination, 1.0 under perfect phase alignment.  The Monte-Carlo
machinery maps a ranging standard deviation ``sigma_d`` to the
probability of keeping the gain above a threshold, which in turn sets
the highest carrier frequency a given ranging accuracy can support.

Phase-error model per secondary node (the primary is the reference and
carries no error):

    eps = (2*pi/lambda) * delta_d * (1 + sin(theta))

where ``delta_d ~ N(0, sigma_d**2)`` is that node's range-estimate error
and ``theta`` the beam steering angle.  The ``sin(theta)`` part is the
steering-correction error: steering with the estimated spacing
``d + delta_d`` instead of the true ``d`` misses by ``k * delta_d *
sin(theta)``, whatever ``d`` is, so spacings need not be drawn.  The
constant part is the phase alignment performed over the measured
inter-node link itself, which weights the range error by the full
carrier wavenumber.  Including the link term is what reproduces the
published two-node sigma_d/lambda thresholds (0.0495 / 0.0725 / 0.1040
at probabilities 0.9 / 0.8 / 0.7) to within a couple of percent.
"""

import math
from dataclasses import dataclass

import numpy as np

from .waveform import SPEED_OF_LIGHT

# Two-node sigma_d/lambda thresholds for P(G_c >= 0.9), keyed by that
# probability.  Defaults for frequency planning; recomputable with
# probability_curve + threshold_crossings.
TWO_NODE_SIGMA_OVER_LAMBDA = {0.9: 0.0495, 0.8: 0.0725, 0.7: 0.1040}


@dataclass(frozen=True)
class ArrayScenario:
    """Array size, carrier wavelength (m) and steering-angle range.

    ``theta_range`` (rad) bounds the uniform draw of the steering angle.
    The ranging accuracy is not part of the scenario: it is the grid
    that :func:`probability_curve` sweeps.
    """

    n_nodes: int
    wavelength: float
    theta_range: tuple[float, float] = (-math.pi / 2, math.pi / 2)

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        if not self.wavelength > 0:
            raise ValueError("wavelength must be positive")
        if self.theta_range[0] > self.theta_range[1]:
            raise ValueError("theta_range must be ordered")

    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


def coherent_gain(phase_errors, amplitudes=None) -> float:
    """Achieved over ideal beamformed power for one error realization.

    ``G_c = |sum_n a_n exp(j eps_n)|**2 / (sum_n a_n)**2``; equals 1 only
    when all phase errors coincide modulo 2*pi (for positive amplitudes)
    and is bounded by 1 (Cauchy-Schwarz).
    """
    eps = np.asarray(phase_errors, dtype=float)
    if amplitudes is None:
        amps = np.ones_like(eps)
    else:
        amps = np.asarray(amplitudes, dtype=float)
        if amps.shape != eps.shape:
            raise ValueError("phase_errors and amplitudes must have equal length")
        if np.any(amps < 0):
            raise ValueError("amplitudes must be >= 0")
    ideal = amps.sum()
    if ideal == 0:
        raise ValueError("at least one amplitude must be positive")
    achieved = np.abs((amps * np.exp(1j * eps)).sum()) ** 2
    return float(achieved / ideal**2)


def _draw_geometry(scenario: ArrayScenario, trials: int, rng: np.random.Generator):
    """Steering angles and unit range errors of ``trials`` trials.

    Everything except the sigma_d scaling, so one draw serves a whole grid.
    """
    theta = rng.uniform(*scenario.theta_range, size=trials)
    z_range = rng.standard_normal((trials, scenario.n_nodes))
    z_range[:, 0] = 0.0  # primary node is the phase reference
    return theta, z_range


def _gains_from_geometry(
    scenario: ArrayScenario, sigma_d: float, geometry
) -> np.ndarray:
    """Coherent gain of each trial at range-error scale ``sigma_d``."""
    theta, z_range = geometry
    k = scenario.wavenumber()
    eps = (k * sigma_d * (1.0 + np.sin(theta)))[:, None] * z_range
    summed = np.exp(1j * eps).sum(axis=1)
    return np.abs(summed) ** 2 / scenario.n_nodes**2


def probability_curve(
    scenario: ArrayScenario,
    sigma_grid,
    threshold: float = 0.9,
    trials: int = 10000,
    seed: int = 0,
) -> np.ndarray:
    """``Y = P(G_c >= threshold)`` over a grid of sigma_d values (metres).

    One set of geometry draws is shared across the whole grid (common
    random numbers), which removes Monte-Carlo jitter from the shape of
    the curve.
    """
    grid = np.asarray(sigma_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("sigma_grid is empty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    geometry = _draw_geometry(scenario, trials, rng)
    return np.array(
        [
            np.mean(_gains_from_geometry(scenario, s, geometry) >= threshold)
            for s in grid
        ]
    )


def threshold_crossings(
    sigma_grid, y_curve, levels=(0.9, 0.8, 0.7)
) -> dict[float, float]:
    """Interpolated sigma values where a monotone curve crosses each level."""
    grid = np.asarray(sigma_grid, dtype=float)
    y = np.asarray(y_curve, dtype=float)
    out = {}
    for level in levels:
        if y.min() > level or y.max() < level:
            out[level] = math.nan
            continue
        # y is non-increasing in sigma; flip for interp's ascending demand
        out[level] = float(np.interp(level, y[::-1], grid[::-1]))
    return out


def max_coherent_frequency(
    sigma_d: float,
    probability: float,
    threshold: float = 0.9,
    ratio_table: dict[float, float] | None = None,
) -> float:
    """Highest carrier frequency a ranging accuracy supports, in Hz.

    Uses ``f = k * c / sigma_d`` where ``k`` is the sigma_d/lambda
    threshold at the requested probability of exceeding ``threshold``
    coherent gain.  Defaults to the cached two-node table for
    ``threshold == 0.9``; pass a table derived from
    :func:`threshold_crossings` for other setups.
    """
    if not sigma_d > 0:
        raise ValueError("sigma_d must be positive")
    table = ratio_table
    if table is None:
        if threshold != 0.9:
            raise ValueError(
                "no cached thresholds for this gain threshold; supply ratio_table"
            )
        table = TWO_NODE_SIGMA_OVER_LAMBDA
    if probability not in table:
        raise ValueError(
            f"probability {probability} not covered; available: {sorted(table)}"
        )
    return table[probability] * SPEED_OF_LIGHT / sigma_d
