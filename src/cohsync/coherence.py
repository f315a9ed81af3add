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
# probability, for frequency planning; recomputable with
# probability_curve + threshold_crossings.
TWO_NODE_SIGMA_OVER_LAMBDA = {0.9: 0.0495, 0.8: 0.0725, 0.7: 0.1040}

# Limit on trials x n_nodes of one probability curve.  A curve peaks at
# about 34 bytes per phase error (48 with two nodes; tracemalloc), so about
# 800 MB here.  The 16-node, 50,000-trial array uses 4.8 %.
MAX_TRIAL_NODES = 2**24


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


def coherent_gain(phase_errors):
    """Achieved over ideal beamformed power, per error realization.

    ``G_c = |sum_n exp(j eps_n)|**2 / N**2`` over the last axis of a
    ``(..., N)`` array, so a ``(trials, N)`` array gives one gain per
    trial and an ``N``-vector a single one.  Equals 1 only when all phase
    errors coincide modulo 2*pi, and is bounded by 1 (Cauchy-Schwarz).
    """
    eps = np.asarray(phase_errors, dtype=float)
    if eps.ndim == 0 or eps.shape[-1] == 0:
        raise ValueError("phase_errors needs at least one node on its last axis")
    phasors = 1j * eps
    np.exp(phasors, out=phasors)
    return np.abs(phasors.sum(axis=-1)) ** 2 / eps.shape[-1] ** 2


def _draw_geometry(scenario: ArrayScenario, trials: int, rng: np.random.Generator):
    """Steering angles and unit range errors of ``trials`` trials.

    Everything except the sigma_d scaling, so one draw serves a whole grid.
    """
    theta = rng.uniform(*scenario.theta_range, size=trials)
    z_range = rng.standard_normal((trials, scenario.n_nodes))
    z_range[:, 0] = 0.0  # primary node is the phase reference
    return theta, z_range


def _phase_errors(scenario: ArrayScenario, sigma_d: float, geometry) -> np.ndarray:
    """``(trials, N)`` phase errors at range-error scale ``sigma_d``."""
    theta, z_range = geometry
    k = scenario.wavenumber()
    return (k * sigma_d * (1.0 + np.sin(theta)))[:, None] * z_range


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
    if trials * scenario.n_nodes > MAX_TRIAL_NODES:
        raise ValueError(
            f"{trials} trials x {scenario.n_nodes} nodes exceeds the limit of "
            f"{MAX_TRIAL_NODES} phase errors (trials x nodes)"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    geometry = _draw_geometry(scenario, trials, rng)
    return np.array(
        [
            np.mean(coherent_gain(_phase_errors(scenario, s, geometry)) >= threshold)
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


def max_coherent_frequency(sigma_d: float, probability: float) -> float:
    """Highest carrier frequency a ranging accuracy supports, in Hz.

    Uses ``f = k * c / sigma_d`` where ``k`` is the cached two-node
    sigma_d/lambda threshold at the requested probability of exceeding
    0.9 coherent gain.
    """
    if not sigma_d > 0:
        raise ValueError("sigma_d must be positive")
    if probability not in TWO_NODE_SIGMA_OVER_LAMBDA:
        raise ValueError(
            f"probability {probability} not covered; "
            f"available: {sorted(TWO_NODE_SIGMA_OVER_LAMBDA)}"
        )
    return TWO_NODE_SIGMA_OVER_LAMBDA[probability] * SPEED_OF_LIGHT / sigma_d
