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

Since ``eps = sigma_d * a`` with ``a`` fixed per trial and node, the
phasors ``exp(j eps)`` along an arithmetic sigma_d grid form a geometric
sequence.  ``probability_curve`` therefore pays one complex exponential
for the first grid point and for each distinct grid step, and steps from
point to point by a complex multiply (the trigonometric recurrence of
Press et al., *Numerical Recipes*, 3rd ed., 2007, section 5.4).  Each
multiply adds about one ulp, so after ``j`` steps a gain differs from a
fresh exponential's by about ``j * 1e-16``: about 1e-11 at a 65,536-point
grid, far below the Monte-Carlo standard error.
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
# about 8.6 bytes per phase error (12 with two nodes; tracemalloc), the
# geometry draw, plus about 1.5 MiB of chunk buffers, so at most about
# 200 MB here.  The 16-node, 50,000-trial array uses 4.8 %.
MAX_TRIAL_NODES = 2**24

# Phase errors per chunk of probability_curve's trials: a chunk's phasors,
# step factors and gains (about 0.6 MiB) stay in cache across the grid.
_CHUNK_PHASE_ERRORS = 2**14
# Step factors probability_curve keeps per chunk (256 KiB each at 2**14
# phase errors).  A linear grid of up to 65,536 points has about 4 to 19
# distinct step floats, of which the 16 most frequent cover over 99.99 %
# of the steps.
_KEPT_STEP_FACTORS = 16


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
    return _phasor_gain(_unit_phasors(eps))


def _unit_phasors(x: np.ndarray) -> np.ndarray:
    """``exp(j x)`` of a real array, written as ``cos x + j sin x``.

    With numpy 2.4 on glibc it equals ``np.exp(1j * x)`` bit for bit, and
    takes about half the time: it skips the real exponential and the
    complex temporary.
    """
    phasors = np.empty(x.shape, dtype=complex)
    np.cos(x, out=phasors.real)
    np.sin(x, out=phasors.imag)
    return phasors


def _phasor_gain(phasors: np.ndarray) -> np.ndarray:
    """``|sum_n p_n|**2 / N**2`` over the last axis of unit phasors."""
    return np.abs(phasors.sum(axis=-1)) ** 2 / phasors.shape[-1] ** 2


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
    the curve.  The grid may come in any order and repeat points.

    Trials run in chunks of about ``_CHUNK_PHASE_ERRORS`` phase errors.  A
    chunk's phasors start from ``exp(j grid[0] a)``, with ``a`` the phase
    errors at unit sigma_d, and are multiplied by ``exp(j (grid[i] -
    grid[i-1]) a)`` at each next point.  A chunk computes each factor of
    a repeated step once (for the ``_KEPT_STEP_FACTORS`` most frequent
    steps), so a linear grid pays a handful of exponentials and a log
    grid one per point.  A point at sigma_d = 0
    restarts from exact unit phasors.  After ``i`` steps the gains differ
    from a fresh ``exp(j grid[i] a)``'s by about ``i * 1e-16``, about
    1e-11 at a 65,536-point grid: a trial flips only if its gain lies
    that close to ``threshold``.
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
    theta, z_range = _draw_geometry(scenario, trials, rng)
    sigmas, steps = grid.tolist(), np.diff(grid).tolist()
    # the factors of the most frequent repeated steps are kept for a chunk
    values, counts = np.unique(steps, return_counts=True)
    frequent = np.argsort(-counts, kind="stable")[:_KEPT_STEP_FACTORS]
    kept = set(values[frequent][counts[frequent] > 1].tolist())
    rows = max(1, _CHUNK_PHASE_ERRORS // scenario.n_nodes)
    hits = np.zeros(grid.size, dtype=np.int64)
    for start in range(0, trials, rows):
        chunk = slice(start, start + rows)
        a = _phase_errors(scenario, 1.0, (theta[chunk], z_range[chunk]))
        phasors = _unit_phasors(sigmas[0] * a)
        hits[0] += np.count_nonzero(_phasor_gain(phasors) >= threshold)
        factors = {}
        for i, step in enumerate(steps, start=1):
            if sigmas[i] == 0.0:
                phasors[...] = 1.0
            else:
                factor = factors.get(step)
                if factor is None:
                    factor = _unit_phasors(step * a)
                    if step in kept:
                        factors[step] = factor
                phasors *= factor
            hits[i] += np.count_nonzero(_phasor_gain(phasors) >= threshold)
    return hits / trials


def threshold_crossings(
    sigma_grid, y_curve, levels=(0.9, 0.8, 0.7)
) -> dict[float, float]:
    """Interpolated sigma values where a monotone curve crosses each level.

    The grid may come in any order; NaN marks a level the curve does not
    reach.
    """
    sigma, y = _by_probability(sigma_grid, y_curve)
    out = {}
    for level in levels:
        if y.min() > level or y.max() < level:
            out[level] = math.nan
            continue
        out[level] = float(np.interp(level, y, sigma))
    return out


def binomial_standard_error(probability, trials: int):
    """``sqrt(p (1 - p) / trials)``: the standard error of a Monte-Carlo probability."""
    p = np.asarray(probability, dtype=float)
    return np.sqrt(p * (1.0 - p) / trials)


def crossing_standard_errors(
    sigma_grid, y_curve, trials: int, levels=(0.9, 0.8, 0.7)
) -> dict[float, float]:
    """Standard error of each :func:`threshold_crossings` value.

    The binomial standard error at the level, carried to sigma through the
    curve segment that brackets the crossing: divided by that segment's
    ``|dY / dsigma|``.  NaN where the curve does not reach the level or the
    segment is flat.
    """
    sigma, y = _by_probability(sigma_grid, y_curve)
    out = {}
    for level in levels:
        out[level] = math.nan
        if y.size < 2 or y.min() > level or y.max() < level:
            continue
        j = int(np.clip(np.searchsorted(y, level, side="right") - 1, 0, y.size - 2))
        dy = y[j + 1] - y[j]
        if dy != 0.0:
            se = binomial_standard_error(level, trials)
            out[level] = float(se * abs((sigma[j + 1] - sigma[j]) / dy))
    return out


def _by_probability(sigma_grid, y_curve) -> tuple[np.ndarray, np.ndarray]:
    """The curve's points by descending sigma, so by ascending probability
    for a non-increasing curve, as ``np.interp`` wants its abscissae."""
    grid = np.asarray(sigma_grid, dtype=float)
    y = np.asarray(y_curve, dtype=float)
    order = np.argsort(grid, kind="stable")[::-1]
    return grid[order], y[order]


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
