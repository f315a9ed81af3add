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

The steering angle is uniform on ``[-pi/2, pi/2]``, and ``eps`` depends
on the range error only through ``delta_d / lambda``.  So the curve works
in wavelengths: its grid holds sigma_d / lambda, and no carrier
wavelength is an input.

Since ``eps = sigma_d * a`` with ``a`` fixed per trial and node, the
phasors along an arithmetic sigma_d grid form a geometric sequence, which
``probability_curve`` steps by one complex multiply a point from a power
of the step factor, or a fresh start (Press et al., *Numerical Recipes*,
3rd ed., 2007, section 5.4), in chunks of trials that draw their own
geometry on the threads of :func:`cohsync.channel.map_chunks`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import _chunk_stream, chunks_per_task, map_chunks
from .waveform import SPEED_OF_LIGHT

# Two-node sigma_d/lambda thresholds for P(G_c >= 0.9), keyed by that
# probability, for frequency planning; recomputable with
# probability_curve + threshold_crossings.
TWO_NODE_SIGMA_OVER_LAMBDA = {0.9: 0.0495, 0.8: 0.0725, 0.7: 0.1040}

# Limit on trials x n_nodes of one probability curve.  Chunks draw their own
# geometry and hold at most _CHUNK_PHASE_ERRORS phase errors (ArrayScenario
# caps n_nodes there, as a chunk holds a trial at least), so it bounds run
# time, not memory: at it a 16-node curve takes about 0.6-0.9 s on 7 points
# and 2.1-2.5 s on 60 on two cores.  The benchmark's array uses 4.8 %.
MAX_TRIAL_NODES = 2**24

# Phase errors per chunk of probability_curve's trials, each chunk drawn from
# its own seed stream, so the curve's bytes depend on this size alone.  A chunk
# in flight holds its unit phase errors, phasors, step factor and a temporary,
# 0.6 MiB at 40 bytes a phase error.  A task on channel's pool runs
# channel.chunks_per_task chunks as one array: on two workers that is two,
# whose wider numpy calls run about 1.2 times as fast, and at most
# channel._MAX_WORKERS chunks (2.4 MiB) are in flight at any worker count.
_CHUNK_PHASE_ERRORS = 2**14


@dataclass(frozen=True)
class ArrayScenario:
    """The array's size.

    The ranging accuracy is not part of the scenario: it is the grid, in
    wavelengths, that :func:`probability_curve` sweeps.
    """

    n_nodes: int

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        if self.n_nodes > _CHUNK_PHASE_ERRORS:  # so one trial fits a chunk
            raise ValueError(
                f"n_nodes {self.n_nodes} exceeds the limit of {_CHUNK_PHASE_ERRORS} "
                "(the phase errors of one chunk)"
            )


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
    return np.abs(_unit_phasors(eps).sum(axis=-1)) ** 2 / eps.shape[-1] ** 2


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


def _magnitude_floor(threshold: float, n: int) -> float:
    """The least ``|total|`` whose gain ``|total|**2 / n**2`` reaches ``threshold``
    in (0, 1]; the gain's floats rise with ``|total|``, so both count the same trials."""
    h = math.sqrt(threshold) * n
    while h * h / n**2 >= threshold:
        h = math.nextafter(h, 0.0)
    while h * h / n**2 < threshold:
        h = math.nextafter(h, math.inf)
    return h


def _chunk_geometry(scenario: ArrayScenario, seed, j: int, rows: int, trials: int) -> np.ndarray:
    """``(N - 1, r)`` phase errors at a sigma_d of one wavelength of the ``r <=
    rows`` trials from ``j * rows`` of ``trials``: steering angles uniform on
    ``[-pi/2, pi/2]``, then the secondary nodes' unit range errors scaled in
    place by ``2 pi (1 + sin theta)``, from chunk ``j``'s stream of ``seed``
    (:func:`cohsync.channel._chunk_stream`)."""
    rng, r = _chunk_stream(seed, j), min(rows, trials - j * rows)
    theta = rng.uniform(-math.pi / 2, math.pi / 2, size=r)
    a = rng.standard_normal((scenario.n_nodes - 1, r))
    a *= 2.0 * math.pi * (1.0 + np.sin(theta))
    return a


def probability_curve(
    scenario: ArrayScenario,
    sigma_grid,
    threshold: float = 0.9,
    trials: int = 10000,
    seed: int = 0,
) -> np.ndarray:
    """``Y = P(G_c >= threshold)`` over a grid of sigma_d values in wavelengths
    (sigma_d / lambda, on which alone the curve depends), in any order and with repeats, on one set of geometry draws (common random
    numbers, so the curve's shape carries no Monte-Carlo jitter).

    Trials come in chunks of about ``_CHUNK_PHASE_ERRORS`` phase errors,
    each drawn from its own seed stream (:func:`_chunk_geometry`).  A task on
    the threads of :func:`cohsync.channel.map_chunks` runs
    :func:`cohsync.channel.chunks_per_task` consecutive chunks as one array
    of the secondary nodes' phasors, node-major (the primary's is 1), so at
    most ``_MAX_WORKERS`` chunks are in flight, and returns integer hit
    counts; a chunk of one trial runs alone.  Each trial's arithmetic is the
    same whatever shares its array, so the curve has the same bytes at any
    worker count.
    A chunk multiplies by ``exp(j s a)`` a point, ``a`` the unit phase
    errors: ``s`` is the mean step if every point lies within 4 ulps of
    ``max|grid|`` of ``grid[0] + i s``, else ``grid[i] - grid[i-1]`` (one
    exponential per nonzero step that differs from the last).  It starts
    from ``exp(j s a)**q`` by repeated squaring (of the conjugate for q < 0)
    if ``grid[0]`` also lies that close to ``q s`` for an integer ``|q| <=
    32``, so pays one exponential, else from ``exp(j grid[0] a)``.  A point
    at sigma_d = 0 restarts from exact unit phasors.  ``i`` steps on, a
    gain is within ``(|q| + i) * 2e-16`` of a fresh exponential's (``q`` 0
    after a fresh start) plus a few ulps of the largest phase: a trial
    flips only if its gain is that close to ``threshold``.
    """
    grid = np.asarray(sigma_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("sigma_grid is empty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold {threshold} must lie in (0, 1], the range of a coherent gain")
    if trials * scenario.n_nodes > MAX_TRIAL_NODES:
        raise ValueError(
            f"{trials} trials x {scenario.n_nodes} nodes exceeds the limit of "
            f"{MAX_TRIAL_NODES} phase errors (trials x nodes)"
        )
    # an arithmetic grid steps by its mean step: the first step's float would drift
    mean = float(grid[-1] - grid[0]) / max(grid.size - 1, 1)
    ulps = 4 * np.spacing(np.abs(grid).max())
    arithmetic = np.all(np.abs(grid - grid[0] - mean * np.arange(grid.size)) <= ulps)
    steps = [mean] * (grid.size - 1) if arithmetic else np.diff(grid).tolist()
    q = round(grid[0] / mean) if arithmetic and mean else None
    power = q is not None and abs(q) <= 32 and abs(grid[0] - q * mean) <= ulps
    sigmas, n, seed_seq = grid.tolist(), scenario.n_nodes, np.random.SeedSequence(seed)
    rows, floor = max(1, _CHUNK_PHASE_ERRORS // n), _magnitude_floor(threshold, n)
    n_chunks = -(-trials // rows)
    # a chunk of one trial runs alone: numpy sums the nodes of a lone column
    # pairwise, of a wider array's columns in order, so its gains would move
    k = chunks_per_task(n_chunks) if rows > 1 else 1
    firsts = sorted({*range(0, n_chunks, k), n_chunks - 1 if trials % rows == 1 else 0})
    tasks = [range(j, stop) for j, stop in zip(firsts, [*firsts[1:], n_chunks])]

    def task_hits(i: int) -> list[int]:
        chunks, hits = tasks[i], []
        a = (_chunk_geometry(scenario, seed_seq, chunks[0], rows, trials) if len(chunks) == 1 else
             np.concatenate([_chunk_geometry(scenario, seed_seq, j, rows, trials) for j in chunks], axis=1))
        total, size, hit = (np.empty(a.shape[1], dtype=t) for t in (complex, float, bool))
        factor, last = (_unit_phasors(mean * a), mean) if power else (None, None)
        phasors = np.ones_like(factor) if power else _unit_phasors(sigmas[0] * a)
        base = np.conj(factor) if power and q < 0 else factor  # factor**-1 on the unit circle
        for bit in bin(abs(q))[2:] if power else "":  # base**|q|, squaring from the leading bit
            phasors *= phasors
            if bit == "1":
                phasors *= base
        for sigma, step in zip(sigmas, [0.0] + steps):  # a step of 0 multiplies by 1
            if sigma == 0.0:
                phasors[...] = 1.0
            elif step:
                if step != last:
                    factor, last = _unit_phasors(step * a), step
                phasors *= factor
            # into the chunk's buffers, so no allocation a point
            np.add(np.add.reduce(phasors, axis=0, out=total), 1.0, out=total)
            hits.append(np.count_nonzero(np.greater_equal(np.abs(total, out=size), floor, out=hit)))
        return hits

    return np.sum(map_chunks(task_hits, len(tasks)), axis=0) / trials


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
