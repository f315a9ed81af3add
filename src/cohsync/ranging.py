"""Range estimation chain: lobe selection and peak refinement.

The estimation pipeline for one ranging cycle is

1. matched-filter the received ranging and disambiguation pulses
   (:func:`_circular_correlation`; a window draws its noise already
   filtered, see :mod:`cohsync.scenario`),
2. take the disambiguation peak as the coarse delay,
3. select the two-tone correlation lobe nearest that coarse delay
   (lobes repeat every ``1 / (f2 - f1)`` seconds): the coarse delay is a
   whole lag ``c``, so the credible lobes lie in ``c - h .. c + h``, ``h``
   the whole samples in half a lobe spacing,
4. refine the selected lobe peak to sub-sample precision,
5. convert the refined lag to one-way range via ``c * lag / 2``.

Refinement detail: a natural cubic spline fitted straight to the
integer-rate correlation magnitude biases the peak by centimetres when
the lobe is only a few samples wide, so the selected lobe is first
densified with an exact-for-band-limited Kaiser-windowed-sinc
interpolator and the spline maximum (analytic derivative root) is taken
on 17 points of that dense grid around its largest magnitude, the same
17-knot fit for every pulse.  Away from a grid end that magnitude sits
on the centre knot, so the maximum is searched on the two knot intervals
beside it, and on all 16 only where a curvature bound leaves another
interval in doubt (:func:`_natural_spline_max`).  The grid is the points
of one fixed lattice, ``1 / OVERSAMPLE`` of a sample apart, within
``NEIGHBORS`` samples of the lobe peak and within half a lobe spacing of
it, so one interpolation table, built once per process, serves every
tone separation.  Measured noise-free bias with the refinement constants
below is under 0.1 mm at 25 Msps with a 7.5 MHz tone separation.

Steps 3-5 run on all cycles of a window at once; one cycle is a batch
of one.  What steps 3-4 read of a frame depends only on its lag count,
sample rate and tone separation: one :class:`Readout` (:func:`readout`).
A window draws them as one lag block a pulse, which bounds the
separation from below (:func:`check_separation`).  Lobe selection
(:func:`select_lobes`) keeps each pulse's peak lag, gross-error flag and
interpolator support, the one shape :func:`refine_window` takes.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelState
from .waveform import SPEED_OF_LIGHT, WaveformConfig

# Refinement half-span in samples (clipped to half a lobe spacing so the
# fit never strays into the adjacent lobe), dense evaluation factor of the
# spline fit, and half-support and Kaiser shape of the interpolator.
NEIGHBORS = 4
OVERSAMPLE = 64
INTERP_TAPS = 32
INTERP_BETA = 14.0

# Floor of the receive-window padding, in samples.
WINDOW_PAD_SAMPLES = 128

# Limit on the complex samples of one window's frame array (pulses_per_interval
# x receive-window length): 256 MiB at 16 bytes a sample.  No window holds such
# an array: its ranging lags are one block of at most 159 lags a pulse at the
# reference waveform, and whole disambiguation rows are drawn 16 at a time.  By
# tracemalloc an 800 x 3750 window at 13 dB peaks at 0.12-0.23 such arrays from
# 0.29 to 7.5 MHz, mostly refinement's dense grid and its squared magnitudes,
# so about 60 MiB at the limit.  It also bounds the receive window alone.
MAX_FRAME_SAMPLES = 2**24


@dataclass(frozen=True)
class RangeWindowStats:
    """Grouped statistics over one window of sequential range estimates.

    Estimates are averaged in order within consecutive groups;
    ``sigma_d`` is the sample standard deviation (N-1 normalization) of
    the group means, which is what the bandwidth controller consumes.
    """

    group_means: np.ndarray
    sigma_d: float
    mean_range: float


def _circular_correlation(rows: np.ndarray, template_spectrum: np.ndarray) -> np.ndarray:
    """Batched circular cross-correlation of rows against one template.

    ``template_spectrum`` is the template's DFT at the rows' length ``N``,
    ``np.fft.fft(template, N)``.  Output lag ``k`` of a row is ``sum_j
    row[(j + k) mod N] * conj(template[j])`` over the template support.
    Lags ``0 .. N - M`` (``M`` the template's length) are the full-overlap
    region and equal the linear cross-correlation there; indices near
    ``N`` hold the negative lags (exactly, provided the transmit frame
    carries at least that much zero padding).
    """
    spectrum = np.fft.fft(rows, axis=1)
    spectrum *= np.conj(template_spectrum)
    return np.fft.ifft(spectrum, axis=1)


def _signed_lags(index: np.ndarray, n: int) -> np.ndarray:
    """Signed lags of indices on the circular lag axis of length ``n`` (past n/2 negative)."""
    return np.where(index > n / 2, index - n, index)


@dataclass(frozen=True, eq=False)
class Readout:
    """What the estimator reads of a frame's ranging output, fixed by the frame.

    A pulse with coarse lag ``c`` reads lags ``c + offset .. c + offset +
    width - 1``: its lobe window ``c - h .. c + h`` and the support around
    any peak in it, which covers the edge test's lag either side.
    Refinement reads the ``support`` lags from ``peak + first`` (72 from
    ``peak - 35`` while half a lobe spacing spans ``NEIGHBORS`` samples,
    fewer above 3.125 MHz at 25 Msps), which ``matrix`` maps to the dense
    grid at ``offsets``, views of :func:`_interp_table`.
    """

    sample_rate: float
    h: int
    offset: int
    width: int
    first: int
    support: int
    offsets: np.ndarray
    matrix: np.ndarray


@lru_cache(maxsize=2)
def readout(n: int, sample_rate: float, separation: float) -> Readout:
    """The :class:`Readout` of ``n``-lag frames at ``sample_rate``, tones ``separation`` apart."""
    half = sample_rate / separation / 2.0
    # the dense grid's half-span: NEIGHBORS, within half a lobe spacing, at least 1
    offsets, first, matrix = _interp_matrix(max(min(float(NEIGHBORS), half), 1.0))
    h, support = math.floor(half), matrix.shape[0]
    return Readout(sample_rate, h, first - h, 2 * h + support, first, support, offsets, matrix)


def check_separation(
    separation: float, waveform: WaveformConfig, n: int, name: str = "tone separation"
) -> None:
    """Raise ValueError, naming ``name``, unless tones ``separation`` apart read one lag block.

    A block of ``n``-lag frames holds ``n - L + 1`` lags, ``L`` the ranging
    pulse's length (:func:`~cohsync.channel.matched_noise_block`), and a
    :class:`Readout` reads ``2 h + 2 (NEIGHBORS + INTERP_TAPS)`` of them,
    ``h`` the whole samples in half a lobe spacing (at least ``NEIGHBORS``
    near the floor, by the window's padding): the floor is 25e6 / 88 Hz at
    the reference waveform.  The lags are counted, so no table is built.
    """
    fs = waveform.sample_rate
    lags = n - int(round(waveform.ranging_pulse_width * fs)) + 1  # generate_two_tone's count
    h_max = lags // 2 - NEIGHBORS - INTERP_TAPS
    if not (separation > 0 and fs / separation / 2.0 < h_max + 1):  # readout's h <= h_max
        raise ValueError(
            f"{name}={separation} Hz must exceed {fs / (2.0 * (h_max + 1))} Hz, "
            f"where its lobe window and refinement support fit a block of {lags} lags"
        )


def select_lobes(
    rows: np.ndarray, coarse: np.ndarray, reads: Readout
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lobe selection on rows that hold the lags ``reads`` names.

    Row ``r`` holds pulse ``r``'s ranging output at lags ``coarse[r] +
    reads.offset ..`` (whole ``coarse`` lags, at least ``reads.width``), so
    every lobe window, with one lag either side, is the same column range.
    Returns ``(support, peak, gross)``: each pulse's ``reads.support`` lags
    around its lobe peak, the peak's lag and its gross-error flag, which
    marks a disambiguation failure: the coarse delay did not land inside
    any credible two-tone lobe.
    """
    h, edge = reads.h, -reads.h - 1 - reads.offset  # lag coarse - h - 1 is column edge
    mag = np.abs(rows[:, edge : edge + 2 * h + 3])
    k = np.argmax(mag[:, 1:-1], axis=1)
    # no credible lobe peak lies within the window exactly when the argmax
    # sits on its edge and the magnitude keeps rising beyond it
    gross = ((k == 0) & (mag[:, 0] > mag[:, 1])) | ((k == 2 * h) & (mag[:, -1] > mag[:, -2]))
    columns = (k + edge + 1 + reads.first)[:, None] + np.arange(reads.support)
    return np.take_along_axis(rows, columns, axis=1), coarse - h + k, gross


def effective_window_length(waveform: WaveformConfig, channel_state: ChannelState) -> int:
    """Receive-window length (samples) of every frame of a window.

    The window holds the longer of the ranging and disambiguation pulses
    plus padding for the round-trip delay and the interpolator's support,
    rounded up to the next 11-smooth length (no prime factor above 11),
    which the FFT transforms fastest.  Raises OverflowError for a window
    longer than ``MAX_FRAME_SAMPLES``.
    """
    fs = waveform.sample_rate
    # the sample counts of generate_two_tone and generate_disambiguation
    n_pulse = max(int(round(waveform.ranging_pulse_width * fs)), int(round(fs / waveform.f_d)))
    delay = 2.0 * channel_state.true_range / SPEED_OF_LIGHT * fs
    pad = max(WINDOW_PAD_SAMPLES, int(math.ceil(delay)) + INTERP_TAPS + NEIGHBORS + 8)
    return _next_fast_len(n_pulse + pad)


def _next_fast_len(target: int) -> int:
    """Smallest 11-smooth length at or above ``target`` (scipy's ``next_fast_len``).

    Raises OverflowError, without searching, when ``target`` exceeds
    ``MAX_FRAME_SAMPLES``.
    """
    if target > MAX_FRAME_SAMPLES:
        raise OverflowError(f"a {target}-sample window exceeds {MAX_FRAME_SAMPLES} samples")
    lengths = _fast_lengths()
    return lengths[bisect_left(lengths, target)]


@lru_cache(maxsize=1)
def _fast_lengths() -> tuple[int, ...]:
    """Every 11-smooth number up to ``MAX_FRAME_SAMPLES``, ascending."""
    lengths = [1]
    for prime in (2, 3, 5, 7, 11):
        powers = []
        for m in lengths:
            while m <= MAX_FRAME_SAMPLES:
                powers.append(m)
                m *= prime
        lengths = powers
    return tuple(sorted(lengths))


def _interp_matrix(span: float):
    """Kaiser-windowed-sinc interpolation onto the lattice points within ``span``.

    The dense grid is the lattice offsets ``m / OVERSAMPLE`` with ``|m| <=
    int(span * OVERSAMPLE)``.  Returns the grid offsets, the first integer
    lag ``first`` the grid reads (relative to the lobe peak) and the real
    ``(L, n_dense)`` matrix that maps the ``L`` samples at lags ``first ..
    first + L - 1`` to the grid: read-only views of :func:`_interp_table`.
    """
    offsets, first, matrix = _interp_table()
    m = int(span * OVERSAMPLE)
    centre = NEIGHBORS * OVERSAMPLE
    lo = -m // OVERSAMPLE - INTERP_TAPS + 1
    hi = m // OVERSAMPLE + INTERP_TAPS
    cols = slice(centre - m, centre + m + 1)
    return offsets[cols], lo, matrix[lo - first : hi - first + 1, cols]


@lru_cache(maxsize=1)
def _interp_table():
    """The interpolation weights onto every lattice offset within ``NEIGHBORS``.

    The lattice is the offsets ``m / OVERSAMPLE`` for ``|m| <= NEIGHBORS *
    OVERSAMPLE``.  Returns the offsets, the first integer lag ``first``
    they read and the real ``(L, n_dense)`` Kaiser-sinc matrix that maps
    the ``L`` samples at lags ``first .. first + L - 1`` to them.  Built
    on first use, once per process.
    """
    half = NEIGHBORS * OVERSAMPLE
    offsets = np.arange(-half, half + 1) / OVERSAMPLE
    n_dense = offsets.size
    base = np.floor(offsets).astype(int)
    j = np.arange(-INTERP_TAPS + 1, INTERP_TAPS + 1)
    u = (offsets - base)[:, None] - j[None, :]
    x = u / INTERP_TAPS
    window = np.where(
        np.abs(x) <= 1.0,
        np.i0(INTERP_BETA * np.sqrt(np.clip(1.0 - x**2, 0.0, None))) / np.i0(INTERP_BETA),
        0.0,
    )
    lags = base[:, None] + j[None, :]
    first = int(lags[0, 0])
    matrix = np.zeros((int(lags[-1, -1]) - first + 1, n_dense))
    matrix[lags - first, np.arange(n_dense)[:, None]] = np.sinc(u) * window
    offsets.flags.writeable = matrix.flags.writeable = False
    return offsets, first, matrix


@lru_cache(maxsize=1)
def _spline_system_inverse(n: int, h: float) -> np.ndarray:
    """Map from second differences to the natural spline's interior second derivatives.

    That is ``6 / h**2`` times the transposed inverse of its tridiag(1, 4, 1)
    system on ``n`` uniform knots ``h`` apart.
    """
    inverse = np.linalg.inv(4.0 * np.eye(n - 2) + np.eye(n - 2, k=1) + np.eye(n - 2, k=-1))
    inverse = (6.0 / (h * h)) * inverse.T
    inverse.flags.writeable = False
    return inverse


def _natural_spline_max(
    x0: np.ndarray | float, h: float, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Location and value of the maximum of natural cubic splines, one per row.

    Row ``r`` of ``y`` holds the values at uniform knots ``x0[r] + i*h``.
    The second derivatives come from the cached inverse of the constant
    tridiagonal system and the per-interval cubic extrema from the
    quadratic formula (:func:`_spline_candidates`), so there is no grid
    quantization.  Of equal maxima the first in knot order wins.  Matches
    scipy's ``CubicSpline(..., bc_type='natural')`` to rounding.

    Only the two intervals beside the centre knot are evaluated where
    that settles a row.  On an interval whose second derivative runs
    linearly from ``m_i`` to ``m_{i+1}``, a cubic exceeds its chord by at
    most ``h**2 / 8 * max(0, -m_i, -m_{i+1})``, so the interval lies below
    ``max(y_i, y_{i+1})`` plus that.  A row is settled when every other
    interval's bound, plus a margin for rounding, lies below the best
    candidate of the two; every interval of the other rows (a grid-end or
    off-centre peak, or values that are not finite) is evaluated on the
    batch's second derivatives, so every row has the bytes of a search
    over all intervals.
    """
    rows, n = y.shape
    if n < 3:
        raise ValueError("need at least 3 points for a cubic spline")
    m = np.zeros((rows, n))
    m[:, 1:-1] = (y[:, :-2] - 2.0 * y[:, 1:-1] + y[:, 2:]) @ _spline_system_inverse(n, h)

    lo = n // 2 - 1  # the first of the two intervals beside the centre knot
    interval, t, v = _first_max(*_spline_candidates(y[:, lo : lo + 3], m[:, lo : lo + 3], h))
    interval += lo
    yt, mt = y.T.copy(), m.T.copy()  # knot-major, so each reduction runs across the rows
    with np.errstate(invalid="ignore", over="ignore"):
        bound = np.maximum(yt[:-1], yt[1:])
        bound -= (h * h / 8.0) * np.minimum(np.minimum(mt[:-1], mt[1:]), 0.0)
        bound[lo : lo + 2] = -np.inf
        # a candidate and a bound round to within some ulps of this scale
        scale = np.abs(yt).max(axis=0) + h * h * np.abs(mt).max(axis=0)
        settled = bound.max(axis=0) + 1e-12 * scale < v
    pending = np.flatnonzero(~settled)
    if pending.size:
        whole = _spline_candidates(y[pending], m[pending], h)
        interval[pending], t[pending], v[pending] = _first_max(*whole)
    return x0 + interval * h + t, v


def _spline_candidates(y: np.ndarray, m: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate places and values of the maximum on each spline interval.

    ``y`` and ``m`` hold the values and second derivatives at consecutive
    knots ``h`` apart, one row a spline.  Returns ``(t, v)`` of shape
    ``(rows, knots - 1, 4)``: per interval, in order, both knots, then the
    real roots of ``S'``, each with its offset from the interval's first
    knot and its spline value, ``-inf`` where it falls outside the interval.
    """
    # per-interval coefficients: S(t) = y + b t + c t^2 + d t^3, t in [0, h]
    b = (y[:, 1:] - y[:, :-1]) / h - h * (2.0 * m[:, :-1] + m[:, 1:]) / 6.0
    c = m[:, :-1] / 2.0
    d = (m[:, 1:] - m[:, :-1]) / (6.0 * h)

    # a root of S' = b + 2c t + 3d t^2 that does not exist is NaN or
    # infinite, and so falls outside [0, h]
    t = np.empty(b.shape + (4,))
    t[..., :2] = 0.0, h
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(4.0 * c**2 - 12.0 * d * b)
        t[..., 2] = (-2.0 * c + sq) / (6.0 * d)
        t[..., 3] = (-2.0 * c - sq) / (6.0 * d)
        flat = d == 0.0  # S' is linear there: its one root is the vertex
        t[flat, 2] = -b[flat] / (2.0 * c[flat])
        b, c, d, y0 = (a[..., None] for a in (b, c, d, y[:, :-1]))
        v = y0 + t * (b + t * (c + t * d))  # NaN at infinite roots, rejected below
    v[~((t >= 0.0) & (t <= h))] = -np.inf
    return t, v


def _first_max(t: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interval, place and value of each row's first largest :func:`_spline_candidates` value."""
    rows = len(v)
    interval, k = np.divmod(np.argmax(v.reshape(rows, -1), axis=1), 4)
    r = np.arange(rows)
    return interval, t[r, interval, k], v[r, interval, k]


def _dense_argmax(parts: np.ndarray) -> np.ndarray:
    """Index of each row's largest squared magnitude, the first of equal ones.

    ``parts`` stacks the real and imaginary parts, ``re, im = parts``.  A
    square past overflow is infinite, and still its row's largest.
    """
    with np.errstate(over="ignore"):
        squares = np.einsum("kij,kij->ij", parts, parts)  # no temporaries
    return np.argmax(squares, axis=1)


def _spline_peaks(offsets: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Offset of the spline maximum near each row's dense magnitude argmax.

    ``re, im = parts`` hold the dense grid, at least 129 points a row.
    Each spline is fitted to ``np.hypot(re, im)`` on 17 consecutive grid
    points, centred on the argmax (:func:`_dense_argmax`) unless that lies
    within 8 points of a grid end, and then the 17 at that end; the
    analytic extremum removes the dense-grid quantization.
    """
    re, im = parts
    lo = np.clip(_dense_argmax(parts) - 8, 0, re.shape[1] - 17)
    index = (np.arange(len(re))[:, None], lo[:, None] + np.arange(17))
    y = np.hypot(re[index], im[index])
    return _natural_spline_max(offsets[lo], float(offsets[1] - offsets[0]), y)[0]


def refine_window(
    support: np.ndarray, peak: np.ndarray, reads: Readout
) -> tuple[np.ndarray, np.ndarray]:
    """Peak refinement for a batch of pulses whose lobe peaks are selected.

    Row ``r`` of ``support`` holds pulse ``r``'s ranging matched-filter
    output on the ``reads.support`` lags around its selected peak lag
    ``peak[r]`` (:func:`select_lobes` gives both).  Returns per-pulse
    arrays ``(range, peak_lag)``: the one-way range in metres (at least 0)
    and the refined lag in seconds.  Dense interpolation is one matrix
    product against a view of the process's one Kaiser-sinc table; the
    dense argmax is that of the squared magnitudes, and the spline reads
    ``np.hypot`` on the 17 lattice points around it (:func:`_spline_peaks`).
    """
    dense = np.concatenate([support.real, support.imag]) @ reads.matrix
    offset = _spline_peaks(reads.offsets, dense.reshape(2, len(support), -1))
    lag_s = (peak + offset) / reads.sample_rate
    return np.maximum(0.0, SPEED_OF_LIGHT * lag_s / 2.0), lag_s


def window_stats(
    estimates, group_size: int = 5, window: int = 200
) -> RangeWindowStats:
    """Grouped standard deviation over one ordered estimate window.

    Exactly ``window`` estimates are required (the defaults mirror the
    200-pulse, 40x5 grouping the controller runs on).  Averaging groups
    of ``group_size`` consecutive estimates shrinks the standard
    deviation of i.i.d. inputs by ``sqrt(group_size)``.
    """
    est = np.asarray(estimates, dtype=float)
    if est.ndim != 1 or est.size != window:
        raise ValueError(f"expected exactly {window} estimates, got {est.size}")
    if group_size < 1 or window % group_size != 0:
        raise ValueError("window must be a positive multiple of group_size")
    if window // group_size < 2:
        raise ValueError("need at least two groups for a standard deviation")
    group_means = est.reshape(-1, group_size).mean(axis=1)
    return RangeWindowStats(
        group_means=group_means,
        sigma_d=float(group_means.std(ddof=1)),
        mean_range=float(est.mean()),
    )
