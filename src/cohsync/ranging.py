"""Range estimation chain: matched filter, lobe selection, peak refinement.

The estimation pipeline for one ranging cycle is

1. matched-filter the received ranging and disambiguation pulses,
2. take the disambiguation peak as the coarse delay,
3. select the two-tone correlation lobe nearest that coarse delay
   (lobes repeat every ``1 / (f2 - f1)`` seconds),
4. refine the selected lobe peak to sub-sample precision,
5. convert the refined lag to one-way range via ``c * lag / 2``.

Refinement detail: a natural cubic spline fitted straight to the
integer-rate correlation magnitude biases the peak by centimetres when
the lobe is only a few samples wide, so the selected lobe is first
densified with an exact-for-band-limited Kaiser-windowed-sinc
interpolator and the spline maximum (analytic derivative root) is taken
on that dense grid.  The grid is the points of one fixed lattice,
``1 / OVERSAMPLE`` of a sample apart, within ``NEIGHBORS`` samples of
the lobe peak and within half a lobe spacing of it, so one
interpolation table, built once per process, serves every tone
separation.  Measured noise-free bias with the refinement constants
below is under 0.1 mm at 25 Msps with a 7.5 MHz tone separation.

Steps 2-5 run on all cycles of a window at once (:func:`refine_window`);
the single-cycle :func:`disambiguate_and_refine` is a batch of one.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelState, peak_indices
from .waveform import SPEED_OF_LIGHT, ComplexBasebandSignal, WaveformConfig

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
# x receive-window length): 256 MiB at 16 bytes a sample.  Whole matched-filter
# rows are drawn 16 at a time, at most 4 chunks at once on threads, and cut to
# the lags refinement reads, so by tracemalloc a 200 x 3750 window peaks at
# 0.17-0.38 such arrays at tone separation 0 and at 0.1-7.5 MHz, and 0.2-0.35
# with whole disambiguation rows from a 3968-sample pulse; at P = 800 the draw
# itself peaks at 0.06-0.08 inline and 0.13-0.15 on 4 threads, below
# refinement's 0.24-0.29.  Lobe windows that approach the receive window's
# width peak higher, since lobe selection gathers the whole lobe window:
# 0.5 arrays at 50 kHz, 1.0 at 20 kHz and 3.0 at 6.8 kHz, so at most about
# 770 MiB.  The reference 200 x 3750 uses 4.5 %.  It also bounds the receive
# window alone (effective_window_length).
MAX_FRAME_SAMPLES = 2**24


@dataclass(frozen=True)
class RangeEstimate:
    """One refined range measurement.

    ``gross_error`` marks a disambiguation failure: the coarse delay did
    not land inside any credible two-tone lobe.
    """

    range: float
    peak_lag: float
    gross_error: bool = False

    def __post_init__(self):
        if self.range < 0:
            raise ValueError("range must be >= 0")


@dataclass(frozen=True)
class RangeWindowStats:
    """Grouped statistics over one window of sequential range estimates.

    Estimates are averaged in order within consecutive groups;
    ``sigma_d`` is the sample standard deviation (N-1 normalization) of
    the group means, which is what the bandwidth controller consumes.
    """

    estimates: np.ndarray
    group_means: np.ndarray
    sigma_d: float
    mean_range: float


def matched_filter(
    received: ComplexBasebandSignal, template: ComplexBasebandSignal
) -> ComplexBasebandSignal:
    """Cross-correlate ``received`` against ``template`` via the FFT.

    Output sample ``k`` is ``sum_j received[(j + k) mod N] * conj(template[j])``
    over the template support, i.e. the circular cross-correlation of the
    full received window.  Lags ``0 .. N - M`` are the full-overlap region
    and equal the linear cross-correlation there; indices near ``N`` hold
    the negative lags (exactly, provided the transmit frame carries at
    least that much zero padding).
    """
    if received.n_samples < template.n_samples:
        raise ValueError("received window must be at least as long as the template")
    if not template.energy > 0:
        raise ValueError("template has zero energy")
    spectrum = np.fft.fft(template.samples, received.n_samples)
    out = _circular_correlation(received.samples[None, :], spectrum)[0]
    return ComplexBasebandSignal(out, received.sample_rate)


def _circular_correlation(rows: np.ndarray, template_spectrum: np.ndarray) -> np.ndarray:
    """Batched circular cross-correlation of rows against one template.

    ``template_spectrum`` is the template's DFT at the rows' length,
    ``np.fft.fft(template, n)``.
    """
    spectrum = np.fft.fft(rows, axis=1)
    spectrum *= np.conj(template_spectrum)
    return np.fft.ifft(spectrum, axis=1)


def _signed_lags(index: np.ndarray, n: int) -> np.ndarray:
    """Signed lags of indices on the circular lag axis of length ``n`` (past n/2 negative)."""
    return np.where(index > n / 2, index - n, index)


def _peak_lags(rows: np.ndarray) -> np.ndarray:
    """Signed lag of each row's magnitude peak."""
    return _signed_lags(peak_indices(rows), rows.shape[1])


def _take_lags(rows: np.ndarray, lags: np.ndarray, first_lag, n: int) -> np.ndarray:
    """Per-row lags on the circular axis of length ``n``.

    Row ``r`` of ``rows`` holds lags ``first_lag[r], first_lag[r] + 1, ...``
    of that axis; whole rows are ``first_lag`` 0 and ``n`` columns.
    """
    return np.take_along_axis(rows, (lags - first_lag) % n, axis=1)


def _half_spacing(sample_rate: float, config: WaveformConfig) -> float:
    """Half the two-tone lobe spacing in samples (infinite at separation 0)."""
    separation = config.two_tone.separation
    return sample_rate / separation / 2.0 if separation > 0 else math.inf


def _lobe_window(coarse: np.ndarray, half: float) -> tuple[np.ndarray, np.ndarray]:
    """First lag ``lo`` and ``hi - lo`` of the lobe window around each coarse delay."""
    lo = np.ceil(coarse - half).astype(int)
    return lo, np.floor(coarse + half).astype(int) - lo


def _interp_span(half: float) -> float:
    """Half-span of the dense grid: ``NEIGHBORS``, within half a lobe spacing, at least 1."""
    return max(min(float(NEIGHBORS), half), 1.0)


def lobe_lags(
    coarse: np.ndarray, n: int, sample_rate: float, config: WaveformConfig
) -> tuple[np.ndarray, int] | None:
    """The ranging lags :func:`refine_window` reads, as ``(first_lag, width)``.

    Every lag read for pulse ``r`` lies in ``first_lag[r] .. first_lag[r] +
    width - 1`` of the circular lag axis of length ``n``: the lobe window
    around ``coarse[r]`` with one lag either side for the edge test, and
    the interpolator's support around any peak inside the window.
    Returns None without a lobe window (separation 0, or lobes half a row
    apart or more): the kernel then reads :func:`peak_support` around each
    row's peak.
    """
    half = _half_spacing(sample_rate, config)
    if not (math.isfinite(half) and 2.0 * half < n):
        return None
    lo, last = _lobe_window(coarse, half)
    _, first, matrix = _interp_matrix(_interp_span(half))
    below = min(first, -1)
    above = max(first + matrix.shape[0] - 1, 1)
    return lo + below, int(last.max()) + above - below + 1


def peak_support() -> tuple[int, int]:
    """The ranging lags :func:`refine_window` reads around a peak found without a lobe window.

    Returns ``(first, width)``: the lags ``peak + first .. peak + first +
    width - 1``, the interpolator's support.  Rows that hold just these
    lags, ``first_lag = peak + first``, give refinement the peak they were
    cut around, so it does not scan whole rows for it.
    """
    _, first, matrix = _interp_matrix(float(NEIGHBORS))
    return first, matrix.shape[0]


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


@lru_cache(maxsize=16)
def _spline_system_inverse(n: int) -> np.ndarray:
    """Inverse of the natural spline's tridiag(1, 4, 1) system on ``n`` uniform knots."""
    inverse = np.linalg.inv(4.0 * np.eye(n - 2) + np.eye(n - 2, k=1) + np.eye(n - 2, k=-1))
    inverse.flags.writeable = False
    return inverse


def _natural_spline_max(
    x0: np.ndarray | float, h: float, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Location and value of the maximum of natural cubic splines, one per row.

    Row ``r`` of ``y`` holds the values at uniform knots ``x0[r] + i*h``.
    The second derivatives come from the cached inverse of the constant
    tridiagonal system and the per-interval cubic extrema from the
    quadratic formula, so there is no grid quantization.  Of equal
    maxima the first in knot order wins.  Matches scipy's
    ``CubicSpline(..., bc_type='natural')`` to rounding.
    """
    rows, n = y.shape
    if n < 3:
        raise ValueError("need at least 3 points for a cubic spline")
    m = np.zeros((rows, n))
    rhs = 6.0 * (y[:, :-2] - 2.0 * y[:, 1:-1] + y[:, 2:]) / (h * h)
    m[:, 1:-1] = rhs @ _spline_system_inverse(n).T

    # per-interval coefficients: S(t) = y + b t + c t^2 + d t^3, t in [0, h]
    b = (y[:, 1:] - y[:, :-1]) / h - h * (2.0 * m[:, :-1] + m[:, 1:]) / 6.0
    c = m[:, :-1] / 2.0
    d = (m[:, 1:] - m[:, :-1]) / (6.0 * h)

    # candidates per interval, in order: both knots, then the real roots
    # of S' = b + 2c t + 3d t^2 (NaN where a root does not exist)
    t = np.empty(b.shape + (4,))
    t[..., 0] = 0.0
    t[..., 1] = h
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = 4.0 * c**2 - 12.0 * d * b
        sq = np.sqrt(disc)
        cubic = (d != 0.0) & (disc >= 0.0)
        vertex = np.where((d == 0.0) & (c != 0.0), -b / (2.0 * c), np.nan)
        t[..., 2] = np.where(cubic, (-2.0 * c + sq) / (6.0 * d), vertex)
        t[..., 3] = np.where(cubic, (-2.0 * c - sq) / (6.0 * d), np.nan)
    b, c, d, y0 = (a[..., None] for a in (b, c, d, y[:, :-1]))
    v = y0 + b * t + c * t * t + d * t**3
    v[~((t >= 0.0) & (t <= h))] = -np.inf
    best = np.argmax(v.reshape(rows, -1), axis=1)
    interval, k = np.divmod(best, 4)
    r = np.arange(rows)
    return x0 + interval * h + t[r, interval, k], v[r, interval, k]


# Relative gap below which two squared magnitudes may order two points
# otherwise than their np.hypot values do, far above the few ulps that
# either computation rounds by; and the range of squared magnitudes within
# which that bound holds (no overflow, no loss of digits to subnormals).
_TIE_GAP = 1e-13
_NORMAL_SQUARES = (1e-290, 1e300)

# Rows of squared dense magnitudes held at once: 64 rows of the widest grid
# (513 points) take 263 KB, small next to the dense grid of a 200-pulse
# window (1.6 MB), which the hypot refinement's peak memory already held.
_SQUARE_ROWS = 64


def _dense_argmax(parts: np.ndarray) -> np.ndarray:
    """Index of each row's largest ``np.hypot(re, im)``, the first of equal ones.

    ``parts`` stacks the real and imaginary parts, ``re, im = parts``.
    The squared magnitudes order the points as hypot does, except among
    points within rounding of the largest.  So the argmax of the squares
    stands unless the row's runner-up comes within ``_TIE_GAP`` of it, or
    the largest square lies outside ``_NORMAL_SQUARES``; only such rows
    take hypot over the whole row.
    """
    re, im = parts
    with np.errstate(over="ignore"):  # overflowed rows take hypot
        squares = np.einsum("kij,kij->ij", parts, parts)  # no temporaries
    rows = np.arange(len(squares))
    best = np.argmax(squares, axis=1)
    top = squares[rows, best]
    squares[rows, best] = -np.inf
    runner_up = squares.max(axis=1)
    lo, hi = _NORMAL_SQUARES
    settled = (runner_up < top * (1.0 - _TIE_GAP)) & (top >= lo) & (top <= hi)
    doubt = np.flatnonzero(~settled)
    if doubt.size:
        best[doubt] = np.argmax(np.hypot(re[doubt], im[doubt]), axis=1)
    return best


def _spline_peaks(offsets: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Offset of the spline maximum near each row's dense magnitude argmax.

    The dense magnitudes are ``np.hypot(re, im)``, ``re, im = parts``.
    Each spline is fitted to the 17 grid points around the argmax, fewer
    where the argmax lies within 8 points of either grid end; the
    analytic extremum removes the dense-grid quantization.  Magnitudes
    are computed only on those points (the argmax comes from
    :func:`_dense_argmax`).
    """
    re, im = parts
    m = np.concatenate(
        [_dense_argmax(parts[:, s : s + _SQUARE_ROWS]) for s in range(0, len(re), _SQUARE_ROWS)]
    )
    lo = np.maximum(m - 8, 0)
    width = np.minimum(m + 9, re.shape[1]) - lo
    h = float(offsets[1] - offsets[0])
    peaks = np.empty(len(re))
    for w in np.unique(width):  # one group unless a window is truncated
        rows = np.flatnonzero(width == w)
        index = (rows[:, None], lo[rows, None] + np.arange(w))
        y = np.hypot(re[index], im[index])
        peaks[rows], _ = _natural_spline_max(offsets[lo[rows]], h, y)
    return peaks


def refine_window(
    mf_ranging: np.ndarray,
    coarse: np.ndarray,
    sample_rate: float,
    config: WaveformConfig,
    *,
    first_lag: np.ndarray | int = 0,
    n: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lobe selection and peak refinement for a batch of pulses.

    Row ``r`` of ``mf_ranging`` holds the ranging matched-filter output of
    pulse ``r`` at lags ``first_lag[r], first_lag[r] + 1, ...`` of a
    circular lag axis of length ``n``; the defaults take whole rows
    (``first_lag`` 0, ``n`` the row length).  Rows may hold just the lags
    :func:`lobe_lags` names or, without a lobe window, just the
    :func:`peak_support` around each row's peak; refinement then takes the
    peak from ``first_lag``.  ``coarse[r]`` is the pulse's coarse delay in
    samples (the disambiguation peak, or a prior).  Returns per-pulse
    arrays ``(range, peak_lag, gross_error)`` with the meaning of the
    :class:`RangeEstimate` fields.

    Only the lags the estimator reads are gathered: the lobe window with
    one lag either side for the edge test, and the interpolator's support
    around each selected peak.  Dense interpolation is one matrix product
    against a view of the process's one Kaiser-sinc table.  Dense
    magnitudes are computed only where they are read: each row's argmax
    comes from the squared magnitudes, and a row where another point
    comes within rounding of its largest takes ``np.hypot`` over the row,
    so the argmax is always that of ``np.hypot`` (see
    :func:`_dense_argmax`); the spline's 17 points then take ``np.hypot``.
    """
    rows = np.asarray(mf_ranging)
    p = rows.shape[0]
    n = rows.shape[1] if n is None else n
    first_lag = np.reshape(first_lag, (-1, 1))
    fs = sample_rate
    half = _half_spacing(fs, config)

    offsets, first, matrix = _interp_matrix(_interp_span(half))
    gross = np.zeros(p, dtype=bool)
    if math.isfinite(half) and 2.0 * half < n:
        lo, last = _lobe_window(coarse, half)
        cols = np.arange(int(last.max()) + 1)
        # lags lo - 1 .. hi + 1: the window plus one lag either side
        lags = lo[:, None] + np.arange(-1, cols.size + 1)
        mag = np.abs(_take_lags(rows, lags, first_lag, n))
        inside = np.where(cols <= last[:, None], mag[:, 1:-1], -np.inf)
        k = np.argmax(inside, axis=1)
        peak = lo + k
        # The nearest credible lobe peak lies farther than half a spacing
        # away exactly when the in-window argmax sits on the window edge
        # and the magnitude keeps rising beyond it (no local maximum
        # inside the window).
        r = np.arange(p)
        gross = ((k == 0) & (mag[:, 0] > mag[:, 1])) | (
            (k == last) & (mag[r, last + 2] > mag[r, last + 1])
        )
    elif rows.shape[1] == n:
        peak = _peak_lags(rows)
    elif rows.shape[1] == matrix.shape[0]:
        peak = first_lag[:, 0] - first  # rows hold the support around their peaks
    else:
        raise ValueError(
            "without a lobe window the rows must be whole or the support around their peaks"
        )

    lags = peak[:, None] + first + np.arange(matrix.shape[0])
    segment = _take_lags(rows, lags, first_lag, n)
    dense = np.concatenate([segment.real, segment.imag]) @ matrix
    lag_s = (peak + _spline_peaks(offsets, dense.reshape(2, p, -1))) / fs
    return np.maximum(0.0, SPEED_OF_LIGHT * lag_s / 2.0), lag_s, gross


def disambiguate_and_refine(
    mf_ranging: ComplexBasebandSignal,
    mf_disamb: ComplexBasebandSignal | None,
    config: WaveformConfig,
    *,
    expected_lag_s: float | None = None,
) -> RangeEstimate:
    """Select the correct two-tone lobe and refine its peak to a range.

    ``mf_ranging`` and ``mf_disamb`` are matched-filter outputs on a
    common lag axis (both from :func:`matched_filter` over equal-length
    windows).  If ``mf_disamb`` is None the coarse delay must be supplied
    as ``expected_lag_s`` instead, which models running without a
    disambiguation pulse against a prior delay.

    This is :func:`refine_window` on a batch of one pulse.
    """
    fs = mf_ranging.sample_rate
    if mf_disamb is not None:
        coarse = _peak_lags(mf_disamb.samples[None, :])
    elif expected_lag_s is not None:
        coarse = np.array([expected_lag_s * fs])
    else:
        raise ValueError("need either a disambiguation output or expected_lag_s")
    (range_m,), (lag_s,), (gross,) = refine_window(mf_ranging.samples[None, :], coarse, fs, config)
    return RangeEstimate(range=float(range_m), peak_lag=float(lag_s), gross_error=bool(gross))


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
    if window % group_size != 0 or group_size < 1:
        raise ValueError("window must be a positive multiple of group_size")
    if window // group_size < 2:
        raise ValueError("need at least two groups for a standard deviation")
    group_means = est.reshape(-1, group_size).mean(axis=1)
    return RangeWindowStats(
        estimates=est,
        group_means=group_means,
        sigma_d=float(group_means.std(ddof=1)),
        mean_range=float(est.mean()),
    )
