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
on that dense grid.  Measured noise-free bias of the default settings
is below 0.1 mm at 25 Msps with a 7.5 MHz tone separation.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .waveform import SPEED_OF_LIGHT, ComplexBasebandSignal, WaveformConfig


@dataclass(frozen=True)
class RangeEstimate:
    """One refined range measurement.

    ``ambiguity_index`` is the lobe offset between the selected peak and
    the coarse reference (disambiguation peak, or supplied prior); 0
    means the chain used exactly the lobe the coarse stage pointed at.
    ``gross_error`` marks a disambiguation failure: the coarse delay did
    not land inside any credible two-tone lobe.
    """

    range: float
    peak_lag: float
    ambiguity_index: int
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
    out = _circular_correlation(received.samples[None, :], template.samples)[0]
    return ComplexBasebandSignal(out, received.sample_rate)


def _circular_correlation(rows: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Batched circular cross-correlation (rows against one template)."""
    n = rows.shape[1]
    t_spec = np.conj(np.fft.fft(template, n))
    return np.fft.ifft(np.fft.fft(rows, axis=1) * t_spec, axis=1)


def _interp_kernel(positions: np.ndarray, taps: int, beta: float):
    """Kaiser-windowed-sinc weights for fractional positions.

    Returns integer gather offsets (m, 2*taps) relative to each position
    and the matching weight matrix.
    """
    base = np.floor(positions).astype(int)
    frac = positions - base
    j = np.arange(-taps + 1, taps + 1)
    u = frac[:, None] - j[None, :]
    x = u / taps
    window = np.where(
        np.abs(x) <= 1.0,
        np.i0(beta * np.sqrt(np.clip(1.0 - x**2, 0.0, None))) / np.i0(beta),
        0.0,
    )
    return base[:, None] + j[None, :], np.sinc(u) * window


@lru_cache(maxsize=32)
def _dense_grid_kernel(span: float, n_dense: int, taps: int, beta: float):
    """Cached kernel for the symmetric dense refinement grid.

    The grid offsets are position-fractional only, so the same kernel
    serves every pulse; caching removes the Bessel-function cost from
    the per-pulse path.
    """
    offsets = np.linspace(-span, span, n_dense)
    gather, weights = _interp_kernel(offsets, taps, beta)
    return offsets, gather, weights


def _natural_spline_max(x0: float, h: float, y: np.ndarray) -> tuple[float, float]:
    """Location and value of the maximum of a natural cubic spline.

    Uniform knots ``x0 + i*h``; the tridiagonal system for the second
    derivatives is solved directly and the per-interval cubic extrema
    come from the quadratic formula, so there is no grid quantization.
    Matches scipy's ``CubicSpline(..., bc_type='natural')`` to rounding.
    """
    n = y.size
    if n < 3:
        raise ValueError("need at least 3 points for a cubic spline")
    # Thomas solve of M[i-1] + 4 M[i] + M[i+1] = rhs[i], natural ends M=0
    rhs = 6.0 * (y[:-2] - 2.0 * y[1:-1] + y[2:]) / (h * h)
    m_inner = np.zeros(n - 2)
    cp = np.zeros(n - 2)
    dp = np.zeros(n - 2)
    cp[0] = 1.0 / 4.0
    dp[0] = rhs[0] / 4.0
    for i in range(1, n - 2):
        denom = 4.0 - cp[i - 1]
        cp[i] = 1.0 / denom
        dp[i] = (rhs[i] - dp[i - 1]) / denom
    m_inner[-1] = dp[-1]
    for i in range(n - 4, -1, -1):
        m_inner[i] = dp[i] - cp[i] * m_inner[i + 1]
    m = np.concatenate([[0.0], m_inner, [0.0]])

    # per-interval coefficients: S(t) = y + b t + c t^2 + d t^3, t in [0, h]
    b = (y[1:] - y[:-1]) / h - h * (2.0 * m[:-1] + m[1:]) / 6.0
    c = m[:-1] / 2.0
    d = (m[1:] - m[:-1]) / (6.0 * h)

    def s_eval(i, t):
        return y[:-1][i] + b[i] * t + c[i] * t * t + d[i] * t**3

    # candidates: knots plus real roots of S' = b + 2c t + 3d t^2
    best_x, best_v = x0, y[0]
    for i in range(n - 1):
        cands = [0.0, h]
        disc = 4.0 * c[i] ** 2 - 12.0 * d[i] * b[i]
        if d[i] != 0.0 and disc >= 0.0:
            sq = math.sqrt(disc)
            cands += [(-2.0 * c[i] + sq) / (6.0 * d[i]), (-2.0 * c[i] - sq) / (6.0 * d[i])]
        elif d[i] == 0.0 and c[i] != 0.0:
            cands.append(-b[i] / (2.0 * c[i]))
        for t in cands:
            if 0.0 <= t <= h:
                v = s_eval(i, t)
                if v > best_v:
                    best_x, best_v = x0 + i * h + t, v
    return best_x, best_v


def _spline_peak(offsets: np.ndarray, values: np.ndarray) -> float:
    """Offset of the spline maximum near the dense argmax.

    The spline is fitted to a short window around the dense argmax; the
    analytic extremum removes the dense-grid quantization.
    """
    m = int(np.argmax(values))
    lo, hi = max(m - 8, 0), min(m + 9, values.size)
    h = float(offsets[1] - offsets[0])
    peak_x, _ = _natural_spline_max(float(offsets[lo]), h, values[lo:hi])
    return peak_x


def _signed_lag(index: float, n: int) -> float:
    """Map a circular-axis index to a signed lag centred on zero."""
    return index - n if index > n / 2 else index


def disambiguate_and_refine(
    mf_ranging: ComplexBasebandSignal,
    mf_disamb: ComplexBasebandSignal | None,
    config: WaveformConfig,
    *,
    expected_lag_s: float | None = None,
    neighbors: int = 4,
    oversample: int = 64,
    interp_taps: int = 32,
    interp_beta: float = 14.0,
) -> RangeEstimate:
    """Select the correct two-tone lobe and refine its peak to a range.

    ``mf_ranging`` and ``mf_disamb`` are matched-filter outputs on a
    common lag axis (both from :func:`matched_filter` over equal-length
    windows).  If ``mf_disamb`` is None the coarse delay must be supplied
    as ``expected_lag_s`` instead, which models running without a
    disambiguation pulse against a prior delay.

    ``neighbors`` bounds the refinement span in samples (clipped to half
    a lobe spacing so the fit never strays into the adjacent lobe) and
    ``oversample`` sets the dense evaluation factor for the spline fit.
    """
    mag = np.abs(mf_ranging.samples)
    n = mag.size
    fs = mf_ranging.sample_rate

    if mf_disamb is not None:
        coarse = _signed_lag(int(np.argmax(np.abs(mf_disamb.samples))), n)
    elif expected_lag_s is not None:
        coarse = expected_lag_s * fs
    else:
        raise ValueError("need either a disambiguation output or expected_lag_s")

    separation = config.two_tone.separation
    spacing = fs / separation if separation > 0 else math.inf
    half = spacing / 2.0

    gross = False
    if math.isfinite(half) and 2.0 * half < n:
        lo = int(np.ceil(coarse - half))
        hi = int(np.floor(coarse + half))
        window = np.arange(lo, hi + 1)
        peak = int(window[np.argmax(mag[window % n])])
        # The nearest credible lobe peak lies farther than half a spacing
        # away exactly when the in-window argmax sits on the window edge
        # and the magnitude keeps rising beyond it (no local maximum
        # inside the window).
        if peak == lo and mag[(lo - 1) % n] > mag[lo % n]:
            gross = True
        elif peak == hi and mag[(hi + 1) % n] > mag[hi % n]:
            gross = True
    else:
        peak = int(_signed_lag(int(np.argmax(mag)), n))

    span = float(neighbors)
    if math.isfinite(half):
        span = min(span, half)
    span = max(span, 1.0)
    n_dense = max(int(round(2 * span * oversample)), 8) + 1
    offsets, gather, weights = _dense_grid_kernel(span, n_dense, interp_taps, interp_beta)
    dense = np.abs((mf_ranging.samples[(peak + gather) % n] * weights).sum(axis=1))
    refined = peak + _spline_peak(offsets, dense)

    lag_s = refined / fs
    if math.isfinite(spacing):
        ambiguity_index = int(round((peak - coarse) / spacing))
    else:
        ambiguity_index = 0

    return RangeEstimate(
        range=max(0.0, SPEED_OF_LIGHT * lag_s / 2.0),
        peak_lag=lag_s,
        ambiguity_index=ambiguity_index,
        gross_error=gross,
    )


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
