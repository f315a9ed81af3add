"""Reference implementations for the window simulation and range refinement.

``matched_filter_rows`` is the window's matched filtering done the long
way: white noise drawn on every sample of every frame (``noisy_rows``),
then a forward and an inverse FFT per frame.  The tests compare the
statistics of the direct noise draws in ``cohsync.scenario`` against it.

``whole_array_window`` is ``cohsync.scenario.simulate_window`` with the
window's whole-row draws held as one ``(P, n)`` array each, built serially
from the per-chunk streams the window draws its chunks from: the tests
require the same bytes.

``round_trip`` sends one frame through the channel, ``correlate``
matched-filters one received frame and ``peak_lags`` finds
each row's magnitude peak a row at a time: a pulse is a batch of one, so
the tests feed such rows to ``select_and_refine`` with ``P = 1``.

``refine_pulse`` is the estimator as it ran one pulse at a time: a
gather-and-sum Kaiser-sinc interpolation onto the dense grid (the
1/``OVERSAMPLE``-sample lattice points within the span) and a Thomas
solve for the natural spline.  ``all_interval_spline_max`` is the
batched spline maximum without the interval certificate: every interval
of every row evaluated.  The tests feed it and
``select_and_refine`` (whole rows cut to the lags each pulse's readout
names, then ``cohsync.ranging.select_lobes`` and ``refine_window``) the
same matched-filter rows and compare the results.
"""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from cohsync import scenario
from cohsync.channel import (
    ChannelState,
    apply_round_trip_response,
    delay_ramp,
    lag_block_factor,
    matched_noise_block,
    matched_noise_peaks,
    matched_noise_rows,
    noise_power_for,
    scaled_noise_power,
)
from cohsync.ranging import (
    INTERP_BETA,
    INTERP_TAPS,
    NEIGHBORS,
    OVERSAMPLE,
    _circular_correlation,
    _signed_lags,
    _spline_system_inverse,
    effective_window_length,
    readout,
    refine_window,
    select_lobes,
)
from cohsync.waveform import (
    SPEED_OF_LIGHT,
    WaveformConfig,
    generate_disambiguation,
    generate_two_tone,
)


def noisy_rows(
    clean: np.ndarray, noise_power: float, n_rows: int, rng: np.random.Generator
) -> np.ndarray:
    """``n_rows`` copies of ``clean``, each with independent calibrated noise.

    Noise is circularly symmetric white Gaussian with per-sample variance
    ``noise_power``: one ``(n_rows, 2 n)`` standard-normal draw read as
    interleaved real and imaginary parts, scaled and offset in place.
    Draws nothing when ``noise_power`` is 0, and then returns a read-only
    view of ``clean``.
    """
    if noise_power < 0:
        raise ValueError("noise_power must be >= 0")
    if noise_power == 0.0:
        return np.broadcast_to(clean, (n_rows, clean.size))
    rows = rng.standard_normal((n_rows, 2 * clean.size)).view(np.complex128)
    rows *= math.sqrt(noise_power / 2.0)
    rows += clean
    return rows


def matched_filter_rows(
    waveform: WaveformConfig, channel_state: ChannelState, n_pulses: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Whole ``(P, n)`` ranging and disambiguation matched-filter rows of one window.

    Each cycle propagates one ranging frame and one disambiguation frame
    (padded to a common window length) through the channel with
    independent time-domain noise; the ranging frames draw their noise
    first.
    """
    fs = waveform.sample_rate
    pulse_r = generate_two_tone(waveform.two_tone, waveform.ranging_pulse_width, fs)
    pulse_d = generate_disambiguation(waveform.f_d, fs)
    n_win = effective_window_length(waveform, channel_state)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def matched_rows(pulse: np.ndarray) -> np.ndarray:
        frame = np.concatenate([pulse, np.zeros(n_win - pulse.size)])
        clean = round_trip(frame, channel_state, fs)
        sigma2 = scaled_noise_power(noise_power_for(clean), channel_state.snr_db)
        rows = noisy_rows(clean, sigma2, n_pulses, rng)
        return _circular_correlation(rows, np.fft.fft(pulse, n_win))

    return matched_rows(pulse_r), matched_rows(pulse_d)


def round_trip(frame: np.ndarray, state: ChannelState, fs: float) -> np.ndarray:
    """The noise-free received ``frame``: the round trip of its DFT over its own length."""
    ramp = delay_ramp(frame.size, fs, state.true_range)
    return apply_round_trip_response(np.fft.fft(frame), ramp, state, fs)


def correlate(received: np.ndarray, template: np.ndarray) -> np.ndarray:
    """The matched-filter row of one received frame: the window's correlation on a batch of one."""
    spectrum = np.fft.fft(template, received.size)
    return _circular_correlation(received[None, :], spectrum)[0]


def peak_lags(rows: np.ndarray) -> np.ndarray:
    """Signed lag of each row's magnitude peak, one row's magnitudes held at a time."""
    return _signed_lags(np.array([np.argmax(np.abs(row)) for row in rows]), rows.shape[1])


def whole_rows(spectrum, clean_row, noise_power, n_pulses, seed_seq) -> np.ndarray:
    """One ``(P, n)`` array of ``clean_row`` plus matched-filter noise, 16 rows a stream.

    Rows ``16 j .. 16 j + 15`` take their noise from the ``j``-th child
    that ``seed_seq`` spawns, as the window's chunk ``j`` does.
    """
    sizes = [min(16, n_pulses - start) for start in range(0, n_pulses, 16)]
    streams = map(np.random.default_rng, seed_seq.spawn(len(sizes)))
    noise = [
        matched_noise_rows(spectrum, noise_power, size, rng) for size, rng in zip(sizes, streams)
    ]
    return np.concatenate(noise) + clean_row


def whole_array_window(
    waveform: WaveformConfig, channel_state: ChannelState, n_pulses: int, seed
) -> tuple[np.ndarray, int]:
    """``simulate_window`` with every whole-row draw one ``(P, n)`` array.

    A template whose near samples cover the window gets all its
    disambiguation rows as one array, scanned by one argmax.  The ranging
    lags are one ``matched_noise_block`` draw, as the window's.  Without
    noise every pulse takes the clean disambiguation peak and the clean
    ranging lags.  Every other step is the window's.
    """
    fs = waveform.sample_rate
    n = effective_window_length(waveform, channel_state)
    seed_r, seed_d = np.random.SeedSequence(seed).spawn(2)
    geometry = replace(channel_state, snr_db=0.0)
    search, power_d = scenario._disambiguation_frame(waveform.f_d, fs, n, geometry)
    sigma2_d = scaled_noise_power(power_d, channel_state.snr_db)
    if sigma2_d == 0.0:
        index = np.full(n_pulses, search.peak)
    elif search.toeplitz is None:
        rows = whole_rows(search.spectrum, search.clean_row, sigma2_d, n_pulses, seed_d)
        index = np.argmax(np.abs(rows), axis=1)
    else:
        index, _ = matched_noise_peaks(search, sigma2_d, n_pulses, np.random.default_rng(seed_d))
    spectrum, clean_row, power_r = scenario._ranging_frame(
        waveform.two_tone, waveform.ranging_pulse_width, fs, n, geometry
    )
    sigma2_r = scaled_noise_power(power_r, channel_state.snr_db)
    coarse = _signed_lags(index, n)
    reads = readout(n, fs, waveform.two_tone.separation)
    rows = clean_row[(coarse[:, None] + reads.offset + np.arange(reads.width)) % n]
    if sigma2_r > 0.0:
        root = lag_block_factor(spectrum, sigma2_r, reads.width)
        rows = rows + matched_noise_block(root, n_pulses, np.random.default_rng(seed_r))
    support, peak, gross = select_lobes(rows, coarse, reads)
    return refine_window(support, peak, reads)[0], int(gross.sum())


def select_and_refine(rows: np.ndarray, coarse: np.ndarray, waveform: WaveformConfig):
    """``(range, peak_lag, gross_error)`` arrays of whole matched-filter rows.

    Row ``r`` is cut to the lags ``coarse[r] + reads.offset ..`` that its
    readout names, on the circular lag axis of the rows' length.
    """
    n = rows.shape[1]
    reads = readout(n, waveform.sample_rate, waveform.two_tone.separation)
    columns = (coarse[:, None] + reads.offset + np.arange(reads.width)) % n
    support, peak, gross = select_lobes(np.take_along_axis(rows, columns, axis=1), coarse, reads)
    return (*refine_window(support, peak, reads), gross)


def interp_kernel(positions: np.ndarray, taps: int, beta: float):
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
def dense_grid_kernel(half_points: int, oversample: int, taps: int, beta: float):
    """Grid offsets ``m / oversample`` (``|m| <= half_points``), gather offsets and weights."""
    offsets = np.arange(-half_points, half_points + 1) / oversample
    gather, weights = interp_kernel(offsets, taps, beta)
    return offsets, gather, weights


def natural_spline_max(x0: float, h: float, y: np.ndarray) -> tuple[float, float]:
    """Location and value of the maximum of a natural cubic spline (Thomas solve)."""
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


def all_interval_spline_max(x0, h: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cohsync.ranging._natural_spline_max`` evaluated on every interval of every row.

    The same batched solve and per-interval candidates, but no interval
    is skipped: the first largest of all ``4 * (knots - 1)`` candidates
    of a row is its maximum.
    """
    rows, n = y.shape
    m = np.zeros((rows, n))
    m[:, 1:-1] = (y[:, :-2] - 2.0 * y[:, 1:-1] + y[:, 2:]) @ _spline_system_inverse(n, h)
    b = (y[:, 1:] - y[:, :-1]) / h - h * (2.0 * m[:, :-1] + m[:, 1:]) / 6.0
    c = m[:, :-1] / 2.0
    d = (m[:, 1:] - m[:, :-1]) / (6.0 * h)
    t = np.empty(b.shape + (4,))
    t[..., :2] = 0.0, h
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(4.0 * c**2 - 12.0 * d * b)
        t[..., 2] = (-2.0 * c + sq) / (6.0 * d)
        t[..., 3] = (-2.0 * c - sq) / (6.0 * d)
        flat = d == 0.0
        t[flat, 2] = -b[flat] / (2.0 * c[flat])
        b, c, d, y0 = (a[..., None] for a in (b, c, d, y[:, :-1]))
        v = y0 + t * (b + t * (c + t * d))
    v[~((t >= 0.0) & (t <= h))] = -np.inf
    interval, k = np.divmod(np.argmax(v.reshape(rows, -1), axis=1), 4)
    r = np.arange(rows)
    return x0 + interval * h + t[r, interval, k], v[r, interval, k]


def spline_peak(offsets: np.ndarray, values: np.ndarray) -> float:
    """Offset of the spline maximum on the 17 points around the dense argmax."""
    m = int(np.argmax(values))
    lo, hi = max(m - 8, 0), min(m + 9, values.size)
    h = float(offsets[1] - offsets[0])
    peak_x, _ = natural_spline_max(float(offsets[lo]), h, values[lo:hi])
    return peak_x


def _signed_lag(index: float, n: int) -> float:
    return index - n if index > n / 2 else index


def refine_pulse(
    mf_ranging: np.ndarray,
    mf_disamb: np.ndarray | None,
    sample_rate: float,
    config: WaveformConfig,
    *,
    expected_lag_s: float | None = None,
) -> tuple[float, float, bool]:
    """One pulse through lobe selection and refinement.

    Returns (range, peak lag in seconds, gross-error flag).
    """
    mag = np.abs(mf_ranging)
    n = mag.size
    fs = sample_rate

    if mf_disamb is not None:
        coarse = _signed_lag(int(np.argmax(np.abs(mf_disamb))), n)
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
        if peak == lo and mag[(lo - 1) % n] > mag[lo % n]:
            gross = True
        elif peak == hi and mag[(hi + 1) % n] > mag[hi % n]:
            gross = True
    else:
        peak = int(_signed_lag(int(np.argmax(mag)), n))

    span = float(NEIGHBORS)
    if math.isfinite(half):
        span = min(span, half)
    span = max(span, 1.0)
    half_points = math.floor(span * OVERSAMPLE)
    offsets, gather, weights = dense_grid_kernel(half_points, OVERSAMPLE, INTERP_TAPS, INTERP_BETA)
    dense = np.abs((mf_ranging[(peak + gather) % n] * weights).sum(axis=1))
    refined = peak + spline_peak(offsets, dense)

    lag_s = refined / fs
    return max(0.0, SPEED_OF_LIGHT * lag_s / 2.0), lag_s, gross
