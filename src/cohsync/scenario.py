"""Closed-loop scenario runs: pulse trains, environment traces, logging.

A *processing interval* is one full loop iteration: a window of ranging
cycles simulated at the trace's SNR, a grouped standard deviation, and
(in adaptive runs) one controller action that sets the next tone
separation.  With the defaults (200 pulses, one every 105 ms) an
interval spans 21 s of simulated time; simulated time is bookkeeping
only and runs as fast as the math allows.

Reproducibility: every run is a pure function of (config, trace, master
seed).  Per-interval noise streams are derived as
``SeedSequence((master_seed, stream, interval_index))`` so runs are
bit-identical across processes.

Noise: a window draws its noise already matched-filtered, on the lags
the estimator reads (:func:`_matched_filter_rows`).  The noise-free
disambiguation frame (its pulse, clean output, noise power at 0 dB, the
certificate's rotated row, template DFT, ``||p||_1`` and far maximum,
and the delay ramp) does not change within a run, so a run builds it
once and its windows share it (the ``memo`` of :func:`simulate_window`).
What a window still repeats is the ranging frame, whose tones the loop
retunes every interval: its pulse, one template DFT that serves the
channel, the correlation and the noise draw, the round trip's inverse
transform, the correlation's forward and inverse transforms, and the
inverse transform of the lag block's autocorrelation.

Each pulse's disambiguation peak is drawn by the certificate of
:mod:`cohsync.channel`: the input noise on the few dozen samples around
the clean peak and the largest modulus of the rest settle it (at the
reference waveform every pulse from -10 dB up, none at -20 dB), and rows
they do not settle are completed and scanned whole.  Once the peak
places the lobe window, a correlated block of just the ranging lags
that refinement reads is drawn.  Lobe windows too wide for a block, and
windows without one, draw whole ranging rows 16 at a time and keep only
what refinement reads of them: the lobe window, or the interpolator's
support around each row's peak, found as its chunk is drawn.  No window
holds a pulses x window-length array.  Each chunk draws from its own
stream and the chunks run on a thread per core
(:func:`cohsync.channel.map_row_chunks`), with the same bytes at any
thread count; windows with a lag block start no thread.  The ranging
noise is stationary, independent of the disambiguation noise and drawn
from its own stream, so the placement leaves its distribution exact,
and both draws match filtering white noise on every sample in
distribution.
Draws are not the same floats as filtering sampled noise, so seeds give
other realisations than such a simulation would.

Environment traces are sequences of 1-minute-cadence records.  A trace
file's weather columns are checked and dropped: the weather reaches the
loop through the SNR column.
"""

import csv
import logging
import math
from bisect import bisect_right
from dataclasses import astuple, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .channel import (
    ChannelState,
    PeakSearch,
    apply_round_trip_response,
    delay_ramp,
    map_noisy_rows,
    matched_noise_block,
    matched_noise_peaks,
    noise_power_for,
    peak_search,
    scaled_noise_power,
)
from .config import RunConfig
from .control import ERROR_SCALE, OUTPUT_SCALE, pi_step
from .ranging import (
    _circular_correlation,
    _peak_lags,
    _signed_lags,
    effective_window_length,
    lobe_lags,
    peak_support,
    refine_window,
    window_stats,
)
from .ranging import disambiguate_and_refine  # noqa: F401  (traced benchmark runs patch this name)
from .waveform import (
    ComplexBasebandSignal,
    TwoToneSpec,
    WaveformConfig,
    generate_disambiguation,
    generate_two_tone,
)

logger = logging.getLogger(__name__)

# Widest ranging block, in lags, that _matched_filter_rows draws as one
# correlated block; wider lobe windows (tone separations under about 1 MHz
# at 25 Msps, and separation 0) draw whole rows.  A block costs an
# eigendecomposition (width**3) and a (P, width) x (width, width) product,
# whole rows cost normals and an inverse FFT of length n: at P = 200 and
# n = 3750 a block takes 3 ms at 80 lags, 4.5 ms at 96 and 17 ms at 200,
# and streamed whole rows 43 ms on one thread, 28 ms of it the normals, and
# about 28 ms on two (2-core x86-64, numpy 2.4 with OpenBLAS).  The limit is
# set by determinism, not cost: from 97 lags OpenBLAS threads the
# eigendecomposition, whose last digits then depend on the BLAS thread
# count, and artifacts would no longer be byte-identical across machines.
# Whole rows give the same bytes at any thread count.
_MAX_BLOCK_LAGS = 96


@dataclass(frozen=True)
class EnvironmentRecord:
    """One environment sample: the SNR in force from ``timestamp_s`` on."""

    timestamp_s: float
    snr_db: float


@dataclass(frozen=True)
class ProcessingIntervalLog:
    """Per-interval run record; ``f2_hz`` is the tone in force that interval."""

    interval_index: int
    f2_hz: float
    sigma_d_m: float
    mean_range_m: float
    snr_db: float
    controller_error_m: float
    timestamp_s: float


_TRACE_FIELDS = ("timestamp_s", "snr_db", "wind_mps", "humidity_pct", "rain_mmhr", "temp_c")
_LOG_FIELDS = ("interval", "f2_hz", "sigma_d_m", "mean_range_m", "snr_db", "error_m", "timestamp_s")


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(value))


def read_trace_csv(path) -> list[EnvironmentRecord]:
    """Parse a trace CSV; only timestamp_s and snr_db columns are required.

    The optional weather columns must hold numbers or nothing, and are
    not kept.  A column named twice, or a row with more cells than the
    header, is rejected.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty trace file")
        for i, name in enumerate(reader.fieldnames):
            if name in reader.fieldnames[:i]:
                raise ValueError(f"{path}: column '{name}' appears twice in the header")
        for required in ("timestamp_s", "snr_db"):
            if required not in reader.fieldnames:
                raise ValueError(f"{path}: missing required column '{required}'")
        unknown = set(reader.fieldnames) - set(_TRACE_FIELDS)
        if unknown:
            raise ValueError(f"{path}: unknown trace columns {sorted(unknown)}")
        records = []
        for row in reader:
            if None in row:  # DictReader's key for the cells past the header
                columns = len(reader.fieldnames)
                raise ValueError(
                    f"{path}: line {reader.line_num}: {columns + len(row[None])} cells, "
                    f"but the header names {columns} columns"
                )
            values = {}
            for name in reader.fieldnames:
                raw = row[name]
                try:
                    values[name] = math.nan if raw in (None, "") else float(raw)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {reader.line_num}, column '{name}': "
                        f"{raw!r} is not a number"
                    ) from None
            for name in ("timestamp_s", "snr_db"):
                if not math.isfinite(values[name]):
                    raise ValueError(
                        f"{path}: line {reader.line_num}: {name} must be a finite number"
                    )
            records.append(EnvironmentRecord(values["timestamp_s"], values["snr_db"]))
    if not records:
        raise ValueError(f"{path}: trace has no records")
    times = [r.timestamp_s for r in records]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"{path}: timestamps must be strictly increasing")
    return records


def write_run_log_csv(path, logs: Sequence[ProcessingIntervalLog]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_LOG_FIELDS)
        for entry in logs:
            index, *values = astuple(entry)
            writer.writerow([index, *map(_fmt, values)])


def read_run_log_csv(path) -> list[ProcessingIntervalLog]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != list(_LOG_FIELDS):
            raise ValueError(f"{path}: not a run log (unexpected header)")
        # columns follow the field order of ProcessingIntervalLog
        return [
            ProcessingIntervalLog(int(index), *map(float, values))
            for index, *values in filter(None, rows)
        ]


@dataclass(frozen=True, eq=False)
class _DisambiguationFrame:
    """The noise-free disambiguation work of a window, the same in every window of a run."""

    search: PeakSearch
    power_0db: float  # its noise power at 0 dB SNR
    ramp: np.ndarray  # the receive window's delay ramp, which the ranging frame shares


def _clean_output(
    pulse: ComplexBasebandSignal, n: int, channel_state: ChannelState, ramp: np.ndarray
) -> tuple[np.ndarray, ComplexBasebandSignal, np.ndarray]:
    """Template spectrum, noise-free received frame and output row of one frame.

    The frame is ``pulse`` padded to the ``n``-sample receive window; its
    DFT is the template's, so one FFT serves the channel and the filter.
    """
    spectrum = np.fft.fft(pulse.samples, n)
    frame = np.concatenate([pulse.samples, np.zeros(n - pulse.n_samples)])
    clean = apply_round_trip_response(
        ComplexBasebandSignal(frame, pulse.sample_rate), channel_state, spectrum=spectrum, ramp=ramp
    )
    row = _circular_correlation(clean.samples[None, :], spectrum)[0]
    return spectrum, clean, row


def _disambiguation_frame(
    f_d: float, fs: float, n: int, channel_state: ChannelState
) -> _DisambiguationFrame:
    ramp = delay_ramp(n, fs, channel_state.true_range)
    pulse = generate_disambiguation(f_d, fs)
    _, clean, row = _clean_output(pulse, n, channel_state, ramp)
    return _DisambiguationFrame(peak_search(row, pulse.samples), noise_power_for(clean, 0.0), ramp)


def _matched_filter_rows(
    waveform: WaveformConfig,
    channel_state: ChannelState,
    n_pulses: int,
    seed,
    memo: dict | None = None,
) -> tuple[np.ndarray, np.ndarray | int, int, np.ndarray]:
    """Matched-filter outputs of one window, on the lags the estimator reads.

    Returns ``(rows, first_lag, n, coarse)``: row ``r`` holds pulse ``r``'s
    ranging output at lags ``first_lag[r], first_lag[r] + 1, ...`` of the
    circular lag axis of length ``n`` (the receive window), and
    ``coarse[r]`` is the lag of its disambiguation peak.  The lags are
    those :func:`lobe_lags` names or, without a lobe window, the
    :func:`peak_support` around the row's peak.

    Each cycle sends one ranging and one disambiguation frame, padded to a
    common window length (hence equal post-processing ``2E/N0``), through
    the channel with independent noise, drawn as the module docstring
    says.  Lobe windows wider than ``_MAX_BLOCK_LAGS``, and windows
    without one, draw whole ranging rows 16 at a time, each chunk on its
    own stream and possibly its own thread (:func:`map_noisy_rows`), and
    keep those lags of each chunk in its rows of the result.  The
    noise-free disambiguation frame is taken from ``memo``
    (see :func:`simulate_window`) when it holds one for this geometry, and
    stored there otherwise.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    fs = waveform.sample_rate
    n = effective_window_length(waveform, channel_state)
    # one stream per frame, in the order a cycle sends them, so the ranging
    # noise does not depend on how many numbers the disambiguation draw took
    rng_r, rng_d = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))

    # every input of the disambiguation frame but the SNR
    key = (waveform.f_d, fs, n, channel_state.true_range, channel_state.carrier)
    memo = {} if memo is None else memo
    if key not in memo:
        memo[key] = _disambiguation_frame(waveform.f_d, fs, n, channel_state)
    frame_d = memo[key]
    sigma2_d = scaled_noise_power(frame_d.power_0db, channel_state.snr_db)
    index, _ = matched_noise_peaks(frame_d.search, sigma2_d, n_pulses, rng_d)
    coarse = _signed_lags(index, n)

    pulse_r = generate_two_tone(waveform.two_tone, waveform.ranging_pulse_width, fs)
    spectrum_r, clean, clean_r = _clean_output(pulse_r, n, channel_state, frame_d.ramp)
    sigma2_r = noise_power_for(clean, channel_state.snr_db)
    reads = lobe_lags(coarse, n, fs, waveform)
    if reads is not None and reads[1] <= _MAX_BLOCK_LAGS:
        first_lag, width = reads
        rows = matched_noise_block(spectrum_r, sigma2_r, n_pulses, width, rng_r)
        rows += clean_r[(first_lag[:, None] + np.arange(width)) % n]
        return rows, first_lag, n, coarse
    if reads is None:  # cut each row around its peak, found as the chunk is drawn
        first, width = peak_support()
        first_lag = np.empty(n_pulses, dtype=np.intp)
    else:
        first_lag, width = reads
    rows = np.empty((n_pulses, width), dtype=np.complex128)

    def keep_read_lags(chunk: slice, noisy: np.ndarray) -> None:
        if reads is None:
            first_lag[chunk] = _peak_lags(noisy) + first
        lags = (first_lag[chunk, None] + np.arange(width)) % n
        rows[chunk] = np.take_along_axis(noisy, lags, axis=1)

    map_noisy_rows(spectrum_r, clean_r, sigma2_r, n_pulses, rng_r, keep_read_lags)
    return rows, first_lag, n, coarse


def simulate_window(
    waveform: WaveformConfig,
    channel_state: ChannelState,
    n_pulses: int,
    seed=0,
    memo: dict | None = None,
) -> tuple[np.ndarray, int]:
    """Simulate ``n_pulses`` ranging cycles; returns (ranges, gross count).

    Each cycle's matched-filter outputs (see :func:`_matched_filter_rows`)
    go through lobe selection and refinement as one batch.
    Deterministic for a fixed ``seed``.  ``memo`` is a dict that the
    windows of one run share: it keeps their noise-free disambiguation
    frame, keyed on every input it depends on, so that only the first
    window builds it.  Windows get the same bytes with it or without.
    """
    rows, first_lag, n, coarse = _matched_filter_rows(
        waveform, channel_state, n_pulses, seed, memo
    )
    ranges, _, gross = refine_window(
        rows, coarse, waveform.sample_rate, waveform, first_lag=first_lag, n=n
    )
    return ranges, int(gross.sum())


def _lookup(
    trace: Sequence[EnvironmentRecord], t: float, times, cadence: float, warned: set
) -> EnvironmentRecord:
    """Most recent record at or before t, warning once per hold-over gap.

    A gap is a hold-over longer than two ``cadence`` (the trace's median
    record spacing; infinite for a one-record trace, which never warns).
    """
    idx = bisect_right(times, t) - 1
    if idx < 0:
        raise ValueError(f"trace does not cover t={t} (starts at {times[0]})")
    if t - times[idx] > 2.0 * cadence and idx not in warned:
        warned.add(idx)
        logger.warning(
            "trace gap: holding record at t=%.1f s for query t=%.1f s",
            times[idx],
            t,
        )
    return trace[idx]


def _closed_loop(
    config: RunConfig,
    trace: Sequence[EnvironmentRecord],
    n_intervals: int,
    law: Callable[[float, int], float],
    seed,
    stream: int,
) -> list[ProcessingIntervalLog]:
    """The interval loop shared by every closed-loop run.

    Interval ``i`` simulates one window at the trace's SNR with the tone
    separation in force, on noise stream ``(seed, stream, i)``, and logs
    it; ``law(error, i)`` then returns the next separation in Hz.
    """
    loop = config.loop
    dt = loop.interval_duration_s
    times = [r.timestamp_s for r in trace]
    cadence = float(np.median(np.diff(times))) if len(times) > 1 else math.inf
    warned: set = set()
    memo: dict = {}  # the run's noise-free disambiguation frame (simulate_window)

    f1 = config.waveform.two_tone.f1
    x = config.controller.x_prev  # tone separation in force, Hz
    logs: list[ProcessingIntervalLog] = []
    for i in range(n_intervals):
        t = times[0] + i * dt
        snr = _lookup(trace, t, times, cadence, warned).snr_db
        f2 = f1 + x
        wf = replace(config.waveform, two_tone=TwoToneSpec(f1=f1, f2=f2))
        state = replace(config.channel, snr_db=snr)
        ranges, _ = simulate_window(
            wf, state, loop.pulses_per_interval, seed=(seed, stream, i), memo=memo
        )
        stats = window_stats(ranges, loop.group_size, loop.pulses_per_interval)
        error = stats.sigma_d - loop.target_sigma_m
        logs.append(
            ProcessingIntervalLog(
                interval_index=i,
                f2_hz=f2,
                sigma_d_m=stats.sigma_d,
                mean_range_m=stats.mean_range,
                snr_db=snr,
                controller_error_m=error,
                timestamp_s=t,
            )
        )
        x = law(error, i)
    return logs


def _replay(config, trace, duration_s, seed, law):
    """Validate a trace replay's inputs and run it on noise stream 1."""
    if not trace:
        raise ValueError("trace has no records")
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be positive and finite, got {duration_s}")
    n_intervals = int(duration_s // config.loop.interval_duration_s)
    if n_intervals < 1:
        raise ValueError("duration shorter than one processing interval")
    master = config.seed if seed is None else seed
    return _closed_loop(config, trace, n_intervals, law, master, 1)


def run_fixed_bandwidth(
    config: RunConfig,
    trace: Sequence[EnvironmentRecord],
    duration_s: float,
    seed=None,
) -> list[ProcessingIntervalLog]:
    """Replay a trace with the tone separation held at its configured value."""
    x0 = config.controller.x_prev
    return _replay(config, trace, duration_s, seed, lambda error, i: x0)


def run_adaptive(
    config: RunConfig,
    trace: Sequence[EnvironmentRecord],
    duration_s: float,
    seed=None,
) -> list[ProcessingIntervalLog]:
    """Replay a trace with the PI loop retuning the tone separation.

    Each interval feeds ``sigma_d - loop.target_sigma_m`` into the
    controller and the returned separation (clamped to the configured
    operating range) becomes the next interval's ``f2 = f1 + x``.
    """
    controller = config.controller
    dt = config.loop.interval_duration_s

    def pi_law(error: float, i: int) -> float:
        nonlocal controller
        try:
            controller, x = pi_step(controller, error, dt)
        except ValueError as exc:
            raise RuntimeError(f"controller aborted at interval {i}: {exc}") from exc
        return x

    return _replay(config, trace, duration_s, seed, pi_law)


def ranging_sigma_plant(
    config: RunConfig, n_intervals: int = 30, seed: int = 0
) -> Callable[[float], np.ndarray]:
    """Closed-loop plant handle for ultimate-gain searches.

    ``plant(k)`` runs the ranging loop under pure proportional control
    ``x = x0 + k * error`` (gain ``k`` in controller units, i.e. the
    same units as ``PiControllerState.k_p``) at the configured channel
    SNR and returns the measured sigma series in controller error units.
    The per-interval noise streams are frozen per ``seed`` and shared
    across gain evaluations, so the handle is deterministic.
    """
    ctl = config.controller
    trace = [EnvironmentRecord(timestamp_s=0.0, snr_db=config.channel.snr_db)]

    def plant(k: float) -> np.ndarray:
        def p_law(error: float, i: int) -> float:
            x_next = ctl.x_prev + k * (error * ERROR_SCALE) * OUTPUT_SCALE
            return min(max(x_next, ctl.x_min), ctl.x_max)

        logs = _closed_loop(config, trace, n_intervals, p_law, seed, 3)
        return np.array([log.sigma_d_m * ERROR_SCALE for log in logs])

    return plant


def summarize_run(logs: Sequence[ProcessingIntervalLog]) -> dict:
    """Aggregate statistics for a run log, as written to summary JSON."""
    from .coherence import max_coherent_frequency

    if not logs:
        raise ValueError("no intervals logged")

    def spread(values) -> dict:
        a = np.array(values)
        return {
            "mean": float(a.mean()),
            "max": float(a.max()),
            "min": float(a.min()),
            "final": float(a[-1]),
        }

    sigma = spread([l.sigma_d_m for l in logs])
    return {
        "intervals": len(logs),
        "sigma_d_m": sigma,
        "mean_range_m": float(np.mean([l.mean_range_m for l in logs])),
        "f2_hz": spread([l.f2_hz for l in logs]),
        "max_coherent_frequency_hz": {
            str(p): max_coherent_frequency(sigma["mean"], p) for p in (0.9, 0.8, 0.7)
        },
    }
