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
the estimator reads (:func:`_matched_filter_rows`).  Its two noise-free
frames depend on the waveform and the geometry but not on the SNR, so
each is a function of exactly those inputs, cached per process for the
last two of each (:func:`_disambiguation_frame`, the certificate's
:class:`~cohsync.channel.PeakSearch` and noise power at 0 dB;
:func:`_ranging_frame`, the template DFT, clean output row, noise power
at 0 dB and pulse length).  Every window of a run shares the first, and
windows whose tones repeat (a fixed run, an adaptive loop held at a
clamp) share the second.  The SNR enters a window only as the noise
power it scales (:func:`~cohsync.channel.scaled_noise_power`), and at
+inf a window draws nothing.  The ranging lag block's Cholesky factor
depends on the frame, the noise power and the readout width, so it is
cached for the last two of those (:func:`_lag_block_root`), and windows
whose tones and SNR both repeat pay only for their noise.  A warm cache
gives the same bytes as a cold one.

Each pulse's disambiguation peak is drawn by the certificate of
:mod:`cohsync.channel`: the input noise on the few dozen samples around
the clean peak and the largest modulus of the rest settle it (at the
reference waveform every pulse from -10 dB up, none at -20 dB), and rows
they do not settle are completed and scanned whole, 16 at a time on a
thread per core (:func:`cohsync.channel._row_peaks`), with the same
bytes at any thread count.  Once the peak places the lobe window, a
correlated block of the lags selection reads (the frame's
:class:`~cohsync.ranging.Readout`, at most ``n - L + 1`` lags: see
:func:`~cohsync.ranging.check_separation`) is drawn and selected at
once, so a window keeps only the interpolator's support around each peak.
The ranging noise is stationary, independent of the disambiguation
noise and drawn from its own stream, so the placement leaves its
distribution exact, and both draws match filtering white noise on every
sample in distribution.  Draws are not the same floats as filtering
sampled noise, so seeds give other realisations than such a simulation
would.

Environment traces are sequences of 1-minute-cadence records.  A trace
file's weather columns are checked and dropped: the weather reaches the
loop through the SNR column.
"""

import csv
import logging
import math
from bisect import bisect_right
from dataclasses import astuple, dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import (
    ChannelState,
    PeakSearch,
    apply_round_trip_response,
    delay_ramp,
    lag_block_factor,
    matched_noise_block,
    matched_noise_peaks,
    noise_power_for,
    peak_search,
    scaled_noise_power,
    snr_ratio,
)
from .config import RunConfig
from .control import ERROR_SCALE, OUTPUT_SCALE, pi_step
from .ranging import (
    Readout,
    _circular_correlation,
    _signed_lags,
    check_separation,
    effective_window_length,
    readout,
    refine_window,
    select_lobes,
    window_stats,
)
from .waveform import TwoToneSpec, WaveformConfig, generate_disambiguation, generate_two_tone

logger = logging.getLogger(__name__)

# Most processing intervals one run or plant simulates.  A seven-day trace at
# the reference 21 s interval holds 28,800; at about 320 bytes an interval,
# the limit's run log takes about 0.34 GB.
MAX_INTERVALS = 2**20

# A window's one refinement call goes through this name: traced benchmark
# runs wrap it to time the refinement (their ``ranging.refine`` span).
disambiguate_and_refine = refine_window


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

    Each ``snr_db`` must give a positive finite linear ratio
    (:func:`~cohsync.channel.snr_ratio`).  The optional weather columns
    must hold numbers or nothing, and are not kept.  A column named
    twice, or a row with more cells than the header, is rejected; a
    leading UTF-8 byte-order mark is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
            try:
                snr_ratio(values["snr_db"])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
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


def _clean_output(
    pulse: np.ndarray, n: int, geometry: ChannelState, fs: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Read-only template spectrum and clean output row of a frame, and its noise power at 0 dB.

    The transmitted frame is ``pulse`` zero-padded to the ``n``-sample
    receive window.  The round trip takes it as its DFT, which is also
    the template's, so one FFT serves the channel and the filter.
    """
    spectrum = np.fft.fft(pulse, n)
    ramp = delay_ramp(n, fs, geometry.true_range)
    clean = apply_round_trip_response(spectrum, ramp, geometry, fs)
    row = _circular_correlation(clean[None, :], spectrum)[0]
    spectrum.flags.writeable = row.flags.writeable = False
    return spectrum, row, noise_power_for(clean)


@lru_cache(maxsize=2)
def _disambiguation_frame(
    f_d: float, fs: float, n: int, geometry: ChannelState
) -> tuple[PeakSearch, float]:
    """The disambiguation frame's peak search and noise power; ``geometry`` is at 0 dB."""
    pulse = generate_disambiguation(f_d, fs)
    spectrum, row, power_0db = _clean_output(pulse, n, geometry, fs)
    return peak_search(row, pulse, spectrum), power_0db


@lru_cache(maxsize=2)
def _ranging_frame(
    tones: TwoToneSpec, width_s: float, fs: float, n: int, geometry: ChannelState
) -> tuple[np.ndarray, np.ndarray, float]:
    """The ranging frame's :func:`_clean_output`; ``geometry`` is at 0 dB."""
    return _clean_output(generate_two_tone(tones, width_s, fs), n, geometry, fs)


# The last two lag-block factors, oldest first, by (*frame, snr_db, width).
_lag_block_roots: dict = {}


def _lag_block_root(
    frame: tuple, snr_db: float, spectrum: np.ndarray, noise_power: float, width: int
) -> np.ndarray:
    """:func:`~cohsync.channel.lag_block_factor` of ``spectrum``, ``noise_power`` and ``width``.

    ``frame`` holds the :func:`_ranging_frame` inputs that fix ``spectrum``,
    and ``snr_db`` the noise power, which scales the covariance before it
    is factored.  The factors of the last two such keys are kept, as
    :func:`_ranging_frame` keeps the last two frames.
    """
    key = (*frame, snr_db, width)
    root = _lag_block_roots.pop(key, None)
    if root is None:
        root = lag_block_factor(spectrum, noise_power, width)
    _lag_block_roots[key] = root
    if len(_lag_block_roots) > 2:
        del _lag_block_roots[next(iter(_lag_block_roots))]
    return root


def _matched_filter_rows(
    waveform: WaveformConfig, channel_state: ChannelState, n_pulses: int, seed
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Readout]:
    """Selected ranging lobes of one window, drawn on the lags selection reads.

    Returns ``(support, peak, gross, coarse, reads)``: the first three as
    :func:`select_lobes` returns them, ``coarse[r]``, the whole lag of pulse
    ``r``'s disambiguation peak, and the :func:`readout` they were read by.

    Each cycle sends one ranging and one disambiguation frame, padded to a
    common window length (hence equal post-processing ``2E/N0``), through
    the channel with independent noise, drawn as the module docstring
    says; without noise nothing is drawn.  Raises ValueError for tones too
    close for their :func:`readout` lags to fit a block
    (:func:`check_separation`).
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    fs = waveform.sample_rate
    n = effective_window_length(waveform, channel_state)
    check_separation(waveform.two_tone.separation, waveform, n)
    geometry, snr_db = replace(channel_state, snr_db=0.0), channel_state.snr_db
    search, power_d = _disambiguation_frame(waveform.f_d, fs, n, geometry)
    frame = (waveform.two_tone, waveform.ranging_pulse_width, fs, n, geometry)
    spectrum_r, clean_r, power_r = _ranging_frame(*frame)
    reads = readout(n, fs, waveform.two_tone.separation)
    if snr_db == math.inf:
        index = np.full(n_pulses, search.peak)
    else:
        # one stream per frame, in the order a cycle sends them, so the ranging
        # noise does not depend on how many numbers the disambiguation draw took
        rng_r, rng_d = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
        index, _ = matched_noise_peaks(search, scaled_noise_power(power_d, snr_db), n_pulses, rng_d)
    coarse = _signed_lags(index, n)
    # row r holds clean lags coarse[r] + offset .. on, a window of the row wrapped once
    wrapped = np.concatenate([clean_r, clean_r[: reads.width - 1]])
    rows = sliding_window_view(wrapped, reads.width)[(coarse + reads.offset) % n]
    if snr_db < math.inf:
        sigma2_r = scaled_noise_power(power_r, snr_db)
        root = _lag_block_root(frame, snr_db, spectrum_r, sigma2_r, reads.width)
        rows += matched_noise_block(root, n_pulses, rng_r)
    return (*select_lobes(rows, coarse, reads), coarse, reads)


def simulate_window(
    waveform: WaveformConfig, channel_state: ChannelState, n_pulses: int, seed=0
) -> tuple[np.ndarray, int]:
    """Simulate ``n_pulses`` ranging cycles; returns (ranges, gross count).

    Each cycle's lobe is selected as its lags are drawn
    (:func:`_matched_filter_rows`), and the selected peaks are refined as
    one batch.  Deterministic for a fixed ``seed``, whatever the frame
    caches hold.
    """
    support, peak, gross, _, reads = _matched_filter_rows(waveform, channel_state, n_pulses, seed)
    ranges, _ = disambiguate_and_refine(support, peak, reads)
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

    f1 = config.waveform.two_tone.f1
    x = config.controller.x_prev  # tone separation in force, Hz
    logs: list[ProcessingIntervalLog] = []
    for i in range(n_intervals):
        t = times[0] + i * dt
        snr = _lookup(trace, t, times, cadence, warned).snr_db
        f2 = f1 + x
        wf = replace(config.waveform, two_tone=TwoToneSpec(f1=f1, f2=f2))
        state = replace(config.channel, snr_db=snr)
        ranges, _ = simulate_window(wf, state, loop.pulses_per_interval, seed=(seed, stream, i))
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


def interval_count(duration_s: float, interval_s: float, name: str = "duration_s") -> int:
    """Whole intervals of ``interval_s`` in ``duration_s``: 1 to ``MAX_INTERVALS``, else
    ValueError naming the duration ``name``."""
    count = duration_s // interval_s  # nan for a duration that is not finite
    if not 1 <= count <= MAX_INTERVALS:
        raise ValueError(
            f"{name} ({duration_s} s) holds {count:.4g} processing intervals of {interval_s} s "
            f"(loop.pulses_per_interval x loop.pulse_period_s), not 1 to {MAX_INTERVALS}"
        )
    return int(count)


def _replay(config, trace, duration_s, seed, law):
    """Validate a trace replay's inputs and run it on noise stream 1."""
    if not trace:
        raise ValueError("trace has no records")
    n_intervals = interval_count(duration_s, config.loop.interval_duration_s)
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
        # a mean sigma_d of 0 bounds no frequency: null, as the CLI writes NaN
        "max_coherent_frequency_hz": {
            str(p): max_coherent_frequency(sigma["mean"], p) if sigma["mean"] > 0 else None
            for p in (0.9, 0.8, 0.7)
        },
    }
