"""Two-way cooperative link model: delay, residual carrier offset, noise.

The link between the interrogating node and the repeating node is
collapsed into a single per-pulse SNR at the interrogator's receiver.
Antenna gains, cable losses and repeater noise figure are all folded
into that one number, because every downstream accuracy result depends
only on the post-processing energy ratio ``2E/N0``.

A frame is a complex128 array over the receive window, and the round
trip takes it as its DFT, which is also the matched filter's template
spectrum.  SNR convention: ``snr_db`` references the mean power of the
clean (delayed, shifted) frame over the whole window.  With ranging and
disambiguation frames padded to the same window length, both pulses
then see the same post-processing ``2E/N0``, equal to ``2 * window_len
* 10**(snr_db/10)``; a finite ``snr_db`` must give that ratio as a
positive finite float (:func:`snr_ratio`), and +inf means no noise.

Noise is circularly symmetric white Gaussian with the per-sample variance
that SNR sets: a frame's variance at 0 dB (:func:`noise_power_for`) over
the linear SNR (:func:`scaled_noise_power`).  The draws below take a
positive variance; a noise-free window calls none of them.  A simulated
window only ever reads the matched-filter outputs of its frames, so the
filtered noise is drawn directly, never on the samples of a frame:
:func:`matched_noise_rows` draws whole disambiguation output rows in the
frequency domain, where white noise has independent bins, and
:func:`matched_noise_block` draws the block of consecutive ranging output
lags a pulse reads through the Cholesky factor of their Toeplitz
covariance (:func:`lag_block_factor`, factored on one OpenBLAS thread
whatever the thread count, once for any number of blocks).  Filtered
Gaussian noise is Gaussian and so fixed by its covariance, which both
draws reproduce up to rounding (Kay, *Fundamentals of Statistical Signal
Processing I*, 1993, ch. 3 and 7); they are exact in distribution, not
approximations.

Of a disambiguation output row a window reads only the peak lag, and
:func:`matched_noise_peaks` draws that peak without the whole row where a
certificate allows.  Every output lag of template ``p`` obeys
``|noise[k]| <= ||p||_1 * max_j |w_j|`` over the white input samples
``w_j`` it reads.  So each row draws ``w`` exactly on the input samples of
the lags within one and a half template lengths of the clean peak, takes
their output maximum ``M`` by one product with the template's Toeplitz
matrix, and draws the largest
modulus ``R`` of the other ``m`` input samples from its law: ``|w|**2`` is
exponential, so ``R**2 = -noise_power * log(1 - U**(1/m))`` for uniform
``U`` (David & Nagaraja, *Order Statistics*, 3rd ed., 2003).  When
``max_far |clean| + ||p||_1 * max(R, max_near |w|) < M`` no other lag can
win, and the near argmax is the row's peak.  Otherwise the row is
completed exactly around ``R`` (at a uniform place, the other moduli from
the law truncated below it) and scanned whole.  Either way the peak has
the distribution of a whole row's peak.  Templates whose near samples
would cover the window, or whose near product would cost more than a whole
row, draw whole rows.  The noise-free part of this (the rotated clean row,
the template's DFT and Toeplitz matrix, ``||p||_1`` and ``max_far |clean|``)
is a :class:`PeakSearch`, built once per clean row and template.

Whole and completed disambiguation rows are drawn and scanned for their
peaks ``_ROW_CHUNK`` rows at a time by one kernel (:func:`_row_peaks`), so
no ``(rows, n)`` array is held.  Chunk ``j`` of a frame draws from its own
stream, the child of the frame's seed sequence with spawn index ``j``,
so its rows depend on neither the other chunks nor the order the chunks
run in (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011).  Each row's inverse FFT does not depend on the rows it shares
a call with either, so the chunks run on a pool of threads, one a core
up to ``_MAX_WORKERS``, and give the same bytes at any worker count.
Probability curves use both: their chunks of trials draw their geometry
from these chunk streams and run on the pool, :func:`map_chunks`, each
task :func:`chunks_per_task` consecutive chunks as one array.  A numpy
call holds the interpreter lock for its setup, so wider arrays hand it
off fewer times an element, which is what lets a second worker gain on a
curve.  Every worker still gets a task, and at most ``_MAX_WORKERS``
chunks are in flight, as on four workers.
A window's unit-normal fills run as pool tasks (:func:`start_task`),
overlapping its frame work, as ``standard_normal`` releases the
interpreter lock; a noise-free window starts no thread.
"""

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .waveform import SPEED_OF_LIGHT


@dataclass(frozen=True)
class ChannelState:
    """One-way geometry plus link quality for a round trip.

    ``snr_db`` may be ``math.inf`` to disable noise entirely; otherwise
    :func:`snr_ratio` must accept it.  ``residual_offset`` (Hz) is the
    repeater's return-carrier offset minus its outbound one, 0 when the
    nodes are frequency locked: a tone at ``f_b`` comes back at ``f_b +
    residual_offset``.  Only that difference reaches baseband, so neither
    the carriers nor their separate offsets are modelled.
    """

    true_range: float
    snr_db: float
    residual_offset: float = 0.0

    def __post_init__(self):
        if self.true_range < 0:
            raise ValueError("true_range must be >= 0")
        snr_ratio(self.snr_db)


@functools.lru_cache(maxsize=1)  # a window's two frames share the last window's ramp
def delay_ramp(n: int, sample_rate: float, true_range: float) -> np.ndarray:
    """Read-only spectral phase ramp of the two-way delay over an ``n``-sample window."""
    tau = 2.0 * true_range / SPEED_OF_LIGHT
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    ramp = np.exp(-2j * np.pi * freqs * tau)
    ramp.flags.writeable = False
    return ramp


def apply_round_trip_response(
    spectrum: np.ndarray, ramp: np.ndarray, state: ChannelState, sample_rate: float
) -> np.ndarray:
    """The received frame: the transmitted one's DFT ``spectrum`` delayed and shifted.

    The two-way delay ``2 * true_range / c`` is the window's phase ramp
    ``ramp`` (:func:`delay_ramp`), exact for band-limited content and
    circular over the ``n``-sample window (callers size the window so the
    wrap region stays empty).  The residual frequency shift
    ``state.residual_offset`` is then applied across the window.  No
    amplitude gain is modelled: the SNR is referenced to the received
    signal, so any gain cancels.
    """
    n = spectrum.size
    tau = 2.0 * state.true_range / SPEED_OF_LIGHT
    if tau > n / sample_rate:
        raise ValueError(
            f"round-trip delay {tau:.3e} s exceeds the {n / sample_rate:.3e} s window"
        )
    delayed = np.fft.ifft(spectrum * ramp)
    if state.residual_offset != 0.0:
        t = np.arange(n) / sample_rate
        delayed = delayed * np.exp(2j * np.pi * state.residual_offset * t)
    return delayed


def noise_power_for(clean: np.ndarray) -> float:
    """Complex noise variance that realizes 0 dB over the window ``clean`` fills."""
    return float(np.sum(np.abs(clean) ** 2)) / clean.size


def snr_ratio(snr_db: float) -> float:
    """The linear SNR ``10**(snr_db / 10)``, infinite at ``snr_db`` +inf (no noise).

    Raises ValueError where a finite ``snr_db`` has no positive finite
    float ratio: above about 3082 dB, below about -3236 dB, or NaN.
    """
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:  # only a finite snr_db overflows
        ratio = 0.0
    if not ratio > 0.0:
        raise ValueError(f"snr_db={snr_db} has no positive finite linear ratio 10**(snr_db/10)")
    return ratio


def scaled_noise_power(power_0db: float, snr_db: float) -> float:
    """Noise variance at ``snr_db`` of a window whose variance at 0 dB is ``power_0db``."""
    return power_0db / snr_ratio(snr_db)


def matched_noise_rows(
    template_spectrum: np.ndarray, noise_power: float, n_rows: int, rng: np.random.Generator
) -> np.ndarray:
    """White noise through a circular matched filter: ``(n_rows, n)`` output rows.

    ``template_spectrum`` is the template's ``n``-point DFT ``T``.  The DFT
    of circularly symmetric white Gaussian noise of per-sample variance
    ``noise_power`` has independent ``CN(0, n * noise_power)`` bins, so
    the bins are drawn directly and one inverse FFT of their product with
    ``conj(T)`` is the filter's output noise, with exactly its
    distribution.
    """
    n = template_spectrum.size
    bins = rng.standard_normal((n_rows, 2 * n)).view(np.complex128)
    bins *= math.sqrt(n * noise_power / 2.0) * np.conj(template_spectrum)
    return np.fft.ifft(bins, axis=1, out=bins)


def lag_block_factor(template_spectrum: np.ndarray, noise_power: float, width: int) -> np.ndarray:
    """Read-only Cholesky factor of the covariance of ``width`` consecutive output noise lags.

    The output noise of :func:`matched_noise_rows` is stationary on the
    circular lag axis: lags ``k`` and ``l`` have covariance
    ``noise_power * r[(k - l) mod n]``, with ``r = ifft(|T|**2)`` the
    template's circular autocorrelation, wherever the block starts.  The
    factor ``S`` of that Toeplitz covariance ``C`` (Golub & Van Loan,
    *Matrix Computations*, 4th ed., sec. 4.2) depends on neither the rows
    nor their noise, so :func:`matched_noise_block` draws any number of
    blocks from one.  It exists for ``width <= n - L + 1``, ``L`` the
    template's length: ``C`` is a principal submatrix of the circulant
    with eigenvalues ``noise_power * |T_k|**2``, so ``x^H C x = noise_power
    * sum_k |T_k|**2 |X_k|**2`` with ``X`` the ``n``-point DFT of ``x``, and
    some bin is neither one of the at most ``L - 1`` zeros of ``T`` nor one
    of the at most ``width - 1`` of a nonzero ``X``.
    """
    r = np.fft.ifft(np.abs(template_spectrum) ** 2)
    # window i of r[n - width + 1:] then r[:width], reversed, holds r[(i - j) mod n] at j
    lags = np.concatenate([r[r.size - width + 1 :], r[:width]])
    covariance = noise_power * np.lib.stride_tricks.sliding_window_view(lags, width)[:, ::-1]
    with _blas_lock:  # the count is process-wide: no window restores it under another
        getter, setter = openblas_threads()
        count = getter()
        setter(1)  # OpenBLAS threads the factor from about 64 rows, changing its digits
        try:
            root = np.linalg.cholesky(covariance)
        finally:
            setter(count)
    root.flags.writeable = False
    return root


def matched_noise_block(root: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Blocks of consecutive matched-filter output noise lags, one a row of ``z``.

    ``root`` is the blocks' :func:`lag_block_factor`, and ``z`` holds ``(n_rows,
    2 * width)`` unit normals, read in place as ``CN(0, I)`` rows.  Each row is
    ``S z``, so it has exactly the distribution of those lags of a whole
    :func:`matched_noise_rows` row.
    """
    z = z.view(np.complex128)
    z *= math.sqrt(0.5)
    return z @ root.T


# OpenBLAS's thread-count getters and setters, in the order tried: numpy's wheels
# bundle scipy-openblas with its symbols renamed, other builds link the plain one.
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_blas = None  # (getter, setter) of the thread count, found on first use
_blas_lock = threading.Lock()


def _openblas_library() -> str | None:
    """Path of the OpenBLAS library mapped into this process, if any (Linux only)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
                    return fields[5].rstrip("\n")
    except OSError:
        pass
    return None


def openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]]:
    """OpenBLAS's thread-count getter and setter; ones that do nothing without OpenBLAS."""
    global _blas
    if _blas is None:
        import ctypes

        path, found = _openblas_library(), (lambda: 1, lambda count: None)
        try:
            library = ctypes.CDLL(path) if path else None
        except OSError:  # replaced on disk since it was mapped
            library = None
        for names in _OPENBLAS_THREADS if library is not None else ():
            getter, setter = (getattr(library, name, None) for name in names)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                found = (getter, setter)
                break
        _blas = found
    return _blas


# Rows per chunk when whole matched-filter rows are drawn or scanned for their
# peaks: a chunk of 3750-sample rows and its magnitudes take about 1.4 MB, and
# each chunk draws from its own stream (_row_peaks).
_ROW_CHUNK = 16

# Most threads that run chunks at once, whatever the host's core count.  Each
# row chunk in flight holds about 1.2 MiB at the reference window, so a P = 800
# window of whole 6.3 kHz disambiguation rows peaks at 0.19-0.21 of its frame
# array by tracemalloc (TestStreamedRows allows 0.35).  Each curve chunk holds
# about 0.6 MiB (coherence), and curve tasks run chunks_per_task chunks, so at
# most _MAX_WORKERS curve chunks are in flight at any worker count.
_MAX_WORKERS = 4
_WORKERS = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
    _MAX_WORKERS,
)
_pool = None  # the ThreadPoolExecutor of _WORKERS threads, created on first use


def _forget_pool() -> None:
    global _pool
    _pool = None  # a forked child has none of its parent's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def start_task(fn: Callable[..., object], *args) -> Callable[[], object]:
    """Start ``fn(*args)`` on the module's pool of ``_WORKERS`` threads, created on
    first use, or run it inline on ``_WORKERS`` 1; the returned call waits for its
    result (re-raising its error)."""
    if _WORKERS < 2:
        result = fn(*args)
        return lambda: result
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="cohsync")
    return _pool.submit(fn, *args).result


def map_chunks(run: Callable[[int], object], n_chunks: int) -> list:
    """``[run(j) for j in range(n_chunks)]``, one :func:`start_task` a chunk
    (inline for one chunk).  Each call may touch only what its chunk owns."""
    if n_chunks < 2:
        return [run(j) for j in range(n_chunks)]
    joins = [start_task(run, j) for j in range(n_chunks)]
    return [join() for join in joins]


def chunks_per_task(n_chunks: int) -> int:
    """How many consecutive chunks of ``n_chunks`` one :func:`map_chunks` task
    should run as one array: ``_MAX_WORKERS // _WORKERS`` on a pool, so that at
    most ``_MAX_WORKERS`` chunks are in flight, but few enough that every worker
    gets a task; 1 inline."""
    if _WORKERS < 2:
        return 1
    return max(1, min(_MAX_WORKERS // _WORKERS, n_chunks // _WORKERS))


def _chunk_stream(seed: np.random.SeedSequence, index: int) -> np.random.Generator:
    """The stream of chunk ``index``: ``seed``'s child with that spawn index.

    Equal to the generator of ``seed.spawn(index + 1)[index]`` on a fresh
    ``seed``, without spawning the earlier children.
    """
    child = np.random.SeedSequence(
        seed.entropy, spawn_key=(*seed.spawn_key, index), pool_size=seed.pool_size
    )
    return np.random.default_rng(child)


def _row_peaks(
    clean_row: np.ndarray,
    n_rows: int,
    draw: Callable[[slice, np.random.Generator], np.ndarray],
    rng: np.random.Generator,
) -> np.ndarray:
    """Index of the largest modulus (the first of equal ones) of each row ``clean_row + noise``.

    Chunk ``j`` is rows ``_ROW_CHUNK * j`` on (fewer in the last), whose noise ``draw(rows,
    stream)`` makes on :func:`_chunk_stream` of ``rng``'s seed sequence and ``j``; the chunks
    run by :func:`map_chunks`, so ``draw`` may only read what they share.
    """

    def run(j: int) -> np.ndarray:
        rows = slice(j * _ROW_CHUNK, min((j + 1) * _ROW_CHUNK, n_rows))
        chunk = draw(rows, _chunk_stream(rng.bit_generator.seed_seq, j))
        chunk += clean_row
        return np.argmax(np.abs(chunk), axis=1)

    return np.concatenate(map_chunks(run, -(-n_rows // _ROW_CHUNK)))


def _max_modulus(
    noise_power: float, m: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Largest modulus among ``m`` i.i.d. ``CN(0, noise_power)`` samples, ``size`` times.

    ``|w|**2 / noise_power`` is Exp(1), so the largest of ``m`` has the CDF
    ``(1 - exp(-x))**m`` and the inverse CDF ``-log(1 - U**(1/m))``
    (David & Nagaraja, 2003, ch. 2); ``U**(1/m)`` is formed as
    ``exp(log(U) / m)`` so that ``1 - U**(1/m)`` keeps its digits.
    """
    with np.errstate(divide="ignore"):  # U = 0 is a largest modulus of 0
        top = -np.log(-np.expm1(np.log(rng.random(size)) / m))
    return np.sqrt(noise_power * top)


def _complete_noise(
    near: np.ndarray, r_max: np.ndarray, noise_power: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Rows of ``n`` noise samples that start with ``near``, given their largest other modulus.

    Row ``i`` starts with ``near[i]``.  Its other ``m = n - near.shape[1]``
    samples are i.i.d. ``CN(0, noise_power)`` conditioned on their largest
    modulus being ``r_max[i]``: that modulus at a uniformly drawn place,
    and the other ``m - 1`` moduli from the law of one modulus truncated
    below ``r_max[i]``, by inverse CDF, all with uniform phases.  When
    ``near`` is ``CN(0, noise_power)`` and ``r_max`` is drawn by
    :func:`_max_modulus`, each row is white ``CN(0, noise_power)`` noise.
    """
    rows, width = near.shape
    m = n - width
    below = -np.expm1(-(r_max**2) / noise_power)  # P(|w| < r_max) of one sample
    moduli = rng.random((rows, m)) * below[:, None]
    moduli = np.sqrt(-noise_power * np.log1p(-moduli))
    moduli[np.arange(rows), rng.integers(m, size=rows)] = r_max
    phase = 2.0 * np.pi * rng.random((rows, m))
    full = np.empty((rows, n), dtype=np.complex128)
    full[:, :width] = near
    far = full[:, width:]
    far.real = moduli * np.cos(phase)
    far.imag = moduli * np.sin(phase)
    return full


# Multiply-adds of the certificate's near product that cost about one whole-row
# sample (its draw, inverse FFT and scan): 0.10-0.18 ns against 37-55 ns on one
# OpenBLAS thread of a 2-core Xeon.  A 3750-sample window so draws whole rows from
# a 283-sample template on (an 88.5 kHz disambiguation tone at 25 Msps).
_ROW_SAMPLE_MACS = 256


@dataclass(frozen=True, eq=False)
class PeakSearch:
    """The noise-free work of :func:`matched_noise_peaks` for one clean row and template.

    It depends on neither the noise power nor the noise, so one search
    serves every window of its geometry (:func:`peak_search` builds it,
    and decides there how the rows are drawn).  ``clean_row`` is the
    noise-free output rotated so that lag ``first + k`` sits at index
    ``k``: the near lags, which read the ``n_inputs`` input samples, come
    first; input rows times ``toeplitz`` are their output on the near
    lags.  ``toeplitz`` None means whole rows; ``first`` is then 0, and
    ``n_inputs``, ``reach`` and ``far_max``, which only the certificate
    reads, are None.
    """

    spectrum: np.ndarray  # the template's n-point DFT
    toeplitz: np.ndarray | None
    clean_row: np.ndarray
    first: int
    n_inputs: int | None
    peak: int  # index of the clean row's largest modulus
    reach: float | None  # ||template||_1
    far_max: float | None  # largest clean modulus off the near lags


def peak_search(clean_row: np.ndarray, template: np.ndarray, spectrum: np.ndarray) -> PeakSearch:
    """The :class:`PeakSearch` of ``clean_row``, the noise-free output of ``template``'s filter.

    ``spectrum`` is the template's DFT at the row's length, ``np.fft.fft(template, n)``;
    the search keeps it as given, and makes its other arrays read-only.  Rows are drawn whole
    where the near inputs cover the window or their product costs more than a whole row.
    """
    n, length = clean_row.size, template.size
    magnitude = np.abs(clean_row)
    peak = int(np.argmax(magnitude))
    half = -(-3 * length // 2)  # near lags either side of the clean peak
    n_inputs, n_near = 2 * half + length, 2 * half + 1
    toeplitz, first, reach, far_max = None, 0, None, None
    if n_inputs < n and n_inputs * n_near <= _ROW_SAMPLE_MACS * n:
        first = peak - half
        toeplitz = np.zeros((n_inputs, n_near), dtype=np.complex128)
        k = np.arange(n_near)  # column k reads inputs k .. k + length - 1
        toeplitz[k + np.arange(length)[:, None], k] = np.conj(template)[:, None]
        toeplitz.flags.writeable = False
        reach = float(np.abs(template).sum())
        far_max = float(np.roll(magnitude, -first)[n_near:].max())
    else:
        n_inputs = None
    rotated = np.roll(clean_row, -first)
    rotated.flags.writeable = False
    return PeakSearch(spectrum, toeplitz, rotated, first, n_inputs, peak, reach, far_max)


def _certify(
    search: PeakSearch, near: np.ndarray, r_max: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Near peak of each row, and whether no other lag can beat it.

    Row ``i`` of ``near`` holds the ``search.n_inputs`` input noise
    samples the near lags read, in the rotation of ``search.clean_row``,
    and ``r_max[i]`` is the largest modulus of the other input samples.
    Returns the argmax over the near lags of ``|clean + noise|``, by
    direct correlation, and the certificate
    ``max_far |clean| + ||p||_1 * max(r_max, max |near|) < max_near |clean + noise|``,
    under which that argmax is the whole row's whatever the other samples.
    """
    output = near @ search.toeplitz
    output += search.clean_row[: output.shape[1]]
    output = np.abs(output)
    reach = search.reach * np.maximum(r_max, np.abs(near).max(axis=1))
    certified = search.far_max + reach < output.max(axis=1)
    return np.argmax(output, axis=1), certified


def matched_noise_peaks(
    search: PeakSearch,
    noise_power: float,
    n_rows: int,
    near: np.ndarray | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Peak index of ``|clean_row + noise|`` for ``n_rows`` draws of matched-filter noise.

    ``search`` holds the noise-free output of the circular matched filter
    of a template on a window of ``n`` samples, and the noise is white
    noise of per-sample variance ``noise_power`` through that filter.
    Returns the peak indices, which have exactly the distribution of the
    peaks of whole rows, and per row whether the certificate of the module
    docstring placed the peak without a whole row.  ``near`` holds the
    ``(n_rows, 2 * search.n_inputs)`` unit normals of the near input samples,
    scaled in place (None for whole rows), and the largest moduli come from
    ``rng``; whole and completed rows are scanned by :func:`_row_peaks`, each
    chunk on its own child stream of ``rng``.
    """
    n = search.clean_row.size
    if search.toeplitz is None:

        def whole(rows: slice, stream: np.random.Generator) -> np.ndarray:
            return matched_noise_rows(search.spectrum, noise_power, rows.stop - rows.start, stream)

        return _row_peaks(search.clean_row, n_rows, whole, rng), np.zeros(n_rows, dtype=bool)
    near = near.view(np.complex128)
    near *= math.sqrt(noise_power / 2.0)
    r_max = _max_modulus(noise_power, n - search.n_inputs, n_rows, rng)
    peak, certified = _certify(search, near, r_max)

    pending = np.flatnonzero(~certified)

    def complete(rows: slice, stream: np.random.Generator) -> np.ndarray:
        full = _complete_noise(near[pending[rows]], r_max[pending[rows]], noise_power, n, stream)
        np.fft.fft(full, axis=1, out=full)
        full *= np.conj(search.spectrum)
        return np.fft.ifft(full, axis=1, out=full)

    if pending.size:
        peak[pending] = _row_peaks(search.clean_row, pending.size, complete, rng)
    return (search.first + peak) % n, certified
