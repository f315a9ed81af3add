"""Two-way cooperative link model: delay, residual carrier offsets, noise.

The link between the interrogating node and the repeating node is
collapsed into a single per-pulse SNR at the interrogator's receiver.
Antenna gains, cable losses and repeater noise figure are all folded
into that one number, because every downstream accuracy result depends
only on the post-processing energy ratio ``2E/N0``.

SNR convention: ``snr_db`` references the mean power of the clean
(delayed, shifted) signal over the full window it is given.
With ranging and disambiguation frames padded to the same window
length, both pulses then see the same post-processing ``2E/N0``, equal
to ``2 * window_len * 10**(snr_db/10)``.

Noise is circularly symmetric white Gaussian with the per-sample variance
that SNR sets (:func:`noise_power_for`).  A simulated window only ever
reads the matched-filter outputs of its frames, so the filtered noise is
drawn directly, never on the samples of a frame:
:func:`matched_noise_rows` draws whole output rows in the frequency
domain, where white noise has independent bins, and
:func:`matched_noise_block` draws a block of consecutive output lags
through the Cholesky factor of their Toeplitz covariance, factored on
one OpenBLAS thread whatever the thread count.  Filtered Gaussian noise
is Gaussian and so fixed by its covariance, which both draws reproduce
up to rounding (Kay, *Fundamentals of Statistical Signal Processing I*,
1993, ch. 3 and 7); they are exact in distribution, not approximations.

Of a disambiguation output row a window reads only the peak lag, and
:func:`matched_noise_peaks` draws that peak without the whole row where a
certificate allows.  Every output lag of template ``p`` obeys
``|noise[k]| <= ||p||_1 * max_j |w_j|`` over the white input samples
``w_j`` it reads.  So each row draws ``w`` exactly on the input samples of
the lags within one and a half template lengths of the clean peak, takes
their output maximum ``M`` by direct correlation, and draws the largest
modulus ``R`` of the other ``m`` input samples from its law: ``|w|**2`` is
exponential, so ``R**2 = -noise_power * log(1 - U**(1/m))`` for uniform
``U`` (David & Nagaraja, *Order Statistics*, 3rd ed., 2003).  When
``max_far |clean| + ||p||_1 * max(R, max_near |w|) < M`` no other lag can
win, and the near argmax is the row's peak.  Otherwise the row is
completed exactly around ``R`` (at a uniform place, the other moduli from
the law truncated below it) and scanned whole.  Either way the peak has
the distribution of a whole row's peak.  Templates whose near samples
would cover the window draw whole rows.  The noise-free part of this (the
rotated clean row, the template's DFT, ``||p||_1`` and ``max_far |clean|``)
is a :class:`PeakSearch`, built once per clean row and template.

Whole rows are drawn and reduced ``_ROW_CHUNK`` rows at a time
(:func:`map_row_chunks`), so no ``(rows, n)`` array is held.  Chunk ``j``
of a frame draws from its own stream, the child of the frame's seed
sequence with spawn index ``j``, so its rows depend on neither the other
chunks nor the order the chunks run in (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011).  Each row's inverse FFT does not
depend on the rows it shares a call with either, so the chunks run on a
pool of threads, one a core up to ``_MAX_WORKERS``, and give the same
bytes at any worker count.  Probability curves use both: their chunks of
trials draw their geometry from these chunk streams and run on the pool,
:func:`map_chunks`.  Windows that draw no whole rows start no thread.
"""

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .waveform import SPEED_OF_LIGHT, ComplexBasebandSignal


@dataclass(frozen=True)
class CarrierPlan:
    """The repeater's oscillator offsets, in Hz.

    ``offset1``/``offset2`` are the deviations of the repeater's outbound
    and return carriers from nominal; both are zero when the nodes are
    frequency locked.  Only their difference reaches baseband
    (:func:`residual_baseband_frequency`), so the carriers themselves are
    not modelled.
    """

    offset1: float = 0.0
    offset2: float = 0.0


@dataclass(frozen=True)
class ChannelState:
    """One-way geometry plus link quality for a round trip.

    ``snr_db`` may be ``math.inf`` to disable noise entirely.
    """

    true_range: float
    snr_db: float
    carrier: CarrierPlan = CarrierPlan()

    def __post_init__(self):
        if self.true_range < 0:
            raise ValueError("true_range must be >= 0")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")


def residual_baseband_frequency(f_b: float, carrier: CarrierPlan) -> float:
    """Baseband frequency seen after the down-up-down conversion chain.

    A tone at ``f_b`` comes back at ``f_b - offset1 + offset2``; the two
    drift terms cancel exactly when the repeater is frequency locked (or
    whenever its two offsets happen to be equal).
    """
    return f_b - carrier.offset1 + carrier.offset2


def delay_ramp(n: int, sample_rate: float, true_range: float) -> np.ndarray:
    """Spectral phase ramp of the two-way delay over an ``n``-sample window."""
    tau = 2.0 * true_range / SPEED_OF_LIGHT
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    return np.exp(-2j * np.pi * freqs * tau)


def apply_round_trip_response(
    pulse: ComplexBasebandSignal,
    state: ChannelState,
    *,
    spectrum: np.ndarray | None = None,
    ramp: np.ndarray | None = None,
) -> ComplexBasebandSignal:
    """Deterministic part of the round trip: delay and residual shift.

    The two-way delay ``2 * true_range / c`` is applied as a spectral
    phase ramp, which is exact for band-limited content and circular
    over the window (callers size the window so the wrap region stays
    empty).  The residual frequency shift ``offset2 - offset1`` is then
    applied across the window.  No amplitude gain is modelled: the SNR
    is referenced to the received signal, so any gain cancels.

    A caller that already holds the pulse's DFT (``spectrum``) or the
    window's :func:`delay_ramp` (``ramp``) passes them in; they are not
    computed again.
    """
    tau = 2.0 * state.true_range / SPEED_OF_LIGHT
    if tau > pulse.duration:
        raise ValueError(
            f"round-trip delay {tau:.3e} s exceeds the {pulse.duration:.3e} s window"
        )
    n = pulse.n_samples
    fs = pulse.sample_rate
    if spectrum is None:
        spectrum = np.fft.fft(pulse.samples)
    if ramp is None:
        ramp = delay_ramp(n, fs, state.true_range)
    delayed = np.fft.ifft(spectrum * ramp)
    shift = residual_baseband_frequency(0.0, state.carrier)
    if shift != 0.0:
        t = np.arange(n) / fs
        delayed = delayed * np.exp(2j * np.pi * shift * t)
    return ComplexBasebandSignal(delayed, fs)


def noise_power_for(clean: ComplexBasebandSignal, snr_db: float) -> float:
    """Complex noise variance that realizes ``snr_db`` over this window."""
    return scaled_noise_power(clean.energy / clean.n_samples, snr_db)


def scaled_noise_power(power_0db: float, snr_db: float) -> float:
    """Noise variance at ``snr_db`` of a window whose variance at 0 dB is ``power_0db``."""
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return power_0db / (10.0 ** (snr_db / 10.0))


def matched_noise_rows(
    template_spectrum: np.ndarray, noise_power: float, n_rows: int, rng: np.random.Generator
) -> np.ndarray:
    """White noise through a circular matched filter: ``(n_rows, n)`` output rows.

    ``template_spectrum`` is the template's ``n``-point DFT ``T``.  The DFT
    of circularly symmetric white Gaussian noise of per-sample variance
    ``noise_power`` has independent ``CN(0, n * noise_power)`` bins, so
    the bins are drawn directly and one inverse FFT of their product with
    ``conj(T)`` is the filter's output noise, with exactly its
    distribution.  Draws nothing, and returns zeros, when ``noise_power``
    is 0.
    """
    n = template_spectrum.size
    if noise_power == 0.0:
        return np.zeros((n_rows, n), dtype=np.complex128)
    bins = rng.standard_normal((n_rows, 2 * n)).view(np.complex128)
    bins *= math.sqrt(n * noise_power / 2.0) * np.conj(template_spectrum)
    return np.fft.ifft(bins, axis=1, out=bins)


def matched_noise_block(
    template_spectrum: np.ndarray,
    noise_power: float,
    n_rows: int,
    width: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``width`` consecutive lags of matched-filter output noise per row.

    The output noise of :func:`matched_noise_rows` is stationary on the
    circular lag axis: lags ``k`` and ``l`` have covariance
    ``noise_power * r[(k - l) mod n]``, with ``r = ifft(|T|**2)`` the
    template's circular autocorrelation, wherever the block starts.  Each
    row is ``S z`` with ``z ~ CN(0, I)`` and ``S`` the Cholesky factor of
    that Toeplitz covariance ``C`` (Golub & Van Loan, *Matrix
    Computations*, 4th ed., sec. 4.2), so the block has exactly the
    distribution of those lags of a whole row.  The factor exists for
    ``width <= n - L + 1``, ``L`` the template's length: ``C`` is a
    principal submatrix of the circulant with eigenvalues ``noise_power *
    |T_k|**2``, so ``x^H C x = noise_power * sum_k |T_k|**2 |X_k|**2``
    with ``X`` the ``n``-point DFT of ``x``, and some bin is neither one
    of the at most ``L - 1`` zeros of ``T`` nor one of the at most
    ``width - 1`` of a nonzero ``X``.  Draws nothing, and returns zeros,
    when ``noise_power`` is 0.
    """
    if noise_power == 0.0:
        return np.zeros((n_rows, width), dtype=np.complex128)
    autocorrelation = np.fft.ifft(np.abs(template_spectrum) ** 2)
    k = np.arange(width)
    covariance = noise_power * autocorrelation[(k[:, None] - k) % autocorrelation.size]
    with _blas_lock:  # the count is process-wide: no window restores it under another
        getter, setter = openblas_threads()
        count = getter()
        setter(1)  # OpenBLAS threads the factor from about 64 rows, changing its digits
        try:
            root = np.linalg.cholesky(covariance)
        finally:
            setter(count)
    z = rng.standard_normal((n_rows, 2 * width)).view(np.complex128)
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
# each chunk draws from its own stream (map_row_chunks).
_ROW_CHUNK = 16

# Most threads that run chunks at once, whatever the host's core count.  Each
# row chunk in flight holds about 1.2 MiB at the reference window, so by
# tracemalloc a P = 800 draw peaks at 0.06-0.08 of its frame array inline and
# 0.13-0.15 on four threads, below refinement's 0.24-0.29 (TestStreamedRows
# allows 0.35).  Each curve chunk holds about 0.6 MiB (coherence).
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


def map_chunks(run: Callable[[int], object], n_chunks: int) -> list:
    """``[run(j) for j in range(n_chunks)]``: inline for one chunk or
    ``_WORKERS`` 1, else on the module's pool of ``_WORKERS`` threads,
    created on first use.  Each call may touch only what its chunk owns."""
    if _WORKERS < 2 or n_chunks < 2:
        return [run(j) for j in range(n_chunks)]
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="cohsync")
    return list(_pool.map(run, range(n_chunks)))  # reading each result re-raises its error


def _chunk_stream(seed: np.random.SeedSequence, index: int) -> np.random.Generator:
    """The stream of chunk ``index``: ``seed``'s child with that spawn index.

    Equal to the generator of ``seed.spawn(index + 1)[index]`` on a fresh
    ``seed``, without spawning the earlier children.
    """
    child = np.random.SeedSequence(
        seed.entropy, spawn_key=(*seed.spawn_key, index), pool_size=seed.pool_size
    )
    return np.random.default_rng(child)


def map_row_chunks(
    n_rows: int,
    draw: Callable[[slice, np.random.Generator | None], np.ndarray],
    reduce: Callable[[slice, np.ndarray], None],
    rng: np.random.Generator | None,
) -> None:
    """Call ``reduce(rows, draw(rows, stream))`` on each chunk of ``n_rows`` rows.

    Chunk ``j`` is ``_ROW_CHUNK`` rows (fewer in the last), drawn on
    :func:`_chunk_stream` of ``rng``'s seed sequence and ``j``, or on None
    when ``rng`` is None (a draw that takes no numbers).  ``reduce`` keeps
    what the caller reads of it, in its rows of the caller's arrays.  The
    chunks run by :func:`map_chunks`, so neither ``draw`` nor ``reduce``
    may touch anything but their own rows.
    """
    seed = None if rng is None else rng.bit_generator.seed_seq

    def run(j: int) -> None:
        rows = slice(j * _ROW_CHUNK, min((j + 1) * _ROW_CHUNK, n_rows))
        reduce(rows, draw(rows, None if seed is None else _chunk_stream(seed, j)))

    map_chunks(run, -(-n_rows // _ROW_CHUNK))


def _row_peaks(chunk: np.ndarray) -> np.ndarray:
    """Index of each row's largest modulus (the first of equal ones)."""
    return np.argmax(np.abs(chunk), axis=1)


def peak_indices(rows: np.ndarray) -> np.ndarray:
    """Index of each row's largest modulus (the first of equal ones), a chunk at a time."""
    peak = np.empty(len(rows), dtype=np.intp)

    def keep_peaks(chunk: slice, part: np.ndarray) -> None:
        peak[chunk] = _row_peaks(part)

    map_row_chunks(len(rows), lambda chunk, _: rows[chunk], keep_peaks, None)
    return peak


def map_noisy_rows(
    template_spectrum: np.ndarray,
    clean_row: np.ndarray,
    noise_power: float,
    n_rows: int,
    rng: np.random.Generator,
    reduce: Callable[[slice, np.ndarray], None],
) -> None:
    """:func:`map_row_chunks` over ``n_rows`` rows of ``clean_row`` plus matched-filter noise.

    Each chunk is ``clean_row + matched_noise_rows(template_spectrum,
    noise_power, len, stream)`` on its own stream.  At ``noise_power`` 0
    every row is ``clean_row`` and no stream is derived from ``rng``.
    """

    def draw(rows: slice, stream: np.random.Generator | None) -> np.ndarray:
        chunk = matched_noise_rows(template_spectrum, noise_power, rows.stop - rows.start, stream)
        chunk += clean_row
        return chunk

    map_row_chunks(n_rows, draw, reduce, rng if noise_power else None)


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


@dataclass(frozen=True, eq=False)
class PeakSearch:
    """The noise-free work of :func:`matched_noise_peaks` for one clean row and template.

    It depends on neither the noise power nor the noise, so one search
    serves every window of a run (:func:`peak_search` builds it).
    ``clean_row`` is the noise-free output rotated so that lag ``first +
    k`` sits at index ``k``: the near lags, which read the ``n_inputs``
    input samples, come first.  Where those inputs would cover the window
    the rows are drawn whole and ``first`` is 0.
    """

    template: np.ndarray
    spectrum: np.ndarray  # the template's n-point DFT
    clean_row: np.ndarray
    first: int
    n_inputs: int
    peak: int  # index of the clean row's largest modulus
    reach: float  # ||template||_1
    far_max: float  # largest clean modulus off the near lags


def peak_search(clean_row: np.ndarray, template: np.ndarray) -> PeakSearch:
    """The :class:`PeakSearch` of ``clean_row``, the noise-free output of ``template``'s filter."""
    n, length = clean_row.size, template.size
    magnitude = np.abs(clean_row)
    peak = int(np.argmax(magnitude))
    half = -(-3 * length // 2)  # near lags either side of the clean peak
    n_inputs = 2 * half + length
    first = peak - half if n_inputs < n else 0
    far = np.roll(magnitude, -first)[2 * half + 1 :]
    return PeakSearch(
        template=template,
        spectrum=np.fft.fft(template, n),
        clean_row=np.roll(clean_row, -first),
        first=first,
        n_inputs=n_inputs,
        peak=peak,
        reach=float(np.abs(template).sum()),
        far_max=float(far.max()) if far.size else math.inf,
    )


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
    template = search.template
    n_lags = near.shape[1] - template.size + 1
    output = np.tile(search.clean_row[:n_lags], (len(near), 1))
    for j, tap in enumerate(np.conj(template)):
        output += tap * near[:, j : j + n_lags]
    output = np.abs(output)
    reach = search.reach * np.maximum(r_max, np.abs(near).max(axis=1))
    certified = search.far_max + reach < output.max(axis=1)
    return np.argmax(output, axis=1), certified


def matched_noise_peaks(
    search: PeakSearch,
    noise_power: float,
    n_rows: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Peak index of ``|clean_row + noise|`` for ``n_rows`` draws of matched-filter noise.

    ``search`` holds the noise-free output of the circular matched filter
    of a template on a window of ``n`` samples, and the noise is white
    noise of per-sample variance ``noise_power`` through that filter.
    Returns the peak indices, which have exactly the distribution of the
    peaks of whole rows, and per row whether the certificate of the module
    docstring placed the peak without a whole row.  The near samples and
    largest moduli come from ``rng``; whole and completed rows are drawn
    by :func:`map_row_chunks`, each chunk on its own child stream of
    ``rng``.  Draws nothing when ``noise_power`` is 0.
    """
    n = search.clean_row.size
    if noise_power == 0.0:
        return np.full(n_rows, search.peak), np.ones(n_rows, dtype=bool)
    if search.n_inputs >= n:
        peak = np.empty(n_rows, dtype=np.intp)

        def keep_peaks(rows: slice, chunk: np.ndarray) -> None:
            peak[rows] = _row_peaks(chunk)

        map_noisy_rows(search.spectrum, search.clean_row, noise_power, n_rows, rng, keep_peaks)
        return peak, np.zeros(n_rows, dtype=bool)
    near = rng.standard_normal((n_rows, 2 * search.n_inputs)).view(np.complex128)
    near *= math.sqrt(noise_power / 2.0)
    r_max = _max_modulus(noise_power, n - search.n_inputs, n_rows, rng)
    peak, certified = _certify(search, near, r_max)

    pending = np.flatnonzero(~certified)

    def complete(rows: slice, stream: np.random.Generator) -> np.ndarray:
        full = _complete_noise(near[pending[rows]], r_max[pending[rows]], noise_power, n, stream)
        np.fft.fft(full, axis=1, out=full)
        full *= np.conj(search.spectrum)
        np.fft.ifft(full, axis=1, out=full)
        full += search.clean_row
        return full

    def keep_completed_peaks(rows: slice, full: np.ndarray) -> None:
        peak[pending[rows]] = _row_peaks(full)

    map_row_chunks(pending.size, complete, keep_completed_peaks, rng)
    return (search.first + peak) % n, certified
