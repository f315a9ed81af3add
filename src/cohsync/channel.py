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
:func:`matched_noise_block` draws a block of consecutive output lags with
the filter's Toeplitz lag covariance.  Filtered Gaussian noise is
Gaussian and so fixed by its covariance, which both draws reproduce up
to rounding (Kay, *Fundamentals of Statistical Signal Processing I*,
1993, ch. 3 and 7); they are exact in distribution, not approximations.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

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


def apply_round_trip_response(
    pulse: ComplexBasebandSignal, state: ChannelState
) -> ComplexBasebandSignal:
    """Deterministic part of the round trip: delay and residual shift.

    The two-way delay ``2 * true_range / c`` is applied as a spectral
    phase ramp, which is exact for band-limited content and circular
    over the window (callers size the window so the wrap region stays
    empty).  The residual frequency shift ``offset2 - offset1`` is then
    applied across the window.  No amplitude gain is modelled: the SNR
    is referenced to the received signal, so any gain cancels.
    """
    tau = 2.0 * state.true_range / SPEED_OF_LIGHT
    if tau > pulse.duration:
        raise ValueError(
            f"round-trip delay {tau:.3e} s exceeds the {pulse.duration:.3e} s window"
        )
    n = pulse.n_samples
    fs = pulse.sample_rate
    spectrum = np.fft.fft(pulse.samples)
    freqs = np.fft.fftfreq(n, d=1.0 / fs)
    delayed = np.fft.ifft(spectrum * np.exp(-2j * np.pi * freqs * tau))
    shift = residual_baseband_frequency(0.0, state.carrier)
    if shift != 0.0:
        t = np.arange(n) / fs
        delayed = delayed * np.exp(2j * np.pi * shift * t)
    return ComplexBasebandSignal(delayed, fs)


def noise_power_for(clean: ComplexBasebandSignal, snr_db: float) -> float:
    """Complex noise variance that realizes ``snr_db`` over this window."""
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    mean_power = clean.energy / clean.n_samples
    return mean_power / (10.0 ** (snr_db / 10.0))


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
    return scipy.fft.ifft(bins, axis=1, overwrite_x=True)


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
    row is ``S z`` with ``z ~ CN(0, I)`` and ``S = V sqrt(L)`` from the
    eigendecomposition ``V L V^H`` of that Toeplitz covariance, so
    ``S S^H`` is the covariance and the block has exactly the distribution
    of those lags of a whole row.  The covariance is positive
    semidefinite; eigenvalues below 0 are rounding and count as 0.
    Draws nothing, and returns zeros, when ``noise_power`` is 0.
    """
    if noise_power == 0.0:
        return np.zeros((n_rows, width), dtype=np.complex128)
    autocorrelation = np.fft.ifft(np.abs(template_spectrum) ** 2)
    k = np.arange(width)
    covariance = noise_power * autocorrelation[(k[:, None] - k) % autocorrelation.size]
    eigenvalues, vectors = np.linalg.eigh(covariance)
    root = vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))
    z = rng.standard_normal((n_rows, 2 * width)).view(np.complex128)
    z *= math.sqrt(0.5)
    return z @ root.T


def post_snr_from_sample_snr(window_len: int, snr_db: float) -> float:
    """Post-processing ``2E/N0`` implied by a window-average sample SNR."""
    if window_len <= 0:
        raise ValueError("window_len must be positive")
    return 2.0 * window_len * 10.0 ** (snr_db / 10.0)


def sample_snr_for_post_snr(window_len: int, post_snr: float) -> float:
    """Window-average sample SNR (dB) that realizes a target ``2E/N0``."""
    if window_len <= 0:
        raise ValueError("window_len must be positive")
    if not post_snr > 0:
        raise ValueError("post_snr must be positive")
    return 10.0 * math.log10(post_snr / (2.0 * window_len))
