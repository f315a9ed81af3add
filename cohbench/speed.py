"""Machine-speed reference for normalizing times on a shared host.

On a host shared with other tenants, the same cohsync work can take 0.23 s
in one half-minute and 0.30 s in the next.  The CPU time equals the wall
time throughout, so the process is not waiting: the machine is running it
more slowly.  ``run.py`` therefore times this fixed kernel just before
every step of the program, and reports each step at the reference speed:
its time multiplied by ``REFERENCE_S`` over the kernel time sampled around
it.  The kernel is independent of cohsync and mixes the same kinds
of work: Gaussian draws, FFTs, a Python loop of small numpy reductions, and
complex exponentials summed over an array larger than a core's own caches.
"""

import statistics
import time

import numpy as np

# Median kernel time on the 2-vCPU Xeon host the bounds were set on.
REFERENCE_S = 0.0154


class SpeedReference:
    """The reference kernel and the durations of its passes."""

    def __init__(self):
        self._phases = np.random.default_rng(0).uniform(0.0, 6.0, (8000, 16))
        self.samples: list[float] = []
        self.sample()  # the first pass also builds FFT plans and caches
        self.samples.clear()

    def sample(self) -> None:
        """Time one pass of the kernel and keep the duration."""
        t0 = time.perf_counter()
        draws = np.random.default_rng(1).standard_normal((20, 3750, 2))
        frames = draws[..., 0] + 1j * draws[..., 1]
        power = np.abs(np.fft.ifft(np.fft.fft(frames, axis=1), axis=1))
        total = 0.0
        for row in power[:, :400]:
            total += float(np.argmax(row)) + float(row.sum())
        gains = np.abs(np.exp(1j * self._phases).sum(axis=1)) ** 2
        total += float(np.mean(gains >= 100.0))
        self.samples.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        """Median kernel time over ``REFERENCE_S``: above 1 when the machine runs slow."""
        return statistics.median(self.samples) / REFERENCE_S
