"""Adaptive two-tone ranging and wireless frequency synchronization toolkit.

Desk-scale simulator and analysis library for phase/frequency
coordination of distributed RF transceivers: spectrally sparse ranging
waveforms, a cooperative round-trip channel, a matched-filter range
estimator with ambiguity resolution, an adaptive PI bandwidth loop, and
coherent-gain Monte-Carlo analysis.
The API is imported from the submodules, e.g.
``from cohsync.scenario import run_adaptive``.
"""

__version__ = "0.1.0"
