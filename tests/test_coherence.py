import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsync import channel, coherence
from cohsync.coherence import (
    ArrayScenario,
    _chunk_geometry,
    binomial_standard_error,
    coherent_gain,
    crossing_standard_errors,
    max_coherent_frequency,
    probability_curve,
    threshold_crossings,
)
from cohsync.waveform import SPEED_OF_LIGHT
from conftest import on_workers, traced_peak

PAPER_THRESHOLDS = {0.9: 0.0495, 0.8: 0.0725, 0.7: 0.1040}


def curve_geometry(scenario, trials, seed):
    """The ``(N - 1, trials)`` unit phase errors of a curve, drawn chunk by
    chunk as :func:`probability_curve` draws them."""
    rows, seed_seq = max(1, coherence._CHUNK_PHASE_ERRORS // scenario.n_nodes), np.random.SeedSequence(seed)
    chunks = range(-(-trials // rows))
    return np.concatenate([_chunk_geometry(scenario, seed_seq, j, rows, trials) for j in chunks], axis=1)


def drawn_by_hand(scenario, seed, j, r):
    """Steering angles and ``(N - 1, r)`` unit normals of chunk ``j``'s
    stream, in the order the chunk draws them."""
    rng = channel._chunk_stream(np.random.SeedSequence(seed), j)
    return rng.uniform(-math.pi / 2, math.pi / 2, size=r), rng.standard_normal((scenario.n_nodes - 1, r))


def gains_at(a, sigma):
    """Coherent gain of each trial at ``sigma``: phase errors ``sigma * a``
    by fresh exponentials, the primary node's 0 in front."""
    eps = np.zeros((a.shape[1], a.shape[0] + 1))
    eps[:, 1:] = (sigma * a).T
    return coherent_gain(eps)


class TestCoherentGain:
    def test_perfect_alignment(self):
        assert coherent_gain([0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_two_node_destructive(self):
        assert coherent_gain([0.0, math.pi]) == pytest.approx(0.0, abs=1e-12)

    def test_two_node_quadrature_half_power(self):
        # closed form |1 + exp(j d)|^2 / 4 = cos^2(d/2)
        assert coherent_gain([0.0, math.pi / 2]) == pytest.approx(0.5, rel=1e-12)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            coherent_gain([])
        with pytest.raises(ValueError):
            coherent_gain(0.0)
        with pytest.raises(ValueError):
            coherent_gain(np.zeros((3, 0)))

    def test_batch_rows_equal_single_calls(self):
        eps = np.random.default_rng(11).normal(0.0, 1.5, size=(200, 16))
        batch = coherent_gain(eps)
        assert batch.shape == (200,)
        assert np.array_equal(batch, [coherent_gain(row) for row in eps])

    def test_batch_holds_one_complex_array(self):
        # the Monte Carlo's 50,000 x 16 phase errors: one complex copy is
        # 12.2 MiB, two would be 24.4
        eps = np.random.default_rng(13).normal(0.0, 1.5, size=(50000, 16))
        _, peak = traced_peak(lambda: coherent_gain(eps))
        assert peak < 16 * 2**20

    def test_two_node_batch_is_cos_squared(self):
        eps = np.random.default_rng(12).uniform(-10.0, 10.0, size=(500, 2))
        expected = np.cos((eps[:, 1] - eps[:, 0]) / 2) ** 2
        assert np.max(np.abs(coherent_gain(eps) - expected)) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=8),
        st.floats(-10, 10, allow_nan=False),
    )
    def test_bounds_and_global_phase_invariance(self, phases, shift):
        g = coherent_gain(phases)
        assert 0.0 <= g <= 1.0 + 1e-12
        shifted = coherent_gain([p + shift for p in phases])
        assert shifted == pytest.approx(g, abs=1e-9)


class TestArrayScenario:
    def test_mean_gain_matches_gaussian_quadrature_oracle(self):
        # theta drawn as pi/2: the pair phase error is Gaussian with
        # std 2*pi*0.05*(1 + sin(pi/2)); oracle = dense quadrature of
        # E[cos^2(sigma*z/2)] over the normal density (frozen value)
        z = np.random.default_rng(123).standard_normal(100000)
        sample = gains_at((2 * math.pi * (1.0 + math.sin(math.pi / 2)) * z)[None], 0.05)
        assert sample.mean() == pytest.approx(0.91043435870777, rel=0.01)

    def test_spacing_cancels_from_steering_error(self):
        # steering with the estimated spacing d + delta_d instead of the
        # true d, plus the link term: the closed form drops d altogether
        # (the primary node's range error is 0)
        # (lengths in wavelengths, so the wavenumber is 2 pi)
        scenario, seed_seq = ArrayScenario(n_nodes=8), np.random.SeedSequence(7)
        theta, z = drawn_by_hand(scenario, 7, 0, 2000)
        z = np.concatenate([np.zeros((1, 2000)), z]).T
        spacing = np.random.default_rng(7).uniform(1.0, 100.0, size=z.shape)
        k, delta_d = 2 * math.pi, 0.01 * z
        steer_true = k * spacing * np.sin(theta)[:, None]
        steer_est = k * (spacing + delta_d) * np.sin(theta)[:, None]
        eps = steer_true - steer_est - k * delta_d
        explicit = np.abs(np.exp(1j * eps).sum(axis=1)) ** 2 / 64
        closed = gains_at(_chunk_geometry(scenario, seed_seq, 0, 2000, 2000), 0.01)
        assert np.max(np.abs(closed - explicit)) < 1e-12

    def test_scenario_invariants(self):
        for n_nodes in (1, 0, -3):
            with pytest.raises(ValueError):
                ArrayScenario(n_nodes=n_nodes)
        # one trial must fit a chunk, so a chunk's memory is bounded for every node count
        assert ArrayScenario(n_nodes=2**14).n_nodes == coherence._CHUNK_PHASE_ERRORS
        with pytest.raises(ValueError, match="n_nodes 16385 exceeds the limit of 16384"):
            ArrayScenario(n_nodes=2**14 + 1)
        # sigma_d is in wavelengths and theta spans [-pi/2, pi/2]: the array's size is all
        assert [f.name for f in dataclasses.fields(ArrayScenario(n_nodes=2))] == ["n_nodes"]


class TestProbabilityCurve:
    def test_zero_sigma_certain(self):
        scenario = ArrayScenario(n_nodes=2)
        y = probability_curve(scenario, [0.0], threshold=0.9, trials=500, seed=1)
        assert y[0] == 1.0

    def test_single_trial_is_indicator(self):
        scenario = ArrayScenario(n_nodes=2)
        y = probability_curve(scenario, [0.08], threshold=0.9, trials=1, seed=5)
        assert y[0] in (0.0, 1.0)

    def test_monotone_non_increasing(self):
        scenario = ArrayScenario(n_nodes=2)
        grid = np.linspace(0.0, 0.2, 21)
        y = probability_curve(scenario, grid, trials=3000, seed=2)
        band = 2.0 * np.sqrt(np.maximum(y * (1 - y), 1e-9) / 3000)
        assert np.all(np.diff(y) <= band[:-1])

    def test_two_node_thresholds_near_reference(self):
        scenario = ArrayScenario(n_nodes=2)
        grid = np.linspace(0.02, 0.16, 36)
        y = probability_curve(scenario, grid, trials=4000, seed=3)
        crossings = threshold_crossings(grid, y)
        for level, reference in PAPER_THRESHOLDS.items():
            assert crossings[level] == pytest.approx(reference, rel=0.20)

    def test_rejects_empty_grid(self):
        scenario = ArrayScenario(n_nodes=2)
        with pytest.raises(ValueError):
            probability_curve(scenario, [], trials=100)

    def test_crossings_nan_outside_range(self):
        out = threshold_crossings([0.01, 0.02], [0.5, 0.4], levels=(0.9,))
        assert math.isnan(out[0.9])

    def test_reversed_grid_gives_same_crossings(self):
        scenario = ArrayScenario(n_nodes=2)
        grid = np.linspace(0.02, 0.16, 29)
        y = probability_curve(scenario, grid, trials=4000, seed=3)
        ascending = threshold_crossings(grid, y)
        assert threshold_crossings(grid[::-1], y[::-1]) == ascending
        assert all(0.02 < v < 0.16 for v in ascending.values())

    def test_peak_memory_of_benchmark_curve(self):
        # 16 nodes x 50,000 trials: the chunk buffers; a curve that held
        # whole-array phasors peaked at 26 MiB, one that drew the whole
        # geometry first at 7.2 MiB
        scenario = ArrayScenario(n_nodes=16)
        _, peak = traced_peak(
            lambda: probability_curve(scenario, np.linspace(0.02, 0.05, 7), trials=50000, seed=1)
        )
        assert peak < 12 * 2**20

    def test_peak_memory_on_four_workers(self, monkeypatch):
        # each chunk draws its own geometry: four chunks in flight peak at
        # about 3.1 MiB, where a whole-geometry draw first took 9.9
        scenario = ArrayScenario(n_nodes=16)

        def curve():
            return probability_curve(scenario, np.linspace(0.02, 0.05, 7), trials=50000, seed=1)

        _, peak = on_workers(monkeypatch, 4, lambda: traced_peak(curve))
        assert peak < 4 * 2**20

    def test_peak_memory_on_two_workers(self, monkeypatch):
        # two chunks a task: four chunks in flight, about 2.5 MiB
        scenario = ArrayScenario(n_nodes=16)

        def curve():
            return probability_curve(scenario, np.linspace(0.02, 0.05, 7), trials=50000, seed=1)

        _, peak = on_workers(monkeypatch, 2, lambda: traced_peak(curve))
        assert peak < 4 * 2**20

    def test_peak_memory_at_the_node_limit(self, monkeypatch):
        # one trial a chunk, each alone: two chunks of 16,383 phase errors
        # in flight, about 1.3 MiB
        scenario = ArrayScenario(n_nodes=coherence._CHUNK_PHASE_ERRORS)

        def curve():
            return probability_curve(scenario, np.linspace(0.02, 0.05, 7), trials=8, seed=1)

        _, peak = on_workers(monkeypatch, 2, lambda: traced_peak(curve))
        assert peak < 4 * 2**20


class TestCurveRecurrence:
    """The stepped phasors give the per-point reference's probabilities, up
    to trials whose gain lies within the docstring's bound of the threshold."""

    @pytest.mark.parametrize(
        "nodes, grid, threshold, trials, seed",
        [
            (16, np.linspace(0.02, 0.05, 7), 0.9, 50000, 1),  # the benchmark's array
            (2, np.linspace(0.01, 0.2, 60), 0.9, 10000, 0),  # the CLI default grid
            (2, np.linspace(0.02, 0.16, 57), 0.9, 10000, 42),
            (4, np.geomspace(0.005, 0.3, 40), 0.9, 5000, 2),
            (2, np.linspace(0.16, 0.02, 29), 0.9, 4000, 3),
            (3, np.array([0.0, 0.04, 0.04, 0.08, 0.0, 0.08]), 0.9, 3000, 4),
            (2, np.linspace(0.1, 0.0, 11), 1.0, 3000, 5),  # back to sigma 0 at X = 1
            (5, np.array([0.07]), 0.8, 3000, 6),
            (16, np.linspace(0.01, 0.2, 30), 0.9, 2500, 7),  # 2 chunks and 452 rows
        ],
    )
    def test_matches_fresh_exponentials(self, nodes, grid, threshold, trials, seed):
        # i steps after a start of q (at most 32) steps, a gain is within
        # (q + i) 2e-16 of a fresh exponential's plus a few ulps of the
        # largest phase, so only trials that close to the threshold may
        # flip; at X = 1 those are the trials of tiny phase errors
        scenario = ArrayScenario(n_nodes=nodes)
        y = probability_curve(scenario, grid, threshold=threshold, trials=trials, seed=seed)
        a = curve_geometry(scenario, trials, seed)
        gains = np.array([gains_at(a, s) for s in grid])  # fresh exponentials, a row a point
        flips = np.rint(np.abs(y * trials - np.sum(gains >= threshold, axis=1)))
        bound = (32 + grid.size) * 2e-16 + 8 * np.spacing(np.abs(grid).max() * np.abs(a).max())
        assert np.all(flips <= np.sum(np.abs(gains - threshold) <= bound, axis=1))
        assert np.all(flips[grid == 0.0] == 0)

    @pytest.mark.parametrize("chunk", [1, 3 * 700])  # one row a chunk, all rows in one
    def test_trial_draws_from_its_chunks_stream(self, monkeypatch, chunk):
        # trial t is row t % rows of chunk t // rows, whatever the other chunks
        scenario, trials, seed = ArrayScenario(n_nodes=3), 700, 8
        monkeypatch.setattr(coherence, "_CHUNK_PHASE_ERRORS", chunk)
        rows, hand = max(1, chunk // 3), []
        for j in range(-(-trials // rows)):
            theta, z = drawn_by_hand(scenario, seed, j, min(rows, trials - j * rows))
            hand.append(2.0 * math.pi * (1.0 + np.sin(theta)) * z)
        a = np.concatenate(hand, axis=1)
        assert np.array_equal(curve_geometry(scenario, trials, seed), a)
        grid = np.linspace(0.01, 0.2, 20)
        expected = np.mean([gains_at(a, s) >= 0.9 for s in grid], axis=1)
        assert np.array_equal(probability_curve(scenario, grid, trials=trials, seed=seed), expected)


def counting(monkeypatch, name):
    """Wrap ``coherence.<name>`` to count its calls."""
    calls, inner = [0], getattr(coherence, name)

    def wrapper(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(coherence, name, wrapper)
    return calls


def recording_magnitudes(monkeypatch, keep):
    """Give ``coherence`` a numpy that keeps a copy of the ``|total|`` array
    of each ``greater_equal`` call whose number ``keep`` accepts."""
    calls, kept = [0], {}

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def greater_equal(self, x, *args, **kwargs):
            calls[0] += 1
            if keep(calls[0]):
                kept[calls[0]] = x.copy()
            return np.greater_equal(x, *args, **kwargs)

    monkeypatch.setattr(coherence, "np", Numpy())
    return kept


class TestCurveChunks:
    """Chunks of trials step one factor per arithmetic grid and run on channel's pool."""

    @pytest.mark.parametrize(
        "workers, trials",
        [pytest.param(w, 50000, id=str(w)) for w in (2, 3, 4)]  # the benchmark's array, 49 chunks
        # 48 whole chunks and one of 849 trials, alone in the last task on 2 workers
        + [pytest.param(w, 50001, id=f"{w}-50001") for w in (2, 3, 4)],
    )
    def test_same_bytes_at_any_worker_count(self, monkeypatch, workers, trials):
        scenario = ArrayScenario(n_nodes=16)
        grid = np.linspace(0.02, 0.05, 7)

        def curve():
            return probability_curve(scenario, grid, trials=trials, seed=1).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch between nearly every bytecode
        try:
            assert on_workers(monkeypatch, workers, curve) == on_workers(monkeypatch, 1, curve)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "nodes, trials",
        [
            (16, 50000),  # the benchmark's array: two chunks a task on 2 workers
            (16, 5 * 1024 + 1),  # a last chunk of one trial, which runs alone
            (9000, 4),  # one trial a chunk, each alone
        ],
    )
    def test_gains_keep_their_bytes_on_two_workers(self, monkeypatch, nodes, trials):
        # numpy sums a lone column's nodes pairwise and a wider array's in
        # order, so a one-trial chunk sharing a task would move its gains
        # (rarely a count); every |total| against one worker's
        scenario, grid = ArrayScenario(n_nodes=nodes), np.linspace(0.02, 0.05, 7)

        def magnitudes():
            kept = []

            class Numpy:
                def __getattr__(self, name):
                    return getattr(np, name)

                def greater_equal(self, x, *args, **kwargs):
                    kept.append(x.copy())  # one append a call: safe across threads
                    return np.greater_equal(x, *args, **kwargs)

            monkeypatch.setattr(coherence, "np", Numpy())
            probability_curve(scenario, grid, trials=trials, seed=1)
            monkeypatch.setattr(coherence, "np", np)
            return np.sort(np.concatenate(kept)).tobytes()

        assert on_workers(monkeypatch, 2, magnitudes) == on_workers(monkeypatch, 1, magnitudes)

    @pytest.mark.parametrize(
        "chunks, workers, tasks",
        [(1, 2, 1), (2, 2, 2), (3, 2, 3), (4, 2, 2), (5, 2, 3), (49, 2, 25), (49, 3, 49), (49, 4, 49), (49, 1, 49)],
    )
    def test_chunks_per_task(self, monkeypatch, chunks, workers, tasks):
        # as many chunks a task as keeps _MAX_WORKERS in flight, while every worker has a task
        monkeypatch.setattr(channel, "_WORKERS", workers)
        k = channel.chunks_per_task(chunks)
        assert -(-chunks // k) == tasks
        assert k * workers <= channel._MAX_WORKERS

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        scenario, grid = ArrayScenario(n_nodes=2), np.linspace(0.02, 0.16, 57)
        on_workers(
            monkeypatch, 2, lambda: probability_curve(scenario, grid, trials=8000, seed=1),
            starts_pool=False,
        )

    def test_linear_grid_pays_two_exponentials_a_chunk(self, monkeypatch):
        # 2 chunks of 32 trials; the last point's gains against fresh
        # exponentials, within the docstring's 2e-16 a step (about 0.3 of
        # that; stepping by the first step's float reads 1.6 times it here)
        scenario, trials, seed = ArrayScenario(n_nodes=3), 64, 5
        grid = np.linspace(0.3, 0.5, 2**16)  # 0.3 is no small multiple of the step
        monkeypatch.setattr(channel, "_WORKERS", 1)
        monkeypatch.setattr(coherence, "_CHUNK_PHASE_ERRORS", 3 * 32)
        fresh = gains_at(curve_geometry(scenario, trials, seed), grid[-1])
        exponentials = counting(monkeypatch, "_unit_phasors")
        last = recording_magnitudes(monkeypatch, lambda call: call % grid.size == 0)
        probability_curve(scenario, grid, trials=trials, seed=seed)
        assert exponentials[0] == 2 * 2
        gains = np.concatenate([last[call] for call in sorted(last)]) ** 2 / 3**2
        assert gains.shape == fresh.shape
        assert np.max(np.abs(gains - fresh)) <= (grid.size - 1) * 2e-16

    @pytest.mark.parametrize(
        "grid, per_chunk",
        [
            (np.linspace(0.02, 0.05, 7), 1),  # the benchmark's array: 4 steps to the start
            (np.linspace(0.02, 0.16, 57), 1),  # criterion 1's: 8 steps
            (np.linspace(0.0, 0.2, 21), 1),  # from 0: the start is unit phasors
            (np.linspace(0.01, 0.2, 60), 2),  # the CLI default: 0.01 is 3.1 steps
            (np.linspace(0.16, 0.02, 29), 1),  # descending: -32 steps, the conjugate's power
        ],
    )
    def test_step_multiple_grid_pays_one_exponential_a_chunk(self, monkeypatch, grid, per_chunk):
        monkeypatch.setattr(channel, "_WORKERS", 1)  # one chunk a task
        monkeypatch.setattr(coherence, "_CHUNK_PHASE_ERRORS", 4 * 25)
        exponentials = counting(monkeypatch, "_unit_phasors")
        probability_curve(ArrayScenario(n_nodes=4), grid, trials=100, seed=3)
        assert exponentials[0] == 4 * per_chunk

    @pytest.mark.parametrize(
        "grid, per_task",
        [(np.linspace(0.02, 0.05, 7), 1), (np.linspace(0.01, 0.2, 60), 2), (np.geomspace(0.005, 0.3, 40), 40)],
    )
    def test_grid_pays_its_exponentials_once_a_task(self, monkeypatch, grid, per_task):
        # 4 chunks run 2 a task on 2 workers
        monkeypatch.setattr(coherence, "_CHUNK_PHASE_ERRORS", 4 * 25)
        exponentials = counting(monkeypatch, "_unit_phasors")
        on_workers(monkeypatch, 2, lambda: probability_curve(ArrayScenario(n_nodes=4), grid, trials=100, seed=3))
        assert exponentials[0] == 2 * per_task

    def test_power_start_stays_within_the_bound(self, monkeypatch):
        # a start of q = 27 steps (square and multiply) and 2**16 - 1 steps
        # on: the last point's gains against fresh exponentials, within the
        # docstring's (q + i) 2e-16 (about 0.34 of it)
        scenario, trials, seed, q = ArrayScenario(n_nodes=3), 64, 5, 27
        grid = 0.5 / (q + 2**16 - 1) * np.arange(q, q + 2**16)
        monkeypatch.setattr(channel, "_WORKERS", 1)
        monkeypatch.setattr(coherence, "_CHUNK_PHASE_ERRORS", 3 * 32)
        fresh = gains_at(curve_geometry(scenario, trials, seed), grid[-1])
        exponentials = counting(monkeypatch, "_unit_phasors")
        last = recording_magnitudes(monkeypatch, lambda call: call % grid.size == 0)
        probability_curve(scenario, grid, trials=trials, seed=seed)
        assert exponentials[0] == 2 * 1
        gains = np.concatenate([last[call] for call in sorted(last)]) ** 2 / 3**2
        assert np.max(np.abs(gains - fresh)) <= (q + grid.size - 1) * 2e-16

    def test_conjugate_power_start_stays_within_the_bound(self, monkeypatch):
        # a descending grid whose first point is q = -27 mean steps starts
        # from the conjugate factor's 27th power: the first and last
        # points' gains against fresh exponentials, within the docstring's
        # (|q| + i) 2e-16
        scenario, trials, seed, q = ArrayScenario(n_nodes=3), 64, 5, -27
        grid = 0.5 / -q * np.arange(-q, 0, -1)  # 0.5 down to 0.5 / 27
        monkeypatch.setattr(channel, "_WORKERS", 1)
        monkeypatch.setattr(coherence, "_CHUNK_PHASE_ERRORS", 3 * 32)
        a = curve_geometry(scenario, trials, seed)
        exponentials = counting(monkeypatch, "_unit_phasors")
        kept = recording_magnitudes(monkeypatch, lambda call: call % grid.size in (0, 1))
        probability_curve(scenario, grid, trials=trials, seed=seed)
        assert exponentials[0] == 2 * 1
        for point, i in ((1, 0), (0, grid.size - 1)):
            calls = sorted(call for call in kept if call % grid.size == point)
            gains = np.concatenate([kept[call] for call in calls]) ** 2 / 3**2
            assert np.max(np.abs(gains - gains_at(a, grid[i]))) <= (-q + i) * 2e-16

    def test_log_grid_pays_one_exponential_a_step(self, monkeypatch):
        scenario = ArrayScenario(n_nodes=4)
        monkeypatch.setattr(channel, "_WORKERS", 1)  # one chunk a task
        monkeypatch.setattr(coherence, "_CHUNK_PHASE_ERRORS", 4 * 40)
        exponentials = counting(monkeypatch, "_unit_phasors")
        probability_curve(scenario, np.geomspace(0.005, 0.3, 40), trials=100, seed=2)
        assert exponentials[0] == 3 * (1 + 39)

    @pytest.mark.parametrize("nodes", [2, 3, 16, 1000])
    @pytest.mark.parametrize("threshold", [1e-300, 0.5, 0.7, 0.9, 1.0 - 2**-53, 1.0])
    def test_magnitude_floor_is_the_gains_threshold(self, nodes, threshold):
        floor = coherence._magnitude_floor(threshold, nodes)
        below = np.nextafter(floor, 0.0)
        gain = np.abs(np.array([below, floor])) ** 2 / nodes**2  # coherent_gain's formula
        assert gain[0] < threshold <= gain[1]

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, math.nan])
    def test_rejects_threshold_outside_gain_range(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            probability_curve(ArrayScenario(n_nodes=2), [0.05], threshold=threshold)


_erf = np.frompyfunc(math.erf, 1, 1)


def two_node_probability(sigma_over_lambda, threshold=0.9, nodes=200):
    """Exact two-node ``P(G_c >= threshold)`` of the coherence module's model.

    ``G_c = cos(eps/2)**2`` with ``eps ~ N(0, s**2)`` and ``s = 2 pi
    (sigma_d/lambda) (1 + sin theta)`` reaches ``threshold`` on the wraps
    ``|eps - 2 pi m| <= 2 acos(sqrt(threshold))``: given theta, a sum of
    normal-CDF differences, here over ``|m| <= 6`` (10 s or more up to
    sigma_d/lambda = 0.3), averaged over theta uniform on (-pi/2, pi/2)
    by Gauss-Legendre nodes.
    """
    x, weights = np.polynomial.legendre.leggauss(nodes)
    s = 2 * math.pi * sigma_over_lambda * (1.0 + np.sin(x * math.pi / 2)) * math.sqrt(2.0)
    half, wraps = 2.0 * math.acos(math.sqrt(threshold)), 2 * math.pi * np.arange(-6, 7)[:, None]
    inside = (_erf((wraps + half) / s) - _erf((wraps - half) / s)).astype(float)
    return float(np.dot(weights, inside.sum(axis=0)) / 4)


class TestTwoNodeOracle:
    """The Monte Carlo and the shipped two-node table against the exact integral."""

    def test_oracle_converges(self):
        for sigma in (0.02, 0.0725, 0.3):
            assert two_node_probability(sigma) == pytest.approx(
                two_node_probability(sigma, nodes=400), abs=1e-12
            )
        assert two_node_probability(1e-4) == pytest.approx(1.0, abs=1e-12)

    def test_table_matches_oracle(self):
        for level, table in coherence.TWO_NODE_SIGMA_OVER_LAMBDA.items():
            lo, hi = 0.01, 0.3  # bisection: the probability falls with sigma
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if two_node_probability(mid) > level else (lo, mid)
            assert table == pytest.approx(lo, rel=0.02)

    def test_curve_within_four_standard_errors(self):
        grid = np.linspace(0.02, 0.16, 57)  # the benchmark's two-node curve
        y = probability_curve(ArrayScenario(n_nodes=2), grid, trials=10000, seed=1)
        exact = np.array([two_node_probability(sigma) for sigma in grid])
        assert np.all(np.abs(y - exact) <= 4 * binomial_standard_error(exact, 10000))


class TestStandardErrors:
    def test_binomial_standard_error(self):
        se = binomial_standard_error([0.0, 0.5, 0.9, 1.0], 400)
        assert np.allclose(se, [0.0, 0.025, 0.015, 0.0], rtol=1e-12, atol=0.0)

    def test_crossing_error_is_level_error_over_segment_slope(self):
        # Y falls with slope -2 on [0, 0.1] and -4 on [0.1, 0.2]
        grid, y = [0.0, 0.1, 0.2], [1.0, 0.8, 0.4]
        out = crossing_standard_errors(grid, y, 100, levels=(0.9, 0.7))
        assert out[0.9] == pytest.approx(math.sqrt(0.9 * 0.1 / 100) / 2, rel=1e-12)
        assert out[0.7] == pytest.approx(math.sqrt(0.7 * 0.3 / 100) / 4, rel=1e-12)
        assert crossing_standard_errors(grid[::-1], y[::-1], 100, levels=(0.9, 0.7)) == out

    def test_nan_where_not_crossed_or_flat(self):
        out = crossing_standard_errors([0.01, 0.02], [0.5, 0.4], 1000, levels=(0.9,))
        assert math.isnan(out[0.9])
        # the level is the flat top of the curve: crossed, but with no slope
        grid, y = [0.0, 0.05, 0.1], [1.0, 1.0, 0.5]
        assert threshold_crossings(grid, y, levels=(1.0,))[1.0] == 0.0
        assert math.isnan(crossing_standard_errors(grid, y, 1000, levels=(1.0,))[1.0])
        assert math.isnan(crossing_standard_errors([0.05], [0.9], 1000, levels=(0.9,))[0.9])


class TestMaxCoherentFrequency:
    def test_reference_point_10mm(self):
        # 0.0495 / 0.0725 / 0.1040 wavelengths at 10 mm
        freqs = {p: max_coherent_frequency(0.010, p) for p in (0.9, 0.8, 0.7)}
        assert freqs[0.9] == pytest.approx(0.0495 * SPEED_OF_LIGHT / 0.010, rel=1e-12)
        assert freqs[0.9] == pytest.approx(1.48e9, rel=0.01)
        assert freqs[0.8] == pytest.approx(2.17e9, rel=0.01)
        assert freqs[0.7] == pytest.approx(3.12e9, rel=0.01)

    def test_inverse_proportionality(self):
        assert max_coherent_frequency(0.005, 0.9) == pytest.approx(
            2 * max_coherent_frequency(0.010, 0.9), rel=1e-12
        )

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            max_coherent_frequency(0.010, 0.95)
        with pytest.raises(ValueError):
            max_coherent_frequency(0.0, 0.9)
