"""Simulator: determinism, degenerate regimes, batch sums, diagnostics."""

import dataclasses
import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from erw import (
    ConditionalStepMoments,
    StepDistribution,
    batch_epsilon_moments,
    check_checkpoints,
    cluster_batch,
    conditional_continuation_test,
    conditional_step_moments,
    empirical_q_moments,
    exact_moments_upto,
    moment_set,
    simulate_path,
)
import erw.distributions as distributions
import erw.simulate as sim
from erw.distributions import inverse_cdf
from erw.rng import (
    MASK64, mix64, mixed_words, parse_seed, replicate_key, replicate_keys, uniform_draw,
    uniform_draws, unit_floats, words_below,
)
from erw.simulate import WalkState, layout_moments, marginal_moment_sums, z_score
from erw.verify import cluster_label_mismatches, compare_with_exact, founder_rows
from literal_batch import _checkpoint_sums, simulate_batch

LAWS = (
    StepDistribution.rademacher(),
    StepDistribution.bernoulli(0.3),
    StepDistribution.uniform(-1.0, 2.0),
    StepDistribution.gaussian(0.5, 2.0),
    StepDistribution.discrete((-1.0, 2.0, 5.0), (0.6, 0.4, 0.0)),
)


#: The columns of the oracles' power sums (p = 1..8) that make the one
#: layout of every Monte Carlo sum: p = 1..4, then 2p for p = 1..4.
_LAYOUT = [0, 1, 2, 3, 1, 3, 5, 7]


class _PowerCollector:
    """Test oracle: per-step power sums (p = 1..8) of one value per walk and
    step, fed one step at a time; `value(t, x, s_tilde_prev)` gives step
    t's values from its steps x and the previous centered sums."""

    def __init__(self, n: int, value):
        self.value = value
        self.sums = np.zeros((n, 8))

    def collect(self, t, x, s_tilde_prev, s_tilde):
        values = self.value(t, x, s_tilde_prev)
        row = self.sums[t - 1]
        p = values.copy()
        for k in range(8):
            row[k] += p.sum()
            if k < 7:
                p *= values


def _epsilon(alpha: float, m1: float):
    """Test oracle: the martingale difference eps_1 = X_1 - m1 and
    eps_t = X_t - m1 - (alpha/(t-1)) S~_{t-1}, as a collector's value."""

    def value(t, x, s_tilde_prev):
        if t == 1:
            return x - m1
        return x - m1 - (alpha / (t - 1)) * s_tilde_prev

    return value


def _reference_run_paths(dist, ms, alpha, n, keys, checkpoint_index=None,
                         collectors=(), keep_steps=False):
    """Test oracle: the simulator loop that draws one step at a time and
    computes every statistic inside it, through the collectors above.

    `_run_paths` draws a block of steps at a time and only builds the step
    matrix; the statistics computed from that matrix afterwards must
    reproduce this loop's output bit for bit.
    """
    width = keys.size
    steps = np.empty((n, width), dtype=np.float64)
    key_list = [int(key) for key in keys]
    below = math.nextafter(alpha, -math.inf)  # the fresh map's shifted alpha
    s_run = np.zeros(width, dtype=np.float64)
    power_sums = (
        np.zeros((len(checkpoint_index), 8), dtype=np.float64)
        if checkpoint_index
        else None
    )
    collectors = tuple(collectors)
    s_tilde_prev = None
    m1 = ms.m1

    for t in range(1, n + 1):
        # one draw per step: u < alpha repeats (never at t = 1) and copies
        # row floor((u/alpha)(t-1)), at most t-2; otherwise the step samples
        # at (u - a)/(1 - a), a the double below alpha, or at u for t = 1
        us = [uniform_draw(key, t - 1) for key in key_list]
        repeats = [t > 1 and u < alpha for u in us]
        v = [u if t == 1 or repeat else (u - below) / (1.0 - below)
             for u, repeat in zip(us, repeats)]
        x = inverse_cdf(dist, np.array(v))
        for j, (u, repeat) in enumerate(zip(us, repeats)):
            if repeat:
                x[j] = steps[min(int(u * ((t - 1) / alpha)), t - 2), j]
        steps[t - 1] = x
        s_run += x
        s_tilde = s_run - t * m1
        for collector in collectors:
            collector.collect(t, x, s_tilde_prev, s_tilde)
        if checkpoint_index is not None and t in checkpoint_index:
            row = power_sums[checkpoint_index[t]]
            p = s_tilde.copy()
            for k in range(8):
                row[k] += p.sum()
                if k < 7:
                    p *= s_tilde
        s_tilde_prev = s_tilde

    return power_sums, (steps if keep_steps else None)


class TestRng:
    def test_mix64_goldens(self):
        # pinned so an accidental change to the stream is caught loudly
        assert mix64(0) == 0
        assert mix64(1) == 0x5692161D100B05E5
        assert replicate_key(0, 0) == 0x48218226FF3CD4BF
        assert replicate_key(2024, 5) == 0xA89877F3E466FDDA
        assert uniform_draw(1, 0) == 0.566561575172281
        assert uniform_draw(0xDEADBEEF, 3) == 0.45469370192939135

    def test_vector_scalar_agree(self):
        keys = replicate_keys(977, 3, 5)
        for offset, key in enumerate(keys):
            assert int(key) == replicate_key(977, 3 + offset)
        vec = uniform_draws(keys, 11)
        for offset, key in enumerate(keys):
            assert vec[offset] == uniform_draw(int(key), 11)

    def test_counter_array_stacks_scalar_calls(self):
        keys = replicate_keys(977, 3, 5)
        big = [0, 1, 11, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 12345, 2 ** 64 - 1]
        for counters in (np.array(big, dtype=np.uint64), np.arange(2, 9)):
            block = uniform_draws(keys, counters)
            expected = np.stack([uniform_draws(keys, int(c)) for c in counters])
            assert block.shape == (len(counters), keys.size)
            assert block.tobytes() == expected.tobytes()

    def test_uniforms_in_half_open_unit_interval(self):
        # the documented contract is (0, 1]: the top 53-bit integer maps to
        # exactly 1.0 (the +0.5 rounds to even), with probability 2^-53
        assert ((2 ** 53 - 1) + 0.5) * 2.0 ** -53 == 1.0
        keys = replicate_keys(5, 0, 10_000)
        u = uniform_draws(keys, 0)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    @pytest.mark.parametrize("alpha", [
        0.0, 2.0**-60, 1e-9, 0.25, 1 / 3, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
        0.75, 1 - 2.0**-53, 1.0,
    ])
    def test_word_bound_is_the_float_rule(self, alpha):
        # the engine's branch test `word < words_below(alpha)` against
        # u < alpha for the 53-bit integers k around the bound, each at
        # its lowest and highest word; from 1/2 up, k + 0.5 rounds to even
        bound = words_below(alpha)
        K = bound >> 11
        assert bound == K << 11
        ks = [k for k in range(K - 2, K + 2) if 0 <= k < 2**53]
        words = np.array([(k << 11) | low for k in ks for low in (0, 2**11 - 1)], dtype=np.uint64)
        by_word = words < np.uint64(bound)
        by_float = [(k + 0.5) * 2.0**-53 < alpha for k in ks for _ in range(2)]
        assert by_word.tolist() == by_float
        assert (unit_floats(words.copy()) < alpha).tolist() == by_float, alpha

    def test_top_word_is_never_a_repeat(self):
        # k = 2**53 - 1 gives u = 1.0, which is not below alpha = 1
        top = np.array([MASK64], dtype=np.uint64)
        assert unit_floats(top.copy())[0] == 1.0
        assert words_below(1.0) == (2**53 - 1) << 11
        assert not (top < np.uint64(words_below(1.0)))[0]
        # from 2**52 up, k + 0.5 is a tie that rounds to even: at alpha =
        # 0.75 the odd k = 3 * 2**51 - 1 rounds up to the bound itself
        assert words_below(0.75) == (3 * 2**51 - 1) << 11

    def test_parse_seed(self):
        assert parse_seed("123") == 123
        assert parse_seed("0xff") == 255
        assert parse_seed(str(2 ** 70)) == (2 ** 70) % (2 ** 64)
        with pytest.raises(ValueError):
            parse_seed("-5")


class TestSimulatePath:
    def test_deterministic(self, bernoulli03):
        a = simulate_path(bernoulli03, 0.75, 200, 42)
        b = simulate_path(bernoulli03, 0.75, 200, 42)
        assert np.array_equal(a.steps, b.steps)
        assert a.s_tilde == b.s_tilde

    def test_seed_changes_path(self, bernoulli03):
        a = simulate_path(bernoulli03, 0.75, 200, 42)
        b = simulate_path(bernoulli03, 0.75, 200, 43)
        assert not np.array_equal(a.steps, b.steps)

    def test_full_memory_repeats_first_step(self, skewed_two_point):
        ms = moment_set(skewed_two_point)
        for seed in (1, 2, 3, 4):
            state = simulate_path(skewed_two_point, 1.0, 100, seed)
            assert np.all(state.steps == state.steps[0])
            assert state.s_tilde == pytest.approx(
                100 * (state.steps[0] - ms.m1), rel=1e-12
            )

    def test_walk_state_invariants(self, uniform01):
        ms = moment_set(uniform01)
        state = simulate_path(uniform01, 0.6, 500, 7)
        steps = np.asarray(state.steps)
        assert state.s_tilde == pytest.approx(steps.sum() - 500 * ms.m1, rel=1e-9)
        assert state.t_tilde == pytest.approx((steps ** 2).sum() - 500 * ms.m2, rel=1e-9)
        assert state.u_tilde == pytest.approx((steps ** 3).sum() - 500 * ms.m3, rel=1e-9)

    def test_rejects_bad_n(self, rademacher):
        with pytest.raises(ValueError):
            simulate_path(rademacher, 0.5, 0, 1)


class TestBlockedDraws:
    """The step matrix and every statistic against the step-at-a-time oracle,
    byte for byte."""

    # (width, block budget): a small budget puts the block edges of the
    # narrow widths at n in the hundreds; None keeps the module's budget
    @pytest.mark.parametrize("width,budget", [(1, 600), (7, 600), (300, 600), (300, None)])
    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind)
    def test_matches_step_at_a_time_oracle(self, dist, width, budget, monkeypatch):
        self._check_against_oracle(dist, 0.6, width, budget, monkeypatch)

    # no repeats, some, and every step a repeat but u = 1.0's
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("width,budget", [(1, 600), (7, 600), (300, 600), (300, None)])
    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind)
    def test_matches_oracle_at_other_alphas(self, dist, width, budget, alpha, monkeypatch):
        self._check_against_oracle(dist, alpha, width, budget, monkeypatch)

    @staticmethod
    def _check_against_oracle(dist, alpha, width, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", budget)
        ms = moment_set(dist)
        seed = 2718
        keys = replicate_keys(seed, 0, width)
        rows = max(1, sim._BLOCK_ELEMENTS // width)
        for n in (1, 2, rows - 1, rows, rows + 1, 2 * rows + 3):
            cps = sorted({1, 2, rows - 1, rows, rows + 1, n} & set(range(1, n + 1)))
            cpi = {c: i for i, c in enumerate(cps)}
            eps = _PowerCollector(n, _epsilon(alpha, ms.m1))
            marginal = _PowerCollector(n, lambda t, x, s_tilde_prev: x)
            ref_sums, ref_steps = _reference_run_paths(
                dist, ms, alpha, n, keys, checkpoint_index=cpi,
                collectors=(eps, marginal), keep_steps=True,
            )
            where = (dist.kind, width, n)

            steps = sim._run_paths(dist, alpha, n, keys)
            assert steps.tobytes() == ref_steps.tobytes(), where
            ref_sums = ref_sums[:, _LAYOUT]
            assert _checkpoint_sums(steps, ms.m1, cpi).tobytes() == ref_sums.tobytes(), where
            sums = simulate_batch(dist, alpha, n, width, seed, cps)
            assert sums.tobytes() == ref_sums.tobytes(), where

            for (got,), ref in (
                (batch_epsilon_moments([dist], alpha, n, width, seed), eps),
                (marginal_moment_sums([dist], alpha, n, width, seed), marginal),
            ):
                assert got.tobytes() == ref.sums[:, _LAYOUT].tobytes(), where

    @pytest.mark.parametrize("alpha,t", [(0.9, 2), (0.6, 42)])
    def test_rounded_up_index_copies_the_step_before(self, alpha, t, monkeypatch):
        # the largest uniform below alpha repeats, and at these steps its
        # (u/alpha)(t-1) rounds up to t-1, the step itself; the cap makes
        # it copy step t-1 (0-based t-2).  Every other step is fresh, so
        # its label is its ordinal: its row up to t-2, one less beyond.
        word = ((words_below(alpha) >> 11) - 1) << 11
        u = unit_floats(np.array([word], dtype=np.uint64))[0]
        assert u < alpha and u * ((t - 1) / alpha) >= t - 1

        def words(keys, counter):
            top = np.full(np.shape(counter) + keys.shape, MASK64, dtype=np.uint64)
            top[np.asarray(counter) == t - 1] = word
            return top

        monkeypatch.setattr(sim, "mixed_words", words)
        labels = sim._run_labels(alpha, t + 1, replicate_keys(3, 0, 4))
        assert (labels[:, 0] == [*range(t - 1), t - 2, t - 1]).all()
        assert (labels == labels[:, :1]).all()

    def test_chunk_spans_cover_replicates_in_order(self, monkeypatch):
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", 1000)
        assert list(sim._chunk_spans(300, 10)) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert list(sim._chunk_spans(5000, 2)) == [(0, 1), (1, 2)]
        assert list(sim._chunk_spans(10, 7)) == [(0, 7)]

    def test_chunk_spans_are_lazy(self):
        # 10**12 one-walk chunks: a list of them would not fit in memory
        spans = sim._chunk_spans(sim._CHUNK_TARGET_ELEMENTS, 10**12)
        assert next(spans) == (0, 1) and next(spans) == (1, 2)

    def test_batch_step_bytes(self, monkeypatch):
        fixed = sim._SIZE_PASS_FIXED_BYTES
        spare = sim._SIZE_PASS_VALUES_PER_WALK
        # the mc shape: one chunk of 2000 walks with 2-byte labels to
        # n = 3000, and a tile of 128 walks with 2-byte counts, an index
        # block and two power blocks of 128 rows (12.6 MiB; 23.2 MiB when
        # a tile took 32 bytes per walk-step)
        assert sim.batch_step_bytes(3000, 2000, 3000) == (
            2 * 3000 * 2000 + 128 * (2 * 3000 + 8 * (3 * 128 + spare)) + fixed
        ) == 13_246_208
        # walks of 1e6 steps run 8 per chunk, with 4-byte labels and counts
        # and blocks of 2048 rows (64.5 MB; 288 MB at 32 bytes per walk-step)
        assert sim.batch_step_bytes(10**6, 8, 10**6) == (
            4 * 8 * 10**6 + 8 * (4 * 10**6 + 8 * (3 * 2048 + spare)) + fixed
        ) == 64_467_648
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", 1000)
        pool = sim._POOL_SPAN_BYTES
        # one-walk chunks: the labels hold the last checkpoint - 1 and the
        # counts the last checkpoint, each in the narrowest unsigned type;
        # a block holds at most _BLOCK_ELEMENTS rows of one walk
        for last, label_size, count_size in (
            (255, 1, 1), (256, 1, 2), (257, 2, 2),
            (65_535, 2, 2), (65_536, 2, 4), (65_537, 4, 4),
        ):
            rows = min(sim._BLOCK_ELEMENTS, last)
            assert sim.batch_step_bytes(last, 1, last) == (
                label_size * last + count_size * last + 8 * (3 * rows + spare) + fixed
            ), last
        # chunks of 3 walks: labels (2 bytes to 300, 1 byte to 50) with as
        # many rows as the last checkpoint, and a tile of 3 walks whose
        # blocks hold every row, per busy worker; a pool also holds a
        # record of each of the 4 chunks
        tile_300 = 3 * (2 * 300 + 8 * (3 * 300 + spare)) + fixed
        tile_50 = 3 * (1 * 50 + 8 * (3 * 50 + spare)) + fixed
        assert sim.batch_step_bytes(300, 10, 300) == 2 * 300 * 3 + tile_300
        assert (sim.batch_step_bytes(300, 10, 50, workers=2)
                == (1 * 50 * 3 + tile_50) * 2 + 4 * pool)
        # four chunks keep at most four workers busy
        assert (sim.batch_step_bytes(300, 10, 50, workers=64)
                == (1 * 50 * 3 + tile_50) * 4 + 4 * pool)
        # a walk longer than the target is a chunk of its own
        tile_5000 = 2 * 5000 + 8 * (3 * 5000 + spare) + fixed
        assert (sim.batch_step_bytes(5000, 2, 5000, workers=2)
                == (2 * 5000 + tile_5000) * 2 + 2 * pool)
        # one worker runs the chunks in a loop and keeps no record of them;
        # a tile holds at most _TILE_WALKS walks
        assert sim.batch_step_bytes(1, 10**12, 1) == (
            1 * 1000 + sim._TILE_WALKS * (1 + 8 * (3 * 1 + spare)) + fixed
        )

    def test_labels_within_label_bytes(self):
        # the mc shape: the label matrix is the label term of
        # batch_step_bytes, and the only other arrays alive are `cols` (8
        # bytes per walk) and one block of draws.  The previous block is
        # freed before the next is drawn, and while one is drawn at most
        # two 8-byte arrays and the 1-byte `fresh` are alive (the words
        # and a shift of them, the words and u), 17 bytes per element of a
        # block; scaling u by a column fills a 64 KiB buffer, 4.1 more at
        # 16,000 elements: 21.16-21.25 measured.  The sources are then
        # made in place in the words' buffer.  With 4-byte labels the peak
        # would be 12 MB higher.
        n, width = 3000, 2000
        label_term = (sim.batch_step_bytes(n, width, n)
                      - sim._size_pass_bytes(sim._TILE_WALKS, n))
        block = 21.3 * sim._block_rows(width) * width + 8 * width
        keys = replicate_keys(1, 0, width)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            labels = sim._run_labels(0.75, n, keys)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert labels.dtype == np.uint16 and labels.nbytes == label_term
        assert label_term < peak <= label_term + block

    @pytest.mark.parametrize("law,sampler_bytes", [
        (StepDistribution.bernoulli(0.3), 1 + 8),
        (StepDistribution.discrete((-1.0, 2.0), (0.6, 0.4)), 1 + 1 + 8 + 8),
    ])
    def test_paths_within_step_bytes(self, law, sampler_bytes):
        # check_marginal_moments' shape and laws, one step per block: the
        # step matrix, `cols` (8 bytes per walk) and one block of draws.
        # The peak is while the fresh values are sampled: the words (which
        # hold the fresh uniforms v), `fresh` and u (17 bytes per element)
        # and the sampler's own arrays, for Bernoulli the comparison and
        # the values, for a discrete law the uint8 count, the comparison,
        # the count cast to intp by `take` and the values.  16 KiB more
        # holds the small arrays and Python objects of a step, which vary
        # from run to run: 26.30-26.44 and 35.24-36.03 bytes per element
        # were measured in all
        n, width = 100, 10_000
        keys = replicate_keys(31, 0, width)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            steps = sim._run_paths(law, 0.75, n, keys)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sim._block_rows(width) == 1 and steps.nbytes == 8 * n * width
        block = (17 + sampler_bytes) * width + 8 * width + 16384
        assert steps.nbytes < peak <= steps.nbytes + block

    def test_laws_share_one_uniform_matrix(self):
        # check_marginal_moments' call: its two laws sample one chunk's
        # uniform matrix a block at a time, so the peak is one matrix and
        # per-block temporaries, within the single-law bound above (the
        # discrete law's) and one float64 block more for the second law.
        # It is reached while the uniforms are gathered: the matrix and
        # 33.5 bytes per walk (the words, u, `fresh`, `cols` and the keys)
        n, width = 100, 10_000
        laws = (StepDistribution.bernoulli(0.3), StepDistribution.discrete((-1.0, 2.0), (0.6, 0.4)))
        marginal_moment_sums(laws, 0.75, 10, 10, 31)  # first-call allocations aside
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sums = marginal_moment_sums(laws, 0.75, n, width, 31)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sim._block_rows(width) == 1 and len(sums) == len(laws)
        matrix = 8 * n * width
        single = (17 + 1 + 1 + 8 + 8) * width + 8 * width + 16384
        assert matrix < peak <= matrix + single + 8 * width * (len(laws) - 1)

    @pytest.mark.parametrize("width,checkpoints", [
        (2000, (1000, 3000)), (128, (10, 20, 3000)), (50, (1500, 3000)), (40, (70_000,)),
    ])
    def test_size_pass_within_tile_bytes(self, width, checkpoints):
        # the arrays the size pass allocates, measured, against its term
        # of batch_step_bytes, which they fill to within 2%: 1.25 MB at
        # the mc shape and 11.7 MB for 40 walks to n = 70,000, where the
        # int64 counts and float64 (c x 128) arrays took 10.3 MB and 67 MB
        ms = moment_set(StepDistribution.rademacher())
        labels = sim._run_labels(0.75, checkpoints[-1], replicate_keys(1, 0, width))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sim._cluster_sums(labels, ms, checkpoints)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        tile = sim._size_pass_bytes(min(width, sim._TILE_WALKS), checkpoints[-1])
        assert 0.98 * tile < peak <= tile


def _binary_search_law() -> StepDistribution:
    """A discrete law one atom wider than `inverse_cdf` counts by
    comparisons, so it samples by np.searchsorted."""
    atoms = distributions._COMPARE_ATOMS + 1
    weights = np.random.default_rng(5).random(atoms)
    return StepDistribution.discrete(np.linspace(-2.0, 3.0, atoms), weights / math.fsum(weights))


#: One law of each sampler branch: the two-point kinds, the continuous
#: ones, a discrete law counted by comparisons and one by binary search.
SHARED_LAWS = (
    StepDistribution.rademacher(),
    StepDistribution.bernoulli(0.3),
    StepDistribution.uniform(-1.0, 2.0),
    StepDistribution.gaussian(0.5, 2.0),
    StepDistribution.discrete((-1.0, 2.0), (0.6, 0.4)),
    _binary_search_law(),
)


class TestSharedUniforms:
    """The fill knows no law: every law samples the gathered uniforms after
    the gather, and laws that share the draws share one fill."""

    def test_wide_law_takes_binary_search(self):
        weights = np.asarray(SHARED_LAWS[-1].weights)
        assert np.flatnonzero(weights)[-1] >= distributions._COMPARE_ATOMS

    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("width,budget", [(1, 600), (7, 600), (300, 600), (300, None)])
    def test_paths_are_sampled_uniforms(self, width, budget, alpha, monkeypatch):
        # the step matrix is the law's inverse CDF of the whole uniform
        # matrix, byte for byte, for walks that end before, at and after
        # a block edge
        if budget is not None:
            monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", budget)
        keys = replicate_keys(2718, 0, width)
        rows = sim._block_rows(width)
        for n in sorted({1, 2, max(1, rows - 1), rows, rows + 1, 2 * rows + 3}):
            uniforms = sim._run_uniforms(alpha, n, keys)
            for dist in SHARED_LAWS:
                steps = sim._run_paths(dist, alpha, n, keys)
                assert steps.tobytes() == inverse_cdf(dist, uniforms).tobytes(), (dist.kind, n)

    # (steps, walks, walks per chunk, steps per block): one chunk and
    # one block, then ragged chunks and blocks, then one-walk chunks
    @pytest.mark.parametrize("n,replicates,chunk,rows", [
        (20, 9, 9, 20), (37, 50, 16, 6), (37, 50, 7, 1), (12, 5, 1, 5),
    ])
    @pytest.mark.parametrize("statistic", [batch_epsilon_moments, marginal_moment_sums],
                             ids=["epsilon", "marginal"])
    def test_batch_of_laws_matches_each_law_alone(
        self, statistic, n, replicates, chunk, rows, monkeypatch
    ):
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", n * chunk)
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", rows * chunk)
        assert sim._chunk_width(n, replicates) == chunk and sim._block_rows(chunk) == rows
        batch = statistic(SHARED_LAWS, 0.6, n, replicates, 41)
        reverse = statistic(SHARED_LAWS[::-1], 0.6, n, replicates, 41)[::-1]
        assert len(batch) == len(reverse) == len(SHARED_LAWS)
        for dist, sums, backwards in zip(SHARED_LAWS, batch, reverse):
            (alone,) = statistic([dist], 0.6, n, replicates, 41)
            assert sums.shape == (n, 8)
            assert sums.tobytes() == alone.tobytes() == backwards.tobytes(), dist.kind


class TestBatch:
    def test_single_replicate_matches_path(self, bernoulli03):
        sums = simulate_batch(bernoulli03, 0.6, 50, 1, 999, [25, 50])
        state = simulate_path(bernoulli03, 0.6, 50, replicate_key(999, 0))
        ms = moment_set(bernoulli03)
        prefix = WalkState.from_steps(state.steps[:25], ms)
        mean, _ = layout_moments(sums, 1)
        for p in range(1, 5):
            for row, walk in ((1, state), (0, prefix)):
                assert mean[row, p - 1] == pytest.approx(walk.s_tilde ** p, rel=1e-12)
                # one walk: the sum of squares is its square
                assert sums[row, p + 3] == pytest.approx(walk.s_tilde ** (2 * p), rel=1e-12)

    def test_chunks_added_in_span_order(self, bernoulli03, monkeypatch):
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", 80 * 128)
        sums = simulate_batch(bernoulli03, 0.7, 80, 700, 5, [40, 80])
        ms = moment_set(bernoulli03)
        total = np.zeros((2, 8))
        for span in sim._chunk_spans(80, 700):
            steps = sim._run_paths(bernoulli03, 0.7, 80, sim._chunk_keys(5, span))
            total += _checkpoint_sums(steps, ms.m1, {40: 0, 80: 1})
        assert sums.tobytes() == total.tobytes()

    @pytest.mark.parametrize("dist,alpha,checkpoints,seed,digest", [
        (StepDistribution.rademacher(), 0.75, [100, 200], 0xFEED,
         "17fcd1853f64cd8e5bd4d5f000d70d58c2f687482960d5758e12c56c7d78e2ca"),
        (StepDistribution.discrete((-1.0, 2.0), (0.6, 0.4)), 0.6, [50, 200], 7,
         "1357bc2ba1162d723467bfdd1da8ee9f103d30228de46cd0c37329b8cfd5abc6"),
    ], ids=["rademacher", "skewed"])
    def test_golden_power_sums(self, dist, alpha, checkpoints, seed, digest):
        # the literal engine's sums of S~^p and S~^(2p), pinned across
        # versions; the digests are of the same doubles as the eight power
        # sums pinned before the one layout (their columns 0,1,2,3,1,3,5,7)
        sums = simulate_batch(dist, alpha, 200, 500, seed, checkpoints)
        assert hashlib.sha256(sums.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("dist,alpha,seed,eps_digest,marginal_digest", [
        (StepDistribution.rademacher(), 0.75, 0xFEED,
         "53935fafca3902647b6569ce7960d9b6db937dde275a2d588d6972bd8eba1f89",
         "0b013935e1abc585f38608755c8a3d0b78827aa4ec1a87806d212772be5e2057"),
        (StepDistribution.discrete((-1.0, 2.0), (0.6, 0.4)), 0.6, 7,
         "c8b7fc07000515a174510307bb971ddc3176c73b2cf40746c6c5aa110288d865",
         "cfd8622ff68d3ee72d09b1a13c0ecdb8202a2f20d195f9da33c331f2b5935126"),
    ], ids=["rademacher", "skewed"])
    def test_golden_step_sums(self, dist, alpha, seed, eps_digest, marginal_digest):
        # the per-step sums of eps_t and X_t, pinned across versions, at a
        # width whose blocks hold 32 steps; the skewed law also pins the
        # sampler's bytes
        assert sim._block_rows(500) == 32
        (eps,) = batch_epsilon_moments([dist], alpha, 200, 500, seed)
        (marginal,) = marginal_moment_sums([dist], alpha, 200, 500, seed)
        assert hashlib.sha256(eps.tobytes()).hexdigest() == eps_digest
        assert hashlib.sha256(marginal.tobytes()).hexdigest() == marginal_digest

    def test_checkpoint_validation(self, rademacher):
        # one rule, `check_checkpoints`, for both engines and the CLI
        for bad in ([30, 20], [5, 5], [0, 5], [-3, 5], [], [1.7, 3], [1, 5.0], ["5"],
                    [True, 5]):
            with pytest.raises(ValueError, match=r"^checkpoints: must be distinct positive"):
                check_checkpoints(bad)
            for engine in (simulate_batch, cluster_batch):
                with pytest.raises(ValueError, match=r"^checkpoints: must be distinct positive"):
                    engine(rademacher, 0.5, 10, 5, 1, bad)
        for engine in (simulate_batch, cluster_batch):
            with pytest.raises(ValueError,
                               match=r"^checkpoints: must lie in \[1, n\] = \[1, 10\], got 20$"):
                engine(rademacher, 0.5, 10, 5, 1, [3, 20])
        assert check_checkpoints([1, np.int64(5)], 5) == (1, 5)
        assert check_checkpoints(range(1, 6)) == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("n,replicates,message", [
        (10, 0, r"^replicates must be >= 1, got 0$"),
        (10, -3, r"^replicates must be >= 1, got -3$"),
        (0, 5, r"^n must be a positive integer, got 0$"),
    ])
    @pytest.mark.parametrize("batch", [
        lambda n, reps: simulate_batch(StepDistribution.bernoulli(0.3), 0.75, n, reps, 1, [1]),
        lambda n, reps: cluster_batch(StepDistribution.bernoulli(0.3), 0.75, n, reps, 1, [1]),
        lambda n, reps: batch_epsilon_moments([StepDistribution.bernoulli(0.3)], 0.75, n, reps, 1),
        lambda n, reps: marginal_moment_sums([StepDistribution.bernoulli(0.3)], 0.75, n, reps, 1),
    ], ids=["simulate_batch", "cluster_batch", "batch_epsilon_moments", "marginal_moment_sums"])
    def test_empty_batches_refused(self, batch, n, replicates, message):
        # every batch statistic goes through one driver, which refuses an
        # empty batch before any chunk runs
        with pytest.raises(ValueError, match=message):
            batch(n, replicates)

    @pytest.mark.slow
    def test_memoryless_variance_linear(self, bernoulli03):
        # independent steps: Var(S_n) = n M2; 1e5 replicates at n = 1000
        ms = moment_set(bernoulli03)
        sums = simulate_batch(bernoulli03, 0.0, 1000, 100_000, 31337, [1000])
        mean, mean_sq = sums[0, [0, 4]] / 100_000
        var = mean_sq - mean * mean
        assert var / 1000 == pytest.approx(ms.M2, rel=0.03)


_ENUMERATION_LAWS = (
    StepDistribution.rademacher(),
    StepDistribution.bernoulli(0.3),
    StepDistribution.discrete((-0.5, 1.0, 3.0), (0.5, 0.3, 0.2)),
)


def _enumerated_label_histories(alpha, n):
    """Test oracle: every label history of n steps, as an (n, histories)
    label matrix, with the probability of each under the step rule."""
    histories = [((0,), 1.0)]
    for t in range(2, n + 1):
        grown = []
        for labels, weight in histories:
            if alpha < 1.0:
                grown.append((labels + (t - 1,), weight * (1.0 - alpha)))
            if alpha > 0.0:
                grown.extend(
                    (labels + (labels[k],), weight * alpha / (t - 1)) for k in range(t - 1)
                )
        histories = grown
    labels = np.array([h for h, _ in histories], dtype=np.int32).T
    return np.ascontiguousarray(labels), np.array([w for _, w in histories])


def _exact_size_sums(labels, checkpoints):
    """Test oracle: the size pass in Python integers.  Each checkpoint's new
    rows are counted in int64 with one `bincount`, and each walk's S_k is
    the sum of m N^k over its histogram of cluster sizes (m clusters of
    size N).  Yields (S2, S3, S4) per checkpoint, each a list of ints, one
    per walk."""
    width = labels.shape[1]
    cols = np.arange(width, dtype=np.int64)
    counts = np.zeros(width * checkpoints[-1], dtype=np.int64)
    start = 0
    for c in checkpoints:
        head = counts[: c * width]
        index = np.multiply(labels[start:c], width, dtype=np.int64)
        index += cols
        head += np.bincount(index.reshape(-1), minlength=c * width)
        start = c
        sums = ([], [], [])
        for walk in head.reshape(c, width).T:
            hist = np.bincount(walk)
            sizes = np.flatnonzero(hist)
            pairs = list(zip(hist[sizes].tolist(), sizes.tolist()))
            for k, out in zip((2, 3, 4), sums):
                out.append(sum(m * size**k for m, size in pairs))
        yield sums


def _rounded_exact_size_sums(labels, checkpoints):
    """The exact sums of `_exact_size_sums`, each rounded once to float64."""
    for sums in _exact_size_sums(labels, checkpoints):
        yield tuple(np.array(sums, dtype=np.float64))


def _assert_size_pass_matches_oracle(labels, ms, checkpoints, monkeypatch):
    """Below 2**16 steps the size sums, and the engine's sums made from
    them, are the bytes of the exact integers rounded once to float64.
    Beyond, S_k is a float64 sum of c rounded terms, within the standard
    bound (c + 3) 2**-53 of the exact sum."""
    where = (labels.shape, checkpoints[-1])
    got = sim._cluster_size_sums(labels, checkpoints)
    for c, sums, exact in zip(checkpoints, got, _exact_size_sums(labels, checkpoints), strict=True):
        if checkpoints[-1] < 2**16:
            assert np.stack(sums).tobytes() == np.array(exact, dtype=np.float64).tobytes(), where
            continue
        for value, want in zip(np.stack(sums).ravel().tolist(), itertools.chain(*exact)):
            assert abs(int(value) - want) * 2**53 <= (c + 3) * want, (where, c)
    if checkpoints[-1] < 2**16:
        sums = sim._cluster_sums(labels, ms, checkpoints)
        with monkeypatch.context() as patch:
            patch.setattr(sim, "_cluster_size_sums", _rounded_exact_size_sums)
            assert sums.tobytes() == sim._cluster_sums(labels, ms, checkpoints).tobytes(), where


class TestSizePass:
    """The size pass in narrow counts and row blocks against exact integer
    sums."""

    @pytest.mark.parametrize("alpha,n,width,checkpoints,seed,digest", [
        (0.75, 3000, 2000, (1000, 3000), 1, None),
        (0.3, 3000, 1000, (1000, 3000), 1, None),
        (0.75, 3000, 300, tuple(range(30, 3001, 30)), 2, None),
        (0.95, 20_000, 64, (10_000, 20_000), 1, None),
        (0.95, 65_535, 16, (30_000, 65_535), 1, None),
        (1.0, 70_000, 130, (35_000, 70_000), 3, None),
        (0.95, 65_537, 129, (1000, 65_537), 4,
         "cc98055b4a0a9a7c15e585a4c267fad7259c6c57d701d881ef2fbc7a33fd5ebf"),
        (0.99, 70_000, 1, (70_000,), 5, None),
        (0.99, 70_000, 3, (20_000, 70_000), 5, None),
    ], ids=["mc-rademacher", "mc-gaussian", "100-checkpoints", "S4-above-2**53", "last-uint16",
            "alpha1-rounding", "uint32-labels", "one-walk", "three-walks"])
    def test_matches_bincount_oracle(self, alpha, n, width, checkpoints, seed, digest,
                                     monkeypatch):
        # the mc shapes; 100 checkpoints; S4 above 2**53, where float64
        # sums of the terms would round, to the last step of 16-bit counts;
        # and beyond it, float64 sums with 4-byte labels and a tile of one
        # walk, one walk and three walks.  The float sums of uint32-labels
        # are pinned, so that a change of their rounding is declared.
        ms = moment_set(StepDistribution.gaussian(0.5, 2.0))
        labels = sim._run_labels(alpha, n, replicate_keys(seed, 0, width))
        _assert_size_pass_matches_oracle(labels, ms, checkpoints, monkeypatch)
        if digest is not None:
            sums = np.stack([np.stack(s) for s in sim._cluster_size_sums(labels, checkpoints)])
            assert hashlib.sha256(sums.tobytes()).hexdigest() == digest

    def test_float_sums_do_not_depend_on_tile_width(self):
        # above 65,535 steps the sums are float64: a walk's (S2, S3, S4)
        # are the same bytes from a tile of one walk, whose column numpy
        # would add pairwise, and from a tile of three, whose block edges
        # lie elsewhere
        n = 70_000
        labels = sim._run_labels(0.99, n, replicate_keys(5, 0, 3))
        wide = next(sim._cluster_size_sums(labels, (n,)))
        for j in range(3):
            alone = next(sim._cluster_size_sums(labels[:, j : j + 1], (n,)))
            assert np.stack(alone)[:, 0].tobytes() == np.stack(wide)[:, j].tobytes(), j

    @pytest.mark.parametrize("alpha,n,width,checkpoints", [
        (0.75, 3000, 130, (1000, 3000)),
        (0.99, 70_000, 3, (20_000, 70_000)),
        (0.3, 70_000, 2, (5, 70_000)),
    ], ids=["uint16", "uint32-few-founders", "uint32-many-founders"])
    def test_row_and_ordinal_labels_give_the_same_sums(self, alpha, n, width, checkpoints):
        # the size pass reads any labels: the founder rows that the labels
        # name give the bytes of the ordinals, in the labels' type and in int32
        keys = replicate_keys(14, 0, width)
        ordinals = sim._run_labels(alpha, n, keys)
        rows = founder_rows(ordinals, uniform_draws(keys, np.arange(n)), alpha)
        assert not np.array_equal(rows, ordinals)
        for dtype in (ordinals.dtype, np.int32):
            got = [np.stack(s) for s in sim._cluster_size_sums(ordinals.astype(dtype), checkpoints)]
            want = [np.stack(s) for s in sim._cluster_size_sums(rows.astype(dtype), checkpoints)]
            assert np.stack(got).tobytes() == np.stack(want).tobytes(), dtype

    def test_powers_summed_over_founders_only(self, monkeypatch):
        # at alpha = 1 every step joins the first cluster, so each float
        # sum to n = 70,000 adds one row of counts, not one per step
        n = 70_000
        labels = sim._run_labels(1.0, n, replicate_keys(6, 0, 2))
        heights = []
        add_rows = sim._add_rows

        def spy(total, block):
            heights.append(block.shape[0])
            add_rows(total, block)

        monkeypatch.setattr(sim, "_add_rows", spy)
        s2, _, s4 = next(sim._cluster_size_sums(labels, (n,)))
        assert heights == [1, 1, 1]
        assert (s2 == float(n) ** 2).all() and (s4 == float(n) ** 4).all()

    @pytest.mark.parametrize("last,dtype", [
        (255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32),
    ])
    def test_one_cluster_fills_the_count_type(self, last, dtype, monkeypatch):
        # at alpha = 1 every step joins the first cluster, so its count
        # reaches `last`, the largest value of the narrowest type that holds it
        assert np.min_scalar_type(last) == dtype
        labels = sim._run_labels(1.0, last, replicate_keys(6, 0, 2))
        ms = moment_set(StepDistribution.bernoulli(0.3))
        _assert_size_pass_matches_oracle(labels, ms, (1, last - 1, last), monkeypatch)
        s2 = next(sim._cluster_size_sums(labels, (last,)))[0]
        assert (s2 == float(last) ** 2).all()

    def test_small_shapes(self, monkeypatch):
        ms = moment_set(StepDistribution.rademacher())
        for n in (1, 2, 3, 17):
            for width in (1, 2, 7, 129):
                labels = sim._run_labels(0.6, n, replicate_keys(7, 0, width))
                _assert_size_pass_matches_oracle(labels, ms, tuple(range(1, n + 1)), monkeypatch)

    def test_small_blocks(self, monkeypatch):
        # a budget of 600 elements: blocks of 4 rows for a tile of 128
        # walks and of 85 rows for 7, so every checkpoint spans many blocks
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 600)
        ms = moment_set(StepDistribution.bernoulli(0.3))
        for width, checkpoints in ((300, (3, 50, 51, 400)), (7, (84, 85, 86, 171, 400))):
            labels = sim._run_labels(0.8, 400, replicate_keys(8, 0, width))
            _assert_size_pass_matches_oracle(labels, ms, checkpoints, monkeypatch)


class TestClusterEngine:
    """The cluster engine against the literal engine, full enumeration and
    itself: labels, conditional moments, reduction."""

    @pytest.mark.parametrize("width,budget", [(1, 600), (7, 600), (300, 600), (300, None)])
    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind)
    def test_labels_map_to_literal_steps(self, dist, width, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", budget)
        keys = replicate_keys(2718, 0, width)
        rows = sim._block_rows(width)
        for n in sorted({1, 2, rows - 1, rows, rows + 1, 2 * rows + 3} - {0}):
            assert cluster_label_mismatches(dist, 0.6, n, keys) == 0, (dist.kind, width, n)

    @pytest.mark.parametrize("n,dtype", [
        (256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32),
    ])
    def test_narrow_labels_are_the_int32_labels(self, n, dtype, monkeypatch):
        # the narrowest unsigned type that holds n - 1; the labels are the
        # integers that int32 labels hold, and the size pass reads them to
        # the same bytes
        keys = replicate_keys(4, 0, 2)
        narrow = sim._run_labels(0.75, n, keys)
        assert narrow.dtype == dtype
        monkeypatch.setattr(sim, "_label_dtype", lambda n: np.dtype(np.int32))
        wide = sim._run_labels(0.75, n, keys)
        assert np.array_equal(narrow, wide)
        ms = moment_set(StepDistribution.bernoulli(0.3))
        cps = (1, n // 2, n - 1, n)
        assert (sim._cluster_sums(narrow, ms, cps).tobytes()
                == sim._cluster_sums(narrow.astype(np.int32), ms, cps).tobytes())

    # _BLOCK_ELEMENTS = 600 gives blocks of 600 and 300 rows, made in
    # slabs of 255 rows, of 85 and 25 rows, one slab, and of 24, 2 and 1
    # rows, which add row to row; at alpha = 0 every step is fresh, so a
    # slab counts to 255
    @pytest.mark.parametrize("alpha", [0.0, 0.6])
    @pytest.mark.parametrize("width", [1, 2, 7, 24, 25, 300, 700])
    def test_labels_are_dense_ordinals(self, width, alpha, monkeypatch):
        # in every walk the labels of the first c rows are 0..F(c)-1, F(c)
        # the walk's fresh steps among them, at and around each block edge
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 600)
        rows = sim._block_rows(width)
        n = max(400, 2 * rows + 3)
        keys = replicate_keys(13, 0, width)
        labels = sim._run_labels(alpha, n, keys)
        fresh = uniform_draws(keys, np.arange(n)) >= alpha
        fresh[0] = True
        count = np.cumsum(fresh, axis=0)
        cols = np.arange(width)
        edges = {1, 2, n} | {e + d for e in range(rows, n, rows) for d in (-1, 0, 1)}
        for c in sorted(edges & set(range(1, n + 1))):
            # F(c) distinct labels, all below F(c)
            seen = np.zeros((n, width), dtype=bool)
            seen[labels[:c], cols] = True
            assert (seen.sum(axis=0) == count[c - 1]).all(), c
            assert (labels[:c].max(axis=0) < count[c - 1]).all(), c

    def test_labels_refuse_more_than_uint32(self):
        with pytest.raises(ValueError, match="uint32"):
            sim._run_labels(0.75, 2**32 + 1, replicate_keys(4, 0, 1))

    def test_labels_at_extreme_alphas(self):
        keys = replicate_keys(9, 0, 5)
        # no memory: every step founds its own cluster; full memory: one cluster
        assert (sim._run_labels(0.0, 40, keys) == np.arange(40)[:, None]).all()
        assert (sim._run_labels(1.0, 40, keys) == 0).all()

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.75, 1.0])
    @pytest.mark.parametrize("dist", _ENUMERATION_LAWS, ids=lambda d: d.kind)
    def test_conditional_moments_match_enumeration(self, dist, alpha):
        # averaging E(S~^p | sizes) over every label history with its
        # probability gives the exact moments, at every n <= 6
        n = 6
        ms = moment_set(dist)
        labels, weights = _enumerated_label_histories(alpha, n)
        assert weights.sum() == pytest.approx(1.0, rel=1e-14)
        table = exact_moments_upto(ms, alpha, n)
        sizes = sim._cluster_size_sums(labels, range(1, n + 1))
        for c, size_sums in zip(range(1, n + 1), sizes):
            e = sim._conditional_moments(ms, *size_sums) @ weights
            want = np.array([0.0, *(table.column(name)[c - 1] for name in ("s2", "s3", "s4"))])
            scale = np.abs(want).max()
            assert np.abs(e - want).max() <= 1e-12 * scale, (c, e, want)

    def test_workers_bit_identical(self, skewed_two_point, monkeypatch):
        # chunks of 125 walks: 8 chunks, added in span order at every worker count
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", 300 * 125)
        assert len(list(sim._chunk_spans(300, 1000))) == 8
        kwargs = dict(n=300, replicates=1000, master_seed=11, checkpoints=[150, 300])
        one = cluster_batch(skewed_two_point, 0.75, workers=1, **kwargs)
        ms = moment_set(skewed_two_point)
        total = np.zeros((2, 8))
        for span in sim._chunk_spans(300, 1000):
            labels = sim._run_labels(0.75, 300, sim._chunk_keys(11, span))
            total += sim._cluster_sums(labels, ms, (150, 300))
        assert one.tobytes() == total.tobytes()
        for workers in (2, 4):
            other = cluster_batch(skewed_two_point, 0.75, workers=workers, **kwargs)
            assert other.tobytes() == one.tobytes(), workers

    def test_checkpoints_independent(self, bernoulli03):
        # ten checkpoints in one batch give the bytes of each run alone
        cps = [1, 2, 3, 17, 64, 65, 100, 128, 129, 250]
        together = cluster_batch(bernoulli03, 0.7, 250, 300, 5, cps)
        for i, c in enumerate(cps):
            alone = cluster_batch(bernoulli03, 0.7, 250, 300, 5, [c])
            assert alone.tobytes() == together[i].tobytes(), c

    def test_accumulator_reads(self, uniform01):
        # layout_moments reads column p-1 as the estimate of E(S~^p) and
        # column p+3 as its square, for a row or a table of rows
        sums = cluster_batch(uniform01, 0.6, 50, 40, 3, [20, 50])
        mean, stderr = layout_moments(sums, 40)
        assert mean.shape == stderr.shape == (2, 4)
        assert mean[1, 0] == 0.0 and stderr[1, 0] == 0.0
        assert mean[1, 3] == sums[1, 3] / 40
        m = mean[1, 3]
        assert stderr[1, 3] == math.sqrt((sums[1, 7] / 40 - m * m) * (40 / 39.0) / 40)
        row_mean, row_stderr = layout_moments(sums[1], 40)
        assert row_mean.tobytes() == mean[1].tobytes()
        assert row_stderr.tobytes() == stderr[1].tobytes()

    def test_smaller_stderr_than_literal(self):
        # the conditional moment of each walk has S~^p's mean and less variance
        dist = StepDistribution.gaussian(0.5, 2.0)
        args = (dist, 0.6, 400, 500, 17, [400])
        _, literal = empirical_q_moments(simulate_batch(*args), 500, [400], 0.6)
        _, cluster = empirical_q_moments(cluster_batch(*args), 500, [400], 0.6)
        for p in (2, 4):
            assert cluster[0, p - 1] < 0.5 * literal[0, p - 1], p


class TestEmpiricalMoments:
    def test_degenerate_walk_estimate_exact(self, rademacher):
        # alpha = 1: S~_n = +-n so the scaled second moment is exactly 1
        sums = simulate_batch(rademacher, 1.0, 100, 50, 7, [100])
        estimate, stderr = empirical_q_moments(sums, 50, [100], 1.0)
        assert estimate[0, 1] == 1.0
        assert stderr[0, 1] == 0.0

    def test_centered_mean_near_zero(self, skewed_two_point):
        sums = simulate_batch(skewed_two_point, 0.75, 400, 20_000, 99, [200, 400])
        estimate, stderr = empirical_q_moments(sums, 20_000, [200, 400], 0.75)
        assert (np.abs(estimate[:, 0]) <= 4.0 * stderr[:, 0]).all()

    def test_matches_exact_recursion(self, rademacher):
        from erw import exact_moments_upto

        alpha, n, reps = 0.75, 300, 20_000
        sums = simulate_batch(rademacher, alpha, n, reps, 12345, [n])
        ms = moment_set(rademacher)
        table = exact_moments_upto(ms, alpha, n)
        estimate, stderr = empirical_q_moments(sums, reps, [n], alpha)
        exact, z = compare_with_exact(estimate, stderr, table, [n], alpha)
        assert exact.shape == z.shape == (1, 4) and exact[0, 0] == 0.0
        assert exact[0, 1] == table.column("s2")[n - 1] * float(n) ** (-2 * alpha)
        gap = np.abs(estimate - exact)[:, 1:]
        assert (gap <= 4.0 * stderr[:, 1:]).all(), (estimate, exact)

    def test_degenerate_flag(self, rademacher):
        sums = simulate_batch(rademacher, 0.6, 10, 1, 3, [10])
        estimate, stderr = empirical_q_moments(sums, 1, [10], 0.6)
        # one replicate: the standard error is undefined, and nan says so
        assert np.isnan(stderr).all()
        assert np.isfinite(estimate).all()


class TestStatistics:
    """The one stderr formula, read from the layout by `layout_moments`."""

    @staticmethod
    def _layout(mean, mean_sq, count):
        """Sums in the layout whose means of values and of squares are
        `mean` and `mean_sq` exactly (a count that is a power of two)."""
        sums = np.zeros(np.shape(mean) + (8,))
        sums[..., 0] = np.multiply(mean, count)
        sums[..., 4] = np.multiply(mean_sq, count)
        return sums

    def test_stderr_matches_ddof1(self):
        x = np.array([0.5, -1.25, 3.0, 2.0, 0.75])
        _, stderr = layout_moments(sim._power_sums(x), x.size)
        assert stderr[0] == pytest.approx(x.std(ddof=1) / math.sqrt(x.size), rel=1e-14)

    def test_stderr_association_on_arrays(self):
        mean = np.array([1.0, 0.3, 2.0, 0.1])
        mean_sq = np.array([1.0, 0.2, 4.5, 0.7])
        want = np.sqrt(np.maximum(0.0, (mean_sq - mean * mean) * (8 / 7.0)) / 8)
        _, stderr = layout_moments(self._layout(mean, mean_sq, 8), 8)
        assert stderr[:, 0].tobytes() == want.tobytes()

    def test_stderr_nan_and_floor(self):
        def stderr(mean, mean_sq, count):
            return layout_moments(self._layout(mean, mean_sq, count), count)[1][..., 0]

        assert math.isnan(stderr(2.0, 4.0, 1))  # one sample
        assert np.isnan(stderr(np.array([2.0, 1.0]), np.array([4.0, 2.0]), 1)).all()
        # nan propagates where max(0.0, nan) would have given 0.0
        assert math.isnan(stderr(math.nan, 1.0, 8))
        assert math.isnan(stderr(math.inf, math.inf, 8))
        # a variance that rounds below zero is floored at 0
        assert stderr(1.0, 1.0 - 1e-16, 8) == 0.0

    def test_z_rule(self):
        assert z_score(1.0, 0.5) == 2.0 and z_score(-1.0, 0.5) == -2.0
        for stderr in (0.0, math.nan):
            assert z_score(0.0, stderr) == 0.0
            assert z_score(1e-300, stderr) == math.inf
            assert z_score(-3.0, stderr) == math.inf
        z = z_score(np.array([0.0, 1.0, 1.0, 0.0]), np.array([0.0, 0.0, 2.0, math.nan]))
        assert z.tolist() == [0.0, math.inf, 0.5, 0.0]


class TestMartingaleDifferences:
    def test_memoryless_eps_is_centered_step(self, bernoulli03):
        # at alpha = 0 eps_t = X_t - m1 byte for byte: the memory term is a
        # zero; one walk is one block of all 300 steps
        m1 = moment_set(bernoulli03).m1
        steps = sim._run_paths(bernoulli03, 0.0, 300, np.array([8], dtype=np.uint64))
        eps = np.vstack(list(sim._martingale_differences(sim._row_blocks(steps), 0.0, m1)))
        assert eps.tobytes() == (steps - m1).tobytes()

    @pytest.mark.parametrize("dist", [StepDistribution.discrete((-1.0, 2.0), (0.6, 0.4)),
                                      StepDistribution.uniform(-1.0, 2.0)],
                             ids=["skewed", "uniform"])
    @pytest.mark.parametrize("n,width", [(1, 3), (300, 2000), (301, 2000), (97, 5000),
                                         (40, 20_000)])
    def test_blocks_match_one_step_loop(self, dist, n, width):
        # the blocks hold _block_rows(width) steps each (8 at width 2000, 1
        # at 20,000), and their bytes are those of a one-step loop over the
        # rows; the uniform law's running sums round, so S_{t-1} must be
        # added in the loop's order
        m1 = moment_set(dist).m1
        keys = replicate_keys(3, 0, width)
        steps = sim._run_paths(dist, 0.75, n, keys)
        blocks = list(sim._martingale_differences(sim._row_blocks(steps), 0.75, m1))
        assert len(blocks) == -(-n // sim._block_rows(width))
        want = []
        s_run = np.zeros(width)
        for t, x in enumerate(steps, start=1):
            eps = x - m1
            if t > 1:
                eps -= (0.75 / (t - 1)) * (s_run - (t - 1) * m1)
            want.append(eps)
            s_run += x
        assert np.vstack(blocks).tobytes() == np.stack(want).tobytes()

    def test_power_sums_of_a_block(self):
        # a block's rows have the bytes of each row's own sums; a row whose
        # powers overflow gives inf or nan in that row only, without a warning
        values = np.random.default_rng(4).normal(size=(9, 301))
        values[4, :5] = (1e300, -1e300, 3e299, 1e-300, 2.0)
        block = sim._power_sums(values)
        rows = np.stack([sim._power_sums(row) for row in values])
        assert block.shape == (9, 8)
        assert block.tobytes() == rows.tobytes()
        assert not np.isfinite(block[4, 1:]).any()
        assert np.isfinite(np.delete(block, 4, axis=0)).all()
        assert sim._power_sums(values[0]).shape == (8,)

    @pytest.mark.parametrize("statistic", [batch_epsilon_moments, marginal_moment_sums],
                             ids=["epsilon", "marginal"])
    def test_total_that_overflows_gives_inf_silently(self, statistic, monkeypatch):
        # step 1's X^4 and eps^4 are 1.0e305 on every walk: a chunk of 1000
        # walks sums them to a finite 1.0e308, but three chunks leave the
        # double range, which the one reducer makes inf without a warning
        huge = StepDistribution.discrete((-1.778e76, 1.778e76), (0.5, 0.5))
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", 4 * 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (chunk,) = statistic([huge], 0.5, 4, 1000, 1)
            (total,) = statistic([huge], 0.5, 4, 3000, 1)
        assert np.isfinite(chunk[0, :4]).all()
        assert np.isfinite(total[0, :2]).all() and total[0, 3] == math.inf


class TestEpsilonMoments:
    """Means of eps_t^p (column p-1) and eps_t^(2p) (column p+3) over a batch."""

    def test_memoryless_second_moment(self, bernoulli03):
        ms = moment_set(bernoulli03)
        (sums,) = batch_epsilon_moments([bernoulli03], 0.0, 100, 20_000, 17)
        means, se = layout_moments(sums, 20_000)
        # E(eps^2) = M2 at every step when there is no memory
        assert np.all(np.abs(means[:, 1] - ms.M2) <= 4.0 * se[:, 1] + 1e-12)

    def test_lp_bound(self, rademacher, bernoulli03):
        laws = (rademacher, bernoulli03)
        for dist, sums in zip(laws, batch_epsilon_moments(laws, 0.75, 128, 10_000, 23)):
            m = moment_set(dist)
            means = sums / 10_000
            assert np.all(means[:, 1] <= 4.0 * m.m2 + 1e-9)
            assert np.all(means[:, 3] <= 16.0 * m.m4 + 1e-9)

    def test_martingale_increments_centered(self, skewed_two_point):
        (sums,) = batch_epsilon_moments([skewed_two_point], 0.8, 150, 20_000, 29)
        means, se = layout_moments(sums, 20_000)
        z = z_score(means[:, 0], se[:, 0])
        assert float(np.abs(z).max()) <= 4.0


#: Rows of `conditional_continuation_test`'s arrays, in
#: `ConditionalStepMoments` field order.
_DX, _DX2 = 0, 1


class TestConditionalContinuation:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.6, 0.75, 1.0])
    def test_branch_words_decide_as_uniforms(self, alpha):
        # the continuations branch on the word at counter 0 against
        # words_below(alpha), the engines' rule; the uniform of that word
        # below alpha makes the same decision for every key
        keys = replicate_keys(8, 0, 100_000)
        by_word = mixed_words(keys, 0) < np.uint64(words_below(alpha))
        assert np.array_equal(by_word, uniform_draws(keys, 0) < alpha)

    @pytest.mark.parametrize("n", [1, 2, 5, 2**20])
    @pytest.mark.parametrize("alpha", [1.0, np.nextafter(1.0, 0.0)])
    def test_repeat_index_is_the_kernels(self, monkeypatch, rademacher, n, alpha):
        # with the draws fixed, step n+1 of a kernel walk repeats and every
        # earlier step is fresh, so its label is the row it copies; a
        # continuation of the prefix 0, 1, ..., n-1 repeats, so its step is
        # the row it copies.  The repeating word is the largest below the
        # bound, and both rows are min(floor((u/alpha) n), n-1) of its u.
        word = ((words_below(alpha) >> 11) - 1) << 11
        u = unit_floats(np.array([word], dtype=np.uint64))[0]
        expected = min(int(u * (n / alpha)), n - 1)

        def words(keys, counter):
            # `word` at the repeating counter, 2^64-1 (fresh) elsewhere
            hit = np.asarray(counter)[..., None] == repeat_at
            fresh = np.uint64(MASK64)
            return np.where(hit, np.uint64(word), fresh) + np.zeros(keys.shape, np.uint64)

        repeat_at = n
        monkeypatch.setattr(sim, "mixed_words", words)
        labels = sim._run_labels(alpha, n + 1, replicate_keys(1, 0, 1))
        assert labels[:n, 0].tolist() == list(range(n))

        repeat_at = 0
        prefix = WalkState.from_steps(np.arange(n), moment_set(rademacher))
        _, observed, _ = conditional_continuation_test(prefix, rademacher, alpha, 1, 0)
        assert labels[n, 0] == observed[_DX] == expected

    def test_rademacher_prefix(self, rademacher):
        # prefix +1,+1,+1 at alpha = 0.6 predicts E(X_4) = 0.6
        ms = moment_set(rademacher)
        prefix = WalkState.from_steps([1.0, 1.0, 1.0], ms)
        predicted, observed, stderr = conditional_continuation_test(
            prefix, rademacher, 0.6, 100_000, 5
        )
        assert predicted.shape == observed.shape == stderr.shape == (6,)
        assert predicted[_DX] == pytest.approx(0.6, rel=1e-15)
        assert abs(observed[_DX] - 0.6) <= 3.0 * stderr[_DX]
        assert (np.abs(z_score(observed - predicted, stderr)) <= 3.0).all()

    def test_zero_prefix_centered(self, rademacher):
        ms = moment_set(rademacher)
        prefix = WalkState.from_steps([1.0, -1.0], ms)
        predicted, observed, stderr = conditional_continuation_test(
            prefix, rademacher, 0.7, 50_000, 6
        )
        assert predicted[_DX] == 0.0
        assert abs(observed[_DX]) <= 3.0 * stderr[_DX]

    def test_memoryless_matches_unconditional(self, skewed_two_point):
        ms = moment_set(skewed_two_point)
        prefix = simulate_path(skewed_two_point, 0.0, 10, 77)
        predicted, observed, stderr = conditional_continuation_test(
            prefix, skewed_two_point, 0.0, 50_000, 7
        )
        assert predicted[_DX] == 0.0
        assert predicted[_DX2] == ms.M2
        assert (np.abs(z_score(observed - predicted, stderr)) <= 3.5).all()

    def test_reads_the_layout(self, skewed_two_point):
        # the six observables go through _power_sums and layout_moments:
        # each mean and stderr has the bytes of that observable's own row
        prefix = simulate_path(skewed_two_point, 0.75, 5, 2024)
        predicted, observed, stderr = conditional_continuation_test(
            prefix, skewed_two_point, 0.75, 1000, 3
        )
        fields = [f.name for f in dataclasses.fields(ConditionalStepMoments)]
        assert [fields[_DX], fields[_DX2]] == ["dx", "dx2"]
        want = conditional_step_moments(
            (prefix.s_tilde, prefix.t_tilde, prefix.u_tilde), 5, moment_set(skewed_two_point), 0.75
        )
        assert predicted.tolist() == [getattr(want, f) for f in fields]
        # the continuations' steps, rebuilt from the same draws
        u = uniform_draws(replicate_keys(3, 0, 1000), 0)
        repeat = u < 0.75
        idx = np.minimum(u * (5 / 0.75), 4.0).astype(np.int64)
        fresh = inverse_cdf(skewed_two_point, sim._fresh_uniforms(u, 0.75))
        dx = np.where(repeat, prefix.steps[idx], fresh) - moment_set(skewed_two_point).m1
        mean, se = layout_moments(sim._power_sums(dx), dx.size)
        assert observed[_DX] == mean[0] and stderr[_DX] == se[0]
        assert observed[_DX] == dx.mean()


#: Alphas at the edges of the fresh map: no memory, full memory, the double
#: below 1, and two that a uniform equals, 0.25 + 2**-54 (k = 2**51) and
#: 0.75 (k = 3 * 2**51 - 1, whose k + 0.5 rounds to even), where u == alpha
#: is fresh.
_EDGE_ALPHAS = [0.0, 1.0, 1 - 2.0**-53, 0.25 + 2.0**-54, 0.75]


def _edge_words(alpha):
    """The lowest and highest fresh words at alpha (u = 1 is the top), the
    next fresh words, the top repeating word and word 0 (u = 2**-54)."""
    K = words_below(alpha) >> 11
    ks = {K, K + 1, K - 1, 0, 2**52, 2**53 - 2, 2**53 - 1}
    return np.array([(k << 11) | low for k in sorted(ks) if 0 <= k < 2**53
                     for low in (0, 2**11 - 1)], dtype=np.uint64)


class TestFreshUniforms:
    """The one fresh map: (u - a)/(1 - a), a the double below alpha."""

    @pytest.mark.parametrize("alpha", _EDGE_ALPHAS)
    def test_fresh_uniforms_in_unit_interval(self, alpha):
        words = np.concatenate([_edge_words(alpha), mixed_words(replicate_keys(4, 0, 100_000), 0)])
        words = words[words >= np.uint64(words_below(alpha))]  # the fresh ones
        u = unit_floats(words)
        v = sim._fresh_uniforms(u, alpha)
        assert (u >= alpha).all() and (v > 0.0).all() and (v <= 1.0).all()
        assert (v[u == 1.0] == 1.0).all() and (u == 1.0).any()
        assert (u == alpha).any() == (alpha in (0.25 + 2.0**-54, 0.75, 1.0))
        if alpha == 0.0:
            assert v.tobytes() == u.tobytes()
        # step 1 keeps its draw whatever alpha is
        both = np.stack([u, u])
        assert sim._fresh_uniforms(both, alpha, step_one=True)[0].tobytes() == u.tobytes()

    @pytest.mark.parametrize("alpha", _EDGE_ALPHAS)
    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind)
    def test_edge_words_warn_nothing(self, dist, alpha, monkeypatch):
        # every step of every walk reads one of the edge words, in turn;
        # no sampler, kernel or continuation warns, the literal steps are
        # the fresh samples gathered at the labels' founder rows, and fresh
        # samples are finite values of the law
        edge = _edge_words(alpha)

        def words(keys, counter):
            c = np.asarray(counter, dtype=np.int64).reshape(-1, 1)
            pick = (c + np.arange(keys.size)) % edge.size
            return edge[pick].reshape(np.shape(counter) + keys.shape)

        monkeypatch.setattr(sim, "mixed_words", words)
        keys = replicate_keys(2, 0, edge.size)
        n = 3 * edge.size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steps = sim._run_paths(dist, alpha, n, keys)
            labels = sim._run_labels(alpha, n, keys)
            u = unit_floats(words(keys, np.arange(n)))
            fresh = inverse_cdf(dist, sim._fresh_uniforms(u, alpha, step_one=True))
            prefix = WalkState.from_steps(steps[:, 0], moment_set(dist))
            _, observed, _ = conditional_continuation_test(prefix, dist, alpha, 3, 1)
        rows = founder_rows(labels, u, alpha)
        assert fresh[rows, np.arange(keys.size)].tobytes() == steps.tobytes()
        assert np.isfinite(steps).all() and np.isfinite(observed).all()

    def test_fresh_steps_keep_the_step_law_at_high_alpha(self):
        # at alpha = 0.999 a fresh step's u lies in [alpha, 1], 0.1% of the
        # draws: stretched to (0, 1] it must still give the law's mean and
        # variance.  Fresh steps after the first are those whose label's
        # founder is their own row: 3932 of them here (|z| 0.68 and 0.81).
        dist, alpha, n = StepDistribution.gaussian(0.5, 2.0), 0.999, 500
        ms = moment_set(dist)
        keys = replicate_keys(12, 0, 8000)
        steps = sim._run_paths(dist, alpha, n, keys)[1:]
        u = uniform_draws(keys, np.arange(n))
        rows = founder_rows(sim._run_labels(alpha, n, keys), u, alpha)
        own = rows[1:] == np.arange(1, n)[:, None]
        centred = steps[own] - ms.m1
        assert centred.size > 3500
        mean, stderr = layout_moments(sim._power_sums(centred), centred.size)
        z = z_score(mean[:2] - np.array([0.0, ms.M2]), stderr[:2])
        assert np.abs(z).max() <= 4.0, z
