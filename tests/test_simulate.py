"""Simulator: determinism, degenerate regimes, accumulators, diagnostics."""

import math

import numpy as np
import pytest

from erw import (
    BatchAccumulator,
    StepDistribution,
    batch_epsilon_moments,
    conditional_continuation_test,
    empirical_q_moments,
    martingale_diagnostics,
    martingale_scale,
    moment_set,
    simulate_batch,
    simulate_path,
)
import erw.simulate as sim
from erw.distributions import inverse_cdf
from erw.rng import mix64, parse_seed, replicate_key, replicate_keys, uniform_draw, uniform_draws
from erw.simulate import WalkState, marginal_moment_sums, sample_stderr, z_score

LAWS = (
    StepDistribution.rademacher(),
    StepDistribution.bernoulli(0.3),
    StepDistribution.uniform(-1.0, 2.0),
    StepDistribution.gaussian(0.5, 2.0),
    StepDistribution.discrete((-1.0, 2.0, 5.0), (0.6, 0.4, 0.0)),
)


class _EpsilonCollector:
    """Test oracle: per-step sums of eps, eps^2 and eps^4, fed one step at a time."""

    def __init__(self, alpha: float, m1: float, n: int):
        self.alpha = alpha
        self.m1 = m1
        self.count = 0
        self.sum1 = np.zeros(n)
        self.sum2 = np.zeros(n)
        self.sum4 = np.zeros(n)

    def collect(self, t, x, s_tilde_prev, s_tilde):
        if t == 1:
            self.count += x.size
            eps = x - self.m1
        else:
            eps = x - self.m1 - (self.alpha / (t - 1)) * s_tilde_prev
        sq = eps * eps
        self.sum1[t - 1] += eps.sum()
        self.sum2[t - 1] += sq.sum()
        self.sum4[t - 1] += (sq * sq).sum()


class _MarginalCollector:
    """Test oracle: per-step power sums of the raw step X_t (p = 1..8)."""

    def __init__(self, n: int):
        self.count = 0
        self.sums = np.zeros((n, 8))

    def collect(self, t, x, s_tilde_prev, s_tilde):
        if t == 1:
            self.count += x.size
        row = self.sums[t - 1]
        p = x.copy()
        for k in range(8):
            row[k] += p.sum()
            if k < 7:
                p *= x


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
    cols = np.arange(width)
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
        u_val = uniform_draws(keys, 2 * (t - 1) + 1)
        fresh = inverse_cdf(dist, u_val)
        if t == 1:
            x = fresh
        else:
            u_branch = uniform_draws(keys, 2 * (t - 1))
            idx = (u_val * (t - 1)).astype(np.int64)
            np.minimum(idx, t - 2, out=idx)
            x = np.where(u_branch < alpha, steps[idx, cols], fresh)
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
        assert a.q == b.q

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
        assert state.s == pytest.approx(steps.sum(), rel=1e-12)
        assert state.s_tilde == pytest.approx(state.s - 500 * ms.m1, rel=1e-9)
        assert state.t_tilde == pytest.approx((steps ** 2).sum() - 500 * ms.m2, rel=1e-9)
        assert state.u_tilde == pytest.approx((steps ** 3).sum() - 500 * ms.m3, rel=1e-9)
        assert state.q == pytest.approx(martingale_scale(500, 0.6) * state.s_tilde, rel=1e-12)

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
        if budget is not None:
            monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", budget)
        ms = moment_set(dist)
        alpha, seed = 0.6, 2718
        keys = replicate_keys(seed, 0, width)
        rows = max(1, sim._BLOCK_ELEMENTS // width)
        for n in (1, 2, rows - 1, rows, rows + 1, 2 * rows + 3):
            cps = sorted({1, 2, rows - 1, rows, rows + 1, n} & set(range(1, n + 1)))
            cpi = {c: i for i, c in enumerate(cps)}
            eps = _EpsilonCollector(alpha, ms.m1, n)
            marginal = _MarginalCollector(n)
            ref_sums, ref_steps = _reference_run_paths(
                dist, ms, alpha, n, keys, checkpoint_index=cpi,
                collectors=(eps, marginal), keep_steps=True,
            )
            eps_sums = np.stack([eps.sum1, eps.sum2, eps.sum4])
            where = (dist.kind, width, n)

            steps = sim._run_paths(dist, alpha, n, keys)
            assert steps.tobytes() == ref_steps.tobytes(), where
            assert sim._checkpoint_sums(steps, ms.m1, cpi).tobytes() == ref_sums.tobytes(), where
            acc = simulate_batch(dist, alpha, n, width, seed, cps)
            batch_sums = np.array([[acc.power_sum(c, p) for p in range(1, 9)] for c in cps])
            assert batch_sums.tobytes() == ref_sums.tobytes(), where

            sums = np.zeros((3, n))
            sim._add_epsilon_sums(sums, steps, alpha, ms.m1)
            assert sums.tobytes() == eps_sums.tobytes(), where
            stats = batch_epsilon_moments(dist, alpha, n, width, seed)
            assert stats.n_replicates == eps.count == width
            for got, ref in zip((stats.mean, stats.abs2, stats.abs4), eps_sums / eps.count):
                assert got.tobytes() == ref.tobytes(), where

            batch_marginal = marginal_moment_sums(dist, alpha, n, width, seed)
            assert batch_marginal.count == marginal.count == width
            assert batch_marginal.sums.tobytes() == marginal.sums.tobytes(), where

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
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", 1000)
        pool = sim._POOL_SPAN_BYTES
        # chunks of 3 walks; the matrices have as many rows as the last
        # checkpoint, and a pool also holds a record of each of the 4 chunks
        assert sim.batch_step_bytes(300, 10, 300) == 8 * 300 * 3
        assert sim.batch_step_bytes(300, 10, 50, workers=2) == 8 * 50 * 3 * 2 + 4 * pool
        # four chunks keep at most four workers busy
        assert sim.batch_step_bytes(300, 10, 50, workers=64) == 8 * 50 * 3 * 4 + 4 * pool
        # a walk longer than the target is a chunk of its own
        assert sim.batch_step_bytes(5000, 2, 5000, workers=2) == 8 * 5000 * 2 + 2 * pool
        # one worker runs the chunks in a loop and keeps no record of them
        assert sim.batch_step_bytes(1, 10**12, 1) == 8 * 1000


class TestBatch:
    def test_single_replicate_matches_path(self, bernoulli03):
        acc = simulate_batch(bernoulli03, 0.6, 50, 1, 999, [25, 50])
        state = simulate_path(bernoulli03, 0.6, 50, replicate_key(999, 0))
        ms = moment_set(bernoulli03)
        prefix = WalkState.from_steps(state.steps[:25], ms, 0.6)
        for p in range(1, 9):
            assert acc.power_sum(50, p) == pytest.approx(state.s_tilde ** p, rel=1e-12)
            assert acc.power_sum(25, p) == pytest.approx(prefix.s_tilde ** p, rel=1e-12)

    def test_workers_bit_identical(self, skewed_two_point, monkeypatch):
        # chunks of 100 walks: 20 chunks, added in span order at every worker count
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", 300 * 100)
        assert len(list(sim._chunk_spans(300, 2000))) == 20
        kwargs = dict(n=300, replicates=2000, master_seed=11, checkpoints=[150, 300])
        one = simulate_batch(skewed_two_point, 0.75, workers=1, **kwargs)
        for workers in (2, 4):
            other = simulate_batch(skewed_two_point, 0.75, workers=workers, **kwargs)
            assert other._sums.tobytes() == one._sums.tobytes(), workers

    def test_chunks_added_in_span_order(self, bernoulli03, monkeypatch):
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", 80 * 128)
        acc = simulate_batch(bernoulli03, 0.7, 80, 700, 5, [40, 80])
        ms = moment_set(bernoulli03)
        total = np.zeros((2, 8))
        for span in sim._chunk_spans(80, 700):
            steps = sim._chunk_steps(bernoulli03, 0.7, 80, 5, span)
            total += sim._checkpoint_sums(steps, ms.m1, {40: 0, 80: 1})
        assert acc.n_replicates == 700
        assert acc._sums.tobytes() == total.tobytes()

    def test_checkpoint_validation(self, rademacher):
        with pytest.raises(ValueError):
            BatchAccumulator([30, 20])
        with pytest.raises(ValueError):
            simulate_batch(rademacher, 0.5, 10, 5, 1, [20])

    def test_memoryless_variance_linear(self, bernoulli03):
        # independent steps: Var(S_n) = n M2; 1e5 replicates at n = 1000
        ms = moment_set(bernoulli03)
        acc = simulate_batch(bernoulli03, 0.0, 1000, 100_000, 31337, [1000])
        mean = acc.moment(1000, 1)
        var = acc.moment(1000, 2) - mean * mean
        assert var / 1000 == pytest.approx(ms.M2, rel=0.03)


class TestEmpiricalMoments:
    def test_degenerate_walk_estimate_exact(self, rademacher):
        # alpha = 1: S~_n = +-n so the scaled second moment is exactly 1
        acc = simulate_batch(rademacher, 1.0, 100, 50, 7, [100])
        est = {e.p: e for e in empirical_q_moments(acc, 1.0)}
        assert est[2].estimate == 1.0
        assert est[2].stderr == 0.0

    def test_centered_mean_near_zero(self, skewed_two_point):
        acc = simulate_batch(skewed_two_point, 0.75, 400, 20_000, 99, [200, 400])
        for e in empirical_q_moments(acc, 0.75):
            if e.p == 1:
                assert abs(e.estimate) <= 4.0 * e.stderr

    def test_matches_exact_recursion(self, rademacher):
        from erw import exact_moments_upto

        alpha, n, reps = 0.75, 300, 20_000
        acc = simulate_batch(rademacher, alpha, n, reps, 12345, [n])
        table = exact_moments_upto(moment_set(rademacher), alpha, n)
        for e in empirical_q_moments(acc, alpha):
            if e.p in (2, 3, 4):
                field = {2: "s2", 3: "s3", 4: "s4"}[e.p]
                exact = getattr(table.row(n), field) * float(n) ** (-e.p * alpha)
                assert abs(e.estimate - exact) <= 4.0 * e.stderr, e

    def test_degenerate_flag(self, rademacher):
        acc = simulate_batch(rademacher, 0.6, 10, 1, 3, [10])
        est = empirical_q_moments(acc, 0.6)
        # one replicate: the standard error is undefined, and nan says so
        assert all(math.isnan(e.stderr) for e in est)
        assert all(math.isfinite(e.estimate) for e in est)


class TestStatistics:
    def test_stderr_matches_ddof1(self):
        x = np.array([0.5, -1.25, 3.0, 2.0, 0.75])
        got = sample_stderr(x.mean(), (x * x).mean(), x.size)
        assert got == pytest.approx(x.std(ddof=1) / math.sqrt(x.size), rel=1e-14)

    def test_stderr_association_on_arrays(self):
        mean = np.array([1.0, 0.3, 2.0, 0.1])
        mean_sq = np.array([1.0, 0.2, 4.5, 0.7])
        want = np.sqrt(np.maximum(0.0, (mean_sq - mean * mean) * (7 / 6.0)) / 7)
        assert sample_stderr(mean, mean_sq, 7).tobytes() == want.tobytes()

    def test_stderr_nan_and_floor(self):
        assert math.isnan(sample_stderr(2.0, 4.0, 1))  # one sample
        assert np.isnan(sample_stderr(np.array([2.0, 1.0]), np.array([4.0, 2.0]), 1)).all()
        # nan propagates where max(0.0, nan) would have given 0.0
        assert math.isnan(sample_stderr(math.nan, 1.0, 10))
        assert math.isnan(sample_stderr(math.inf, math.inf, 10))
        # a variance that rounds below zero is floored at 0
        assert sample_stderr(1.0, 1.0 - 1e-16, 10) == 0.0

    def test_z_rule(self):
        assert z_score(1.0, 0.5) == 2.0 and z_score(-1.0, 0.5) == -2.0
        for stderr in (0.0, math.nan):
            assert z_score(0.0, stderr) == 0.0
            assert z_score(1e-300, stderr) == math.inf
            assert z_score(-3.0, stderr) == math.inf
        z = z_score(np.array([0.0, 1.0, 1.0, 0.0]), np.array([0.0, 0.0, 2.0, math.nan]))
        assert z.tolist() == [0.0, math.inf, 0.5, 0.0]


class TestMartingaleDiagnostics:
    def test_reconstruction_all_regimes(self, standard_moment_sets, rademacher,
                                         bernoulli03, uniform01):
        dists = {"rademacher": rademacher, "bernoulli": bernoulli03, "uniform": uniform01}
        for name, dist in dists.items():
            ms = standard_moment_sets[name]
            for alpha in (0.0, 0.5, 0.75, 1.0):
                for seed in (1, 2):
                    state = simulate_path(dist, alpha, 2000, seed)
                    view = martingale_diagnostics(state, alpha, ms)
                    assert view.reconstruction_error <= 1e-10

    def test_memoryless_eps_is_centered_step(self, bernoulli03):
        ms = moment_set(bernoulli03)
        state = simulate_path(bernoulli03, 0.0, 300, 8)
        view = martingale_diagnostics(state, 0.0, ms)
        assert np.allclose(view.eps, np.asarray(state.steps) - ms.m1, rtol=0.0, atol=1e-12)

    def test_q_direct_matches_state(self, uniform01):
        ms = moment_set(uniform01)
        state = simulate_path(uniform01, 0.8, 500, 21)
        view = martingale_diagnostics(state, 0.8, ms)
        assert view.q_direct == pytest.approx(state.q, rel=1e-12)


class TestEpsilonMoments:
    def test_memoryless_second_moment(self, bernoulli03):
        ms = moment_set(bernoulli03)
        stats = batch_epsilon_moments(bernoulli03, 0.0, 100, 20_000, 17)
        # E(eps^2) = M2 at every step when there is no memory
        se = np.sqrt(np.maximum(stats.abs4 - stats.abs2 ** 2, 0.0) / stats.n_replicates)
        assert np.all(np.abs(stats.abs2 - ms.M2) <= 4.0 * se + 1e-12)

    def test_lp_bound(self, rademacher, bernoulli03):
        for dist in (rademacher, bernoulli03):
            m = moment_set(dist)
            stats = batch_epsilon_moments(dist, 0.75, 128, 10_000, 23)
            assert np.all(stats.abs2 <= 4.0 * m.m2 + 1e-9)
            assert np.all(stats.abs4 <= 16.0 * m.m4 + 1e-9)

    def test_martingale_increments_centered(self, skewed_two_point):
        stats = batch_epsilon_moments(skewed_two_point, 0.8, 150, 20_000, 29)
        z = np.abs(stats.q_increment_mean) / np.where(
            stats.q_increment_stderr > 0, stats.q_increment_stderr, np.inf
        )
        assert float(z.max()) <= 4.0


class TestConditionalContinuation:
    def test_rademacher_prefix(self, rademacher):
        # prefix +1,+1,+1 at alpha = 0.6 predicts E(X_4) = 0.6
        ms = moment_set(rademacher)
        prefix = WalkState.from_steps([1.0, 1.0, 1.0], ms, 0.6)
        checks = {c.name: c for c in conditional_continuation_test(prefix, rademacher, 0.6, 100_000, 5)}
        assert checks["dx"].predicted == pytest.approx(0.6, rel=1e-15)
        assert abs(checks["dx"].observed - 0.6) <= 3.0 * checks["dx"].stderr
        assert all(abs(c.z) <= 3.0 for c in checks.values())

    def test_zero_prefix_centered(self, rademacher):
        ms = moment_set(rademacher)
        prefix = WalkState.from_steps([1.0, -1.0], ms, 0.7)
        checks = {c.name: c for c in conditional_continuation_test(prefix, rademacher, 0.7, 50_000, 6)}
        assert checks["dx"].predicted == 0.0
        assert abs(checks["dx"].observed) <= 3.0 * checks["dx"].stderr

    def test_memoryless_matches_unconditional(self, skewed_two_point):
        ms = moment_set(skewed_two_point)
        prefix = simulate_path(skewed_two_point, 0.0, 10, 77)
        checks = conditional_continuation_test(prefix, skewed_two_point, 0.0, 50_000, 7)
        by_name = {c.name: c for c in checks}
        assert by_name["dx"].predicted == 0.0
        assert by_name["dx2"].predicted == ms.M2
        assert all(abs(c.z) <= 3.5 for c in checks)
