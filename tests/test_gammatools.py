"""Gamma-ratio machinery against high-precision and brute-force oracles."""

import dataclasses
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erw import (
    SingularParameterError,
    StepDistribution,
    batch_epsilon_moments,
    brute_force_moments,
    cluster_batch,
    conditional_continuation_test,
    conditional_step_moments,
    exact_law,
    exact_moments_upto,
    gamma_sum_linear,
    gamma_sum_linear_direct,
    gamma_sum_weighted,
    gamma_sum_weighted_direct,
    log_gamma_ratio,
    martingale_scale,
    moment_set,
    simulate_path,
    solve_recursion,
)
from erw import gammatools
from erw.gammatools import recip_gamma, unit_constant_solution
from erw.moments import _solve_recursion_scan
from erw.rng import replicate_keys, uniform_draws
from erw.simulate import marginal_moment_sums

mp.mp.dps = 40


def mp_log_gamma_ratio(n, delta):
    return mp.loggamma(mp.mpf(n) + mp.mpf(delta)) - mp.loggamma(mp.mpf(n))


class TestLogGammaRatio:
    def test_integer_shift(self):
        assert log_gamma_ratio(5.0, 1.0) == pytest.approx(math.log(5.0), abs=5e-15)
        # Gamma(1003)/Gamma(1000) = 1000 * 1001 * 1002
        assert log_gamma_ratio(1000.0, 3.0) == pytest.approx(
            math.log(1000 * 1001 * 1002), rel=1e-14
        )

    def test_half_shift_at_one(self):
        # Gamma(1.5) = sqrt(pi)/2
        assert log_gamma_ratio(1.0, 0.5) == pytest.approx(
            math.log(math.sqrt(math.pi) / 2.0), abs=1e-15
        )

    def test_zero_delta_exact(self):
        assert log_gamma_ratio(12345.0, 0.0) == 0.0

    def test_against_mpmath_grid(self):
        # contract: exponentiated relative error <= 1e-12 up to n = 1e7
        worst = 0.0
        for n in (1.0, 1.5, 2.0, 5.0, 9.5, 10.0, 11.0, 31.0, 100.0, 1e3, 1e5, 1e7):
            for delta in (0.0, 1e-9, 0.3, 0.5, 1.0, 2.2, 3.0, 4.0):
                got = log_gamma_ratio(n, delta)
                err = abs(float(mp.e ** (mp.mpf(got) - mp_log_gamma_ratio(n, delta)) - 1))
                worst = max(worst, err)
        assert worst <= 1e-12

    def test_against_mpmath_far_out(self):
        # contract: the same bound up to n = 1e12, for scalar and array
        # arguments
        worst = 0.0
        for n in (1e8, 1e9, 1e10, 1e11, 1e12):
            for delta in (-4.0, 1e-9, 0.3, 1.0, 2.4, 3.6, 4.0):
                for got in (log_gamma_ratio(n, delta), log_gamma_ratio(np.array([n]), delta)[0]):
                    err = abs(float(mp.e ** (mp.mpf(float(got)) - mp_log_gamma_ratio(n, delta)) - 1))
                    worst = max(worst, err)
        assert worst <= 1e-12

    def test_negative_delta(self):
        for n, delta in ((2.0, -0.7), (100.0, -3.5), (1e6, -4.0)):
            got = log_gamma_ratio(n, delta)
            err = abs(float(mp.e ** (mp.mpf(got) - mp_log_gamma_ratio(n, delta)) - 1))
            assert err <= 1e-12

    def test_array_matches_scalar(self):
        ns = np.array([1.0, 4.0, 8.5, 50.0, 2e6])
        out = log_gamma_ratio(ns, 1.7)
        for n, value in zip(ns, out):
            assert value.tobytes() == log_gamma_ratio(float(n), 1.7).tobytes()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_gamma_ratio(0.5, 1.0)
        with pytest.raises(ValueError):
            log_gamma_ratio(2.0, -2.0)

    @pytest.mark.parametrize(("n", "delta", "message"), [
        (math.nan, 1.0, "n >= 1"),
        (math.inf, 1.0, "n >= 1"),
        (5.0, math.nan, "n \\+ delta > 0"),
        (5.0, math.inf, "n \\+ delta > 0"),
        (5.0, -math.inf, "n \\+ delta > 0"),
        (50.0, math.nan, "n \\+ delta > 0"),
    ])
    def test_non_finite_refused(self, n, delta, message):
        # a nan gave nan, inf n gave nan with an "invalid value" warning and
        # inf delta gave inf; each is refused as a scalar and in an array
        with pytest.raises(ValueError, match=message):
            log_gamma_ratio(n, delta)
        with pytest.raises(ValueError, match=message):
            log_gamma_ratio(np.array([20.0, n]), np.array([delta, 1.0]))

    def test_huge_n_without_overflow(self):
        # x * x in the Stirling tail overflowed from n ~ 1.3e154; from 1e100
        # every Horner step rounds to its constant, so the tail is the
        # c_0 / x it was, and ln Gamma(n + d)/Gamma(n) is d ln n to rounding
        x = np.array([1e100, 1e154, 1.4e154, 1e300, 1.7e308])
        for n in x.tolist():
            for delta in (0.0, 1.0, -4.0, 3.6):
                assert log_gamma_ratio(n, delta) == pytest.approx(delta * math.log(n), rel=1e-15)
        for tail in gammatools._stirling_tails(x, x):
            assert tail.tobytes() == (1.0 / 12.0 / x).tobytes()

    def test_peak_within_eight_arrays(self):
        # the output, n + delta and the tail's two buffers over both: about
        # 6 arrays of 8n bytes at n = 2e5 (12.25 before the Horner steps ran
        # in place and the masked gathers went)
        n = np.arange(1.0, 200_001.0)
        log_gamma_ratio(n[:100], 1.5)  # first-call allocations aside
        tracemalloc.start()
        try:
            log_gamma_ratio(n, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n.nbytes


class TestMartingaleScale:
    def test_first_value(self):
        for alpha in (0.0, 0.3, 0.7, 1.0):
            assert martingale_scale(1, alpha) == pytest.approx(
                1.0 / math.gamma(1.0 + alpha), rel=1e-15
            )

    def test_alpha_one_is_reciprocal(self):
        for n in (1, 2, 10, 1000, 10 ** 6):
            assert martingale_scale(n, 1.0) == pytest.approx(1.0 / n, rel=1e-14)

    def test_known_value(self):
        # Gamma(2)/Gamma(2.5) = 1 / (0.75 sqrt(pi))
        assert martingale_scale(2, 0.5) == pytest.approx(
            1.0 / (0.75 * math.sqrt(math.pi)), rel=1e-14
        )

    def test_product_recurrence(self):
        # a_{n+1} = a_n * n / (n + alpha) to 1e-14 relative
        for alpha in (0.5, 0.75):
            prev = martingale_scale(1, alpha)
            for n in range(1, 20_000):
                nxt = martingale_scale(n + 1, alpha)
                assert abs(nxt * (n + alpha) / (n * prev) - 1.0) <= 1e-14
                prev = nxt

    def test_asymptotic_exponent(self):
        alpha = 0.8
        assert martingale_scale(10 ** 7, alpha) * (10 ** 7) ** alpha == pytest.approx(
            1.0, rel=1e-3
        )

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            martingale_scale(5, 1.5)

    def test_rejects_non_finite_n(self):
        for n in (math.nan, math.inf):
            with pytest.raises(ValueError, match="n >= 1"):
                martingale_scale(n, 0.5)


class TestGammaRatioHelpers:
    def test_poles_give_zero(self):
        assert recip_gamma(0.0) == 0.0
        assert recip_gamma(-2.0) == 0.0


class TestGammaSums:
    def test_telescoping_example(self):
        # sum_{j<=10} 1/(j(j+1)) = 1 - 1/11
        assert gamma_sum_linear(0.0, 2.0, 10) == pytest.approx(10.0 / 11.0, rel=1e-14)

    def test_single_terms(self):
        assert gamma_sum_linear(0.0, 2.0, 1) == pytest.approx(0.5, rel=1e-14)
        assert gamma_sum_weighted(0.0, 3.0, 1) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_weighted_partial_fractions(self):
        # sum j * Gamma(j)/Gamma(j+3) = sum 1/((j+1)(j+2))
        direct = math.fsum(1.0 / ((j + 1) * (j + 2)) for j in range(1, 51))
        assert gamma_sum_weighted(0.0, 3.0, 50) == pytest.approx(direct, rel=1e-12)

    def test_against_direct_summation(self):
        assert gamma_sum_linear(0.5, 3.2, 200) == pytest.approx(
            gamma_sum_linear_direct(0.5, 3.2, 200), rel=1e-12
        )
        assert gamma_sum_weighted(1.5, 4.0, 300) == pytest.approx(
            gamma_sum_weighted_direct(1.5, 4.0, 300), rel=1e-11
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(0.0, 4.0),
        st.floats(0.0, 4.0),
        st.integers(1, 1000),
    )
    def test_random_cases(self, a, b, n):
        if abs(b - a - 1.0) < 0.05 or abs(b - a - 2.0) < 0.05:
            return
        linear = gamma_sum_linear(a, b, n)
        assert linear == pytest.approx(gamma_sum_linear_direct(a, b, n), rel=1e-12)
        weighted = gamma_sum_weighted(a, b, n)
        assert weighted == pytest.approx(gamma_sum_weighted_direct(a, b, n), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 4.0), st.floats(0.0, 4.0), st.integers(1, 1000))
    def test_direct_sums_match_scalar_loop(self, a, b, n):
        # test oracle: the terms by the product recurrence t_1 = Gamma(1+a)/Gamma(1+b),
        # t_{j+1} = t_j (j+a)/(j+b); each step rounds four times, so the n-th
        # term is off by at most 4n ulps, ~4.4e-13 at n = 1000
        terms = [math.gamma(1.0 + a) / math.gamma(1.0 + b)]
        for j in range(1, n):
            terms.append(terms[-1] * (j + a) / (j + b))
        assert gamma_sum_linear_direct(a, b, n) == pytest.approx(math.fsum(terms), rel=1e-12)
        weighted = math.fsum(j * t for j, t in enumerate(terms, 1))
        assert gamma_sum_weighted_direct(a, b, n) == pytest.approx(weighted, rel=1e-12)

    def test_poles_and_negative_gamma_against_mpmath(self):
        # b = 0 and 1 are poles of Gamma(b) or Gamma(b-1) in the closed forms,
        # and Gamma(b-1) < 0 for b < 1; the sums carry them as the factors
        # b and (b-1) b, with no branch.  Reference: the terms by the product
        # recurrence at 40 digits
        worst = 0.0
        for b in (0.0, 0.25, 0.5, 1.0, 1.5):
            for a in (0.0, 0.25, 0.6, 1.3, 2.5, 4.0):
                if abs(b - a - 1.0) < 0.05:
                    continue
                term = mp.gamma(1 + mp.mpf(a)) / mp.gamma(1 + mp.mpf(b))
                linear = weighted = mp.mpf(0)
                for j in range(1, 1001):
                    linear += term
                    weighted += j * term
                    if j in (1, 2, 3, 10, 1000):
                        worst = max(
                            worst,
                            float(abs(gamma_sum_linear(a, b, j) / linear - 1)),
                            float(abs(gamma_sum_weighted(a, b, j) / weighted - 1)),
                        )
                    term *= (j + mp.mpf(a)) / (j + mp.mpf(b))
        assert worst <= 1e-13

    def test_singular_guards(self):
        with pytest.raises(SingularParameterError, match="b - a - 1"):
            gamma_sum_linear(1.0, 2.0, 5)
        with pytest.raises(SingularParameterError, match="b - a - 2"):
            gamma_sum_weighted(1.0, 3.0, 5)
        with pytest.raises(ValueError):
            gamma_sum_linear(-0.5, 2.0, 5)

    @pytest.mark.parametrize(("a", "b"), [
        (0.3, math.nan), (math.nan, 2.0), (0.3, math.inf), (math.inf, 2.0),
    ])
    def test_non_finite_a_b_refused(self, a, b):
        # a nan passed the test a < 0 and gave nan
        for call in (gamma_sum_linear, gamma_sum_weighted, gamma_sum_linear_direct,
                     gamma_sum_weighted_direct):
            with pytest.raises(ValueError, match="defined for a, b >= 0"):
                call(a, b, 10)

    def test_direct_sums_over_cases(self):
        # one call over arrays of cases gives each case's scalar sum
        a = np.array([[0.0, 0.5], [2.25, 1.3]])
        b = np.array([2.5, 3.2])
        n = np.array([[1], [40]])
        for oracle in (gamma_sum_linear_direct, gamma_sum_weighted_direct):
            got = oracle(a, b, n)
            assert got.shape == (2, 2)
            for (i, j), value in np.ndenumerate(got):
                assert value.tobytes() == oracle(a[i, j], b[j], n[i, 0]).tobytes()


class TestRecursionSolver:
    """The blocked scan that solves b_{n+1} = (1 + beta/n) b_n + c_n, the
    solver behind every moment table, against the gamma-ratio oracle."""

    def test_initial_value(self):
        # n = 1: no forcing, no step
        assert _solve_recursion_scan(2.0, 1.5, []).tolist() == [1.5]
        assert solve_recursion(2.0, 1.5, []) == pytest.approx(1.5, rel=1e-14)

    def test_one_step_by_hand(self):
        # b_2 = (1 + 2/1) * 1 + 1 = 4
        assert _solve_recursion_scan(2.0, 1.0, [1.0]).tolist() == [1.0, 4.0]
        assert solve_recursion(2.0, 1.0, [1.0]) == pytest.approx(4.0, rel=1e-14)

    def test_constant_case_long_run(self):
        beta, c = 1.5, 2.0
        ns = np.arange(1.0, 501.0)
        scan = _solve_recursion_scan(beta, c, np.full(499, c))
        form = c * unit_constant_solution(beta, ns, np.exp(log_gamma_ratio(ns, beta)))
        np.testing.assert_allclose(scan, form, rtol=1e-13, atol=0.0)
        assert solve_recursion(beta, c, np.full(499, c)) == pytest.approx(scan[-1], rel=1e-13)

    @pytest.mark.parametrize("beta", [0.05, 1.0, 2.5, 4.0])
    def test_block_edges_match_oracle(self, beta):
        # n - 1 one short of, at and one past a perfect square w^2, where the
        # block width steps up to w + 1 and the last block holds one step,
        # and n - 1 = w (w + 1), where the blocks end flush with the steps
        for n in (16, 17, 18, 21, 401, 402, 421):
            c = 3.0 * uniform_draws(replicate_keys(n, 0, n - 1), 3)
            scan = _solve_recursion_scan(beta, 0.7, c)
            oracle = [solve_recursion(beta, 0.7, c[:k]) for k in range(n)]
            np.testing.assert_allclose(scan, oracle, rtol=1e-13, atol=0.0, err_msg=f"n={n}")

    @pytest.mark.slow
    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.05, 4.0),
        st.floats(0.1, 2.0),
        st.integers(2, 300),
        st.lists(st.floats(0.0, 3.0), min_size=300, max_size=300),
    )
    def test_solution_satisfies_recursion(self, beta, b1, n, c_values):
        c = np.array(c_values[: n - 1])
        scan = _solve_recursion_scan(beta, b1, c)
        assert scan[-1] == pytest.approx(solve_recursion(beta, b1, c), rel=1e-10, abs=1e-12)
        # stepping the solved value forward reproduces the recursion
        forward = (1.0 + beta / (n - 1)) * scan[-2] + c[-1]
        assert scan[-1] == pytest.approx(forward, rel=1e-10, abs=1e-12)


class TestWholeNumberRule:
    def test_one_rule_for_n(self):
        # the sums, their oracles, the moment table, the count chain, the
        # conditional moments, the walks and the batches take n (and a
        # batch its replicates) >= 1 whole, as an int, a float or a numpy
        # integer; half a term or step, and a bool or a string, are refused
        # rather than interpolated or read as 0 or 1
        dist = StepDistribution.discrete((-1.0, 2.0), (0.6, 0.4))
        ms = moment_set(dist)
        calls = (
            lambda n: gamma_sum_linear(0.5, 3.2, n),
            lambda n: gamma_sum_weighted(0.5, 3.2, n),
            lambda n: gamma_sum_linear_direct(0.5, 3.2, n),
            lambda n: gamma_sum_weighted_direct(0.5, 3.2, n),
            lambda n: exact_moments_upto(ms, 0.75, n).values,
            lambda n: brute_force_moments(dist, 0.75, n).values,
            lambda n: exact_law(dist, 0.75, n),
            lambda n: dataclasses.astuple(conditional_step_moments((1.0, 0.0, 1.0), n, ms, 0.5)),
            lambda n: simulate_path(dist, 0.5, n, 7).steps,
            lambda n: cluster_batch(dist, 0.5, n, 20, 7, [1]),
            lambda n: marginal_moment_sums([dist], 0.5, n, 20, 7),
        )
        not_whole = (10.5, True, False, math.nan, math.inf, "10")
        cases = [(call, not_whole + (0, -3)) for call in calls]
        # a count of 0 or less keeps "replicates must be >= 1"
        # (TestBatch::test_empty_batches_refused) or "n_continuations must
        # be >= 1"
        prefix = simulate_path(dist, 0.5, 10, 7)
        cases += [(call, not_whole) for call in (
            lambda replicates: marginal_moment_sums([dist], 0.5, 12, replicates, 7),
            lambda replicates: batch_epsilon_moments([dist], 0.5, 12, replicates, 7),
            lambda count: conditional_continuation_test(prefix, dist, 0.5, count, 7),
        )]
        for call, refused in cases:
            for bad in refused:
                with pytest.raises(ValueError, match="must be a positive integer"):
                    call(bad)
            want = np.asarray(call(10)).tobytes()
            assert np.asarray(call(10.0)).tobytes() == want
            assert np.asarray(call(np.int64(10))).tobytes() == want
        with pytest.raises(ValueError, match="must be a positive integer"):
            gamma_sum_linear(0.5, 3.2, np.array([3.0, 10.5]))

