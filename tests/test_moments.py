"""Moment recursions, closed forms, limits, and the count-chain oracle."""

import csv
import io
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erw import (
    EnumerationSizeError,
    MomentSet,
    RegimeError,
    SingularParameterError,
    StepDistribution,
    brute_force_moments,
    closed_form_moments,
    closed_form_s4,
    conditional_step_moments,
    derive_moment_set,
    exact_law,
    exact_moment_tables,
    exact_moments_upto,
    fourth_moment_coefficient,
    limit_q_moments,
    log_gamma_ratio,
    moment_set,
)
from erw import gammatools, moments
from erw import simulate as sim
from erw.gammatools import check_alpha, martingale_scale
from erw.moments import (
    exact_moments_bytes,
    second_moment_coefficient,
    third_moment_coefficient,
)
from erw.verify import row_relerr
from literal_batch import simulate_batch
from table_csv import kernel_rows, read_table_csv, table_csv_string

ROW_FIELDS = ("s2", "st", "s3", "su", "t2", "s2t", "s4")

ORACLE_LAWS = {
    "rademacher": StepDistribution.rademacher(),
    "bernoulli": StepDistribution.bernoulli(0.3),
    "uniform": StepDistribution.uniform(0.0, 1.0),
    "skewed": StepDistribution.discrete((-1.0, 2.0), (0.6, 0.4)),
    "gaussian": StepDistribution.gaussian(0.5, 2.0),
    "shifted": StepDistribution.gaussian(1000.0, 1.0),
}
ORACLE_ALPHAS = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.6, 0.75, 1.0)
#: no step, one step, and tables whose last block of steps is full (3,
#: 13, 241) or partial
ORACLE_SIZES = (1, 2, 3, 10, 13, 49, 100, 241, 257, 500)

#: the laws and alphas of the batch tests; `_W` (_W + 1) rows give blocks of
#: _W + 1 steps with one step of padding, one more row none
_BATCH_LAWS = ("rademacher", "bernoulli", "uniform", "skewed")
_BATCH_ALPHAS = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0)
_W = 31


def _batch_pairs(laws):
    return [(moment_set(ORACLE_LAWS[law]), alpha) for law in laws for alpha in _BATCH_ALPHAS]


def _kahan_add(value, comp, increment):
    y = increment - comp
    t = value + y
    return t, (t - value) - y


def _law_map(ms, e2, e3, e4, d):
    """Test oracle: the seven columns from the four cluster-size sequences
    (E S2, E S3, E S4 and D = E(S2^2 - S4)), by the products
    `exact_moment_tables` writes; numpy arrays or mpmath numbers."""
    return (
        ms.M2 * e2, ms.M12 * e2, ms.M3 * e3, ms.M13 * e2, ms.M22 * e2, ms.M112 * e3,
        ms.M4 * e4 + 3.0 * ms.M2 * ms.M2 * d,
    )


def _reference_exact_moments(ms, alpha, n_max):
    """Test oracle: the four cluster-size sequences in their plain form, one
    call per compensated addition and one numpy row stored per step (the
    loop the blocked scan of `exact_moments_upto` replaced), mapped by
    `_law_map`."""
    sizes = np.empty((n_max, 4), dtype=np.float64)
    e2 = e3 = e4 = 1.0
    d = c2 = c3 = c4 = cd = 0.0
    sizes[0] = (e2, e3, e4, d)
    for n in range(1, n_max):
        a = alpha / n
        inc2 = 2.0 * a * e2 + 1.0
        inc3 = 3.0 * a * e3 + 3.0 * a * e2 + 1.0
        inc4 = 4.0 * a * e4 + 6.0 * a * e3 + 4.0 * a * e2 + 1.0
        inc_d = 4.0 * a * d + 2.0 * e2 - 2.0 * a * e3
        e2, c2 = _kahan_add(e2, c2, inc2)
        e3, c3 = _kahan_add(e3, c3, inc3)
        e4, c4 = _kahan_add(e4, c4, inc4)
        d, cd = _kahan_add(d, cd, inc_d)
        sizes[n] = (e2, e3, e4, d)
    return np.column_stack(_law_map(ms, *sizes.T))


def _law_free_moments(ms, alpha, n_max):
    """Test oracle: rows 1 .. n_max of the four cluster-size sequences,
    iterated in mpmath's working precision from (1, 1, 1, 0) at n = 1 with
    a = alpha / n, each mapped by `_law_map`; `ms` and `alpha` hold mpmath
    numbers."""
    e2, e3, e4, d = mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(0)
    rows = [_law_map(ms, e2, e3, e4, d)]
    for n in range(1, n_max):
        a = alpha / n
        e2, e3, e4, d = (
            e2 + 2 * a * e2 + 1,
            e3 + 3 * a * e3 + 3 * a * e2 + 1,
            e4 + 4 * a * e4 + 6 * a * e3 + 4 * a * e2 + 1,
            d + 4 * a * d + 2 * e2 - 2 * a * e3,
        )
        rows.append(_law_map(ms, e2, e3, e4, d))
    return rows


def _coupled_recursions(ms, alpha, n_max):
    """Test oracle: rows 1 .. n_max of the paper's seven coupled recursions,
    whose forcings carry the raw moments m1 and m2, iterated in mpmath's
    working precision; `ms` and `alpha` hold mpmath numbers."""
    m1, m2, M2, M3, M4 = ms.m1, ms.m2, ms.M2, ms.M3, ms.M4
    M12, M13, M22, M112 = ms.M12, ms.M13, ms.M22, ms.M112
    x = [M2, M12, M3, M13, M22, M112, M4]
    rows = [x]
    for n in range(1, n_max):
        a = alpha / n
        s2, st, s3, su, t2, s2t, s4 = x
        x = [
            s2 + 2 * a * s2 + M2,
            st + 2 * a * st + M12,
            s3 + 3 * a * s3 + 3 * a * st - 6 * a * m1 * s2 + M3,
            su + 2 * a * su + M13,
            t2 + 2 * a * t2 + M22,
            s2t + 3 * a * s2t + 2 * a * su + a * t2 - 4 * a * m1 * st - 2 * a * m2 * s2 + M112,
            s4 + 4 * a * s4 + 6 * a * s2t + 4 * a * su - 12 * a * m1 * (s3 + st)
            + (12 * a * m1 * m1 + 6 * M2) * s2 + M4,
        ]
        rows.append(x)
    return rows


def _mpmath_exact_moments(ms, alpha, n_max):
    """Test oracle: `_law_free_moments` in 40-digit mpmath from the law's
    double moments and alpha, as (hi, lo): two float64 tables whose sum is
    each cell to about 1e-32 relative."""
    mpf = mpmath.mpf
    with mpmath.workdps(40):
        exact = MomentSet(**{name: mpf(value) for name, value in vars(ms).items()})
        rows = _law_free_moments(exact, mpf(alpha), n_max)
        hi = np.array([[float(v) for v in row] for row in rows])
        lo = np.array([[float(v - mpf(float(v))) for v in row] for row in rows])
    return hi, lo


def _oracle_relerr(values, hi, lo):
    """Each cell's error against the mpmath oracle (hi + lo), relative to
    the cell (an exact zero of the oracle: absolute)."""
    scale = np.abs(hi)
    return np.abs((values - hi) - lo) / np.where(scale == 0.0, 1.0, scale)


def _gaussian_raw(mu, sigma):
    v = sigma * sigma
    return (mu, mu * mu + v, mu ** 3 + 3 * mu * v, mu ** 4 + 6 * mu * mu * v + 3 * v * v)


#: the exact raw moments (m1, m2, m3, m4) of four laws, made in mpmath's
#: working precision when called
EXACT_RAW_MOMENTS = {
    "uniform(0,1)": lambda: tuple(mpmath.mpf(1) / (k + 1) for k in range(1, 5)),
    "gaussian(0.5,2)": lambda: _gaussian_raw(mpmath.mpf("0.5"), mpmath.mpf(2)),
    "gaussian(1000,1)": lambda: _gaussian_raw(mpmath.mpf(1000), mpmath.mpf(1)),
    "discrete(-1,0.5,2)": lambda: tuple(
        sum(mpmath.mpf(w) * mpmath.mpf(x) ** k
            for x, w in (("-1", "0.3"), ("0.5", "0.5"), ("2", "0.2")))
        for k in range(1, 5)
    ),
}


_RAD = StepDistribution.rademacher()
_RAD_MS = moment_set(_RAD)

#: Every public function that takes alpha, called with small valid
#: arguments around it; each must apply `check_alpha` to alpha.
ALPHA_TAKERS = {
    "exact_moments_upto": lambda a: exact_moments_upto(_RAD_MS, a, 3),
    "second_moment_coefficient": lambda a: second_moment_coefficient(_RAD_MS, a),
    "third_moment_coefficient": lambda a: third_moment_coefficient(_RAD_MS, a),
    "fourth_moment_coefficient": lambda a: fourth_moment_coefficient(_RAD_MS, a),
    "closed_form_moments": lambda a: closed_form_moments(_RAD_MS, a, 5.0),
    "closed_form_s4": lambda a: closed_form_s4(_RAD_MS, a, 5.0),
    "limit_q_moments": lambda a: limit_q_moments(_RAD_MS, a),
    "conditional_step_moments": lambda a: conditional_step_moments(
        (1.0, 0.0, 1.0), 3, _RAD_MS, a
    ),
    "exact_law": lambda a: exact_law(_RAD, a, 2),
    "brute_force_moments": lambda a: brute_force_moments(_RAD, a, 2),
    "simulate_path": lambda a: sim.simulate_path(_RAD, a, 3, 1),
    "simulate_batch": lambda a: simulate_batch(_RAD, a, 3, 2, 1, [3]),
    "cluster_batch": lambda a: sim.cluster_batch(_RAD, a, 3, 2, 1, [3]),
    "empirical_q_moments": lambda a: sim.empirical_q_moments(
        sim.cluster_batch(_RAD, 0.75, 3, 2, 1, [3]), 2, [3], a
    ),
    "batch_epsilon_moments": lambda a: sim.batch_epsilon_moments([_RAD], a, 3, 2, 1),
    "marginal_moment_sums": lambda a: sim.marginal_moment_sums([_RAD], a, 3, 2, 1),
    "conditional_continuation_test": lambda a: sim.conditional_continuation_test(
        sim.simulate_path(_RAD, 0.75, 3, 1), _RAD, a, 2, 1
    ),
    "martingale_scale": lambda a: martingale_scale(3, a),
}


class TestAlphaRule:
    """alpha is a plain float, and one rule, `check_alpha`, bounds it."""

    @pytest.mark.parametrize("alpha", [-0.1, 1.01, math.nan], ids=["negative", "above-one", "nan"])
    @pytest.mark.parametrize("name", ALPHA_TAKERS)
    def test_rejects_outside_unit_interval(self, name, alpha):
        with pytest.raises(ValueError, match=r"^alpha must be in \[0, 1\], got "):
            ALPHA_TAKERS[name](alpha)

    @pytest.mark.parametrize("name", ALPHA_TAKERS)
    def test_int_alpha_accepted(self, name):
        ALPHA_TAKERS[name](1)

    def test_range(self):
        for alpha in (-0.1, 1.01, math.nan, -math.inf):
            with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\]"):
                check_alpha(alpha)
        assert check_alpha(0.0) == 0.0 and check_alpha(1.0) == 1.0
        assert type(check_alpha(1)) is float

    def test_superdiffusive_boundary(self):
        with pytest.raises(RegimeError, match="superdiffusive"):
            limit_q_moments(_RAD_MS, 0.5)
        limits = limit_q_moments(_RAD_MS, 0.500001)
        assert math.isfinite(limits.q2) and limits.q2 > 0.0


class TestExactRecursion:
    def test_initial_row(self, standard_moment_sets):
        for ms in standard_moment_sets.values():
            row = exact_moments_upto(ms, 0.7, 1).values[0]
            assert tuple(row.tolist()) == (ms.M2, ms.M12, ms.M3, ms.M13, ms.M22, ms.M112, ms.M4)

    def test_hand_iteration_rademacher(self, standard_moment_sets):
        # s2 steps: 1 -> (1+1)*1+1 = 3 -> (1+0.5)*3+1 = 5.5
        table = exact_moments_upto(standard_moment_sets["rademacher"], 0.5, 3)
        assert table.column("s2").tolist() == [1.0, 3.0, 5.5]

    def test_valid_for_all_alpha(self, standard_moment_sets):
        for alpha in (0.0, 1.0 / 3.0, 0.5, 1.0):
            table = exact_moments_upto(standard_moment_sets["bernoulli"], alpha, 50)
            assert np.all(np.isfinite(table.column("s4")))

    def test_rejects_bad_n(self, standard_moment_sets):
        with pytest.raises(ValueError):
            exact_moments_upto(standard_moment_sets["rademacher"], 0.5, 0)

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    @pytest.mark.parametrize("law", sorted(ORACLE_LAWS))
    def test_matches_mpmath_oracle(self, law, alpha):
        ms = moment_set(ORACLE_LAWS[law])
        # the oracle's table is a prefix of every longer one
        hi, lo = _mpmath_exact_moments(ms, alpha, ORACLE_SIZES[-1])
        for n in ORACLE_SIZES:
            values = exact_moments_upto(ms, alpha, n).values
            assert np.array_equal(values == 0.0, hi[:n] == 0.0), n
            assert _oracle_relerr(values, hi[:n], lo[:n]).max() <= 1e-15, n

    @pytest.mark.parametrize("alpha", [(0, 1), (1, 4), (1, 3), (1, 2), (3, 4), (1, 1)],
                             ids=["0", "1/4", "1/3", "1/2", "3/4", "1"])
    @pytest.mark.parametrize("law", sorted(EXACT_RAW_MOMENTS))
    def test_coupled_recursions_derive_law_free_map(self, law, alpha):
        # the paper's seven recursions, whose forcings carry m1 and m2, and
        # the law-free sequences give the same moments in 50 digits, from
        # moment sets derived from exact raw moments
        with mpmath.workdps(50):
            ms = derive_moment_set(*EXACT_RAW_MOMENTS[law]())
            a = mpmath.mpf(alpha[0]) / alpha[1]
            coupled = _coupled_recursions(ms, a, 200)
            law_free = _law_free_moments(ms, a, 200)
            worst = max(
                max(abs(x - y) for x, y in zip(row, free)) / max(abs(x) for x in row)
                for row, free in zip(coupled, law_free)
            )
        assert worst <= 1e-30, worst

    @pytest.mark.slow
    def test_matches_mpmath_oracle_at_2e4(self):
        n = 20_000
        ms = moment_set(ORACLE_LAWS["skewed"])
        hi, lo = _mpmath_exact_moments(ms, 0.75, n)
        values = exact_moments_upto(ms, 0.75, n).values
        assert _oracle_relerr(values, hi, lo).max() <= 1e-15

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    @pytest.mark.parametrize("law", sorted(ORACLE_LAWS))
    def test_bytes_match_oracle(self, law, alpha):
        # against the literal loop the scan replaced: the cells the loop
        # holds exactly (row 1 and the exact zeros) keep its bytes, and
        # every other cell is within 1e-15 of its row
        ms = moment_set(ORACLE_LAWS[law])
        sizes = (1, 2, 4095, 4096, 4097, 8195)
        oracle = _reference_exact_moments(ms, alpha, sizes[-1])
        for n in sizes:
            values = exact_moments_upto(ms, alpha, n).values
            assert values[0].tobytes() == oracle[0].tobytes()
            assert np.array_equal(values == 0.0, oracle[:n] == 0.0), n
            assert row_relerr(oracle[:n], values).max() <= 1e-15, n

    @pytest.mark.parametrize("law", sorted(ORACLE_LAWS))
    def test_tables_of_any_length_agree(self, law):
        # the blocks follow n_max, so a table is no longer a byte prefix of
        # a longer one; its cells agree to 1e-15, measured as against the
        # mpmath oracle
        ms = moment_set(ORACLE_LAWS[law])
        for alpha in ORACLE_ALPHAS:
            longest = exact_moments_upto(ms, alpha, 2000).values
            for n in ORACLE_SIZES + (1296, 1999):
                values = exact_moments_upto(ms, alpha, n).values
                assert _oracle_relerr(values, longest[:n], 0.0).max() <= 1e-15, (alpha, n)

    def test_uses_no_gamma_function(self, monkeypatch):
        # the recursion is the path `verify` holds the closed forms to, so
        # it must not be built from them
        def refuse(*args, **kwargs):
            raise AssertionError("the recursion called a gamma-function routine")

        for name in ("log_gamma_ratio", "recip_gamma", "scaled_gamma_sums",
                     "unit_constant_solution"):
            monkeypatch.setattr(gammatools, name, refuse)
            monkeypatch.setattr(moments, name, refuse)
        ms = moment_set(ORACLE_LAWS["skewed"])
        assert len(exact_moments_upto(ms, 0.75, 1000)) == 1000

    @pytest.mark.parametrize("n", [2, 1000, 4096, 2**15, 100_000])
    def test_peak_within_exact_moments_bytes(self, n):
        # the bound counts what the scan holds: from 2^15 steps, where
        # numpy reuses temporaries, the peak fills it to over 98% (99.6% at
        # 2^15, 99.7% at 1e5), so a loose formula or a memory regression
        # fails here.  The closest below is 98.9% at 4096.
        ms = moment_set(ORACLE_LAWS["skewed"])
        exact_moments_upto(ms, 0.75, 10)  # first-call allocations aside
        tracemalloc.start()
        try:
            exact_moments_upto(ms, 0.75, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= exact_moments_bytes(n)
        if n >= 2**15:
            assert peak >= 0.98 * exact_moments_bytes(n)

    @pytest.mark.parametrize("n", [1, 2, 3, _W * (_W + 1), _W * (_W + 1) + 1, 10_000])
    def test_batch_bytes_match_single_tables(self, n):
        # one scan for the batch, the operations of one table for each cell
        pairs = _batch_pairs(_BATCH_LAWS)
        tables = exact_moment_tables(pairs, n)
        assert len(tables) == len(pairs)
        for (ms, alpha), table in zip(pairs, tables):
            single = exact_moments_upto(ms, alpha, n).values
            assert table.values.tobytes() == single.tobytes(), (alpha, n)

    def test_table_bytes_independent_of_batch(self):
        # 18 tables, each made alone, in the batch of all 18 in both orders
        # and in batches of three at every position
        n = 1000
        pairs = _batch_pairs(_BATCH_LAWS[:3])
        alone = [exact_moment_tables([pair], n)[0].values.tobytes() for pair in pairs]
        order = list(range(len(pairs)))
        batches = [order, order[::-1]] + [
            order[k + shift : k + 3] + order[k : k + shift]
            for k in range(0, len(pairs), 3) for shift in range(3)
        ]
        for batch in batches:
            tables = exact_moment_tables([pairs[i] for i in batch], n)
            assert [t.values.tobytes() for t in tables] == [alone[i] for i in batch], batch

    @pytest.mark.parametrize(("tables", "n"), [(3, 2), (3, 1000), (3, 20_000), (18, 1000)])
    def test_batch_peak_within_exact_moments_bytes(self, tables, n):
        pairs = _batch_pairs(_BATCH_LAWS[:3])
        exact_moment_tables(pairs[:2], 10)  # first-call allocations aside
        tracemalloc.start()
        try:
            exact_moment_tables(pairs[:tables], n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tables * exact_moments_bytes(n)

    def test_rademacher_degeneracy_exact(self, standard_moment_sets):
        # T~ == 0 for steps in {-1, +1}: st, t2, s2t vanish and su == s2
        for alpha in (0.0, 0.3, 0.75, 1.0):
            table = exact_moments_upto(standard_moment_sets["rademacher"], alpha, 2000)
            assert np.all(table.column("st") == 0.0)
            assert np.all(table.column("t2") == 0.0)
            assert np.all(table.column("s2t") == 0.0)
            assert np.all(table.column("su") == table.column("s2"))


class TestClosedForms:
    def test_small_n_rademacher(self, standard_moment_sets):
        # at n = 2 the second moment reduces to 2 (alpha + 1) M2
        cf = closed_form_moments(standard_moment_sets["rademacher"], 0.75, 2)
        assert cf.s2 == pytest.approx(3.5, rel=1e-12)

    def test_alpha_one_quadratic_growth(self, standard_moment_sets):
        # with full memory the walk is n times its first step
        for ms in standard_moment_sets.values():
            for n in (1, 2, 10, 1000):
                cf = closed_form_moments(ms, 1.0, n)
                assert cf.s2 == pytest.approx(ms.M2 * n * n, rel=1e-12)

    def test_k4_rademacher(self, standard_moment_sets):
        assert fourth_moment_coefficient(standard_moment_sets["rademacher"], 0.75) == 9.75

    def test_k4_matches_recursion_tail(self, standard_moment_sets):
        ms = standard_moment_sets["bernoulli"]
        alpha = 0.9
        n = 20_000
        table = exact_moments_upto(ms, alpha, n)
        s4 = float(table.column("s4")[n - 1])
        r = s4 * math.exp(-log_gamma_ratio(float(n), 4 * alpha))
        k4 = fourth_moment_coefficient(ms, alpha)
        assert r == pytest.approx(k4, rel=0.02)
        # test oracle: K4 Gamma(n+4a)/Gamma(n), the large-n equivalent of s4
        asymptote = k4 * math.exp(log_gamma_ratio(float(n), 4 * alpha))
        assert asymptote == pytest.approx(s4, rel=0.02)

    # the six forms divide by 2a-1 and 3a-1 only, so 1/4 is regular
    @pytest.mark.parametrize("alpha", [0.25, 0.26, 0.4, 0.6, 0.75, 0.9, 1.0])
    def test_matches_recursion(self, alpha, standard_moment_sets):
        for ms in standard_moment_sets.values():
            n_max = 2000
            table = exact_moments_upto(ms, alpha, n_max)
            ns = np.arange(1, n_max + 1, dtype=np.float64)
            cf = closed_form_moments(ms, alpha, ns)
            closed = np.column_stack([cf.s2, cf.st, cf.s3, cf.su, cf.t2, cf.s2t])
            assert row_relerr(table.values[:, :6], closed).max() <= 1e-8

    @pytest.mark.parametrize(
        "alpha,denominator",
        [(0.5, "2\\*alpha - 1"), (1.0 / 3.0, "3\\*alpha - 1")],
    )
    def test_singular_guards(self, alpha, denominator, standard_moment_sets):
        with pytest.raises(SingularParameterError, match=denominator):
            closed_form_moments(standard_moment_sets["bernoulli"], alpha, 10)

    def test_near_singular_guard_radius(self, standard_moment_sets):
        ms = standard_moment_sets["bernoulli"]
        with pytest.raises(SingularParameterError):
            closed_form_moments(ms, 0.5 + 1e-9, 10)
        closed_form_moments(ms, 0.5 + 1e-7, 10)  # outside the radius


class TestClosedFormS4:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.75, 1.0])
    @pytest.mark.parametrize(
        "dist",
        [StepDistribution.rademacher(), StepDistribution.discrete((-0.5, 1.0), (0.6, 0.4))],
        ids=["rademacher", "discrete(-0.5,1)"],
    )
    def test_matches_brute_force(self, dist, alpha):
        ms = moment_set(dist)
        values = closed_form_s4(ms, alpha, np.arange(1.0, 7.0))
        brute = brute_force_moments(dist, alpha, 6).column("s4")
        for n, (value, want) in enumerate(zip(values, brute), 1):
            assert value == pytest.approx(want, rel=1e-12, abs=1e-12), n

    @pytest.mark.parametrize("alpha", [0.0, 0.26, 0.4, 0.6, 0.75, 0.9, 1.0])
    def test_matches_recursion(self, alpha, standard_moment_sets):
        n_max = 10_000
        ns = np.arange(1.0, n_max + 1.0)
        for name, ms in standard_moment_sets.items():
            rec = exact_moments_upto(ms, alpha, n_max).column("s4")
            closed = closed_form_s4(ms, alpha, ns)
            rel = np.abs(closed - rec) / np.abs(rec)
            assert float(rel.max()) <= 1e-10, (name, int(rel.argmax()) + 1)

    def test_memoryless(self, standard_moment_sets):
        ns = np.arange(1.0, 50.0)
        for ms in standard_moment_sets.values():
            expected = ns * ms.M4 + 3.0 * ns * (ns - 1.0) * ms.M2 ** 2
            assert np.allclose(closed_form_s4(ms, 0.0, ns), expected, rtol=1e-14, atol=0.0)

    def test_first_row_is_m4(self, standard_moment_sets):
        for ms in standard_moment_sets.values():
            for alpha in (0.0, 0.26, 0.6, 1.0):
                assert closed_form_s4(ms, alpha, 1) == ms.M4

    @pytest.mark.parametrize(
        "alpha,denominator",
        [(0.5, "2\\*alpha - 1"), (1.0 / 3.0, "3\\*alpha - 1"), (0.25, "4\\*alpha - 1")],
    )
    def test_singular_guards(self, alpha, denominator, standard_moment_sets):
        with pytest.raises(SingularParameterError, match=denominator):
            closed_form_s4(standard_moment_sets["bernoulli"], alpha, 10)


@pytest.mark.parametrize(("form", "powers"), [(closed_form_moments, 2), (closed_form_s4, 3)])
def test_closed_forms_take_their_ratios_in_one_call(form, powers, monkeypatch,
                                                    standard_moment_sets):
    # every R_p = Gamma(n+pa)/Gamma(n) from one call over a stack of deltas,
    # so the Stirling tail of n is taken once; `scaled_gamma_sums` makes its
    # own calls for its scalar lead ratios
    calls = []

    def counting(n, delta):
        calls.append(np.shape(delta))
        return log_gamma_ratio(n, delta)

    monkeypatch.setattr(moments, "log_gamma_ratio", counting)
    form(standard_moment_sets["bernoulli"], 0.75, np.arange(1.0, 101.0))
    assert calls == [(powers, 1)]
    form(standard_moment_sets["bernoulli"], 0.75, 7)
    assert calls[1:] == [(powers,)]


class TestLimitMoments:
    def test_alpha_one_exact(self, standard_moment_sets, skewed_two_point):
        sets = list(standard_moment_sets.values()) + [moment_set(skewed_two_point)]
        for ms in sets:
            lm = limit_q_moments(ms, 1.0)
            assert lm.q1 == 0.0
            assert lm.q2 == ms.M2
            assert lm.q3 == ms.M3
            assert lm.q4 == ms.M4

    def test_rademacher_three_quarters(self, standard_moment_sets):
        lm = limit_q_moments(standard_moment_sets["rademacher"], 0.75)
        assert lm.q1 == 0.0
        assert lm.q2 == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-14)
        assert lm.q3 == 0.0
        assert lm.q4 == 9.75

    def test_symmetric_laws_have_zero_q3(self, standard_moment_sets):
        for name in ("rademacher", "uniform"):
            for alpha in (0.6, 0.8, 0.95):
                assert limit_q_moments(standard_moment_sets[name], alpha).q3 == 0.0

    def test_regime_guard(self, standard_moment_sets):
        ms = standard_moment_sets["rademacher"]
        for alpha in (0.0, 0.3, 0.5):
            with pytest.raises(RegimeError, match="superdiffusive"):
                limit_q_moments(ms, alpha)
        with pytest.raises(SingularParameterError):
            limit_q_moments(ms, 0.5 + 1e-9)

    def test_q4_equals_k4(self, standard_moment_sets):
        for ms in standard_moment_sets.values():
            for alpha in (0.6, 0.75, 0.9):
                assert limit_q_moments(ms, alpha).q4 == fourth_moment_coefficient(ms, alpha)


class TestConditionalStepMoments:
    def test_zero_sums(self, standard_moment_sets):
        ms = standard_moment_sets["bernoulli"]
        pred = conditional_step_moments((0.0, 0.0, 0.0), 5, ms, 0.8)
        assert (pred.dx, pred.dx2, pred.dx3, pred.dt, pred.dt_dx, pred.du) == (
            0.0, ms.M2, ms.M3, 0.0, ms.M12, 0.0,
        )

    def test_rademacher_prefix(self, standard_moment_sets):
        # three +1 steps: S~ = 3, so E(X_4 - m1 | F_3) = (0.6/3) * 3 = 0.6
        ms = standard_moment_sets["rademacher"]
        pred = conditional_step_moments((3.0, 0.0, 3.0), 3, ms, 0.6)
        assert pred.dx == pytest.approx(0.6, rel=1e-15)

    def test_memoryless_reduces_to_unconditional(self, standard_moment_sets):
        ms = standard_moment_sets["uniform"]
        pred = conditional_step_moments((2.5, -1.0, 0.7), 9, ms, 0.0)
        assert (pred.dx, pred.dx2, pred.dx3, pred.dt, pred.dt_dx, pred.du) == (
            0.0, ms.M2, ms.M3, 0.0, ms.M12, 0.0,
        )

    def test_rejects_bad_n(self, standard_moment_sets):
        with pytest.raises(ValueError):
            conditional_step_moments((0.0, 0.0, 0.0), 0, standard_moment_sets["rademacher"], 0.5)


class TestBruteForce:
    def test_single_step_is_initial_row(self, skewed_two_point):
        ms = moment_set(skewed_two_point)
        row = brute_force_moments(skewed_two_point, 0.37, 1).values[0]
        want = [ms.M2, ms.M12, ms.M3, ms.M13, ms.M22, ms.M112, ms.M4]
        assert row.tolist() == pytest.approx(want, abs=1e-15)

    def test_hand_value(self, rademacher):
        assert brute_force_moments(rademacher, 0.5, 3).column("s2")[2] == pytest.approx(5.5, abs=1e-14)

    def test_agrees_with_recursion(self, bernoulli03):
        ms = moment_set(bernoulli03)
        for alpha in (0.75, 0.9):
            table = exact_moments_upto(ms, alpha, 6)
            brute = brute_force_moments(bernoulli03, alpha, 6)
            for n in range(1, 7):
                for name in ROW_FIELDS:
                    assert brute.column(name)[n - 1] == pytest.approx(
                        table.column(name)[n - 1], abs=1e-12
                    ), (alpha, n, name)

    @pytest.mark.parametrize(
        "dist",
        [
            StepDistribution.rademacher(),
            StepDistribution.bernoulli(0.3),
            StepDistribution.discrete((-0.5, 1.0), (0.6, 0.4)),
            StepDistribution.discrete((2.0, -1.0), (0.4, 0.6)),
        ],
        ids=["rademacher", "bernoulli(0.3)", "discrete(-0.5,1)", "discrete(2,-1)"],
    )
    def test_law_matches_recursion_to_n_1000(self, dist):
        # 1/2 and 1/3 exactly, where the closed forms refuse; the gap is
        # scaled by the row's largest entry, since Rademacher's s3 is 0
        ms = moment_set(dist)
        for alpha in (0.0, 0.3, 1.0 / 3.0, 0.5, 0.75, 1.0):
            table = exact_moments_upto(ms, alpha, 1000)
            gap = row_relerr(table.values, brute_force_moments(dist, alpha, 1000).values)
            assert gap.shape == (1000, 7)
            worst_n = int(gap.max(axis=1).argmax()) + 1
            assert gap.max() <= 1e-12, (alpha, worst_n, gap.max())

    def test_probabilities_sum_to_one(self, skewed_two_point):
        for n in (5, 1000):
            law = exact_law(skewed_two_point, 0.4, n)
            assert law.shape == (n + 1,) and law.dtype == np.float64
            assert (law >= 0.0).all()
            assert abs(math.fsum(law) - 1.0) <= 1e-13, n

    def test_size_guards(self, rademacher):
        five_points = StepDistribution.discrete(
            (-2.0, -1.0, 0.0, 1.0, 2.0), (0.2, 0.2, 0.2, 0.2, 0.2)
        )
        three_points = StepDistribution.discrete((-1.0, 0.0, 1.0), (0.3, 0.4, 0.3))
        for dist in (five_points, three_points):
            with pytest.raises(EnumerationSizeError, match="at most 2 positive-weight atoms"):
                brute_force_moments(dist, 0.5, 3)
        # a zero-weight atom is dropped, leaving Rademacher steps
        padded = StepDistribution.discrete((-1.0, 0.0, 1.0), (0.5, 0.0, 0.5))
        assert (brute_force_moments(padded, 0.5, 3).values.tobytes()
                == brute_force_moments(rademacher, 0.5, 3).values.tobytes())

    def test_one_atom_law_is_constant(self):
        for dist in (StepDistribution.discrete((3.0,), (1.0,)), StepDistribution.bernoulli(1.0)):
            assert exact_law(dist, 0.4, 4).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
            assert (brute_force_moments(dist, 0.4, 4).values == 0.0).all()

    def test_needs_finite_support(self):
        with pytest.raises(ValueError, match="finite support"):
            brute_force_moments(StepDistribution.uniform(0, 1), 0.5, 3)


def _csv_writer_rows(first, rows):
    """Test oracle: the rows as `csv.writer` writes them, numbered from `first`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [n, *row] for n, row in enumerate(rows, first)
    )
    return buf.getvalue()


_EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308, math.inf, math.nan]


class TestTableCsv:
    @settings(max_examples=200, deadline=None)
    @given(
        first=st.integers(1, 10**12),
        rows=st.lists(
            st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS), min_size=7, max_size=7),
            min_size=1,
            max_size=5,
        ),
    )
    @example(first=1, rows=[_EDGE_FLOATS[:-2] + [-1e-5, 1e15]])
    def test_rows_match_csv_writer(self, first, rows):
        block = np.array(rows, dtype=np.float64)
        assert kernel_rows(first, block) == _csv_writer_rows(first, rows)

    def test_round_trip(self, standard_moment_sets):
        table = exact_moments_upto(standard_moment_sets["bernoulli"], 0.75, 37)
        buf = io.StringIO(table_csv_string(table))
        parsed = read_table_csv(buf)
        assert len(parsed) == len(table)
        for n in (1, 17, 37):
            for name in ROW_FIELDS:
                assert parsed.column(name)[n - 1] == table.column(name)[n - 1]

    def test_header(self, standard_moment_sets):
        text = table_csv_string(exact_moments_upto(standard_moment_sets["rademacher"], 0.5, 2))
        assert text.splitlines()[0] == "n,s2,st,s3,su,t2,s2t,s4"
