"""Step laws, raw moments, and the derived moment algebra.

The independent oracle for a discrete law is direct weighted expectation
over its support, which never touches the polynomial moment formulas.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erw import (
    StepDistribution,
    as_discrete,
    derive_moment_set,
    inverse_cdf,
    moment_set,
    raw_moments,
)
from erw.rng import replicate_keys, uniform_draws
from erw.verify import check_moment_identities


def direct_mixed_moments(points, weights):
    """Weighted expectations of the centered observables, term by term."""
    m1 = math.fsum(w * p for p, w in zip(points, weights))
    m2 = math.fsum(w * p ** 2 for p, w in zip(points, weights))
    m3 = math.fsum(w * p ** 3 for p, w in zip(points, weights))

    def ev(func):
        return math.fsum(w * func(p) for p, w in zip(points, weights))

    return {
        "M2": ev(lambda x: (x - m1) ** 2),
        "M3": ev(lambda x: (x - m1) ** 3),
        "M4": ev(lambda x: (x - m1) ** 4),
        "M12": ev(lambda x: (x - m1) * (x * x - m2)),
        "M13": ev(lambda x: (x - m1) * (x ** 3 - m3)),
        "M22": ev(lambda x: (x * x - m2) ** 2),
        "M112": ev(lambda x: (x - m1) ** 2 * (x * x - m2)),
    }


finite_floats = st.floats(-2.0, 2.0)


@st.composite
def discrete_laws(draw):
    size = draw(st.integers(2, 4))
    points = draw(
        st.lists(finite_floats, min_size=size, max_size=size, unique=True)
    )
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    total = math.fsum(raw)
    return StepDistribution.discrete(points, [w / total for w in raw])


@st.composite
def discrete_laws_with_zeros(draw):
    size = draw(st.integers(2, 6))
    points = draw(st.lists(finite_floats, min_size=size, max_size=size, unique=True))
    raw = draw(
        st.lists(st.sampled_from([0.0]) | st.floats(0.01, 1.0), min_size=size, max_size=size)
        .filter(lambda ws: any(ws))
    )
    total = math.fsum(raw)
    return StepDistribution.discrete(points, [w / total for w in raw])


class TestRawMoments:
    def test_rademacher(self):
        assert raw_moments(StepDistribution.rademacher()) == (0.0, 1.0, 0.0, 1.0)

    def test_bernoulli(self):
        assert raw_moments(StepDistribution.bernoulli(0.3)) == (0.3, 0.3, 0.3, 0.3)

    def test_uniform01(self):
        # integral of x^k over [0, 1] is 1/(k+1)
        m = raw_moments(StepDistribution.uniform(0.0, 1.0))
        assert m == pytest.approx((0.5, 1 / 3, 0.25, 0.2), abs=1e-15)

    def test_uniform_shifted(self):
        lo, hi = -1.5, 2.5
        m = raw_moments(StepDistribution.uniform(lo, hi))
        exact = [
            (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo)) for k in range(1, 5)
        ]
        assert m == pytest.approx(exact, rel=1e-14)

    def test_gaussian(self):
        mu, sig = 0.5, 2.0
        m = raw_moments(StepDistribution.gaussian(mu, sig))
        v = sig * sig
        assert m == pytest.approx(
            (mu, mu * mu + v, mu ** 3 + 3 * mu * v, mu ** 4 + 6 * mu * mu * v + 3 * v * v),
            rel=1e-14,
        )

    def test_discrete_power_sums(self, skewed_two_point):
        m = raw_moments(skewed_two_point)
        assert m == pytest.approx((0.2, 2.2, 2.6, 7.0), rel=1e-14)


class TestDeriveMomentSet:
    def test_rademacher_values(self):
        ms = derive_moment_set(0.0, 1.0, 0.0, 1.0)
        assert (ms.M2, ms.M3, ms.M4) == (1.0, 0.0, 1.0)
        assert (ms.M12, ms.M13, ms.M22, ms.M112) == (0.0, 1.0, 0.0, 0.0)

    def test_bernoulli_values(self):
        ms = derive_moment_set(0.3, 0.3, 0.3, 0.3)
        assert ms.M2 == pytest.approx(0.21, abs=1e-15)
        assert ms.M3 == pytest.approx(0.084, abs=1e-15)
        assert ms.M4 == pytest.approx(0.0777, abs=1e-15)
        assert ms.M12 == pytest.approx(0.21, abs=1e-15)
        assert ms.M13 == pytest.approx(0.21, abs=1e-15)
        assert ms.M22 == pytest.approx(0.21, abs=1e-15)
        assert ms.M112 == pytest.approx(0.084, abs=1e-15)

    def test_uniform_values_exact_rational(self):
        # oracle: the defining moment formulas in exact rational arithmetic
        # with m_k = 1/(k+1);  cross-checked against direct integration
        m = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)]
        expected = {
            "M2": m[1] - m[0] ** 2,
            "M3": m[2] - 3 * m[0] * m[1] + 2 * m[0] ** 3,
            "M4": m[3] - 4 * m[0] * m[2] + 6 * m[0] ** 2 * m[1] - 3 * m[0] ** 4,
            "M12": m[2] - m[0] * m[1],
            "M13": m[3] - m[0] * m[2],
            "M22": m[3] - m[1] ** 2,
            "M112": m[3] - m[1] ** 2 - 2 * m[0] * m[2] + 2 * m[0] ** 2 * m[1],
        }
        assert expected["M2"] == Fraction(1, 12)
        assert expected["M3"] == 0
        assert expected["M4"] == Fraction(1, 80)
        assert expected["M12"] == Fraction(1, 12)
        assert expected["M13"] == Fraction(3, 40)
        assert expected["M22"] == Fraction(4, 45)
        assert expected["M112"] == Fraction(1, 180)
        ms = moment_set(StepDistribution.uniform(0.0, 1.0))
        for name, value in expected.items():
            assert getattr(ms, name) == pytest.approx(float(value), abs=1e-15)

    def test_matches_direct_expectation_oracle(self, skewed_two_point):
        ms = moment_set(skewed_two_point)
        oracle = direct_mixed_moments(skewed_two_point.points, skewed_two_point.weights)
        for name, value in oracle.items():
            assert getattr(ms, name) == pytest.approx(value, abs=1e-13)

    def test_rejects_inconsistent_m2(self):
        with pytest.raises(ValueError, match="inconsistent"):
            derive_moment_set(1.0, 0.5, 0.0, 1.0)

    def test_identities_hold(self, standard_moment_sets):
        for ms in standard_moment_sets.values():
            for residual in ms.identity_residuals().values():
                assert abs(residual) < 1e-15
        results = check_moment_identities(moment_sets=list(standard_moment_sets.items()))
        assert [r.status for r in results] == ["PASS"]

    @settings(max_examples=200, deadline=None)
    @given(discrete_laws())
    def test_identities_random_laws(self, dist):
        ms = moment_set(dist)
        for residual in ms.identity_residuals().values():
            assert abs(residual) <= 1e-12
        assert ms.M2 >= 0.0
        assert ms.M22 >= 0.0
        assert ms.M4 >= ms.M2 ** 2 - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(discrete_laws())
    def test_matches_oracle_random_laws(self, dist):
        ms = moment_set(dist)
        for name, value in direct_mixed_moments(dist.points, dist.weights).items():
            assert getattr(ms, name) == pytest.approx(value, abs=2e-13)

    @settings(max_examples=150, deadline=None)
    @given(discrete_laws(), st.floats(-3.0, 3.0))
    def test_shift_covariance(self, dist, c):
        base = moment_set(dist)
        shifted = moment_set(
            StepDistribution.discrete([p + c for p in dist.points], dist.weights)
        )
        scale = (1.0 + abs(c) + max(abs(p) for p in dist.points)) ** 4
        # centered moments are shift-invariant, m1 moves by c
        assert shifted.m1 - base.m1 == pytest.approx(c, abs=1e-10 * scale)
        for name in ("M2", "M3", "M4"):
            assert getattr(shifted, name) == pytest.approx(
                getattr(base, name), abs=1e-10 * scale
            )
        # the square-coupled moments transform with explicit corrections
        assert shifted.M12 == pytest.approx(base.M12 + 2 * c * base.M2, abs=1e-10 * scale)
        assert shifted.M13 == pytest.approx(
            base.M13 + 3 * c * base.M12 + 3 * c * c * base.M2, abs=1e-10 * scale
        )
        assert shifted.M22 == pytest.approx(
            base.M22 + 4 * c * base.M12 + 4 * c * c * base.M2, abs=1e-10 * scale
        )
        assert shifted.M112 == pytest.approx(base.M112 + 2 * c * base.M3, abs=1e-10 * scale)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            StepDistribution("poisson")

    def test_bernoulli_range(self):
        with pytest.raises(ValueError):
            StepDistribution.bernoulli(1.5)

    def test_uniform_order(self):
        with pytest.raises(ValueError):
            StepDistribution.uniform(1.0, 1.0)

    def test_gaussian_stddev(self):
        with pytest.raises(ValueError):
            StepDistribution.gaussian(0.0, 0.0)

    def test_discrete_weight_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            StepDistribution.discrete((0.0, 1.0), (0.5, 0.5001))

    def test_discrete_weight_sum_tolerance(self):
        StepDistribution.discrete((0.0, 1.0), (0.5, 0.5 + 5e-13))

    def test_discrete_negative_weight(self):
        with pytest.raises(ValueError, match="non-negative"):
            StepDistribution.discrete((0.0, 1.0), (1.5, -0.5))

    def test_discrete_length_mismatch(self):
        with pytest.raises(ValueError):
            StepDistribution.discrete((0.0, 1.0, 2.0), (0.5, 0.5))

    def test_as_discrete(self):
        d = as_discrete(StepDistribution.bernoulli(0.3))
        assert d.points == (0.0, 1.0) and d.weights == (0.7, 0.3)
        with pytest.raises(ValueError, match="finite support"):
            as_discrete(StepDistribution.uniform(0, 1))


class TestJson:
    @pytest.mark.parametrize(
        "descriptor",
        [
            {"kind": "rademacher"},
            {"kind": "bernoulli", "p": 0.3},
            {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            {"kind": "gaussian", "mean": 0.5, "stddev": 2.0},
            {"kind": "discrete", "points": [-1.0, 2.0], "weights": [0.6, 0.4]},
        ],
    )
    def test_round_trip(self, descriptor):
        dist = StepDistribution.from_json(descriptor)
        assert dist.to_json() == descriptor
        assert StepDistribution.from_json(dist.to_json()) == dist

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            StepDistribution.from_json({"kind": "bernoulli"})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            StepDistribution.from_json({"kind": "zeta"})


@st.composite
def builtin_laws(draw):
    kind = draw(st.sampled_from(("rademacher", "bernoulli", "uniform", "gaussian", "discrete")))
    if kind == "rademacher":
        return StepDistribution.rademacher()
    if kind == "bernoulli":
        return StepDistribution.bernoulli(draw(st.floats(0.0, 1.0)))
    if kind == "uniform":
        lo, hi = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2, unique=True)))
        return StepDistribution.uniform(lo, hi)
    if kind == "gaussian":
        return StepDistribution.gaussian(draw(st.floats(-1e6, 1e6)), draw(st.floats(1e-6, 1e6)))
    return draw(discrete_laws_with_zeros())


def in_closed_support(dist, x) -> bool:
    if not math.isfinite(x):
        return False
    if dist.kind == "rademacher":
        return x in (-1.0, 1.0)
    if dist.kind == "bernoulli":
        return (x == 0.0 and dist.p < 1.0) or (x == 1.0 and dist.p > 0.0)
    if dist.kind == "uniform":
        return dist.lo <= x <= dist.hi
    if dist.kind == "discrete":
        return dict(zip(dist.points, dist.weights)).get(x, 0.0) > 0.0
    return True  # a Gaussian's support is the whole line


class TestSampling:
    @settings(max_examples=300, deadline=None)
    @given(builtin_laws())
    def test_edge_uniforms_land_in_support(self, dist):
        # 2**-54 is below the smallest uniform_draws value; 1.0 is its largest
        edges = (2.0 ** -54, 0.5, 1.0)
        for u, x in zip(edges, inverse_cdf(dist, np.array(edges))):
            assert in_closed_support(dist, float(x)), (dist, u, x)
            assert in_closed_support(dist, inverse_cdf(dist, u)), (dist, u)

    def test_rademacher_support(self):
        u = np.random.default_rng(1).random(1000)
        values = inverse_cdf(StepDistribution.rademacher(), u)
        assert set(np.unique(values)) == {-1.0, 1.0}

    def test_bernoulli_degenerate(self):
        u = np.random.default_rng(2).random(500)
        assert np.all(inverse_cdf(StepDistribution.bernoulli(0.0), u) == 0.0)

    def test_point_mass(self):
        u = np.random.default_rng(3).random(64)
        assert np.all(inverse_cdf(StepDistribution.discrete([2.0], [1.0]), u) == 2.0)

    def test_scalar_matches_vector(self):
        dist = StepDistribution.gaussian(0.5, 2.0)
        u = 0.371
        assert inverse_cdf(dist, u) == inverse_cdf(dist, np.array([u]))[0]

    def test_norm_inv_cdf_against_mpmath(self):
        import mpmath as mp

        mp.mp.dps = 30
        dist = StepDistribution.gaussian(0.0, 1.0)
        grid = np.array([1e-12, 1e-6, 0.01, 0.2, 0.5, 0.7, 0.975, 1 - 1e-6, 1 - 1e-10])
        got = inverse_cdf(dist, grid)
        for u, g in zip(grid, got):
            exact = float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(u) - 1))
            assert g == pytest.approx(exact, rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(discrete_laws_with_zeros())
    def test_zero_weight_atoms_never_drawn(self, dist):
        # 1 - 2**-54 rounds to 1.0, the largest value uniform_draws returns
        weight = dict(zip(dist.points, dist.weights))
        for u in (2.0 ** -54, 0.5, 1.0 - 2.0 ** -54):
            assert weight[inverse_cdf(dist, u)] > 0.0
        assert weight[float(inverse_cdf(dist, np.array([1.0 - 2.0 ** -54]))[0])] > 0.0

    def test_trailing_zero_weight_at_top(self):
        dist = StepDistribution.discrete((1.0, 2.0, 3.0, 99.0), (0.1, 0.2, 0.7, 0.0))
        assert inverse_cdf(dist, 1.0 - 2.0 ** -54) == 3.0

    def test_empirical_moments_match(self):
        # four standard errors at one million draws, every builtin kind
        dists = [
            StepDistribution.rademacher(),
            StepDistribution.bernoulli(0.3),
            StepDistribution.uniform(0.0, 1.0),
            StepDistribution.gaussian(0.5, 2.0),
            StepDistribution.discrete((-1.0, 2.0), (0.6, 0.4)),
        ]
        n = 1_000_000
        for dist in dists:
            keys = replicate_keys(2024, 0, n)
            samples = inverse_cdf(dist, uniform_draws(keys, 0))
            exact = raw_moments(dist)
            for k in range(1, 5):
                powers = samples ** k
                se = powers.std(ddof=1) / math.sqrt(n)
                gap = abs(powers.mean() - exact[k - 1])
                assert gap <= 4.0 * se + 1e-12, (dist.kind, k, gap, se)
