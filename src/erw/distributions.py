"""Step distributions and the moment algebra built on top of them.

A step law enters the analytic machinery only through its first four raw
moments; everything else (centered and mixed moments) is derived from those
by fixed polynomial formulas.  There is no numerical integration anywhere,
so the analytic path stays exact up to float rounding.

Sampling goes through a single-uniform inverse CDF per draw for every kind,
which is what makes the counter-based simulator reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

#: Discrete weights must sum to 1 within this tolerance; anything further off
#: is rejected rather than silently renormalised.
WEIGHT_TOL = 1e-12

#: A discrete law with at most this many atoms up to its last positive
#: weight samples by counting comparisons; a wider one by binary search.
#: The count ties `searchsorted` near 200 atoms on the engines' draw
#: blocks of 16,384 uniforms (near 130 on 10^6 uniforms, which no engine
#: draws at once); it is a uint8, so this may not exceed 256.
_COMPARE_ATOMS = 192

#: Each kind and the fields of its JSON descriptor, in constructor order.
_KINDS = {"rademacher": (), "bernoulli": ("p",), "uniform": ("lo", "hi"),
          "gaussian": ("mean", "stddev"), "discrete": ("points", "weights")}


def _is_number(value) -> bool:
    """A real number that is not a bool: JSON true and false are not numbers,
    though float() takes them."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class StepDistribution:
    """A samplable step law with exact first four raw moments.

    Use the classmethod constructors; the generic constructor exists for
    dataclass plumbing only.  `discrete` is the universal escape hatch: any
    custom finite-support law is supplied as (points, weights).
    """

    kind: str
    p: float | None = None
    lo: float | None = None
    hi: float | None = None
    mean: float | None = None
    stddev: float | None = None
    points: tuple[float, ...] | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "bernoulli":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"bernoulli p must be in [0, 1], got {self.p}")
        elif self.kind == "uniform":
            if self.lo is None or self.hi is None or not self.lo < self.hi:
                raise ValueError(f"uniform requires lo < hi, got ({self.lo}, {self.hi})")
        elif self.kind == "gaussian":
            if self.mean is None or self.stddev is None or not self.stddev > 0.0:
                raise ValueError(f"gaussian requires stddev > 0, got {self.stddev}")
        elif self.kind == "discrete":
            pts, wts = self.points, self.weights
            if not pts or wts is None or len(pts) != len(wts):
                raise ValueError("discrete requires equally long points and weights")
            if any(not math.isfinite(v) for v in pts):
                raise ValueError("discrete points must be finite")
            # nan fails every comparison, so `w < 0` alone would let it in
            if any(not (math.isfinite(w) and w >= 0.0) for w in wts):
                raise ValueError("discrete weights must be finite and non-negative")
            if abs(math.fsum(wts) - 1.0) > WEIGHT_TOL:
                raise ValueError(
                    f"discrete weights sum to {math.fsum(wts)!r}, "
                    f"must equal 1 within {WEIGHT_TOL}"
                )

    @classmethod
    def rademacher(cls) -> "StepDistribution":
        return cls("rademacher")

    @classmethod
    def bernoulli(cls, p: float) -> "StepDistribution":
        return cls("bernoulli", p=float(p))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "StepDistribution":
        return cls("uniform", lo=float(lo), hi=float(hi))

    @classmethod
    def gaussian(cls, mean: float, stddev: float) -> "StepDistribution":
        return cls("gaussian", mean=float(mean), stddev=float(stddev))

    @classmethod
    def discrete(cls, points, weights) -> "StepDistribution":
        return cls(
            "discrete",
            points=tuple(float(v) for v in points),
            weights=tuple(float(w) for w in weights),
        )

    def to_json(self) -> dict[str, Any]:
        """JSON descriptor with the documented field names."""
        descriptor = {"kind": self.kind}
        for name in _KINDS[self.kind]:
            value = getattr(self, name)
            descriptor[name] = list(value) if isinstance(value, tuple) else value
        return descriptor

    @classmethod
    def from_json(cls, descriptor: dict[str, Any]) -> "StepDistribution":
        """Build a distribution from its JSON descriptor, whose fields must be
        numbers (lists of numbers for a discrete law): not true, false or text."""
        if not isinstance(descriptor, dict) or "kind" not in descriptor:
            raise ValueError(f"distribution descriptor must be a dict with 'kind': {descriptor!r}")
        kind = descriptor["kind"]
        fields = _KINDS.get(kind) if isinstance(kind, str) else None
        if fields is None:
            raise ValueError(f"unknown distribution kind {kind!r}")
        listed = kind == "discrete"
        values = []
        for name in fields:
            if name not in descriptor:
                raise ValueError(f"descriptor for {kind!r} is missing field {name!r}")
            value = descriptor[name]
            if isinstance(value, (list, tuple)) != listed or not all(
                map(_is_number, value if listed else [value])
            ):
                what = "a list of numbers" if listed else "a number"
                raise ValueError(f"{kind} {name} must be {what}, got {value!r}")
            values.append(value)
        return getattr(cls, kind)(*values)


@dataclass(frozen=True)
class MomentSet:
    """Raw, centered and mixed moments of a step law.

    m1..m4 are the raw moments E(xi^k).  M2, M3, M4 are the centered moments
    E((xi - m1)^k).  The mixed moments couple the centered step with the
    centered square and cube:

        M12  = E((xi - m1)(xi^2 - m2))
        M13  = E((xi - m1)(xi^3 - m3))
        M22  = E((xi^2 - m2)^2)
        M112 = E((xi - m1)^2 (xi^2 - m2))

    Instances are plain records; `identity_residuals` reports how far a set
    is from the algebraic relations every genuine law must satisfy.
    """

    m1: float
    m2: float
    m3: float
    m4: float
    M2: float
    M3: float
    M4: float
    M12: float
    M13: float
    M22: float
    M112: float

    def identity_residuals(self) -> dict[str, float]:
        """Residuals of the four moment identities (zero for any real law)."""
        return {
            "M12 - 2*m1*M2 == M3": self.M12 - 2.0 * self.m1 * self.M2 - self.M3,
            "2*M13 + M22 - 4*m1*M12 - 2*m2*M2 == 3*M112": (
                2.0 * self.M13 + self.M22 - 4.0 * self.m1 * self.M12
                - 2.0 * self.m2 * self.M2 - 3.0 * self.M112
            ),
            "M112 - 2*m1*M3 == M4 - M2^2": (
                self.M112 - 2.0 * self.m1 * self.M3 - (self.M4 - self.M2 ** 2)
            ),
            "M13 - 3*m1*M12 + 3*m1^2*M2 == M4": (
                self.M13 - 3.0 * self.m1 * self.M12 + 3.0 * self.m1 ** 2 * self.M2 - self.M4
            ),
        }


def raw_moments(dist: StepDistribution) -> tuple[float, float, float, float]:
    """Exact raw moments (m1, m2, m3, m4) of a builtin step law.

    A power that leaves the double range raises OverflowError or gives inf.
    """
    if dist.kind == "rademacher":
        return (0.0, 1.0, 0.0, 1.0)
    if dist.kind == "bernoulli":
        p = dist.p
        return (p, p, p, p)  # xi^k == xi for 0/1 values
    if dist.kind == "uniform":
        lo, hi = dist.lo, dist.hi
        width = hi - lo
        return tuple(
            (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * width) for k in range(1, 5)
        )
    if dist.kind == "gaussian":
        mu, sig = dist.mean, dist.stddev
        v = sig * sig
        return (mu, mu * mu + v, mu ** 3 + 3.0 * mu * v, mu ** 4 + 6.0 * mu * mu * v + 3.0 * v * v)
    pts = np.asarray(dist.points)
    wts = np.asarray(dist.weights)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [wts * pts ** k for k in range(1, 5)]
    if not np.isfinite(terms).all():
        raise OverflowError("a power of a point overflows")
    return tuple(math.fsum(t) for t in terms)


def derive_moment_set(m1: float, m2: float, m3: float, m4: float) -> MomentSet:
    """All centered and mixed moments from the raw moments, purely algebraically."""
    M2 = m2 - m1 * m1
    if M2 < -1e-12:
        raise ValueError(f"inconsistent raw moments: m2 - m1^2 = {M2} < 0")
    M22 = m4 - m2 * m2
    return MomentSet(
        m1=m1,
        m2=m2,
        m3=m3,
        m4=m4,
        M2=max(M2, 0.0),
        M3=m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3,
        M4=m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1 ** 4,
        M12=m3 - m1 * m2,
        M13=m4 - m1 * m3,
        M22=max(M22, 0.0) if M22 > -1e-12 else M22,
        M112=m4 - m2 * m2 - 2.0 * m1 * m3 + 2.0 * m1 * m1 * m2,
    )


def moment_set(dist: StepDistribution) -> MomentSet:
    """Moment set of a builtin step law; ValueError if a moment is not finite."""
    try:
        ms = derive_moment_set(*raw_moments(dist))
    except OverflowError:
        ms = None
    if ms is None or not all(math.isfinite(v) for v in vars(ms).values()):
        raise ValueError(f"the moments of {dist.to_json()} are not finite in double precision")
    return ms


def as_discrete(dist: StepDistribution) -> StepDistribution:
    """View a finite-support law as an explicit (points, weights) law."""
    if dist.kind == "discrete":
        return dist
    if dist.kind == "rademacher":
        return StepDistribution.discrete((-1.0, 1.0), (0.5, 0.5))
    if dist.kind == "bernoulli":
        return StepDistribution.discrete((0.0, 1.0), (1.0 - dist.p, dist.p))
    raise ValueError(f"{dist.kind} does not have finite support")


# Wichura's PPND16 rational approximations, |error| < 1e-15 over (0, 1).
_PPND_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
           1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
           3.3430575583588128105e4, 2.5090809287301226727e3)
_PPND_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
           2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
           5.2264952788528545610e3)
_PPND_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
           3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
           2.27238449892691845833e-2, 7.74545014278341407640e-4)
_PPND_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
           1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
           1.05075007164441684324e-9)
_PPND_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
           2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
           2.71155556874348757815e-5, 2.01033439929228813265e-7)
_PPND_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
           7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
           2.04426310338993978564e-15)


def _poly(coeffs, r):
    acc = np.full_like(r, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= r
        acc += c
    return acc


def _norm_inv_cdf(u: np.ndarray) -> np.ndarray:
    """Standard normal quantile function (AS 241, double precision)."""
    u = np.clip(u, 2.0 ** -54, 1.0 - 2.0 ** -53)
    q = u - 0.5
    out = np.empty_like(u)

    central = np.abs(q) <= 0.425
    if np.any(central):
        qc = q[central]
        r = 0.180625 - qc * qc
        out[central] = qc * _poly(_PPND_A, r) / _poly(_PPND_B, r)

    tails = ~central
    if np.any(tails):
        qt = q[tails]
        r = np.sqrt(-np.log(np.where(qt < 0.0, u[tails], 1.0 - u[tails])))
        near = r <= 5.0
        val = np.empty_like(r)
        val[near] = _poly(_PPND_C, r[near] - 1.6) / _poly(_PPND_D, r[near] - 1.6)
        val[~near] = _poly(_PPND_E, r[~near] - 5.0) / _poly(_PPND_F, r[~near] - 5.0)
        out[tails] = np.where(qt < 0.0, -val, val)
    return out


def inverse_cdf(dist: StepDistribution, u):
    """Map an array of uniforms in (0, 1] to samples of `dist` (quantile
    transform), elementwise.  Exactly one uniform is consumed per sample
    for every kind.

    A discrete law's atom is the number of its cumulative weights before
    the last positive-weight atom that are <= u.  For laws of up to
    _COMPARE_ATOMS atoms it is counted by one comparison per weight, which
    costs less than a binary search; wider laws use `np.searchsorted`.
    Both give the same atom for every u.
    """
    u = np.asarray(u, dtype=np.float64)
    # the two-point kinds cast a comparison, several times faster than np.where
    if dist.kind == "rademacher":
        out = (u < 0.5).astype(np.float64)
        out *= -2.0
        out += 1.0  # -1.0 below 0.5, 1.0 from it on
    elif dist.kind == "bernoulli":
        out = (u > 1.0 - dist.p).astype(np.float64)
    elif dist.kind == "uniform":
        out = dist.lo + u * (dist.hi - dist.lo)
        np.minimum(out, dist.hi, out=out)  # lo + (hi - lo) can round above hi
    elif dist.kind == "gaussian":
        out = dist.mean + dist.stddev * _norm_inv_cdf(u)
    else:
        weights = np.asarray(dist.weights, dtype=np.float64)
        top = np.flatnonzero(weights)[-1]  # the last atom with positive weight
        cum = np.cumsum(weights)
        # the rounded cumsum can stop short of 1 and u can round up to 1, so
        # the CDF is 1 from `top` on and no u lands on a trailing zero weight
        cum[top:] = 1.0
        if top < _COMPARE_ATOMS:
            idx = np.zeros(u.shape, dtype=np.uint8)
            at_or_above = np.empty(u.shape, dtype=bool)
            for c in cum[:top]:
                np.greater_equal(u, c, out=at_or_above)
                idx += at_or_above.view(np.uint8)  # a bool is one byte, 0 or 1
        else:
            idx = np.minimum(np.searchsorted(cum, u, side="right"), top)
        out = np.asarray(dist.points).take(idx)
    return out
