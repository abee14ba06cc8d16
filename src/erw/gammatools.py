"""Numerically stable gamma-ratio machinery.

The walk's moment formulas are built from ratios Gamma(n + delta) / Gamma(n)
with n up to 1e7.  Forming Gamma(n + delta) directly overflows near n = 170,
and subtracting two large lgamma values loses up to 8 digits, so ratios are
evaluated in log space from a Stirling-series difference that never
cancels, and exponentiated with np.exp.  On top of that sit one closed form
of two gamma-ratio sums, and the solution of b_{n+1} = (1 + beta/n) b_n + c_n
for constant c_n in one form.  That recursion is solved for any c_n by one
solver, the blocked scan of `moments`.

Direct-summation twins of the closed forms, and the gamma-ratio sum that
solves the recursion for any c_n, are provided as test oracles.  They are
O(n): they evaluate every term in one array call (every case's, for the
twins, which take arrays of cases) and add the terms exactly with
math.fsum.
"""

from __future__ import annotations

import math

import numpy as np

#: Parameters this close to a vanishing denominator are rejected outright;
#: the identities are stated away from the singular values and we do not
#: interpolate limits.
SINGULAR_TOL = 1e-9


class SingularParameterError(ValueError):
    """A formula was evaluated within guard radius of a vanishing denominator."""

    def __init__(self, denominator: str, value: float):
        self.denominator = denominator
        self.value = value
        super().__init__(
            f"denominator {denominator} = {value:g} is inside the singular guard radius"
        )


# B_{2k} / (2k (2k-1)) for k = 1..7; truncation error of the tail series is
# below 3e-17 for x >= 10.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

_STIRLING_MIN = 10.0

#: Past this argument every Horner step of the tail rounds to its constant,
#: so 1/x^2 is taken at it: the same bytes, with x*x kept finite.
_STIRLING_FLAT = 1e100


def _stirling_tails(tot, n):
    """Corrections S(x) in ln Gamma(x) = (x-1/2) ln x - x + ln sqrt(2 pi) + S(x)
    of tot and of n, elementwise for x >= 10, as two new arrays of their
    shapes: one pass of Horner steps, in place, over one buffer of both."""
    size = tot.size
    inv2 = np.empty(size + n.size)
    np.minimum(tot, _STIRLING_FLAT, out=inv2[:size].reshape(tot.shape))
    np.minimum(n, _STIRLING_FLAT, out=inv2[size:].reshape(n.shape))
    inv2 *= inv2
    np.divide(1.0, inv2, out=inv2)
    acc = np.multiply(inv2, _STIRLING_COEFFS[-1])
    for c in _STIRLING_COEFFS[-2:0:-1]:
        acc += c
        acc *= inv2
    acc += _STIRLING_COEFFS[0]
    tail_tot, tail_n = acc[:size].reshape(tot.shape), acc[size:].reshape(n.shape)
    tail_tot /= tot
    tail_n /= n
    return tail_tot, tail_n


def log_gamma_ratio(n, delta):
    """ln(Gamma(n + delta) / Gamma(n)) without overflow or cancellation.

    Requires finite n >= 1 and finite n + delta > 0 elementwise; `n` and
    `delta` are treated as exact reals.  The relative error of the
    exponentiated ratio stays below 1e-12 for n <= 1e12 and |delta| <= 4
    (measured ~6e-15 up to n = 1e7 and ~2e-14 up to n = 1e12).
    Accepts scalars or broadcastable arrays, through one array path: a
    scalar gives a numpy float, the bytes of element 0 of the same call on
    a one-element array.  The Stirling tail of n is taken over n's own
    shape, so a stack of deltas over one n costs one tail of n.
    """
    n = np.asarray(n, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    # a range by two reductions (a nan fails both): a scalar's call costs
    # mostly dispatch
    if not (1.0 <= n.min(initial=np.inf) and n.max(initial=1.0) < np.inf):
        raise ValueError("log_gamma_ratio requires n >= 1")
    shape = n.shape if n.shape == delta.shape else np.broadcast_shapes(n.shape, delta.shape)
    out = np.empty(shape)
    tot = np.add(n, delta, out=np.empty(shape))
    if not (0.0 < tot.min(initial=np.inf) and tot.max(initial=1.0) < np.inf):
        raise ValueError("log_gamma_ratio requires n + delta > 0")
    at = (np.minimum(n, tot) < _STIRLING_MIN).ravel().nonzero()[0]
    if at.size < out.size:
        if at.size:
            # lgamma overwrites these below; clamped, the tails stay finite
            np.maximum(tot, _STIRLING_MIN, out=tot)
        tail_tot, tail_n = _stirling_tails(tot, n)
        # a ratio past the double range is inf, without a warning: both
        # terms that can overflow have the sign of delta
        with np.errstate(over="ignore"):
            np.divide(delta, n, out=out)
            np.log1p(out, out=out)
            out *= n - 0.5
            np.log(tot, out=tot)
            tot *= delta
            out += tot
        out -= delta
        out += tail_tot
        out -= tail_n
    if at.size:
        # one argument is below 10, where lgamma is small, so the
        # difference does not cancel however large the other is
        ns, ds = ((v if v.shape == shape else np.broadcast_to(v, shape)).flat[at].tolist()
                  for v in (n, delta))
        out.flat[at] = [_lgamma(a + b) - _lgamma(a) for a, b in zip(ns, ds)]
    return out[()]


def _lgamma(x: float) -> float:
    """math.lgamma, or inf where its value leaves the double range (x past
    about 2.6e305), as the array path gives."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def recip_gamma(x: float) -> float:
    """1 / Gamma(x), with the value 0 at the poles x = 0, -1, -2, ..."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def check_alpha(alpha: float) -> float:
    """float(alpha), or ValueError unless 0 <= alpha <= 1 (nan fails).

    The one range check of the memory parameter: every function that takes
    alpha calls it.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha


def martingale_scale(n, alpha: float):
    """The normaliser a_n = Gamma(n) / Gamma(n + alpha), ~ n^-alpha.

    a_1 = 1 / Gamma(1 + alpha); multiplying the centered walk position by a_n
    turns it into a martingale.  Accepts scalar or array n >= 1; a scalar
    gives a numpy float.
    """
    alpha = check_alpha(alpha)
    return np.exp(-log_gamma_ratio(n, alpha))


def _check_n(n, name: str):
    """n as float64, or ValueError unless every element is a finite whole
    number >= 1: the one rule for the n of the sums below and the n_max of
    the tables of `moments`.  A bool is refused rather than read as 0 or 1."""
    values = np.asarray(n)
    if values.dtype.kind in "iuf":
        values = values.astype(np.float64)
        if (np.isfinite(values) & (values >= 1.0) & (values == np.floor(values))).all():
            return values[()]
    raise ValueError(f"{name} must be a positive integer, got {n}")


def _refuse_singular(denominator: str, value) -> None:
    """SingularParameterError if an element of `value` is within SINGULAR_TOL of 0."""
    value = np.asarray(value)
    near = np.abs(value) < SINGULAR_TOL
    if near.any():
        raise SingularParameterError(denominator, float(value[near][0]))


def scaled_gamma_sums(a, b, n, f_a, f_b1):
    """The one closed form of the two gamma sums to n - 1,

        L = sum_{j<n} Gamma(j+a)/Gamma(j+b)  and  W = sum_{j<n} j Gamma(j+a)/Gamma(j+b),

    as the pair ((b-a-1) f_{b-1}(n) L, (b-a-1)(b-a-2) f_{b-1}(n) W), from
    the ratios f_c(n) = Gamma(n+c)/Gamma(n) the caller holds (f_a and f_b1)
    and the lead G = Gamma(a+1)/Gamma(b+1), all of whose arguments are >= 1:

        (b-a-1) f_{b-1} L = b G f_{b-1} - f_a,
        (b-a-1)(b-a-2) f_{b-1} W = (b-1) (b-a-1) f_{b-1} L - (b-a-1)(n-1) f_a.

    The factors b and b-1 carry the poles of Gamma(b) and Gamma(b-1) at
    b = 0, 1, and both values are finite for every a, b >= 0, b = a+1 and
    a+2 included.  `gamma_sum_linear`, `gamma_sum_weighted` and
    `moments.closed_form_s4` are built on it.

    Its limit point, f_a = 0 and f_{b-1} = 1, gives the pair's limits over
    f_{b-1} as n grows: b G = Gamma(a+1)/Gamma(b) and (b-1) b G =
    Gamma(a+1)/Gamma(b-1).  These are exact where the ratio f_a/f_{b-1}
    (times n for W) vanishes: for a < b - 1 for L and a < b - 2 for W.
    """
    lead = np.exp(log_gamma_ratio(b + 1.0, a - b))
    linear = b * lead * f_b1 - f_a
    return linear, (b - 1.0) * linear - (b - a - 1.0) * (n - 1.0) * f_a


def _sum_args(a, b, n):
    """(a, b, n) as float64 arrays of one shape, or ValueError unless a and
    b are finite and >= 0 and n is a whole number >= 1."""
    n = _check_n(n, "n")
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if not (((a >= 0.0) & (a < np.inf)).all() and ((b >= 0.0) & (b < np.inf)).all()):
        raise ValueError(f"gamma sums are defined for a, b >= 0, got a={a}, b={b}")
    return np.broadcast_arrays(a, b, n)


def _sums_to_n(a, b, n):
    """(a, b) as checked by `_sum_args`, `scaled_gamma_sums` of the sums to
    n, and f_{b-1}(n+1).  Finite for every a, b >= 0."""
    a, b, n = _sum_args(a, b, n)
    f_a, f_b1 = np.exp(log_gamma_ratio(n + 1.0, np.stack((a, b - 1.0))))
    return a, b, scaled_gamma_sums(a, b, n + 1.0, f_a, f_b1), f_b1


def gamma_sum_linear(a, b, n):
    """Closed form of sum_{j=1..n} Gamma(j+a) / Gamma(j+b), for b != a+1:
    (Gamma(a+1)/Gamma(b) - Gamma(n+a+1)/Gamma(n+b)) / (b-a-1).  Scalars or
    arrays, through one path (a scalar gives a numpy float)."""
    a, b, (linear, _), f_b1 = _sums_to_n(a, b, n)
    d = b - a - 1.0
    _refuse_singular("b - a - 1", d)
    return (linear / (d * f_b1))[()]


def gamma_sum_weighted(a, b, n):
    """Closed form of sum_{j=1..n} j * Gamma(j+a) / Gamma(j+b), for
    b != a+1 and b != a+2:
    (Gamma(a+1)/Gamma(b-1) - Gamma(n+a+1)/Gamma(n+b-1)) / ((b-a-1)(b-a-2))
    - n Gamma(n+a+1)/Gamma(n+b) / (b-a-1).  Scalars or arrays, through one
    path (a scalar gives a numpy float)."""
    a, b, (_, weighted), f_b1 = _sums_to_n(a, b, n)
    d1 = b - a - 1.0
    d2 = b - a - 2.0
    _refuse_singular("b - a - 1", d1)
    _refuse_singular("b - a - 2", d2)
    return (weighted / (d1 * d2 * f_b1))[()]


def _direct_sums(a, b, n, weighted: bool):
    """The term-by-term sums of both oracles: every term
    Gamma(j+a)/Gamma(j+b), times j if `weighted`, j = 1..n, of every case of
    the broadcast (a, b, n) from one `log_gamma_ratio` call, and each case's
    terms added exactly with math.fsum."""
    a, b, n = _sum_args(a, b, n)
    counts = n.ravel().astype(np.int64)
    ends = np.cumsum(counts)
    j = np.arange(1.0, counts.sum() + 1.0) - np.repeat(ends - counts, counts)
    terms = log_gamma_ratio(j + np.repeat(b.ravel(), counts), np.repeat((a - b).ravel(), counts))
    np.exp(terms, out=terms)
    if weighted:
        terms *= j
    ends = ends.tolist()
    sums = [math.fsum(terms[start:end].tolist()) for start, end in zip([0, *ends[:-1]], ends)]
    return np.reshape(sums, a.shape)[()]


def gamma_sum_linear_direct(a, b, n):
    """Term-by-term evaluation of the linear gamma sum (testing oracle), over
    the cases that `gamma_sum_linear` takes: a scalar gives a numpy float."""
    return _direct_sums(a, b, n, weighted=False)


def gamma_sum_weighted_direct(a, b, n):
    """Term-by-term evaluation of the weighted gamma sum (testing oracle),
    over the cases that `gamma_sum_weighted` takes: a scalar gives a numpy
    float."""
    return _direct_sums(a, b, n, weighted=True)


def solve_recursion(beta: float, b1: float, c) -> float:
    """Test oracle: b_n of b_{k+1} = (1 + beta/k) b_k + c_k from b_1 and the
    forcing c = (c_1, ..., c_{n-1}), by the explicit gamma-ratio solution

        b_n = Gamma(n+beta)/Gamma(n) * (b1/Gamma(1+beta)
              + sum_{j=1..n-1} Gamma(j+1)/Gamma(j+1+beta) * c_j).

    Every ratio Gamma(k)/Gamma(k+beta), k = 1..n, comes from one array call
    and the terms are added exactly with math.fsum.  The recursion itself
    is solved by the blocked scan of `moments`, which this is checked
    against.
    """
    terms = np.concatenate(([b1], np.asarray(c, dtype=np.float64)))
    ratios = np.exp(-log_gamma_ratio(np.arange(1.0, terms.size + 1.0), beta))
    return math.fsum((terms * ratios).tolist()) / ratios[-1]


def unit_constant_solution(beta: float, n, f_beta):
    """b_n / c for c_n = b_1 = c and beta != 1, from f_beta = Gamma(n+beta)/Gamma(n):
    Gamma(n+beta)/Gamma(n) / ((beta-1) Gamma(beta)) - n / (beta-1).  The one
    form of this solution: `moments.closed_form_moments` builds the
    quadratic moments from it, and `verify` holds it to the blocked scan
    that solves the recursion."""
    return recip_gamma(beta) / (beta - 1.0) * f_beta - n / (beta - 1.0)
