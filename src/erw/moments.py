"""Exact, closed-form, and limiting moments of the elephant random walk.

Let X_1, X_2, ... be the steps of the walk with memory parameter alpha (the
first step is a fresh draw, every later step repeats a uniformly chosen
earlier step with probability alpha and is a fresh draw otherwise).  With

    S~_n = sum X_k   - n m1    (centered position)
    T~_n = sum X_k^2 - n m2
    U~_n = sum X_k^3 - n m3

the seven mixed expectations

    s2  = E(S~_n^2)    st  = E(S~_n T~_n)   s3 = E(S~_n^3)   su = E(S~_n U~_n)
    t2  = E(T~_n^2)    s2t = E(S~_n^2 T~_n) s4 = E(S~_n^4)

satisfy coupled first-order recursions in n whose coefficients involve only
alpha and the step law's moment set.  This module iterates those recursions
exactly, evaluates the gamma-ratio closed forms they solve to (all seven:
the six of `closed_form_moments` and s4 in `closed_form_s4`), computes the
first four moments of the superdiffusive limit Q = lim S~_n / n^alpha, and
provides a brute-force enumeration oracle for small n.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .distributions import MomentSet, StepDistribution, as_discrete, moment_set
from .gammatools import SingularParameterError, log_gamma_ratio, recip_gamma

#: Alphas within this radius of a vanishing denominator (1/2, 1/3, 1/4 for
#: the respective formulas) are rejected; the recursion path covers them.
ALPHA_TOL = 1e-8

#: Rows per block when the recursion fills its table and when a table is
#: written as CSV.  Only one block of rows is ever held as Python floats,
#: so memory stays flat in n.
_ROW_BLOCK = 4096


def format_csv_rows(first: int, block: np.ndarray) -> str:
    """CSV lines `n,v1,v2,...` of a float64 block, numbered from n = `first`.

    Every float is written as its repr, the shortest decimal that reads back
    to the same double; these are the bytes `csv.writer` writes for the same
    rows, since it writes a float as its repr and never quotes a number.
    """
    return "".join(
        f"{n},{','.join(map(repr, row))}\n" for n, row in enumerate(block.tolist(), first)
    )


class RegimeError(ValueError):
    """An operation that requires the superdiffusive regime got alpha <= 1/2."""


class EnumerationSizeError(ValueError):
    """Brute-force enumeration was requested beyond its size guard."""


@dataclass(frozen=True)
class MemoryParameter:
    """The repeat probability alpha in [0, 1]."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    @property
    def superdiffusive(self) -> bool:
        return self.alpha > 0.5


def as_memory(mp: Union[MemoryParameter, float]) -> MemoryParameter:
    """Accept either a MemoryParameter or a bare alpha."""
    return mp if isinstance(mp, MemoryParameter) else MemoryParameter(float(mp))


@dataclass(frozen=True)
class ExactMomentRow:
    n: int
    s2: float
    st: float
    s3: float
    su: float
    t2: float
    s2t: float
    s4: float


CSV_COLUMNS = ("n", "s2", "st", "s3", "su", "t2", "s2t", "s4")


class ExactMomentTable:
    """Per-n table of the seven mixed expectations, n = 1 .. n_max."""

    def __init__(self, values: np.ndarray):
        if values.ndim != 2 or values.shape[1] != 7:
            raise ValueError("expected an (n_max, 7) array")
        self._values = values

    def __len__(self) -> int:
        return self._values.shape[0]

    def row(self, n: int) -> ExactMomentRow:
        if not 1 <= n <= len(self):
            raise IndexError(f"n must be in 1..{len(self)}, got {n}")
        return ExactMomentRow(n, *(float(v) for v in self._values[n - 1]))

    def column(self, name: str) -> np.ndarray:
        idx = CSV_COLUMNS.index(name) - 1
        if idx < 0:
            return np.arange(1, len(self) + 1)
        return self._values[:, idx]

    def row_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (n of the first row, a read-only (rows, 7) float64 view), a
        block of rows at a time."""
        for start in range(0, len(self), _ROW_BLOCK):
            block = self._values[start : start + _ROW_BLOCK]
            block.flags.writeable = False
            yield start + 1, block

    def write_csv(self, path_or_file) -> None:
        """Write the table as CSV with shortest round-trip decimals.

        Each block of rows is formatted by `format_csv_rows` into one string
        and written with one call.
        """
        if isinstance(path_or_file, (str, os.PathLike)):
            with open(path_or_file, "w", newline="") as handle:
                self.write_csv(handle)
            return
        path_or_file.write(",".join(CSV_COLUMNS) + "\n")
        for first, block in self.row_blocks():
            path_or_file.write(format_csv_rows(first, block))


def exact_moments_upto(
    ms: MomentSet, mp: Union[MemoryParameter, float], n_max: int
) -> ExactMomentTable:
    """Iterate the seven coupled moment recursions from n = 1 to n_max.

    Row 1 is (M2, M12, M3, M13, M22, M112, M4); each later row applies one
    simultaneous step of all seven recursions.  Valid for every alpha in
    [0, 1].  Runs in doubles with compensated accumulation of the additive
    increments; relative drift at n = 1e4 stays far below 1e-8.
    """
    alpha = as_memory(mp).alpha
    if n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max}")
    m1, m2 = ms.m1, ms.m2
    M2, M3, M4 = ms.M2, ms.M3, ms.M4
    M12, M13, M22, M112 = ms.M12, ms.M13, ms.M22, ms.M112

    values = np.empty((n_max, 7), dtype=np.float64)
    flat = values.reshape(-1)
    s2, st, s3, su, t2, s2t, s4 = M2, M12, M3, M13, M22, M112, M4
    cs2 = cst = cs3 = csu = ct2 = cs2t = cs4 = 0.0
    values[0] = (s2, st, s3, su, t2, s2t, s4)
    six_m2 = 6.0 * M2

    # the loop runs in the interpreter, so its cost is per bytecode: the
    # compensated additions are written out in place rather than called,
    # terms used twice are computed once (each product keeps its operand
    # order, so the rounding is unchanged), and rows are kept as tuples and
    # copied into `values` a block at a time
    for first in range(1, n_max, _ROW_BLOCK):
        last = min(first + _ROW_BLOCK, n_max)
        block = []
        append = block.append
        for n in range(first, last):
            a = alpha / n
            a2 = 2.0 * a
            a3 = 3.0 * a
            a4 = 4.0 * a
            a6 = 6.0 * a
            a12m1 = 12.0 * a * m1
            inc_s2 = a2 * s2 + M2
            inc_st = a2 * st + M12
            inc_s3 = a3 * s3 + a3 * st - a6 * m1 * s2 + M3
            inc_su = a2 * su + M13
            inc_t2 = a2 * t2 + M22
            inc_s2t = a3 * s2t + a2 * su + a * t2 - a4 * m1 * st - a2 * m2 * s2 + M112
            inc_s4 = (
                a4 * s4
                + a6 * s2t
                + a4 * su
                - a12m1 * (s3 + st)
                + (a12m1 * m1 + six_m2) * s2
                + M4
            )
            y = inc_s2 - cs2
            t = s2 + y
            cs2 = (t - s2) - y
            s2 = t
            y = inc_st - cst
            t = st + y
            cst = (t - st) - y
            st = t
            y = inc_s3 - cs3
            t = s3 + y
            cs3 = (t - s3) - y
            s3 = t
            y = inc_su - csu
            t = su + y
            csu = (t - su) - y
            su = t
            y = inc_t2 - ct2
            t = t2 + y
            ct2 = (t - t2) - y
            t2 = t
            y = inc_s2t - cs2t
            t = s2t + y
            cs2t = (t - s2t) - y
            s2t = t
            y = inc_s4 - cs4
            t = s4 + y
            cs4 = (t - s4) - y
            s4 = t
            append((s2, st, s3, su, t2, s2t, s4))
        flat[7 * first : 7 * last] = np.fromiter(
            itertools.chain.from_iterable(block), np.float64, 7 * (last - first)
        )

    return ExactMomentTable(values)


def _guard_half(alpha: float) -> None:
    if abs(alpha - 0.5) < ALPHA_TOL:
        raise SingularParameterError("2*alpha - 1", 2.0 * alpha - 1.0)


def _guard_third(alpha: float) -> None:
    if abs(alpha - 1.0 / 3.0) < ALPHA_TOL:
        raise SingularParameterError("3*alpha - 1", 3.0 * alpha - 1.0)


def _guard_quarter(alpha: float) -> None:
    if abs(alpha - 0.25) < ALPHA_TOL:
        raise SingularParameterError("4*alpha - 1", 4.0 * alpha - 1.0)


def second_moment_coefficient(ms: MomentSet, mp: Union[MemoryParameter, float]) -> float:
    """Coefficient of Gamma(n+2a)/Gamma(n) in the second-moment closed form."""
    alpha = as_memory(mp).alpha
    _guard_half(alpha)
    return ms.M2 * (recip_gamma(2.0 * alpha) / (2.0 * alpha - 1.0))


def third_moment_coefficient(ms: MomentSet, mp: Union[MemoryParameter, float]) -> float:
    """Coefficient of Gamma(n+3a)/Gamma(n) in the third-moment closed form."""
    alpha = as_memory(mp).alpha
    _guard_third(alpha)
    return ms.M3 * (4.0 * recip_gamma(3.0 * alpha) / (3.0 * alpha - 1.0))


def fourth_moment_coefficient(ms: MomentSet, mp: Union[MemoryParameter, float]) -> float:
    """The constant K4 with E(S~_n^4) ~ K4 * Gamma(n+4a)/Gamma(n).

        K4 = 6 (3 (2a-1)^2 M4 + 2 (1-a)(5a-2) M2^2)
             / ((2a-1)^2 (4a-1) Gamma(4a))

    Factored as M4 * c1 + M2^2 * c2 so the degenerate reductions (alpha = 1)
    come out exact.
    """
    alpha = as_memory(mp).alpha
    _guard_half(alpha)
    _guard_quarter(alpha)
    shared = recip_gamma(4.0 * alpha) / (4.0 * alpha - 1.0)
    c1 = 18.0 * shared
    c2 = 12.0 * (1.0 - alpha) * (5.0 * alpha - 2.0) * shared / (2.0 * alpha - 1.0) ** 2
    return ms.M4 * c1 + (ms.M2 * ms.M2) * c2


@dataclass(frozen=True)
class ClosedFormMoments:
    """The six gamma-ratio closed forms of the quadratic and cubic moments at
    one n (scalar or array); s4 has its own closed form, `closed_form_s4`."""

    n: object
    s2: object
    st: object
    s3: object
    su: object
    t2: object
    s2t: object


def closed_form_moments(
    ms: MomentSet, mp: Union[MemoryParameter, float], n
) -> ClosedFormMoments:
    """Evaluate the six closed-form mixed moments at n (scalar or array).

    The quadratic family (s2, st, su, t2) shares

        g2(n) = Gamma(n+2a)/Gamma(n) / ((2a-1) Gamma(2a)) - n / (2a-1)

    scaled by M2, M12, M13, M22 respectively; the cubic family (s3, s2t)
    shares

        h3(n) = 4 Gamma(n+3a)/Gamma(n) / ((3a-1) Gamma(3a))
                - 3 Gamma(n+2a)/Gamma(n) / ((2a-1) Gamma(2a))
                + (a+1) n / ((2a-1)(3a-1))

    scaled by M3 and M112.  Gamma ratios are evaluated in log space, so the
    forms are safe up to n ~ 1e7.  Raises SingularParameterError when alpha
    is within 1e-8 of 1/2 or 1/3 (the respective denominators vanish).
    """
    alpha = as_memory(mp).alpha
    _guard_half(alpha)
    _guard_third(alpha)

    d2 = 2.0 * alpha - 1.0
    d3 = 3.0 * alpha - 1.0
    r2 = np.exp(log_gamma_ratio(n, 2.0 * alpha))
    r3 = np.exp(log_gamma_ratio(n, 3.0 * alpha))
    n_arr = np.asarray(n, dtype=np.float64) if not np.isscalar(n) else float(n)

    a2_coef = recip_gamma(2.0 * alpha) / d2
    g2 = a2_coef * r2 - n_arr / d2
    h3 = (
        4.0 * recip_gamma(3.0 * alpha) / d3 * r3
        - 3.0 * a2_coef * r2
        + (alpha + 1.0) * n_arr / (d2 * d3)
    )
    return ClosedFormMoments(
        n=n,
        s2=ms.M2 * g2,
        st=ms.M12 * g2,
        s3=ms.M3 * h3,
        su=ms.M13 * g2,
        t2=ms.M22 * g2,
        s2t=ms.M112 * h3,
    )


def closed_form_s4(ms: MomentSet, mp: Union[MemoryParameter, float], n):
    """E(S~_n^4) in closed form at n (scalar or array).

    Solving the s4 recursion with the closed forms of s2, st, s3, su, t2 and
    s2t as its forcing gives, with R4 = Gamma(n+4a)/Gamma(n),

        s4(n) = R4 [ M4/Gamma(1+4a) + a P A3 L(3a) + a A2 (Qc - 3P) L(2a)
                     + 6 M2^2 A2 W(2a)
                     + (a (P (a+1)/(d2 d3) - Qc/d2) + M4) L(1)
                     - (6 M2^2/d2) W(1) ],          s4(1) = M4,

    where L(x) = sum_{j<n} Gamma(j+x)/Gamma(j+1+4a), W(x) is the same sum
    weighted by j, P = 6 M112 - 12 m1 M3, Qc = 4 M13 - 12 m1 M12
    + 12 m1^2 M2, A2 = 1/(d2 Gamma(2a)), A3 = 4/(d3 Gamma(3a)), d2 = 2a-1
    and d3 = 3a-1.  The sums are evaluated through their own closed forms,
    R4 L(x) and R4 W(x) in terms of Gamma(n+x)/Gamma(n), with the factor a
    (or 1/Gamma(2a)) folded in so that alpha = 0 gives n M4 + 3 n(n-1) M2^2
    without a special case.  Raises SingularParameterError when alpha is
    within 1e-8 of 1/2, 1/3 or 1/4 (d2, d3 and 4a-1 vanish).
    """
    alpha = as_memory(mp).alpha
    _guard_half(alpha)
    _guard_third(alpha)
    _guard_quarter(alpha)

    d2 = 2.0 * alpha - 1.0
    d3 = 3.0 * alpha - 1.0
    d4 = 4.0 * alpha - 1.0
    n_arr = np.asarray(n, dtype=np.float64) if not np.isscalar(n) else float(n)
    r4 = np.exp(log_gamma_ratio(n, 4.0 * alpha))
    r3 = np.exp(log_gamma_ratio(n, 3.0 * alpha))
    r2 = np.exp(log_gamma_ratio(n, 2.0 * alpha))

    def linear(x, rx):
        # R4 (4a - x) L(x), with rx = Gamma(n+x)/Gamma(n)
        return math.gamma(1.0 + x) * recip_gamma(1.0 + 4.0 * alpha) * r4 - rx

    def weighted(x, rx):
        # R4 (4a - x) W(x)
        head = math.gamma(1.0 + x) * recip_gamma(4.0 * alpha) * r4 - (n_arr + d4) * rx
        return head / (d4 - x) - (n_arr - 1.0) * rx

    m1 = ms.m1
    m2_sq = ms.M2 * ms.M2
    p = 6.0 * ms.M112 - 12.0 * m1 * ms.M3
    qc = 4.0 * ms.M13 - 12.0 * m1 * ms.M12 + 12.0 * m1 * m1 * ms.M2
    a2_coef = recip_gamma(2.0 * alpha) / d2
    a3_coef = 4.0 * recip_gamma(3.0 * alpha) / d3
    # a L(3a) and a L(2a) carry the factors 1 and 1/2 of their denominators
    # a and 2a; A2 W(2a) carries 1/(2a Gamma(2a)) = 1/Gamma(1+2a)
    s4 = (
        ms.M4 * recip_gamma(1.0 + 4.0 * alpha) * r4
        + p * a3_coef * linear(3.0 * alpha, r3)
        + 0.5 * (qc - 3.0 * p) * a2_coef * linear(2.0 * alpha, r2)
        + 6.0 * m2_sq * recip_gamma(1.0 + 2.0 * alpha) / d2 * weighted(2.0 * alpha, r2)
        + (alpha * (p * (alpha + 1.0) / (d2 * d3) - qc / d2) + ms.M4) * linear(1.0, n_arr) / d4
        - 6.0 * m2_sq / d2 * weighted(1.0, n_arr) / d4
    )
    # at n = 1 the sums are empty and the terms cancel only to rounding
    s4 = np.where(n_arr == 1.0, ms.M4, s4)
    return s4 if np.ndim(n) else float(s4)


@dataclass(frozen=True)
class LimitMoments:
    """First four moments of the superdiffusive limit Q."""

    q1: float
    q2: float
    q3: float
    q4: float


def limit_q_moments(ms: MomentSet, mp: Union[MemoryParameter, float]) -> LimitMoments:
    """Moments of Q = lim S~_n / n^alpha for alpha > 1/2.

        E(Q)   = 0
        E(Q^2) = M2 / ((2a-1) Gamma(2a))
        E(Q^3) = 4 M3 / ((3a-1) Gamma(3a))
        E(Q^4) = K4  (see fourth_moment_coefficient)

    Raises RegimeError outside the superdiffusive regime.
    """
    memory = as_memory(mp)
    alpha = memory.alpha
    if not memory.superdiffusive:
        raise RegimeError(
            f"limit moments exist only in the superdiffusive regime alpha > 1/2, "
            f"got alpha = {alpha}"
        )
    _guard_half(alpha)
    return LimitMoments(
        q1=0.0,
        q2=second_moment_coefficient(ms, alpha),
        q3=third_moment_coefficient(ms, alpha),
        q4=fourth_moment_coefficient(ms, alpha),
    )


@dataclass(frozen=True)
class ConditionalStepMoments:
    """Predicted conditional expectations of the next step's centered powers
    given the current running sums (S~_n, T~_n, U~_n):

        dx    = E(X_{n+1} - m1               | F_n)
        dx2   = E((X_{n+1} - m1)^2           | F_n)
        dx3   = E((X_{n+1} - m1)^3           | F_n)
        dt    = E(X_{n+1}^2 - m2             | F_n)
        dt_dx = E((X_{n+1}^2 - m2)(X_{n+1} - m1) | F_n)
        du    = E(X_{n+1}^3 - m3             | F_n)
    """

    dx: float
    dx2: float
    dx3: float
    dt: float
    dt_dx: float
    du: float

    def as_dict(self) -> dict[str, float]:
        return {
            "dx": self.dx,
            "dx2": self.dx2,
            "dx3": self.dx3,
            "dt": self.dt,
            "dt_dx": self.dt_dx,
            "du": self.du,
        }


def conditional_step_moments(
    sums: tuple[float, float, float],
    n: int,
    ms: MomentSet,
    mp: Union[MemoryParameter, float],
) -> ConditionalStepMoments:
    """The six one-step conditional moments given running sums at time n.

    With a = alpha/n and (S, T, U) = (S~_n, T~_n, U~_n):

        dx    = a S
        dx2   = a T - 2 a m1 S + M2
        dx3   = a U - 3 a m1 T + 3 a m1^2 S + M3
        dt    = a T
        dt_dx = a U - a m1 T - a m2 S + M12
        du    = a U
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    alpha = as_memory(mp).alpha
    s, t, u = (float(v) for v in sums)
    a = alpha / n
    m1 = ms.m1
    return ConditionalStepMoments(
        dx=a * s,
        dx2=a * t - 2.0 * a * m1 * s + ms.M2,
        dx3=a * u - 3.0 * a * m1 * t + 3.0 * a * m1 * m1 * s + ms.M3,
        dt=a * t,
        dt_dx=a * u - a * m1 * t - a * ms.m2 * s + ms.M12,
        du=a * u,
    )


def brute_force_moments(
    dist: StepDistribution, mp: Union[MemoryParameter, float], n: int
) -> ExactMomentRow:
    """All seven mixed moments at time n by exact enumeration.

    Walks the full repeat-or-fresh outcome tree: at step k+1 each of the k
    previous steps is repeated with probability alpha/k and each support
    point is drawn fresh with probability (1-alpha) * weight.  Outcomes that
    share a step multiset are merged (all seven moments depend on the steps
    only through their multiset), which keeps the state space polynomial
    without changing any probability.  Completely independent of the
    recursion path, so the two must agree to rounding.

    Only finite-support laws are allowed, and the size guard n <= 8 with at
    most 4 support points keeps the enumeration trivial.
    """
    alpha = as_memory(mp).alpha
    d = as_discrete(dist)
    pts, wts = d.points, d.weights
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n > 8 or len(pts) > 4:
        raise EnumerationSizeError(
            f"enumeration guard: need n <= 8 and support <= 4, got n={n}, support={len(pts)}"
        )
    ms = moment_set(d)
    support = len(pts)

    # state: counts per support point -> total probability of reaching it
    states: dict[tuple[int, ...], float] = {}
    for j, w in enumerate(wts):
        if w > 0.0:
            key = tuple(1 if i == j else 0 for i in range(support))
            states[key] = states.get(key, 0.0) + w
    for k in range(1, n):
        nxt: dict[tuple[int, ...], float] = {}
        for counts, prob in states.items():
            for j in range(support):
                branch = alpha * counts[j] / k + (1.0 - alpha) * wts[j]
                if branch > 0.0:
                    key = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
                    nxt[key] = nxt.get(key, 0.0) + prob * branch
        states = nxt

    contrib: dict[str, list[float]] = {key: [] for key in CSV_COLUMNS[1:]}
    for counts, prob in states.items():
        s = sum(c * v for c, v in zip(counts, pts)) - n * ms.m1
        t = sum(c * v * v for c, v in zip(counts, pts)) - n * ms.m2
        u = sum(c * v ** 3 for c, v in zip(counts, pts)) - n * ms.m3
        contrib["s2"].append(prob * s * s)
        contrib["st"].append(prob * s * t)
        contrib["s3"].append(prob * s ** 3)
        contrib["su"].append(prob * s * u)
        contrib["t2"].append(prob * t * t)
        contrib["s2t"].append(prob * s * s * t)
        contrib["s4"].append(prob * s ** 4)
    return ExactMomentRow(n=n, **{key: math.fsum(vals) for key, vals in contrib.items()})
