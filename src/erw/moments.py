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

satisfy coupled first-order recursions in n whose forcings carry the step
law's raw moments m1 and m2.  Let N_j be the cluster sizes: the j-th fresh
step and the steps that copy it, directly or through other copies.  Then
S~_n = sum_j N_j (xi_j - m1) with i.i.d. founder values xi_j, so each of
the seven is a law constant times one of four sequences of alpha alone:
E S2, E S3 and E S4, with S_k = sum_j N_j^k, and E(S2^2 - S4).  This module
iterates those four sequences exactly and maps them to the seven columns,
evaluates the gamma-ratio closed forms the coupled recursions solve to (all
seven: the six of `closed_form_moments` and s4 in `closed_form_s4`),
computes the first four moments of the superdiffusive limit
Q = lim S~_n / n^alpha, and gives all seven moments at every n <= n_max
from one run of a count chain (`brute_force_moments`, O(n_max^2) time),
for laws of at most two positive-weight atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .distributions import MomentSet, StepDistribution, as_discrete, moment_set
from .gammatools import (
    SingularParameterError, _check_n, check_alpha, log_gamma_ratio, recip_gamma,
    scaled_gamma_sums, unit_constant_solution,
)

#: Alphas within this radius of a vanishing denominator (1/2, 1/3, 1/4 for
#: the respective formulas) are rejected; the recursion path covers them.
ALPHA_TOL = 1e-8

#: Rows per block when a table is written as CSV.  Only one block of rows
#: is ever held as Python floats and text, so memory stays flat in n.
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
    """The count chain was given a law with more than two positive-weight atoms."""


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
    """Per-n table of the seven mixed expectations, n = 1 .. n_max: `values`
    is the (n_max, 7) float64 array, row n - 1 for n, made read-only."""

    def __init__(self, values: np.ndarray):
        if values.ndim != 2 or values.shape[1] != 7:
            raise ValueError("expected an (n_max, 7) array")
        values.flags.writeable = False
        self.values = values

    def __len__(self) -> int:
        return self.values.shape[0]

    def row(self, n: int) -> ExactMomentRow:
        if not 1 <= n <= len(self):
            raise IndexError(f"n must be in 1..{len(self)}, got {n}")
        return ExactMomentRow(n, *(float(v) for v in self.values[n - 1]))

    def column(self, name: str) -> np.ndarray:
        idx = CSV_COLUMNS.index(name) - 1
        if idx < 0:
            return np.arange(1, len(self) + 1)
        return self.values[:, idx]

    def row_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (n of the first row, a read-only (rows, 7) float64 view), a
        block of rows at a time."""
        for start in range(0, len(self), _ROW_BLOCK):
            yield start + 1, self.values[start : start + _ROW_BLOCK]

    def write_csv(self, handle) -> None:
        """Write the table as CSV with shortest round-trip decimals to an
        open text handle.

        Each block of rows is formatted by `format_csv_rows` into one string
        and written with one call.
        """
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for first, block in self.row_blocks():
            handle.write(format_csv_rows(first, block))


def exact_moments_upto(ms: MomentSet, alpha: float, n_max: int) -> ExactMomentTable:
    """The seven moments at n = 1 .. n_max from the four law-free sequences
    (module docstring).  With a = alpha / n and D = E(S2^2 - S4), from
    (1, 1, 1, 0) at n = 1, every forcing >= 0 since S3 <= n S2:

        E S2' = (1 + 2a) E S2 + 1
        E S3' = (1 + 3a) E S3 + 3a E S2 + 1
        E S4' = (1 + 4a) E S4 + 6a E S3 + 4a E S2 + 1
        D'    = (1 + 4a) D + 2 E S2 - 2a E S3

    s2, st, su and t2 are M2, M12, M13 and M22 times E S2, s3 and s2t are
    M3 and M112 times E S3, and s4 = M4 E S4 + 3 M2^2 D.  Valid for every
    alpha in [0, 1]; no closed form is used.  Solved a level at a time
    (E S2; E S3; E S4 and D) as a blocked scan with compensated additions,
    in about sqrt(n_max) blocks of as many steps, so row n may differ in its
    last bit between tables of different n_max (README, "Numerical notes").
    This is the batch of one of `exact_moment_tables`.
    """
    return exact_moment_tables([(ms, alpha)], n_max)[0]


def exact_moment_tables(
    pairs: Iterable[tuple[MomentSet, float]], n_max: int
) -> list[ExactMomentTable]:
    """`exact_moments_upto(ms, alpha, n_max)` for each (ms, alpha) of
    `pairs`, in order, from one blocked scan: every level's arrays carry a
    leading table axis, so a level makes its numpy calls once for the whole
    batch.  Each cell goes through the same operations in the same order as
    in a batch of one, so a table's bytes do not depend on the batch.
    """
    pairs = [(ms, check_alpha(alpha)) for ms, alpha in pairs]
    n_max = int(_check_n(n_max, "n_max"))
    tables = len(pairs)
    # E S2, E S3, E S4 and D are solved in the columns of s2, s3, s4 and
    # s2t, which they scale; the table is then mapped in place
    values = np.empty((tables, n_max, 7), dtype=np.float64)
    values[:, 0, [0, 2, 6, 5]] = (1.0, 1.0, 1.0, 0.0)
    width, blocks = _block_shape(n_max)
    # a and one forcing at a time in step order, zero past step n_max - 1,
    # read by the level through `_by_block`; once spent, they take a
    # level's rows
    buffers = np.zeros((tables, 2, width * blocks))
    a, forcing = buffers[:, 0], buffers[:, 1]
    a_rows, f, a_blocks = a[:, : n_max - 1], forcing[:, : n_max - 1], _by_block(a, width)
    np.divide(np.array([alpha for _, alpha in pairs])[:, None], np.arange(1, n_max), out=a_rows)
    # row n forces step n + 1: views of rows 1 .. n_max - 1, read once filled
    s2, s3 = values[:, :-1, 0], values[:, :-1, 2]

    def product(c, sequence):
        # c a sequence into the forcing, as the level reads it
        forcing[:, n_max - 1 :] = 0.0  # what a level's rows left past the last step
        np.multiply(a_rows, c, out=f)
        np.multiply(f, sequence, out=f)
        return _by_block(forcing, width)

    level = np.empty((tables, 3, width, blocks))
    np.multiply(a_blocks, 2.0, out=level[:, 0])
    level[:, 1] = 1.0
    _solve_level(values, [0], level[:, :2], buffers[:, 1:])
    np.multiply(a_blocks, 3.0, out=level[:, 0])
    np.add(product(3.0, s2), 1.0, out=level[:, 1])
    _solve_level(values, [2], level[:, :2], buffers[:, 1:])
    np.multiply(a_blocks, 4.0, out=level[:, 0])
    level[:, 1] = product(4.0, s2)
    np.add(product(6.0, s3), level[:, 1], out=level[:, 1])
    level[:, 1] += 1.0
    level[:, 2] = product(2.0, s3)
    np.multiply(s2, 2.0, out=f)
    np.subtract(_by_block(forcing, width), level[:, 2], out=level[:, 2])
    _solve_level(values, [6, 5], level, buffers)
    # an overflow gives inf (inf times 0, nan), kept without a warning for callers to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        for (ms, _), table in zip(pairs, values):
            e2, e3, e4, d = (table[:, k] for k in (0, 2, 6, 5))
            d *= 3.0 * ms.M2 * ms.M2
            e4 *= ms.M4
            e4 += d
            # each column is written after the last read of what it held
            columns = ((1, (ms.M12, e2)), (3, (ms.M13, e2)), (4, (ms.M22, e2)), (0, (ms.M2, e2)),
                       (5, (ms.M112, e3)), (2, (ms.M3, e3)))
            for k, (scale, sequence) in columns:
                np.multiply(sequence, scale, out=table[:, k])
    return [ExactMomentTable(table) for table in values]


def exact_moments_bytes(n_max: int) -> int:
    """Bytes `exact_moments_upto` holds at once for n_max rows, computed
    without allocating anything.  The scan peaks where `_solve_level`
    builds a level's rows.  It then holds the table, 7 columns over the
    rows, in which the four sequences are solved, and 5 columns over the
    steps padded to whole blocks: a and the forcing in step order, which
    take the rows once spent, and the level (3).  Two of numpy's ufunc
    buffers of up to 8192 values, which the rows' broadcast product fills,
    the block starts and their compensations as Python floats (128 bytes a
    block) and 8 KiB of small arrays come on top.  tracemalloc measures
    over 98% of it from 2^15 steps.  A batch of T tables holds at most T
    times as much."""
    width, blocks = _block_shape(n_max)
    steps = width * blocks
    return 8 * (7 * n_max + 5 * steps + 2 * min(2 * steps, 8192) + 16 * blocks) + 8192


def _block_shape(n_max: int) -> tuple[int, int]:
    """(width, blocks) of the scan over the n_max - 1 steps to row n_max:
    about sqrt(n_max) blocks of as many steps."""
    width = math.isqrt(n_max - 1) + 1
    return width, -(-(n_max - 1) // width)


def _by_block(steps: np.ndarray, width: int) -> np.ndarray:
    """A (tables, blocks * width) array of steps 1 .. blocks * width as the
    (tables, width, blocks) view the scan reads: [i, k] is step
    k width + i + 1."""
    return steps.reshape(steps.shape[0], -1, width).swapaxes(1, 2)


def _solve_level(
    values: np.ndarray, cols: list, level: np.ndarray, rows: np.ndarray
) -> None:
    """Fill rows 2 .. n_max of the columns `cols` of each table of `values`
    (tables, n_max, columns), which step as x <- x + (c a x + forcing), from
    row 1.  `level` is (tables, 1 + len(cols), width, blocks): c a, then
    each column's forcing, each step at `_by_block`'s place and finite past
    the last step, whose rows are dropped; the scan overwrites it.  The rows
    are built in `rows`, (tables, len(cols), width * blocks) in step order.

    Every block runs at once from 0, compensated, beside a first column e
    (forced by c a): the homogeneous solution less 1.  Then the block
    starts are chained in Python floats, x <- x + (e x + p) at each block's
    end, compensated, and each row is start + (e start + p), the start's
    compensation (times 1 + e) added back: 1 + e is formed once, in e's
    place, and its product with a column's compensations in that column's
    p, read by then.
    """
    tables, _, width, blocks = level.shape
    x = comp = np.zeros(level[:, :, 0].shape)
    for i in range(width):
        step = level[:, :, i]  # its first column c a, read before the step
        y = (step[:, :1] * x + step) - comp
        t = x + y
        comp = (t - x) - y
        x = level[:, :, i] = t
    e, p = level[:, 0], level[:, 1:]
    starts, lost = [], []
    for table, firsts in enumerate(values[:, 0, cols].tolist()):
        for x, p_end in zip(firsts, p[table, :, -1].tolist()):
            comp = 0.0
            for e_k, p_k in zip(e[table, -1].tolist(), p_end):
                starts.append(x)
                lost.append(comp)
                y = (e_k * x + p_k) - comp
                t = x + y
                comp = (t - x) - y
                x = t
    # rows in step order, block by block: transposed as they are built
    starts, lost = (np.reshape(v, (tables, len(cols), blocks, 1)) for v in (starts, lost))
    rows = rows.reshape(tables, len(cols), blocks, width)
    np.multiply(e.swapaxes(1, 2)[:, None], starts, out=rows)
    rows += p.swapaxes(2, 3)
    e += 1.0
    for j in range(len(cols)):
        np.multiply(e, lost[:, j].swapaxes(1, 2), out=p[:, j])
        rows[:, j] -= p[:, j].swapaxes(1, 2)
    rows += starts
    rows = rows.reshape(tables, len(cols), blocks * width)[:, :, : values.shape[1] - 1]
    values[:, 1:, cols] = rows.swapaxes(1, 2)


def _solve_recursion_scan(beta: float, b1: float, c) -> np.ndarray:
    """b_1 .. b_n of b_{k+1} = (1 + beta/k) b_k + c_k from b_1 and the
    forcing c_1 .. c_{n-1}, by the blocked scan `exact_moments_upto` runs:
    `_solve_level` on one table of one column, with c = beta and a = 1/k."""
    c = np.asarray(c, dtype=np.float64)
    n = c.size + 1
    width, blocks = _block_shape(n)
    values = np.empty((1, n, 1))
    values[0, 0] = b1
    # 1/k, then the forcing, then the rows, in step order: zero past step n - 1
    steps = np.zeros((1, width * blocks))
    level = np.empty((1, 2, width, blocks))
    np.divide(1.0, np.arange(1, n), out=steps[0, : n - 1])
    np.multiply(_by_block(steps, width), beta, out=level[:, 0])
    steps[0, : n - 1] = c
    level[:, 1] = _by_block(steps, width)
    _solve_level(values, [0], level, steps[:, None])
    return values[0, :, 0]


def _guard(alpha: float, k: int) -> None:
    """Refuse alpha within ALPHA_TOL of 1/k, where k*alpha - 1 vanishes."""
    if abs(alpha - 1.0 / k) < ALPHA_TOL:
        raise SingularParameterError(f"{k}*alpha - 1", k * alpha - 1.0)


def second_moment_coefficient(ms: MomentSet, alpha: float) -> float:
    """Coefficient of Gamma(n+2a)/Gamma(n) in the second-moment closed form."""
    alpha = check_alpha(alpha)
    _guard(alpha, 2)
    return ms.M2 * (recip_gamma(2.0 * alpha) / (2.0 * alpha - 1.0))


def third_moment_coefficient(ms: MomentSet, alpha: float) -> float:
    """Coefficient of Gamma(n+3a)/Gamma(n) in the third-moment closed form."""
    alpha = check_alpha(alpha)
    _guard(alpha, 3)
    return ms.M3 * (4.0 * recip_gamma(3.0 * alpha) / (3.0 * alpha - 1.0))


def fourth_moment_coefficient(ms: MomentSet, alpha: float) -> float:
    """The constant K4 with E(S~_n^4) ~ K4 * Gamma(n+4a)/Gamma(n).

        K4 = 6 (3 (2a-1)^2 M4 + 2 (1-a)(5a-2) M2^2)
             / ((2a-1)^2 (4a-1) Gamma(4a))

    Factored as M4 * c1 + M2^2 * c2 so the degenerate reductions (alpha = 1)
    come out exact.
    """
    alpha = check_alpha(alpha)
    _guard(alpha, 2)
    _guard(alpha, 4)
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


def closed_form_moments(ms: MomentSet, alpha: float, n) -> ClosedFormMoments:
    """Evaluate the six closed-form mixed moments at n (scalar or array).

    The quadratic family (s2, st, su, t2) shares

        g2(n) = Gamma(n+2a)/Gamma(n) / ((2a-1) Gamma(2a)) - n / (2a-1),

    the solution of b_{n+1} = (1 + 2a/n) b_n + 1 (`unit_constant_solution`),
    scaled by M2, M12, M13, M22 respectively; the cubic family (s3, s2t)
    shares

        h3(n) = 4 Gamma(n+3a)/Gamma(n) / ((3a-1) Gamma(3a))
                - 3 Gamma(n+2a)/Gamma(n) / ((2a-1) Gamma(2a))
                + (a+1) n / ((2a-1)(3a-1))

    scaled by M3 and M112.  Gamma ratios are evaluated in log space, so the
    forms are safe up to n ~ 1e7.  Raises SingularParameterError when alpha
    is within 1e-8 of 1/2 or 1/3 (the respective denominators vanish).

    The forms are `_closed_form_from_ratios` at the ratios
    R_p = Gamma(n+pa)/Gamma(n).  For alpha > 1/2 the leading coefficient
    lim s_p / R_p is that evaluator at n = 0 with R_p = 1 and the lower
    ratio 0: M2 / ((2a-1) Gamma(2a)) for s2, 4 M3 / ((3a-1) Gamma(3a)) for
    s3.
    """
    alpha = check_alpha(alpha)
    _guard(alpha, 2)
    _guard(alpha, 3)

    r2, r3 = _gamma_ratios(n, alpha, (2.0, 3.0))
    return _closed_form_from_ratios(ms, alpha, n, r2, r3)


def _gamma_ratios(n, alpha: float, powers):
    """The ratios Gamma(n+pa)/Gamma(n) for each p of `powers`, stacked on a
    leading axis, from one `log_gamma_ratio` call over n."""
    n = np.asarray(n, dtype=np.float64)
    deltas = np.multiply(powers, alpha).reshape((-1,) + (1,) * n.ndim)
    ratios = log_gamma_ratio(n, deltas)
    return np.exp(ratios, out=ratios)


def _closed_form_from_ratios(ms: MomentSet, alpha: float, n, r2, r3) -> ClosedFormMoments:
    """The six forms of `closed_form_moments` from n and the ratios
    r2 = Gamma(n+2a)/Gamma(n) and r3 = Gamma(n+3a)/Gamma(n), unguarded."""
    d2 = 2.0 * alpha - 1.0
    d3 = 3.0 * alpha - 1.0
    n_arr = np.asarray(n, dtype=np.float64)

    g2 = unit_constant_solution(2.0 * alpha, n_arr, r2)
    h3 = (
        4.0 * recip_gamma(3.0 * alpha) / d3 * r3
        - 3.0 * (recip_gamma(2.0 * alpha) / d2) * r2
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


def closed_form_s4(ms: MomentSet, alpha: float, n):
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
    and d3 = 3a-1.  R4 L(x) and R4 W(x) come from `scaled_gamma_sums`, the
    form `gamma_sum_linear` and `gamma_sum_weighted` are built on, at
    b = 1+4a, so each ratio Gamma(n+x)/Gamma(n), x = 4a, 3a, 2a, is
    evaluated once.  The factor a (or 1/Gamma(2a)) is folded in so that
    alpha = 0 gives n M4 + 3 n(n-1) M2^2 without a special case.  Raises
    SingularParameterError when alpha is within 1e-8 of 1/2, 1/3 or 1/4
    (d2, d3 and 4a-1 vanish).

    The form is the six-term sum `_s4_from_ratios` at the ratios R2, R3
    and R4.  For alpha > 1/2 the leading coefficient lim s4 / R4 is that
    sum at n = 0, R4 = 1 and R2 = R3 = 0, where each pair of
    `scaled_gamma_sums` is its exact limit over R4, since every sum here
    converges.
    """
    alpha = check_alpha(alpha)
    _guard(alpha, 2)
    _guard(alpha, 3)
    _guard(alpha, 4)

    n_arr = np.asarray(n, dtype=np.float64)
    r2, r3, r4 = _gamma_ratios(n_arr, alpha, (2.0, 3.0, 4.0))
    s4 = _s4_from_ratios(ms, alpha, n_arr, r2, r3, r4)
    # at n = 1 the sums are empty and the terms cancel only to rounding
    return np.where(n_arr == 1.0, ms.M4, s4)[()]


def _s4_from_ratios(ms: MomentSet, alpha: float, n_arr, r2, r3, r4):
    """The six-term sum of `closed_form_s4` from n (float64) and the ratios
    r_p = Gamma(n+pa)/Gamma(n), p = 2, 3, 4, unguarded."""
    d2 = 2.0 * alpha - 1.0
    d3 = 3.0 * alpha - 1.0
    d4 = 4.0 * alpha - 1.0
    b = 1.0 + 4.0 * alpha
    linear_3a, _ = scaled_gamma_sums(3.0 * alpha, b, n_arr, r3, r4)
    linear_2a, weighted_2a = scaled_gamma_sums(2.0 * alpha, b, n_arr, r2, r4)
    linear_1, weighted_1 = scaled_gamma_sums(1.0, b, n_arr, n_arr, r4)

    m1 = ms.m1
    m2_sq = ms.M2 * ms.M2
    p = 6.0 * ms.M112 - 12.0 * m1 * ms.M3
    qc = 4.0 * ms.M13 - 12.0 * m1 * ms.M12 + 12.0 * m1 * m1 * ms.M2
    a2_coef = recip_gamma(2.0 * alpha) / d2
    a3_coef = 4.0 * recip_gamma(3.0 * alpha) / d3
    # a L(3a) and a L(2a) carry the factors 1 and 1/2 of their denominators
    # a and 2a; A2 W(2a) carries 1/(2a Gamma(2a)) = 1/Gamma(1+2a); the
    # weighted sums carry b-x-2, which is d2 at x = 2a and 2 d2 at x = 1
    return (
        ms.M4 * recip_gamma(1.0 + 4.0 * alpha) * r4
        + p * a3_coef * linear_3a
        + 0.5 * (qc - 3.0 * p) * a2_coef * linear_2a
        + 6.0 * m2_sq * recip_gamma(1.0 + 2.0 * alpha) / (d2 * d2) * weighted_2a
        + (alpha * (p * (alpha + 1.0) / (d2 * d3) - qc / d2) + ms.M4) * linear_1 / d4
        - 3.0 * m2_sq / (d2 * d2) * weighted_1 / d4
    )


@dataclass(frozen=True)
class LimitMoments:
    """First four moments of the superdiffusive limit Q."""

    q1: float
    q2: float
    q3: float
    q4: float


def limit_q_moments(ms: MomentSet, alpha: float) -> LimitMoments:
    """Moments of Q = lim S~_n / n^alpha for alpha > 1/2.

        E(Q)   = 0
        E(Q^2) = M2 / ((2a-1) Gamma(2a))
        E(Q^3) = 4 M3 / ((3a-1) Gamma(3a))
        E(Q^4) = K4  (see fourth_moment_coefficient)

    `verify.check_limit_coefficients` holds q2, q3 and q4 to the leading
    coefficients of `closed_form_moments` and `closed_form_s4`.  Raises
    RegimeError outside the superdiffusive regime.
    """
    alpha = check_alpha(alpha)
    if alpha <= 0.5:
        raise RegimeError(
            f"limit moments exist only in the superdiffusive regime alpha > 1/2, "
            f"got alpha = {alpha}"
        )
    _guard(alpha, 2)
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


def conditional_step_moments(
    sums: tuple[float, float, float],
    n: int,
    ms: MomentSet,
    alpha: float,
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
    n = int(_check_n(n, "n"))
    alpha = check_alpha(alpha)
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


def _two_atoms(dist: StepDistribution) -> tuple[float, float, float]:
    """(a, b, w): the first and last positive-weight atoms of a finite law and
    the weight of a (b = a and w = 1 for a one-atom law)."""
    d = as_discrete(dist)
    atoms = [(x, w) for x, w in zip(d.points, d.weights) if w > 0.0]
    if len(atoms) > 2:
        raise EnumerationSizeError(f"need at most 2 positive-weight atoms, got {len(atoms)}")
    (a, w), (b, _) = atoms[0], atoms[-1]
    return a, b, w if len(atoms) == 2 else 1.0


def _chain_steps(dist: StepDistribution, alpha: float, n: int) -> Iterator[np.ndarray]:
    """The law of the count chain after t = 1, ..., n steps: a view of
    length t + 1 of one array, updated in place between yields.

    The count is a Markov chain (a Polya-type urn with immigration): from k
    after t steps the next step takes a with probability
    alpha k/t + (1 - alpha) w.
    """
    alpha = check_alpha(alpha)
    _, _, w = _two_atoms(dist)
    n = int(_check_n(n, "n"))
    counts = np.arange(n, dtype=np.float64)
    law = np.zeros(n + 1, dtype=np.float64)
    law[0], law[1] = 1.0 - w, w
    yield law[:2]
    for t in range(1, n):
        # only k <= t has mass; k/t is exactly 1 at k = t, so a one-atom
        # law keeps all its mass there
        up = (counts[: t + 1] / t * alpha + (1.0 - alpha) * w) * law[: t + 1]
        law[: t + 1] -= up
        law[1 : t + 2] += up
        yield law[: t + 2]


def exact_law(dist: StepDistribution, alpha: float, n: int) -> np.ndarray:
    """Test oracle: the float64 vector P of length n + 1, where P[k] is the
    probability that k of the n steps took the law's first positive-weight
    atom a (weight w; the other atom is b), from n steps of the count chain
    (`_chain_steps`): O(n) memory, O(n^2) time.  More than two
    positive-weight atoms raise EnumerationSizeError.
    """
    for law in _chain_steps(dist, alpha, n):
        pass
    return law


def brute_force_moments(dist: StepDistribution, alpha: float, n_max: int) -> ExactMomentTable:
    """Test oracle: the seven mixed moments at n = 1 .. n_max from one run of
    the count chain.  Row n is one matrix-vector product of the law after n
    steps with the moments' values at each count k, where
    S~ = k (a - m1) + (n - k)(b - m1) and likewise T~ and U~ from the atoms'
    squares and cubes.  It shares no code with the recursions, so the two
    must agree to rounding.
    """
    a, b, _ = _two_atoms(dist)
    ms = moment_set(dist)
    # rows: the centered first, second and third powers of a and of b
    centered = np.array([[a, b], [a * a, b * b], [a ** 3, b ** 3]]) - [[ms.m1], [ms.m2], [ms.m3]]
    rows = []
    for n, law in enumerate(_chain_steps(dist, alpha, n_max), 1):
        k = np.arange(n + 1, dtype=np.float64)
        s, t, u = centered[:, :1] * k + centered[:, 1:] * (n - k)
        s2 = s * s
        rows.append(np.array((s2, s * t, s2 * s, s * u, t * t, s2 * t, s2 * s2)) @ law)
    return ExactMomentTable(np.array(rows))
