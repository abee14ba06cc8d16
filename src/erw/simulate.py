"""Monte Carlo engine for the elephant random walk.

Paths follow the repeat-or-fresh step rule exactly: the first step is a
fresh draw, and step t+1 copies a uniformly chosen earlier step with
probability alpha, otherwise draws fresh.  All randomness comes from the
counter-based streams in `rng`, with a fixed two-draw pattern per step (one
uniform decides the branch, a second supplies the repeat index or the fresh
sample), so a path is a pure function of (distribution, alpha, n, stream
key) and a batch is a pure function of (.., master seed) regardless of
chunking or thread count.

The engine only builds a chunk's step matrix.  Every statistic (checkpoint
power sums of the centered position, martingale differences, marginal step
moments) is reduced from that matrix a row at a time, and only the sums
outlive the chunk, held in exactly-mergeable accumulators.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .distributions import MomentSet, StepDistribution, inverse_cdf, moment_set
from .gammatools import martingale_scale
from .moments import (
    ConditionalStepMoments,
    MemoryParameter,
    as_memory,
    conditional_step_moments,
)
from .rng import MASK64, replicate_keys, uniform_draws

#: Upper bound on elements of the per-chunk step matrix; chunk boundaries
#: depend only on (n, replicates), never on the worker count, which is what
#: makes parallel runs bit-identical.
_CHUNK_TARGET_ELEMENTS = 8_000_000

#: Bytes the thread pool holds per chunk: `Executor.map` submits every chunk
#: up front, and a pending Future with its Condition and work item took
#: 1.94 kB each (tracemalloc, CPython 3.11, 20 000 pending chunks).
_POOL_SPAN_BYTES = 2048

#: Elements per array of the draws made ahead for a block of steps; a block
#: is max(1, _BLOCK_ELEMENTS // width) steps.  Sized by elements, not steps,
#: so the look-ahead memory stays flat (128 kB per float array) for any
#: chunk width up to _BLOCK_ELEMENTS; wider chunks take one step per block.
_BLOCK_ELEMENTS = 16_384


@dataclass(frozen=True, eq=False)
class WalkState:
    """A realized walk prefix: every step plus the running centered sums.

    s = S_n, s_tilde = S_n - n m1, t_tilde and u_tilde are the centered sums
    of squares and cubes, and q = a_n * s_tilde is the martingale value.
    """

    n: int
    steps: np.ndarray
    s: float
    s_tilde: float
    t_tilde: float
    u_tilde: float
    q: float

    @classmethod
    def from_steps(
        cls, steps, ms: MomentSet, mp: Union[MemoryParameter, float]
    ) -> "WalkState":
        alpha = as_memory(mp).alpha
        arr = np.array(steps, dtype=np.float64)
        n = arr.size
        if n < 1:
            raise ValueError("a walk state needs at least one step")
        s = float(arr.sum())
        s_tilde = s - n * ms.m1
        t_tilde = float((arr * arr).sum()) - n * ms.m2
        u_tilde = float((arr ** 3).sum()) - n * ms.m3
        q = martingale_scale(n, alpha) * s_tilde
        arr.flags.writeable = False
        return cls(n=n, steps=arr, s=s, s_tilde=s_tilde,
                   t_tilde=t_tilde, u_tilde=u_tilde, q=q)


def _run_paths(
    dist: StepDistribution, alpha: float, n: int, keys: np.ndarray
) -> np.ndarray:
    """The (n, len(keys)) step matrix of len(keys) walks, vectorised across walks.

    Step t consumes draw counters 2(t-1) for the branch uniform and
    2(t-1)+1 for the index-or-sample uniform; the first step uses only the
    sample draw.  The draws, fresh samples and repeat indices depend only on
    (key, counter), so they are made a block of steps at a time (about
    _BLOCK_ELEMENTS values per array); only the copy from the walk's own
    history runs step by step.  The counters, and so the output bytes, are
    the same as drawing one step at a time.  Every statistic is computed
    from the returned matrix afterwards, a row at a time.
    """
    width = keys.size
    steps = np.empty((n, width), dtype=np.float64)
    flat = steps.reshape(-1)
    cols = np.arange(width)
    rows = max(1, _BLOCK_ELEMENTS // max(width, 1))

    for first in range(1, n + 1, rows):
        t_block = np.arange(first, min(first + rows, n + 1))
        u_val = uniform_draws(keys, 2 * t_block - 1)
        fresh = inverse_cdf(dist, u_val)
        repeat = uniform_draws(keys, 2 * t_block - 2) < alpha
        # source row of a repeat, already flattened to a position in `steps`
        prev = (t_block - 1)[:, None]
        idx = (u_val * prev).astype(np.int64)
        np.minimum(idx, prev - 1, out=idx)
        idx *= width
        idx += cols

        for i, t in enumerate(range(first, first + t_block.size)):
            if t == 1:
                steps[0] = fresh[0]  # the first step is always fresh
            else:
                steps[t - 1] = np.where(repeat[i], flat.take(idx[i]), fresh[i])
    return steps


def _centered_sums(steps: np.ndarray, m1: float):
    """Yield (t, S~_t) for t = 1..n, one row at a time (no matrix-sized temporary)."""
    s_run = np.zeros(steps.shape[1], dtype=np.float64)
    for t, x in enumerate(steps, start=1):
        s_run += x
        yield t, s_run - t * m1


def _power_sums(values: np.ndarray) -> np.ndarray:
    """sum(values ** p) for p = 1..8, by repeated multiplication."""
    sums = np.empty(8, dtype=np.float64)
    p = values.copy()
    for k in range(8):
        sums[k] = p.sum()
        if k < 7:
            p *= values
    return sums


def simulate_path(
    dist: StepDistribution, mp: Union[MemoryParameter, float], n: int, seed: int
) -> WalkState:
    """One walk of n steps, a deterministic function of (dist, alpha, n, seed).

    `seed` is used directly as the stream key, so
    simulate_path(..., replicate_key(master, i)) reproduces replicate i of a
    batch bit-for-bit.
    """
    alpha = as_memory(mp).alpha
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    keys = np.array([seed & MASK64], dtype=np.uint64)
    steps = _run_paths(dist, alpha, n, keys)
    return WalkState.from_steps(steps[:, 0], moment_set(dist), mp)


class ExactSum:
    """Exact running sum of doubles via Shewchuk's non-overlapping partials.

    The represented value is the exact real sum of everything added, so
    combining sums is associative and commutative by value, which is what
    makes accumulator merging order-independent.
    """

    __slots__ = ("partials",)

    def __init__(self, partials: Sequence[float] = ()):
        self.partials = list(partials)

    def add(self, x: float) -> None:
        x = float(x)
        partials = self.partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        for p in list(other.partials):
            self.add(p)

    @property
    def value(self) -> float:
        return math.fsum(self.partials)

    def copy(self) -> "ExactSum":
        return ExactSum(self.partials)


class BatchAccumulator:
    """Mergeable per-checkpoint power sums of S~ (p = 1 .. 8).

    Powers run to 8 so standard errors of fourth moments can be estimated.
    Merging accumulators over disjoint replicate ranges equals one
    accumulation over the union exactly, not just to rounding.
    """

    POWERS = 8

    def __init__(self, checkpoints: Sequence[int]):
        cps = tuple(int(c) for c in checkpoints)
        if not cps or any(c < 1 for c in cps) or list(cps) != sorted(set(cps)):
            raise ValueError(
                f"checkpoints must be distinct positive integers in ascending order, got {checkpoints!r}"
            )
        self.checkpoints = cps
        self.n_replicates = 0
        self._sums = [[ExactSum() for _ in range(self.POWERS)] for _ in cps]

    def add_chunk(self, power_sums: np.ndarray, count: int) -> None:
        """Fold in one chunk's (checkpoints x 8) power-sum matrix."""
        for row, exact_row in zip(power_sums, self._sums):
            for value, exact in zip(row, exact_row):
                exact.add(value)
        self.n_replicates += count

    def merge(self, other: "BatchAccumulator") -> None:
        if other.checkpoints != self.checkpoints:
            raise ValueError("cannot merge accumulators with different checkpoints")
        for mine, theirs in zip(self._sums, other._sums):
            for exact, other_exact in zip(mine, theirs):
                exact.merge(other_exact)
        self.n_replicates += other.n_replicates

    def copy(self) -> "BatchAccumulator":
        dup = BatchAccumulator(self.checkpoints)
        dup.n_replicates = self.n_replicates
        dup._sums = [[e.copy() for e in row] for row in self._sums]
        return dup

    def power_sum(self, n: int, p: int) -> float:
        """Sum over replicates of S~_n^p."""
        if not 1 <= p <= self.POWERS:
            raise ValueError(f"p must be in 1..{self.POWERS}, got {p}")
        return self._sums[self.checkpoints.index(n)][p - 1].value

    def moment(self, n: int, p: int) -> float:
        """Empirical E(S~_n^p)."""
        if self.n_replicates < 1:
            raise ValueError("accumulator is empty")
        return self.power_sum(n, p) / self.n_replicates


def _chunk_width(n: int, replicates: int) -> int:
    """Walks per chunk: at most _CHUNK_TARGET_ELEMENTS steps, at least one walk."""
    return max(1, min(replicates, _CHUNK_TARGET_ELEMENTS // max(n, 1)))


def _chunk_spans(n: int, replicates: int) -> Iterator[tuple[int, int]]:
    """Fixed replicate ranges [start, stop) of at most _CHUNK_TARGET_ELEMENTS
    steps, made one at a time."""
    chunk = _chunk_width(n, replicates)
    for start in range(0, replicates, chunk):
        yield start, min(start + chunk, replicates)


def batch_step_bytes(n: int, replicates: int, last: int, workers: int = 1) -> int:
    """Bytes `simulate_batch` holds at once for checkpoints ending at `last`:
    one float64 (last x chunk width) step matrix per busy worker and, with
    more than one worker, the pool's record of every chunk.  Computed
    without allocating anything."""
    width = _chunk_width(n, replicates)
    chunks = -(-replicates // width)
    pool = _POOL_SPAN_BYTES * chunks if workers > 1 else 0
    return 8 * last * width * min(workers, chunks) + pool


def _chunk_steps(dist, alpha, n, master_seed, span) -> np.ndarray:
    """Step matrix of the replicates in `span`; replicate i has key replicate_key(master_seed, i)."""
    start, stop = span
    return _run_paths(dist, alpha, n, replicate_keys(master_seed, start, stop - start))


def _checkpoint_sums(steps: np.ndarray, m1: float, checkpoint_index: dict[int, int]) -> np.ndarray:
    """(checkpoints x 8) power sums of S~ over the walks of one step matrix."""
    sums = np.zeros((len(checkpoint_index), BatchAccumulator.POWERS), dtype=np.float64)
    for t, s_tilde in _centered_sums(steps, m1):
        if t in checkpoint_index:
            sums[checkpoint_index[t]] += _power_sums(s_tilde)
    return sums


def simulate_batch(
    dist: StepDistribution,
    mp: Union[MemoryParameter, float],
    n: int,
    replicates: int,
    master_seed: int,
    checkpoints: Sequence[int],
    workers: int = 1,
) -> BatchAccumulator:
    """Accumulate S~ power sums over many replicates at the checkpoints.

    Replicate i uses stream key replicate_key(master_seed, i).  Work is cut
    into fixed-size chunks and partial sums are merged exactly, so the
    result is bit-identical for any `workers`.  Walks are simulated only to
    the last checkpoint; `n` still sets the chunk layout.
    """
    alpha = as_memory(mp).alpha
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    acc = BatchAccumulator(checkpoints)
    if acc.checkpoints[-1] > n:
        raise ValueError(
            f"checkpoints must lie in [1, n]: got {acc.checkpoints[-1]} > n = {n}"
        )
    m1 = moment_set(dist).m1
    cpi = {c: i for i, c in enumerate(acc.checkpoints)}
    last = acc.checkpoints[-1]

    def run(span: tuple[int, int]):
        steps = _chunk_steps(dist, alpha, last, master_seed, span)
        return _checkpoint_sums(steps, m1, cpi), span[1] - span[0]

    spans = _chunk_spans(n, replicates)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for sums, count in pool.map(run, spans):
                acc.add_chunk(sums, count)
    else:
        for span in spans:
            acc.add_chunk(*run(span))
    return acc


@dataclass(frozen=True)
class ScaledMomentEstimate:
    """Empirical n^{-p alpha} E(S~_n^p) with its standard error."""

    n: int
    p: int
    estimate: float
    stderr: float
    n_replicates: int
    degenerate: bool = False


def empirical_q_moments(
    acc: BatchAccumulator, mp: Union[MemoryParameter, float]
) -> list[ScaledMomentEstimate]:
    """Scaled moment estimates for p = 1..4 at every checkpoint.

    Estimates are unbiased sample means of n^{-p alpha} S~_n^p; the standard
    error comes from the sample variance of the scaled p-th power, which
    needs power sums up to 2p.  With fewer than two replicates the standard
    error is undefined and the estimate is flagged degenerate.
    """
    alpha = as_memory(mp).alpha
    count = acc.n_replicates
    if count < 1:
        raise ValueError("accumulator is empty")
    out = []
    for n in acc.checkpoints:
        for p in (1, 2, 3, 4):
            scale = float(n) ** (-p * alpha)
            mean = acc.moment(n, p)
            estimate = scale * mean
            if count < 2:
                out.append(
                    ScaledMomentEstimate(n, p, estimate, float("nan"), count, True)
                )
                continue
            mean_sq = acc.moment(n, 2 * p)
            variance = max(0.0, (mean_sq - mean * mean) * (count / (count - 1.0)))
            stderr = scale * math.sqrt(variance / count)
            out.append(ScaledMomentEstimate(n, p, estimate, stderr, count))
    return out


@dataclass(frozen=True, eq=False)
class MartingaleView:
    """Martingale-difference decomposition of one walk.

    eps_1 = X_1 - m1 and eps_k = S~_k - (1 + alpha/(k-1)) S~_{k-1}; the
    partial sums of a_k eps_k telescope to a_n S~_n.
    """

    eps: np.ndarray
    weighted_partials: np.ndarray
    q_direct: float
    reconstruction_error: float


def martingale_diagnostics(
    state: WalkState,
    mp: Union[MemoryParameter, float],
    ms: MomentSet,
    tol: float = 1e-8,
) -> MartingaleView:
    """Per-step martingale differences and the telescoping reconstruction.

    The mismatch between sum(a_k eps_k) and a_n S~_n is measured relative to
    the larger of |Q_n| and the largest contributing term; anything beyond
    `tol` cannot come from rounding and raises.
    """
    alpha = as_memory(mp).alpha
    steps = np.asarray(state.steps, dtype=np.float64)
    n = steps.size
    k = np.arange(1, n + 1, dtype=np.float64)
    s_tilde = np.cumsum(steps) - k * ms.m1
    eps = np.empty(n, dtype=np.float64)
    eps[0] = s_tilde[0]
    if n > 1:
        eps[1:] = s_tilde[1:] - (1.0 + alpha / k[:-1]) * s_tilde[:-1]
    scale_series = martingale_scale(k, alpha)
    contributions = scale_series * eps
    weighted = np.cumsum(contributions)
    q_direct = float(scale_series[-1] * s_tilde[-1])
    reference = max(abs(q_direct), float(np.max(np.abs(contributions))), 1e-300)
    error = abs(float(weighted[-1]) - q_direct) / reference
    if error > tol:
        raise RuntimeError(
            f"martingale reconstruction off by {error:g} (> {tol:g}): implementation fault"
        )
    return MartingaleView(
        eps=eps,
        weighted_partials=weighted,
        q_direct=q_direct,
        reconstruction_error=error,
    )


def _add_epsilon_sums(sums: np.ndarray, steps: np.ndarray, alpha: float, m1: float) -> None:
    """Add one step matrix's per-step sums of eps, eps^2 and eps^4 to `sums` (3 x n).

    eps_1 = X_1 - m1 and eps_t = X_t - m1 - (alpha/(t-1)) S~_{t-1}.
    """
    s_prev = None
    for t, s_tilde in _centered_sums(steps, m1):
        eps = steps[t - 1] - m1
        if t > 1:
            eps -= (alpha / (t - 1)) * s_prev
        sq = eps * eps
        sums[0, t - 1] += eps.sum()
        sums[1, t - 1] += sq.sum()
        sums[2, t - 1] += (sq * sq).sum()
        s_prev = s_tilde


def _add_marginal_sums(sums: np.ndarray, steps: np.ndarray) -> None:
    """Add one step matrix's per-step power sums of X_t (p = 1..8) to `sums` (n x 8)."""
    for t, x in enumerate(steps):
        sums[t] += _power_sums(x)


@dataclass(frozen=True, eq=False)
class MarginalSums:
    """Per-step power sums over `count` walks: sums[t-1, p-1] = sum of X_t^p."""

    count: int
    sums: np.ndarray


@dataclass(frozen=True, eq=False)
class EpsilonMoments:
    """Empirical per-step statistics of the martingale differences.

    q_increment_mean[t-1] estimates E(Q_t - Q_{t-1}) = a_t E(eps_t); under
    the martingale property it is zero for every t.
    """

    n_replicates: int
    mean: np.ndarray
    stderr: np.ndarray
    abs2: np.ndarray
    abs4: np.ndarray
    q_increment_mean: np.ndarray
    q_increment_stderr: np.ndarray


def batch_epsilon_moments(
    dist: StepDistribution,
    mp: Union[MemoryParameter, float],
    n: int,
    replicates: int,
    master_seed: int,
) -> EpsilonMoments:
    """Empirical E(eps_t), E(eps_t^2), E(eps_t^4) for t = 1..n over a batch."""
    alpha = as_memory(mp).alpha
    m1 = moment_set(dist).m1
    sums = np.zeros((3, n), dtype=np.float64)
    for span in _chunk_spans(n, replicates):
        _add_epsilon_sums(sums, _chunk_steps(dist, alpha, n, master_seed, span), alpha, m1)
    mean, abs2, abs4 = sums / replicates
    if replicates > 1:
        variance = np.maximum(0.0, (abs2 - mean * mean) * (replicates / (replicates - 1.0)))
        stderr = np.sqrt(variance / replicates)
    else:
        stderr = np.full(n, np.nan)
    scale_series = martingale_scale(np.arange(1, n + 1, dtype=float), alpha)
    return EpsilonMoments(
        n_replicates=replicates,
        mean=mean,
        stderr=stderr,
        abs2=abs2,
        abs4=abs4,
        q_increment_mean=scale_series * mean,
        q_increment_stderr=scale_series * stderr,
    )


def marginal_moment_sums(
    dist: StepDistribution,
    mp: Union[MemoryParameter, float],
    n: int,
    replicates: int,
    master_seed: int,
) -> MarginalSums:
    """Per-step power sums of the raw step across a batch (p = 1..8).

    The marginal law of every X_t equals the step law, so the per-step
    empirical moments must match the raw moments at Monte Carlo accuracy.
    """
    alpha = as_memory(mp).alpha
    sums = np.zeros((n, 8), dtype=np.float64)
    for span in _chunk_spans(n, replicates):
        _add_marginal_sums(sums, _chunk_steps(dist, alpha, n, master_seed, span))
    return MarginalSums(count=replicates, sums=sums)


@dataclass(frozen=True)
class ContinuationCheck:
    """Empirical vs predicted conditional moment of the next step."""

    name: str
    predicted: float
    observed: float
    stderr: float
    z: float


def conditional_continuation_test(
    prefix: WalkState,
    dist: StepDistribution,
    mp: Union[MemoryParameter, float],
    n_continuations: int,
    master_seed: int,
) -> list[ContinuationCheck]:
    """Freeze a prefix, sample one-step continuations, compare all six
    conditional moments against their predictions."""
    alpha = as_memory(mp).alpha
    if n_continuations < 1:
        raise ValueError("need at least one continuation")
    ms = moment_set(dist)
    n = prefix.n
    predicted: ConditionalStepMoments = conditional_step_moments(
        (prefix.s_tilde, prefix.t_tilde, prefix.u_tilde), n, ms, mp
    )
    keys = replicate_keys(master_seed, 0, n_continuations)
    u_branch = uniform_draws(keys, 0)
    u_val = uniform_draws(keys, 1)
    idx = np.minimum((u_val * n).astype(np.int64), n - 1)
    fresh = inverse_cdf(dist, u_val)
    x = np.where(u_branch < alpha, np.asarray(prefix.steps)[idx], fresh)

    dx = x - ms.m1
    dt = x * x - ms.m2
    observables = {
        "dx": dx,
        "dx2": dx * dx,
        "dx3": dx ** 3,
        "dt": dt,
        "dt_dx": dt * dx,
        "du": x ** 3 - ms.m3,
    }
    target = predicted.as_dict()
    results = []
    for name, values in observables.items():
        observed = float(values.mean())
        if n_continuations > 1:
            stderr = float(values.std(ddof=1)) / math.sqrt(n_continuations)
        else:
            stderr = float("nan")
        gap = observed - target[name]
        if stderr > 0.0:
            z = gap / stderr
        else:
            z = 0.0 if gap == 0.0 else math.inf
        results.append(ContinuationCheck(name, target[name], observed, stderr, z))
    return results
