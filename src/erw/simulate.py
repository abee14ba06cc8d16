"""Monte Carlo engines for the elephant random walk.

Paths follow the repeat-or-fresh step rule exactly: the first step is a
fresh draw, and step t+1 copies a uniformly chosen earlier step with
probability alpha, otherwise draws fresh.  All randomness comes from the
counter-based streams in `rng`, with one draw per step: its uniform u
decides the branch (u < alpha repeats) and is split at alpha, u/alpha
giving the repeat index and `_fresh_uniforms` the fresh sample's uniform,
so a path is a pure function of (distribution, alpha, n, stream key) and a
batch is a pure function of (.., master seed) regardless of chunking or
thread count.

Two engines share these draws, and neither knows the step law while it
fills a walk.  The literal engine (`_run_uniforms`) gathers a chunk's
float64 matrix of the uniforms its steps sample at, and the law is applied
after the gather by the element-wise `inverse_cdf`, a block of
`_block_rows` steps at a time: in place for `simulate_path`, and once per
law of a batch for the per-step statistics, so laws that share the draws
share one fill.  The cluster engine (`_run_labels`,
behind `cluster_batch`) keeps only which fresh step founded each step's
cluster, in the narrowest unsigned type that holds n - 1 (one byte per
walk-step to n = 256, two to 65,536), and draws no sample: given the
cluster sizes the founders' values are i.i.d. draws of the step law, so
the conditional moments E(S~^p | sizes) are exact and their average
estimates E(S~^p) with less variance than S~^p itself.  Every Monte
Carlo sum has one layout: for p = 1..4, column p-1 sums each walk's
estimate of E(.^p) and column p+3 its square (S~^p, E(S~^p | sizes), or
a step's X_t^p or martingale difference eps_t^p), rows made by
`_power_sums` or `_cluster_sums`, and a batch's result is that array.  One
driver and reducer, `_run_batch`, runs every batch in chunks of fixed
replicate ranges and adds their sums in span order, so every batch
statistic has the same bytes for any worker count.  `layout_moments` is
the one reader of the layout: it turns any such sums into the means of
the four estimates and their standard errors, for `empirical_q_moments`,
the continuation test and the `verify` checks of such sums; `z_score`
turns gaps into z-scores.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from functools import partial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .distributions import MomentSet, StepDistribution, _is_number, inverse_cdf, moment_set
from .gammatools import _check_n, check_alpha
from .moments import conditional_step_moments
from .rng import MASK64, mixed_words, replicate_keys, unit_floats, words_below

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

#: Walks per tile of the cluster engine's size pass; a tile holds one
#: (last checkpoint x walks) matrix of counts and blocks of about
#: _BLOCK_ELEMENTS values.
_TILE_WALKS = 128

#: 8-byte values per walk of a tile that the size pass holds besides its
#: blocks while it counts a checkpoint's rows: the three sums (3), the
#: previous checkpoint's float64 sums (3) and conditional moments (4), and
#: `cols` (1).
_SIZE_PASS_VALUES_PER_WALK = 11

#: Bytes of a tile's size pass that do not grow with it: numpy's ufunc
#: buffer of 8192 values (64 KiB), which the broadcast add of `cols` to a
#: block's index fills, and array headers.
_SIZE_PASS_FIXED_BYTES = 72 * 1024


@dataclass(frozen=True, eq=False)
class WalkState:
    """A realized walk prefix: every step plus the running centered sums.

    s_tilde = S_n - n m1, and t_tilde and u_tilde are the centered sums of
    squares and cubes.
    """

    n: int
    steps: np.ndarray
    s_tilde: float
    t_tilde: float
    u_tilde: float

    @classmethod
    def from_steps(cls, steps, ms: MomentSet) -> "WalkState":
        arr = np.array(steps, dtype=np.float64)
        n = arr.size
        if n < 1:
            raise ValueError("a walk state needs at least one step")
        s_tilde = float(arr.sum()) - n * ms.m1
        t_tilde = float((arr * arr).sum()) - n * ms.m2
        u_tilde = float((arr ** 3).sum()) - n * ms.m3
        arr.flags.writeable = False
        return cls(n=n, steps=arr, s_tilde=s_tilde, t_tilde=t_tilde, u_tilde=u_tilde)


def _block_rows(width: int) -> int:
    """Steps per block of draws: about _BLOCK_ELEMENTS values per array."""
    return max(1, _BLOCK_ELEMENTS // max(width, 1))


def _row_blocks(steps: np.ndarray) -> Iterator[np.ndarray]:
    """A step or uniform matrix as views of `_block_rows(walks)` steps each."""
    rows = _block_rows(steps.shape[1])
    return (steps[first : first + rows] for first in range(0, steps.shape[0], rows))


def _fresh_uniforms(u, alpha: float, step_one: bool = False, out=None) -> np.ndarray:
    """The uniforms v in (0, 1] that fresh steps sample the step law at,
    from their draws u, made in `out` (a float64 array of u's shape) or a
    new array; every sampling consumer maps its draws through this one rule.

    A fresh step after the first has u >= alpha, and v = (u - a)/(1 - a),
    where a is the double just below alpha: the conditional uniform
    (u - alpha)/(1 - alpha), kept above 0 where u == alpha and defined at
    alpha = 1, where only u = 1 is fresh and gives v = 1.  Step 1 is always
    fresh and takes v = u; with `step_one`, the first row of u is step 1's.
    Rows of repeats (u < alpha) get values below 0 that no caller reads.
    """
    a = np.nextafter(alpha, -1.0)
    v = np.subtract(u, a, out=out)
    v /= 1.0 - a
    if step_one:
        v[0] = u[0]
    return v


def _repeat_reach(t_less_1, alpha: float):
    """(t-1)/alpha, the factor that takes a repeat's uniform u < alpha to
    (u/alpha)(t-1), whose floor is the row it copies.  A fresh step's
    u >= alpha takes it to at least (t-1)(1 - 2^-52) > t-2.  It is inf
    where no step repeats, since no uniform is below alpha <= 2^-54, the
    least one, and so it still takes every u above t-2."""
    if alpha > 2.0**-54:
        return np.divide(t_less_1, alpha)
    return np.full(np.shape(t_less_1), np.inf)


def _fill_walks(out: np.ndarray, keys: np.ndarray, alpha: float) -> np.ndarray:
    """Fill `out`, an (n, len(keys)) matrix, with len(keys) walks by the step
    rule, vectorised across walks, and return it; both engines run it.  It
    knows no step law: a float64 `out` gets the uniform each step samples
    its law at (`_run_uniforms`), any other type cluster labels.

    Step t reads one draw, at counter t-1, whose uniform u both decides
    and carries out the step.  None of these depends on the walk's history,
    so they are drawn a block of steps at a time.  The step repeats when u
    is below alpha, never at t = 1, which is tested on the mixed word
    against `words_below(alpha)`.  Each block's rows are first set to the
    values of fresh steps: in a float64 `out` their uniforms
    `_fresh_uniforms(u, ...)`, written straight into the block, otherwise
    each row's own 0-based index, a cluster label.  A repeat copies row
    floor((u/alpha)(t-1)), capped at t-2 before the cast into the words'
    buffer.  Every fresh step lands on t-2 there (`_repeat_reach`), so
    adding the bool `fresh` moves it to its own row, t-1: it reads its
    value at its own position, and every step is one `take` from the walk's
    own history.  The counters, and so the bytes, are the same as drawing
    one step at a time.
    """
    n, width = out.shape
    flat = out.reshape(-1)
    cols = np.arange(width)
    rows = _block_rows(width)
    bound = np.uint64(words_below(alpha))
    uniforms = out.dtype == np.float64

    for first in range(0, n, rows):
        steps = np.arange(first, min(first + rows, n))  # t - 1
        words = mixed_words(keys, steps)
        fresh = words >= bound
        if first == 0:
            fresh[0] = True  # the first step is always fresh
        u = unit_floats(words)
        own = steps[:, None]
        block = out[first : first + steps.size]
        if uniforms:
            _fresh_uniforms(u, alpha, step_one=first == 0, out=block)
        else:
            block[...] = own
        src = words.view(np.int64)
        u *= _repeat_reach(own, alpha)
        np.minimum(u, own - 1.0, out=u)  # t-2, where every fresh step lands
        np.copyto(src, u, casting="unsafe")  # truncates, as astype does
        del u, words
        src += fresh  # a fresh step reads its own row, t-1
        del fresh
        src *= width
        src += cols
        for i, row in enumerate(block):
            flat.take(src[i], out=row, mode="clip")
        del src  # free this block's draws before the next is made
    return out


def _run_uniforms(alpha: float, n: int, keys: np.ndarray) -> np.ndarray:
    """The (n, len(keys)) float64 matrix of the uniforms at which the steps
    of len(keys) walks sample their law: a fresh step's own, a repeat's
    copied from the step it repeats.  The step law is applied afterwards,
    by `inverse_cdf`, which acts element by element: every law that samples
    one such matrix gets the steps `_run_paths` gives it alone."""
    return _fill_walks(np.empty((n, keys.size), dtype=np.float64), keys, alpha)


def _run_paths(
    dist: StepDistribution, alpha: float, n: int, keys: np.ndarray
) -> np.ndarray:
    """The (n, len(keys)) float64 step matrix of len(keys) walks: the
    gathered uniforms of `_run_uniforms`, sampled in place a block at a
    time, so no second matrix is held.  Every statistic is computed from
    it afterwards, a block of steps at a time."""
    steps = _run_uniforms(alpha, n, keys)
    for block in _row_blocks(steps):
        block[...] = inverse_cdf(dist, block)
    return steps


def _label_dtype(n: int) -> np.dtype:
    """The narrowest unsigned type that holds every label of an n-step walk
    (0..n-1): uint8 to n = 256, uint16 to 65,536, uint32 beyond."""
    return np.min_scalar_type(n - 1)


def _run_labels(alpha: float, n: int, keys: np.ndarray) -> np.ndarray:
    """The (n, len(keys)) cluster labels of len(keys) walks, of `_label_dtype(n)`.

    A step's label is the 0-based row of the fresh step that founded its
    cluster: a fresh step founds its own, a repeat joins the cluster of the
    step it copies.  The draws are `_run_paths`'s, so
    `_run_paths(...)[labels, cols]` equals the fresh samples gathered at
    the labels.  No sample is drawn.
    """
    if n > 2**32:
        raise ValueError(f"cluster labels are at most uint32: n must be at most 2**32, got {n}")
    labels = np.empty((n, keys.size), dtype=_label_dtype(n))
    return _fill_walks(labels, keys, alpha)


def _size_pass_bytes(width: int, last: int) -> int:
    """Bytes the size pass holds for a tile of `width` walks to `last`: the
    counts, and for one block of rows the int64 index and the two 8-byte
    power blocks, _SIZE_PASS_VALUES_PER_WALK 8-byte values per walk and
    _SIZE_PASS_FIXED_BYTES."""
    rows = min(_block_rows(width), last)
    itemsize = np.min_scalar_type(last).itemsize
    per_walk = itemsize * last + 8 * (3 * rows + _SIZE_PASS_VALUES_PER_WALK)
    return width * per_walk + _SIZE_PASS_FIXED_BYTES


def _add_rows(total: np.ndarray, block: np.ndarray) -> None:
    """total += the rows of `block`, added one row at a time in order, so
    the sum of a column is the same for any number of columns and any
    block edges (numpy's column sum adds a lone contiguous column
    pairwise).  `block` is left holding the running sums."""
    block[0] += total
    np.cumsum(block, axis=0, out=block)
    total[...] = block[-1]


def _cluster_size_sums(labels: np.ndarray, checkpoints: Sequence[int]):
    """Yield (S2, S3, S4) at each checkpoint c, one float64 value per walk
    (column of `labels`): S_k = sum of N^k over the walk's clusters, where
    N counts the first c steps that carry the cluster's label.

    The sizes are counted founder-major (walk j's founder r at r*width + j)
    in the narrowest unsigned type that holds the last checkpoint, since
    one cluster can hold every step.  A label in the first c rows is below
    c, so a checkpoint counts only the rows added since the previous one,
    O(new rows), and sums the powers of the first c rows of counts,
    O(walks * c), a block of rows at a time.  While the counts fit 16 bits
    the sums are exact uint64 integers (S4 <= c^4 < 2^64), rounded once,
    when converted to float64; beyond, they are float64 sums added row by
    row (`_add_rows`), so a walk's sums do not depend on its tile's width.
    """
    width = labels.shape[1]
    last = checkpoints[-1]
    counts = np.zeros((last, width), dtype=np.min_scalar_type(last))
    flat = counts.reshape(-1)
    one = counts.dtype.type(1)  # of the counts' type: np.add.at's fast path
    cols = np.arange(width)
    rows = min(_block_rows(width), last)
    exact = counts.itemsize <= 2
    sum_type = np.uint64 if exact else np.float64
    sizes, squares = np.empty((2, rows, width), dtype=sum_type)
    sums = np.empty((3, width), dtype=sum_type)
    start = 0
    for c in checkpoints:
        for r in range(start, c, rows):
            index = np.multiply(labels[r : min(r + rows, c)], width, dtype=np.intp)
            index += cols
            np.add.at(flat, index.reshape(-1), one)
            del index  # before the next block's index is made
        start = c
        sums.fill(0)
        for r in range(0, c, rows):
            stop = min(r + rows, c)
            size, square = sizes[: stop - r], squares[: stop - r]
            np.copyto(size, counts[r:stop])
            np.multiply(size, size, out=square)
            if exact:
                sums[0] += square.sum(axis=0)
                size *= square
                sums[1] += size.sum(axis=0)
                square *= square
                sums[2] += square.sum(axis=0)
            else:  # each add spends its block: N^3, then N^2, then N^4
                size *= square
                _add_rows(sums[1], size)
                np.copyto(size, square)
                _add_rows(sums[0], size)
                square *= square
                _add_rows(sums[2], square)
        yield tuple(sums.astype(np.float64))


def _conditional_moments(ms: MomentSet, s2, s3, s4) -> np.ndarray:
    """(4, walks) array of E(S~^p | cluster sizes) for p = 1..4.

    Given the sizes N_j, S~ = sum_j N_j (xi_j - m1) with i.i.d. founder
    values xi_j, so E1 = 0, E2 = M2 S2, E3 = M3 S3 and
    E4 = M4 S4 + 3 M2^2 (S2^2 - S4), with S_k = sum_j N_j^k.
    """
    out = np.zeros((4, np.size(s2)), dtype=np.float64)
    out[1] = ms.M2 * s2
    out[2] = ms.M3 * s3
    out[3] = ms.M4 * s4 + 3.0 * ms.M2 * ms.M2 * (s2 * s2 - s4)
    return out


def _cluster_sums(labels: np.ndarray, ms: MomentSet, checkpoints: Sequence[int]) -> np.ndarray:
    """(checkpoints x 8) sums over the walks of one label matrix, in the
    one layout: E_p in columns 0..3 and E_p^2 in columns 4..7, added tile
    by tile of _TILE_WALKS walks.  Values that overflow give inf or nan,
    without a warning."""
    sums = np.zeros((len(checkpoints), 8), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, labels.shape[1], _TILE_WALKS):
            tile = labels[:, j : j + _TILE_WALKS]
            for row, size_sums in zip(sums, _cluster_size_sums(tile, checkpoints)):
                e = _conditional_moments(ms, *size_sums)
                row[:4] += e.sum(axis=1)
                row[4:] += (e * e).sum(axis=1)
    return sums


def _power_sums(values: np.ndarray) -> np.ndarray:
    """Rows of the Monte Carlo layout from the last axis of `values`: for
    (..., walks) values, the (..., 8) sums of values ** p for p = 1..4,
    then of values ** (2p) for p = 1..4, each power made once by repeated
    multiplication.  A row of a block has the bytes of its 1-D vector's
    row.  Powers that overflow give inf or nan sums, without a warning."""
    sums = np.empty(values.shape[:-1] + (8,), dtype=np.float64)
    power = values.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 9):
            if k > 1:
                power *= values
            if k <= 4 or k % 2 == 0:
                total = power.sum(axis=-1)
                if k <= 4:
                    sums[..., k - 1] = total
                if k % 2 == 0:
                    sums[..., 3 + k // 2] = total
    return sums


def simulate_path(dist: StepDistribution, alpha: float, n: int, seed: int) -> WalkState:
    """One walk of n steps, a deterministic function of (dist, alpha, n, seed).

    `seed` is used directly as the stream key, so
    simulate_path(..., replicate_key(master, i)) reproduces replicate i of a
    batch bit-for-bit.
    """
    alpha = check_alpha(alpha)
    n = int(_check_n(n, "n"))
    keys = np.array([seed & MASK64], dtype=np.uint64)
    steps = _run_paths(dist, alpha, n, keys)
    return WalkState.from_steps(steps[:, 0], moment_set(dist))


def check_checkpoints(checkpoints: Sequence[int], n: int | None = None) -> tuple[int, ...]:
    """The one checkpoint rule of the simulators and the CLI: one or more
    distinct positive integers in ascending order, none above `n` when it
    is given.  Returns them as a tuple of ints; a refusal is a ValueError
    whose message starts `checkpoints: `.  A float, even a whole one, and a
    bool are refused rather than read as integers."""
    values = list(checkpoints)
    try:
        cps = tuple(operator.index(c) for c in values)
    except TypeError:
        cps = ()
    if (not cps or any(isinstance(c, bool) for c in values) or cps[0] < 1
            or any(a >= b for a, b in zip(cps, cps[1:]))):
        raise ValueError(
            "checkpoints: must be distinct positive integers in ascending order, "
            f"got {values}"
        )
    if n is not None and cps[-1] > n:
        raise ValueError(f"checkpoints: must lie in [1, n] = [1, {n}], got {cps[-1]}")
    return cps


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
    """Bytes `cluster_batch` holds at once for checkpoints ending at `last`:
    per busy worker a (last x chunk width) label matrix of
    `_label_dtype(last)` and the size pass's arrays for one tile of at most
    _TILE_WALKS walks, and, with more than one worker, the pool's record of
    every chunk.  Computed without allocating anything."""
    width = _chunk_width(n, replicates)
    chunks = -(-replicates // width)
    pool = _POOL_SPAN_BYTES * chunks if workers > 1 else 0
    labels = _label_dtype(last).itemsize * last * width
    tile = _size_pass_bytes(min(width, _TILE_WALKS), last)
    return (labels + tile) * min(workers, chunks) + pool


def _chunk_keys(master_seed: int, span: tuple[int, int]) -> np.ndarray:
    """Stream keys of the replicates in `span`: replicate_key(master_seed, i)."""
    start, stop = span
    return replicate_keys(master_seed, start, stop - start)


def _check_count(count, name: str) -> int:
    """`count` as an int, or ValueError unless it is a whole number of at
    least 1: `name must be >= 1, got ...` below 1, `_check_n`'s message
    otherwise."""
    if _is_number(count) and count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    return int(_check_n(count, name))


def _run_batch(n, replicates, workers, chunk_sums, checkpoints=None) -> np.ndarray:
    """The one chunk driver and reducer: the sum of `chunk_sums(span, cps)`
    over the spans of `_chunk_spans(n, replicates)`, added in span order
    from zeros (`pool.map` keeps the order), so it is bit-identical for any
    `workers`; sums that overflow give inf or nan, without a warning.  It
    first checks that replicates and n are whole numbers of at least 1 and,
    unless `checkpoints` is None, that they pass `check_checkpoints` within
    [1, n]: walks may stop at the last one, but n sets the chunk layout.
    cps is the checked tuple of checkpoints, () without them."""
    replicates = _check_count(replicates, "replicates")
    n = int(_check_n(n, "n"))
    cps = () if checkpoints is None else check_checkpoints(checkpoints, n)

    def run(span: tuple[int, int]) -> np.ndarray:
        return chunk_sums(span, cps)

    def add(chunks: Iterable[np.ndarray]) -> np.ndarray:
        total = 0.0
        for sums in chunks:
            with np.errstate(over="ignore", invalid="ignore"):
                total = total + sums
        return total

    spans = _chunk_spans(n, replicates)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return add(pool.map(run, spans))
    return add(map(run, spans))


def cluster_batch(
    dist: StepDistribution,
    alpha: float,
    n: int,
    replicates: int,
    master_seed: int,
    checkpoints: Sequence[int],
    workers: int = 1,
) -> np.ndarray:
    """The (checkpoints x 8) sums over `replicates` walks of the
    conditional moments E(S~^p | cluster sizes), p = 1..4, and of their
    squares at the checkpoints, in the one layout.

    The walks, chunks and draws are those of the literal engine
    (`_run_paths`) with the same arguments, but only cluster labels are
    simulated (`_run_labels`) and no step is sampled.  Each walk's E_p has
    the mean of S~^p and a smaller variance.  Each checkpoint counts the
    cluster sizes of only the steps added since the previous one, O(new
    rows), but sums their powers over all its rows, O(walks * checkpoint),
    so many checkpoints on long walks still cost more than the walks
    themselves.  Bit-identical for any `workers`.
    """
    alpha = check_alpha(alpha)
    ms = moment_set(dist)
    return _run_batch(
        n, replicates, workers,
        lambda span, cps: _cluster_sums(
            _run_labels(alpha, cps[-1], _chunk_keys(master_seed, span)), ms, cps
        ),
        checkpoints,
    )


def layout_moments(sums, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The one reader of the layout: for (..., 8) sums over `count` walks,
    the (..., 4) means of the walks' estimates of E(.^p), p = 1..4, and
    their standard errors, the one stderr formula: sqrt(v / count) for the
    sample variance v = (mean of squares - mean^2) * count/(count - 1),
    floored at 0.  Below two walks, or where a sum is nan, it is nan."""
    means = np.divide(sums, count)
    mean = means[..., :4]
    ratio = count / (count - 1.0) if count > 1 else math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        variance = np.maximum(0.0, (means[..., 4:] - mean * mean) * ratio)
    return mean, np.sqrt(variance / count)


def z_score(gap, stderr):
    """gap / stderr (scalars or arrays).  Where stderr is not positive (0 or
    nan), z is 0 for a gap of exactly 0 and inf otherwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            np.asarray(stderr) > 0.0,
            np.divide(gap, stderr),
            np.where(np.asarray(gap) == 0.0, 0.0, np.inf),
        )


def _q_scales(checkpoints: Sequence[int], alpha: float) -> np.ndarray:
    """The (checkpoints x 4) scales n^{-p alpha}, p = 1..4, each a Python
    float power."""
    return np.array([[float(n) ** (-p * alpha) for p in (1, 2, 3, 4)] for n in checkpoints])


def empirical_q_moments(
    sums: np.ndarray, count: int, checkpoints: Sequence[int], alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """The scaled estimates of n^{-p alpha} E(S~_n^p) and their standard
    errors, two (checkpoints x 4) arrays (row i for checkpoints[i], column
    p-1 for p), from the (checkpoints x 8) sums of `count` walks.

    Estimates are unbiased sample means of the scaled per-walk estimate
    (n^{-p alpha} S~_n^p, or its conditional moment from `cluster_batch`);
    the standard error comes from the sample variance of that estimate.
    With fewer than two walks the standard error is nan.
    """
    scales = _q_scales(checkpoints, check_alpha(alpha))
    mean, stderr = layout_moments(sums, count)
    return scales * mean, scales * stderr


def _martingale_differences(
    blocks: Iterable[np.ndarray], alpha: float, m1: float
) -> Iterator[np.ndarray]:
    """Yield eps_t for t = 1..n over the walks of a step matrix given as
    consecutive (rows, walks) blocks, one block of eps_t per block of
    steps: eps_1 = X_1 - m1 and eps_t = X_t - m1 - (alpha/(t-1)) S~_{t-1}.

    S_{t-1} is carried from block to block and added a step at a time, in
    the order of a running sum, and every eps_t takes the operations of a
    one-step loop in its order, so the bytes do not depend on the block
    edges.  No temporary is bigger than a block."""
    carry = 0.0  # S_{t-1} at the block's first t
    first = 0
    for block in blocks:
        s_prev = np.empty_like(block)  # S_{t-1}
        s_prev[0] = carry
        s_prev[1:] = block[:-1]
        np.cumsum(s_prev, axis=0, out=s_prev)
        carry = s_prev[-1] + block[-1]
        eps = block - m1
        t_less_1 = np.arange(first, first + block.shape[0], dtype=np.float64)[:, None]
        lo = 1 if first == 0 else 0  # eps_1 has no memory term
        s_prev -= t_less_1 * m1
        s_prev[lo:] *= alpha / t_less_1[lo:]
        eps[lo:] -= s_prev[lo:]
        yield eps
        first += block.shape[0]


def _step_sums(laws, alpha, n, replicates, master_seed) -> list[np.ndarray]:
    """One (n, 8) array of per-step sums over a batch in the one layout for
    each (dist, values) pair of `laws`: row t-1 adds `_power_sums` of step
    t's values, which `values(steps)` yields from the law's steps, given as
    blocks of `_row_blocks`.  Each chunk fills one uniform matrix
    (`_run_uniforms`), and every law samples it a block at a time, so laws
    share the draws and the fill, and each law's sums are those of a batch
    of one."""
    n = int(_check_n(n, "n"))

    def chunk_sums(span, _):
        uniforms = _run_uniforms(alpha, n, _chunk_keys(master_seed, span))
        sums = []
        for dist, values in laws:
            steps = (inverse_cdf(dist, block) for block in _row_blocks(uniforms))
            sums.append(np.vstack([_power_sums(v) for v in values(steps)]))
        return np.stack(sums)

    return list(_run_batch(n, replicates, 1, chunk_sums))


def batch_epsilon_moments(
    dists: Sequence[StepDistribution],
    alpha: float,
    n: int,
    replicates: int,
    master_seed: int,
) -> list[np.ndarray]:
    """For each law of `dists`, in order, the (n, 8) per-step sums of the
    martingale differences over a batch: row t-1 holds the sums of eps_t^p
    (columns 0..3) and eps_t^(2p) (columns 4..7), p = 1..4.  The laws
    share the walks' draws, and a law's sums are the same in any batch of
    laws; a single law is a batch of one.

    The martingale property makes E(eps_t) zero for every t, since
    E(Q_t - Q_{t-1}) = a_t E(eps_t).
    """
    alpha = check_alpha(alpha)
    laws = [
        (dist, partial(_martingale_differences, alpha=alpha, m1=moment_set(dist).m1))
        for dist in dists
    ]
    return _step_sums(laws, alpha, n, replicates, master_seed)


def marginal_moment_sums(
    dists: Sequence[StepDistribution],
    alpha: float,
    n: int,
    replicates: int,
    master_seed: int,
) -> list[np.ndarray]:
    """For each law of `dists`, in order, the (n, 8) per-step sums of X_t^p
    (columns 0..3) and X_t^(2p) (columns 4..7), p = 1..4, across a batch.
    The laws share the walks' draws, and a law's sums are the same in any
    batch of laws; a single law is a batch of one.

    The marginal law of every X_t equals the step law, so the per-step
    empirical moments must match the raw moments at Monte Carlo accuracy.
    """
    laws = [(dist, lambda steps: steps) for dist in dists]
    return _step_sums(laws, check_alpha(alpha), n, replicates, master_seed)


def conditional_continuation_test(
    prefix: WalkState,
    dist: StepDistribution,
    alpha: float,
    n_continuations: int,
    master_seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Freeze a prefix, sample one-step continuations, and return the six
    conditional moments' predictions, their observed means and the means'
    standard errors, three arrays in `ConditionalStepMoments` field order.

    Each continuation draws one word, at counter 0 of its own key, where
    step n+1 of a kernel walk reads counter n.  It repeats when the word is
    below `words_below(alpha)` and then copies prefix step
    min(floor((u/alpha) n), n-1), 0-based, for the word's uniform u:
    `_fill_walks`'s index rule for step n+1, computed here rather than by
    the kernel.  Otherwise it samples at `_fresh_uniforms(u, alpha)`.
    """
    alpha = check_alpha(alpha)
    n_continuations = _check_count(n_continuations, "n_continuations")
    ms = moment_set(dist)
    n = prefix.n
    predicted = conditional_step_moments(
        (prefix.s_tilde, prefix.t_tilde, prefix.u_tilde), n, ms, alpha
    )
    keys = replicate_keys(master_seed, 0, n_continuations)
    words = mixed_words(keys, 0)
    repeat = words < np.uint64(words_below(alpha))
    u = unit_floats(words)
    idx = np.minimum(u * _repeat_reach(n, alpha), n - 1.0).astype(np.int64)
    fresh = inverse_cdf(dist, _fresh_uniforms(u, alpha))
    x = np.where(repeat, np.asarray(prefix.steps)[idx], fresh)

    dx = x - ms.m1
    dt = x * x - ms.m2
    observables = np.stack((dx, dx * dx, dx ** 3, dt, dt * dx, x ** 3 - ms.m3))
    mean, stderr = layout_moments(_power_sums(observables), n_continuations)
    return np.array(astuple(predicted)), mean[:, 0], stderr[:, 0]
