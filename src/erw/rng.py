"""Counter-based pseudo-random numbers for reproducible parallel simulation.

Every uniform consumed by the simulator is a pure function of a 64-bit
stream key and a draw counter, and stream keys are in turn a pure function
of (master seed, replicate index).  Nothing is stateful, so results cannot
depend on chunking, vectorisation width, or thread count.

The mixer is the splitmix64 finalizer (the SplittableRandom core), which is
bijective on 64-bit words and passes BigCrush.  The simulator mixes one word
per walk-step, at counter t-1 for step t: the word decides the branch
(`words_below`) and its uniform, split at alpha, gives the repeat index or
the fresh sample.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# Increment of the splitmix64 sequence (odd, so it generates Z/2^64).
GOLDEN = 0x9E3779B97F4A7C15

_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB

_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_UC1 = np.uint64(_C1)
_UC2 = np.uint64(_C2)
_UGOLDEN = np.uint64(GOLDEN)

# (v >> 11) is a 53-bit integer; +0.5 keeps the result above 0.  Above 2^52
# the +0.5 rounds to even, so the top integer 2^53 - 1 gives exactly 1.0
# (probability 2^-53): samplers and index maps must accept u = 1.  Some
# uniforms are themselves round numbers (0.75 is k = 3 * 2^51 - 1), so a
# split of u at alpha meets u == alpha.
_TO_UNIT = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finalizer of a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _C1) & MASK64
    z = ((z ^ (z >> 27)) * _C2) & MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # mixes in place: every caller passes a fresh temporary.  uint64 array
    # arithmetic wraps mod 2^64, which is exactly what we want
    z ^= z >> _U30
    z *= _UC1
    z ^= z >> _U27
    z *= _UC2
    z ^= z >> _U31
    return z


def replicate_key(master_seed: int, index: int) -> int:
    """Stream key for one replicate, a stateless mix of seed and index.

    Test oracle: the scalar reference that the tests compare
    `replicate_keys` against; the program itself makes keys only through
    `replicate_keys`.
    """
    return mix64((master_seed & MASK64) ^ mix64((index + 1) * GOLDEN))


def replicate_keys(master_seed: int, start: int, count: int) -> np.ndarray:
    """Stream keys for replicates start .. start+count-1 as a uint64 array."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix64_array(np.uint64(master_seed & MASK64) ^ _mix64_array(idx * _UGOLDEN))


def uniform_draw(key: int, counter: int) -> float:
    """Uniform in (0, 1] for draw number `counter` of stream `key`.

    Test oracle: the scalar reference that the tests compare `uniform_draws`
    against; the program itself draws only through `uniform_draws`.
    """
    v = mix64(key + (counter + 1) * GOLDEN)
    return ((v >> 11) + 0.5) * _TO_UNIT


def mixed_words(keys: np.ndarray, counter) -> np.ndarray:
    """The mixed 64-bit words behind `uniform_draws(keys, counter)`, of the
    same shape, as a new array.

    The offsets (c+1)*GOLDEN wrap mod 2^64 in uint64 arithmetic, exactly as
    `uniform_draw`'s mask does; they are computed on a 1-D array, since
    numpy warns when a 0-d uint64 product wraps.
    """
    offsets = (np.asarray(counter, dtype=np.uint64).reshape(-1) + np.uint64(1)) * _UGOLDEN
    out = np.empty(np.shape(counter) + keys.shape, dtype=np.uint64)
    np.add(offsets[:, None], keys, out=out.reshape(offsets.size, keys.size))
    return _mix64_array(out)


def unit_floats(words: np.ndarray) -> np.ndarray:
    """The uniforms in (0, 1] of mixed words, as a new float64 array; the
    words are spent (shifted in place).  The 53-bit integers convert
    through a signed view, exact and faster than from uint64."""
    words >>= _U11
    u = words.view(np.int64).astype(np.float64)
    u += 0.5
    u *= _TO_UNIT
    return u


def words_below(x: float) -> int:
    """The word bound of `u < x`: a uniform is below x exactly when its
    mixed word is below the returned integer, K << 11, where K counts the
    53-bit integers k with (k + 0.5) 2^-53 < x.  That rule, `uniform_draw`'s
    own float arithmetic, is non-decreasing in k, so K is found by
    bisection.  K < 2^53 for x <= 1, since the top k gives exactly 1.0."""
    lo, hi = 0, 2**53
    while lo < hi:
        mid = (lo + hi) // 2
        if (mid + 0.5) * _TO_UNIT < x:
            lo = mid + 1
        else:
            hi = mid
    return lo << 11


def uniform_draws(keys: np.ndarray, counter) -> np.ndarray:
    """Vectorised `uniform_draw` across many streams.

    The result has shape np.shape(counter) + keys.shape: one draw per key
    for a scalar `counter`, and for a 1-D array of counters row i holds the
    draws at counter[i].
    """
    return unit_floats(mixed_words(keys, counter))


def parse_seed(text: str) -> int:
    """Parse a master seed given as decimal or 0x-prefixed hex."""
    value = int(text.strip(), 0)
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {text!r}")
    return value & MASK64
