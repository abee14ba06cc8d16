"""CSV text of float64 blocks with `repr`'s bytes, from one numpy kernel.

A double's `repr` is the shortest decimal that reads back to the same
double, the closest such when there are several (ties to even digits).
It is written in fixed notation when its decimal point position decpt
(value = 0.d1d2... x 10^decpt) has -4 < decpt <= 16, as `0.0001` or
`1234.5`, and in scientific notation otherwise, as `1e-05` or `1.5e+300`.
Schubfach (Giulietti, "The Schubfach way to render doubles", 2020) finds
those digits with integer arithmetic alone: a power of 10 to 126 bits,
chosen by the binary exponent, scales the value and both ends of its
rounding interval to units of 10^k, in which the interval is 1 to 10 units
wide, each product rounded to odd below two fractional bits.  The digits
are then a multiple of 10 when just one lies in the interval, else the one
of floor and floor + 1 in it, or the closer of the two when both are.  Here
every step runs on uint64 arrays, a chunk of cells at a time: the 64 x
126-bit products in 32-bit halves and the tables indexed by biased
exponent.  The text is assembled in fixed-width slots, every part a
cell might need at a fixed place, and one boolean mask per cell, looked up
by its format code, keeps the bytes it uses.

`write_csv` writes every float of a table this way, a chunk of rows at a
time: `inf`, `-inf`, `nan` and signed zeros are cells of the kernel too,
and `repr` is only the tests' oracle.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator, Sequence

import numpy as np

#: Cells per chunk: the kernel's arrays stay in cache, and its buffers have
#: a fixed size whatever the table.
_CHUNK_CELLS = 8192

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_POW10 = np.array([10**t for t in range(20)], dtype=np.uint64)
#: Significant digits of a double's shortest decimal, at most
_DIGITS = 17

# A cell's slot of _SLOT bytes: sign, a leading 0, the significand's 17
# digits (A), a point, three zeros, the 17 digits again (B), the exponent
# text and the separator.  The digits sit at bytes 3 and 4..19 (27 and
# 28..43), so that their four 4-digit groups are aligned uint32 writes; the
# exponent's 8 bytes are one aligned uint64 write, the separator its byte 5.
_SLOT = 56
_SIGN, _LEAD, _A, _POINT, _ZEROS, _B, _EXP, _SEP = 0, 1, 3, 20, 21, 27, 48, 53
#: Format codes: fixed notation at decpt -3..16 and 1..17 digits, then
#: scientific at 1..17 digits with a 2- or 3-digit exponent, then inf and
#: nan, then a row number of 1..17 digits; the same again for a negative
#: cell
_SCI = 20 * _DIGITS
_NONFINITE = _SCI + 2 * _DIGITS
_ROW_NUMBER = _NONFINITE + 1
_CODES = _ROW_NUMBER + _DIGITS
#: Rows of the exponent text: e-324 .. e+308, then inf, then nan
_INF = 324 + 309
#: A cell's decimal point position plus this is its exponent text's row
_EXP_OFFSET = 323
#: Bytes a chunk holds per slot while it is formatted, at most: its slot
#: (56), its float cells and, while the digits run, the kernel's arrays (114
#: per cell); the gather after them holds the slot, the mask (56) and the
#: text.  tracemalloc reads 180.8 at 19 columns of finite cells, 189.3 where
#: every cell is inf or nan, and 143 once the digits are found
_SLOT_BYTES = 190
_ONE_BITS = np.float64(1.0).view(np.uint64)
_INF_BITS = np.float64(np.inf).view(np.uint64)


@functools.cache
def _tables() -> dict:
    """The kernel's read-only tables, built on first use (a few
    milliseconds).  By row, the biased exponent, plus 2048 where the
    significand is 2^52 from biased exponent 2 on (the double below is half
    as close): Schubfach's decimal exponent k, the shift h and the
    multiplier g = floor(10^-k 2^-r) + 1 = g1 2^63 + g0, r = floor(-k
    log2 10) - 125.  By biased exponent, the digits of 2^(biased - 1023).
    Then the format codes, their slot masks, the exponent texts and the
    4-digit groups as uint32."""
    biased = np.arange(2048)
    q = np.maximum(biased, 1) - 1075  # of the value c 2^q
    # floor(q log10 2), and floor(q log10 2 + log10 3/4) where the interval's
    # lower half is half as wide, as Giulietti's integer forms
    log10 = q * 661_971_961_083
    k = np.concatenate([log10, np.where(biased >= 2, log10 - 274_743_187_321, log10)]) >> 41
    powers, at = np.unique(k, return_inverse=True)
    log2 = -powers * 913_124_641_741 >> 38  # floor(-k log2 10)
    # g = floor(10^-k 2^(125 - floor(-k log2 10))) + 1 from Python ints, once per k
    g = [(10 ** max(-e, 0) << max(125 - b, 0)) // (10 ** max(e, 0) << max(b - 125, 0)) + 1
         for e, b in zip(powers.tolist(), log2.tolist())]
    limbs = np.array([[v >> 63, v & (2**63 - 1)] for v in g], dtype=np.uint64)[at]
    tables = {
        "k": k,
        "h": (np.tile(q, 2) + log2[at] + 2).astype(np.uint64),
        "g1": limbs[:, 0].copy(),
        "g0": limbs[:, 1].copy(),
        "digit_estimate": np.minimum(19, ((np.maximum(biased - 1023, 0) * 1233) >> 12) + 1),
        "codes": _format_codes(),
        "masks": _slot_masks(),
        "exponents": _exponent_texts(),
        # the four digits of 0 .. 9999 as text, one uint32 each
        "groups": (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0"))
        .astype(np.uint8).view(np.uint32)[:, 0],
    }
    for array in tables.values():
        array.flags.writeable = False
    return tables


def _exponent_texts() -> np.ndarray:
    """e-324 .. e+308, then inf and nan, zero-padded to 8 bytes, as uint64
    whose bytes in memory are the text."""
    texts = [b"e%+03d" % x for x in range(-324, 309)] + [b"inf", b"nan"]
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), dtype=np.uint64)


def _format_codes() -> np.ndarray:
    """The format code of a finite cell of `count` significant digits and
    decimal point position `point`, at (point + _EXP_OFFSET) (_DIGITS + 1)
    + count."""
    point = np.arange(_INF)[:, None] - _EXP_OFFSET
    count = np.arange(_DIGITS + 1)
    fixed = (point + 3) * _DIGITS + count - 1
    scientific = _SCI + 2 * (count - 1) + (np.abs(point - 1) >= 100)
    codes = np.where((-3 <= point) & (point <= 16), fixed, scientific)
    return np.where(count > 0, codes, 0).reshape(-1)


def _slot_masks() -> np.ndarray:
    """(2 _CODES, _SLOT) bool: the bytes of a slot that each format code
    keeps, the separator always; the second half keeps the sign."""
    code = np.arange(_CODES)
    decpt, count = code // _DIGITS - 3, code % _DIGITS + 1  # of fixed notation
    fixed = code < _SCI
    scientific = (code >= _SCI) & (code < _NONFINITE)
    number = code >= _ROW_NUMBER
    wide = (code - _SCI) % 2
    sci_count = (code - _SCI) // 2 + 1
    # fixed: 0.000ddd below decpt 1, else ddd.ddd or ddd000.0; scientific:
    # d.ddde+XX (e+XXX); a row number: its digits
    lead = fixed & (decpt <= 0)
    a = np.select([fixed, scientific, number], [np.maximum(decpt, 0), 1, code - _ROW_NUMBER + 1])
    point = fixed | (scientific & (sci_count > 1))
    zeros = np.where(lead, -decpt, 0)
    b_lo = np.select([fixed, scientific], [np.maximum(decpt, 0), 1])
    b_hi = np.select(
        [lead, fixed, scientific], [count, np.maximum(count, decpt + 1), sci_count]
    )
    exp = np.select([scientific, code == _NONFINITE], [4 + wide, 3])
    span = np.arange(_DIGITS)
    masks = np.zeros((2, _CODES, _SLOT), dtype=bool)
    masks[1, :, _SIGN] = True
    masks[:, :, _LEAD] = lead
    masks[:, :, _A : _A + _DIGITS] = span < a[:, None]
    masks[:, :, _POINT] = point
    masks[:, :, _ZEROS : _ZEROS + 3] = span[:3] < zeros[:, None]
    masks[:, :, _B : _B + _DIGITS] = (b_lo[:, None] <= span) & (span < b_hi[:, None])
    masks[:, :, _EXP : _EXP + 5] = span[:5] < exp[:, None]
    masks[:, :, _SEP] = True
    return masks.reshape(2 * _CODES, _SLOT)


def _umul128(x0, x1, y):
    """(low, high) 64-bit limbs of x y, for x given as 32-bit halves."""
    y0, y1 = y & _M32, y >> _U64(32)
    p00 = x0 * y0
    p10 = x1 * y0
    del y0
    mid = p00 >> _U64(32)
    mid += p10 & _M32
    mid += x0 * y1  # at most 2^64 - 1 in all
    low = mid << _U64(32)
    low |= p00 & _M32
    del p00
    high = x1 * y1
    high += p10 >> _U64(32)
    high += mid >> _U64(32)
    return low, high


def _add_shifted(low, high, g, shift) -> None:
    """(high:low) += g 2^shift in place, for 0 < shift < 64."""
    part = g << shift
    low += part
    high += low < part
    np.right_shift(g, _U64(64) - shift, out=part)
    high += part


def _rop(x1, y0, y1) -> np.ndarray:
    """Schubfach's point g x / 2^127 rounded to odd, for x1 the high limb
    of g0 x and (y1:y0) = g1 x, as Java's rop: the low limb of g0 x and
    the low bit of g1 x are dropped, the 63 bits below the point kept as a
    sticky bit."""
    z = y0 >> _U64(1)
    z += x1
    point = z >> _U64(63)
    point += y1
    z &= _U64(2**63 - 1)
    point |= z != 0
    return point


def shortest_digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, exponent) of positive finite doubles given as uint64 bits,
    with value = digits 10^exponent and no trailing zero in digits:
    Schubfach's shortest, closest decimal, as `repr` writes it.  Zero is
    not positive here.  `bits` is left as it is; each step runs in place
    where it can."""
    t = _tables()
    biased = bits >> _U64(52)
    c = bits & _U64((1 << 52) - 1)
    irregular = (c == 0) & (biased >= _U64(2))
    row = biased.astype(np.intp)
    np.add(row, 2048, out=row, where=irregular)
    c |= np.minimum(biased, _U64(1)) << _U64(52)
    del biased
    odd = (c & _U64(1)).astype(bool)  # ties to even: the interval's ends are out
    exponent, h, g0, g1 = (t[name].take(row) for name in ("k", "h", "g0", "g1"))
    del row
    # the interval's lower end 4c - 2 (4c - 1 where irregular) times 2^h,
    # then times g; its middle 4c and upper end 4c + 2 by adding to that
    c <<= _U64(2)
    c -= _U64(2)
    c += irregular
    c <<= h
    x0, x1 = c & _M32, c >> _U64(32)
    del c
    a, b = _umul128(x0, x1, g0), _umul128(x0, x1, g1)
    del x0, x1
    vbl = _rop(a[1], *b)
    h += ~irregular
    _add_shifted(*a, g0, h)
    _add_shifted(*b, g1, h)
    vb = _rop(a[1], *b)
    h += irregular
    _add_shifted(*a, g0, h)
    _add_shifted(*b, g1, h)
    vbr = _rop(a[1], *b)
    del a, b, g0, g1, h, irregular
    vbl += odd
    vbr -= odd
    s = vb >> _U64(2)
    # the closer of s and s + 1, ties to even, unless just one is in the interval
    up = (vb & _U64(3)) + (s & _U64(1)) > _U64(2)
    del vb
    point = s << _U64(2)
    lower = vbl <= point
    point += _U64(4)
    upper = point <= vbr
    up = np.where(lower == upper, up, upper)
    # one digit fewer where just one multiple of 10 is in the interval
    tens = s // _U64(10)
    np.multiply(tens, _U64(40), out=point)
    lower = vbl <= point
    point += _U64(40)
    upper = point <= vbr
    fewer = lower != upper
    del vbl, vbr, point, lower
    digits = np.where(fewer, tens + upper, s + up)
    exponent += fewer
    at = np.flatnonzero(digits % _U64(10) == 0)
    while at.size:
        digits[at] //= _U64(10)
        exponent[at] += 1
        at = at[digits[at] % _U64(10) == 0]
    return digits, exponent


def _digit_count(values: np.ndarray) -> np.ndarray:
    """Decimal digits of uint64 values (1 for 0): an estimate from their
    binary exponent as doubles, one short or exact, and one comparison."""
    exponent = (values | _U64(1)).astype(np.float64).view(np.uint64) >> _U64(52)
    count = _tables()["digit_estimate"].take(exponent.view(np.int64))
    count += values >= _POW10.take(count)
    return count


def format_csv_bytes(rows: int, cols: int) -> int:
    """Bytes `write_csv` holds at once for a table of `rows` x `cols`
    float cells, at most, computed without allocating anything: one
    chunk's slots and what its formatting holds, `_SLOT_BYTES` a slot.
    tracemalloc reads 95% of it for a chunk of 19 columns of finite cells,
    whatever their length, and 90% for 7 columns."""
    return _SLOT_BYTES * (cols + 1) * min(rows, _chunk_rows(cols)) + 64


def _chunk_rows(cols: int) -> int:
    return max(1, _CHUNK_CELLS // max(cols, 1))


def chunk_spans(rows: int, cols: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each chunk of rows start + 1 .. stop in which
    `write_csv` writes `rows` rows of `cols` float cells: _CHUNK_CELLS
    cells, or one row, at most."""
    step = _chunk_rows(cols)
    return ((start, min(start + step, rows)) for start in range(0, rows, step))


def write_csv(
    handle, header: Sequence[str], cells: Callable[[int, int], np.ndarray], rows: int
) -> None:
    """Write the CSV line of `header`, then the lines `n,v1,v2,...` of rows
    n = 1 .. `rows` to an open text handle, a chunk of `chunk_spans` at a
    time: cells(start, stop) gives the float64 (stop - start, len(header)
    - 1) cells of rows start + 1 .. stop.

    Every float is written with the bytes of its repr, the shortest decimal
    that reads back to the same double; these are the bytes `csv.writer`
    writes for the same rows, since it writes a float as its repr and never
    quotes a number.  Each chunk's text is written as soon as it is made,
    so one chunk's text is all that is ever held.
    """
    cols = len(header) - 1
    buffers = _slots(rows, cols)
    handle.write(",".join(header) + "\n")
    for start, stop in chunk_spans(rows, cols):
        handle.write(_format_chunk(start + 1, cells(start, stop), *buffers))


def _slots(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The slots of one chunk of a table of `rows` x `cols` cells, their
    fixed bytes written, and the separators of a row's slots as the uint64
    that holds them with the exponent text."""
    slots = np.zeros((min(rows, _chunk_rows(cols)), cols + 1, _SLOT), dtype=np.uint8)
    slots[..., _SIGN], slots[..., _LEAD], slots[..., _POINT] = ord("-"), ord("0"), ord(".")
    slots[..., _ZEROS : _ZEROS + 3] = ord("0")
    separators = np.zeros((cols + 1, 8), dtype=np.uint8)
    separators[:, _SEP - _EXP] = ord(",")
    separators[-1, _SEP - _EXP] = ord("\n")
    return slots, separators.view(np.uint64)[:, 0]


def _format_chunk(first, chunk, slots, separators) -> str:
    """The CSV lines of one chunk of float rows, numbered from `first`
    (below 10^17): written into the first rows of `slots` (`_slots`) and
    gathered by mask."""
    chunk = np.ascontiguousarray(chunk, dtype=np.float64)
    n, cols = chunk.shape
    if not (0 <= first and first + n <= 10**_DIGITS):
        raise ValueError(f"row numbers must be in 0 .. 10^{_DIGITS} - 1")
    t = _tables()
    slots = slots[:n]
    sign = np.signbit(chunk).reshape(-1)
    bits = chunk.view(np.uint64).reshape(-1) & _U64(2**63 - 1)
    # zeros, infinities and nans go through the digits as 1.0
    special = np.flatnonzero(bits - _U64(1) >= _INF_BITS - _U64(1))
    kinds = bits[special]
    bits[special] = _ONE_BITS
    zeros, nonfinite, nan = special[kinds == 0], special[kinds != 0], kinds[kinds != 0] > _INF_BITS
    del special, kinds
    digits, exponent = shortest_digits(bits)
    del bits
    count = _digit_count(digits)
    exponent += count
    exponent += _EXP_OFFSET  # the exponent text's row
    code = t["codes"].take(exponent * (_DIGITS + 1) + count)
    digits[zeros] = 0
    code[nonfinite] = _NONFINITE
    exponent[nonfinite] = _INF + nan
    sign[nonfinite[nan]] = False
    del zeros, nonfinite, nan
    code += sign * _CODES
    del sign
    numbers = np.arange(first, first + n, dtype=np.uint64)
    number_count = _digit_count(numbers)
    # every slot's 17-digit significand, then its exponent text and codes
    padded = np.empty((n, cols + 1), dtype=np.uint64)
    padded[:, 0] = numbers * _POW10.take(_DIGITS - number_count)
    padded[:, 1:] = (digits * _POW10.take(_DIGITS - count)).reshape(n, cols)
    del numbers, digits, count
    _write_digits(slots, padded, t["groups"])
    del padded
    rows = np.zeros((n, cols + 1), dtype=np.intp)
    rows[:, 1:] = exponent.reshape(n, cols)
    del exponent
    np.bitwise_or(
        t["exponents"].take(rows), separators, out=slots.view(np.uint64)[:, :, _EXP // 8]
    )
    rows[:, 0] = _ROW_NUMBER - 1
    rows[:, 0] += number_count
    rows[:, 1:] = code.reshape(n, cols)
    del code, number_count
    mask = t["masks"].take(rows, axis=0)
    del rows
    text = slots[mask]
    del mask
    return str(text.data, "ascii")


def _write_digits(slots, padded, groups) -> None:
    """Write 17-digit significands into both digit fields of their slots:
    the first digit as a byte, the other 16 as four 4-digit groups."""
    head = padded // _U64(10**16)
    tail = padded - head * _U64(10**16)
    head += _U64(ord("0"))
    slots[..., _A] = slots[..., _B] = head
    quads = slots.view(np.uint32)
    # the two 8-digit halves of the rest, in uint32
    high = (tail // _U64(10**8)).astype(np.uint32)
    low = (tail - high * _U64(10**8)).astype(np.uint32)
    for k, half in enumerate((high, low)):
        upper = half // np.uint32(10**4)
        half -= upper * np.uint32(10**4)
        for g, group in enumerate((upper, half)):
            text = groups.take(group)
            quads[..., (_A + 1) // 4 + 2 * k + g] = quads[..., (_B + 1) // 4 + 2 * k + g] = text
