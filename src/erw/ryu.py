"""CSV text of float64 blocks with `repr`'s bytes, from one numpy kernel.

A double's `repr` is the shortest decimal that reads back to the same
double, the closest such when there are several (ties to even digits).
It is written in fixed notation when its decimal point position decpt
(value = 0.d1d2... x 10^decpt) has -4 < decpt <= 16, as `0.0001` or
`1234.5`, and in scientific notation otherwise, as `1e-05` or `1.5e+300`.
Ryu (Adams, "Ryu: fast float-to-string conversion", PLDI 2018) finds those
digits with integer arithmetic alone: 4m, for the significand m, times a
125-bit power of 5 chosen by the binary exponent and shifted gives the
value scaled to about 17 digits and both ends of its rounding interval,
and digits are removed while the ends still differ above them.  Here every
step runs on uint64 arrays, a chunk of cells at a time: the 64 x 128-bit
product in 32-bit halves, the tables indexed by biased exponent, and Ryu's
exact cases (a value that is a multiple of the power of 10 it is scaled
by) under masks.  The text is assembled in fixed-width slots, every part a
cell might need at a fixed place, and one boolean mask per cell, looked up
by its format code, keeps the bytes it uses.

`format_csv_rows` writes every float this way: `inf`, `-inf`, `nan` and
signed zeros are cells of the kernel too, and `repr` is only the tests'
oracle.
"""

from __future__ import annotations

import functools

import numpy as np

#: Cells per chunk: the kernel's arrays stay in cache, and its buffers have
#: a fixed size whatever the block.
_CHUNK_CELLS = 8192

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_POW10 = np.array([10**t for t in range(20)], dtype=np.uint64)
_POW5 = np.array([5**t for t in range(22)], dtype=np.uint64)
#: Significant digits of a double's shortest decimal, at most
_DIGITS = 17
#: Ryu's multipliers: 2^(k - 1) / 5^q rounded up for q < 342 (the values
#: from 2^52 up) and 5^i for i < 326 (the values below), each to 125 bits
_INVERSES, _POWERS, _TABLE_BITS = 342, 326, 125

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
#: Bytes of text a cell can take: 24 characters (-1.2345678901234567e-308)
#: and a separator
_CELL_TEXT = 25
#: Bytes a chunk holds per slot while it is formatted, at most: its slot
#: and mask (56 each) and the kernel's arrays (about 120 per cell)
_SLOT_BYTES = 190
_ONE_BITS = np.float64(1.0).view(np.uint64)
_INF_BITS = np.float64(np.inf).view(np.uint64)


def _pow5bits(e):
    """Bits of 5^e (1 at e = 0), as Ryu scales its multipliers."""
    return ((e * 1217359) >> 19) + 1


@functools.cache
def _tables() -> dict:
    """The kernel's read-only tables, built on first use (a few
    milliseconds).  By biased exponent: Ryu's decimal exponent e10, its
    shift less 64, the multiplier c in 32-bit pieces and in two limbs, 2c
    in two limbs, the mask of the bits of 4m that must be clear for the
    scaled value to be exact (all ones where it cannot be), the q of a
    multiple-of-5^q check (-2 for q <= 1 below 2^52, -1 for none) and the
    digits of 2^(biased - 1023).  Then the format codes, their slot masks,
    the exponent texts and the 4-digit groups as uint32."""
    biased = np.arange(2048)
    e2 = np.maximum(biased, 1) - 1077  # of the value 4m 2^e2
    up = e2 >= 0
    # log10(2^e2) - 1 or log10(5^-e2) - 1, at least 0
    q = np.maximum(np.where(up, (e2 * 78913) >> 18, (-e2 * 732923) >> 20) - 1, 0)
    i = np.where(up, 0, -e2 - q)
    shift = np.where(up, q + _TABLE_BITS + _pow5bits(q) - 1 - e2, q - _pow5bits(i) + _TABLE_BITS)
    # the multipliers from Python ints, as little-endian 32-bit pieces
    multipliers = [(1 << (_TABLE_BITS + _pow5bits(j) - 1)) // 5**j + 1 for j in range(_INVERSES)]
    multipliers += [5**j << _TABLE_BITS >> _pow5bits(j) for j in range(_POWERS)]
    pieces = [np.frombuffer(b"".join(v.to_bytes(16, "little") for v in values), dtype="<u4")
              .reshape(-1, 4)[np.where(up, q, _INVERSES + i)].T.astype(np.uint64, order="C")
              for values in (multipliers, [2 * v for v in multipliers])]
    bit_mask = (_U64(1) << np.minimum(q, 63).astype(np.uint64)) - _U64(1)
    tables = {
        "e10": np.where(up, q, q + e2),
        "shift": shift.astype(np.uint64) - _U64(64),
        "pieces": list(pieces[0]),
        "c": [pieces[0][j] | pieces[0][j + 1] << _U64(32) for j in (0, 2)],
        "twice_c": [pieces[1][j] | pieces[1][j + 1] << _U64(32) for j in (0, 2)],
        "low": np.where(up | (q >= 63), _U64(2**64 - 1), bit_mask),
        "pow5_check": np.where(up, np.where(q <= 21, q, -1), np.where(q <= 1, -2, -1)),
        "digit_estimate": np.minimum(19, ((np.maximum(biased - 1023, 0) * 1233) >> 12) + 1),
        "codes": _format_codes(),
        "masks": _slot_masks(),
        "exponents": _exponent_texts(),
        # the four digits of 0 .. 9999 as text, one uint32 each
        "groups": (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0"))
        .astype(np.uint8).view(np.uint32)[:, 0],
    }
    for value in tables.values():
        for array in value if isinstance(value, list) else [value]:
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


def _umul128(x0, x1, y0, y1):
    """(low, high) 64-bit limbs of x y, for x and y given as 32-bit halves,
    x below 2^55."""
    p00 = x0 * y0
    p10 = x1 * y0
    mid = p00 >> _U64(32)
    mid += p10 & _M32
    mid += x0 * y1  # at most 2^64 - 1 in all
    low = mid << _U64(32)
    low |= p00 & _M32
    high = x1 * y1
    high += p10 >> _U64(32)
    high += mid >> _U64(32)
    return low, high


def shortest_digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, exponent) of positive finite doubles given as uint64 bits,
    with value = digits 10^exponent: Ryu's shortest, closest decimal, as
    `repr` writes it.  Zero is not positive here.  Each step runs in place
    where it can, so about a dozen cell-sized arrays are held at once."""
    t = _tables()
    biased = (bits >> _U64(52)).astype(np.intp)
    exponent = t["e10"].take(biased)
    mv = bits & _U64((1 << 52) - 1)
    # the rounding interval is (mv - 2, mv + 2) in units of 2^e2, its lower
    # end mv - 1 at a power of 2, whose double below is closer
    mm_shift = (mv != 0) | (biased <= 1)
    mv |= (biased != 0).astype(np.uint64) << _U64(52)
    even = (mv & _U64(1)) == 0  # the interval's ends are doubles' halfway points
    mv <<= _U64(2)
    # mv c in three limbs: low0, p1, p2
    x0, x1 = mv & _M32, mv >> _U64(32)
    low0, p1 = _umul128(x0, x1, *(p.take(biased) for p in t["pieces"][:2]))
    low1, p2 = _umul128(x0, x1, *(p.take(biased) for p in t["pieces"][2:]))
    del x0, x1
    p1 += low1
    p2 += p1 < low1
    del low1
    shift = t["shift"].take(biased)
    rest = _U64(64) - shift

    def shifted(l1, l2):
        # (l2:l1) >> (64 + shift), in l1; l2 is spent
        l1 >>= shift
        l2 <<= rest
        l1 |= l2
        return l1

    vr = shifted(p1.copy(), p2.copy())
    # (mv + 2) c and (mv - 1 - mm_shift) c from the product, with carries
    d0, d1 = (limb.take(biased) for limb in t["twice_c"])
    carry0 = d0 > ~low0
    s1 = p1 + d1
    carry = s1 < p1
    s1 += carry0
    carry |= (s1 == 0) & carry0
    vp = shifted(s1, p2 + carry)
    if not mm_shift.all():
        d0, d1 = (np.where(mm_shift, d, limb.take(biased)) for d, limb in zip((d0, d1), t["c"]))
    borrow0 = low0 < d0
    s1 = p1 - d1
    borrow = (p1 < d1) | ((s1 == 0) & borrow0)
    s1 -= borrow0
    p2 -= borrow
    vm = shifted(s1, p2)
    del low0, p1, p2, d0, d1, s1, shift, rest, carry0, carry, borrow0, borrow

    # whether the digits removed from vr (vm) are exactly zero; Ryu's
    # interval of a value that is a multiple of 10^e10 handled apart
    vr_zeros = (mv & t["low"].take(biased)) == 0
    vm_zeros = np.zeros_like(vr_zeros)
    check = t["pow5_check"].take(biased)
    small = np.flatnonzero(check == -2)
    if small.size:
        vm_zeros[small] = even[small] & mm_shift[small]
        vp[small] -= ~even[small]
    at = np.flatnonzero(check >= 0)
    if at.size:
        p5 = _POW5.take(check[at])
        mvs, ev = mv[at], even[at]
        by5 = mvs % _U64(5) == 0
        vr_zeros[at] = by5 & (mvs % p5 == 0)
        vm_zeros[at] = ~by5 & ev & ((mvs - _U64(1) - mm_shift[at]) % p5 == 0)
        vp[at] -= ~by5 & ~ev & ((mvs + _U64(2)) % p5 == 0)
    del biased, mv, mm_shift, check

    # digits removed while vp and vm differ above them: every t with 10^t
    # at most vp - vm, then while a multiple of 10^t lies in (vm, vp]
    vp -= vm
    removed = _digit_count(vp) - 1
    vp += vm
    power = _POW10.take(removed + 1)
    at = np.flatnonzero(vp // power > vm // power)
    qp, qm = vp[at] // power[at], vm[at] // power[at]
    del vp, power
    while at.size:
        removed[at] += 1
        qp //= _U64(10)
        qm //= _U64(10)
        more = qp > qm
        at, qp, qm = at[more], qp[more], qm[more]
    at = np.flatnonzero(vm_zeros)
    if at.size:
        # where vm's removed digits are zero, its trailing zeros go too
        vm_zeros[at] = vm[at] % _POW10.take(removed[at]) == 0
        at = at[vm_zeros[at]]
        rest_m = vm[at] // _POW10.take(removed[at])
        while at.size:
            more = (rest_m % _U64(10) == 0) & (rest_m != 0)
            at, rest_m = at[more], rest_m[more] // _U64(10)
            removed[at] += 1
    some = removed > 0
    last = vr // _POW10.take(removed - some)  # vr less all but its last removed digit
    digits = last // _U64(10)
    last -= digits * _U64(10)
    none = np.flatnonzero(~some)
    if none.size:
        digits[none], last[none] = vr[none], 0
    at = np.flatnonzero(vr_zeros)
    if at.size:
        # an exact ...50..0 rounds to even
        exact = vr[at] % _POW10.take(np.maximum(removed[at] - 1, 0)) == 0
        tie = exact & (last[at] == 5) & (digits[at] % _U64(2) == 0)
        last[at[tie]] = 4
    del vr
    # round up past vm's prefix, outside the interval, or from a last digit of 5 or more
    up = vm >= digits * _POW10.take(removed)
    up &= ~(even & vm_zeros)
    up |= last >= 5
    digits += up
    exponent += removed
    return digits, exponent


def _digit_count(values: np.ndarray) -> np.ndarray:
    """Decimal digits of uint64 values (1 for 0): an estimate from their
    binary exponent as doubles, one short or exact, and one comparison."""
    exponent = (values | _U64(1)).astype(np.float64).view(np.uint64) >> _U64(52)
    count = _tables()["digit_estimate"].take(exponent.view(np.int64))
    count += values >= _POW10.take(count)
    return count


def format_csv_bytes(rows: int, cols: int) -> int:
    """Bytes `format_csv_rows` holds at once for a block of `rows` x `cols`,
    at most, computed without allocating anything: the text gathered so far
    (with a bytearray's eighth to spare), then either one chunk's slots and
    arrays or, at the end, the text once more as a str.  tracemalloc reads
    86% of it for 4096 x 19 cells of 17 significant digits."""
    slots = (cols + 1) * min(rows, _chunk_rows(cols))
    text = _CELL_TEXT * (cols + 1) * rows
    return text + text // 8 + 64 + max(text, _SLOT_BYTES * slots)


def _chunk_rows(cols: int) -> int:
    return max(1, _CHUNK_CELLS // max(cols, 1))


def format_csv_rows(first: int, block: np.ndarray) -> str:
    """CSV lines `n,v1,v2,...` of a float64 block, numbered from n = `first`.

    Every float is written with the bytes of its repr, the shortest decimal
    that reads back to the same double; these are the bytes `csv.writer`
    writes for the same rows, since it writes a float as its repr and never
    quotes a number.  Row numbers must stay below 10^17.
    """
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, cols = block.shape
    if not (0 <= first and first + rows <= 10**_DIGITS):
        raise ValueError(f"row numbers must be in 0 .. 10^{_DIGITS} - 1")
    step = _chunk_rows(cols)
    slots = np.zeros((min(step, rows), cols + 1, _SLOT), dtype=np.uint8)
    slots[..., _SIGN], slots[..., _LEAD], slots[..., _POINT] = ord("-"), ord("0"), ord(".")
    slots[..., _ZEROS : _ZEROS + 3] = ord("0")
    separators = np.zeros((cols + 1, 8), dtype=np.uint8)
    separators[:, _SEP - _EXP] = ord(",")
    separators[-1, _SEP - _EXP] = ord("\n")
    separators = separators.view(np.uint64)[:, 0]
    text = bytearray()
    for start in range(0, rows, step):
        chunk = block[start : start + step]
        text += _format_chunk(first + start, chunk, slots[: len(chunk)], separators).data
    del slots
    return text.decode("ascii")


def _format_chunk(first, chunk, slots, separators) -> np.ndarray:
    """The text of one chunk of rows, numbered from `first`, as uint8:
    written into `slots` (rows, cols + 1, _SLOT) and gathered by mask."""
    t = _tables()
    n, cols = chunk.shape
    bits = chunk.view(np.uint64).reshape(-1)
    sign = (bits >> _U64(63)).astype(np.intp)
    bits = bits & _U64(2**63 - 1)
    # zeros, infinities and nans go through the digits as 1.0
    special = np.flatnonzero(bits - _U64(1) >= _INF_BITS - _U64(1))
    kinds = bits[special]
    bits[special] = _ONE_BITS
    digits, exponent = shortest_digits(bits)
    del bits
    count = _digit_count(digits)
    exp_row = exponent + count + _EXP_OFFSET  # the exponent text's row
    code = t["codes"].take(exp_row * (_DIGITS + 1) + count)
    if special.size:
        digits[special[kinds == 0]] = 0
        nonfinite = special[kinds != 0]
        nan = kinds[kinds != 0] > _INF_BITS
        code[nonfinite] = _NONFINITE
        exp_row[nonfinite] = _INF + nan
        sign[nonfinite[nan]] = 0
    code += sign * _CODES
    numbers = np.arange(first, first + n, dtype=np.uint64)
    number_count = _digit_count(numbers)
    # every slot's 17-digit significand, then its codes and exponent text
    padded = np.empty((n, cols + 1), dtype=np.uint64)
    padded[:, 0] = numbers * _POW10.take(_DIGITS - number_count)
    padded[:, 1:] = (digits * _POW10.take(_DIGITS - count)).reshape(n, cols)
    _write_digits(slots, padded, t["groups"])
    del padded, digits
    exp_rows = np.zeros((n, cols + 1), dtype=np.intp)
    exp_rows[:, 1:] = exp_row.reshape(n, cols)
    np.bitwise_or(
        t["exponents"].take(exp_rows), separators, out=slots.view(np.uint64)[:, :, _EXP // 8]
    )
    codes = np.empty((n, cols + 1), dtype=np.intp)
    codes[:, 0] = _ROW_NUMBER + number_count - 1
    codes[:, 1:] = code.reshape(n, cols)
    return slots[t["masks"].take(codes, axis=0)]


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
