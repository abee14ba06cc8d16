"""The CSV kernel against `repr`, its oracle: every cell must have the bytes
`repr` gives the same double, and every row those `csv.writer` writes.  The
rows go through the writer's chunk formatter, numbered from any n
(`table_csv.kernel_rows`), or through the writer itself."""

import io
import math

import numpy as np
import pytest

from erw import csvtext
from table_csv import kernel_rows

#: 9999 -> 10000 falls inside the first chunk at every width tried
_FIRST = 9990


def _repr_rows(first, block):
    """Test oracle: the rows as `repr` and `str` write them, numbered from `first`."""
    return "".join(
        f"{n},{','.join(map(repr, row))}\n" for n, row in enumerate(block.tolist(), first)
    )


def _families() -> np.ndarray:
    """Doubles where the digits or the notation change, their neighbours
    and their negatives."""
    bits = np.array(
        [0, 1, 2, 3, 0x000F_FFFF_FFFF_FFFF, 0x0010_0000_0000_0000, 0x7FEF_FFFF_FFFF_FFFF,
         0x7FF0_0000_0000_0000, 0x7FF8_0000_0000_0000, 0x7FF0_0000_0000_0001,
         0x7FFF_FFFF_FFFF_FFFF],
        dtype=np.uint64,
    )
    values = [
        *bits.view(np.float64).tolist(),
        *(2.0**k for k in range(-1074, 1024)),
        *(float(f"1e{k}") for k in range(-323, 309)),
        *(float(f"{d}e{k}") for d in (5, 9.5, 1.5) for k in (-5, -4, 15, 16, 17, 22, 23, 99, 100, 300)),
        *(float(i) for i in range(0, 2050)),
        *(i / 1024 for i in range(1, 4096)),  # dyadic halves: the ties of shortest digits
        *(2.0**53 + i for i in range(-8, 9)),
        0.1, 0.2, 0.3, 1 / 3, 2 / 3, math.pi, math.e, 1e23, 9007199254740993.0,
    ]
    values = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        near = np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])
    return np.concatenate([near, -near])


def _blocks(values, cols):
    rows = values.size // cols
    return values[: rows * cols].reshape(rows, cols)


@pytest.mark.parametrize("cols", [1, 7, 19])
def test_families_match_repr(cols):
    block = _blocks(_families(), cols)
    assert kernel_rows(_FIRST, block) == _repr_rows(_FIRST, block)


@pytest.mark.slow
def test_random_bit_patterns_match_repr():
    # about 1e6 doubles drawn as 64 random bits: every exponent and sign,
    # subnormals, infinities and nans at their rate
    bits = np.random.default_rng(20180618).integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False)
    values = np.concatenate([bits.view(np.float64), _families()])
    for cols in (1, 7, 19):
        block = _blocks(values, cols)
        assert kernel_rows(_FIRST, block) == _repr_rows(_FIRST, block), cols


def test_non_contiguous_and_empty_blocks():
    values = _families()[:700].reshape(100, 7)
    assert kernel_rows(1, values[::2, ::-1]) == _repr_rows(1, values[::2, ::-1])
    assert kernel_rows(1, values[:0]) == ""
    # the writer, from a source of strided blocks, and of none
    buf = io.StringIO()
    csvtext.write_csv(buf, ("n", *"abcdefg"), lambda start, stop: values[::-2][start:stop], 50)
    assert buf.getvalue() == "n,a,b,c,d,e,f,g\n" + _repr_rows(1, values[::-2])
    buf = io.StringIO()
    csvtext.write_csv(buf, ("n", "a", "b"), lambda start, stop: values[:0], 0)
    assert buf.getvalue() == "n,a,b\n"


def test_shortest_digits_keep_no_trailing_zero():
    values = np.abs(_families())
    values = values[np.isfinite(values) & (values > 0.0)]
    digits, exponent = csvtext.shortest_digits(values.view(np.uint64))
    assert (digits % 10 != 0).all()
    assert [float(f"{d}e{e}") for d, e in zip(digits.tolist(), exponent.tolist())] == values.tolist()


def test_tables_keep_the_products_in_range():
    # rop takes g as two 63-bit limbs of a 126-bit multiplier, and the
    # interval's scaled upper end (4c + 2) 2^h, h in [2, 5], stays below
    # 2^61; rows of 2^52 whose double below is half as close (from 2048)
    # differ from the regular ones only from biased exponent 2
    t = csvtext._tables()
    g = [(g1 << 63) + g0 for g1, g0 in zip(t["g1"].tolist(), t["g0"].tolist())]
    assert len(g) == 4096 and all(2**125 < v <= 2**126 for v in g)
    assert (t["g1"] < 2**63).all() and (t["g0"] < 2**63).all()
    assert ((2 <= t["h"]) & (t["h"] <= 5)).all()
    for name in ("k", "h", "g1", "g0"):
        assert (t[name][2048:2050] == t[name][:2]).all(), name
    assert (t["k"][2050:] != t["k"][2:2048]).any()


def test_row_numbers_below_the_limit():
    block = np.zeros((2, 1))
    last = 10**17 - 2
    assert kernel_rows(last, block) == f"{last},0.0\n{last + 1},0.0\n"
    with pytest.raises(ValueError, match="row numbers"):
        kernel_rows(last + 1, block)
    with pytest.raises(ValueError, match="row numbers"):
        kernel_rows(-1, block)
