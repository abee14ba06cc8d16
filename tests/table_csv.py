"""Test helpers: read an `erw exact` CSV back into a table, write a table to
a string, and format rows numbered from any n with the CSV kernel.  The
library only writes tables; these read them back for the round-trip tests.
They hold the whole table as Python lists, which is fine at test sizes."""

import csv
import io
import os

import numpy as np

from erw import csvtext
from erw.moments import CSV_COLUMNS, ExactMomentTable


def read_table_csv(path_or_file) -> ExactMomentTable:
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "r", newline="") as handle:
            return read_table_csv(handle)
    reader = csv.reader(path_or_file)
    header = next(reader)
    if tuple(header[: len(CSV_COLUMNS)]) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = [[float(cell) for cell in row[1:8]] for row in reader if row]
    return ExactMomentTable(np.asarray(rows, dtype=np.float64))


def table_csv_string(table: ExactMomentTable) -> str:
    buf = io.StringIO()
    csvtext.write_csv(buf, CSV_COLUMNS, lambda start, stop: table.values[start:stop], len(table))
    return buf.getvalue()


def kernel_rows(first: int, block: np.ndarray) -> str:
    """The CSV lines of `block`, numbered from n = `first`, formatted chunk
    by chunk in one set of slots, as `csvtext.write_csv` formats a table's
    rows from n = 1."""
    rows, cols = block.shape
    buffers = csvtext._slots(rows, cols)
    return "".join(
        csvtext._format_chunk(first + start, block[start:stop], *buffers)
        for start, stop in csvtext.chunk_spans(rows, cols)
    )
