"""Test helpers: read an `erw exact` CSV back into a table, and write a table
to a string.  The library only writes tables; these read them back for the
round-trip tests.  They hold the whole table as Python lists, which is fine
at test sizes."""

import csv
import io
import os

import numpy as np

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
    table.write_csv(buf)
    return buf.getvalue()
