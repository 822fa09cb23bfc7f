"""One columnar log for per-tick records, and the one CSV encoder.

A TickLog is a header plus a flat array("d"); each tick appends one row
with a single array.fromlist, 8 bytes a cell. Its leading int columns (tick
index, time in ms) are exact in float64 up to 2**53 and read back as ints.
"""

from __future__ import annotations

import csv
import io
from array import array
from typing import Iterable, Iterator, Sequence

import numpy as np


class TickLog:
    """Rows of one fixed width, appended once per tick."""

    def __init__(self, header: Sequence[str], int_columns: int = 0):
        self.header = tuple(header)
        if len(set(self.header)) != len(self.header):
            raise ValueError(f"duplicate column names in {self.header}")
        self.int_columns = int_columns
        self._data = array("d")

    def __len__(self) -> int:
        return len(self._data) // len(self.header)

    def append(self, row: list[float]) -> None:
        """A row of the wrong width or with a non-number raises and
        leaves the log as it was: fromlist sizes the buffer once and
        undoes that on a bad cell, where extend goes cell by cell."""
        if len(row) != len(self.header):
            raise ValueError(f"row has {len(row)} cells for {len(self.header)} columns")
        self._data.fromlist(row)

    def columns(self) -> dict[str, np.ndarray]:
        """Each column by name, over a copy of the log, so the writer can
        keep appending; the int columns come back as int64."""
        table = np.frombuffer(self._data[:], np.float64).reshape(-1, len(self.header))
        return {
            name: table[:, j].astype(np.int64) if j < self.int_columns else table[:, j]
            for j, name in enumerate(self.header)
        }

    def rows(self) -> Iterator[tuple]:
        """Rows of Python ints and floats, the cells csv_bytes writes."""
        return zip(*(column.tolist() for column in self.columns().values()))


def csv_bytes(header: Sequence[str], rows: Iterable[Sequence]) -> bytes:
    """CSV with \\r\\n line ends. The csv module writes str(cell), which
    for a Python float is its repr, the shortest text that reads back to
    the same value; a numpy scalar's str follows numpy's own rules."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()
