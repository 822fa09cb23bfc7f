"""One columnar log for per-tick records, and the two CSV encoders.

A TickLog is a header plus a flat array("d"); each tick appends one row
with a single array.fromlist, 8 bytes a cell. Its leading int columns (tick
index, time in ms) are exact in float64 up to 2**53 and read back as ints.
columns_csv encodes numeric columns such as a TickLog's, csv_bytes rows
that hold strings; both write the same bytes for the same numbers.
columns_csv formats each distinct float once per block of rows, through
one dictionary per block keyed by the float's bit pattern. Most cells
repeat: loads are step functions, and a calibration snapshot lasts a
whole collection.
"""

from __future__ import annotations

import csv
import io
from array import array
from typing import Iterable, Sequence

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


def csv_bytes(header: Sequence[str], rows: Iterable[Sequence]) -> bytes:
    """CSV with \\r\\n line ends. The csv module writes str(cell), which
    for a Python float is its repr, the shortest text that reads back to
    the same value; a numpy scalar's str follows numpy's own rules."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


BLOCK_ROWS = 512


def _texts(block: Sequence[np.ndarray]) -> list[list[str]]:
    """repr of each cell of these equal-length columns, column by column.
    The float64 columns share one dictionary, keyed by bit pattern so that
    -0.0 and 0.0 stay apart: each distinct value is formatted once and its
    text gathered into every cell that holds it. Other columns, such as
    the int ones, whose cells rarely repeat, are formatted cell by cell."""
    texts = [
        None if column.dtype == np.float64 else list(map(repr, column.tolist()))
        for column in block
    ]
    floats = [j for j, text in enumerate(texts) if text is None]
    if floats:
        cells = np.stack([block[j] for j in floats])
        distinct, inverse = np.unique(cells.view(np.int64), return_inverse=True)
        words = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        # the inverse's shape differs between numpy versions; the cells' does not
        for j, row in zip(floats, words[inverse.reshape(cells.shape)]):
            texts[j] = row.tolist()
    return texts


def columns_csv(header: Sequence[str], columns: Sequence[np.ndarray]) -> bytes:
    """What csv_bytes writes for the rows of these equal-length int or
    float columns. csv never quotes a number and writes str(cell), which
    for a Python int or float equals its repr. The rows are encoded
    BLOCK_ROWS at a time, each block with one dictionary of its distinct
    floats keyed by bit pattern, into one growing buffer, so no str of
    the whole body and no second copy of the output is built."""
    out = io.BytesIO()
    out.write(csv_bytes(header, ()))
    for start in range(0, len(columns[0]) if columns else 0, BLOCK_ROWS):
        texts = _texts([column[start:start + BLOCK_ROWS] for column in columns])
        out.write(("\r\n".join(map(",".join, zip(*texts))) + "\r\n").encode())
    return out.getvalue()
