"""One columnar log for per-tick records, and the two CSV encoders.

A TickLog is a header plus a flat array("d"); each tick appends one row
with a single array.fromlist, 8 bytes a cell. Its leading int columns (tick
index, time in ms) are exact in float64 up to 2**53 and read back as ints.
columns_csv encodes numeric columns such as a TickLog's, csv_bytes rows
that hold strings; both write the same bytes for the same numbers.
columns_csv encodes a block of rows at a time. Whole rows repeat: loads
are step functions, and a calibration snapshot lasts a whole collection.
So a block's float cells are formatted once per run of rows whose floats
equal the previous row's bit for bit, each group of adjacent float columns
is joined once per run, and the runs' floats go through one dictionary
keyed by bit pattern, which formats each distinct value once. Only the
int cells are formatted row by row.
"""

from __future__ import annotations

import csv
import io
from array import array
from itertools import chain, islice, repeat
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


def _layout(columns: Sequence[np.ndarray]) -> list[int | range]:
    """A row's fields in order: each int column by its index, and each
    maximal group of adjacent float64 columns as the range of theirs."""
    fields: list[int | range] = []
    for j, column in enumerate(columns):
        if column.dtype != np.float64:
            fields.append(j)
        elif fields and isinstance(fields[-1], range):
            fields[-1] = range(fields[-1].start, j + 1)
        else:
            fields.append(range(j, j + 1))
    return fields


def _runs(floats: list[np.ndarray]) -> tuple[list[list[str]], list[int] | None]:
    """Each float column's text at the first row of each run, where a run
    is a row and the rows after it whose cells equal its own bit for bit,
    and the runs' lengths, None when no row repeats. The runs' cells
    share one dictionary keyed by bit pattern, so -0.0 and 0.0 stay apart:
    each distinct value is formatted once."""
    bits = np.stack(floats).view(np.int64)
    n = bits.shape[1]
    new = np.ones(n + 1, dtype=bool)
    np.logical_or.reduce(bits[:, 1:] != bits[:, :-1], axis=0, out=new[1:n])
    bounds = np.flatnonzero(new)  # each run's first row, then n
    lengths = None
    if len(bounds) <= n:
        bits = bits[:, bounds[:-1]]
        lengths = (bounds[1:] - bounds[:-1]).tolist()
    distinct, inverse = np.unique(bits, return_inverse=True)
    words = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    # the inverse's shape differs between numpy versions; the cells' does not
    return words[inverse.reshape(bits.shape)].tolist(), lengths


def _block_text(block: Sequence[np.ndarray], layout: list[int | range]) -> str:
    """The CSV lines of these equal-length columns. Each group of adjacent
    float columns is joined into one field once per run of repeated rows;
    the other columns, such as the int ones, whose cells rarely repeat,
    are formatted cell by cell."""
    floats = [block[j] for field in layout if isinstance(field, range) for j in field]
    cells, lengths = _runs(floats) if floats else ([], None)
    cells = iter(cells)
    texts = []
    for field in layout:
        if isinstance(field, int):
            texts.append(map(repr, block[field].tolist()))
        else:
            runs = map(",".join, zip(*islice(cells, len(field))))
            if lengths is not None:
                runs = chain.from_iterable(map(repeat, runs, lengths))
            texts.append(runs)
    rows = texts[0] if len(texts) == 1 else map(",".join, zip(*texts))
    return "\r\n".join(rows) + "\r\n"


def columns_csv(header: Sequence[str], columns: Sequence[np.ndarray]) -> bytes:
    """What csv_bytes writes for the rows of these equal-length int or
    float columns. csv never quotes a number and writes str(cell), which
    for a Python int or float equals its repr. The rows are encoded
    BLOCK_ROWS at a time into one growing buffer, so no str of the whole
    body and no second copy of the output is built."""
    out = io.BytesIO()
    out.write(csv_bytes(header, ()))
    layout = _layout(columns)
    for start in range(0, len(columns[0]) if columns else 0, BLOCK_ROWS):
        block = [column[start:start + BLOCK_ROWS] for column in columns]
        out.write(_block_text(block, layout).encode())
    return out.getvalue()
