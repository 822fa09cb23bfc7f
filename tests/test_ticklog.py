"""The columnar tick log and the two CSV encoders the artifacts go through."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcalib import ticklog
from gridcalib.ticklog import BLOCK_ROWS, TickLog, columns_csv, csv_bytes


def make_log():
    return TickLog(["time_ms", "a_w", "b_w"], int_columns=1)


def rows(log):
    """The log's rows as tuples of Python ints and floats."""
    return list(zip(*(column.tolist() for column in log.columns().values())))


def encodings(header, columns):
    """The numeric encoder's bytes and the row encoder's for the same table."""
    return columns_csv(header, columns), csv_bytes(header, zip(*(c.tolist() for c in columns)))


class TestAppend:
    @pytest.mark.parametrize(
        "row", [[1000, 1.0], [1000, 1.0, 2.0, 3.0], [1000, 1.0, "x"]], ids=["short", "long", "text"]
    )
    def test_bad_row_raises_and_leaves_log_unchanged(self, row):
        log = make_log()
        log.append([0, 0.5, 0.25])
        with pytest.raises((ValueError, TypeError)):
            log.append(row)
        assert len(log) == 1
        assert rows(log) == [(0, 0.5, 0.25)]
        log.append([1000, 1.0, 2.0])
        assert rows(log) == [(0, 0.5, 0.25), (1000, 1.0, 2.0)]

    def test_appends_after_columns(self):
        log = make_log()
        log.append([0, 0.5, 0.25])
        first = log.columns()
        log.append([1000, 1.0, 2.0])
        assert first["a_w"].tolist() == [0.5]
        assert log.columns()["a_w"].tolist() == [0.5, 1.0]

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ValueError):
            TickLog(["time_ms", "a_w", "a_w"])


class TestColumns:
    def test_int_columns_read_back_as_ints(self):
        log = TickLog(["t", "time_ms", "p_w"], int_columns=2)
        log.append([3, 4000, 1.0])
        columns = log.columns()
        assert columns["time_ms"].dtype == np.int64
        assert columns["p_w"].dtype == np.float64
        (row,) = rows(log)
        assert row == (3, 4000, 1.0)
        assert [type(cell) for cell in row] == [int, int, float]

    def test_empty_log(self):
        log = make_log()
        assert len(log) == 0
        assert [len(c) for c in log.columns().values()] == [0, 0, 0]
        assert csv_bytes(log.header, rows(log)) == b"time_ms,a_w,b_w\r\n"
        assert columns_csv(log.header, list(log.columns().values())) == b"time_ms,a_w,b_w\r\n"


class TestEncoding:
    def test_round_trip_text_matches_repr(self):
        # the text the per-cell str/repr writers produced for the same cells
        values = (-0.0, 5e-324, 1e308, 0.1 + 0.2)
        log = TickLog(["time_ms", "a", "b", "c", "d"], int_columns=1)
        log.append([2**53, *values])
        expected = ",".join([str(2**53)] + [repr(v) for v in values])
        assert csv_bytes(log.header, rows(log)) == f"time_ms,a,b,c,d\r\n{expected}\r\n".encode()
        assert columns_csv(log.header, list(log.columns().values())) == csv_bytes(log.header, rows(log))
        assert expected == "9007199254740992,-0.0,5e-324,1e+308,0.30000000000000004"

    def test_strings_and_quoting(self):
        assert csv_bytes(["action", "value"], [("start", 250.0), ("a,b", 1)]) == (
            b'action,value\r\nstart,250.0\r\n"a,b",1\r\n'
        )


SPECIAL = [-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1e16, 1e-5,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2]

# values a dictionary keyed by bit pattern must keep apart or print alike:
# both zeros, NaNs of four payloads (each prints nan), the extremes
POOL = np.concatenate([
    np.array(SPECIAL),
    np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
             dtype=np.uint64).view(np.float64),
    [250.0, 1.0, -3.5],
])


def pooled(rng, shape, size):
    """Cells drawn from the first `size` values of a shuffled POOL, so
    they repeat within a column, across columns and across blocks."""
    return rng.permutation(POOL)[:size][rng.integers(0, size, shape)]


class TestColumnsCsv:
    """columns_csv writes what csv_bytes writes for the same cells."""

    @pytest.mark.parametrize(
        "n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 5]
    )
    def test_block_edges(self, n):
        rng = np.random.default_rng(n)
        ints = rng.integers(-(2**53), 2**53, size=n, endpoint=True)
        ints[: min(n, 2)] = [2**53, -(2**53)][: min(n, 2)]
        specials = rng.choice(np.array(SPECIAL), size=n)
        spread = rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, size=n)
        header = ["time_ms", "a,b", 'q"w', "c"]
        got, want = encodings(header, [ints, specials, spread, spread * 3.0])
        assert got == want
        assert got.count(b"\r\n") == n + 1
        assert got.startswith(b'time_ms,"a,b","q""w",c\r\n')

    def test_special_values(self):
        got, want = encodings(["v"], [np.array(SPECIAL)])
        assert got == want
        assert got.decode().split("\r\n")[1:-1] == [repr(v) for v in SPECIAL]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=3 * BLOCK_ROWS + 7),
        st.integers(min_value=1, max_value=len(POOL)),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_repeated_floats(self, n_floats, n_ints, n, size, distinct, seed):
        rng = np.random.default_rng(seed)
        floats = list(pooled(rng, (n_floats, n), size))
        if distinct and floats:  # one column whose cells are all distinct
            floats[0] = np.cumsum(rng.uniform(0.5, 1.5, n)) * 10.0 ** rng.integers(-300, 300)
        ints = list(rng.integers(-(2**53), 2**53, (n_ints, n), endpoint=True))
        columns = ints + floats
        got, want = encodings([f"c{j}" for j in range(len(columns))], columns)
        assert got == want

    @pytest.mark.parametrize("kinds", ["ints", "floats"])
    def test_one_kind_of_column(self, kinds):
        rng = np.random.default_rng(3)
        n = 2 * BLOCK_ROWS + 7
        if kinds == "ints":
            columns = list(rng.integers(-(2**53), 2**53, (2, n), endpoint=True))
        else:
            columns = list(pooled(rng, (3, n), len(POOL)))
        got, want = encodings(["a", "b", "c"][: len(columns)], columns)
        assert got == want

    def test_formats_each_distinct_float_once_per_block(self, monkeypatch):
        n = 4802  # preset gpu-leakage's ticks
        rng = np.random.default_rng(0)
        values = np.array([0.0, -0.0, 212.5])
        columns = [np.arange(n), *values[rng.integers(0, 3, (4, n))]]
        formatted = []

        def counting_repr(cell):
            if isinstance(cell, float):
                formatted.append(cell)
            return repr(cell)

        monkeypatch.setattr(ticklog, "repr", counting_repr, raising=False)
        got = columns_csv(["t", "a", "b", "c", "d"], columns)
        monkeypatch.undo()
        assert got == csv_bytes(["t", "a", "b", "c", "d"], zip(*(c.tolist() for c in columns)))
        blocks = -(-n // BLOCK_ROWS)
        assert 0 < len(formatted) <= blocks * len(values)

    def test_header_without_columns(self):
        assert columns_csv(["time_ms"], []) == csv_bytes(["time_ms"], []) == b"time_ms\r\n"

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.floats(), max_size=40),
        st.lists(st.integers(min_value=-(2**53), max_value=2**53), min_size=1),
    )
    def test_any_floats_and_ints(self, width, floats, ints):
        n = len(floats) // width
        columns = [np.array(floats[j * n:(j + 1) * n], dtype=np.float64) for j in range(width)]
        columns.append(np.resize(np.array(ints, dtype=np.int64), n))
        got, want = encodings([f"c{j}" for j in range(width + 1)], columns)
        assert got == want


# neighbours that a run compare keyed by value would merge: both zeros,
# NaNs of four payloads (each prints nan), and a plain value
TWINS = np.concatenate([
    [0.0, -0.0, float("nan")],
    np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
             dtype=np.uint64).view(np.float64),
    [250.0],
])
RUN_LENGTHS = st.one_of(
    st.sampled_from([1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
    st.integers(min_value=1, max_value=2 * BLOCK_ROWS),
)


@st.composite
def run_tables(draw, kinds=st.lists(st.sampled_from("if"), min_size=1, max_size=6)):
    """Columns laid out as `kinds` ("i" int, "f" float) whose float cells
    come in runs of identical rows. Each run differs from the one before
    in one cell, set to one of TWINS, so neighbouring runs often differ
    only in the sign of a zero or a NaN payload. Optionally one float
    column is all distinct, so that no two rows repeat."""
    kinds = draw(kinds)
    n_floats = kinds.count("f")
    lengths = draw(st.lists(RUN_LENGTHS, min_size=1, max_size=6))
    edits = draw(st.lists(
        st.tuples(st.integers(0, max(n_floats - 1, 0)), st.integers(0, len(TWINS) - 1)),
        min_size=len(lengths), max_size=len(lengths),
    ))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    row = np.full(n_floats, TWINS[draw(st.integers(0, len(TWINS) - 1))])
    runs = []
    for length, (cell, twin) in zip(lengths, edits):
        row = row.copy()
        if n_floats:
            row[cell] = TWINS[twin]
        runs.append(np.repeat(row[:, None], length, axis=1))
    floats = list(np.concatenate(runs, axis=1))
    n = sum(lengths)
    if floats and draw(st.booleans()):
        floats[draw(st.integers(0, n_floats - 1))] = np.cumsum(rng.uniform(0.5, 1.5, n)) / 3.0
    ints = iter(rng.integers(-(2**53), 2**53, (len(kinds), n), endpoint=True))
    floats = iter(floats)
    return [next(ints) if kind == "i" else next(floats) for kind in kinds]


class TestRunsOfRows:
    """Rows whose float cells repeat: columns_csv still writes what
    csv_bytes writes, wherever the int columns sit."""

    @settings(max_examples=80, deadline=None)
    @given(run_tables())
    def test_runs_of_identical_rows(self, columns):
        got, want = encodings([f"c{j}" for j in range(len(columns))], columns)
        assert got == want

    @pytest.mark.parametrize(
        "kinds", ["iif", "iiffff", "ffi", "fiff", "ffiffi", "ii", "f"],
        ids=["leading", "ticklog", "trailing", "between", "alternating", "no-float", "one-float"],
    )
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_int_columns_anywhere(self, kinds, data):
        columns = data.draw(run_tables(st.just(kinds)))
        got, want = encodings([f"c{j}" for j in range(len(columns))], columns)
        assert got == want

    def test_neighbours_differing_only_in_zero_sign_or_nan_payload(self):
        n = 3 * BLOCK_ROWS
        a = TWINS[np.arange(n) // 7 % len(TWINS)]
        got, want = encodings(["t", "a", "b"], [np.arange(n), a, a[::-1].copy()])
        assert got == want
        assert b"-0.0" in got and b"nan" in got


class TestEncoderMemory:
    # beyond its output, the encoder holds one block's text and one
    # block's dictionary, and the output grows in one buffer by an
    # eighth at a time: about 2 B a cell of full-precision floats. Whole-column
    # text or dictionaries hold over 60 B a cell, and a list of blocks
    # joined at the end holds the output twice, about 20 B a cell
    BYTES_PER_CELL = 6

    @staticmethod
    def overhead(rows):
        """Peak traced memory minus the output's length, encoding four
        all-distinct float columns of `rows` rows."""
        rng = np.random.default_rng(rows)
        columns = list(rng.normal(size=(4, rows)) * 1e3)
        tracemalloc.start()
        try:
            out = columns_csv(["a", "b", "c", "d"], columns)
            return tracemalloc.get_traced_memory()[1] - len(out)
        finally:
            tracemalloc.stop()

    def test_peak_beyond_output_grows_boundedly_per_cell(self):
        self.overhead(BLOCK_ROWS)  # first-run allocations are not per cell
        short = self.overhead(4 * BLOCK_ROWS)
        growth = (self.overhead(40 * BLOCK_ROWS) - short) / (4 * 36 * BLOCK_ROWS)
        assert growth < self.BYTES_PER_CELL, f"{growth:.1f} B a cell"
