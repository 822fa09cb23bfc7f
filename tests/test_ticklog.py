"""The columnar tick log and the two CSV encoders the artifacts go through."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
