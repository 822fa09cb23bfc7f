"""The columnar tick log and the CSV encoder every artifact goes through."""

import numpy as np
import pytest

from gridcalib.ticklog import TickLog, csv_bytes


def make_log():
    return TickLog(["time_ms", "a_w", "b_w"], int_columns=1)


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
        assert list(log.rows()) == [(0, 0.5, 0.25)]
        log.append([1000, 1.0, 2.0])
        assert list(log.rows()) == [(0, 0.5, 0.25), (1000, 1.0, 2.0)]

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
        (row,) = log.rows()
        assert row == (3, 4000, 1.0)
        assert [type(cell) for cell in row] == [int, int, float]

    def test_empty_log(self):
        log = make_log()
        assert len(log) == 0
        assert [len(c) for c in log.columns().values()] == [0, 0, 0]
        assert csv_bytes(log.header, log.rows()) == b"time_ms,a_w,b_w\r\n"


class TestEncoding:
    def test_round_trip_text_matches_repr(self):
        # the text the per-cell str/repr writers produced for the same cells
        values = (-0.0, 5e-324, 1e308, 0.1 + 0.2)
        log = TickLog(["time_ms", "a", "b", "c", "d"], int_columns=1)
        log.append([2**53, *values])
        expected = ",".join([str(2**53)] + [repr(v) for v in values])
        assert csv_bytes(log.header, log.rows()) == f"time_ms,a,b,c,d\r\n{expected}\r\n".encode()
        assert expected == "9007199254740992,-0.0,5e-324,1e+308,0.30000000000000004"

    def test_strings_and_quoting(self):
        assert csv_bytes(["action", "value"], [("start", 250.0), ("a,b", 1)]) == (
            b'action,value\r\nstart,250.0\r\n"a,b",1\r\n'
        )
