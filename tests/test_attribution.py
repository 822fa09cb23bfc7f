"""Ratio power model: proportional dynamic split, even/requested idle split.

The split is the one the run executes: attribution's kernels over plain
per-process float lists, shares returned in process order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcalib.attribution import dynamic_shares, even_shares, requested_shares


class TestSplitDynamic:
    def test_proportional_shares(self):
        assert dynamic_shares(100.0, [10.0, 30.0, 60.0]) == [10.0, 30.0, 60.0]

    def test_single_process_gets_everything(self):
        assert dynamic_shares(100.0, [17.0]) == [100.0]

    def test_zero_utilization_falls_back_to_even_split(self):
        assert dynamic_shares(90.0, [0.0, 0.0, 0.0]) == [30.0, 30.0, 30.0]

    def test_underflow_sum_falls_back_to_even_split(self):
        assert dynamic_shares(90.0, [1e-14, 2e-14, 0.0]) == [30.0, 30.0, 30.0]

    @settings(max_examples=200)
    @given(
        dynamic=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        utils=st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
    )
    def test_partition_property(self, dynamic, utils):
        shares = dynamic_shares(dynamic, utils)
        assert sum(shares) == pytest.approx(dynamic, rel=1e-9, abs=1e-12)
        assert all(v >= 0.0 for v in shares)

    @settings(max_examples=100)
    @given(
        utils=st.lists(
            st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        k=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_scale_invariance(self, utils, k):
        base = dynamic_shares(250.0, utils)
        scaled = dynamic_shares(250.0, [u * k for u in utils])
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_monotonicity_in_own_util(self):
        lo = dynamic_shares(100.0, [10.0, 50.0])[0]
        hi = dynamic_shares(100.0, [20.0, 50.0])[0]
        assert hi >= lo


class TestSplitIdleEven:
    def test_division(self):
        assert even_shares(60.0, 4) == [15.0] * 4

    def test_single_process(self):
        assert even_shares(60.0, 1) == [60.0]

    def test_zero_idle(self):
        assert even_shares(0.0, 7) == [0.0] * 7

    @settings(max_examples=100)
    @given(
        idle=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        count=st.integers(min_value=1, max_value=1000),
    )
    def test_shares_sum_back(self, idle, count):
        shares = even_shares(idle, count)
        assert len(shares) == count
        assert shares[0] * count == pytest.approx(idle, rel=1e-9, abs=1e-12)


class TestSplitIdleRequested:
    def test_proportional_to_requests(self):
        assert requested_shares(60.0, [1.0, 3.0], 4.0) == [15.0, 45.0]

    def test_sole_requester_gets_full_idle(self):
        assert requested_shares(60.0, [2.0], 2.0) == [60.0]

    def test_symmetric_requests(self):
        assert requested_shares(60.0, [2.0, 2.0], 4.0) == [30.0, 30.0]

    @settings(max_examples=100)
    @given(
        idle=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        reqs=st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=10,
        ),
    )
    def test_partition_property(self, idle, reqs):
        shares = requested_shares(idle, reqs, sum(reqs))
        assert sum(shares) == pytest.approx(idle, rel=1e-9, abs=1e-12)
