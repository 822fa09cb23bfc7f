"""Ratio power model: proportional dynamic split, even/requested idle split."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcalib.attribution import (
    NodePower,
    ProcessUtilization,
    split_dynamic,
    split_idle_even,
    split_idle_requested,
)
from gridcalib.errors import EmptyProcessSet, ZeroProcesses, ZeroTotalRequest


def procs(*utils: float) -> list[ProcessUtilization]:
    return [ProcessUtilization(f"p{i}", u) for i, u in enumerate(utils)]


class TestTypes:
    def test_negative_util_rejected(self):
        with pytest.raises(ValueError):
            ProcessUtilization("p", -1.0)

    def test_negative_requested_rejected(self):
        with pytest.raises(ValueError):
            ProcessUtilization("p", 0.0, requested=-0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ProcessUtilization("p", math.nan)
        with pytest.raises(ValueError):
            NodePower(dynamic=math.inf, idle=0.0)

    def test_negative_node_power_rejected(self):
        with pytest.raises(ValueError):
            NodePower(dynamic=-1.0, idle=0.0)
        with pytest.raises(ValueError):
            NodePower(dynamic=0.0, idle=-1.0)


class TestSplitDynamic:
    def test_proportional_shares(self):
        node = NodePower(dynamic=100.0, idle=0.0)
        shares = split_dynamic(node, procs(10.0, 30.0, 60.0))
        assert shares == {"p0": 10.0, "p1": 30.0, "p2": 60.0}

    def test_single_process_gets_everything(self):
        node = NodePower(dynamic=100.0, idle=0.0)
        assert split_dynamic(node, procs(17.0)) == {"p0": 100.0}

    def test_zero_utilization_falls_back_to_even_split(self):
        node = NodePower(dynamic=90.0, idle=0.0)
        shares = split_dynamic(node, procs(0.0, 0.0, 0.0))
        assert shares == {"p0": 30.0, "p1": 30.0, "p2": 30.0}

    def test_underflow_sum_falls_back_to_even_split(self):
        node = NodePower(dynamic=90.0, idle=0.0)
        shares = split_dynamic(node, procs(1e-14, 2e-14, 0.0))
        assert shares == {"p0": 30.0, "p1": 30.0, "p2": 30.0}

    def test_empty_process_set(self):
        with pytest.raises(EmptyProcessSet):
            split_dynamic(NodePower(dynamic=10.0, idle=0.0), [])

    def test_duplicate_process_ids_rejected(self):
        node = NodePower(dynamic=10.0, idle=0.0)
        dupes = [ProcessUtilization("p", 1.0), ProcessUtilization("p", 2.0)]
        with pytest.raises(ValueError):
            split_dynamic(node, dupes)

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
        node = NodePower(dynamic=dynamic, idle=0.0)
        shares = split_dynamic(node, procs(*utils))
        assert sum(shares.values()) == pytest.approx(dynamic, rel=1e-9, abs=1e-12)
        assert all(v >= 0.0 for v in shares.values())

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
        node = NodePower(dynamic=250.0, idle=0.0)
        base = split_dynamic(node, procs(*utils))
        scaled = split_dynamic(node, procs(*(u * k for u in utils)))
        for pid in base:
            assert scaled[pid] == pytest.approx(base[pid], rel=1e-9)

    def test_monotonicity_in_own_util(self):
        node = NodePower(dynamic=100.0, idle=0.0)
        lo = split_dynamic(node, procs(10.0, 50.0))["p0"]
        hi = split_dynamic(node, procs(20.0, 50.0))["p0"]
        assert hi >= lo


class TestSplitIdleEven:
    def test_division(self):
        assert split_idle_even(NodePower(dynamic=0.0, idle=60.0), 4) == 15.0

    def test_single_process(self):
        assert split_idle_even(NodePower(dynamic=0.0, idle=60.0), 1) == 60.0

    def test_zero_idle(self):
        assert split_idle_even(NodePower(dynamic=0.0, idle=0.0), 7) == 0.0

    def test_zero_count_rejected(self):
        with pytest.raises(ZeroProcesses):
            split_idle_even(NodePower(dynamic=0.0, idle=60.0), 0)

    @settings(max_examples=100)
    @given(
        idle=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        count=st.integers(min_value=1, max_value=1000),
    )
    def test_shares_sum_back(self, idle, count):
        share = split_idle_even(NodePower(dynamic=0.0, idle=idle), count)
        assert share * count == pytest.approx(idle, rel=1e-9, abs=1e-12)


class TestSplitIdleRequested:
    def test_proportional_to_requests(self):
        node = NodePower(dynamic=0.0, idle=60.0, total_requested=4.0)
        ps = [
            ProcessUtilization("a", 0.0, requested=1.0),
            ProcessUtilization("b", 0.0, requested=3.0),
        ]
        assert split_idle_requested(node, ps) == {"a": 15.0, "b": 45.0}

    def test_sole_requester_gets_full_idle(self):
        node = NodePower(dynamic=0.0, idle=60.0, total_requested=2.0)
        ps = [ProcessUtilization("a", 0.0, requested=2.0)]
        assert split_idle_requested(node, ps) == {"a": 60.0}

    def test_symmetric_requests(self):
        node = NodePower(dynamic=0.0, idle=60.0, total_requested=4.0)
        ps = [
            ProcessUtilization("a", 0.0, requested=2.0),
            ProcessUtilization("b", 0.0, requested=2.0),
        ]
        assert split_idle_requested(node, ps) == {"a": 30.0, "b": 30.0}

    def test_zero_total_request_rejected(self):
        node = NodePower(dynamic=0.0, idle=60.0, total_requested=0.0)
        with pytest.raises(ZeroTotalRequest):
            split_idle_requested(node, [ProcessUtilization("a", 0.0)])

    def test_empty_process_set(self):
        node = NodePower(dynamic=0.0, idle=60.0, total_requested=4.0)
        with pytest.raises(EmptyProcessSet):
            split_idle_requested(node, [])

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
        node = NodePower(dynamic=0.0, idle=idle, total_requested=sum(reqs))
        ps = [ProcessUtilization(f"p{i}", 0.0, requested=r) for i, r in enumerate(reqs)]
        shares = split_idle_requested(node, ps)
        assert sum(shares.values()) == pytest.approx(idle, rel=1e-9, abs=1e-12)
