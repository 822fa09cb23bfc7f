"""The per-tick emission and collection kernels against a per-object path.

The emitter runs `emulation.approximate` over plain float lists, and the
calibration stage runs `calibration.calibrate` once over every process.
The references below write the same model out one object at a time:
a Truth and an approximation snapshot per firing, a Proc per process, a
Node, the dict-keyed split, and the per-process calibration formulas.
Both must agree with `==`. The references add floats left to right, as
sum() does on Python 3.11.
"""

import math
import random
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcalib import emulation
from gridcalib.attribution import (
    FALLBACK_UNDERFLOW,
    dynamic_shares,
    left_sum,
    requested_shares,
)
from gridcalib.calibration import DENOMINATOR_GUARD_W, calibrate
from gridcalib.emulation import (
    SYSTEM_PROCESS_ID,
    ApproximationParams,
    LoadBank,
    PowerModelEmitter,
    WorkloadSpec,
    approximate,
    approximation_plan,
    decompose_true_power,
    true_power,
)
from gridcalib.signals import VirtualClock
from gridcalib.timeseries import MetricStore


def ref_sum(values):
    total = 0
    for value in values:
        total = total + value
    return total


# --- the reference: one object per firing, per process and per node ----------


class Proc(NamedTuple):
    process_id: str
    util: float
    requested: float = 0.0


class Node(NamedTuple):
    dynamic: float
    idle: float
    total_requested: float = 0.0


@dataclass(frozen=True)
class Truth:
    time_ms: int
    process_dynamic_w: Mapping[str, float]
    process_idle_w: Mapping[str, float]
    system_dynamic_w: float

    def row(self):
        """The emitter's truth log row for this firing."""
        return (
            self.time_ms,
            *self.process_dynamic_w.values(),
            *self.process_idle_w.values(),
            self.system_dynamic_w,
        )


@dataclass(frozen=True)
class ApproximationSnapshot:
    time_ms: int
    process_dynamic_w: Mapping[str, float]
    process_idle_w: Mapping[str, float]
    system_dynamic_w: float
    node_dynamic_w: float
    node_idle_w: float


def ref_split_dynamic(node, procs):
    total = ref_sum(p.util for p in procs)
    if total <= FALLBACK_UNDERFLOW * node.dynamic or total == 0.0:
        even = node.dynamic / len(procs)
        return {p.process_id: even for p in procs}
    return {p.process_id: node.dynamic * p.util / total for p in procs}


def ref_split_idle_requested(node, procs):
    return {p.process_id: node.idle * p.requested / node.total_requested for p in procs}


def ref_sample_truth(time_ms, workloads, levels, rngs, system_w):
    dynamic, idle = {}, {}
    for w in workloads:
        total = true_power(w, levels[w.load_knob], rngs[w.process_id])
        dynamic[w.process_id], idle[w.process_id] = decompose_true_power(w, total)
    return Truth(time_ms, dynamic, idle, system_w)


def ref_node_total(truth):
    dynamic = ref_sum(truth.process_dynamic_w.values()) + truth.system_dynamic_w
    return dynamic + ref_sum(truth.process_idle_w.values())


def ref_approximate(truth, workloads, params, rng, idle_split):
    specs = {w.process_id: w for w in workloads}
    noise = rng.gauss(0.0, params.sigma_w) if params.sigma_w > 0 else 0.0
    node_dynamic_w = ref_sum(truth.process_dynamic_w.values()) + truth.system_dynamic_w
    node_idle_w = ref_sum(truth.process_idle_w.values())
    node_dynamic = node_dynamic_w / params.gain
    node_idle = max(0.0, (node_idle_w - params.bias_w + noise) / params.gain)
    utils = [
        Proc(pid, (1.0 - specs[pid].leakage_lambda) * dyn, requested=specs[pid].idle_share_w)
        for pid, dyn in truth.process_dynamic_w.items()
    ]
    leaked = ref_sum(
        specs[pid].leakage_lambda * dyn for pid, dyn in truth.process_dynamic_w.items()
    )
    utils.append(Proc(SYSTEM_PROCESS_ID, leaked + truth.system_dynamic_w, requested=0.0))
    total_requested = ref_sum(u.requested for u in utils)
    node = Node(dynamic=node_dynamic, idle=node_idle, total_requested=total_requested)
    dyn_shares = ref_split_dynamic(node, utils)
    system_dynamic = dyn_shares.pop(SYSTEM_PROCESS_ID)
    if idle_split == "requested" and total_requested > 0:
        idle_shares = ref_split_idle_requested(node, utils)
    else:
        even = node.idle / len(utils)
        idle_shares = {u.process_id: even for u in utils}
    return ApproximationSnapshot(
        truth.time_ms, dyn_shares, idle_shares, system_dynamic, node_dynamic, node_idle
    )


def ref_calibrate(p_dyn, p_idle, m, m_idle, system):
    n_dyn, n_idle = ref_sum(p_dyn), ref_sum(p_idle)
    s_dyn = 0.0
    for i in system:
        s_dyn = s_dyn + p_dyn[i]
    factor, cal_dyn, cal_idle, degenerate = [], [], [], None
    for i, (p, idle) in enumerate(zip(p_dyn, p_idle)):
        a = 0.0
        if p > 0 and i not in system:
            denominator = n_dyn - s_dyn
            if denominator <= DENOMINATOR_GUARD_W:
                degenerate = (
                    f"node dynamic {n_dyn} W minus system dynamic {s_dyn} W leaves "
                    f"{denominator} W; calibration undefined"
                )
            else:
                a = p / denominator
        factor.append(a)
        cal_dyn.append(a * max(0.0, m - m_idle))
        cal_idle.append((idle / n_idle) * m_idle if n_idle > 0 else 0.0)
    return (p_dyn, n_dyn, s_dyn, m, m_idle, tuple(factor), tuple(cal_dyn), tuple(cal_idle), degenerate)


# --- strategies ----------------------------------------------------------------

share = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=200.0))
sigma = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))


@st.composite
def workload_sets(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    return [
        WorkloadSpec(
            process_id=f"w{i}",
            namespace=draw(st.sampled_from(["a", "b"])),
            idle_share_w=draw(share),
            dyn_coeff_w=draw(st.floats(min_value=0.0, max_value=10.0)),
            load_knob=draw(st.sampled_from(["rps", "batch_size", "threads"])),
            noise_sigma_w=draw(sigma),
            leakage_lambda=draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.99))),
        )
        for i in range(k)
    ]


params_st = st.builds(
    ApproximationParams,
    gain=st.floats(min_value=0.5, max_value=2.0),
    bias_w=st.floats(min_value=-50.0, max_value=50.0),
    sigma_w=sigma,
)
loads = st.lists(
    st.fixed_dictionaries({knob: st.floats(min_value=0.0, max_value=2000.0) for knob in emulation.LOAD_KNOBS}),
    min_size=1,
    max_size=4,
)


class TestEmissionKernel:
    @given(
        workload_sets(),
        loads,
        params_st,
        st.floats(min_value=0.0, max_value=20.0),
        st.sampled_from(emulation.IDLE_SPLIT_MODES),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_emitter_matches_the_dataclass_path(self, workloads, levels, params, system_w, idle_split, seed):
        store, clock, bank = MetricStore(), VirtualClock(), LoadBank()
        emitter = PowerModelEmitter(
            store, workloads, bank, clock, params=params, system_baseline_w=system_w,
            emission_interval_ms=700, idle_split=idle_split, seed=seed,
        )
        rngs = {w.process_id: random.Random(f"{seed}:truth:{w.process_id}") for w in workloads}
        approx_rng = random.Random(f"{seed}:approx")
        start = ref_sample_truth(0, workloads, bank.levels, rngs, system_w)
        assert len(emitter.truth) == 0
        assert emitter.node_total_w == ref_node_total(start)
        joules = [0.0] * len(emitter.counters)
        truths = []
        for step, level in enumerate(levels, start=1):
            for knob, value in level.items():
                bank.set_level(knob, value)
            clock.advance(700)
            truth = ref_sample_truth(700 * step, workloads, bank.levels, rngs, system_w)
            truths.append(truth)
            snap = ref_approximate(truth, workloads, params, approx_rng, idle_split)
            watts = [*snap.process_dynamic_w.values(), snap.system_dynamic_w, *snap.process_idle_w.values()]
            for i, series in enumerate(emitter.counters):
                joules[i] += watts[i] * 0.7
                assert series.last() == (700 * step, joules[i])
            assert emitter.node_total_w == ref_node_total(truth)
        logged = emitter.truth.columns().values()
        assert list(zip(*(c.tolist() for c in logged))) == [truth.row() for truth in truths]

    @given(
        workload_sets(),
        st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=5, max_size=5),
        st.lists(st.floats(min_value=0.0, max_value=200.0), min_size=5, max_size=5),
        st.floats(min_value=0.0, max_value=20.0),
        params_st,
        st.sampled_from(emulation.IDLE_SPLIT_MODES),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_the_dataclass_path(self, workloads, dyn, idle, system_w, params, idle_split, seed):
        pids = [w.process_id for w in workloads]
        truth = Truth(5, dict(zip(pids, dyn)), dict(zip(pids, idle)), system_w)
        want = ref_approximate(truth, workloads, params, random.Random(seed), idle_split)
        plan = approximation_plan(workloads, idle_split)
        k = len(workloads)
        got = approximate(dyn[:k], idle[:k], system_w, params, random.Random(seed), *plan)
        assert got == (
            [*want.process_dynamic_w.values(), want.system_dynamic_w, *want.process_idle_w.values()],
            want.node_dynamic_w,
            want.node_idle_w,
        )

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=6),
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=6, max_size=6),
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e3),
    )
    def test_boundary_splits_match_the_dataclass_path(self, utils, requested, dynamic, idle):
        procs = [Proc(f"p{i}", u, r) for i, (u, r) in enumerate(zip(utils, requested))]
        node = Node(dynamic, idle, ref_sum(p.requested for p in procs))
        want = list(ref_split_dynamic(node, procs).values())
        assert dynamic_shares(dynamic, utils) == want
        if node.total_requested > 0:
            want = list(ref_split_idle_requested(node, procs).values())
            assert requested_shares(idle, requested[: len(utils)], node.total_requested) == want


class TestCollectionKernel:
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.just(0.0),
                    st.floats(min_value=0.0, max_value=1e-7),  # degenerate denominators
                    st.floats(min_value=0.0, max_value=500.0),
                ),
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0)),
            ),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=500.0),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_calibrate_matches_the_per_process_path(self, processes, m, m_idle, data):
        p_dyn = tuple(p for p, _ in processes)
        p_idle = tuple(i for _, i in processes)
        system = tuple(sorted(data.draw(st.sets(st.integers(0, len(processes) - 1), max_size=2))))
        got = calibrate(p_dyn, p_idle, m, m_idle, system)
        assert tuple(got) == ref_calibrate(p_dyn, p_idle, m, m_idle, system)

    def test_degenerate_and_zero_idle(self):
        got = calibrate((0.0, 10.0), (0.0, 0.0), 300.0, 200.0, (1,))
        assert got.factor == (0.0, 0.0) and got.cal_idle == (0.0, 0.0)
        assert got.degenerate is None  # no process owns dynamic power
        got = calibrate((1e-9, 10.0), (0.0, 0.0), 300.0, 200.0, (1,))
        assert got.factor == (0.0, 0.0)
        assert got.degenerate.endswith("W; calibration undefined")


def test_left_sum_adds_left_to_right():
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([]) == 0.0


def emitter_on(workloads, idle_split="even"):
    """An emitter on the config's defaults but idle_split, with its clock
    and load bank."""
    clock, bank = VirtualClock(), LoadBank()
    emitter = PowerModelEmitter(
        MetricStore(), workloads, bank, clock, params=ApproximationParams(),
        system_baseline_w=5.0, emission_interval_ms=1000, idle_split=idle_split, seed=0,
    )
    return emitter, clock, bank


def armed(workload, knob_value, idle_split="even"):
    """An emitter whose next firing reads knob_value; returns that firing."""
    emitter, clock, bank = emitter_on([workload], idle_split)
    bank.set_level(workload.load_knob, knob_value)
    return lambda: clock.advance(emitter.emission_interval_ms)


class TestFireTimeChecks:
    @given(
        st.one_of(st.floats(max_value=-1e-300), st.just(math.nan), st.just(math.inf)),
        st.sampled_from([0.0, 1.0]),
    )
    def test_invalid_load_raises_at_fire_time(self, load, coeff):
        # NaN, and inf times a zero coefficient, used to clamp to 0 W
        fire = armed(WorkloadSpec("w", idle_share_w=10.0, dyn_coeff_w=coeff), load)
        with pytest.raises(ValueError):
            fire()

    @given(
        st.floats(min_value=1e300, max_value=1e308),
        st.floats(min_value=1e10, max_value=1e300),
        st.sampled_from(emulation.IDLE_SPLIT_MODES),
    )
    def test_non_finite_power_raises_at_fire_time(self, coeff, load, idle_split):
        fire = armed(WorkloadSpec("w", dyn_coeff_w=coeff, idle_share_w=1.0), load, idle_split=idle_split)
        with pytest.raises(ValueError, match="node power must be finite"):
            fire()

    def test_unknown_idle_split_raises_at_construction(self):
        with pytest.raises(ValueError):
            emitter_on([WorkloadSpec("w")], idle_split="fair")

    def test_overflowing_requested_total_raises_at_construction(self):
        workloads = [WorkloadSpec(f"w{i}", idle_share_w=1e308) for i in range(2)]
        with pytest.raises(ValueError):
            emitter_on(workloads, idle_split="requested")
