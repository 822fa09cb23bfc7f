"""Microgrid engine: net power, settlement, step order, benchmark lifecycle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcalib.emulation import LOAD_KNOBS, BenchmarkController, LoadSchedule
from gridcalib.errors import StepError
from gridcalib.microgrid import (
    Actor,
    Controller,
    Microgrid,
    SimpleBattery,
    StaticActor,
    TraceActor,
    settle,
)
from gridcalib.signals import VirtualClock


def net_power(*watts):
    """delta_p_w of one engine step over static actors of these watts."""
    grid = Microgrid(dt_ms=1000)
    for i, w in enumerate(watts):
        grid.add_actor(StaticActor(f"a{i}", w))
    grid.step()
    return last_tick(grid)["delta_p_w"]


class TestAggregate:
    def test_signed_sum(self):
        assert net_power(500.0, -300.0) == 200.0
        # added left to right in actor order: the 1.0 is lost, as in left_sum
        assert net_power(1e16, 1.0, -1e16) == 0.0
        assert net_power(1e16, -1e16, 1.0) == 1.0

    def test_empty_grid(self):
        assert net_power() == 0.0

    def test_exact_balance(self):
        assert net_power(100.0, -100.0) == 0.0


class TestActors:
    def test_static(self):
        actor = StaticActor("node", -260.0)
        assert actor.power(0) == -260.0
        assert actor.power(10_000_000) == -260.0

    def test_static_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StaticActor("bad", math.inf)

    def test_trace_piecewise_constant(self):
        actor = TraceActor("pv", [(1000, 50.0), (3000, 80.0)])
        assert actor.power(0) == 0.0
        assert actor.power(1000) == 50.0
        assert actor.power(2999) == 50.0
        assert actor.power(3000) == 80.0
        assert actor.power(99_000) == 80.0

    def test_trace_needs_points(self):
        with pytest.raises(ValueError):
            TraceActor("pv", [])


class TestBatteryValidation:
    def test_charge_outside_capacity_rejected(self):
        with pytest.raises(ValueError):
            SimpleBattery(capacity_j=100.0, charge_j=150.0)
        with pytest.raises(ValueError):
            SimpleBattery(capacity_j=100.0, charge_j=-1.0)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError):
            SimpleBattery(capacity_j=100.0, efficiency=0.0)
        with pytest.raises(ValueError):
            SimpleBattery(capacity_j=100.0, efficiency=1.5)


class TestSettle:
    def test_surplus_fully_charges(self):
        battery = SimpleBattery(capacity_j=10_000.0)
        assert settle(battery, 0.0, 100.0, 60_000) == (6000.0, 0.0, 6000.0)

    def test_surplus_clamped_by_headroom(self):
        battery = SimpleBattery(capacity_j=10_000.0)
        assert settle(battery, 9000.0, 100.0, 60_000) == (1000.0, 5000.0, 10_000.0)

    def test_surplus_clamped_by_charge_rate(self):
        battery = SimpleBattery(capacity_j=10_000.0, max_charge_rate_w=10.0)
        assert settle(battery, 0.0, 100.0, 1000) == (10.0, 90.0, 10.0)

    def test_zero_delta_is_a_no_op(self):
        battery = SimpleBattery(capacity_j=10_000.0)
        assert settle(battery, 500.0, 0.0, 1000) == (0.0, 0.0, 500.0)

    def test_deficit_discharges(self):
        battery = SimpleBattery(capacity_j=10_000.0)
        assert settle(battery, 100.0, -50.0, 1000) == (-50.0, 0.0, 50.0)

    def test_deficit_beyond_charge_imports_rest(self):
        battery = SimpleBattery(capacity_j=10_000.0)
        assert settle(battery, 30.0, -50.0, 1000) == (-30.0, -20.0, 0.0)

    def test_deficit_clamped_by_discharge_rate(self):
        battery = SimpleBattery(capacity_j=10_000.0, max_discharge_rate_w=20.0)
        assert settle(battery, 5000.0, -50.0, 1000) == (-20.0, -30.0, 4980.0)

    def test_without_storage_everything_hits_the_grid(self):
        assert settle(None, 0.0, -260.0, 1000) == (0.0, -260.0, 0.0)
        assert settle(None, 0.0, 75.0, 2000) == (0.0, 150.0, 0.0)

    def test_efficiency_burns_energy_on_the_way_in(self):
        battery = SimpleBattery(capacity_j=10_000.0, efficiency=0.9)
        delta, grid, charge = settle(battery, 0.0, 100.0, 1000)
        assert (delta, grid) == (100.0, 0.0)
        assert charge == pytest.approx(90.0)

    def test_efficiency_burns_energy_on_the_way_out(self):
        battery = SimpleBattery(capacity_j=10_000.0, efficiency=0.9)
        delta, grid, charge = settle(battery, 100.0, -50.0, 1000)
        assert (delta, grid) == (-50.0, 0.0)
        assert charge == pytest.approx(100.0 - 50.0 / 0.9)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            settle(None, 0.0, 1.0, 0)

    @settings(max_examples=300)
    @given(
        capacity=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        frac=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        charge_rate=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        discharge_rate=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        efficiency=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        deltas=st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        dt_ms=st.integers(min_value=1, max_value=10_000),
    )
    def test_conservation_and_bounds(
        self, capacity, frac, charge_rate, discharge_rate, efficiency, deltas, dt_ms
    ):
        battery = SimpleBattery(
            capacity_j=capacity,
            max_charge_rate_w=charge_rate,
            max_discharge_rate_w=discharge_rate,
            efficiency=efficiency,
        )
        charge = capacity * frac
        for delta_p in deltas:
            before = charge
            storage_delta, grid, charge = settle(battery, charge, delta_p, dt_ms)
            expected = delta_p * dt_ms / 1000.0
            assert storage_delta + grid == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert 0.0 <= charge <= battery.capacity_j * (1 + 1e-12)
            # the charge moves by the settled energy, less what efficiency burns
            if storage_delta > 0:
                assert charge == min(capacity, before + storage_delta * efficiency)
            elif storage_delta < 0:
                assert charge == max(0.0, before + storage_delta / efficiency)
            else:
                assert charge == before


class RecordingController(Controller):
    """Records (time_ms, engine.charge_j) at each step, and its turn in
    the shared order list."""

    controller_id = "recorder"

    def __init__(self, engine, order):
        self.engine = engine
        self.order = order
        self.seen: list[tuple[int, float]] = []

    def step(self, time_ms: int) -> None:
        self.order.append("controller")
        self.seen.append((time_ms, self.engine.charge_j))


def last_tick(grid):
    """The monitor's newest row, by column name."""
    return {name: column[-1].item() for name, column in grid.monitor.log.columns().items()}


class TestEngine:
    def test_single_consumer_passthrough(self):
        grid = Microgrid(dt_ms=1000)
        grid.add_actor(StaticActor("node", -260.0))
        assert grid.step() is None
        tick = last_tick(grid)
        assert tick["delta_p_w"] == -260.0
        assert tick["grid_exchange_j"] == -260.0
        assert tick["storage_delta_j"] == 0.0
        assert tick["time_ms"] == 1000

    def test_zero_actors(self):
        grid = Microgrid(dt_ms=1000)
        grid.step()
        tick = last_tick(grid)
        assert tick["delta_p_w"] == 0.0
        assert tick["grid_exchange_j"] == 0.0

    def test_battery_absorbs_surplus(self):
        grid = Microgrid(
            dt_ms=1000, storage=SimpleBattery(capacity_j=1e6, charge_j=0.0)
        )
        grid.add_actor(StaticActor("pv", 500.0))
        grid.add_actor(StaticActor("node", -300.0))
        grid.step()
        tick = last_tick(grid)
        assert tick["delta_p_w"] == 200.0
        assert tick["storage_delta_j"] == 200.0
        assert tick["grid_exchange_j"] == 0.0
        assert tick["storage_charge_j"] == 200.0

    def test_controller_sees_current_power_and_previous_settlement(self):
        order: list[str] = []

        class Pv(Actor):
            actor_id = "pv"

            def power(self, time_ms):
                order.append("actor")
                return 100.0

        grid = Microgrid(
            dt_ms=1000, storage=SimpleBattery(capacity_j=1e6, charge_j=40.0)
        )
        recorder = RecordingController(grid, order)
        grid.add_actor(Pv())
        grid.add_controller(recorder)
        grid.step()
        grid.step()
        assert order == ["actor", "controller"] * 2
        # each step sees the charge the previous settlement left
        assert recorder.seen == [(1000, 40.0), (2000, 140.0)]
        assert grid.charge_j == 240.0

    def test_runs_leave_the_spec_unchanged(self):
        battery = SimpleBattery(capacity_j=1e6, charge_j=40.0)
        charges = []
        for _ in range(2):
            grid = Microgrid(dt_ms=1000, storage=battery)
            grid.add_actor(StaticActor("pv", 100.0))
            grid.run(3000)
            charges.append(grid.monitor.log.columns()["storage_charge_j"].tolist())
        assert charges == [[140.0, 240.0, 340.0]] * 2
        assert battery.charge_j == 40.0

    def test_actor_added_after_first_step_rejected(self):
        grid = Microgrid(dt_ms=1000)
        grid.add_actor(StaticActor("a", 1.0))
        grid.step()
        with pytest.raises(ValueError, match="after the first step"):
            grid.add_actor(StaticActor("b", 2.0))
        assert [a.actor_id for a in grid.actors] == ["a"]
        assert grid.monitor.log.header[-1] == "actor.a_w"

    def test_duplicate_actor_id_rejected(self):
        grid = Microgrid(dt_ms=1000)
        grid.add_actor(StaticActor("a", 1.0))
        with pytest.raises(ValueError):
            grid.add_actor(StaticActor("a", 2.0))

    def test_failing_actor_becomes_step_error(self):
        class Broken(Actor):
            actor_id = "broken"

            def power(self, time_ms):
                raise RuntimeError("sensor offline")

        grid = Microgrid(dt_ms=1000)
        grid.add_actor(Broken())
        with pytest.raises(StepError) as excinfo:
            grid.step()
        assert excinfo.value.step_index == 0
        assert "broken" in str(excinfo.value)

    def test_failing_controller_becomes_step_error(self):
        class Explode(Controller):
            def step(self, time_ms):
                raise RuntimeError("controller bug")

        grid = Microgrid(dt_ms=1000)
        grid.add_controller(Explode())
        with pytest.raises(StepError) as excinfo:
            grid.step()
        assert excinfo.value.step_index == 0

    def test_non_finite_actor_power_becomes_step_error(self):
        class NaNActor(Actor):
            actor_id = "nan"

            def power(self, time_ms):
                return math.nan

        grid = Microgrid(dt_ms=1000)
        grid.add_actor(NaNActor())
        with pytest.raises(StepError):
            grid.step()


class TestRun:
    def test_constant_scenario_yields_identical_ticks(self):
        grid = Microgrid(dt_ms=1000)
        grid.add_actor(StaticActor("node", -50.0))
        monitor = grid.run(10_000)
        ticks = monitor.log.columns()
        assert len(monitor.log) == 10
        assert ticks["t"].tolist() == list(range(10))
        assert ticks["time_ms"].tolist() == [(k + 1) * 1000 for k in range(10)]
        assert set(ticks["delta_p_w"].tolist()) == {-50.0}

    def test_duration_must_be_positive_multiple_of_dt(self):
        grid = Microgrid(dt_ms=1000)
        with pytest.raises(ValueError):
            grid.run(1500)
        with pytest.raises(ValueError):
            grid.run(0)
        with pytest.raises(ValueError):
            grid.run(-1000)

    def test_deterministic_replay_is_byte_identical(self):
        def build():
            grid = Microgrid(
                dt_ms=1000, storage=SimpleBattery(capacity_j=500.0, charge_j=250.0)
            )
            grid.add_actor(TraceActor("pv", [(0, 120.0), (5000, 20.0)]))
            grid.add_actor(StaticActor("node", -80.0))
            grid.run(12_000)
            return grid.monitor.csv_bytes()

        assert build() == build()

    def test_long_virtual_scenario_tick_count(self):
        grid = Microgrid(dt_ms=1000)
        grid.add_actor(StaticActor("node", -260.0))
        monitor = grid.run(80 * 60 * 1000)
        assert len(monitor.log) == 4800


class TestMonitorCsv:
    def test_exact_serialization(self):
        grid = Microgrid(dt_ms=1000)
        grid.add_actor(StaticActor("pv", 500.0))
        grid.add_actor(StaticActor("node", -300.0))
        grid.run(2000)
        expected = (
            "t,time_ms,delta_p_w,e_last_j,storage_charge_j,storage_delta_j,"
            "grid_exchange_j,actor.pv_w,actor.node_w\r\n"
            "0,1000,200.0,0.0,0.0,0.0,200.0,500.0,-300.0\r\n"
            "1,2000,200.0,200.0,0.0,0.0,200.0,500.0,-300.0\r\n"
        )
        assert grid.monitor.csv_bytes().decode() == expected

    def test_header_only_when_empty(self):
        grid = Microgrid(dt_ms=1000)
        grid.add_actor(StaticActor("pv", 1.0))
        assert grid.monitor.csv_bytes().decode() == (
            "t,time_ms,delta_p_w,e_last_j,storage_charge_j,storage_delta_j,"
            "grid_exchange_j,actor.pv_w\r\n"
        )


def benchmark(levels, runtime_ms, bank=None, knob="rps"):
    """A benchmark controller walking a custom schedule of these levels."""
    schedule = LoadSchedule("custom", tuple(levels), runtime_ms, knob)
    if bank is None:
        bank = dict.fromkeys(LOAD_KNOBS, 0.0)
    return BenchmarkController(schedule, bank)


class TestBenchmarkController:
    def test_two_iteration_trace(self):
        ctrl = benchmark([250, 500], runtime_ms=600_000)
        ctrl.step(0)
        assert ctrl.events == [("start", 250, 0)]
        ctrl.step(600_000)
        assert ctrl.events == [
            ("start", 250, 0),
            ("stop", 250, 600_000),
            ("start", 500, 600_000),
        ]
        assert not ctrl.done

    def test_no_action_before_runtime_elapses(self):
        ctrl = benchmark([250, 500], runtime_ms=600_000)
        ctrl.step(0)
        ctrl.step(1000)
        ctrl.step(599_999)
        assert ctrl.events == [("start", 250, 0)]

    def test_exhausted_schedule_completes_once(self):
        ctrl = benchmark([250], runtime_ms=1000)
        ctrl.step(0)
        assert not ctrl.done
        ctrl.step(1000)
        assert ctrl.done
        ctrl.step(2000)
        ctrl.step(99_000)
        assert ctrl.events == [("start", 250, 0), ("complete", 250, 1000)]

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_event_counts_match_schedule_length(self, n):
        schedule = [250 * (i + 1) for i in range(n)]
        ctrl = benchmark(schedule, runtime_ms=10_000)
        t = 0
        while not ctrl.done:
            ctrl.step(t)
            t += 1000
        actions = [a for a, _, _ in ctrl.events]
        assert actions.count("start") == n
        assert actions.count("stop") + actions.count("complete") == n
        assert actions.count("complete") == 1
        started = [v for a, v, _ in ctrl.events if a == "start"]
        assert started == schedule

    def test_drives_the_schedule_knob_on_the_load_bank(self):
        bank = dict.fromkeys(LOAD_KNOBS, 0.0)
        ctrl = benchmark([1, 4], runtime_ms=2000, bank=bank, knob="threads")
        seen = []
        for t in (0, 1000, 2000, 3000, 4000, 5000):
            ctrl.step(t)
            seen.append((bank["threads"], bank["rps"]))
        assert seen == [(1.0, 0.0), (1.0, 0.0), (4.0, 0.0), (4.0, 0.0), (0.0, 0.0), (0.0, 0.0)]
        assert [a for a, _, _ in ctrl.events] == ["start", "stop", "start", "complete"]

    def test_reads_the_schedule_once(self):
        reads = []

        class Counted(LoadSchedule):
            @property
            def levels(self):
                reads.append(1)
                return super().levels

        loads = dict.fromkeys(LOAD_KNOBS, 0.0)
        ctrl = BenchmarkController(Counted("custom", (1.0, 2.0), 1000, "rps"), loads)
        for t in range(0, 10_000, 250):
            ctrl.step(t)
        assert ctrl.done
        assert len(reads) == 1

    def test_runs_inside_engine(self):
        ctrl = benchmark([10, 20, 30], runtime_ms=3000)
        grid = Microgrid(dt_ms=1000)
        grid.add_controller(ctrl)
        grid.run(12_000)
        actions = [a for a, _, _ in ctrl.events]
        assert actions.count("start") == 3
        assert actions.count("stop") == 2
        assert actions.count("complete") == 1
        assert ctrl.done
