"""Config schema: strict parsing, field paths, presets, round trips."""

import copy
import dataclasses
import json
import math
import re
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcalib.config import (
    IDLE_SPLIT_MODES,
    M_IDLE_CAPTURE_MODES,
    PRESETS,
    NamespaceActorSpec,
    ScenarioConfig,
    config_to_dict,
    load_config,
    parse_config,
    preset_config,
    preset_names,
    resolve_config,
)
from gridcalib.emulation import (
    BUILTIN_SCHEDULES,
    LOAD_KNOBS,
    WORKLOAD_KINDS,
    ApproximationParams,
    LoadSchedule,
    MeterSpec,
    WorkloadSpec,
)
from gridcalib.errors import ConfigError
from gridcalib.microgrid import SimpleBattery, StaticActor, TraceActor, settle


def minimal_dict(**overrides):
    data = {"duration_ms": 10_000, "seed": 7}
    data.update(overrides)
    return data


class TestTopLevel:
    def test_defaults(self):
        cfg = parse_config(minimal_dict())
        assert cfg.duration_ms == 10_000
        assert cfg.seed == 7
        assert cfg.dt_ms == 1000
        assert cfg.warmup_ms == 30_000
        assert cfg.query_window_ms == 2000
        assert cfg.idle_split == "even"
        assert cfg.workloads == ()
        assert cfg.schedule is None
        assert cfg.storage is None

    def test_meter_seed_defaults_to_scenario_seed(self):
        cfg = parse_config(minimal_dict())
        assert cfg.meter.seed == 7

    def test_explicit_meter_seed_wins(self):
        cfg = parse_config(minimal_dict(meter={"seed": 99}))
        assert cfg.meter.seed == 99

    @pytest.mark.parametrize("key", ["duration_ms", "seed"])
    def test_required_fields(self, key):
        data = minimal_dict()
        del data[key]
        with pytest.raises(ConfigError, match=f"{key}: required"):
            parse_config(data)

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="durration_ms: unknown field"):
            parse_config(minimal_dict(durration_ms=5))

    def test_type_errors_name_the_field(self):
        with pytest.raises(ConfigError, match="duration_ms: expected an integer"):
            parse_config({"duration_ms": "long", "seed": 1})
        # booleans are ints in Python; the schema still rejects them
        with pytest.raises(ConfigError, match="seed: expected an integer"):
            parse_config({"duration_ms": 1000, "seed": True})
        with pytest.raises(ConfigError, match="strict_signals: expected true or false"):
            parse_config(minimal_dict(strict_signals="yes"))

    def test_duration_must_divide_by_dt(self):
        with pytest.raises(ConfigError, match="duration_ms: must be a positive multiple"):
            parse_config({"duration_ms": 1500, "seed": 1, "dt_ms": 1000})

    def test_not_an_object(self):
        with pytest.raises(ConfigError, match="expected an object"):
            parse_config([1, 2, 3])


class TestWorkloads:
    def test_full_workload(self):
        cfg = parse_config(
            minimal_dict(
                workloads=[
                    {
                        "process_id": "svc",
                        "kind": "service",
                        "namespace": "team-a",
                        "idle_share_w": 12.5,
                        "dyn_coeff_w": 0.05,
                        "load_knob": "rps",
                        "noise_sigma_w": 0.5,
                        "leakage_lambda": 0.25,
                    }
                ]
            )
        )
        w = cfg.workloads[0]
        assert w.namespace == "team-a"
        assert w.leakage_lambda == 0.25

    def test_bad_kind_carries_path(self):
        data = minimal_dict(workloads=[{"process_id": "x", "kind": "weird"}])
        with pytest.raises(ConfigError, match=r"^workloads\[0\]\.kind: must be one of"):
            parse_config(data)

    def test_unknown_nested_field(self):
        data = minimal_dict(workloads=[{"process_id": "x", "watts": 3}])
        with pytest.raises(ConfigError, match=r"workloads\[0\]\.watts: unknown field"):
            parse_config(data)

    def test_missing_process_id(self):
        data = minimal_dict(workloads=[{"kind": "service"}])
        with pytest.raises(ConfigError, match=r"workloads\[0\]\.process_id: required"):
            parse_config(data)

    def test_duplicate_process_ids(self):
        data = minimal_dict(
            workloads=[{"process_id": "x"}, {"process_id": "x"}]
        )
        with pytest.raises(ConfigError, match="duplicate process_id"):
            parse_config(data)


class TestSchedule:
    def base(self, **sched):
        return minimal_dict(
            workloads=[{"process_id": "svc"}], schedule=sched
        )

    def test_builtin_rps(self):
        cfg = parse_config(self.base(kind="rps"))
        assert cfg.schedule.levels == tuple(range(250, 2001, 250))
        assert cfg.schedule.runtime_ms == 600_000
        assert cfg.schedule.knob == "rps"

    def test_runtime_override(self):
        cfg = parse_config(self.base(kind="batch", runtime_ms=960_000))
        assert cfg.schedule.levels == (1, 4, 8, 16, 32)
        assert cfg.schedule.runtime_ms == 960_000
        assert cfg.schedule.knob == "batch_size"

    def test_builtin_values_fixed(self):
        with pytest.raises(ConfigError, match=r"schedule\.values: only allowed"):
            parse_config(self.base(kind="rps", values=[1, 2]))

    def test_custom_needs_values_and_knob(self):
        with pytest.raises(ConfigError, match=r"schedule\.values: required"):
            parse_config(self.base(kind="custom", knob="rps"))
        with pytest.raises(ConfigError, match=r"schedule\.knob: required"):
            parse_config(self.base(kind="custom", values=[10, 20]))

    def test_custom_schedule(self):
        cfg = parse_config(
            self.base(kind="custom", values=[5, 10], knob="threads", runtime_ms=2000)
        )
        assert cfg.schedule.values == cfg.schedule.levels == (5.0, 10.0)
        assert cfg.schedule.knob == "threads"

    @pytest.mark.parametrize("bad", [-5.0, math.inf, math.nan])
    @pytest.mark.parametrize("index", [0, 1])
    def test_custom_values_must_be_finite_and_non_negative(self, bad, index):
        # rejected at parse time, not at the first emission mid-run
        values = [bad, 2.0] if index == 0 else [2.0, bad]
        data = self.base(kind="custom", values=values, knob="rps", runtime_ms=1000)
        with pytest.raises(
            ConfigError, match=rf"^schedule\.values\[{index}\]: must be finite and non-negative"
        ):
            parse_config(data)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match=r"schedule\.kind: must be one of"):
            parse_config(self.base(kind="spiral"))

    def test_schedule_requires_workloads(self):
        data = minimal_dict(schedule={"kind": "rps"})
        with pytest.raises(ConfigError, match="schedule: requires at least one workload"):
            parse_config(data)


class TestActors:
    def test_three_kinds(self):
        cfg = parse_config(
            minimal_dict(
                workloads=[{"process_id": "svc"}],
                actors=[
                    {"type": "namespace", "namespace": "bench"},
                    {"type": "static", "actor_id": "pv", "power_w": 150.0},
                    {"type": "trace", "actor_id": "house", "points": [[0, -50], [5000, -80.5]]},
                ],
            )
        )
        ns, static, trace = cfg.actors
        assert isinstance(ns, NamespaceActorSpec) and ns.resolved_id == "ns.bench"
        assert isinstance(static, StaticActor) and static.power_w == 150.0
        assert isinstance(trace, TraceActor) and trace.points == ((0, -50.0), (5000, -80.5))

    def test_unknown_type(self):
        data = minimal_dict(actors=[{"type": "windmill"}])
        with pytest.raises(ConfigError, match=r"actors\[0\]\.type: must be"):
            parse_config(data)

    def test_bad_trace_point(self):
        data = minimal_dict(actors=[{"type": "trace", "actor_id": "t", "points": [[1, 2, 3]]}])
        with pytest.raises(ConfigError, match=r"actors\[0\]\.points\[0\]"):
            parse_config(data)

    def test_namespace_actor_needs_workloads(self):
        data = minimal_dict(actors=[{"type": "namespace", "namespace": "bench"}])
        with pytest.raises(ConfigError, match="needs at least one workload"):
            parse_config(data)

    @pytest.mark.parametrize("namespace", ["bnech", "system"])
    def test_namespace_actor_needs_a_workload_in_its_namespace(self, namespace):
        # it would observe nothing and report 0 W on every tick; system's
        # calibrated dynamic power is 0 by construction
        data = minimal_dict(
            workloads=[{"process_id": "svc", "namespace": "bench"}],
            actors=[
                {"type": "static", "actor_id": "pv", "power_w": 1.0},
                {"type": "namespace", "namespace": namespace},
            ],
        )
        with pytest.raises(
            ConfigError, match=rf"^actors\[1\]\.namespace: no workload runs in '{namespace}'$"
        ):
            parse_config(data)

    def test_duplicate_actor_ids(self):
        data = minimal_dict(
            workloads=[{"process_id": "svc"}],
            actors=[
                {"type": "namespace", "namespace": "bench"},
                {"type": "static", "actor_id": "ns.bench", "power_w": 1.0},
            ],
        )
        with pytest.raises(ConfigError, match="duplicate actor id"):
            parse_config(data)


class TestStorageAndMeter:
    def test_storage_parse_and_build(self):
        cfg = parse_config(
            minimal_dict(
                storage={"capacity_j": 5000, "charge_j": 100, "max_charge_rate_w": 50}
            )
        )
        assert cfg.storage == SimpleBattery(
            capacity_j=5000.0, charge_j=100.0, max_charge_rate_w=50.0
        )
        assert cfg.storage.max_discharge_rate_w is None

    def test_storage_invariants_surface_at_parse(self):
        data = minimal_dict(storage={"capacity_j": 100, "charge_j": 500})
        with pytest.raises(ConfigError, match=r"^storage\.charge_j:"):
            parse_config(data)

    def test_meter_error_caps(self):
        data = minimal_dict(meter={"relative_error_v": 0.5})
        with pytest.raises(ConfigError, match=r"^meter\.relative_error_v:"):
            parse_config(data)

    def test_null_sections_mean_defaults(self):
        cfg = parse_config(minimal_dict(schedule=None, storage=None, meter=None))
        assert cfg.schedule is None and cfg.storage is None
        assert cfg.meter.seed == 7


class TestDirectConstruction:
    def test_query_window_whole_seconds(self):
        with pytest.raises(ConfigError, match="query_window_ms"):
            ScenarioConfig(duration_ms=1000, seed=1, query_window_ms=1500)

    def test_capture_mode(self):
        with pytest.raises(ConfigError, match="m_idle_capture"):
            ScenarioConfig(duration_ms=1000, seed=1, m_idle_capture="median")

    def test_idle_split(self):
        with pytest.raises(ConfigError, match="idle_split"):
            ScenarioConfig(duration_ms=1000, seed=1, idle_split="by-fiat")

    def test_knob_inferred_from_builtin_kind(self):
        cfg = ScenarioConfig(
            duration_ms=1000,
            seed=1,
            workloads=(WorkloadSpec(process_id="x", load_knob="threads"),),
            schedule=LoadSchedule("threads"),
        )
        assert cfg.schedule.knob == "threads"
        assert cfg.schedule == LoadSchedule("threads", knob="threads")


class TestFilesAndPresets:
    def test_load_config(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_dict()))
        cfg = load_config(path)
        assert cfg.duration_ms == 10_000

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_preset_names(self):
        assert preset_names() == ["cpu-offset", "gpu-leakage", "minimal", "regression"]

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("toaster")

    def test_resolve_scheme(self):
        assert resolve_config("preset:minimal") is PRESETS["minimal"]

    def test_resolve_path(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_dict()))
        assert resolve_config(str(path)).seed == 7

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_round_trip(self, name):
        # canonical dict form reparses to an equal config
        cfg = PRESETS[name]
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_preset_shapes(self):
        gpu = PRESETS["gpu-leakage"]
        assert gpu.workloads[0].leakage_lambda == pytest.approx(1 / 3)
        assert gpu.schedule.runtime_ms == 960_000
        assert gpu.duration_ms % gpu.dt_ms == 0
        cpu = PRESETS["cpu-offset"]
        assert cpu.approximation.gain == 1.035
        assert cpu.system_baseline_w == 0.0
        reg = PRESETS["regression"]
        assert (reg.approximation.gain, reg.approximation.bias_w) == (1.01, 5.23)
        assert reg.approximation.sigma_w == 1.0
        assert PRESETS["minimal"].workloads == ()

    def test_round_trip_with_all_sections(self):
        data = minimal_dict(
            workloads=[{"process_id": "svc", "dyn_coeff_w": 0.1}],
            schedule={"kind": "custom", "values": [1, 2], "knob": "rps", "runtime_ms": 5000},
            actors=[
                {"type": "namespace", "namespace": "bench", "actor_id": "main"},
                {"type": "trace", "actor_id": "t", "points": [[0, 1.0]]},
            ],
            storage={"capacity_j": 100.0},
            outputs="out/here",
        )
        cfg = parse_config(data)
        assert parse_config(config_to_dict(cfg)) == cfg


def test_storage_spec_none_rates_unlimited():
    # with a None rate, settlement takes the whole surplus up to the headroom
    battery = parse_config(minimal_dict(storage={"capacity_j": 10.0})).storage
    assert (battery.max_charge_rate_w, battery.max_discharge_rate_w) == (None, None)
    assert battery.efficiency == 1.0
    assert settle(battery, 0.0, 1e9, 1000) == (10.0, 1e9 - 10.0, 10.0)
    assert settle(battery, 10.0, -1e9, 1000) == (-10.0, -(1e9 - 10.0), 0.0)


def test_approximation_defaults():
    assert parse_config(minimal_dict()).approximation == ApproximationParams()


def test_readme_json_blocks_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
    assert blocks
    for block in blocks:
        parse_config(json.loads(block))


def test_readme_python_block_runs(tmp_path, monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


# --- the walker: a round trip over random configs, and a wrong-type table ---

names = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
watts = st.floats(min_value=0.0, max_value=1e6)
signed_watts = st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def scenario_configs(draw):
    pids = draw(st.lists(names, max_size=3, unique=True))
    workloads = tuple(
        WorkloadSpec(
            process_id=pid,
            kind=draw(st.sampled_from(WORKLOAD_KINDS)),
            namespace=draw(names),
            idle_share_w=draw(watts),
            dyn_coeff_w=draw(watts),
            load_knob=draw(st.sampled_from(LOAD_KNOBS)),
            noise_sigma_w=draw(watts),
            leakage_lambda=draw(st.floats(min_value=0.0, max_value=0.99)),
        )
        for pid in pids
    )
    schedule = None
    runtime_ms = draw(st.integers(min_value=1, max_value=10**7))
    shape = draw(st.sampled_from(["none", "builtin", "custom"] if workloads else ["none"]))
    if shape == "builtin":
        kind = draw(st.sampled_from(sorted(BUILTIN_SCHEDULES)))
        knob = draw(st.none() | st.sampled_from(LOAD_KNOBS))
        schedule = LoadSchedule(kind, runtime_ms=runtime_ms, knob=knob)
    elif shape == "custom":
        values = draw(st.lists(watts, min_size=1, max_size=4))
        knob = draw(st.sampled_from(LOAD_KNOBS))
        schedule = LoadSchedule("custom", tuple(values), runtime_ms, knob)
    seed = draw(st.integers(min_value=0, max_value=2**32))
    meter = draw(
        st.none()
        | st.builds(
            MeterSpec,
            voltage_v=st.floats(min_value=1.0, max_value=400.0),
            relative_error_v=st.floats(min_value=0.0, max_value=0.01),
            relative_error_i=st.floats(min_value=0.0, max_value=0.015),
            relative_error_phi=st.floats(min_value=0.0, max_value=0.01),
            sample_interval_ms=st.integers(min_value=1, max_value=5000),
            seed=st.just(seed) | st.integers(min_value=0, max_value=2**32),
        )
    )
    approximation = draw(
        st.none()
        | st.builds(
            ApproximationParams,
            gain=st.floats(min_value=0.1, max_value=10.0),
            bias_w=signed_watts,
            sigma_w=watts,
        )
    )
    actor_kinds = [
        st.builds(StaticActor, actor_id=names, power_w=signed_watts),
        st.builds(
            TraceActor,
            actor_id=names,
            points=st.lists(
                st.tuples(st.integers(min_value=0, max_value=10**9), signed_watts),
                min_size=1,
                max_size=3,
            ).map(tuple),
        ),
    ]
    if workloads:
        actor_kinds.append(
            st.builds(
                NamespaceActorSpec,
                namespace=st.sampled_from(sorted({w.namespace for w in workloads})),
                actor_id=st.none() | names,
            )
        )
    actors = draw(
        st.lists(
            st.one_of(actor_kinds),
            max_size=4,
            unique_by=lambda a: getattr(a, "resolved_id", a.actor_id),
        )
    )
    storage = None
    if draw(st.booleans()):
        capacity = draw(watts)
        storage = SimpleBattery(
            capacity_j=capacity,
            charge_j=capacity * draw(st.floats(min_value=0.0, max_value=1.0)),
            max_charge_rate_w=draw(st.none() | watts),
            max_discharge_rate_w=draw(st.none() | watts),
            efficiency=draw(st.floats(min_value=0.01, max_value=1.0)),
        )
    dt_ms = draw(st.sampled_from([1, 250, 1000]))
    return ScenarioConfig(
        duration_ms=dt_ms * draw(st.integers(min_value=1, max_value=10**4)),
        seed=seed,
        dt_ms=dt_ms,
        warmup_ms=draw(st.integers(min_value=0, max_value=10**6)),
        emission_interval_ms=draw(st.integers(min_value=1, max_value=10**4)),
        signal_interval_ms=draw(st.integers(min_value=1, max_value=10**4)),
        query_window_ms=1000 * draw(st.integers(min_value=1, max_value=10)),
        m_idle_capture=draw(st.sampled_from(M_IDLE_CAPTURE_MODES)),
        strict_signals=draw(st.booleans()),
        idle_split=draw(st.sampled_from(IDLE_SPLIT_MODES)),
        system_baseline_w=draw(watts),
        workloads=workloads,
        schedule=schedule,
        meter=meter,
        approximation=approximation,
        actors=tuple(actors),
        storage=storage,
        outputs=draw(st.none() | names),
    )


def _integral_as_int(value):
    # -0.0 has no integer spelling
    if isinstance(value, float) and value.is_integer() and repr(value) != "-0.0":
        return int(value)
    if isinstance(value, list):
        return [_integral_as_int(v) for v in value]
    if isinstance(value, dict):
        return {k: _integral_as_int(v) for k, v in value.items()}
    return value


@settings(max_examples=200, deadline=None)
@given(scenario_configs())
def test_json_round_trip(cfg):
    text = json.dumps(config_to_dict(cfg), sort_keys=True)
    data = json.loads(text)
    assert parse_config(data) == cfg
    # a float field written as an integer still reads, and writes, as a float
    rewritten = config_to_dict(parse_config(_integral_as_int(data)))
    assert json.dumps(rewritten, sort_keys=True) == text
    if cfg.meter.seed == cfg.seed:
        # a meter without a seed takes the scenario's
        del data["meter"]["seed"]
        assert parse_config(data) == cfg


# One valid config that holds every spec class, and where each class sits.
FULL_CONFIG = {
    "duration_ms": 10_000,
    "seed": 7,
    "workloads": [{"process_id": "svc"}],
    "schedule": {"kind": "custom", "values": [1.0], "knob": "rps"},
    "meter": {},
    "approximation": {},
    "actors": [
        {"type": "namespace", "namespace": "bench"},
        {"type": "static", "actor_id": "s", "power_w": 1.0},
        {"type": "trace", "actor_id": "t", "points": [[0, 1.0]]},
    ],
    "storage": {"capacity_j": 10.0},
}
SPEC_PATHS = {
    ScenarioConfig: "",
    WorkloadSpec: "workloads[0]",
    LoadSchedule: "schedule",
    MeterSpec: "meter",
    ApproximationParams: "approximation",
    NamespaceActorSpec: "actors[0]",
    StaticActor: "actors[1]",
    TraceActor: "actors[2]",
    SimpleBattery: "storage",
}


def _wrong_type_cases():
    for cls, path in SPEC_PATHS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            tp = hints[f.name]
            if type(None) in typing.get_args(tp):
                tp = typing.get_args(tp)[0]
            wrong = 5 if tp is str else "x"
            full = f"{path}.{f.name}" if path else f.name
            yield pytest.param(path, f.name, wrong, full, id=f"{cls.__name__}.{f.name}")


def _at(data, path):
    for part in filter(None, path.split(".")):
        name, _, index = part.partition("[")
        data = data[name]
        if index:
            data = data[int(index.rstrip("]"))]
    return data


def test_full_config_is_valid():
    parse_config(FULL_CONFIG)


@pytest.mark.parametrize("obj_path, key, wrong, full", list(_wrong_type_cases()))
def test_wrong_type_names_the_field(obj_path, key, wrong, full):
    data = copy.deepcopy(FULL_CONFIG)
    _at(data, obj_path)[key] = wrong
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert str(err.value).startswith(f"{full}: expected ")


def _with(section, value, **extra):
    return {**copy.deepcopy(FULL_CONFIG), section: value, **extra}


def _workload(**fields):
    return _with("workloads", [{"process_id": "svc", **fields}])


def _actor(**fields):
    return _with("actors", [fields])


def _storage(**fields):
    return _with("storage", {"capacity_j": 10.0, **fields})


# one document per single-field spec check, and the field it must name;
# the run's components take these values as given, so each check here is
# the only one its value meets
FIELD_CHECKS = [
    (_with("dt_ms", 0), "dt_ms"),
    (_with("duration_ms", 1500), "duration_ms"),
    (_with("warmup_ms", -1), "warmup_ms"),
    (_with("emission_interval_ms", 0), "emission_interval_ms"),
    (_with("signal_interval_ms", 0), "signal_interval_ms"),
    (_with("query_window_ms", 1500), "query_window_ms"),
    (_with("m_idle_capture", "median"), "m_idle_capture"),
    (_with("idle_split", "by-fiat"), "idle_split"),
    (_with("system_baseline_w", -1.0), "system_baseline_w"),
    (_with("system_baseline_w", math.inf), "system_baseline_w"),
    (_workload(kind="weird"), "workloads[0].kind"),
    (_workload(load_knob="dial"), "workloads[0].load_knob"),
    (_workload(namespace="system"), "workloads[0].namespace"),
    (_workload(process_id="system"), "workloads[0].process_id"),
    (_workload(idle_share_w=-1.0), "workloads[0].idle_share_w"),
    (_workload(dyn_coeff_w=math.inf), "workloads[0].dyn_coeff_w"),
    (_workload(noise_sigma_w=-1.0), "workloads[0].noise_sigma_w"),
    (_workload(leakage_lambda=1.0), "workloads[0].leakage_lambda"),
    (_with("schedule", {"kind": "rps", "runtime_ms": 0}), "schedule.runtime_ms"),
    (_with("schedule", {"kind": "custom", "values": [], "knob": "rps"}), "schedule.values"),
    (_with("schedule", {"kind": "custom", "values": [1.0], "knob": "dial"}), "schedule.knob"),
    (_with("meter", {"voltage_v": 0.0}), "meter.voltage_v"),
    (_with("meter", {"relative_error_i": 0.5}), "meter.relative_error_i"),
    (_with("meter", {"relative_error_phi": -0.1}), "meter.relative_error_phi"),
    (_with("meter", {"sample_interval_ms": 0}), "meter.sample_interval_ms"),
    (_with("approximation", {"gain": 0.0}), "approximation.gain"),
    (_with("approximation", {"bias_w": math.nan}), "approximation.bias_w"),
    (_with("approximation", {"sigma_w": -1.0}), "approximation.sigma_w"),
    (_actor(type="namespace", namespace=""), "actors[0].namespace"),
    (_actor(type="static", actor_id="", power_w=1.0), "actors[0].actor_id"),
    (_actor(type="static", actor_id="s", power_w=math.inf), "actors[0].power_w"),
    (_actor(type="trace", actor_id="", points=[[0, 1.0]]), "actors[0].actor_id"),
    (_actor(type="trace", actor_id="t", points=[]), "actors[0].points"),
    (_actor(type="trace", actor_id="t", points=[[0, math.nan]]), "actors[0].points[0]"),
    (_storage(capacity_j=-1.0), "storage.capacity_j"),
    (_storage(charge_j=50.0), "storage.charge_j"),
    (_storage(max_charge_rate_w=-1.0), "storage.max_charge_rate_w"),
    (_storage(max_discharge_rate_w=-1.0), "storage.max_discharge_rate_w"),
    (_storage(efficiency=0.0), "storage.efficiency"),
]
# NaN compares false with any bound, so a check written as `value < 0`
# lets it through; these two documents pin the rate checks against it
NAN_CHECKS = [
    (_storage(max_charge_rate_w=math.nan), "storage.max_charge_rate_w"),
    (_storage(max_discharge_rate_w=math.nan), "storage.max_discharge_rate_w"),
]


@pytest.mark.parametrize(
    "data, path",
    FIELD_CHECKS + NAN_CHECKS,
    ids=[p for _, p in FIELD_CHECKS] + [f"{p}=nan" for _, p in NAN_CHECKS],
)
def test_spec_check_names_its_field(data, path):
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize(
    "data, message",
    [
        (
            _with("schedule", {"kind": "rps", "knob": None}),
            "schedule.knob: expected a string, got None",
        ),
        (
            _with("schedule", {"kind": "custom", "values": None, "knob": "rps"}),
            "schedule.values: expected a list, got NoneType",
        ),
        (
            _actor(type="namespace", namespace="bench", actor_id=None),
            "actors[0].actor_id: expected a string, got None",
        ),
    ],
)
def test_omitted_fields_take_no_null(data, message):
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert str(err.value) == message


def test_omitted_fields_leave_the_json():
    actors = [{"type": "namespace", "namespace": "bench"}]
    data = _with("schedule", {"kind": "batch"}, actors=actors)
    out = config_to_dict(parse_config(data))
    assert out["schedule"] == {"kind": "batch", "runtime_ms": 600_000, "knob": "batch_size"}
    assert out["actors"] == [{"namespace": "bench", "type": "namespace"}]
