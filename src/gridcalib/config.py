"""Scenario configuration: a strict JSON schema, file loading, and presets.

The spec dataclasses are the schema: ScenarioConfig and the specs it
holds (WorkloadSpec, LoadSchedule, MeterSpec, ApproximationParams,
NamespaceActorSpec, and the microgrid's StaticActor, TraceActor and
SimpleBattery, which the engine runs as parsed). One walker reads their
fields both ways: parse_config checks a JSON object against them,
config_to_dict writes a config back. Each JSON key sits at its field's
path. The parser rejects unknown fields at every nesting level and
reports problems with the full field path ("workloads[0].kind: ..."),
so typos in a scenario sweep fail loudly instead of silently running
defaults.
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any

from .emulation import (
    IDLE_SPLIT_MODES,
    ApproximationParams,
    LoadSchedule,
    MeterSpec,
    WorkloadSpec,
)
from .errors import ConfigError, InvalidField
from .microgrid import SimpleBattery, StaticActor, TraceActor

PRESET_SCHEME = "preset:"

M_IDLE_CAPTURE_MODES = ("averaged", "single")


@dataclass(frozen=True)
class NamespaceActorSpec:
    """A calibrated-power consumer for one namespace; the run builds its
    actor on the calibration stage. A None actor_id is omitted from JSON."""

    namespace: str
    actor_id: str | None = field(default=None, metadata={"omit_none": True})

    def __post_init__(self):
        if not self.namespace:
            raise InvalidField("namespace: must be non-empty")

    @property
    def resolved_id(self) -> str:
        return self.actor_id if self.actor_id is not None else f"ns.{self.namespace}"


ActorSpec = NamespaceActorSpec | StaticActor | TraceActor


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs; immutable so presets can be shared."""

    duration_ms: int
    seed: int
    dt_ms: int = 1000
    warmup_ms: int = 30_000
    emission_interval_ms: int = 1000
    signal_interval_ms: int = 1000
    query_window_ms: int = 2000
    m_idle_capture: str = "averaged"
    strict_signals: bool = False
    idle_split: str = "even"
    system_baseline_w: float = 5.0
    workloads: tuple[WorkloadSpec, ...] = ()
    schedule: LoadSchedule | None = None
    meter: MeterSpec | None = None
    approximation: ApproximationParams | None = None
    actors: tuple[ActorSpec, ...] = ()
    storage: SimpleBattery | None = None
    outputs: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "actors", tuple(self.actors))
        if self.dt_ms <= 0:
            raise ConfigError(f"dt_ms: must be positive, got {self.dt_ms}")
        if self.duration_ms <= 0 or self.duration_ms % self.dt_ms != 0:
            raise ConfigError(
                f"duration_ms: must be a positive multiple of dt_ms "
                f"({self.dt_ms}), got {self.duration_ms}"
            )
        if self.warmup_ms < 0:
            raise ConfigError(f"warmup_ms: must be non-negative, got {self.warmup_ms}")
        if self.emission_interval_ms <= 0:
            raise ConfigError(
                f"emission_interval_ms: must be positive, got {self.emission_interval_ms}"
            )
        if self.signal_interval_ms <= 0:
            raise ConfigError(
                f"signal_interval_ms: must be positive, got {self.signal_interval_ms}"
            )
        if self.query_window_ms < 1000 or self.query_window_ms % 1000 != 0:
            raise ConfigError(
                f"query_window_ms: must be a positive whole number of seconds, "
                f"got {self.query_window_ms}"
            )
        if self.m_idle_capture not in M_IDLE_CAPTURE_MODES:
            raise ConfigError(
                f"m_idle_capture: must be one of {M_IDLE_CAPTURE_MODES}, "
                f"got {self.m_idle_capture!r}"
            )
        if self.idle_split not in IDLE_SPLIT_MODES:
            raise ConfigError(
                f"idle_split: must be one of {IDLE_SPLIT_MODES}, got {self.idle_split!r}"
            )
        if not math.isfinite(self.system_baseline_w) or self.system_baseline_w < 0:
            raise ConfigError(
                f"system_baseline_w: must be finite and non-negative, "
                f"got {self.system_baseline_w!r}"
            )
        seen_pids: set[str] = set()
        for w in self.workloads:
            if w.process_id in seen_pids:
                raise ConfigError(f"workloads: duplicate process_id {w.process_id!r}")
            seen_pids.add(w.process_id)
        if self.schedule is not None and not self.workloads:
            raise ConfigError("schedule: requires at least one workload")
        if self.meter is None:
            object.__setattr__(self, "meter", MeterSpec(seed=self.seed))
        if self.approximation is None:
            object.__setattr__(self, "approximation", ApproximationParams())
        seen_ids: set[str] = set()
        for i, spec in enumerate(self.actors):
            actor_id = spec.actor_id
            if isinstance(spec, NamespaceActorSpec):
                actor_id = spec.resolved_id
                if not self.workloads:
                    raise ConfigError(
                        f"actors: namespace actor {actor_id!r} needs at "
                        "least one workload to observe"
                    )
                # it would report 0 W on every tick
                if all(w.namespace != spec.namespace for w in self.workloads):
                    raise ConfigError(
                        f"actors[{i}].namespace: no workload runs in {spec.namespace!r}"
                    )
            if actor_id in seen_ids:
                raise ConfigError(f"actors: duplicate actor id {actor_id!r}")
            seen_ids.add(actor_id)


# --- the schema walker -------------------------------------------------------
#
# A field without a default is required, and its annotation decides which
# JSON values it accepts. A field whose metadata sets omit_none is left out
# of the JSON when it is None, and it takes no null. One JSON shape
# differs from its dataclass: an actor is tagged by "type".

_ACTOR_TYPES = {
    "namespace": NamespaceActorSpec,
    "static": StaticActor,
    "trace": TraceActor,
}
_ACTOR_TAGS = {cls: tag for tag, cls in _ACTOR_TYPES.items()}

_SCALARS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


@functools.cache
def _schema(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, annotation, required) per field, resolved once per class;
    an omit_none field's annotation drops its None."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            typing.get_args(hints[f.name])[0] if f.metadata.get("omit_none") else hints[f.name],
            f.default is MISSING and f.default_factory is MISSING,
        )
        for f in fields(cls)
    )


def _where(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return dict(value)


def _value(tp: Any, value: Any, where: str) -> Any:
    """Decode one JSON value as annotation tp."""
    if tp == ActorSpec:  # the one union that is not X | None: tagged by "type"
        return _actor(value, where)
    args = typing.get_args(tp)
    if isinstance(tp, types.UnionType):  # X | None
        return None if value is None else _value(args[0], value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        if args[-1] is Ellipsis:
            return tuple(_value(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
        if len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} items, got {len(value)}")
        return tuple(_value(a, v, where) for a, v in zip(args, value))
    if is_dataclass(tp):
        return _build(tp, _mapping(value, where), where)
    accepted, expected = _SCALARS[tp]
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    return float(value) if tp is float else value


def _build(cls: type, d: dict, path: str) -> Any:
    """Construct cls from the JSON object d."""
    schema = _schema(cls)
    for name, _, required in schema:
        if required and name not in d:
            raise ConfigError(f"{_where(path, name)}: required")
    kwargs = {}
    for name, tp, _ in schema:
        if name in d:
            kwargs[name] = _value(tp, d.pop(name), _where(path, name))
    if d:
        raise ConfigError(f"{_where(path, sorted(d)[0])}: unknown field")
    try:
        return cls(**kwargs)
    except InvalidField as exc:
        raise ConfigError(_where(path, str(exc))) from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _actor(value: Any, where: str) -> ActorSpec:
    d = _mapping(value, where)
    if "type" not in d:
        raise ConfigError(f"{where}.type: required")
    tag = _value(str, d.pop("type"), f"{where}.type")
    if tag not in _ACTOR_TYPES:
        raise ConfigError(
            f"{where}.type: must be namespace, static, or trace, got {tag!r}"
        )
    return _build(_ACTOR_TYPES[tag], d, where)


def parse_config(data: Any, source: str = "") -> ScenarioConfig:
    """Validate a decoded JSON object into a ScenarioConfig."""
    d = _mapping(data, source or "config")
    meter = d.get("meter")
    if isinstance(meter, dict) and "seed" not in meter:
        d["meter"] = {**meter, "seed": d.get("seed")}
    return _build(ScenarioConfig, d, "")


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse a scenario from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(data, str(path))


def _dump(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    if not is_dataclass(value):
        return value
    return {
        f.name: _dump(getattr(value, f.name))
        for f in fields(value)
        if getattr(value, f.name) is not None or not f.metadata.get("omit_none")
    }


def config_to_dict(cfg: ScenarioConfig) -> dict[str, Any]:
    """Canonical JSON-ready form; parse_config round-trips it."""
    out = _dump(cfg)
    for spec, entry in zip(cfg.actors, out["actors"]):
        entry["type"] = _ACTOR_TAGS[type(spec)]
    return out


# --- presets -----------------------------------------------------------------
#
# Durations are warmup (30 s) + the full benchmark span + 2 s of slack:
# the benchmark starts on the first engine tick after warmup, so a k-step
# schedule at runtime R finishes (k*R + 1) s in, and one more tick records
# the settled tail.

def _preset_gpu_leakage() -> ScenarioConfig:
    return ScenarioConfig(
        duration_ms=4_802_000,
        seed=11,
        workloads=(
            WorkloadSpec(
                process_id="gpu-job",
                kind="batch",
                namespace="bench",
                idle_share_w=40.0,
                dyn_coeff_w=6.0,
                load_knob="batch_size",
                leakage_lambda=1.0 / 3.0,
            ),
        ),
        schedule=LoadSchedule("batch", runtime_ms=960_000),
        actors=(NamespaceActorSpec("bench"),),
    )


def _preset_cpu_offset() -> ScenarioConfig:
    return ScenarioConfig(
        duration_ms=4_802_000,
        seed=12,
        system_baseline_w=0.0,
        workloads=(
            WorkloadSpec(
                process_id="svc",
                kind="service",
                namespace="bench",
                idle_share_w=30.0,
                dyn_coeff_w=0.04,
                load_knob="rps",
            ),
        ),
        schedule=LoadSchedule("rps"),
        approximation=ApproximationParams(gain=1.035),
        actors=(NamespaceActorSpec("bench"),),
    )


def _preset_regression() -> ScenarioConfig:
    return ScenarioConfig(
        duration_ms=600_000,
        seed=13,
        system_baseline_w=2.0,
        workloads=(
            WorkloadSpec(
                process_id="svc",
                kind="service",
                namespace="bench",
                idle_share_w=30.0,
                dyn_coeff_w=0.04,
                load_knob="rps",
            ),
        ),
        schedule=LoadSchedule("rps", runtime_ms=75_000),
        approximation=ApproximationParams(gain=1.01, bias_w=5.23, sigma_w=1.0),
        actors=(NamespaceActorSpec("bench"),),
    )


def _preset_minimal() -> ScenarioConfig:
    return ScenarioConfig(
        duration_ms=10_000,
        seed=14,
        warmup_ms=0,
        actors=(StaticActor("house", -260.0),),
    )


PRESETS: dict[str, ScenarioConfig] = {
    "gpu-leakage": _preset_gpu_leakage(),
    "cpu-offset": _preset_cpu_offset(),
    "regression": _preset_regression(),
    "minimal": _preset_minimal(),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset_config(name: str) -> ScenarioConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None


def resolve_config(ref: str | Path) -> ScenarioConfig:
    """A config reference is either preset:NAME or a JSON file path."""
    ref = str(ref)
    if ref.startswith(PRESET_SCHEME):
        return preset_config(ref[len(PRESET_SCHEME):])
    return load_config(ref)
