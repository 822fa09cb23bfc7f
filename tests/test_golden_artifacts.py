"""Byte-identity of the preset artifacts.

Every artifact of the four presets is pinned by its sha256, so a change
that alters any byte of any output fails here instead of in a manual
``cmp``. The digests were made at commit c95bdf8, the last with list
columns in the metric store, by running ``pipeline.run`` on each
``preset:NAME`` into an empty directory and hashing each file named in
``pipeline.ARTIFACT_NAMES``. Regenerate them only for a change that is
meant to alter the artifacts, and say which bytes moved and why.

No preset has more than one workload, so two more configs pin the paths
the presets leave out: four workloads over two namespaces, leakage and
noise on every workload, approximation noise, meter error, and an
emission interval that differs from the engine step. One splits idle
power by requested resources and one evenly. Their digests were made
at commit f46a86c, before the per-tick kernels took plain float lists.
The even config's calibrated_power.csv, energy_summary.csv and
monitor.csv digests were re-made when a collection's rate window came
to end at the counters' newest sample: its 1500 ms emissions miss two
of every three collection instants, which had read every counter as 0.

No preset runs a battery either, so two more configs, written as JSON
documents, pin storage settlement: a trace producer and a static
consumer charge and drain a lossy battery, one with both rate limits
and one without. Their digests were made at commit 9765b90, before the
engine came to keep the battery's charge, and a test checks that the
two runs reach every bound settlement clamps to.

The noiseless-plateaus config pins the emitter's and the calibration
stage's reuse of their last result while the inputs repeat: no noise
anywhere, three workloads in two namespaces, emissions and collections
that fall on different ticks, and a schedule that repeats a level,
returns to an earlier one and steps from -0.0 to 0.0. Its digests were
made at commit 29ef3e3, which recomputed every firing and collection.

The cpu-offset and four-workloads-even regression_report.json and
regression_points.csv digests were re-made when the regression's dot
products came to be numpy's own pairwise sums in place of OpenBLAS's
ddot, whose last bits depend on the CPU kernel OpenBLAS picks.
"""

import csv
import hashlib
import io

import pytest

from gridcalib import pipeline
from gridcalib.config import NamespaceActorSpec, ScenarioConfig, parse_config, preset_config
from gridcalib.emulation import ApproximationParams, LoadSchedule, MeterSpec, WorkloadSpec


def _multi_workload_config(idle_split: str, seed: int, emission_interval_ms: int) -> ScenarioConfig:
    workloads = (
        WorkloadSpec("web", "service", "front", 12.0, 0.02, "rps", 0.8, 0.15),
        WorkloadSpec("cache", "service", "front", 6.5, 0.01, "rps", 0.3, 0.05),
        WorkloadSpec("train", "batch", "ml", 35.0, 4.0, "batch_size", 1.7, 1.0 / 3.0),
        WorkloadSpec("infer", "stress", "ml", 0.0, 2.5, "batch_size", 0.5, 0.2),
    )
    return ScenarioConfig(
        duration_ms=150_000,
        seed=seed,
        warmup_ms=20_000,
        emission_interval_ms=emission_interval_ms,
        idle_split=idle_split,
        system_baseline_w=3.0,
        workloads=workloads,
        schedule=LoadSchedule("custom", (4.0, 16.0, 32.0, 8.0), runtime_ms=30_000, knob="batch_size"),
        meter=MeterSpec(relative_error_v=0.005, relative_error_i=0.01, seed=seed),
        approximation=ApproximationParams(gain=1.02, bias_w=4.5, sigma_w=0.7),
        actors=(NamespaceActorSpec("front"), NamespaceActorSpec("ml")),
    )


def _plateau_config() -> ScenarioConfig:
    """Noiseless, so the emitter and the calibration stage reuse their last
    result while the loads hold a level. Emissions every 2 s and
    collections every 3 s fall on different ticks, and the schedule
    repeats a level, returns to an earlier one and steps between -0.0
    and the 0.0 the completion sets."""
    workloads = (
        WorkloadSpec("api", "service", "front", 18.0, 0.03, "rps", 0.0, 0.1),
        WorkloadSpec("edge", "service", "front", 0.0, 0.05, "rps", 0.0, 0.25),
        WorkloadSpec("etl", "batch", "data", 22.0, 3.0, "batch_size", 0.0, 0.0),
    )
    return ScenarioConfig(
        duration_ms=100_000,
        seed=23,
        warmup_ms=10_000,
        emission_interval_ms=2000,
        signal_interval_ms=3000,
        idle_split="requested",
        system_baseline_w=4.0,
        workloads=workloads,
        schedule=LoadSchedule(
            "custom", (600.0, 600.0, 1500.0, -0.0, 600.0, -0.0), runtime_ms=14_000, knob="rps"
        ),
        approximation=ApproximationParams(gain=1.03, bias_w=2.5),
        actors=(NamespaceActorSpec("front"), NamespaceActorSpec("data")),
    )


def _battery_document(seed: int, storage: dict) -> dict:
    return {
        "duration_ms": 120_000,
        "seed": seed,
        "warmup_ms": 20_000,
        "workloads": [
            {
                "process_id": "svc",
                "kind": "service",
                "namespace": "bench",
                "idle_share_w": 30.0,
                "dyn_coeff_w": 0.04,
                "load_knob": "rps",
            }
        ],
        "schedule": {"kind": "rps", "runtime_ms": 30_000},
        "actors": [
            {"type": "namespace", "namespace": "bench"},
            {
                "type": "trace",
                "actor_id": "pv",
                "points": [[0, 0], [30_000, 420], [60_000, 40], [95_000, 900]],
            },
            {"type": "static", "actor_id": "house", "power_w": -120.0},
        ],
        "storage": storage,
    }


BATTERY_DOCUMENTS = {
    "battery-rate-limited": _battery_document(31, {
        "capacity_j": 6000.0,
        "charge_j": 3000.0,
        "max_charge_rate_w": 250.0,
        "max_discharge_rate_w": 60.0,
        "efficiency": 0.9,
    }),
    "battery-unlimited": _battery_document(32, {
        "capacity_j": 4000.0,
        "charge_j": 0.0,
        "max_charge_rate_w": None,
        "max_discharge_rate_w": None,
        "efficiency": 0.8,
    }),
}

EXTRA_CONFIGS = {
    "four-workloads-requested": _multi_workload_config("requested", 21, 500),
    "four-workloads-even": _multi_workload_config("even", 22, 1500),
    **{name: parse_config(doc) for name, doc in BATTERY_DOCUMENTS.items()},
    "noiseless-plateaus": _plateau_config(),
}

GOLDEN = {
    "gpu-leakage": {
        "calibrated_power.csv": "6c8887097873e4e2abbc22a343e5d3e470e885ef27444f55f61340f065f6d9f1",
        "config.json": "157f4486f77bd30df3dd7a882d5b5c822c8db4906f4f39a7cbba049d4e2d16cf",
        "energy_summary.csv": "49951b9c3f2b55bfe3cae03c496ecbab1f4ef152c8f29e8b272499095df738b5",
        "events.csv": "dfdfd6a03434f3ec3f4e4ee433ba5fe5c7010913dec927571dce76f95c2cc184",
        "ground_truth.csv": "f136acd38285f1f092712160dba6b12ba387003c4e8da754efb5352c5914a5ee",
        "monitor.csv": "f7b23a05df9dc7eb95a28c7b75132088174b57230819d38c94de0939a914df4e",
        "regression_points.csv": "1c12b08b9559b4194039a5ae3d62edcf37bd4c8b9ac10d309cfb661f5f07b540",
        "regression_report.json": "8140245b8da27e18b5ac367c5c35a74c788ca63de1ad2480ceb9767903b24e6b",
    },
    "cpu-offset": {
        "calibrated_power.csv": "70c21dbd2ab227830bc90914dc7b3207c74a503efa9a58a40934032bf114e1d6",
        "config.json": "4aa2c987e473df8ca959eb77d417f56ba7aaebd2786ac1f4f4417d6e209bfa0f",
        "energy_summary.csv": "12db158688e1da74a52359021165b913390879d1fdee054aa3e4455faf946b58",
        "events.csv": "e5fc45b3ff34c4e7001431b9f345553c4519d41f8d8df53a9eca9041b87a4be3",
        "ground_truth.csv": "01da4f982a4faea86f198d1d277a6a329ed70cc59680dcfaec48a9ba662e0776",
        "monitor.csv": "4c3f9525f74c315cce84da64da0554f2415bfa4c0eba301cb4406b9ebf8aadd4",
        "regression_points.csv": "58be3bc7ca64be3d355ff236b1e93b12a0bf506c47a0bc19aa7493691c7f1279",
        "regression_report.json": "5cc971dbce459735ff197b81edfc26534571958fe9a35b27f4eee8bf23848131",
    },
    "regression": {
        "calibrated_power.csv": "93f8308c4165a47610b203a49a1a7ca45960a7503072f057e071af72a21f0b10",
        "config.json": "dbb15a79ab4f24c499a7baf6934c3bad4195c3dd457c6304739bddd13bc8d44b",
        "energy_summary.csv": "58afaa93f3058e959ce93b4fea07772fa45a3cd845284f2f23963ddbf6329f44",
        "events.csv": "27cf22b5c43ae4d842317ce494b1ea016699e9990980be29bcbcac56a4a957d9",
        "ground_truth.csv": "85da8542b9ef93ad9b3882419f8be8671652b44ac4d0d4a66ad03d7370278e42",
        "monitor.csv": "ec38469bc83f82693946cb64769f13c1231125681dd2974e18317da81cf1e5ca",
        "regression_points.csv": "6830d7059e656132cbd588fcc3c59c34ae9566a8bdebd287b6718d381c44b592",
        "regression_report.json": "d45560db61042ac16af21f826e4f86a2cd5e43549646f3ee5bf1645cbde39b9b",
    },
    "minimal": {
        "calibrated_power.csv": "12e47ce8c81d62155b167ced8fe7f3adb8ecce32845dda1090a5c648e7689639",
        "config.json": "159e3cf71ac459f6ef970ea5cd741eb6fc3909c8e2a0e227f166d3566d46f120",
        "energy_summary.csv": "31b6b5dc3ac21271f8f049c6317a28f1a5232e9f63721f573b6f6ac40b508f84",
        "events.csv": "f7d2305b70098f1f901086e1d3a0041d3a726e87ac7134b124caa84aa756407e",
        "ground_truth.csv": "5891b7f6b9ae4ed6ae35f04d25f11a6fa0588744afbdb82e3a29a8552ea2cee3",
        "monitor.csv": "fffc1de8c5f6a5118b24f9159d43900ae2e3995aaf55ca97edccf06385ede480",
        "regression_points.csv": "c3feea170ad767c1bbb6ec4a1fbf7377f3f2ce69ce13a9b6721f8cb8164dfeb6",
        "regression_report.json": "b2225faa588337f7f48a04a01020ce1a76e755c5c595a26ad43fe3762cf8baff",
    },
    "four-workloads-requested": {
        "monitor.csv": "3825778abd92b7ae5fc2dcf14091110ffe159562608ea6a8f0124d4efe095b6e",
        "calibrated_power.csv": "ba00bb25146396d2a70541b681075975dafc636c4b92d1e56685344d616aeca4",
        "energy_summary.csv": "b176e6aaab08e925172e3ed3562f5a06ac9e6bcaaf3f2a21e941fc91d32cd94c",
        "regression_report.json": "4318cf5a9e0440254de02b95f6c92557147a26923397e76fc19146674944afe7",
        "regression_points.csv": "962aa06887cc9ea2069608f458fc03c4bd7dc4926ac3866ed0a7bc33e8190a77",
        "ground_truth.csv": "0ccb449ef762c78baf12f5886a7ccbd5c664946b6d17fee467dd3b4844114c8a",
        "events.csv": "a68e425511f8c8ec65dfb0f71f043c1419376bb3e04fdf2da0cb4c8209aded63",
        "config.json": "99b9d31a3792ff9a4b55770f2dac2972271ef8c8037bcadc40b218438e234421",
    },
    "four-workloads-even": {
        "monitor.csv": "b5b31aae50acac4a69490a48e89f9ff386b4ce9b9d9efcedbdc26e588328719e",
        "calibrated_power.csv": "eeac277121ae911d0fb8b00eede96df3b44879649c5321c67443a274966eb83f",
        "energy_summary.csv": "06663913b3c0109a838cfa5ecc0bd4e69fa176725614288d89a9f9fc9b794561",
        "regression_report.json": "c754c47baa52159782609438ccd39926c98e7c14e6e6a6fad2923718bc5883c7",
        "regression_points.csv": "7b3b41fa78aaff9a6cff25d500bb8186a7a7d571ae678229d9a6bf99f31472ac",
        "ground_truth.csv": "8aa7bd92aa4544e5f63e53ff3debb27d1ef107ce6ca80bc7c4cfdacbdc39b5b4",
        "events.csv": "a68e425511f8c8ec65dfb0f71f043c1419376bb3e04fdf2da0cb4c8209aded63",
        "config.json": "2861d9646c16601810bd0cd1ca7fefbd695bb5ae6514102d743471e4aa42e765",
    },
    "battery-rate-limited": {
        "monitor.csv": "94b344f9ad047037b268a8a8d7fdca3a406598cd6da30bf9dbf3900c41995b55",
        "calibrated_power.csv": "d46e72246c6adaaa6be977f27d359ccf61194043de971092bfa73bf3c2a1d599",
        "energy_summary.csv": "d3a59dfae995f90534e012a25ec05fee0cc6596f7dbd4397ed607b9dd993e7ac",
        "regression_report.json": "d4701e8c198563152d0ac40230ce526de08dd306c7a123b232ebffcf4bc8f9e5",
        "regression_points.csv": "ed2f4b9d599c976bfae9cbcb9de0376cc8f0e190ad13b5900540642389dfe4b5",
        "ground_truth.csv": "b7c606055661564416c06f7cf344a5c4fd6ad111042ccd31d7103561bc9abe9e",
        "events.csv": "56a2dab25c64c5e65a22802d98e7f1a150296a535234227cd1e6fa2fd0d067aa",
        "config.json": "7fa5353c7e8f2f15d29abf8164dda9a17822cbfc025cca183d5638d29440c557",
    },
    "battery-unlimited": {
        "monitor.csv": "ca5ae9dffbb113e34d289e06d408b8ebe370ae6a7817d531b9d69c84917f4319",
        "calibrated_power.csv": "d46e72246c6adaaa6be977f27d359ccf61194043de971092bfa73bf3c2a1d599",
        "energy_summary.csv": "d3a59dfae995f90534e012a25ec05fee0cc6596f7dbd4397ed607b9dd993e7ac",
        "regression_report.json": "d4701e8c198563152d0ac40230ce526de08dd306c7a123b232ebffcf4bc8f9e5",
        "regression_points.csv": "ed2f4b9d599c976bfae9cbcb9de0376cc8f0e190ad13b5900540642389dfe4b5",
        "ground_truth.csv": "b7c606055661564416c06f7cf344a5c4fd6ad111042ccd31d7103561bc9abe9e",
        "events.csv": "56a2dab25c64c5e65a22802d98e7f1a150296a535234227cd1e6fa2fd0d067aa",
        "config.json": "5359a0d5d4814ad7f04c2f73eef9b36748537c84b55a65b051eb5ae5f2d91f44",
    },
    "noiseless-plateaus": {
        "monitor.csv": "8f32238869f4670218109f7c7eb49ccc3f8094a801872d773716ab2ca05c5435",
        "calibrated_power.csv": "f0d52442e2ebc4f9463d3c2a8c80e3c1adea9139fe8359e94e14fdb23d59aa6c",
        "energy_summary.csv": "6f1125f34dbc7ebfaf4cb805fef6282423c691fa93d88110c4945615ef3cbac7",
        "regression_report.json": "649a884c1b97691020024784c4dd7126628d4778f20cee691353d6d0b40f317d",
        "regression_points.csv": "dfa460a78925575cae8cae406d0c19fe265920ef0641388b127ebedd7c40db02",
        "ground_truth.csv": "55c1fbc6e905135d681e8ff24bcdbeebd83e87930ec7cc7fb9ee40806197e2a2",
        "events.csv": "81e11dad45d4b33f00721a930041068bd527b7c93e2eb94d49cf68d6fad2b436",
        "config.json": "ae1740c0d697de0d691957b56d59a17cb9e216196900fbce920bfa0387316481",
    },
}


@pytest.mark.parametrize("preset", list(GOLDEN))
def test_preset_artifacts_match_golden_digests(preset, tmp_path):
    config = EXTRA_CONFIGS.get(preset) or preset_config(preset)
    pipeline.run(config, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in pipeline.ARTIFACT_NAMES
    }
    assert digests == GOLDEN[preset]


def test_battery_configs_reach_every_settlement_bound(tmp_path):
    """Across the two battery runs some tick charges at the rate limit,
    some discharges at it, and some end full and some empty."""
    hit = set()
    for name, doc in BATTERY_DOCUMENTS.items():
        out = tmp_path / name
        pipeline.run(EXTRA_CONFIGS[name], out)
        storage = doc["storage"]
        for row in csv.DictReader(io.StringIO((out / "monitor.csv").read_text())):
            charge_j, delta_j = float(row["storage_charge_j"]), float(row["storage_delta_j"])
            if charge_j == storage["capacity_j"]:
                hit.add("full")
            if charge_j == 0.0:
                hit.add("empty")
            if delta_j == storage["max_charge_rate_w"]:  # dt is 1 s
                hit.add("charge-rate limit")
            if storage["max_discharge_rate_w"] is not None and delta_j == -storage["max_discharge_rate_w"]:
                hit.add("discharge-rate limit")
    assert hit == {"full", "empty", "charge-rate limit", "discharge-rate limit"}
