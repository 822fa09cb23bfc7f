"""Byte-identity of the preset artifacts.

Every artifact of the four presets is pinned by its sha256, so a change
that alters any byte of any output fails here instead of in a manual
``cmp``. The digests were made at commit c95bdf8, the last with list
columns in the metric store, by running ``pipeline.run`` on each
``preset:NAME`` into an empty directory and hashing each file named in
``pipeline.ARTIFACT_NAMES``. Regenerate them only for a change that is
meant to alter the artifacts, and say which bytes moved and why.
"""

import hashlib

import pytest

from gridcalib import pipeline
from gridcalib.config import preset_config

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
        "regression_points.csv": "3ef16dc2f46c8371c3a2d3a37396f3c9980c8e18a222f7aa02c8788b0730d0f6",
        "regression_report.json": "52f4c72bf55b8095c4025309d6d73035b1a61fb0309b90b17edc2568be6fb3f4",
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
}


@pytest.mark.parametrize("preset", list(GOLDEN))
def test_preset_artifacts_match_golden_digests(preset, tmp_path):
    pipeline.run(preset_config(preset), tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in pipeline.ARTIFACT_NAMES
    }
    assert digests == GOLDEN[preset]
