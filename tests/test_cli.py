"""CLI surface: subcommands, exit codes, bind parsing."""

import json
import shutil
import socket

import pytest

from gridcalib import cli, pipeline
from gridcalib.errors import ConfigError


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def minimal_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-min")
    assert run_cli("run", "preset:minimal", "--out", str(out)) == 0
    return out


class TestRun:
    def test_preset_run_writes_artifacts(self, minimal_out, capsys):
        # rerun so we can read stdout; byte-identical, so harmless
        assert run_cli("run", "preset:minimal", "--out", str(minimal_out)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(pipeline.ARTIFACT_NAMES)
        assert all(line.startswith("wrote ") for line in lines)
        for name in pipeline.ARTIFACT_NAMES:
            assert (minimal_out / name).exists()

    def test_config_file_run(self, tmp_path, capsys):
        cfg = {
            "duration_ms": 3000,
            "seed": 8,
            "warmup_ms": 0,
            "actors": [{"type": "static", "actor_id": "load", "power_w": -40.0}],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 0
        capsys.readouterr()
        assert (tmp_path / "out" / pipeline.MONITOR_CSV).exists()

    def test_unknown_preset_exit_2(self, capsys):
        assert run_cli("run", "preset:bogus") == 2
        assert "config error:" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, capsys):
        assert run_cli("run", "/no/such/file.json") == 2
        assert "config error:" in capsys.readouterr().err

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"duration_ms": 1000}))  # seed missing
        assert run_cli("run", str(path)) == 2
        err = capsys.readouterr().err
        assert "seed" in err


class TestReportAndValidate:
    def test_report(self, minimal_out, capsys):
        assert run_cli("report", str(minimal_out)) == 0
        out = capsys.readouterr().out
        assert "regression: skipped" in out

    def test_report_missing_dir_exit_3(self, tmp_path, capsys):
        assert run_cli("report", str(tmp_path / "void")) == 3
        assert "error:" in capsys.readouterr().err

    def test_validate_skipped(self, minimal_out, capsys):
        assert run_cli("validate", str(minimal_out)) == 0
        assert "skipped" in capsys.readouterr().out

    def test_validate_with_regression(self, tmp_path, capsys):
        assert run_cli("run", "preset:regression", "--out", str(tmp_path / "reg")) == 0
        capsys.readouterr()
        assert run_cli("validate", str(tmp_path / "reg")) == 0
        out = capsys.readouterr().out
        assert "regression checks out" in out and "n=" in out

    def test_validate_tampered_exit_3(self, tmp_path, capsys):
        assert run_cli("run", "preset:regression", "--out", str(tmp_path / "reg")) == 0
        capsys.readouterr()
        path = tmp_path / "reg" / pipeline.REGRESSION_JSON
        data = json.loads(path.read_text())
        data["r2"] = 0.5
        path.write_text(json.dumps(data))
        assert run_cli("validate", str(tmp_path / "reg")) == 3
        assert "does not match" in capsys.readouterr().err

    def test_validate_missing_dir_exit_3(self, tmp_path, capsys):
        assert run_cli("validate", str(tmp_path / "void")) == 3
        capsys.readouterr()


@pytest.fixture(scope="module")
def regression_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-reg") / "reg"
    assert run_cli("run", "preset:regression", "--out", str(out)) == 0
    return out


def _nan_first_x(text):
    header, first, rest = text.split("\r\n", 2)
    return "\r\n".join([header, "nan" + first[first.index(","):], rest])


CORRUPTIONS = {
    "nan_x": (pipeline.REGRESSION_CSV, _nan_first_x),
    "report_missing_keys": (pipeline.REGRESSION_JSON, lambda text: '{"slope": 1.0}\n'),
    "truncated_json": (pipeline.REGRESSION_JSON, lambda text: text[: len(text) // 2]),
    "points_missing_column": (pipeline.REGRESSION_CSV, lambda text: text.replace("x_w", "x", 1)),
    "energy_missing_column": (pipeline.ENERGY_CSV, lambda text: text.replace("energy_wh", "wh", 1)),
}


@pytest.mark.parametrize(
    "command, fault",
    [
        ("validate", "nan_x"),
        ("validate", "report_missing_keys"),
        ("report", "report_missing_keys"),
        ("validate", "truncated_json"),
        ("report", "truncated_json"),
        ("validate", "points_missing_column"),
        ("report", "energy_missing_column"),
    ],
)
def test_corrupt_artifact_exit_3_names_the_file(regression_out, tmp_path, capsys, command, fault):
    out = tmp_path / "reg"
    shutil.copytree(regression_out, out)
    name, corrupt = CORRUPTIONS[fault]
    path = out / name
    path.write_bytes(corrupt(path.read_bytes().decode()).encode())
    capsys.readouterr()
    assert run_cli(command, str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: corrupt artifact {path}: ")


class TestBindParsing:
    def test_host_port(self):
        assert cli._parse_bind("0.0.0.0:9100") == ("0.0.0.0", 9100)

    def test_missing_colon(self):
        with pytest.raises(ConfigError, match="HOST:PORT"):
            cli._parse_bind("localhost")

    def test_non_numeric_port(self):
        with pytest.raises(ConfigError):
            cli._parse_bind("localhost:http")

    def test_port_out_of_range(self):
        with pytest.raises(ConfigError):
            cli._parse_bind("localhost:70000")


class TestServe:
    def test_bind_failure_exit_3(self, capsys):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            assert run_cli("serve", "--bind", f"127.0.0.1:{port}") == 3
            assert "error:" in capsys.readouterr().err
        finally:
            blocker.close()

    def test_bad_bind_exit_2(self, capsys):
        assert run_cli("serve", "--bind", "nope") == 2
        capsys.readouterr()


class TestParser:
    def test_no_subcommand_exits(self, capsys):
        with pytest.raises(SystemExit):
            run_cli()
        capsys.readouterr()

    def test_unknown_subcommand_exits(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("frobnicate")
        capsys.readouterr()

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "gridcalib", "run", "preset:bogus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "config error:" in proc.stderr
