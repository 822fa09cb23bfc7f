"""The gridcalib command line: run, report, serve, validate.

Exit codes: 0 on success, 2 for configuration problems, 3 for runtime
errors. A config reference is either a JSON file path or preset:NAME.
"""

from __future__ import annotations

import argparse
import sys
import threading

from . import pipeline
from .config import preset_names, resolve_config
from .errors import ConfigError, GridCalibError
from .server import serve_metrics
from .timeseries import MetricStore

DEFAULT_OUT_DIR = "gridcalib-out"
DEFAULT_BIND = "127.0.0.1:8000"


def _parse_bind(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"bind address must be HOST:PORT, got {text!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ConfigError(f"bind port must be an integer, got {port!r}") from None
    if not 0 <= port_num <= 65535:
        raise ConfigError(f"bind port out of range: {port_num}")
    return host, port_num


def _cmd_run(args: argparse.Namespace) -> int:
    config = resolve_config(args.config)
    out = args.out or config.outputs or DEFAULT_OUT_DIR
    artifacts = pipeline.run(config, out, wall_clock=args.wall_clock)
    for name in pipeline.ARTIFACT_NAMES:
        print(f"wrote {artifacts.out_dir / name}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(pipeline.report(args.artifacts_dir, floor_wh=args.floor_wh), end="")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    result = pipeline.validate(args.artifacts_dir)
    if result is None:
        print("regression was skipped for this run; nothing to validate")
    else:
        print(
            f"regression checks out: slope {result.slope!r}, "
            f"intercept {result.intercept_w!r} W, r2 {result.r2!r}, n={result.n}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    bind = _parse_bind(args.bind)
    store = MetricStore()
    runner = None
    if args.config is not None:
        config = resolve_config(args.config)
        out = args.out or config.outputs or DEFAULT_OUT_DIR

        def run_scenario() -> None:
            try:
                pipeline.run(config, out, wall_clock=True, store=store)
            except GridCalibError as exc:
                print(f"scenario failed: {exc}", file=sys.stderr)

        runner = threading.Thread(target=run_scenario, daemon=True)
    server = serve_metrics(store, bind)
    if runner is not None:
        runner.start()
    host, port = server.server_address[:2]
    print(f"serving http://{host}:{port}/metrics (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcalib",
        description="Calibrated power attribution scenarios on an emulated node.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and write artifacts")
    run_p.add_argument(
        "config",
        help=f"JSON config path or preset:NAME ({', '.join(preset_names())})",
    )
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument(
        "--wall-clock",
        action="store_true",
        help=(
            "run the virtual schedule paced to real time on one thread, samples "
            "stamped at their scheduled instants; each meter reading crosses TCP "
            "to a listener served on that thread before the run goes on"
        ),
    )
    run_p.set_defaults(func=_cmd_run)

    report_p = sub.add_parser("report", help="summarize a run's artifacts")
    report_p.add_argument("artifacts_dir")
    report_p.add_argument(
        "--floor-wh",
        type=float,
        default=1.0,
        help="group processes under this energy into an 'other' bucket",
    )
    report_p.set_defaults(func=_cmd_report)

    serve_p = sub.add_parser(
        "serve", help="expose /metrics and /query over HTTP"
    )
    serve_p.add_argument("--bind", default=DEFAULT_BIND, help="HOST:PORT to listen on")
    serve_p.add_argument(
        "config",
        nargs="?",
        default=None,
        help="optional scenario to run live (wall clock) while serving",
    )
    serve_p.add_argument("--out", default=None, help="output directory for the live run")
    serve_p.set_defaults(func=_cmd_serve)

    validate_p = sub.add_parser(
        "validate", help="re-fit stored regression points against the stored report"
    )
    validate_p.add_argument("artifacts_dir")
    validate_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GridCalibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
