"""One benchmark repetition in a fresh interpreter, started by run.py.

usage: python3 child.py SPEC_JSON RESULT_JSON plain|traced

Set-up ends at `ready`: the imports, the config resolution and, for
`scrape`, the store fill and the bind. run.py times set-up from the
spawn to that instant. The run phase is one pipeline.run. The serve
phase serves a store over HTTP to one closed-loop client on this
thread, which alternates GET /metrics and GET /query: the store the run
produced, or for `scrape` the filled one. Every request's status and
body is checked against the same call made directly on the store. A
spec with no requests skips the serve phase. Mode `traced` installs the
layer probes.
"""

from __future__ import annotations

import http.client
import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter_ns
from urllib.parse import quote

import tracing
import workloads
from gridcalib import config, pipeline, server, timeseries


def _get(host: str, port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def serve(httpd, store, spec: dict, tracer) -> dict:
    """Drive the served store; returns request latencies and failures."""
    expected_metrics = server.format_exposition(store).encode()
    paths = [(q, "/query?expr=" + quote(q)) for q in spec["queries"]]
    expected_value = {q: timeseries.query(store, q) for q, _ in paths}
    if tracer is not None:
        tracer.phase = "serve"
    thread = httpd.serve_in_background()
    host, port = httpd.server_address[:2]
    latency = {"metrics": [], "query": []}
    failures = []
    try:
        for i in range(spec["requests"]):
            expr, query_path = paths[i % len(paths)]
            for kind, path in (("metrics", "/metrics"), ("query", query_path)):
                t0 = perf_counter_ns()
                try:
                    if tracer is None:
                        status, body = _get(host, port, path)
                    else:
                        with tracer.span(f"client.{kind}"):
                            status, body = _get(host, port, path)
                except (OSError, http.client.HTTPException) as exc:
                    status, body = None, repr(exc).encode()
                latency[kind].append((perf_counter_ns() - t0) / 1e6)
                if status != 200:
                    failures.append(f"GET {path}: status {status}: {body[:200]!r}")
                elif kind == "metrics" and body != expected_metrics:
                    failures.append("GET /metrics: body differs from format_exposition(store)")
                elif kind == "query" and json.loads(body)["value_w"] != expected_value[expr]:
                    failures.append(f"GET {path}: {body!r} != query() {expected_value[expr]!r}")
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=30)
    return {
        "scrape_ms": latency["metrics"],
        "query_ms": latency["query"],
        "failures": failures,
    }


def main(spec_path: str, result_path: str, mode: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    timer = tracing.StepTimer()
    timer.install()
    tracer = tracing.Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    cfg = config.resolve_config(spec["config_path"])
    httpd = None
    if spec["fill"] is not None:
        store = timeseries.MetricStore()
        workloads.fill_store(store, spec["fill"], spec["seed"])
        httpd = server.serve_metrics(store, ("127.0.0.1", 0))
    ready = time.monotonic()

    if tracer is not None:
        tracer.phase = "run"
    t0 = perf_counter_ns()
    artifacts = pipeline.run(cfg, spec["out"])
    t1 = perf_counter_ns()

    if tracer is not None:
        tracer.phase = "check"
    served = {"scrape_ms": [], "query_ms": [], "failures": []}
    if spec["requests"]:
        if httpd is None:
            store = artifacts.store
            httpd = server.serve_metrics(store, ("127.0.0.1", 0))
        served = serve(httpd, store, spec, tracer)
    if tracer is not None:
        tracer.phase = "done"
    result = {
        "ready": ready,
        "run_s": (t1 - t0) / 1e9,
        "postpass_s": (t1 - timer.loop_end_ns) / 1e9,
        "step_ns": timer.step_ns,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **served,
    }
    if tracer is not None:
        tracer.dump(Path(spec["trace_path"]))
        result["per_layer"] = tracing.per_layer_metrics(tracer)
        result["table"] = tracing.self_time_table(tracer)
        result["unhooked"] = tracer.unhooked
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3])
