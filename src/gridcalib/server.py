"""Read-only HTTP endpoint over a metric store.

GET /metrics renders the latest sample of every series as one text line:

    NAME{K="V",...} VALUE TIMESTAMP_MS

with floats in shortest round-trip form and the label braces omitted for
label-less series. Each series renders its line once per newest sample
and keeps it (Series.exposition_line), so a scrape of a store that has
not changed only joins the kept lines. GET /query?expr=... evaluates a
rate query and returns {"value_w": ..., "uncovered": ..., "matched": ...}:
the summed rate, how many matching series do not cover their window,
and how many series the selector matched. Handlers
never change a sample, so any number of them may run concurrently
against the writer's consistent-prefix guarantee; the only state they
write is each series' exposition memo, which one reference store
publishes whole.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .errors import BindError, KindMismatch, ParseError
from .timeseries import MetricStore, evaluate


def format_exposition(store: MetricStore) -> str:
    """Every series' newest-sample line in key order; empty series add none."""
    return "".join([series.exposition_line() for series in store.series()])


class _Handler(BaseHTTPRequestHandler):
    server: "MetricsServer"

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/metrics":
            self._send(200, format_exposition(self.server.store), "text/plain; charset=utf-8")
            return
        if parsed.path == "/query":
            params = parse_qs(parsed.query)
            exprs = params.get("expr")
            if not exprs:
                self._send_json(400, {"error": "missing expr parameter"})
                return
            try:
                result = evaluate(self.server.store, exprs[0])
            except (ParseError, KindMismatch) as exc:  # KindMismatch: rate() of a gauge
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(200, result._asdict())
            return
        self._send_json(404, {"error": f"no such path {parsed.path!r}"})

    def _send(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, obj: dict) -> None:
        self._send(status, json.dumps(obj) + "\n", "application/json")

    def log_message(self, format: str, *args) -> None:
        pass  # endpoint stays quiet; callers own their logging


class MetricsServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, bind: tuple[str, int], store: MetricStore):
        self.store = store
        try:
            super().__init__(bind, _Handler)
        except OSError as exc:
            raise BindError(f"cannot bind {bind[0]}:{bind[1]}: {exc}") from exc

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def serve_metrics(
    store: MetricStore, bind: tuple[str, int] = ("127.0.0.1", 8000)
) -> MetricsServer:
    """Bind the exposition endpoint; the caller decides how to serve it."""
    return MetricsServer(bind, store)
