"""Read-only HTTP endpoint over a metric store.

GET /metrics renders the latest sample of every series as one text line:

    NAME{K="V",...} VALUE TIMESTAMP_MS

with floats in shortest round-trip form and the label braces omitted for
label-less series. GET /query?expr=... evaluates a rate query and returns
a JSON scalar. Handlers never mutate the store, so any number of them may
run concurrently against the writer's consistent-prefix guarantee.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .errors import BindError, ParseError
from .timeseries import MetricStore, query


def format_exposition(store: MetricStore) -> str:
    lines = []
    for series in store.series():
        # the last sample straight from the columns, timestamp count first
        # as Series.last() does, without building a Sample per series
        n = len(series._ts)
        if n:
            lines.append(
                f"{series.exposition_name} {series._values[n - 1]!r} {series._ts[n - 1]}\n"
            )
    return "".join(lines)


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
                value = query(self.server.store, exprs[0])
            except ParseError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(200, {"value_w": value})
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
