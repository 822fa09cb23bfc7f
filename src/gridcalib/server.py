"""One selector loop for every socket, and the read-only HTTP endpoint
over a metric store.

GET /metrics renders the latest sample of every series as one text line:

    NAME{K="V",...} VALUE TIMESTAMP_MS

with floats in shortest round-trip form and the label braces omitted for
label-less series. Each series renders its line once per newest sample
and keeps it (Series.exposition_line), so a scrape of a store that has
not changed only joins the kept lines. GET /query?expr=... evaluates a
rate query and returns {"value_w": ..., "uncovered": ..., "matched": ...}:
the summed rate, how many matching series do not cover their window,
and how many series the selector matched.

SelectorServer is the one way the package serves sockets: one thread
serves every connection from one selector loop (after Flash, Pai et
al., USENIX ATC 1999), so a stalled client holds a buffer, not a
thread, and server_close() leaves no connection open. MetricsServer is
the HTTP endpoint on it, emulation.MeterListener the meter's line
protocol. A response is one HTTP/1.0 write: status line, Content-Type,
Content-Length, Connection: close (no Server or Date header), body.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import traceback
from http import HTTPStatus
from urllib.parse import parse_qs, urlparse

from .errors import BindError, KindMismatch, ParseError
from .timeseries import MetricStore, evaluate

MAX_HEAD = 65536  # http.server's request-line bound: a longer head without its end gets 431


def format_exposition(store: MetricStore) -> str:
    """Every series' newest-sample line in key order; empty series add none."""
    return "".join([series.exposition_line() for series in store.series()])


def _response(status: int, body: str, content_type: str) -> bytes:
    payload = body.encode()
    head = f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\nContent-Type: {content_type}\r\n"
    return f"{head}Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n".encode() + payload


def _json(status: int, obj: dict) -> bytes:
    return _response(status, json.dumps(obj) + "\n", "application/json")


def respond(store: MetricStore, head: bytes) -> bytes:
    """The whole response to a request head; reads only its request line."""
    words = head.split(b"\r\n", 1)[0].split()
    if len(words) != 3 or not words[2].startswith(b"HTTP/"):
        return _json(400, {"error": "malformed request line"})
    if words[0] != b"GET":
        return _json(501, {"error": f"unsupported method {words[0].decode('latin-1')!r}"})
    url = urlparse(words[1].decode("latin-1"))
    if url.path == "/metrics":
        return _response(200, format_exposition(store), "text/plain; charset=utf-8")
    if url.path == "/query":
        exprs = parse_qs(url.query).get("expr")
        if not exprs:
            return _json(400, {"error": "missing expr parameter"})
        try:
            result = evaluate(store, exprs[0])
        except (ParseError, KindMismatch) as exc:  # KindMismatch: rate() of a gauge
            return _json(400, {"error": str(exc)})
        return _json(200, result._asdict())
    return _json(404, {"error": f"no such path {url.path!r}"})


class SelectorServer:
    """A listener and its selector loop, on one thread. A subclass
    defines _advance(key), which reads or writes one connection the
    selector found ready; the key's data starts as an empty bytearray."""

    def __init__(self, bind: tuple[str, int]):
        try:
            self.socket = socket.create_server(bind)
        except OSError as exc:
            raise BindError(f"cannot bind {bind[0]}:{bind[1]}: {exc}") from exc
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._wake, self._waker = socket.socketpair()  # shutdown() writes, the loop wakes
        self._selector = selectors.DefaultSelector()
        for sock in (self.socket, self._wake):
            self._selector.register(sock, selectors.EVENT_READ)
        self._stopped = threading.Event()
        self._stopped.set()

    def serve_forever(self) -> None:
        self._stopped.clear()
        try:
            while True:
                for key, _ in self._selector.select():
                    if key.fileobj is self._wake:
                        self._wake.recv(1)
                        return
                    if key.fileobj is self.socket:
                        self._accept()
                    else:
                        self._advance(key)
        finally:
            self._stopped.set()

    def serve_in_background(self) -> threading.Thread:
        self._stopped.clear()  # a shutdown() from here on waits for the loop
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop the loop and wait for it to exit; at once if it is not running."""
        if not self._stopped.is_set():
            self._waker.send(b"\0")
            self._stopped.wait()

    def server_close(self) -> None:
        """Close the listener and every connection still open."""
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()
        self._waker.close()

    def _accept(self) -> None:
        try:
            conn, _ = self.socket.accept()
        except OSError:  # the client left between readiness and accept
            return
        conn.setblocking(False)
        self._selector.register(conn, selectors.EVENT_READ, bytearray())

    def _close(self, conn: socket.socket) -> None:
        self._selector.unregister(conn)
        conn.close()


class MetricsServer(SelectorServer):
    """The HTTP endpoint. A connection's selector data is its head so far
    (a bytearray) or its unsent response (a memoryview)."""

    def __init__(self, bind: tuple[str, int], store: MetricStore):
        super().__init__(bind)
        self.store = store

    def _advance(self, key: selectors.SelectorKey) -> None:
        """Read more of a connection's head, or send more of its response."""
        conn, pending = key.fileobj, key.data
        try:
            if isinstance(pending, bytearray):
                chunk = conn.recv(MAX_HEAD)
                if not chunk:  # closed before its head was whole
                    return self._close(conn)
                seen = max(len(pending) - 3, 0)
                pending += chunk
                end = pending.find(b"\r\n\r\n", seen)
                if end >= 0:
                    try:
                        response = respond(self.store, bytes(pending[:end]))
                    except Exception as exc:  # a handler fault fails its request, not the loop
                        traceback.print_exc()
                        response = _json(500, {"error": f"{type(exc).__name__}: {exc}"})
                elif len(pending) > MAX_HEAD:
                    response = _json(431, {"error": f"request head past {MAX_HEAD} bytes"})
                else:
                    return
                pending = memoryview(response)
            pending = pending[conn.send(pending):]
        except OSError:  # reset or gone: drop this connection only
            return self._close(conn)
        if pending:
            self._selector.modify(conn, selectors.EVENT_WRITE, pending)
        else:
            self._close(conn)


def serve_metrics(store: MetricStore, bind: tuple[str, int]) -> MetricsServer:
    """Bind the exposition endpoint; the caller decides how to serve it."""
    return MetricsServer(bind, store)
