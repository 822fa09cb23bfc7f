"""The selector loop's contract: every status from `respond`, and over
sockets a bounded head, stalled clients that delay no one, no thread per
connection, handler faults that fail one request, and a clean shutdown."""

import gc
import json
import socket
import threading
import time
from urllib.parse import quote

import pytest

from gridcalib import server
from gridcalib.server import MAX_HEAD, format_exposition, respond, serve_metrics
from gridcalib.timeseries import COUNTER, GAUGE, MetricStore, evaluate

EXPR = 'sum(rate(e_joules{ns="a"}[2s]))'
QUERY = "/query?expr=" + quote(EXPR)


@pytest.fixture()
def store():
    store = MetricStore()
    for ts in (1000, 2000, 3000):
        store.append("e_joules", {"ns": "a"}, COUNTER, (ts, ts * 0.01))
    store.append("meter_watts", {}, GAUGE, (3000, 230.5))
    return store


@pytest.fixture()
def served(store):
    httpd = serve_metrics(store, ("127.0.0.1", 0))
    thread = httpd.serve_in_background()
    yield httpd.server_address
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def split(response: bytes) -> tuple[str, dict, bytes]:
    """(status line, header fields, body) of one whole response."""
    head, _, body = response.partition(b"\r\n\r\n")
    status_line, *fields = head.decode("latin-1").split("\r\n")
    return status_line, dict(field.split(": ", 1) for field in fields), body


def read_all(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def get(address, path: str) -> tuple[str, dict, bytes]:
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: gridcalib\r\n\r\n".encode())
        return split(read_all(sock))


class TestRespond:
    def test_metrics_200(self, store):
        status, fields, body = split(respond(store, b"GET /metrics HTTP/1.1\r\nHost: x"))
        assert status == "HTTP/1.0 200 OK"
        assert body == format_exposition(store).encode()
        assert fields == {
            "Content-Type": "text/plain; charset=utf-8",
            "Content-Length": str(len(body)),
            "Connection": "close",
        }

    def test_query_200(self, store):
        status, fields, body = split(respond(store, f"GET {QUERY} HTTP/1.0".encode()))
        assert status == "HTTP/1.0 200 OK"
        assert fields["Content-Type"] == "application/json"
        assert json.loads(body) == evaluate(store, EXPR)._asdict()

    @pytest.mark.parametrize(
        "target, status",
        [
            ("/query", "HTTP/1.0 400 Bad Request"),
            ("/query?expr=oops(", "HTTP/1.0 400 Bad Request"),
            ("/query?expr=" + quote("rate(meter_watts[2s])"), "HTTP/1.0 400 Bad Request"),
            ("/shutdown", "HTTP/1.0 404 Not Found"),
        ],
    )
    def test_path_and_query_errors(self, store, target, status):
        line, _, body = split(respond(store, f"GET {target} HTTP/1.0".encode()))
        assert line == status
        assert "error" in json.loads(body)

    @pytest.mark.parametrize(
        "head",
        [b"", b"garbage", b"GET /metrics", b"GET /metrics HTTP/1.0 extra", b"GET /metrics FTP/1.0"],
    )
    def test_malformed_request_line_400(self, store, head):
        line, _, body = split(respond(store, head))
        assert line == "HTTP/1.0 400 Bad Request"
        assert json.loads(body) == {"error": "malformed request line"}

    @pytest.mark.parametrize("method", ["POST", "HEAD"])
    def test_other_methods_501(self, store, method):
        line, _, body = split(respond(store, f"{method} /metrics HTTP/1.0".encode()))
        assert line == "HTTP/1.0 501 Not Implemented"
        assert method in json.loads(body)["error"]


class TestLoop:
    def test_served_equals_respond(self, served, store):
        for path in ("/metrics", QUERY, "/nope"):
            head = f"GET {path} HTTP/1.1\r\nHost: gridcalib".encode()
            assert get(served, path) == split(respond(store, head))

    def test_head_past_the_bound_gets_431_and_close(self, served):
        # exactly one byte past the bound, so the loop has read every byte
        # sent when it answers, and closing cannot reset the connection
        start = b"GET /metrics HTTP/1.0\r\nX-Pad: "
        with socket.create_connection(served, timeout=5) as sock:
            sock.sendall(start + b"a" * (MAX_HEAD + 1 - len(start)))
            line, _, body = split(read_all(sock))  # read_all returns at the close
        assert line == "HTTP/1.0 431 Request Header Fields Too Large"
        assert "error" in json.loads(body)

    def test_half_sent_head_delays_no_one(self, served):
        with socket.create_connection(served, timeout=5) as stalled:
            stalled.sendall(b"GET /metrics HTTP/1.0\r\nHost:")
            t0 = time.monotonic()
            assert get(served, QUERY)[0] == "HTTP/1.0 200 OK"
            assert time.monotonic() - t0 < 1.0
            stalled.sendall(b" gridcalib\r\n\r\n")
            assert split(read_all(stalled))[0] == "HTTP/1.0 200 OK"

    def test_client_that_never_reads_blocks_no_one(self):
        # an exposition of about 8 MB, twice Linux's default 4 MiB ceiling
        # on a socket's send buffer, so its send must stop part way
        store = MetricStore()
        for i in range(2100):
            store.append("pad", {"i": f"{i:04d}" + "x" * 4000}, GAUGE, (1000, float(i)))
        store.append("e_joules", {"ns": "a"}, COUNTER, (1000, 1.0))
        expected = format_exposition(store).encode()
        assert len(expected) > 2 * 4 * 2**20
        httpd = serve_metrics(store, ("127.0.0.1", 0))
        thread = httpd.serve_in_background()
        try:
            with socket.socket() as slow:
                slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                slow.settimeout(30)
                slow.connect(httpd.server_address)
                slow.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
                for _ in range(5):
                    t0 = time.monotonic()
                    assert get(httpd.server_address, QUERY)[0] == "HTTP/1.0 200 OK"
                    assert time.monotonic() - t0 < 1.0
                line, fields, body = split(read_all(slow))
            assert line == "HTTP/1.0 200 OK"
            assert body == expected
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)

    def test_no_thread_per_connection(self, served):
        before = threading.active_count()
        open_ = [socket.create_connection(served, timeout=5) for _ in range(50)]
        try:
            for sock in open_:
                sock.sendall(b"GET /metrics HTTP/1.0\r\n")
            assert get(served, QUERY)[0] == "HTTP/1.0 200 OK"  # all 50 are accepted by now
            assert threading.active_count() == before
            for sock in open_:
                sock.sendall(b"\r\n")
            assert all(split(read_all(sock))[0] == "HTTP/1.0 200 OK" for sock in open_)
        finally:
            for sock in open_:
                sock.close()
        assert threading.active_count() == before

    def test_handler_fault_answers_500_and_the_loop_keeps_serving(
        self, served, monkeypatch, capsys
    ):
        def broken(store):
            raise RuntimeError("exposition broke")

        monkeypatch.setattr(server, "format_exposition", broken)
        line, _, body = get(served, "/metrics")
        assert line == "HTTP/1.0 500 Internal Server Error"
        assert json.loads(body) == {"error": "RuntimeError: exposition broke"}
        assert "exposition broke" in capsys.readouterr().err  # the traceback
        assert get(served, QUERY)[0] == "HTTP/1.0 200 OK"

    def test_client_reset_drops_only_its_connection(self, served):
        sock = socket.create_connection(served, timeout=5)
        sock.sendall(b"GET /metrics HTTP/1.0\r\n")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, b"\x01\x00\x00\x00\x00\x00\x00\x00")
        sock.close()  # linger 0: the close sends a reset
        assert get(served, QUERY)[0] == "HTTP/1.0 200 OK"


class TestShutdown:
    def test_shutdown_at_once_when_not_serving(self, store):
        httpd = serve_metrics(store, ("127.0.0.1", 0))
        t0 = time.monotonic()
        httpd.shutdown()
        assert time.monotonic() - t0 < 1.0
        httpd.server_close()

    def test_shutdown_with_a_stalled_connection_and_close_closes_it(self, store):
        httpd = serve_metrics(store, ("127.0.0.1", 0))
        thread = httpd.serve_in_background()
        with socket.create_connection(httpd.server_address, timeout=5) as stalled:
            stalled.sendall(b"GET /metrics HTTP/1.0\r\n")
            assert get(httpd.server_address, QUERY)[0] == "HTTP/1.0 200 OK"  # stalled is accepted
            t0 = time.monotonic()
            httpd.shutdown()
            assert time.monotonic() - t0 < 1.0
            thread.join(timeout=1)
            assert not thread.is_alive()
            httpd.server_close()
            gc.collect()  # an accepted socket left open would warn here, and fail the test
            assert stalled.recv(1) == b""  # the server closed its end
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(httpd.server_address, timeout=5).close()
