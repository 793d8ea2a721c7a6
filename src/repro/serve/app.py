"""The stdlib HTTP/1.1 front end: a threading TCP server over the dispatch table.

No framework and no :mod:`http.server`, which imports ``http.client`` and
through it OpenSSL (~3.5 MB mapped) into a server that never speaks TLS.
:class:`ExperimentHandler` reads a request line and up to
:data:`MAX_HEADERS` header lines of up to :data:`MAX_LINE` bytes, takes GET
or POST with an optional ``Content-Length`` body of up to :data:`MAX_BODY`
bytes (answering ``Expect: 100-continue``), hands ``(method, path, body)``
to :func:`~repro.serve.routes.dispatch`, and writes a JSON document or a
chunked ``application/x-ndjson`` stream whose bytes are exactly the job's
``results.jsonl``.  HTTP/1.1 connections stay open unless the client sends
``Connection: close``; HTTP/1.0 ones close.  A refused request (400, 413,
414, 431, 501) gets the routes' JSON error envelope, ``Connection: close``
and, unless quiet, a log line with the reason.  Each connection has its own
thread: results streaming blocks until the job finishes.

:func:`serve` wires in the PR 9 interrupt contract: SIGINT/SIGTERM become a
graceful shutdown that leaves running jobs resumable by the next
``python -m repro serve`` on the same jobs directory.
"""

from __future__ import annotations

import json
import socketserver
import sys
import time
from http import HTTPStatus
from typing import Dict, Optional

from repro.errors import ReproError
from repro.experiments.resilience import GracefulInterrupt, interruptible
from repro.serve.routes import Response, dispatch
from repro.serve.schemas import error_payload
from repro.serve.service import ExperimentService

__all__ = ["ExperimentServer", "ExperimentHandler", "serve"]

#: Per request: the longest line, the most header lines, and the largest
#: body (lines as :mod:`http.server` allows; far above any spec or job body).
MAX_LINE, MAX_HEADERS, MAX_BODY = 65536, 100, 1 << 20

_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def http_date() -> str:
    """Now as an HTTP date (``Sun, 06 Nov 1994 08:49:37 GMT``), locale-free."""
    now = time.gmtime()
    return (f"{_DAYS[now.tm_wday]}, {now.tm_mday:02d} {_MONTHS[now.tm_mon - 1]} "
            f"{now.tm_year} {now.tm_hour:02d}:{now.tm_min:02d}:{now.tm_sec:02d} GMT")


class RequestRefused(ReproError):
    """A request the transport answers itself, unrouted: ``status`` and why."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ExperimentHandler(socketserver.StreamRequestHandler):
    """One connection: requests read, dispatched and answered in turn."""

    server: "ExperimentServer"

    def handle(self) -> None:
        try:
            while self._handle_one():
                pass
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-exchange; nothing to clean up

    def _handle_one(self) -> bool:
        """Serve one request; whether the connection stays open."""
        self.requestline = ""
        try:
            line = self._readline(414, "request line")
            if not line:
                return False
            self.requestline = line.decode("latin-1").rstrip("\r\n")
            words = self.requestline.split()
            if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
                raise RequestRefused(400, f"malformed request {self.requestline!r}")
            method, path, version = words
            if method not in ("GET", "POST"):
                raise RequestRefused(501, f"method {method} not implemented")
            headers = self._headers()
            body = self._body(version, headers)
        except RequestRefused as refusal:
            self._log(refusal.status, refusal)
            payload = {"error": error_payload(refusal)}
            self._write_json(Response(refusal.status, payload), "Connection: close")
            return False
        response = dispatch(self.server.service, method, path, body)
        self._log(response.status)
        if response.stream is not None:
            self._write_stream(response)
        else:
            self._write_json(response)
        return version == "HTTP/1.1" and headers.get("connection") != "close"

    def _readline(self, status: int, what: str) -> bytes:
        line = self.rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise RequestRefused(status, f"{what} longer than {MAX_LINE} bytes")
        return line

    def _headers(self) -> Dict[str, str]:
        """Header lines up to the blank one, names and values lower-cased."""
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self._readline(431, "header line")
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        raise RequestRefused(431, f"more than {MAX_HEADERS} header lines")

    def _body(self, version: str, headers: Dict[str, str]) -> bytes:
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            raise RequestRefused(400, f"invalid Content-Length {declared!r}")
        if len(declared) > len(str(MAX_BODY)) or int(declared) > MAX_BODY:
            raise RequestRefused(413, f"body over {MAX_BODY} bytes: {declared}")
        if version == "HTTP/1.1" and headers.get("expect") == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return self.rfile.read(int(declared))

    def _head(self, status: int, content_type: str, *fields: str) -> bytes:
        """The status line and headers, blank line included: one write."""
        return "\r\n".join((
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}", f"Date: {http_date()}",
            f"Content-Type: {content_type}", *fields, "", "",
        )).encode("latin-1")

    def _write_json(self, response: Response, *fields: str) -> None:
        data = json.dumps(response.payload, indent=2, sort_keys=True).encode() + b"\n"
        self.wfile.write(self._head(response.status, response.content_type,
                                    f"Content-Length: {len(data)}", *fields) + data)

    def _write_stream(self, response: Response) -> None:
        self.wfile.write(self._head(response.status, response.content_type,
                                    "Transfer-Encoding: chunked"))
        assert response.stream is not None
        # ``wfile`` is unbuffered: one write (one segment) per frame, the
        # newest held back so that the terminator leaves with the last one.
        # An empty chunk is the stream saying it is about to wait.
        held = b""
        for chunk in response.stream:
            if held:
                self.wfile.write(held)
            held = b"%X\r\n%b\r\n" % (len(chunk), chunk) if chunk else b""
        self.wfile.write(held + b"0\r\n\r\n")

    def _log(self, status: int, reason: object = "-") -> None:
        if not self.server.quiet:
            sys.stderr.write(f"{self.client_address[0]} - - [{http_date()}] "
                             f'"{self.requestline}" {status} {reason}\n')


class ExperimentServer(socketserver.ThreadingTCPServer):
    """A threading TCP server carrying the service for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: "tuple[str, int]", service: ExperimentService,
                 quiet: bool = False) -> None:
        super().__init__(address, ExperimentHandler)
        self.service = service
        self.quiet = quiet


def serve(
    host: str,
    port: int,
    service: ExperimentService,
    quiet: bool = False,
    ready: Optional["object"] = None,
) -> int:
    """Run the HTTP server until interrupted; returns the process exit code.

    SIGINT/SIGTERM stop the listener and shut the service down gracefully:
    in-flight jobs keep their journals and a restart on the same jobs
    directory resumes them.  ``ready``, when given, must have a ``set()``
    method (a :class:`threading.Event`) and is signalled once the socket is
    bound — used by tests that boot the server on a background thread.

    The service starts first: its worker processes are forked while this
    process has one thread and no socket, so none of them can keep the port
    bound after a ``kill -9`` of the server.
    """
    service.start()
    try:
        # Graceful before the ready line: a caller may signal on reading it.
        with ExperimentServer((host, port), service, quiet=quiet) as server, \
                interruptible():
            bound_host, bound_port = server.server_address[:2]
            print(
                f"serving experiments on http://{bound_host}:{bound_port} "
                f"(jobs dir: {service.jobs_dir})",
                file=sys.stderr,
            )
            if ready is not None:
                ready.set()  # type: ignore[attr-defined]
            server.serve_forever(poll_interval=0.1)
    except GracefulInterrupt as signal:
        print(
            f"received {signal.signal_name}; shutting down "
            "(running jobs stay resumable)",
            file=sys.stderr,
        )
    finally:
        service.shutdown()
    return 0
