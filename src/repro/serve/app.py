"""The stdlib HTTP front end: ThreadingHTTPServer over the dispatch table.

No framework — :class:`ExperimentHandler` reads the body, hands
``(method, path, body)`` to :func:`~repro.serve.routes.dispatch`, and writes
either a JSON document (Content-Length) or a chunked
``application/x-ndjson`` stream whose bytes are exactly the job's
``results.jsonl``.  Threading matters here: results streaming blocks until
the job finishes, so each connection needs its own handler thread while the
service's job threads and their worker processes execute in the background.

:func:`serve` wires in the PR 9 interrupt contract: SIGINT/SIGTERM become a
graceful shutdown that leaves running jobs resumable by the next
``python -m repro serve`` on the same jobs directory.
"""

from __future__ import annotations

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.experiments.resilience import GracefulInterrupt, interruptible
from repro.serve.routes import Response, dispatch
from repro.serve.service import ExperimentService

__all__ = ["ExperimentServer", "ExperimentHandler", "serve"]


class ExperimentHandler(BaseHTTPRequestHandler):
    """One request: read body, dispatch, serialise the Response."""

    protocol_version = "HTTP/1.1"
    server: "ExperimentServer"

    def _handle(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else None
        response = dispatch(self.server.service, method, self.path, body)
        try:
            if response.stream is not None:
                self._write_stream(response)
            else:
                self._write_json(response)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to clean up

    def _write_json(self, response: Response) -> None:
        data = (
            json.dumps(response.payload, indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _write_stream(self, response: Response) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
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

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._handle("POST")

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)


class ExperimentServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers."""

    daemon_threads = True

    def __init__(
        self,
        address: "tuple[str, int]",
        service: ExperimentService,
        quiet: bool = False,
    ) -> None:
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
        with ExperimentServer((host, port), service, quiet=quiet) as server:
            bound_host, bound_port = server.server_address[:2]
            print(
                f"serving experiments on http://{bound_host}:{bound_port} "
                f"(jobs dir: {service.jobs_dir})",
                file=sys.stderr,
            )
            if ready is not None:
                ready.set()  # type: ignore[attr-defined]
            with interruptible():
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
