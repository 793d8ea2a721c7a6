"""A minimal stdlib client for the experiment service, plus a tiny CLI.

:class:`ServeClient` wraps :class:`http.client.HTTPConnection` with the
endpoint surface tests and CI need: health, catalogue, spec validation, job
submission, polling, cancellation and results download.  Results are
returned as the raw chunked-body bytes — reading the stream blocks until
the job reaches a terminal state, which is exactly the synchronisation CI
wants before ``cmp``-gating the file against a direct CLI run.

``python -m repro.serve.client`` exposes the same surface for shell use::

    python -m repro.serve.client --url http://127.0.0.1:8123 health
    python -m repro.serve.client submit --spec examples/specs/quickstart.json \\
        --sweep --seeds 0,1 --results served.jsonl
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.experiments.cli import job_body, read_spec_file

__all__ = ["ServeClient", "ServeClientError", "main"]

DEFAULT_URL = "http://127.0.0.1:8123"


class ServeClientError(ReproError):
    """A non-2xx response; carries the HTTP status and the error's path."""

    def __init__(
        self, message: str, status: int = 0, path: Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.path = path


class ServeClient:
    """One server endpoint; a fresh connection per request (thread-safe)."""

    def __init__(self, base_url: str = DEFAULT_URL, timeout: float = 60.0) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("", "http"):
            raise ServeClientError(
                f"only http:// endpoints are supported, got {base_url!r}"
            )
        netloc = parsed.netloc or parsed.path
        self.host = netloc.rsplit(":", 1)[0] if ":" in netloc else netloc
        self.port = int(netloc.rsplit(":", 1)[1]) if ":" in netloc else 80
        self.timeout = timeout

    def _request(
        self, method: str, path: str, body: Optional[Any] = None
    ) -> Tuple[int, bytes]:
        """One exchange on its own connection: ``(status, whole body)``.

        The connection is closed here, body read or not — never left for
        the garbage collector to find.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _json(self, method: str, path: str, body: Optional[Any] = None) -> Any:
        status, data = self._request(method, path, body)
        try:
            document = json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ServeClientError(
                f"non-JSON response from {method} {path}: {error}",
                status=status,
            ) from error
        if status >= 400:
            detail = document.get("error", {}) if isinstance(document, dict) else {}
            raise ServeClientError(
                detail.get("message", f"{method} {path} failed"),
                status=status,
                path=detail.get("path"),
            )
        return document

    # -- endpoint surface --------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._json("GET", "/metrics")

    def scenarios(self) -> List[Dict[str, Any]]:
        return self._json("GET", "/scenarios")

    def validate_spec(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        return self._json("POST", "/specs/validate", body=spec)

    def submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self._json("POST", "/jobs", body=request)

    def jobs(self) -> List[Dict[str, Any]]:
        return self._json("GET", "/jobs")

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def results_bytes(self, job_id: str) -> bytes:
        """The job's complete results.jsonl; blocks until the job finishes."""
        status, data = self._request("GET", f"/jobs/{job_id}/results")
        if status >= 400:
            detail = {}
            try:
                detail = json.loads(data.decode("utf-8")).get("error", {})
            except (json.JSONDecodeError, UnicodeDecodeError):
                pass
            raise ServeClientError(
                detail.get("message", f"results fetch failed for {job_id}"),
                status=status,
                path=detail.get("path"),
            )
        return data

    def wait(
        self, job_id: str, timeout: float = 120.0, poll: float = 0.1
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final payload."""
        deadline = time.monotonic() + timeout
        while True:
            payload = self.job(job_id)
            if payload["state"] in ("done", "failed", "cancelled"):
                return payload
            if time.monotonic() >= deadline:
                raise ServeClientError(
                    f"job {job_id} still {payload['state']!r} "
                    f"after {timeout:g}s"
                )
            time.sleep(poll)


# -- command line --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.client",
        description="Talk to a running `python -m repro serve` instance.",
    )
    parser.add_argument("--url", default=DEFAULT_URL, help="server base URL")
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="request/wait timeout"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("health", help="server liveness and job counts")
    commands.add_parser("scenarios", help="the scenario catalogue")
    commands.add_parser("jobs", help="list all jobs")
    commands.add_parser("metrics", help="the server metrics snapshot")

    validate = commands.add_parser("validate", help="validate a spec file")
    validate.add_argument("spec", help="path to a JSON spec file")

    submit = commands.add_parser("submit", help="submit a run or sweep job")
    what = submit.add_mutually_exclusive_group(required=True)
    what.add_argument("--scenario", help="a registered scenario name")
    what.add_argument("--spec", help="path to a JSON spec file to upload")
    submit.add_argument("--sweep", action="store_true", help="submit a sweep")
    submit.add_argument(
        "-p", "--param", action="append", default=[], metavar="KEY=VALUE",
        help="fixed parameter (repeatable)",
    )
    submit.add_argument(
        "--grid", action="append", default=[], metavar="AXIS=V1,V2,...",
        help="sweep axis values (repeatable)",
    )
    submit.add_argument("--seeds", help="comma-separated seed axis")
    submit.add_argument("--sample", type=int, help="sample n grid points")
    submit.add_argument("--sample-seed", type=int, default=0)
    submit.add_argument(
        "--sample-method", choices=("uniform", "lhs"), default="uniform"
    )
    submit.add_argument("--workers", type=int, help="per-job executor workers")
    submit.add_argument(
        "--wait", action="store_true", help="block until the job finishes"
    )
    submit.add_argument(
        "--results", metavar="PATH",
        help="stream results to PATH (implies --wait)",
    )

    job = commands.add_parser("job", help="one job's status")
    job.add_argument("id")
    results = commands.add_parser("results", help="download a job's results")
    results.add_argument("id")
    results.add_argument("--output", "-o", help="write to a file, not stdout")
    cancel = commands.add_parser("cancel", help="cancel a job")
    cancel.add_argument("id")
    return parser


def _print(document: Any) -> None:
    print(json.dumps(document, indent=2, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    client = ServeClient(args.url, timeout=args.timeout)
    try:
        if args.command == "health":
            _print(client.health())
        elif args.command == "scenarios":
            _print(client.scenarios())
        elif args.command == "jobs":
            _print(client.jobs())
        elif args.command == "metrics":
            _print(client.metrics())
        elif args.command == "validate":
            verdict = client.validate_spec(read_spec_file(args.spec))
            _print(verdict)
            return 0 if verdict.get("ok") else 1
        elif args.command == "submit":
            # `run` / `sweep`'s own body, plus the per-job `workers` override.
            body = job_body(
                "sweep" if args.sweep else "run", args.scenario, args.spec,
                args.param, args.grid, args.seeds, args.sample,
                args.sample_seed, args.sample_method,
            )
            if args.workers is not None:
                body["workers"] = args.workers
            job = client.submit(body)
            if args.results or args.wait:
                if args.results:
                    data = client.results_bytes(job["id"])
                    with open(args.results, "wb") as handle:
                        handle.write(data)
                job = client.wait(job["id"], timeout=args.timeout)
                _print(job)
                return 0 if job["state"] == "done" else 1
            _print(job)
        elif args.command == "job":
            _print(client.job(args.id))
        elif args.command == "results":
            data = client.results_bytes(args.id)
            if args.output:
                with open(args.output, "wb") as handle:
                    handle.write(data)
            else:
                sys.stdout.buffer.write(data)
        elif args.command == "cancel":
            _print(client.cancel(args.id))
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
