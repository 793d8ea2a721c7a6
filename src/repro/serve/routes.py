"""Transport-free request routing for the serving layer.

:func:`dispatch` maps ``(method, path, body)`` onto the
:class:`~repro.serve.service.ExperimentService` API and returns a
:class:`Response` — either a JSON payload or a byte-chunk stream.  Keeping
the routing out of the HTTP handler means the whole endpoint surface is
testable in-process without sockets, and the handler stays a thin
serialisation shim.

Error mapping is uniform: every failure renders as
``{"error": {"message", "type", "path"}}`` with 400 for validation errors,
404 for unknown jobs/routes, 405 for a known path with the wrong method,
409 for state conflicts, and 503 when the submission queue is full.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.experiments.plan import JobRequest
from repro.experiments.registry import catalogue_payload
from repro.experiments.spec import ScenarioSpec
from repro.serve.service import (
    ExperimentService,
    JobStateError,
    QueueFullError,
    UnknownJobError,
)

__all__ = ["Response", "dispatch", "error_payload"]


@dataclass
class Response:
    """One endpoint result: a JSON payload or a chunked byte stream."""

    status: int
    payload: Optional[Any] = None
    stream: Optional[Iterator[bytes]] = None
    content_type: str = "application/json"


def error_payload(error: BaseException) -> Dict[str, Any]:
    """The one error shape every endpoint renders.

    ``path`` is the dotted section path structured validation errors carry
    (:attr:`~repro.errors.ConfigurationError.path`); ``None`` when the
    error has no location.
    """
    return {
        "message": str(error),
        "type": type(error).__name__,
        "path": getattr(error, "path", None),
    }


def _error(status: int, error: BaseException) -> Response:
    return Response(status, payload={"error": error_payload(error)})


# -- endpoint handlers ---------------------------------------------------------


def _get_healthz(service: ExperimentService, body: Any) -> Response:
    return Response(200, payload={"ok": True, "jobs": service.job_counts()})


def _get_metrics(service: ExperimentService, body: Any) -> Response:
    return Response(200, payload=service.metrics_payload())


def _get_scenarios(service: ExperimentService, body: Any) -> Response:
    return Response(200, payload=catalogue_payload())


def _post_validate(service: ExperimentService, body: Any) -> Response:
    """Validate an inline spec; validation failures are a 200 with details.

    The endpoint's *job* is judging specs, so a bad spec is a successful
    judgement — ``{"ok": false, "errors": [...]}`` with dotted paths —
    while a non-object body is still a 400.
    """
    if not isinstance(body, dict):
        raise ConfigurationError(
            f"expected a spec object, got {type(body).__name__}"
        )
    try:
        spec = ScenarioSpec.from_dict(body).validate()
    except ConfigurationError as error:
        return Response(
            200, payload={"ok": False, "errors": [error_payload(error)]}
        )
    return Response(
        200,
        payload={
            "ok": True,
            "name": spec.name,
            "sweepable": sorted(spec.flatten()),
        },
    )


def _post_jobs(service: ExperimentService, body: Any) -> Response:
    if not isinstance(body, dict):
        raise ConfigurationError(
            f"expected a job request object, got {type(body).__name__}"
        )
    job = service.submit(JobRequest.from_dict(body))
    return Response(201, payload=job.payload())


def _get_jobs(service: ExperimentService, body: Any) -> Response:
    return Response(200, payload=[job.payload() for job in service.jobs()])


def _get_job(service: ExperimentService, body: Any, job_id: str) -> Response:
    return Response(200, payload=service.job(job_id).payload())


def _get_results(service: ExperimentService, body: Any, job_id: str) -> Response:
    service.job(job_id)  # 404 before committing to a stream
    return Response(
        200,
        stream=service.stream_results(job_id),
        content_type="application/x-ndjson",
    )


def _post_cancel(service: ExperimentService, body: Any, job_id: str) -> Response:
    return Response(200, payload=service.cancel(job_id).payload())


_ROUTES: List[Tuple[str, "re.Pattern[str]", Callable[..., Response]]] = [
    ("GET", re.compile(r"^/healthz$"), _get_healthz),
    ("GET", re.compile(r"^/metrics$"), _get_metrics),
    ("GET", re.compile(r"^/scenarios$"), _get_scenarios),
    ("POST", re.compile(r"^/specs/validate$"), _post_validate),
    ("POST", re.compile(r"^/jobs$"), _post_jobs),
    ("GET", re.compile(r"^/jobs$"), _get_jobs),
    ("GET", re.compile(r"^/jobs/(?P<job_id>[^/]+)$"), _get_job),
    ("GET", re.compile(r"^/jobs/(?P<job_id>[^/]+)/results$"), _get_results),
    ("POST", re.compile(r"^/jobs/(?P<job_id>[^/]+)/cancel$"), _post_cancel),
]


def dispatch(
    service: ExperimentService,
    method: str,
    path: str,
    body: Optional[bytes] = None,
) -> Response:
    """Route one request; never raises — failures become error responses."""
    path = path.split("?", 1)[0]
    parsed: Any = None
    if body:
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            return _error(400, ConfigurationError(f"invalid JSON body: {error}"))
    allowed: List[str] = []
    for route_method, pattern, handler in _ROUTES:
        match = pattern.match(path)
        if match is None:
            continue
        if route_method != method:
            allowed.append(route_method)
            continue
        try:
            return handler(service, parsed, **match.groupdict())
        except UnknownJobError as error:
            return _error(404, error)
        except JobStateError as error:
            return _error(409, error)
        except QueueFullError as error:
            return _error(503, error)
        except (ConfigurationError, ReproError) as error:
            return _error(400, error)
    if allowed:
        return _error(
            405,
            ConfigurationError(
                f"method {method} not allowed for {path}; "
                f"allowed: {', '.join(sorted(set(allowed)))}"
            ),
        )
    return _error(404, ConfigurationError(f"no route for {method} {path}"))
