"""Typed request/response schemas for the serving layer.

The request side is :class:`~repro.experiments.plan.JobRequest` — the one
description of "which scenario, which parameters, which runs" the CLI builds
from ``argv`` too — re-exported here because it is the ``POST /jobs`` body:
a typo'd field fails with a 400 naming the key, and ``_validate`` raises
dotted-``path`` errors the routes render uniformly with
``POST /specs/validate``.

The response side is deliberately plain: responses are dicts assembled by
the service (:meth:`~repro.serve.service.Job.payload`) and serialised by the
routes, with :func:`error_payload` as the one shared error shape
(``{"message", "type", "path"}``).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.plan import JOB_KINDS, SAMPLE_METHODS, JobRequest

__all__ = ["JobRequest", "JOB_KINDS", "SAMPLE_METHODS", "error_payload"]


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
