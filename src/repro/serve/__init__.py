"""repro.serve — the experiment lab as a multi-user HTTP service.

Two layers, stdlib only, over the one request type the CLI builds too
(:class:`~repro.experiments.plan.JobRequest`: strict unknown-key rejection,
dotted-path validation errors):

* :mod:`repro.serve.service` — the transport-free job store and scheduler
  running jobs on the resilient executor with per-job run journals, so a
  restarted server resumes interrupted jobs byte-identically;
* :mod:`repro.serve.routes` / :mod:`repro.serve.app` — the endpoint table
  and a threading ``socketserver`` front end that speaks HTTP/1.1 itself
  (no ``http.server``, so no OpenSSL in the server), streaming results as
  chunked JSONL, byte-identical to the CLI's ``--jsonl`` sink.

:mod:`repro.serve.client` is the matching stdlib client used by tests, CI
and ``python -m repro.serve.client``.  It is deliberately *not* re-exported
here: the client must stay importable (and ``-m``-runnable) without pulling
in the server stack.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "app": ("ExperimentHandler", "ExperimentServer", "serve"),
    "service": (
        "ExperimentService", "Job", "JobStateError", "QueueFullError",
        "UnknownJobError",
    ),
    "routes": ("Response", "dispatch", "error_payload"),
})
