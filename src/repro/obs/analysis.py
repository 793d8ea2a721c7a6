"""Invariant checking over a recorded trace (``python -m repro trace check``).

The recorder in :mod:`repro.obs.trace` only promises a *schema*: flat
records, closed category/phase vocabularies, ordered ``seq``.  This module
promises *meaning*: it reads a typed event stream (:class:`TraceEvent` — a
recorder's own events as they are, flat records parsed and validated) and
checks the structural and semantic invariants a correct run must satisfy,
so "the digests differ" can be escalated to "the trace is malformed *here*,
in this way".

Structural invariants (any trace):

* ``seq`` counts 0,1,2,... and ``ts`` never decreases (virtual time is
  monotone in dispatch order);
* ``B``/``E`` spans balance per ``(actor, name)`` — every ``E`` closes an
  open ``B``; spans still open at end-of-trace are *warnings* (operations
  legitimately in flight when the run stopped), unmatched ``E`` records are
  errors;
* flow pairing — every ``f`` record closes exactly one earlier ``s`` with
  the same ``id`` and ``name``; a second ``s`` or ``f`` on the same id is
  an error; an ``s`` that never finishes is a warning (dropped or in-flight
  messages are legal, double delivery is not).

Semantic invariants (grounded in the paper's protocols):

* quorum phase records nest inside an open operation span on the same
  actor, and their ``protocol`` arg matches the enclosing span's;
* phase order within one round is non-decreasing (``phase2`` never before
  ``phase1``); a ``restart`` instant starts a new round;
* recorded quorum sizes meet the configured threshold (``min_quorum``);
* weight-transfer spans balance, ``E`` args agree with their ``B`` args
  (same target, same delta), and effective transfers conserve total weight
  across the run to within ``weight_tolerance``.

Every check degrades cleanly on an empty trace: zero records, zero
findings, verdict *ok*.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union,
)

from repro.errors import ConfigurationError
from repro.obs.trace import TraceEvent, ValidatedTrace, validate_record

__all__ = [
    "TraceEvent",
    "Finding",
    "InvariantReport",
    "parse_events",
    "check_trace_invariants",
]

#: One element of a trace as the analyses accept it: a recorder's typed
#: event, or a flat record of the file format.
Record = Union[TraceEvent, Mapping[str, Any]]

#: Trailing integer of a quorum phase name ("phase1" -> 1); phases without
#: one ("probe", "gossip") opt out of the ordering check.
_PHASE_INDEX = re.compile(r"(\d+)$")


def _iter_events(records: Iterable[Record]) -> Iterator[TraceEvent]:
    """One :class:`TraceEvent` per record, validating what is not yet one.

    A typed event passed the schema where it was made (``emit``, or this
    function) and is taken as it is, but for its position: ``seq`` counts
    0,1,2,... over *this* stream whatever it is made of.  Of the flat
    records, a :class:`~repro.obs.trace.ValidatedTrace` was validated one
    by one as ``read_trace`` decoded it; any other is validated here.
    """
    validated = type(records) is ValidatedTrace
    from_record = TraceEvent.from_record
    for index, record in enumerate(records):
        if type(record) is TraceEvent:
            if record[0] != index:
                raise ConfigurationError(
                    f"trace record {index}: invalid: seq {record[0]!r} "
                    f"out of order (expected {index})"
                )
            yield record
            continue
        if not validated:
            problems = validate_record(record, expect_seq=index)
            if problems:
                raise ConfigurationError(
                    f"trace record {index}: invalid: " + "; ".join(problems)
                )
        yield from_record(record)


def parse_events(records: Iterable[Record]) -> List[TraceEvent]:
    """Parse trace records into a typed event stream.

    Flat records are validated against the schema, typed events (a
    recorder's ``events``) are taken as they are, and ``seq`` ordering is
    checked of both; the first invalid record raises
    :class:`ConfigurationError` with its position.  An empty input parses
    to an empty stream.
    """
    return list(_iter_events(records))


@dataclass(frozen=True)
class Finding:
    """One invariant violation (or suspicious-but-legal condition)."""

    severity: str  #: ``"error"`` or ``"warning"``
    check: str  #: stable identifier of the invariant that fired
    seq: Optional[int]  #: offending record, or ``None`` for whole-trace checks
    message: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "severity": self.severity,
            "check": self.check,
            "seq": self.seq,
            "message": self.message,
        }


@dataclass
class InvariantReport:
    """The verdict of :func:`check_trace_invariants`."""

    findings: List[Finding]
    counters: Dict[str, Any]

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity finding fired (warnings allowed)."""
        return not self.errors

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [f.as_dict() for f in self.findings],
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }


def check_trace_invariants(
    records: Iterable[Record],
    min_quorum: int = 1,
    weight_tolerance: float = 1e-9,
) -> InvariantReport:
    """Run every structural and semantic invariant over ``records``.

    ``records`` is whatever :func:`parse_events` takes: a recorder's live
    ``events``, its ``records``, or what ``read_trace`` returned — one
    verdict whichever the route.

    ``min_quorum`` is the smallest quorum size the configuration allows
    (pass the threshold the run was built with to make the check sharp;
    the default ``1`` only rejects degenerate empty quorums).
    """
    findings: List[Finding] = []
    total = 0
    previous_ts = 0.0
    open_spans: Dict[Tuple[str, str], List[TraceEvent]] = {}
    closed_spans = 0
    flow_starts: Dict[int, TraceEvent] = {}
    finished_flows = 0
    # The innermost open op span per actor, as an explicit stack; quorum
    # instants must land inside one and agree on the protocol.
    op_stack: Dict[str, List[TraceEvent]] = {}
    round_phase: Dict[str, int] = {}  # innermost round's highest phase index
    quorum_phases = 0
    transfer_stack: Dict[str, List[TraceEvent]] = {}
    net_weight: Dict[str, float] = {}
    effective_transfers = 0

    # One pass: each event is taken (or built from its record), put to every
    # invariant and dropped (open spans and flows keep theirs), so no second
    # copy of the trace exists beside the caller's.
    for event in _iter_events(records):
        seq, ts, cat, name, ph, actor, args, flow = event
        total += 1

        # -- structural: monotone virtual time -----------------------------
        if ts < previous_ts:
            findings.append(Finding(
                "error", "monotone-ts", seq,
                f"ts went backwards: {ts} after {previous_ts}",
            ))
        elif ts > previous_ts:
            previous_ts = ts

        # -- structural: balanced B/E spans per (actor, name), flow pairing --
        if ph == "B":
            open_spans.setdefault((actor, name), []).append(event)
        elif ph == "E":
            stack = open_spans.get((actor, name))
            if not stack:
                findings.append(Finding(
                    "error", "span-balance", seq,
                    f"E record for {cat}/{name} on actor "
                    f"{actor!r} closes no open span",
                ))
            else:
                stack.pop()
                closed_spans += 1
        elif ph == "s":
            assert flow is not None  # schema: a flow record carries an id
            if flow in flow_starts:
                findings.append(Finding(
                    "error", "flow-pairing", seq,
                    f"flow id {flow} started twice "
                    f"(first at seq {flow_starts[flow].seq})",
                ))
            else:
                flow_starts[flow] = event
        elif ph == "f":
            assert flow is not None
            start = flow_starts.pop(flow, None)
            if start is None:
                findings.append(Finding(
                    "error", "flow-pairing", seq,
                    f"flow id {flow} finishes without a start "
                    "(or finished twice)",
                ))
            else:
                finished_flows += 1
                if start.name != name:
                    findings.append(Finding(
                        "error", "flow-pairing", seq,
                        f"flow id {flow} finishes as {name!r} "
                        f"but started as {start.name!r}",
                    ))

        if cat == "op":
            # -- semantic: operation spans delimit quorum rounds -----------
            if ph == "B":
                op_stack.setdefault(actor, []).append(event)
                round_phase[actor] = 0
            elif ph == "E":
                stack = op_stack.get(actor)
                if stack:
                    stack.pop()
                round_phase[actor] = 0
            elif name == "restart":
                # A restart abandons the current round: phase ordering restarts.
                round_phase[actor] = 0
        elif cat == "quorum":
            # -- semantic: quorum phases nest inside operation spans -------
            quorum_phases += 1
            stack = op_stack.get(actor)
            if not stack:
                findings.append(Finding(
                    "error", "quorum-nesting", seq,
                    f"quorum phase {name!r} on actor {actor!r} "
                    "outside any operation span",
                ))
            else:
                enclosing = stack[-1].args.get("protocol")
                recorded = args.get("protocol")
                if (enclosing is not None and recorded is not None
                        and enclosing != recorded):
                    findings.append(Finding(
                        "error", "quorum-nesting", seq,
                        f"quorum phase protocol {recorded!r} does not match "
                        f"enclosing operation protocol {enclosing!r}",
                    ))
            match = _PHASE_INDEX.search(name)
            if match:
                index = int(match.group(1))
                if index < round_phase.get(actor, 0):
                    findings.append(Finding(
                        "error", "quorum-phase-order", seq,
                        f"phase {name!r} after phase"
                        f"{round_phase[actor]} in the same round",
                    ))
                round_phase[actor] = max(round_phase.get(actor, 0), index)
            size = args.get("size")
            if isinstance(size, int) and size < min_quorum:
                findings.append(Finding(
                    "error", "quorum-size", seq,
                    f"quorum size {size} below configured minimum "
                    f"{min_quorum}",
                ))
        elif cat == "transfer":
            # -- semantic: transfer span consistency + weight conservation --
            if ph == "B":
                transfer_stack.setdefault(actor, []).append(event)
            elif ph == "E":
                stack = transfer_stack.get(actor)
                begin = stack.pop() if stack else None
                if begin is not None:
                    for key in ("delta", "target"):
                        if begin.args.get(key) != args.get(key):
                            findings.append(Finding(
                                "error", "transfer-balance", seq,
                                f"transfer end {key}={args.get(key)!r} "
                                f"disagrees with its begin "
                                f"{key}={begin.args.get(key)!r} "
                                f"(seq {begin.seq})",
                            ))
                if args.get("effective"):
                    delta = float(args.get("delta", 0.0))
                    target = str(args.get("target", ""))
                    net_weight[actor] = net_weight.get(actor, 0.0) - delta
                    net_weight[target] = net_weight.get(target, 0.0) + delta
                    effective_transfers += 1

    # Spans and flows still open when the trace ends are legal (operations
    # and messages in flight when the run stopped), hence warnings.
    unclosed = sorted(
        (stack_event.seq, key)
        for key, stack in open_spans.items()
        for stack_event in stack
    )
    for seq, (actor, name) in unclosed:
        findings.append(Finding(
            "warning", "span-balance", seq,
            f"span {name!r} on actor {actor!r} still open at end of trace",
        ))
    open_flows = len(flow_starts)
    if open_flows:
        findings.append(Finding(
            "warning", "flow-pairing", None,
            f"{open_flows} flow(s) never finished "
            "(dropped or in flight at end of trace)",
        ))
    imbalance = sum(net_weight.values())
    if abs(imbalance) > weight_tolerance:
        findings.append(Finding(
            "error", "weight-conservation", None,
            f"effective transfers do not conserve weight: net {imbalance!r}",
        ))

    counters = {
        "records": total,
        "closed_spans": closed_spans,
        "open_spans": len(unclosed),
        "finished_flows": finished_flows,
        "open_flows": open_flows,
        "quorum_phases": quorum_phases,
        "effective_transfers": effective_transfers,
        "net_weight": imbalance,
    }
    findings.sort(key=lambda f: (f.seq if f.seq is not None else total,
                                 f.check, f.message))
    return InvariantReport(findings=findings, counters=counters)
