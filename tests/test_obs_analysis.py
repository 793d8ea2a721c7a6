"""Tests for the trace-analytics layer (``repro.obs.analysis`` and friends).

Four analyses over recorded traces, plus their CLI wiring:

* invariant checking (structural + semantic, warnings vs errors);
* causal graph / critical path / latency attribution — including the
  telescoping property (per-operation attribution sums to the span
  duration) on traces of real registered scenarios;
* cross-run first-divergence diff;
* windowed virtual-time series.

Every analysis must degrade cleanly on an empty trace.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cli import main
from repro.obs import (
    check_trace_invariants,
    critical_path,
    critical_path_report,
    diff_traces,
    extract_operations,
    format_divergence,
    parse_events,
    read_trace,
    trace_series,
)
from tests.conftest import synthetic_trace


def _record(seq, ts, cat, name, ph, actor="", args=None, flow=None):
    record = {"seq": seq, "ts": ts, "cat": cat, "name": name, "ph": ph}
    if actor:
        record["actor"] = actor
    if args:
        record["args"] = args
    if flow is not None:
        record["id"] = flow
    return record


def _clean_op_trace():
    """One client op over two servers: B, sends, replies, quorum, E.

    Timeline (client c1, servers s1/s2)::

        t=0.0  B           (op starts)
        t=0.5  s ->s1, s ->s2      (requests leave after 0.5 local time)
        t=1.5  f @s1;  s1 replies  (1.0 network)
        t=1.6  f @s2;  s2 replies
        t=2.5  f @c1 (s1's reply), f @c1 (s2's reply at 2.6)
        t=2.6  quorum phase1, E
    """
    return [
        _record(0, 0.0, "op", "read", "B", "c1", {"protocol": "storage"}),
        _record(1, 0.5, "net", "READ", "s", "c1", {"to": "s1"}, flow=1),
        _record(2, 0.5, "net", "READ", "s", "c1", {"to": "s2"}, flow=2),
        _record(3, 1.5, "net", "READ", "f", "s1", {"from": "c1"}, flow=1),
        _record(4, 1.5, "net", "READ-ACK", "s", "s1", {"to": "c1"}, flow=3),
        _record(5, 1.6, "net", "READ", "f", "s2", {"from": "c1"}, flow=2),
        _record(6, 1.6, "net", "READ-ACK", "s", "s2", {"to": "c1"}, flow=4),
        _record(7, 2.5, "net", "READ-ACK", "f", "c1", {"from": "s1"}, flow=3),
        _record(8, 2.6, "net", "READ-ACK", "f", "c1", {"from": "s2"}, flow=4),
        _record(9, 2.6, "quorum", "phase1", "i", "c1",
                {"protocol": "storage", "size": 2}),
        _record(10, 2.6, "op", "read", "E", "c1",
                {"contacted": 2, "restarts": 0}),
    ]


class TestParseEvents:
    def test_typed_events_mirror_records(self):
        events = parse_events(_clean_op_trace())
        assert len(events) == 11
        assert events[0].cat == "op" and events[0].is_span_begin
        assert events[1].ph == "s" and events[1].flow == 1 and events[1].is_flow
        assert events[10].is_span_end
        assert events[9].args["size"] == 2

    def test_invalid_record_raises_with_position(self):
        bad = _clean_op_trace()
        bad[3]["cat"] = "nonsense"
        with pytest.raises(ConfigurationError, match="record 3"):
            parse_events(bad)

    def test_out_of_order_seq_rejected(self):
        records = _clean_op_trace()
        records[5]["seq"] = 99
        with pytest.raises(ConfigurationError, match="out of order"):
            parse_events(records)

    def test_empty_stream(self):
        assert parse_events([]) == []


class TestInvariants:
    def test_clean_trace_passes(self):
        report = check_trace_invariants(_clean_op_trace())
        assert report.ok
        assert report.findings == []
        assert report.counters["records"] == 11
        assert report.counters["closed_spans"] == 1
        assert report.counters["finished_flows"] == 4
        assert report.counters["quorum_phases"] == 1

    def test_empty_trace_is_ok(self):
        report = check_trace_invariants([])
        assert report.ok
        assert report.counters["records"] == 0
        assert report.as_dict()["findings"] == []

    def test_backwards_ts_is_an_error(self):
        records = _clean_op_trace()
        records[7]["ts"] = 0.1  # after seq 6 at ts=1.6
        report = check_trace_invariants(records)
        assert not report.ok
        assert any(f.check == "monotone-ts" and f.seq == 7
                   for f in report.errors)

    def test_unmatched_end_is_an_error_open_span_a_warning(self):
        records = _clean_op_trace()
        unmatched = records + [
            _record(11, 3.0, "op", "write", "E", "c9", {"restarts": 0})
        ]
        report = check_trace_invariants(unmatched)
        assert any(f.check == "span-balance" and f.severity == "error"
                   for f in report.findings)
        truncated = _clean_op_trace()[:1]  # B only, no E
        report = check_trace_invariants(truncated)
        assert report.ok  # in-flight at end of trace is legal...
        assert any(f.check == "span-balance" and f.severity == "warning"
                   for f in report.findings)

    def test_flow_finish_without_start_is_an_error(self):
        records = _clean_op_trace()
        records[7]["id"] = 77  # finishes a flow nobody started
        report = check_trace_invariants(records)
        assert any(f.check == "flow-pairing" and f.severity == "error"
                   and f.seq == 7 for f in report.findings)

    def test_unfinished_flow_is_a_warning(self):
        records = _clean_op_trace()[:3] + [
            _record(3, 2.6, "op", "read", "E", "c1", {"restarts": 0})
        ]
        report = check_trace_invariants(records)
        assert report.ok
        assert any(f.check == "flow-pairing" and f.severity == "warning"
                   for f in report.findings)

    def test_duplicate_flow_start_is_an_error(self):
        records = _clean_op_trace()
        records[2]["id"] = 1  # same id as seq 1
        report = check_trace_invariants(records)
        assert any(f.check == "flow-pairing" and f.severity == "error"
                   and f.seq == 2 for f in report.findings)

    def test_quorum_outside_operation_span_is_an_error(self):
        records = [
            _record(0, 0.0, "quorum", "phase1", "i", "c1",
                    {"protocol": "storage", "size": 3}),
        ]
        report = check_trace_invariants(records)
        assert any(f.check == "quorum-nesting" for f in report.errors)

    def test_quorum_below_threshold_is_an_error(self):
        records = _clean_op_trace()
        assert check_trace_invariants(records, min_quorum=2).ok
        report = check_trace_invariants(records, min_quorum=3)
        assert any(f.check == "quorum-size" and f.seq == 9
                   for f in report.errors)

    def test_phase_order_violation_is_an_error(self):
        records = _clean_op_trace()
        records.insert(9, _record(9, 2.6, "quorum", "phase2", "i", "c1",
                                  {"protocol": "storage", "size": 2}))
        for seq, record in enumerate(records):
            record["seq"] = seq
        # phase2 then phase1 in the same round
        report = check_trace_invariants(records)
        assert any(f.check == "quorum-phase-order" for f in report.errors)

    def test_restart_resets_the_phase_order(self):
        records = _clean_op_trace()[:1] + [
            _record(1, 0.5, "quorum", "phase2", "i", "c1",
                    {"protocol": "storage", "size": 2}),
            _record(2, 0.6, "op", "restart", "i", "c1",
                    {"op": "read", "protocol": "storage"}),
            _record(3, 0.7, "quorum", "phase1", "i", "c1",
                    {"protocol": "storage", "size": 2}),
            _record(4, 0.8, "op", "read", "E", "c1", {"restarts": 1}),
        ]
        assert check_trace_invariants(records).ok

    def test_transfer_arg_mismatch_is_an_error(self):
        records = [
            _record(0, 0.0, "transfer", "transfer", "B", "s1",
                    {"delta": 0.2, "target": "s2"}),
            _record(1, 1.0, "transfer", "transfer", "E", "s1",
                    {"delta": 0.3, "effective": True, "target": "s2"}),
        ]
        report = check_trace_invariants(records)
        assert any(f.check == "transfer-balance" for f in report.errors)

    def test_effective_transfers_conserve_weight(self):
        records = [
            _record(0, 0.0, "transfer", "transfer", "B", "s1",
                    {"delta": 0.2, "target": "s2"}),
            _record(1, 1.0, "transfer", "transfer", "E", "s1",
                    {"delta": 0.2, "effective": True, "target": "s2"}),
        ]
        report = check_trace_invariants(records)
        assert report.ok
        assert report.counters["effective_transfers"] == 1
        assert report.counters["net_weight"] == pytest.approx(0.0, abs=1e-12)

    def test_golden_fig1_trace_passes(self, tmp_path):
        trace = tmp_path / "fig1.jsonl"
        assert main(["run", "fig1-walkthrough", "--trace", str(trace),
                     "--quiet"]) == 0
        report = check_trace_invariants(read_trace(str(trace)))
        assert report.ok
        assert report.findings == []  # fig1 closes every span and flow


class TestCriticalPath:
    def test_extract_operations(self):
        operations = extract_operations(parse_events(_clean_op_trace()))
        assert len(operations) == 1
        op = operations[0]
        assert (op.actor, op.kind, op.protocol) == ("c1", "read", "storage")
        assert op.begin_seq == 0 and op.end_seq == 10
        assert op.duration == pytest.approx(2.6)
        assert op.contacted == 2 and op.restarts == 0

    def test_attribution_of_the_clean_trace(self):
        report = critical_path_report(_clean_op_trace())
        assert len(report["operations"]) == 1
        row = report["operations"][0]
        attribution = row["attribution"]
        # Gating chain: E <- phase1 <- s2's reply arrival (network 1.0)
        # <- s2's request arrival (network 1.1) <- c1's sends <- B (0.5
        # local time before the requests leave = queue).
        assert attribution["network"] == pytest.approx(2.1)
        assert attribution["queue"] == pytest.approx(0.5)
        assert attribution["quorum"] == pytest.approx(0.0)
        assert attribution["restart"] == pytest.approx(0.0)
        assert sum(attribution.values()) == pytest.approx(row["duration"])
        assert report["by_kind"]["read"]["count"] == 1

    def test_restart_segments_are_attributed_to_restart(self):
        records = [
            _record(0, 0.0, "op", "write", "B", "c1", {"protocol": "storage"}),
            _record(1, 0.0, "net", "W", "s", "c1", {"to": "s1"}, flow=1),
            _record(2, 1.0, "net", "W", "f", "s1", {"from": "c1"}, flow=1),
            _record(3, 2.0, "op", "restart", "i", "c1",
                    {"op": "write", "protocol": "storage"}),
            _record(4, 2.5, "net", "W", "s", "c1", {"to": "s1"}, flow=2),
            _record(5, 3.5, "net", "W", "f", "s1", {"from": "c1"}, flow=2),
            _record(6, 3.5, "net", "W-ACK", "s", "s1", {"to": "c1"}, flow=3),
            _record(7, 4.5, "net", "W-ACK", "f", "c1", {"from": "s1"}, flow=3),
            _record(8, 4.5, "op", "write", "E", "c1", {"restarts": 1}),
        ]
        report = critical_path_report(records)
        attribution = report["operations"][0]["attribution"]
        # Everything before the restart instant (t<=2.0) is wasted-round
        # time; the retry round splits into queue (0.5) + network (2.0).
        assert attribution["restart"] == pytest.approx(2.0)
        assert attribution["queue"] == pytest.approx(0.5)
        assert attribution["network"] == pytest.approx(2.0)
        assert sum(attribution.values()) == pytest.approx(4.5)

    def test_critical_path_steps_connect_end_to_begin(self):
        events = parse_events(_clean_op_trace())
        operation = extract_operations(events)[0]
        steps = critical_path(events, operation)
        assert steps[0].pred_seq == operation.begin_seq
        assert steps[-1].seq == operation.end_seq
        for earlier, later in zip(steps, steps[1:]):
            assert earlier.seq == later.pred_seq
        assert all(step.elapsed >= 0.0 for step in steps)

    def test_empty_trace_reports_no_operations(self):
        report = critical_path_report([])
        assert report == {"records": 0, "operations": [], "by_kind": {},
                          "categories": {"queue": 0.0, "network": 0.0,
                                         "quorum": 0.0, "restart": 0.0}}

    @pytest.mark.parametrize("scenario,params", [
        ("quickstart", ["-p", "workload.operations_per_client=4"]),
        ("static-majority-baseline",
         ["-p", "workload.operations_per_client=5"]),
        ("skewed-reassignment", ["-p", "workload.operations_per_client=3"]),
    ])
    def test_attribution_sums_to_duration_on_registered_scenarios(
        self, tmp_path, scenario, params
    ):
        """The telescoping property on real traces of registered scenarios."""
        trace = tmp_path / f"{scenario}.jsonl"
        assert main(["run", scenario, "--trace", str(trace), "--quiet",
                     *params]) == 0
        records = read_trace(str(trace))
        report = critical_path_report(records)
        assert report["operations"], f"{scenario} produced no operations"
        for row in report["operations"]:
            total = sum(row["attribution"].values())
            assert math.isclose(total, row["duration"],
                                rel_tol=1e-9, abs_tol=1e-9), (scenario, row)
            assert all(v >= 0.0 for v in row["attribution"].values())
        for kind, aggregate in report["by_kind"].items():
            total = sum(aggregate["attribution"].values())
            assert math.isclose(total, aggregate["total_duration"],
                                rel_tol=1e-9, abs_tol=1e-9), (scenario, kind)


class TestDiff:
    def test_identical_traces_diff_to_none(self):
        records = _clean_op_trace()
        assert diff_traces(records, list(records)) is None
        assert diff_traces([], []) is None
        assert format_divergence(None) == "traces are identical"

    def test_planted_single_record_difference_reports_seq_and_fields(self):
        a = _clean_op_trace()
        b = [dict(record) for record in a]
        b[5] = dict(b[5], ts=9.9, actor="s9")
        divergence = diff_traces(a, b)
        assert divergence is not None
        assert divergence["kind"] == "field"
        assert divergence["seq"] == 5
        assert set(divergence["fields"]) == {"ts", "actor"}
        assert divergence["fields"]["ts"] == {"a": 1.6, "b": 9.9}
        assert divergence["fields"]["actor"] == {"a": "s2", "b": "s9"}
        assert len(divergence["context"]) == 3
        assert divergence["context"][-1] == a[4]
        rendered = format_divergence(divergence)
        assert "seq 5" in rendered and "ts:" in rendered

    def test_absent_key_reported_as_absent(self):
        a = _clean_op_trace()
        b = [dict(record) for record in a]
        del b[1]["id"]
        b[1]["ph"] = "i"  # keep it schema-valid: instants need no id
        divergence = diff_traces(a, b)
        assert divergence["seq"] == 1
        assert divergence["fields"]["id"] == {"a": 1, "b": "<absent>"}

    def test_prefix_traces_report_length_divergence(self):
        a = _clean_op_trace()
        divergence = diff_traces(a, a[:4])
        assert divergence["kind"] == "length"
        assert divergence["seq"] == 4
        assert divergence["surplus_in"] == "a"
        assert divergence["first_surplus"] == a[4]
        assert "continues past" in format_divergence(divergence)

    def test_context_is_clamped_at_the_start(self):
        a = _clean_op_trace()
        b = [dict(record) for record in a]
        b[0] = dict(b[0], ts=5.0)
        divergence = diff_traces(a, b, context=5)
        assert divergence["seq"] == 0
        assert divergence["context"] == []


class TestSeries:
    def test_empty_trace_yields_empty_series(self):
        series = trace_series([])
        assert series == {"records": 0, "window": 0.0, "start": 0.0,
                          "end": 0.0, "series": []}

    def test_windows_partition_the_span(self):
        series = trace_series(_clean_op_trace(), window=1.0)
        rows = series["series"]
        assert series["records"] == 11
        assert sum(row["events"] for row in rows) == 11
        assert rows[0]["ops_started"] == 1
        assert rows[-1]["ops_completed"] == 1
        assert rows[0]["in_flight"] == 1
        assert rows[-1]["in_flight"] == 0
        assert sum(row["by_category"].get("net", 0) for row in rows) == 8

    def test_single_timestamp_trace_degrades_to_one_window(self):
        records = [
            _record(0, 1.0, "op", "read", "B", "c1"),
            _record(1, 1.0, "op", "read", "E", "c1"),
        ]
        series = trace_series(records)
        assert len(series["series"]) == 1
        assert series["series"][0]["events"] == 2

    def test_sharded_actors_split_by_shard(self):
        records = [
            _record(0, 0.0, "op", "read", "B", "s1#0"),
            _record(1, 0.5, "op", "read", "E", "s1#0"),
            _record(2, 1.0, "op", "read", "B", "s2#1"),
            _record(3, 1.5, "op", "read", "E", "s2#1"),
        ]
        series = trace_series(records, window=10.0)
        assert series["series"][0]["by_shard"] == {"0": 2, "1": 2}

    def test_empty_windows_carry_the_in_flight_level(self):
        records = [
            _record(0, 0.0, "op", "read", "B", "c1"),
            _record(1, 10.0, "op", "read", "E", "c1"),
        ]
        series = trace_series(records, window=1.0)
        rows = series["series"]
        assert rows[0]["in_flight"] == 1
        assert all(row["in_flight"] == 1 for row in rows[1:-1])
        assert rows[-1]["in_flight"] == 0


class TestTraceCLI:
    """The `python -m repro trace <subcommand>` wiring, exit codes included."""

    @pytest.fixture()
    def traced_run(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["run", "quickstart", "--trace", str(trace), "--quiet",
                     "-p", "workload.operations_per_client=3"]) == 0
        return str(trace)

    def test_legacy_trace_file_still_summarises(self, traced_run, capsys):
        assert main(["trace", traced_run]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] > 0 and "digest" in payload

    def test_check_passes_and_writes_report(self, traced_run, tmp_path, capsys):
        report_path = tmp_path / "check.json"
        assert main(["trace", "check", traced_run, "--quiet",
                     "--json", str(report_path)]) == 0
        assert "trace check ok" in capsys.readouterr().out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["counters"]["records"] > 0

    def test_check_fails_on_corrupted_trace(self, traced_run, tmp_path, capsys):
        records = read_trace(traced_run)
        # Drop a span end so its E becomes unmatched -> error severity.
        victim = next(i for i, r in enumerate(records)
                      if r["cat"] == "op" and r["ph"] == "B")
        del records[victim]
        for seq, record in enumerate(records):
            record["seq"] = seq
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                               for r in records))
        assert main(["trace", "check", str(bad), "--quiet"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_critical_path_table_and_json(self, traced_run, tmp_path, capsys):
        out = tmp_path / "cpath.json"
        assert main(["trace", "critical-path", traced_run,
                     "--json", str(out)]) == 0
        assert "critical-path time split" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["operations"]
        for row in payload["operations"]:
            assert sum(row["attribution"].values()) == pytest.approx(
                row["duration"], abs=1e-9)

    def test_diff_cli_reports_divergence_and_exit_code(
        self, traced_run, tmp_path, capsys
    ):
        records = read_trace(traced_run)
        records[10]["ts"] = records[10]["ts"] + 0.125
        other = tmp_path / "other.jsonl"
        other.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                 for r in records))
        assert main(["trace", "diff", traced_run, str(other)]) == 1
        out = capsys.readouterr().out
        assert "seq 10" in out and "ts:" in out
        assert main(["trace", "diff", traced_run, traced_run]) == 0

    def test_series_cli(self, traced_run, tmp_path, capsys):
        out = tmp_path / "series.json"
        assert main(["trace", "series", traced_run, "--buckets", "5",
                     "--json", str(out)]) == 0
        assert "record(s) over" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert sum(row["events"] for row in payload["series"]) \
            == payload["records"]

    def test_json_files_are_indented_sorted_and_newline_terminated(
        self, traced_run, tmp_path, capsys
    ):
        # Every --json file of the trace subcommands is written the same way:
        # compare its bytes with the analysis' own document, serialised.
        records = read_trace(traced_run)
        shifted = read_trace(traced_run)
        shifted[10]["ts"] = shifted[10]["ts"] + 0.125
        other = tmp_path / "other.jsonl"
        other.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                 for r in shifted))
        cases = {
            "check": (["check", traced_run, "--min-quorum", "2"],
                      check_trace_invariants(records, min_quorum=2).as_dict()),
            "critical-path": (["critical-path", traced_run],
                              critical_path_report(records)),
            "diff": (["diff", traced_run, str(other), "--context", "2"],
                     diff_traces(records, shifted, context=2)),
            "series": (["series", traced_run, "--buckets", "5"],
                       trace_series(records, buckets=5)),
        }
        for name, (argv, document) in cases.items():
            out = tmp_path / f"{name}.json"
            main(["trace", *argv, "--json", str(out)])
            expected = json.dumps(document, indent=2, sort_keys=True) + "\n"
            assert out.read_text(encoding="utf-8") == expected, name
        capsys.readouterr()

    def test_digest_check_matches_and_mismatches(self, traced_run, tmp_path,
                                                 capsys):
        from repro.obs import trace_digest

        digest = trace_digest(read_trace(traced_run))
        golden = tmp_path / "golden.sha256"
        golden.write_text(digest + "\n")
        assert main(["trace", "digest", traced_run,
                     "--check", str(golden)]) == 0
        assert "digest ok" in capsys.readouterr().out
        golden.write_text("0" * 64 + "\n")
        assert main(["trace", "digest", traced_run,
                     "--check", str(golden)]) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_digest_matches_file_bytes(self, traced_run, capsys):
        import hashlib

        assert main(["trace", "digest", traced_run]) == 0
        printed = capsys.readouterr().out.strip()
        with open(traced_run, "rb") as handle:
            assert printed == hashlib.sha256(handle.read()).hexdigest()


class TestEmptyTraceCLI:
    """Satellite: every trace subcommand returns clean results on 0 records."""

    @pytest.fixture()
    def empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        return str(path)

    def test_summary(self, empty_trace, capsys):
        assert main(["trace", "summary", empty_trace]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 0

    def test_summary_export(self, empty_trace, tmp_path):
        out = tmp_path / "empty.chrome.json"
        assert main(["trace", "summary", empty_trace, "--quiet",
                     "--export", str(out)]) == 0
        assert json.loads(out.read_text()) == {"traceEvents": [],
                                               "displayTimeUnit": "ms"}

    def test_digest(self, empty_trace, capsys):
        import hashlib

        assert main(["trace", "digest", empty_trace]) == 0
        assert capsys.readouterr().out.strip() \
            == hashlib.sha256(b"").hexdigest()

    def test_check(self, empty_trace, capsys):
        assert main(["trace", "check", empty_trace]) == 0
        assert "0 record(s)" in capsys.readouterr().out

    def test_critical_path(self, empty_trace, capsys):
        assert main(["trace", "critical-path", empty_trace]) == 0
        assert "no completed operation spans" in capsys.readouterr().out

    def test_series(self, empty_trace, capsys):
        assert main(["trace", "series", empty_trace]) == 0
        assert "empty trace" in capsys.readouterr().out

    def test_diff(self, empty_trace):
        assert main(["trace", "diff", empty_trace, empty_trace]) == 0


class TestTraceAnalyzeBenchmark:
    def test_registered_and_deterministic(self):
        from tests.test_determinism import EXACT_COUNTS

        (case,) = [case for case in EXACT_COUNTS if case.id == "trace-analyze"]
        workload = case.values[0]
        first = workload()
        second = workload()
        assert first == second
        assert first["counters"]["findings"] == 0
        assert first["ops"] == 100

    def test_synthetic_trace_is_invariant_clean(self):
        records = synthetic_trace(clients=2, ops_each=3)
        report = check_trace_invariants(records, min_quorum=3)
        assert report.ok
        assert report.findings == []
