"""Unit tests for ``repro.obs``: metrics, trace records, exporter, observer.

These tests exercise the observability layer in isolation — no simulation.
Integration (passivity, spec wiring, CLI, golden digests) lives in
``test_obs_integration.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.obs import (
    DEFAULT_TIME_BOUNDS,
    MetricsRegistry,
    Observer,
    TraceRecorder,
    current_observer,
    install_observer,
    observing,
    read_trace,
    summarize_trace,
    to_chrome_trace,
    trace_digest,
    validate_record,
    write_chrome_trace,
    write_trace,
)
from repro.obs.metrics import MetricCounter, MetricGauge, MetricHistogram


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_increments_and_rejects_negative(self):
        counter = MetricCounter("c")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_gauge_tracks_value_and_maximum(self):
        gauge = MetricGauge("g")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.maximum == 5.0
        gauge.set_max(1.0)  # lower than the running max: no-op
        assert gauge.maximum == 5.0
        gauge.set_max(9.0)
        assert gauge.maximum == 9.0

    def test_histogram_buckets_are_value_le_bound(self):
        hist = MetricHistogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            hist.observe(value)
        payload = hist.as_dict()
        assert payload["count"] == 5
        assert payload["sum"] == pytest.approx(106.0)
        # value <= bound lands in that bucket; the last bucket is overflow.
        assert payload["buckets"] == [
            {"le": 1.0, "count": 2},
            {"le": 2.0, "count": 1},
            {"le": 4.0, "count": 1},
            {"le": None, "count": 1},
        ]

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            MetricHistogram("h", bounds=())
        with pytest.raises(ConfigurationError):
            MetricHistogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            MetricHistogram("h", bounds=(1.0, 1.0))

    def test_registry_get_or_create_and_bounds_conflict(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        hist = registry.histogram("lat", bounds=(1.0, 2.0))
        assert registry.histogram("lat", bounds=(1.0, 2.0)) is hist
        with pytest.raises(ConfigurationError):
            registry.histogram("lat", bounds=(1.0, 3.0))

    def test_registry_as_dict_is_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc(2)
        registry.gauge("depth").set_max(3.0)
        registry.histogram("lat", bounds=DEFAULT_TIME_BOUNDS).observe(1.5)
        payload = registry.as_dict()
        assert list(payload["counters"]) == ["a", "z"]
        assert payload["counters"] == {"a": 2, "z": 1}
        assert payload["gauges"]["depth"]["max"] == 3.0
        json.dumps(payload)  # must be serialisable as-is


# ---------------------------------------------------------------------------
# Trace recorder + canonical serialisation
# ---------------------------------------------------------------------------


class TestTraceRecorder:
    def test_emit_assigns_sequential_seq_and_optional_fields(self):
        recorder = TraceRecorder()
        recorder.emit(ts=1.0, cat="kernel", name="run", ph="B")
        recorder.emit(ts=2.0, cat="net", name="RC", ph="s",
                      actor="c1", args={"to": "s1"}, flow=7)
        first, second = recorder.records
        assert first == {"seq": 0, "ts": 1.0, "cat": "kernel", "name": "run", "ph": "B"}
        assert second["seq"] == 1
        assert second["actor"] == "c1"
        assert second["id"] == 7
        assert "actor" not in first and "args" not in first and "id" not in first

    def test_flow_ids_are_per_recorder(self):
        a, b = TraceRecorder(), TraceRecorder()
        assert [a.next_flow_id() for _ in range(3)] == [1, 2, 3]
        assert b.next_flow_id() == 1  # fresh recorder, fresh counter

    def test_digest_is_sha256_of_the_file_bytes(self, tmp_path):
        recorder = TraceRecorder()
        recorder.emit(ts=0.5, cat="fault", name="crash", ph="i", actor="s1")
        path = tmp_path / "t.jsonl"
        write_trace(recorder.records, str(path))
        assert trace_digest(recorder.records) == hashlib.sha256(
            path.read_bytes()).hexdigest()

    def test_write_read_round_trip(self, tmp_path):
        recorder = TraceRecorder()
        recorder.emit(ts=0.0, cat="op", name="read", ph="B", actor="c1")
        recorder.emit(ts=1.5, cat="op", name="read", ph="E", actor="c1",
                      args={"contacted": 3, "restarts": 0})
        path = tmp_path / "t.jsonl"
        write_trace(recorder.records, str(path))
        assert read_trace(str(path)) == recorder.records

    def test_trace_lines_are_canonical_json(self, tmp_path):
        recorder = TraceRecorder()
        recorder.emit(ts=0.0, cat="kernel", name="run", ph="i",
                      args={"b": 1, "a": 2})
        path = tmp_path / "t.jsonl"
        write_trace(recorder.records, str(path))
        # sort_keys + compact separators: byte-stable regardless of insertion order
        assert path.read_text() == ('{"args":{"a":2,"b":1},"cat":"kernel","name":"run",'
                                    '"ph":"i","seq":0,"ts":0.0}\n')


class TestValidateRecord:
    def _record(self, **overrides):
        record = {"seq": 0, "ts": 0.0, "cat": "net", "name": "RC", "ph": "i"}
        record.update(overrides)
        return record

    def test_accepts_minimal_and_full_records(self):
        assert validate_record(self._record()) == []
        assert validate_record(
            self._record(ph="s", id=3, actor="c1", args={"to": "s1"})) == []

    def test_rejects_missing_and_unknown_keys(self):
        assert any("missing required key 'seq'" in p for p in validate_record(
            {"ts": 0.0, "cat": "net", "name": "RC", "ph": "i"}))
        assert any("unknown key 'bogus'" in p
                   for p in validate_record(self._record(bogus=1)))

    def test_rejects_bad_category_phase_and_seq(self):
        assert validate_record(self._record(cat="nonsense"))
        assert validate_record(self._record(ph="X"))
        assert any("out of order" in p for p in
                   validate_record(self._record(seq=5), expect_seq=0))
        assert validate_record(self._record(seq=5), expect_seq=5) == []

    def test_flow_records_require_an_id(self):
        assert any("requires an 'id'" in p
                   for p in validate_record(self._record(ph="s")))
        assert any("requires an 'id'" in p
                   for p in validate_record(self._record(ph="f")))
        assert validate_record(self._record(ph="s", id=0)) == []

    def test_read_trace_reports_offending_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = '{"cat":"net","name":"RC","ph":"i","seq":0,"ts":0.0}'
        path.write_text(good + "\n" + "not json\n")
        with pytest.raises(ConfigurationError, match=r"bad\.jsonl:2: not valid JSON"):
            read_trace(str(path))
        path.write_text(good + "\n" + '{"cat":"net","ph":"i"}\n')
        with pytest.raises(ConfigurationError, match=r"bad\.jsonl:2: invalid trace"):
            read_trace(str(path))


# ---------------------------------------------------------------------------
# Chrome/Perfetto exporter + summaries
# ---------------------------------------------------------------------------


def _sample_records():
    recorder = TraceRecorder()
    recorder.emit(ts=0.0, cat="op", name="read", ph="B", actor="c1")
    recorder.emit(ts=0.25, cat="net", name="RC", ph="s", actor="c1",
                  args={"to": "s1"}, flow=0)
    recorder.emit(ts=1.0, cat="net", name="RC", ph="f", actor="s1", flow=0)
    recorder.emit(ts=1.5, cat="fault", name="crash", ph="i", actor="s2")
    recorder.emit(ts=2.0, cat="op", name="read", ph="E", actor="c1",
                  args={"contacted": 3, "restarts": 0})
    return recorder.records


class TestChromeExport:
    def test_structure_thread_mapping_and_microseconds(self):
        payload = to_chrome_trace(_sample_records())
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        metadata = [e for e in events if e["ph"] == "M"]
        # one thread_name record per distinct actor, sorted
        assert [e["args"]["name"] for e in metadata] == ["c1", "s1", "s2"]
        tids = {e["args"]["name"]: e["tid"] for e in metadata}
        begin = next(e for e in events if e["ph"] == "B")
        assert begin["tid"] == tids["c1"]
        assert begin["ts"] == 0  # virtual seconds -> microseconds
        flow_start = next(e for e in events if e["ph"] == "s")
        assert flow_start["ts"] == 250000
        assert flow_start["bp"] == "e"
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"

    def test_empty_actor_maps_to_kernel_thread(self):
        recorder = TraceRecorder()
        recorder.emit(ts=0.0, cat="kernel", name="run", ph="i")
        payload = to_chrome_trace(recorder.records)
        (metadata,) = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert metadata["args"]["name"] == "(kernel)"

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "chrome.json"
        write_chrome_trace(_sample_records(), str(path))
        loaded = json.loads(path.read_text())
        assert "traceEvents" in loaded

    def test_flow_arrows_survive_export_as_paired_s_f_events(self):
        recorder = TraceRecorder()
        read_flow = recorder.next_flow_id()
        write_flow = recorder.next_flow_id()
        recorder.emit(ts=0.0, cat="net", name="RC", ph="s", actor="c1",
                      flow=read_flow)
        recorder.emit(ts=0.1, cat="net", name="WC", ph="s", actor="c1",
                      flow=write_flow)
        recorder.emit(ts=1.0, cat="net", name="RC", ph="f", actor="s1",
                      flow=read_flow)
        recorder.emit(ts=1.5, cat="net", name="WC", ph="f", actor="s2",
                      flow=write_flow)
        events = to_chrome_trace(recorder.records)["traceEvents"]
        starts = {e["id"]: e for e in events if e["ph"] == "s"}
        finishes = {e["id"]: e for e in events if e["ph"] == "f"}
        # every start has exactly one finish with the same id and name,
        # and both carry the binding-point marker Perfetto needs to draw
        # the arrow to the enclosing slice
        assert set(starts) == set(finishes) == {read_flow, write_flow}
        for flow_id, start in starts.items():
            finish = finishes[flow_id]
            assert finish["name"] == start["name"]
            assert start["bp"] == "e" and finish["bp"] == "e"
            assert finish["ts"] > start["ts"]
            assert finish["tid"] != start["tid"]  # arrow crosses actors


class TestSummarizeTrace:
    def test_span_matching_and_category_counts(self):
        summary = summarize_trace(_sample_records())
        assert summary["records"] == 5
        assert summary["first_ts"] == 0.0
        assert summary["last_ts"] == 2.0
        assert summary["by_category"] == {"fault": 1, "net": 2, "op": 2}
        span = summary["spans"]["op/read"]
        assert span["count"] == 1
        assert span["total_time"] == pytest.approx(2.0)
        assert summary["open_spans"] == 0
        assert summary["unmatched_ends"] == 0

    def test_unbalanced_spans_are_reported_not_dropped(self):
        recorder = TraceRecorder()
        recorder.emit(ts=0.0, cat="op", name="read", ph="B", actor="c1")
        recorder.emit(ts=1.0, cat="op", name="write", ph="E", actor="c2")
        summary = summarize_trace(recorder.records)
        assert summary["open_spans"] == 1
        assert summary["unmatched_ends"] == 1

    def test_nested_same_name_spans_match_lifo(self):
        # Recursive spans on one actor (the weight-gain refresh shape):
        # B(0) B(1) E(3) E(7) pairs inner-first — durations (3-1) + (7-0),
        # every level accounted exactly once.
        recorder = TraceRecorder()
        recorder.emit(ts=0.0, cat="op", name="refresh", ph="B", actor="s1")
        recorder.emit(ts=1.0, cat="op", name="refresh", ph="B", actor="s1")
        recorder.emit(ts=3.0, cat="op", name="refresh", ph="E", actor="s1")
        recorder.emit(ts=7.0, cat="op", name="refresh", ph="E", actor="s1")
        summary = summarize_trace(recorder.records)
        span = summary["spans"]["op/refresh"]
        assert span["count"] == 2
        assert span["total_time"] == pytest.approx(2.0 + 7.0)
        assert summary["open_spans"] == 0
        assert summary["unmatched_ends"] == 0

    def test_nested_spans_interleaved_across_actors_stay_separate(self):
        recorder = TraceRecorder()
        recorder.emit(ts=0.0, cat="op", name="read", ph="B", actor="c1")
        recorder.emit(ts=0.5, cat="op", name="read", ph="B", actor="c2")
        recorder.emit(ts=2.0, cat="op", name="read", ph="E", actor="c1")
        recorder.emit(ts=4.0, cat="op", name="read", ph="E", actor="c2")
        span = summarize_trace(recorder.records)["spans"]["op/read"]
        assert span["count"] == 2
        # c1 gets 2.0 and c2 gets 3.5 -- the stacks are per (actor, name)
        assert span["total_time"] == pytest.approx(5.5)


# ---------------------------------------------------------------------------
# Observer installation + hooks
# ---------------------------------------------------------------------------


class TestObserverInstallation:
    def test_default_is_no_observer(self):
        assert current_observer() is None

    def test_observing_installs_and_restores(self):
        observer = Observer()
        with observing(observer):
            assert current_observer() is observer
        assert current_observer() is None

    def test_observing_restores_on_exception(self):
        observer = Observer()
        with pytest.raises(RuntimeError):
            with observing(observer):
                raise RuntimeError("boom")
        assert current_observer() is None

    def test_observing_none_masks_an_outer_observer(self):
        outer = Observer()
        with observing(outer):
            with observing(None):
                assert current_observer() is None
            assert current_observer() is outer

    def test_install_observer_returns_previous(self):
        first, second = Observer(), Observer()
        assert install_observer(first) is None
        assert install_observer(second) is first
        assert install_observer(None) is second


class TestObserverHooks:
    def test_message_sent_stamps_flow_and_delivered_closes_it(self):
        observer = Observer()
        message = Message(sender="c1", receiver="s1", kind="RC")
        observer.message_sent(message, now=1.0)
        observer.message_delivered(message, now=2.0)
        start, finish = observer.trace.records
        assert start["ph"] == "s" and finish["ph"] == "f"
        assert start["id"] == finish["id"] == message.trace_flow
        counters = observer.metrics.as_dict()["counters"]
        assert counters["net.sent"] == counters["net.sent.RC"] == 1
        assert counters["net.delivered"] == 1

    def test_delivery_without_flow_stamp_skips_trace(self):
        # A message sent before the observer was installed has no flow id;
        # delivery still counts but emits no dangling flow-finish record.
        observer = Observer()
        message = Message(sender="c1", receiver="s1", kind="RC")
        observer.message_delivered(message, now=2.0)
        assert observer.metrics.as_dict()["counters"]["net.delivered"] == 1
        assert observer.trace.records == []

    def test_trace_messages_false_counts_but_does_not_trace(self):
        observer = Observer(trace_messages=False)
        message = Message(sender="c1", receiver="s1", kind="RC")
        observer.message_sent(message, now=1.0)
        assert observer.metrics.as_dict()["counters"]["net.sent"] == 1
        assert observer.trace.records == []

    def test_operation_lifecycle_counts_and_latency_histogram(self):
        observer = Observer()
        observer.operation_started("abd", "c1", "read", now=0.0)
        observer.operation_completed("abd", "c1", "read", now=3.0,
                                     restarts=0, contacted=3, latency=3.0)
        payload = observer.metrics.as_dict()
        assert payload["counters"]["abd.ops.read"] == 1
        assert "abd.restarts" not in payload["counters"]  # zero restarts: no counter
        assert payload["histograms"]["abd.op_latency"]["count"] == 1
        begin, end = observer.trace.records
        assert (begin["ph"], end["ph"]) == ("B", "E")
        assert end["args"] == {"contacted": 3, "restarts": 0}

    def test_weight_gain_refresh_tracks_max_depth(self):
        observer = Observer()
        for depth in (1, 2, 3, 1):
            observer.weight_gain_refresh("s1", depth, now=1.0)
        payload = observer.metrics.as_dict()
        assert payload["counters"]["storage.weight_gain_refreshes"] == 4
        assert payload["gauges"]["storage.weight_gain_refresh_depth"]["max"] == 3.0

    def test_metrics_only_observer_has_no_trace(self):
        observer = Observer(trace=False)
        assert observer.trace is None
        observer.kernel_run(ready_hits=5, heap_hits=2, max_depth=4)
        counters = observer.metrics.as_dict()["counters"]
        assert counters["kernel.events"] == 7
        assert counters["kernel.ready_dispatches"] == 5
        assert counters["kernel.heap_dispatches"] == 2
