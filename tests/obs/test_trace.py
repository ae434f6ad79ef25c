"""Tests for the tracing substrate: records, null object, JSONL text and files."""

import pickle

from repro.obs import (
    NULL_TRACER,
    Tracer,
    parse_jsonl,
    read_trace,
    to_jsonl,
    write_jsonl,
    write_trace,
)


class FakeClock:
    """A deterministic wall clock for record-shape tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestTracer:
    def test_event_record_shape(self):
        tracer = Tracer(clock=FakeClock())
        tracer.event("failure", sim_time=2.5, slot=3)
        (record,) = tracer.records
        assert record == {
            "type": "event", "name": "failure", "t": 2.5, "wall": 1.0, "slot": 3,
        }

    def test_span_open_then_end(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.begin("attempt", sim_time=0.0, attempt=1)
        (open_record,) = tracer.records
        assert open_record["t1"] is None and open_record["wall1"] is None
        span.end(sim_time=4.0, completed=True)
        (record,) = tracer.records
        assert record["t0"] == 0.0 and record["t1"] == 4.0
        assert record["wall1"] > record["wall0"]
        assert record["completed"] is True

    def test_span_end_is_idempotent(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.begin("attempt", sim_time=0.0)
        span.end(sim_time=1.0)
        span.end(sim_time=2.0)
        (record,) = tracer.records
        assert record["t1"] == 2.0

    def test_common_fields_merged_at_read(self):
        tracer = Tracer(common={"job": "r1-seed0"})
        tracer.event("x")
        assert tracer.records[0]["job"] == "r1-seed0"

    def test_record_raw(self):
        tracer = Tracer(clock=FakeClock())
        tracer.record("summary", total_time=9.0)
        (record,) = tracer.records
        assert record["type"] == "summary" and record["total_time"] == 9.0

    def test_len(self):
        tracer = Tracer()
        tracer.event("a")
        tracer.event("b")
        assert len(tracer) == 2


class TestNullTracer:
    def test_everything_is_a_noop(self):
        span = NULL_TRACER.begin("attempt", sim_time=0.0)
        span.end(sim_time=1.0)
        NULL_TRACER.event("failure", sim_time=0.5)
        NULL_TRACER.record("summary", total=1.0)
        assert NULL_TRACER.records == ()
        assert len(NULL_TRACER) == 0

    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True


class TestFiles:
    def test_write_then_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        records = [{"type": "event", "name": "a", "wall": 1.0}]
        assert write_jsonl(path, records) == 1
        assert read_trace(path) == records

    def test_write_appends(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(path, [{"n": 1}])
        write_jsonl(path, [{"n": 2}])
        assert [r["n"] for r in read_trace(path)] == [1, 2]

    def test_unserializable_values_fall_back_to_repr(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(path, [{"obj": object()}])
        (record,) = read_trace(path)
        assert "object" in record["obj"]

    def test_text_roundtrip(self):
        tracer = Tracer(common={"job": "r1-seed7"}, clock=FakeClock())
        tracer.event("failure", sim_time=1.0, slot=2)
        tracer.begin("attempt", sim_time=0.0).end(sim_time=3.0)
        text = to_jsonl(tracer.records)
        assert text.count("\n") == 2
        assert parse_jsonl(text) == list(tracer.records)
        assert parse_jsonl(to_jsonl([])) == []

    def test_text_always_pickles(self):
        tracer = Tracer()
        tracer.event("odd", payload=lambda: None)
        text = to_jsonl(tracer.records)
        assert pickle.loads(pickle.dumps(text)) == text
        (record,) = parse_jsonl(text)
        assert "lambda" in record["payload"]


class TestMerge:
    def test_merge_orders_by_wall_after_the_head(self, tmp_path):
        out = str(tmp_path / "merged.jsonl")
        head = [{"type": "manifest", "kind": "campaign"}]
        records = [
            {"name": "late", "wall": 5.0},
            {"name": "early", "wall": 1.0},
            {"name": "span", "wall0": 3.0},
        ]
        count = write_trace(out, records, head=head)
        assert count == 4
        merged = read_trace(out)
        assert merged[0]["type"] == "manifest"
        assert [r.get("name") for r in merged[1:]] == ["early", "span", "late"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["merged.jsonl"]

    def test_merge_overwrites_stale_output(self, tmp_path):
        out = str(tmp_path / "merged.jsonl")
        write_jsonl(out, [{"stale": True}])
        write_trace(out, [])
        assert read_trace(out) == []

    def test_records_without_stamps_sort_last(self, tmp_path):
        out = str(tmp_path / "merged.jsonl")
        write_trace(out, [{"name": "unstamped"}, {"name": "a", "wall": 1.0}])
        assert [r["name"] for r in read_trace(out)] == ["a", "unstamped"]
