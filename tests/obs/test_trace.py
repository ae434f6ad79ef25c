"""Tests for the tracing substrate: records, null object, part merging."""

import os

from repro.obs import (
    NULL_TRACER,
    Tracer,
    TraceSession,
    merge_trace_parts,
    read_trace,
    write_jsonl,
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
    def test_everything_is_a_noop(self, tmp_path):
        span = NULL_TRACER.begin("attempt", sim_time=0.0)
        span.end(sim_time=1.0)
        NULL_TRACER.event("failure", sim_time=0.5)
        NULL_TRACER.record("summary", total=1.0)
        assert NULL_TRACER.records == ()
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.write(str(tmp_path / "t.jsonl")) == 0
        assert NULL_TRACER.write_part(str(tmp_path)) is None
        assert not os.path.exists(tmp_path / "t.jsonl")

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

    def test_part_names_never_collide(self, tmp_path):
        parts_dir = str(tmp_path / "parts")
        names = set()
        for _ in range(3):
            tracer = Tracer()
            tracer.event("x")
            names.add(tracer.write_part(parts_dir, label="same-label"))
        assert len(names) == 3

    def test_part_label_is_sanitised(self, tmp_path):
        tracer = Tracer()
        tracer.event("x")
        part = tracer.write_part(str(tmp_path), label="a/b c")
        assert "/" not in os.path.basename(part).split(".part")[0].replace(
            "-", ""
        ) and os.path.exists(part)

    def test_empty_tracer_writes_no_part(self, tmp_path):
        assert Tracer().write_part(str(tmp_path)) is None


class TestMerge:
    def test_merge_orders_by_wall_and_removes_parts(self, tmp_path):
        parts_dir = str(tmp_path / "parts")
        os.makedirs(parts_dir)
        write_jsonl(
            os.path.join(parts_dir, "b-1-0.part.jsonl"),
            [{"name": "late", "wall": 5.0}],
        )
        write_jsonl(
            os.path.join(parts_dir, "a-2-1.part.jsonl"),
            [{"name": "early", "wall": 1.0}, {"name": "span", "wall0": 3.0}],
        )
        out = str(tmp_path / "merged.jsonl")
        head = [{"type": "manifest", "kind": "campaign"}]
        count = merge_trace_parts(parts_dir, out, head=head)
        assert count == 4
        merged = read_trace(out)
        assert merged[0]["type"] == "manifest"
        assert [r.get("name") for r in merged[1:]] == ["early", "span", "late"]
        assert not os.path.exists(parts_dir)

    def test_merge_overwrites_stale_output(self, tmp_path):
        out = str(tmp_path / "merged.jsonl")
        write_jsonl(out, [{"stale": True}])
        merge_trace_parts(str(tmp_path / "nothing"), out)
        assert read_trace(out) == []

    def test_records_without_stamps_sort_last(self, tmp_path):
        parts_dir = str(tmp_path / "parts")
        write_jsonl_dir = os.path.join(parts_dir, "x-1-0.part.jsonl")
        os.makedirs(parts_dir)
        write_jsonl(write_jsonl_dir, [{"name": "unstamped"}, {"name": "a", "wall": 1.0}])
        out = str(tmp_path / "merged.jsonl")
        merge_trace_parts(parts_dir, out)
        assert [r["name"] for r in read_trace(out)] == ["a", "unstamped"]


class TestTraceSession:
    def test_finalize_merges_parent_and_worker_parts(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        session = TraceSession(path)
        session.tracer.event("worker_crash")
        worker = Tracer(common={"job": "r1-seed7"})
        worker.event("failure", sim_time=1.0)
        worker.write_part(session.parts_dir, label="r1-seed7")
        count = session.finalize(head=[{"type": "manifest", "kind": "campaign"}])
        assert count == 3
        records = read_trace(path)
        assert records[0]["kind"] == "campaign"
        jobs = {record.get("job") for record in records[1:]}
        assert jobs == {"__parent__", "r1-seed7"}
        assert not os.path.exists(session.parts_dir)
