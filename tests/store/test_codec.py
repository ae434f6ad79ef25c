"""Property tests: stored payloads round-trip bit-identically."""

import dataclasses
import json
import math
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.models import CombinedModel, CombinedResult
from repro.errors import ModelDivergence
from repro.models.advisor import Recommendation
from repro.orchestration import JobReport
from repro.store.codec import (
    CODEC_VERSION,
    REGISTERED_TYPES,
    decode,
    decode_payload,
    decode_report,
    encode,
    encode_payload,
    encode_report,
)

any_float = st.floats(allow_nan=True, allow_infinity=True)
small_int = st.integers(min_value=0, max_value=1000)

reports = st.builds(
    JobReport,
    completed=st.booleans(),
    total_time=any_float,
    attempts=small_int,
    failures_injected=small_int,
    rollbacks=small_int,
    checkpoints_committed=small_int,
    result=st.none() | st.integers() | st.text(max_size=10),
    checkpoint_union_time=any_float,
    counters=st.dictionaries(st.text(max_size=10), any_float, max_size=4),
    checkpoint_interval=st.none() | st.floats(min_value=1e-6, max_value=1e6),
    physical_processes=small_int,
    checkpoints_skipped=small_int,
    checkpoint_retries=small_int,
    checkpoint_write_failures=small_int,
    max_rollback_depth=small_int,
    recovery_lines_skipped=small_int,
    cold_starts=small_int,
    storage_fault_counts=st.dictionaries(
        st.text(max_size=10), small_int, max_size=3
    ),
)


def strict_dumps(payload):
    """Serialize as the disk backend does: strict JSON, no raw NaN/inf."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
        allow_nan=False,
    )


class TestReportRoundTrip:
    @given(reports)
    @settings(max_examples=100, deadline=None)
    def test_encode_decode_is_bit_identical(self, report):
        """encode -> strict JSON -> decode -> encode is byte-stable."""
        payload = encode_report(report)
        wire = strict_dumps(payload)  # raises if any raw NaN/inf leaked
        restored = decode_report(json.loads(wire))
        assert strict_dumps(encode_report(restored)) == wire

    @given(reports)
    @settings(max_examples=50, deadline=None)
    def test_fields_survive_exactly(self, report):
        restored = decode_report(json.loads(strict_dumps(encode_report(report))))
        assert restored.attempts == report.attempts
        assert restored.counters.keys() == report.counters.keys()
        for key, value in report.counters.items():
            came_back = restored.counters[key]
            if math.isnan(value):
                assert math.isnan(came_back)
            else:
                assert came_back == value
        assert restored.storage_fault_counts == report.storage_fault_counts

    def test_diverged_cell_with_chaos_counters(self):
        """The ISSUE's explicit case: inf total time + chaos stats."""
        report = JobReport(
            completed=False,
            total_time=math.inf,
            attempts=7,
            failures_injected=6,
            rollbacks=5,
            checkpoints_committed=4,
            checkpoint_union_time=math.nan,
            result=None,
            counters={"mpi.sends": 123.0, "lost": -math.inf},
            checkpoints_skipped=2,
            checkpoint_retries=9,
            max_rollback_depth=3,
            recovery_lines_skipped=1,
            cold_starts=1,
            storage_fault_counts={"write_fail": 4, "corrupt": 2},
        )
        wire = strict_dumps(encode_report(report))
        restored = decode_report(json.loads(wire))
        assert restored.total_time == math.inf
        assert math.isnan(restored.checkpoint_union_time)
        assert restored.counters["lost"] == -math.inf
        assert restored.storage_fault_counts == report.storage_fault_counts
        assert strict_dumps(encode_report(restored)) == wire


model_params = st.fixed_dictionaries(
    {
        "virtual_processes": st.integers(min_value=2, max_value=50_000),
        "redundancy": st.sampled_from([1.0, 1.25, 1.5, 2.0, 2.5, 3.0]),
        "node_mtbf": st.floats(min_value=1e5, max_value=1e9),
        "alpha": st.floats(min_value=0.0, max_value=1.0),
        "base_time": st.floats(min_value=1.0, max_value=1e5),
        "checkpoint_cost": st.floats(min_value=0.1, max_value=1e3),
        "restart_cost": st.floats(min_value=0.0, max_value=1e3),
    }
)


class TestResultRoundTrip:
    @given(model_params)
    @settings(max_examples=60, deadline=None)
    def test_combined_result_round_trips_equal(self, params):
        model = CombinedModel(**params)
        try:
            result = model.evaluate()
        except ModelDivergence:
            return  # nothing to store for this draw
        wire = strict_dumps(encode_payload(result))
        restored = decode_payload(json.loads(wire))
        # All-finite dataclass tree: equality IS bit-identity here.
        assert isinstance(restored, CombinedResult)
        assert restored == result
        assert strict_dumps(encode_payload(restored)) == wire


class TestEnvelopes:
    def test_tuples_come_back_as_tuples(self):
        assert decode(encode((1, (2.5, "x")))) == (1, (2.5, "x"))

    def test_nonstring_dict_keys_survive(self):
        value = {6.0: {1.25: 2}, "plain": 1}
        assert decode(encode(value)) == value

    def test_unregistered_dataclass_refused(self):
        import dataclasses

        @dataclasses.dataclass
        class Foreign:
            x: int

        with pytest.raises(CodecError):
            encode(Foreign(1))

    def test_unknown_type_refused(self):
        with pytest.raises(CodecError):
            encode(object())

    def test_unknown_tag_refused(self):
        with pytest.raises(CodecError):
            decode({"__f": "huge"})

    def test_foreign_codec_version_refused(self):
        payload = encode_payload({"x": 1})
        payload["codec"] = CODEC_VERSION + 1
        with pytest.raises(CodecError):
            decode_payload(payload)

    def test_wrong_payload_type_refused(self):
        with pytest.raises(CodecError):
            decode_report(encode_payload({"not": "a report"}))


def reachable_dataclasses(roots):
    """The dataclass types ``roots`` are or hold, through their field hints."""
    seen = set()
    pending = list(roots)
    while pending:
        hint = pending.pop()
        if dataclasses.is_dataclass(hint):
            if hint not in seen:
                seen.add(hint)
                pending.extend(typing.get_type_hints(hint).values())
        else:
            pending.extend(typing.get_args(hint))
    return seen


class TestRegistry:
    def test_registered_types_are_the_stored_dataclasses(self):
        """The store holds ``JobReport`` and ``Recommendation`` payloads."""
        reachable = reachable_dataclasses([JobReport, Recommendation])
        assert {cls.__name__: cls for cls in reachable} == REGISTERED_TYPES
