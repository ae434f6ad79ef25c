"""Tests for the multi-line restore: CRC fallback across recovery sets."""

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.checkpoint import StableStorage
from repro.checkpoint import storage as storage_module
from repro.checkpoint.image import capture_image
from repro.checkpoint.storage import image_key
from repro.errors import NoCheckpointError
from repro.faults import StorageFaultConfig, StorageFaultModel
from repro.obs import Tracer
from repro.simkit import Environment

RANKS = (0, 1)


def commit_line(storage, set_id, step, ranks=RANKS):
    """Stage one image per rank (payload encodes the step) and commit."""
    for rank in ranks:
        payload = {"step": step, "state": f"{set_id}-r{rank}"}
        image = capture_image(payload)
        storage.stage_untimed(set_id, image_key(rank), image)
    storage.commit_set(set_id, step)


def build_history(env, lines=3, faults=None, tracer=None):
    storage = StableStorage(env, faults=faults, tracer=tracer or Tracer())
    for index in range(lines):
        commit_line(storage, f"set{index}", step=10 * (index + 1))
    return storage


def events(storage, name):
    """The (set, depth) of every ``name`` event the storage traced."""
    return [
        (record["set"], record["depth"])
        for record in storage.tracer.records
        if record["name"] == name
    ]


class TestHappyPath:
    def test_restores_newest_line_at_depth_one(self, env):
        storage = build_history(env)
        line, depth, images = storage.restore(RANKS)
        assert line.set_id == "set2"
        assert depth == 1
        assert images[0]["state"] == "set2-r0"
        assert images[1]["state"] == "set2-r1"
        assert storage.commits == 3
        assert events(storage, "recovery_fallback_used") == []

    def test_retained_lines_newest_first(self, env, monkeypatch):
        monkeypatch.setattr(storage_module, "RECOVERY_LINES", 2)
        storage = build_history(env, lines=4)
        assert [line.set_id for line in storage.recovery_lines()] == ["set3", "set2"]
        assert storage.commits == 4


class TestCorruptionFallback:
    def test_falls_back_one_line_on_corrupt_image(self, env):
        storage = build_history(env)
        storage.corrupt(image_key(0), set_id="set2")
        line, depth, images = storage.restore(RANKS)
        assert line.set_id == "set1"
        assert depth == 2
        assert storage.max_rollback_depth == 2
        assert storage.lines_skipped == 1
        assert images[1]["state"] == "set1-r1"
        # The recovery line rebinds so rework accounting sees the truth.
        assert storage.line == line
        assert events(storage, "recovery_line_corrupt") == [("set2", 1)]
        assert events(storage, "recovery_fallback_used") == [("set1", 2)]

    def test_falls_back_to_oldest_line(self, env):
        storage = build_history(env)
        storage.corrupt(image_key(0), set_id="set2")
        storage.corrupt(image_key(1), set_id="set1")
        line, depth, _ = storage.restore(RANKS)
        assert line.set_id == "set0"
        assert depth == 3
        assert storage.lines_skipped == 2

    def test_all_lines_bad_raises_for_cold_start(self, env):
        storage = build_history(env)
        for set_id in ("set0", "set1", "set2"):
            storage.corrupt(image_key(0), set_id=set_id)
        with pytest.raises(NoCheckpointError):
            storage.restore(RANKS)
        assert storage.lines_skipped == 3
        # A failed restore leaves the line it would have reported alone.
        assert storage.line.set_id == "set2"
        assert storage.max_rollback_depth == 0

    def test_depth_resets_per_restore(self, env):
        storage = build_history(env)
        storage.corrupt(image_key(0), set_id="set2")
        assert storage.restore(RANKS)[1] == 2
        # A later commit heals the head; the next restore is depth 1
        # while max_rollback_depth remembers the worst case.
        commit_line(storage, "set3", step=40)
        line, depth, _ = storage.restore(RANKS)
        assert (line.set_id, depth) == ("set3", 1)
        assert storage.max_rollback_depth == 2

    def test_second_restore_retries_the_skipped_line(self, env):
        storage = build_history(env)
        storage.corrupt(image_key(0), set_id="set2")
        first = storage.restore(RANKS)
        # No commit in between: the corrupt newest line is tried (and
        # skipped) again, and the restore lands on the same older line.
        line, depth, images = storage.restore(RANKS)
        assert (line, depth, images) == first
        assert line.set_id == "set1"
        assert storage.lines_skipped == 2
        assert events(storage, "recovery_line_corrupt") == [("set2", 1)] * 2


class TestUnreadableFallback:
    def test_missing_blob_condemns_the_line(self, env):
        storage = build_history(env, lines=2)
        # The newest line lacks rank 1's image: restoring only rank 0
        # from it would mix steps, so the whole line is skipped.
        commit_line(storage, "set2", step=30, ranks=RANKS[:1])
        line, _, _ = storage.restore(RANKS)
        assert line.set_id == "set1"
        assert storage.lines_skipped == 1
        assert events(storage, "recovery_line_unreadable") == [("set2", 1)]
        assert events(storage, "recovery_line_corrupt") == []

    def test_trimmed_history_not_consulted(self, env, monkeypatch):
        # Two recovery lines retain only set2/set1: restore must not
        # reach back to the trimmed set0.
        monkeypatch.setattr(storage_module, "RECOVERY_LINES", 2)
        storage = build_history(env, lines=3)
        storage.corrupt(image_key(0), set_id="set2")
        storage.corrupt(image_key(0), set_id="set1")
        with pytest.raises(NoCheckpointError):
            storage.restore(RANKS)
        assert storage.lines_skipped == 2

    def test_reused_set_id_retries_its_trimmed_line(self, env, monkeypatch):
        # set0 is committed again after a cold start: the trimmed first
        # set0 is tried last, against the retained set0's blobs.
        monkeypatch.setattr(storage_module, "RECOVERY_LINES", 2)
        storage = build_history(env, lines=2)
        commit_line(storage, "set0", step=10)
        for set_id in ("set0", "set1"):
            storage.corrupt(image_key(0), set_id=set_id)
        with pytest.raises(NoCheckpointError):
            storage.restore(RANKS)
        assert events(storage, "recovery_line_corrupt") == [
            ("set0", 1), ("set1", 2), ("set0", 3)
        ]


class TestNoHistory:
    def test_no_commit_raises(self, env):
        storage = StableStorage(env)
        assert storage.line is None
        with pytest.raises(NoCheckpointError):
            storage.restore(RANKS)
        assert storage.lines_skipped == 0

    def test_zero_prob_model_never_blocks_restore(self, env):
        faults = StorageFaultModel(StorageFaultConfig())
        storage = build_history(env, faults=faults)
        line, depth, _ = storage.restore(RANKS)
        assert line.set_id == "set2"
        assert depth == 1


#: Picklable states: nested lists and dicts of plain scalars.
STATES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@st.composite
def corrupted_histories(draw):
    """2-4 committed lines of per-rank states plus the (line, rank) blobs to damage."""
    lines = draw(st.integers(min_value=2, max_value=4))
    ranks = draw(st.integers(min_value=1, max_value=3))
    states = [[draw(STATES) for _ in range(ranks)] for _ in range(lines)]
    damaged = draw(
        st.sets(st.tuples(st.integers(0, lines - 1), st.integers(0, ranks - 1)))
    )
    return states, damaged


class TestIntegrityProperty:
    @given(corrupted_histories())
    def test_restores_newest_line_without_a_corrupt_blob(self, history):
        states, damaged = history
        ranks = range(len(states[0]))
        storage = StableStorage(Environment())
        # Retain every generated line (hypothesis cannot take the
        # function-scoped monkeypatch fixture).
        with mock.patch.object(storage_module, "RECOVERY_LINES", len(states)):
            for index, line_states in enumerate(states):
                for rank in ranks:
                    image = capture_image(line_states[rank])
                    storage.stage_untimed(f"set{index}", image_key(rank), image)
                storage.commit_set(f"set{index}", step=index + 1)
        for index, rank in damaged:
            storage.corrupt(image_key(rank), set_id=f"set{index}")

        clean = [
            index
            for index in range(len(states))
            if not any((index, rank) in damaged for rank in ranks)
        ]
        if not clean:
            with pytest.raises(NoCheckpointError):
                storage.restore(ranks)
            assert storage.lines_skipped == len(states)
            return
        newest = clean[-1]
        line, depth, restored = storage.restore(ranks)
        assert line.set_id == f"set{newest}"
        assert restored == dict(enumerate(states[newest]))
        skipped = len(states) - 1 - newest
        assert storage.lines_skipped == skipped
        assert depth == skipped + 1
