"""Tests for the multi-line restore: CRC fallback across recovery sets."""

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.checkpoint import RestartManager, StableStorage
from repro.checkpoint import storage as storage_module
from repro.checkpoint.image import capture_image
from repro.errors import NoCheckpointError
from repro.faults import StorageFaultConfig, StorageFaultModel
from repro.simkit import Environment

RANKS = (0, 1)


def commit_line(storage, manager, set_id, step, now=0.0, ranks=RANKS):
    """Stage one image per rank (payload encodes the step) and commit."""
    for rank in ranks:
        payload = {"step": step, "state": f"{set_id}-r{rank}"}
        storage.stage_untimed(set_id, RestartManager.key_for(rank), capture_image(payload).data)
    manager.note_commit(set_id, step, now)


def build_history(env, lines=3, faults=None):
    storage = StableStorage(env, faults=faults)
    manager = RestartManager(storage)
    for index in range(lines):
        commit_line(storage, manager, f"set{index}", step=10 * (index + 1))
    return storage, manager


class TestHappyPath:
    def test_restores_newest_line_at_depth_one(self, env):
        _, manager = build_history(env)
        line, images = manager.restore_states(RANKS)
        assert line.set_id == "set2"
        assert manager.last_rollback_depth == 1
        assert images[0]["state"] == "set2-r0"
        assert images[1]["state"] == "set2-r1"

    def test_retained_lines_newest_first(self, env, monkeypatch):
        monkeypatch.setattr(storage_module, "RECOVERY_LINES", 2)
        _, manager = build_history(env, lines=4)
        assert [line.set_id for line in manager.retained_lines()] == ["set3", "set2"]


class TestCorruptionFallback:
    def test_falls_back_one_line_on_corrupt_image(self, env):
        storage, manager = build_history(env)
        storage.corrupt(RestartManager.key_for(0), set_id="set2")
        line, images = manager.restore_states(RANKS)
        assert line.set_id == "set1"
        assert manager.last_rollback_depth == 2
        assert manager.max_rollback_depth == 2
        assert manager.corrupt_lines_skipped == 1
        assert images[1]["state"] == "set1-r1"
        # The recovery line rebinds so rework accounting sees the truth.
        assert manager.line.set_id == "set1"

    def test_falls_back_to_oldest_line(self, env):
        storage, manager = build_history(env)
        storage.corrupt(RestartManager.key_for(0), set_id="set2")
        storage.corrupt(RestartManager.key_for(1), set_id="set1")
        line, _ = manager.restore_states(RANKS)
        assert line.set_id == "set0"
        assert manager.last_rollback_depth == 3
        assert manager.corrupt_lines_skipped == 2

    def test_all_lines_bad_raises_for_cold_start(self, env):
        storage, manager = build_history(env)
        for set_id in ("set0", "set1", "set2"):
            storage.corrupt(RestartManager.key_for(0), set_id=set_id)
        with pytest.raises(NoCheckpointError):
            manager.restore_states(RANKS)
        assert manager.corrupt_lines_skipped == 3

    def test_depth_resets_per_restore(self, env):
        storage, manager = build_history(env)
        storage.corrupt(RestartManager.key_for(0), set_id="set2")
        manager.restore_states(RANKS)
        assert manager.last_rollback_depth == 2
        # A later commit heals the head; the next restore is depth 1
        # while max_rollback_depth remembers the worst case.
        commit_line(storage, manager, "set3", step=40)
        manager.restore_states(RANKS)
        assert manager.last_rollback_depth == 1
        assert manager.max_rollback_depth == 2


class TestUnreadableFallback:
    def test_missing_blob_condemns_the_line(self, env):
        storage, manager = build_history(env, lines=2)
        # The newest line lacks rank 1's image: restoring only rank 0
        # from it would mix steps, so the whole line is skipped.
        commit_line(storage, manager, "set2", step=30, ranks=RANKS[:1])
        line, _ = manager.restore_states(RANKS)
        assert line.set_id == "set1"
        assert manager.unreadable_lines_skipped == 1
        assert manager.corrupt_lines_skipped == 0

    def test_trimmed_history_not_consulted(self, env, monkeypatch):
        # Two recovery lines retain only set2/set1; the manager's history
        # still remembers set0 but restore must not try the evicted set.
        monkeypatch.setattr(storage_module, "RECOVERY_LINES", 2)
        storage, manager = build_history(env, lines=3)
        storage.corrupt(RestartManager.key_for(0), set_id="set2")
        storage.corrupt(RestartManager.key_for(0), set_id="set1")
        with pytest.raises(NoCheckpointError):
            manager.restore_states(RANKS)


class TestNoHistory:
    def test_no_commit_raises(self, env):
        storage = StableStorage(env)
        manager = RestartManager(storage)
        with pytest.raises(NoCheckpointError):
            manager.restore_states(RANKS)

    def test_zero_prob_model_never_blocks_restore(self, env):
        faults = StorageFaultModel(StorageFaultConfig())
        _, manager = build_history(env, faults=faults)
        line, _ = manager.restore_states(RANKS)
        assert line.set_id == "set2"
        assert manager.last_rollback_depth == 1


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
        manager = RestartManager(storage)
        # Retain every generated line (hypothesis cannot take the
        # function-scoped monkeypatch fixture).
        with mock.patch.object(storage_module, "RECOVERY_LINES", len(states)):
            for index, line_states in enumerate(states):
                for rank in ranks:
                    storage.stage_untimed(
                        f"set{index}",
                        RestartManager.key_for(rank),
                        capture_image(line_states[rank]).data,
                    )
                manager.note_commit(f"set{index}", step=index + 1, now=float(index))
        for index, rank in damaged:
            storage.corrupt(RestartManager.key_for(rank), set_id=f"set{index}")

        clean = [
            index
            for index in range(len(states))
            if not any((index, rank) in damaged for rank in ranks)
        ]
        if not clean:
            with pytest.raises(NoCheckpointError):
                manager.restore_states(ranks)
            assert manager.corrupt_lines_skipped == len(states)
            return
        newest = clean[-1]
        line, restored = manager.restore_states(ranks)
        assert line.set_id == f"set{newest}"
        assert restored == dict(enumerate(states[newest]))
        skipped = len(states) - 1 - newest
        assert manager.corrupt_lines_skipped == skipped
        assert manager.last_rollback_depth == skipped + 1
