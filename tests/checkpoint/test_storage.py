"""Tests for stable storage."""

import pytest

from repro.errors import CheckpointError, CorruptImageError, NoCheckpointError
from repro.checkpoint import ProcessImage, RecoveryLine, StableStorage


class TestSetLifecycle:
    def _staged(self, env):
        storage = StableStorage(env)
        storage.stage_untimed("set-a", "k1", ProcessImage(b"one"))
        storage.stage_untimed("set-a", "k2", ProcessImage(b"two"))
        return storage

    def test_commit_promotes(self, env):
        storage = self._staged(env)
        storage.commit_set("set-a", 1)
        assert storage.recovery_lines() == [RecoveryLine("set-a", 1)]
        assert storage.fetch(None, "k1").data == b"one"
        assert storage.fetch(None, "k2").data == b"two"

    def test_uncommitted_not_readable(self, env):
        storage = self._staged(env)
        with pytest.raises(NoCheckpointError):
            storage.fetch(None, "k1")

    def test_commit_unknown_set_rejected(self, env):
        storage = StableStorage(env)
        with pytest.raises(CheckpointError):
            storage.commit_set("ghost", 1)

    def test_abort_discards(self, env):
        storage = self._staged(env)
        storage.abort_set("set-a")
        with pytest.raises(CheckpointError):
            storage.commit_set("set-a", 1)

    def test_new_commit_replaces_old(self, env):
        storage = self._staged(env)
        storage.commit_set("set-a", 1)
        storage.stage_untimed("set-b", "k1", ProcessImage(b"newer"))
        storage.commit_set("set-b", 2)
        assert storage.fetch(None, "k1").data == b"newer"
        with pytest.raises(NoCheckpointError):
            storage.fetch(None, "k2")

    def test_stage_untimed(self, env):
        storage = StableStorage(env)
        storage.stage_untimed("s", "k", ProcessImage(b"fast"))
        storage.commit_set("s", 1)
        assert env.now == 0.0
        assert storage.fetch(None, "k").data == b"fast"


class TestIntegrity:
    def test_verify_passes_for_clean_blob(self, env):
        storage = StableStorage(env)
        storage.stage_untimed("s", "k", ProcessImage(b"sound"))
        storage.commit_set("s", 1)
        storage.fetch(None, "k").verify()

    def test_corrupt_detected_on_read(self, env):
        storage = StableStorage(env)
        storage.stage_untimed("s", "k", ProcessImage(b"will-break"))
        storage.commit_set("s", 1)
        storage.corrupt("k")
        with pytest.raises(CorruptImageError):
            storage.fetch(None, "k").verify()

    def test_read_missing_key(self, env):
        storage = StableStorage(env)
        with pytest.raises(NoCheckpointError):
            storage.fetch(None, "nothing")

    def test_corrupt_empty_blob_rejected(self, env):
        storage = StableStorage(env)
        storage.stage_untimed("s", "k", ProcessImage(b""))
        storage.commit_set("s", 1)
        with pytest.raises(CheckpointError):
            storage.corrupt("k")
