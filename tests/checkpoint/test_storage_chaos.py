"""Tests for the chaos-hardened storage: versioned sets + injected faults."""

import copy

import pytest

from repro.checkpoint import ProcessImage, StableStorage
from repro.checkpoint import storage as storage_module
from repro.errors import (
    CheckpointError,
    CorruptImageError,
    NoCheckpointError,
    StorageWriteError,
)
from repro.faults import StorageFaultConfig, StorageFaultModel, WriteVerdict


class ScriptedFaults(StorageFaultModel):
    """Fault model whose write verdicts come from an explicit script (FIFO)."""

    def __init__(self, writes=()):
        # Any positive probability flips ``enabled``; verdicts below
        # never consult the RNG.
        super().__init__(StorageFaultConfig(write_fail_prob=1e-9))
        self.write_script = list(writes)

    def on_write(self):
        return self.write_script.pop(0) if self.write_script else WriteVerdict()


class TestVersionedSets:
    def _commit(self, storage, set_id, payload):
        storage.stage_untimed(set_id, "k", ProcessImage(payload))
        storage.commit_set(set_id, 1)

    def test_retains_last_k_sets_newest_first(self, env, monkeypatch):
        monkeypatch.setattr(storage_module, "RECOVERY_LINES", 2)
        storage = StableStorage(env)
        for index in range(4):
            self._commit(storage, f"s{index}", b"data%d" % index)
        assert [line.set_id for line in storage.recovery_lines()] == ["s3", "s2"]

    def test_trimmed_set_unreachable(self, env, monkeypatch):
        monkeypatch.setattr(storage_module, "RECOVERY_LINES", 2)
        storage = StableStorage(env)
        for index in range(3):
            self._commit(storage, f"s{index}", b"x")
        with pytest.raises(NoCheckpointError):
            storage.fetch("s0", "k")

    def test_fetch_reads_from_named_older_set(self, env):
        storage = StableStorage(env)
        self._commit(storage, "old", b"old-data")
        self._commit(storage, "new", b"new-data")
        assert storage.fetch("old", "k").data == b"old-data"
        assert storage.fetch("new", "k").data == b"new-data"
        assert storage.fetch(None, "k").data == b"new-data"


class TestFaultsActive:
    def test_no_model_is_inactive(self, env):
        assert not StableStorage(env).faults_active

    def test_all_zero_model_is_inactive(self, env):
        faults = StorageFaultModel(StorageFaultConfig())
        assert not StableStorage(env, faults=faults).faults_active

    def test_enabled_model_is_active(self, env):
        faults = StorageFaultModel(StorageFaultConfig(corrupt_prob=0.5))
        assert StableStorage(env, faults=faults).faults_active


class TestInjectedWriteFaults:
    def test_failed_write_stages_nothing(self, env):
        faults = ScriptedFaults(writes=[WriteVerdict(fail=True)])
        storage = StableStorage(env, faults=faults)
        with pytest.raises(StorageWriteError):
            storage.stage_untimed("s", "k", ProcessImage(b"doomed"))
        with pytest.raises(CheckpointError):
            storage.commit_set("s", 1)

    def test_untimed_stage_failure(self, env):
        faults = ScriptedFaults(writes=[WriteVerdict(fail=True)])
        storage = StableStorage(env, faults=faults)
        with pytest.raises(StorageWriteError):
            storage.stage_untimed("s", "k", ProcessImage(b"doomed"))

    def test_corrupt_write_keeps_pristine_crc(self, env):
        """At-rest rot: damaged payload, original digest — silent until read."""
        faults = StorageFaultModel(StorageFaultConfig(corrupt_prob=1.0), seed=1)
        storage = StableStorage(env, faults=faults)
        storage.stage_untimed("s", "k", ProcessImage(b"pristine-payload"))
        storage.commit_set("s", 1)
        blob = storage.fetch(None, "k")
        assert blob.data != b"pristine-payload"
        with pytest.raises(CorruptImageError):
            blob.verify()


class TestReads:
    def test_fetch_draws_two_variates_from_an_enabled_model(self, env):
        """Reads never fail, but each still advances an enabled fault
        stream by two variates, so seeded corruption stays where it was."""
        faults = StorageFaultModel(StorageFaultConfig(corrupt_prob=0.5), seed=3)
        storage = StableStorage(env, faults=faults)
        storage.stage_untimed("s", "k", ProcessImage(b"payload"))
        storage.commit_set("s", 1)
        reference = copy.deepcopy(faults._rng)
        for _ in range(2):
            storage.fetch("s", "k")
        reference.random(4)
        assert faults._rng.bit_generator.state == reference.bit_generator.state
