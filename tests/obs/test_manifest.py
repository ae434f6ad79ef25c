"""Tests for run manifests and their provenance snapshots."""

import json
from dataclasses import dataclass
from functools import partial

from repro.obs import (
    RunManifest,
    collect_versions,
    config_snapshot,
    read_trace,
    write_jsonl,
)
from repro.orchestration import JobConfig
from repro.workloads import SyntheticWorkload


@dataclass(frozen=True)
class _Nested:
    depth: int = 2


@dataclass(frozen=True)
class _Setup:
    steps: int = 10
    scale: float = 0.5
    nested: _Nested = _Nested()


class TestSnapshots:
    def test_versions_cover_toolchain(self):
        versions = collect_versions()
        assert {"repro", "python", "numpy"} <= set(versions)

    def test_dataclass_snapshot_recurses(self):
        snapshot = config_snapshot(_Setup())
        assert snapshot == {
            "steps": 10, "scale": 0.5, "nested": {"depth": 2},
        }

    def test_opaque_values_degrade_to_repr(self):
        factory = partial(SyntheticWorkload, total_steps=5)
        snapshot = config_snapshot({"factory": factory})
        assert "SyntheticWorkload" in snapshot["factory"]

    def test_job_config_snapshot_is_json_serializable(self):
        config = JobConfig(
            workload_factory=partial(SyntheticWorkload, total_steps=5),
            virtual_processes=4,
            checkpoint_cost=1.0,
        )
        json.dumps(config_snapshot(config))


class TestRunManifest:
    def test_for_job_captures_seed(self):
        config = JobConfig(
            workload_factory=partial(SyntheticWorkload, total_steps=5),
            virtual_processes=4,
            checkpoint_cost=1.0,
            seed=99,
        )
        manifest = RunManifest.for_job(config, label="r1-seed99")
        assert manifest.kind == "job"
        assert manifest.seeds == {"job": 99}
        assert manifest.config["virtual_processes"] == 4

    def test_for_campaign(self):
        manifest = RunManifest.for_campaign(
            "table4", params={"quick": True}, base_seed=20120612
        )
        assert manifest.kind == "campaign"
        assert manifest.label == "table4"
        assert manifest.seeds == {"base": 20120612}
        assert manifest.config == {"quick": True}

    def test_finish_merges_outcome(self):
        manifest = RunManifest.for_campaign("table4")
        manifest.finish(cells=15).finish(elapsed=2.0)
        assert manifest.outcome == {"cells": 15, "elapsed": 2.0}

    def test_as_record_is_a_manifest_record(self):
        record = RunManifest.for_campaign("chaos").as_record()
        assert record["type"] == "manifest"
        assert record["kind"] == "campaign"

    def test_record_roundtrips_through_a_trace(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        manifest = RunManifest.for_campaign("table5", base_seed=7)
        manifest.finish(cells=9)
        write_jsonl(path, [manifest.as_record()])
        (record,) = read_trace(path)
        assert record.pop("type") == "manifest"
        assert RunManifest(**record) == manifest
