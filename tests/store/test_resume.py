"""Store facade + campaign resumability: the ISSUE's acceptance cases."""

from dataclasses import asdict
from functools import partial

import pytest

import repro.store as store_module
from repro.models import CombinedModel, recommend
from repro.orchestration import CampaignExecutor, JobConfig, run_redundancy_sweep
from repro.orchestration.campaign import redundancy_sweep_configs, run_cells
from repro.store import ResultsStore
from repro.store.codec import encode_payload, encode_report
from repro.store.keys import fingerprint, job_key
from repro.workloads import SyntheticWorkload

MTBFS = [3.0, 6.0]
DEGREES = [1.0, 2.0]


def base_config():
    return JobConfig(
        workload_factory=partial(
            SyntheticWorkload,
            total_steps=8,
            compute_seconds=0.01,
            message_bytes=1024,
        ),
        virtual_processes=4,
        seed=7,
        checkpoint_cost=0.05,
        restart_cost=0.05,
        expected_base_time=0.2,
        alpha_estimate=0.2,
    )


def wire(cells):
    """Cells as their exact stored wire form (NaN-safe comparison)."""
    return [
        (cell.node_mtbf, cell.redundancy, encode_report(cell.report))
        for cell in cells
    ]


class TestFacade:
    def test_report_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path)
        config = base_config()
        assert store.get_report(store.report_key(config)) is None
        cells = run_redundancy_sweep(
            base_config(), node_mtbfs=[3.0], degrees=[1.0], store=store
        )
        # The sweep replaced mtbf/degree/seed; key the stored cell the
        # same way a resumed sweep will.
        assert store.writes == 1
        fresh = ResultsStore(tmp_path)
        resumed = run_redundancy_sweep(
            base_config(), node_mtbfs=[3.0], degrees=[1.0], store=fresh
        )
        assert fresh.hits == 1 and fresh.misses == 0
        assert wire(resumed) == wire(cells)

    def test_codec_v1_report_is_a_counted_miss_and_reruns(self, tmp_path):
        """A report stored with the version-1 layout (it still had a
        ``timeline``) is a miss, its blob is deleted and the cell reruns."""
        store = ResultsStore(tmp_path)
        (cell,) = run_redundancy_sweep(
            base_config(), node_mtbfs=[3.0], degrees=[1.0], store=store
        )
        payload = encode_report(cell.report)
        payload["codec"] = 1
        payload["data"]["f"].update(timeline=[], time_in_checkpoints=0.0)
        store.backend.put(job_key(cell.config, version=store.version), payload)
        old = ResultsStore(tmp_path)
        assert old.get_report(old.report_key(cell.config)) is None
        assert (old.hits, old.misses, old.entries) == (0, 1, 0)
        (rerun,) = run_redundancy_sweep(
            base_config(), node_mtbfs=[3.0], degrees=[1.0], store=old
        )
        assert not rerun.cached and old.writes == 1
        assert wire([rerun]) == wire([cell])

    def test_version_bump_invalidates(self, tmp_path):
        old = ResultsStore(tmp_path, version="0.9.0")
        run_redundancy_sweep(
            base_config(), node_mtbfs=[3.0], degrees=[1.0], store=old
        )
        assert old.stats()["entries"] == 1
        new = ResultsStore(tmp_path, version="1.0.0")
        assert new.invalidated == 1
        assert new.stats()["entries"] == 0

    def test_version_bump_leaves_no_old_file(self, tmp_path):
        old = ResultsStore(tmp_path, version="0.9.0")
        old.put_object("memo", 1, {"v": 1})
        old.put_object("memo", 2, {"v": 2})
        # A blob written below the facade, and a quarantined one.
        old.backend.put("ab" * 32, {"v": 3})
        key = fingerprint("memo", 1, version="0.9.0")
        (old.backend.root / key[:2] / f"{key[2:]}.json").write_text("garbage")
        assert ResultsStore(tmp_path, version="0.9.0").get_object("memo", 1) is None
        assert list((tmp_path / "objects").rglob("*.corrupt"))
        new = ResultsStore(tmp_path, version="1.0.0")
        assert new.invalidated == 2
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert leftovers == []

    def test_object_memoization(self, tmp_path):
        store = ResultsStore(tmp_path)
        model = CombinedModel(
            virtual_processes=50_000,
            redundancy=1.0,
            node_mtbf=5 * 365 * 24 * 3600.0,
            alpha=0.2,
            base_time=128 * 3600.0,
            checkpoint_cost=480.0,
            restart_cost=720.0,
        )
        params = {"model": model, "grid": (1.0, 2.0, 3.0)}
        assert store.get_object("recommend", params) is None
        rec = recommend(model, grid=(1.0, 2.0, 3.0))
        store.put_object("recommend", params, rec)
        restored = ResultsStore(tmp_path).get_object("recommend", params)
        assert restored == rec

    @staticmethod
    def assert_stale_recommendation_recomputed(tmp_path, version, restyle):
        """A recommendation stored under codec ``version``, its result
        reshaped by ``restyle`` into that version's layout, is a counted
        miss; the recomputed answer is stored afresh and then hits."""
        model = CombinedModel(
            virtual_processes=50_000,
            redundancy=1.0,
            node_mtbf=5 * 365 * 24 * 3600.0,
            alpha=0.2,
            base_time=128 * 3600.0,
            checkpoint_cost=480.0,
            restart_cost=720.0,
        )
        params = {"model": model, "grid": (1.0, 2.0, 3.0)}
        rec = recommend(model, grid=(1.0, 2.0, 3.0))
        payload = encode_payload(rec)
        payload["codec"] = version
        restyle(payload["data"]["f"]["result"]["f"], model)
        store = ResultsStore(tmp_path)
        store.backend.put(
            fingerprint("recommend", params, version=store.version), payload
        )
        old = ResultsStore(tmp_path)
        assert old.get_object("recommend", params) is None
        assert (old.hits, old.misses, old.entries) == (0, 1, 0)
        old.put_object("recommend", params, recommend(model, grid=(1.0, 2.0, 3.0)))
        fresh = ResultsStore(tmp_path)
        assert fresh.get_object("recommend", params) == rec
        assert (fresh.hits, fresh.misses) == (1, 0)

    def test_codec_v2_recommendation_is_a_counted_miss_and_recomputes(
        self, tmp_path
    ):
        """The version-2 layout: the result still nested a partition and
        a time breakdown."""

        def restyle(result, _model):
            for name in (
                "expected_checkpoints", "expected_failures", "node_seconds",
                "work_share", "checkpoint_share", "recompute_share",
                "restart_share",
            ):
                del result[name]
            result.update(
                partition={"__dc": "RedundancyPartition", "f": {}},
                breakdown={"__dc": "TimeBreakdown", "f": {}},
            )

        self.assert_stale_recommendation_recomputed(tmp_path, 2, restyle)

    def test_codec_v3_recommendation_is_a_counted_miss_and_recomputes(
        self, tmp_path
    ):
        """The version-3 layout: the result echoed its model."""

        def restyle(result, model):
            result["model"] = {"__dc": "CombinedModel", "f": asdict(model)}

        self.assert_stale_recommendation_recomputed(tmp_path, 3, restyle)

    def test_hit_ratio_and_render(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.get_report(store.report_key(base_config()))
        assert store.hit_ratio == 0.0
        text = store.render_stats()
        assert "0 hits" in text and "1 misses" in text


class TestCampaignResume:
    def test_resumed_parallel_run_equals_cold_serial(self, tmp_path):
        """The satellite: workers=4 resumed campaign == cold serial run."""
        cold = run_redundancy_sweep(
            base_config(), node_mtbfs=MTBFS, degrees=DEGREES
        )
        store = ResultsStore(tmp_path)
        first = run_redundancy_sweep(
            base_config(), node_mtbfs=MTBFS, degrees=DEGREES, store=store
        )
        assert store.misses == 4 and store.writes == 4
        resumed_cells = []
        resumed = run_redundancy_sweep(
            base_config(),
            node_mtbfs=MTBFS,
            degrees=DEGREES,
            workers=4,
            store=store,
            progress=resumed_cells.append,
        )
        assert store.hits == 4
        assert wire(cold) == wire(first) == wire(resumed)
        # Progress fired for every restored cell, flagged as cached,
        # in spec (row-major) order.
        assert [c.cached for c in resumed_cells] == [True] * 4
        assert [(c.node_mtbf, c.redundancy) for c in resumed_cells] == [
            (m, d) for m in MTBFS for d in DEGREES
        ]
        assert all(cell.cached for cell in resumed)

    def test_partial_store_fills_in_the_gaps(self, tmp_path):
        store = ResultsStore(tmp_path)
        run_redundancy_sweep(
            base_config(), node_mtbfs=[MTBFS[0]], degrees=DEGREES, store=store
        )
        full = run_redundancy_sweep(
            base_config(), node_mtbfs=MTBFS, degrees=DEGREES, store=store
        )
        assert store.hits == 2  # first row restored
        assert [c.cached for c in full] == [True, True, False, False]
        cold = run_redundancy_sweep(
            base_config(), node_mtbfs=MTBFS, degrees=DEGREES
        )
        assert wire(full) == wire(cold)


class TestOneKeyPerCell:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_cell_is_keyed_once_per_run(self, tmp_path, monkeypatch, workers):
        """A cold run keys each cell once for its lookup and its write;
        a warm rerun keys it once for its hit."""
        keyed = []

        def counting_job_key(config, version):
            keyed.append(config)
            return job_key(config, version=version)

        monkeypatch.setattr(store_module, "job_key", counting_job_key)
        configs = redundancy_sweep_configs(base_config(), MTBFS, DEGREES)
        cells = len(configs)
        cold = ResultsStore(tmp_path)
        first = run_cells(configs, CampaignExecutor(workers=workers, store=cold))
        assert len(keyed) == cells
        assert (cold.hits, cold.misses, cold.writes) == (0, cells, cells)
        keyed.clear()
        warm = ResultsStore(tmp_path)
        second = run_cells(configs, CampaignExecutor(workers=workers, store=warm))
        assert len(keyed) == cells
        assert (warm.hits, warm.misses, warm.writes) == (cells, 0, 0)
        assert all(cell.cached for cell in second)
        assert wire(second) == wire(first)
