"""The committed perf trajectory: well-formed records and the chained ratios.

``BENCH_trajectory.json`` holds one record per measured workload set of
each change that claimed a gain (and the no-gain runs of the others),
numbered as CHANGES.md numbers them.  The ROADMAP's chained claimed
ratios are products of the ``chain`` records' median ratios, so they
must be readable off the file.
"""

import json
import math
import re
import statistics
from pathlib import Path

import pytest

TRAJECTORY = Path(__file__).resolve().parents[1] / "BENCH_trajectory.json"
WORKLOADS = {"table4", "table5", "serve"}
OP_MS_FIELDS = {
    "pr": int, "commit": (str, type(None)), "parent": str, "kind": str, "workload": str,
    "seeds": list, "seconds": (int, float), "pairs": int,
    "parent_median": (int, float), "median": (int, float),
    "parent_quartiles": list, "quartiles": list, "parent_iqr": (int, float),
    "won": int, "setup_s": list, "peak_rss_mb": list, "runs": dict,
    "claimed": bool, "chain": bool, "note": str,
}
OP_MS_REQUIRED = {"pr", "commit", "parent", "kind", "workload", "pairs", "claimed", "chain"}
KERNEL_FIELDS = {
    "pr": int, "commit": str, "parent": str, "kind": str, "metric": str, "unit": str,
    "parent_value": (int, float), "value": (int, float), "note": str,
}
#: The perf changes ROADMAP item 4 names; each claims a gain on some set.
PERF_CHANGES = {10, 12, 14, 17, 20, 21, 27, 30, 32, 34, 35}


@pytest.fixture(scope="module")
def records():
    document = json.loads(TRAJECTORY.read_text())
    assert set(document) == {"about", "records"}
    return document["records"]


def _ratio(record):
    return record["median"] / record["parent_median"]


def test_every_record_is_well_formed(records):
    prs = [record["pr"] for record in records]
    assert prs == sorted(prs)
    for record in records:
        fields = KERNEL_FIELDS if record["kind"] == "kernel" else OP_MS_FIELDS
        assert record["kind"] in ("kernel", "op_ms"), record
        assert set(record) <= set(fields), record
        for name, value in record.items():
            assert isinstance(value, fields[name]), (name, record)
        # A record committed together with the code it measures cannot
        # name its own commit: only the newest change's may be null.
        if record["commit"] is None:
            assert record["pr"] == prs[-1], record
        for name in ("commit", "parent"):
            if record[name] is not None:
                assert re.fullmatch(r"[0-9a-f]{7}", record[name]), record
        if record["kind"] == "kernel":
            assert set(record) == set(KERNEL_FIELDS), record
            continue
        assert OP_MS_REQUIRED <= set(record), record
        assert record["workload"] in WORKLOADS, record
        assert ("median" in record) == ("parent_median" in record), record
        for side, quartiles in (("parent_median", "parent_quartiles"), ("median", "quartiles")):
            if quartiles in record:
                low, high = record[quartiles]
                assert low <= record[side] <= high, record
        if "won" in record:
            assert 0 <= record["won"] <= record["pairs"], record
        for pair in ("setup_s", "peak_rss_mb"):
            if pair in record:
                assert len(record[pair]) == 2, record
        if "runs" in record:
            runs = record["runs"]
            assert set(runs) == {"parent", "change"}, record
            assert len(runs["parent"]) == len(runs["change"]) == record["pairs"], record
            if "median" in record:
                assert statistics.median(runs["change"]) == pytest.approx(record["median"], rel=5e-3)
                assert statistics.median(runs["parent"]) == pytest.approx(
                    record["parent_median"], rel=5e-3
                )
        if record["claimed"]:
            assert {"median", "parent_median", "won"} <= set(record), record
            assert record["median"] < record["parent_median"], record
        if record["chain"]:
            assert record["claimed"], record


def test_each_change_since_the_benchmark_has_records(records):
    prs = {record["pr"] for record in records}
    assert set(range(10, 36)) <= prs
    claimed = {record["pr"] for record in records if record.get("claimed")}
    assert PERF_CHANGES <= claimed
    kernel = [record for record in records if record["kind"] == "kernel"]
    assert {record["pr"] for record in kernel} == {26}


def test_one_chain_record_per_change_and_workload(records):
    chained = [
        (record["pr"], record["workload"]) for record in records if record.get("chain")
    ]
    assert len(chained) == len(set(chained))


@pytest.mark.parametrize("workload, ratio", [("table5", 0.31), ("table4", 0.33)])
def test_chained_claimed_ratios(records, workload, ratio):
    """The ROADMAP Baseline's chained ratios, over records 15 to 35."""
    chain = [
        _ratio(record)
        for record in records
        if record.get("chain") and record["workload"] == workload and 15 <= record["pr"] <= 35
    ]
    assert round(math.prod(chain), 2) == ratio
