"""Self-tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import fold  # noqa: E402
import serve  # noqa: E402
import table_child  # noqa: E402
import tables  # noqa: E402
from common import (  # noqa: E402
    BENCH_DIR,
    END_TO_END,
    PER_LAYER,
    ROOT,
    SRC,
    fold_importtime,
    layer_metrics,
    nearest_rank,
    percentile_supported,
    samples_beyond,
)

# -- seeded inputs -------------------------------------------------------------


def test_table_orders_repeat_per_seed_and_differ_across_seeds():
    for workload in ("table4", "table5"):
        orders = table_child.pass_orders(workload, 7, 4)
        assert orders == table_child.pass_orders(workload, 7, 4)
        assert orders != table_child.pass_orders(workload, 8, 4)
        assert len({tuple(order) for order in orders}) > 1
        for order in orders:
            assert sorted(order) == list(table_child.DEGREES[workload])


def test_serve_mix_repeats_per_seed_and_differs_across_seeds():
    def bodies(seed):
        return [r.body for r in serve.make_requests(seed, "closed", 400)]

    assert bodies(5) == bodies(5)
    assert bodies(5) != bodies(6)


def test_serve_mix_has_every_kind():
    kinds = {r.kind for r in serve.make_requests(0, "closed", 3000)}
    assert kinds == {"evaluate", "recommend", "unknown_field", "nonfinite"}


# -- percentiles ---------------------------------------------------------------


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 99) == 99
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([7.0], 99) == 7.0


def test_p99_needs_ten_samples_beyond():
    assert samples_beyond(1000, 99) == 10
    assert percentile_supported(1000, 99)
    assert not percentile_supported(999, 99)
    assert samples_beyond(5, 99) == 0


# -- profile fold --------------------------------------------------------------


def _row(self_s, calls=1, cum_s=None):
    return (calls, calls, self_s, self_s if cum_s is None else cum_s, {})


def test_fold_buckets_a_synthetic_profile():
    stdlib = Path(json.__file__).resolve().parent.parent
    repro = SRC / "repro"
    stats = {
        (str(repro / "mpi" / "runtime.py"), 10, "post_send"): _row(1.0),
        (str(repro / "mpi" / "datatypes.py"), 56, "payload_digest"): _row(0.5, 3, 0.9),
        (str(repro / "cli.py"), 1, "main"): _row(0.25),
        ("~", 0, "<method 'digest' of '_blake2.blake2b' objects>"): _row(0.125),
        ("~", 0, "<built-in method _json.encode_basestring_ascii>"): _row(0.0625),
        (str(stdlib / "json" / "decoder.py"), 1, "raw_decode"): _row(0.0625),
        (str(stdlib / "asyncio" / "events.py"), 1, "_run"): _row(0.5),
        ("~", 0, "<method 'send' of '_socket.socket' objects>"): _row(0.25),
        ("~", 0, "<method 'poll' of 'select.epoll' objects>"): _row(8.0),
        (str(stdlib / "heapq.py"), 1, "nsmallest"): _row(0.25),
        ("/somewhere/site-packages/numpy/core/fromnumeric.py", 1, "sum"): _row(0.5),
        (str(BENCH_DIR / "serve_child.py"), 1, "wrapper"): _row(0.0625),
        ("/somewhere/site-packages/other/mod.py", 1, "f"): _row(0.25),
    }
    totals = fold.fold(stats)
    assert totals == {
        "repro.mpi": 1.5,
        "repro.cli": 0.25,
        "c_builtins": 0.125,
        "json": 0.125,
        "asyncio": 0.75,
        "idle": 8.0,
        "stdlib": 0.25,
        "numpy": 0.5,
        "probes": 0.0625,
        "other": 0.25,
    }
    busy = sum(totals.values()) - 8.0
    assert fold.named_share(totals) == (busy - 0.25) / busy
    rows = fold.function_rows(stats, ["mpi/datatypes.py:payload_digest", "simkit/env.py:step"])
    assert rows["mpi/datatypes.py:payload_digest"] == {"calls": 3, "cum_s": 0.9, "self_s": 0.5}
    assert rows["simkit/env.py:step"]["calls"] == 0


def test_importtime_fold():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:      1500 |       1500 |   numpy.core",
            "import time:       500 |       2000 | numpy",
            "import time:       250 |        250 |   repro.errors",
            "import time:       750 |       1000 | repro",
            "import time:        99 |         99 | json",
        ]
    )
    assert fold_importtime(text) == {"import.repro_ms": 1.0, "import.numpy_ms": 2.0}


def test_every_workload_reports_every_metric_name():
    assert set(layer_metrics({})) == set(PER_LAYER)


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["table4", "table5", "serve"]


# -- correctness gates ---------------------------------------------------------


def _golden_units(workload, passes=3):
    units = []
    for index, order in enumerate(table_child.pass_orders(workload, 11, passes)):
        for degree in order:
            total, attempts, failures, commits = tables.GOLDEN[workload][degree]
            units.append(
                {
                    "pass": index,
                    "redundancy": degree,
                    "wall_s": 0.01 * degree,
                    "reference_s": 0.013 * 1.2,
                    "total_time": total,
                    "attempts": attempts,
                    "failures_injected": failures,
                    "checkpoints_committed": commits,
                }
            )
    return units


def test_golden_units_pass():
    for workload in ("table4", "table5"):
        assert tables.check(workload, _golden_units(workload)) == []


def test_corrupted_golden_outcome_is_a_failed_operation():
    units = _golden_units("table4")
    units[4]["attempts"] += 1
    assert len(tables.check("table4", units)) == 1


def test_changed_cell_total_is_a_failed_operation():
    units = _golden_units("table5")
    exact = float.fromhex(units[3]["total_time"])
    units[3]["total_time"] = (exact * (1 + 2**-52)).hex()
    assert len(tables.check("table5", units)) == 1


def test_op_ms_follows_the_program_not_the_host_pace():
    units = _golden_units("table4")
    fast = tables.pass_ms("table4", units)
    # Host 1.6x slower: calls and reference loop slow down together.
    slow = [dict(u, wall_s=u["wall_s"] * 1.6, reference_s=u["reference_s"] * 1.6) for u in units]
    assert abs(tables.pass_ms("table4", slow) - fast) < 1e-9 * fast
    # Program 2x faster at the same pace.
    quick = [dict(u, wall_s=u["wall_s"] / 2) for u in units]
    assert abs(tables.pass_ms("table4", quick) - fast / 2) < 1e-9 * fast
    # The warm-up pass is not timed.
    warm = [dict(u, wall_s=100.0) if u["pass"] == 0 else u for u in units]
    assert tables.pass_ms("table4", warm) == fast


def _served(request, answer, status=200):
    body = json.dumps(answer).encode()
    return serve.Outcome(request, status, body, 0.001)


def _flip_low_bit(value: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


def test_flipped_served_bit_is_a_failed_operation():
    answers = (
        (r, serve.expected_answer(r))
        for r in serve.make_requests(3, "closed", 50)
        if r.kind == "evaluate"
    )
    request, answer = next((r, a) for r, a in answers if not a["diverged"])
    good = _served(request, answer)
    bad = _served(request, dict(answer, total_time=_flip_low_bit(answer["total_time"])))
    assert serve.answer_matches(good)
    assert not serve.answer_matches(bad)
    assert serve.verify([good, bad], seed=3) == (2, 1)


def test_status_failures_are_split_by_cause():
    requests = serve.make_requests(0, "closed", 3000)
    nonfinite = next(r for r in requests if r.kind == "nonfinite")
    unknown = next(r for r in requests if r.kind == "unknown_field")
    valid = next(r for r in requests if r.kind == "evaluate")
    outcomes = [
        _served(nonfinite, {"error": "x"}, status=500),
        _served(unknown, {"error": "x"}, status=400),
        _served(valid, {"error": "x"}, status=500),
        _served(valid, {"error": "x"}, status=429),
    ]
    assert serve.classify(outcomes) == {
        "bad_request_status": 1,
        "valid_request_5xx": 1,
        "other_status": 1,
    }
