"""Bench: the performance layer — parallel campaigns, vectorized model.

Records the two headline speedups of the perf work:

* serial vs process-pool execution of the quick Table 4 campaign grid
  (with a bit-identical-results assertion — parallelism must not change
  a single cell);
* scalar ``CombinedModel.evaluate()`` loop vs the vectorized
  ``models.grid`` fast path over a Fig. 13/14-style (degree x count)
  grid (with a 1e-9 relative-error equivalence assertion);
* cold vs memoized ``find_crossover`` search.

Speedup assertions are gated on the host's core count: a ``>= 2x``
parallel speedup is only demanded when at least 4 cores are available
(the acceptance box); timings are always printed.

``REPRO_BENCH_QUICK=1`` shrinks the simulated campaign.
"""

import math
import os
import time

import numpy as np

from repro.experiments.table4 import ScaledSetup
from repro.models import CombinedModel, clear_model_cache, find_crossover
from repro.models.grid import total_time_grid
from repro.orchestration import run_redundancy_sweep
from repro import units

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
CORES = os.cpu_count() or 1
PARALLEL_WORKERS = 4

#: The acceptance grid: quick Table 4 (3 MTBFs x 5 degrees).
MTBF_HOURS = (6.0, 18.0, 30.0)
DEGREES = (1.0, 1.5, 2.0, 2.5, 3.0)


def campaign_inputs():
    setup = ScaledSetup(steps=30 if QUICK else 100)
    base = setup.job_config()
    mtbfs = [setup.mtbf_to_sim(h) for h in MTBF_HOURS]
    return base, mtbfs


def cell_signature(cell):
    report = cell.report
    return (
        cell.node_mtbf,
        cell.redundancy,
        report.completed,
        report.total_time,
        report.attempts,
        report.failures_injected,
        report.rollbacks,
        report.checkpoints_committed,
        tuple(sorted(report.counters.items())),
    )


def test_bench_parallel_campaign(once):
    base, mtbfs = campaign_inputs()

    start = time.perf_counter()
    serial = run_redundancy_sweep(base, mtbfs, DEGREES, workers=1)
    serial_seconds = time.perf_counter() - start

    parallel = once(
        run_redundancy_sweep, base, mtbfs, DEGREES, workers=PARALLEL_WORKERS
    )
    start = time.perf_counter()
    # Timed again outside pytest-benchmark so both legs use one clock.
    parallel_again = run_redundancy_sweep(
        base, mtbfs, DEGREES, workers=PARALLEL_WORKERS
    )
    parallel_seconds = time.perf_counter() - start

    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else math.inf
    print(
        f"\ncampaign grid {len(mtbfs)}x{len(DEGREES)}: "
        f"serial {serial_seconds:.2f}s, "
        f"workers={PARALLEL_WORKERS} {parallel_seconds:.2f}s, "
        f"speedup {speedup:.2f}x on {CORES} cores"
    )

    # Parallelism must not change a single cell, bit for bit.
    assert [cell_signature(c) for c in serial] == [
        cell_signature(c) for c in parallel
    ]
    assert [cell_signature(c) for c in serial] == [
        cell_signature(c) for c in parallel_again
    ]
    # The acceptance criterion only binds on a >= 4-core box.
    if CORES >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x parallel speedup on {CORES} cores, got {speedup:.2f}x"
        )


def model_grid_inputs():
    model = CombinedModel(
        virtual_processes=1000,
        redundancy=1.0,
        node_mtbf=units.years(5),
        alpha=0.2,
        base_time=units.hours(128),
        checkpoint_cost=units.minutes(8),
        restart_cost=units.minutes(12),
    )
    counts = np.unique(
        np.round(np.logspace(0.5, 6, 400)).astype(int)
    )
    degrees = np.asarray((1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0))
    return model, counts, degrees


def test_bench_vectorized_model(once):
    model, counts, degrees = model_grid_inputs()

    start = time.perf_counter()
    scalar = np.array(
        [
            [
                model.with_processes(int(n)).with_redundancy(float(r)).total_time_or_inf()
                for n in counts
            ]
            for r in degrees
        ]
    )
    scalar_seconds = time.perf_counter() - start

    vectorized = once(
        total_time_grid, model, processes=counts.astype(float),
        redundancy=degrees[:, None],
    )
    start = time.perf_counter()
    vectorized_again = total_time_grid(
        model, processes=counts.astype(float), redundancy=degrees[:, None]
    )
    vectorized_seconds = time.perf_counter() - start

    cells = scalar.size
    speedup = (
        scalar_seconds / vectorized_seconds if vectorized_seconds > 0 else math.inf
    )
    print(
        f"\nmodel grid {len(degrees)}x{len(counts)} ({cells} cells): "
        f"scalar {scalar_seconds * 1e3:.1f}ms, "
        f"vectorized {vectorized_seconds * 1e3:.2f}ms, speedup {speedup:.0f}x"
    )

    # One kernel: the grid equals the one-cell evaluations exactly
    # (diverged cells are inf on both sides).
    assert np.array_equal(vectorized, scalar)
    assert np.array_equal(vectorized, vectorized_again)
    # The fast path must actually be faster.
    assert speedup > 1.0


def test_bench_crossover_cache(once):
    model, _, _ = model_grid_inputs()

    clear_model_cache()
    start = time.perf_counter()
    cold = find_crossover(model, 1.0, 2.0)
    cold_seconds = time.perf_counter() - start

    warm_result = once(find_crossover, model, 1.0, 2.0)
    start = time.perf_counter()
    warm = find_crossover(model, 1.0, 2.0)
    warm_seconds = time.perf_counter() - start

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else math.inf
    print(
        f"\nfind_crossover(1x->2x): cold {cold_seconds * 1e3:.1f}ms, "
        f"memoized {warm_seconds * 1e3:.2f}ms, speedup {speedup:.0f}x"
    )
    assert cold.processes == warm.processes == warm_result.processes
    assert warm_seconds <= cold_seconds
