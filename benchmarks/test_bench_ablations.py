"""Ablation benches for the design decisions DESIGN.md calls out.

Each ablation flips one modeling/implementation choice and quantifies
its effect — the numbers print alongside the main tables so the
trade-offs are visible in every benchmark run.
"""

import math

import pytest

from repro import units
from repro.models import CombinedModel, optimal_interval
from repro.models.simplified import simplified_total_time
from repro.orchestration import JobConfig, ResilientJob
from repro.redundancy import ALL_TO_ALL, MSG_PLUS_HASH
from repro.util import render_table
from repro.workloads import SyntheticWorkload


def paper_model(**overrides):
    params = dict(
        virtual_processes=50_000,
        redundancy=2.0,
        node_mtbf=units.years(5),
        alpha=0.2,
        base_time=units.hours(128),
        checkpoint_cost=units.minutes(8),
        restart_cost=units.minutes(12),
    )
    params.update(overrides)
    return CombinedModel(**params)


def synthetic_job(**overrides):
    params = dict(
        workload_factory=lambda: SyntheticWorkload(
            total_steps=60, compute_seconds=0.04, message_bytes=32 * 1024
        ),
        virtual_processes=8,
        redundancy=2.0,
        node_mtbf=6.0,
        checkpoint_interval=0.4,
        checkpoint_cost=0.05,
        restart_cost=0.25,
        network_bandwidth=5e7,
        seed=21,
    )
    params.update(overrides)
    return JobConfig(**params)


def test_bench_ablation_cr_window(once):
    """Failures during C/R: full Eq. 14 model vs the experiment-matched
    simplified model, and suppression on/off in the simulator."""

    def run():
        full = paper_model(redundancy=1.0).evaluate().total_time
        simplified = simplified_total_time(
            virtual_processes=50_000, redundancy=1.0,
            node_mtbf=units.years(5), alpha=0.2,
            base_time=units.hours(128),
            checkpoint_cost=units.minutes(8), restart_cost=units.minutes(12),
        )
        sim_on = ResilientJob(synthetic_job(suppress_failures_during_cr=True)).run()
        sim_off = ResilientJob(synthetic_job(suppress_failures_during_cr=False)).run()
        return full, simplified, sim_on, sim_off

    full, simplified, sim_on, sim_off = once(run)
    print("\n" + render_table(
        ["variant", "value"],
        [
            ["Eq.14 model (failures anytime) [h]", units.to_hours(full)],
            ["simplified model (CR windows safe) [h]", units.to_hours(simplified)],
            ["simulation, suppression ON [s]", sim_on.total_time],
            ["simulation, suppression OFF [s]", sim_off.total_time],
            ["failures ON/OFF", f"{sim_on.failures_injected}/{sim_off.failures_injected}"],
        ],
        title="Ablation: failures during checkpoint/restart windows",
    ))
    # Allowing failures inside C/R can only raise the expected time.
    assert full >= simplified * 0.95
    assert sim_on.completed and sim_off.completed
    assert sim_off.failures_injected >= sim_on.failures_injected


def test_bench_ablation_interval_rule(once):
    """Daly (Eq. 15) vs Young vs the numeric optimum of Eq. 14."""

    def run():
        daly_result = paper_model().evaluate()
        young_result = paper_model(interval_rule="young").evaluate()
        numeric_delta = optimal_interval(paper_model())
        numeric_result = paper_model(checkpoint_interval=numeric_delta).evaluate()
        return daly_result, young_result, numeric_result

    daly_result, young_result, numeric_result = once(run)
    rows = [
        ["daly", units.to_minutes(daly_result.checkpoint_interval),
         units.to_hours(daly_result.total_time)],
        ["young", units.to_minutes(young_result.checkpoint_interval),
         units.to_hours(young_result.total_time)],
        ["numeric optimum", units.to_minutes(numeric_result.checkpoint_interval),
         units.to_hours(numeric_result.total_time)],
    ]
    print("\n" + render_table(
        ["rule", "delta [min]", "T_total [h]"],
        rows, title="Ablation: checkpoint interval rule",
    ))
    # Daly within 0.1% of the numeric optimum; Young no better than Daly.
    assert daly_result.total_time <= numeric_result.total_time * 1.001
    assert young_result.total_time >= numeric_result.total_time * 0.999


def test_bench_ablation_linearisation(once):
    """The paper's t/theta linearisation vs the exact exponential CDF."""

    def run():
        rows = []
        for years in (5.0, 1.0, 0.2):
            linear = paper_model(node_mtbf=units.years(years))
            exact = paper_model(node_mtbf=units.years(years), exact_reliability=True)
            rows.append(
                [
                    years,
                    units.to_hours(linear.total_time_or_inf()),
                    units.to_hours(exact.total_time_or_inf()),
                ]
            )
        return rows

    rows = once(run)
    print("\n" + render_table(
        ["node MTBF [y]", "linearised T [h]", "exact T [h]"],
        rows, title="Ablation: Eq. 3 linearisation error",
    ))
    # Negligible at 5 y, growing as MTBF shrinks; linearisation is
    # pessimistic (1 - e^-x <= x) so it never underestimates.
    assert rows[0][1] == pytest.approx(rows[0][2], rel=0.01)
    error_good = abs(rows[0][1] - rows[0][2]) / rows[0][2]
    error_bad = abs(rows[2][1] - rows[2][2]) / rows[2][2]
    assert error_bad > error_good
    assert all(linear >= exact * 0.999 for _, linear, exact in rows)


def test_bench_ablation_voting_mode(once):
    """All-to-all vs Msg-PlusHash: traffic volume at equal correctness."""

    def run():
        reports = {}
        for mode in (ALL_TO_ALL, MSG_PLUS_HASH):
            reports[mode] = ResilientJob(
                synthetic_job(mode=mode, node_mtbf=None, checkpointing=False,
                              redundancy=3.0)
            ).run()
        return reports

    reports = once(run)
    rows = [
        [mode, report.counters["p2p_messages"],
         report.counters["p2p_bytes"] / 1e6, report.total_time]
        for mode, report in reports.items()
    ]
    print("\n" + render_table(
        ["mode", "messages", "MB moved", "T [s]"],
        rows, title="Ablation: redundancy voting mode (r=3, failure-free)",
    ))
    full = reports[ALL_TO_ALL]
    hashed = reports[MSG_PLUS_HASH]
    assert full.result == hashed.result  # same answer
    assert hashed.counters["p2p_bytes"] < full.counters["p2p_bytes"] * 0.6
    assert hashed.total_time <= full.total_time


def test_bench_ablation_coordination(once):
    """Bookmark all-to-all exchange on/off: coordination message cost."""

    def run():
        plain = ResilientJob(synthetic_job(bookmark_exchange=False)).run()
        bookmarks = ResilientJob(synthetic_job(bookmark_exchange=True)).run()
        return plain, bookmarks

    plain, bookmarks = once(run)
    print("\n" + render_table(
        ["variant", "messages", "T [s]"],
        [
            ["quiesce only", plain.counters["p2p_messages"], plain.total_time],
            ["bookmark exchange", bookmarks.counters["p2p_messages"],
             bookmarks.total_time],
        ],
        title="Ablation: checkpoint coordination protocol",
    ))
    assert plain.completed and bookmarks.completed
    assert bookmarks.counters["p2p_messages"] > plain.counters["p2p_messages"]


def test_bench_ablation_placement(once):
    """Paper placement (one rank per node) vs doubled-up (Ferreira)."""
    from repro.mpi import SimMPI, ops
    from repro.simkit import Environment

    def run_placement(placement):
        env = Environment()
        world = SimMPI(env, size=16, placement=placement)

        def program(ctx):
            for _ in range(30):
                yield from ctx.comm.allreduce(ctx.rank, ops.SUM)

        world.spawn(program)
        world.run()
        return env.now

    def run():
        # Spread is the default, one rank per node; packed fills 8-core nodes.
        return run_placement(None), run_placement({r: r // 8 for r in range(16)})

    spread_time, packed_time = once(run)
    print("\n" + render_table(
        ["placement", "T [s]"],
        [["spread (paper, 1 rank/node)", spread_time],
         ["packed (doubled-up)", packed_time]],
        title="Ablation: rank placement",
    ))
    # Packed placement benefits from shared-memory loopback transport.
    assert packed_time < spread_time


def test_bench_ablation_failure_distribution(once):
    """Poisson assumption vs Weibull/lognormal field-realistic arrivals.

    The paper's model assumes exponential interarrivals (assumption 3);
    Schroeder & Gibson's field data fits Weibull with shape < 1 better.
    Same mean MTBF, different burstiness — this ablation measures how
    much the distribution shape moves the completion time.
    """

    def run():
        reports = {}
        for distribution in ("exponential", "weibull", "lognormal"):
            reports[distribution] = ResilientJob(
                synthetic_job(failure_distribution=distribution)
            ).run()
        return reports

    reports = once(run)
    rows = [
        [name, report.total_time, report.failures_injected, report.rollbacks]
        for name, report in reports.items()
    ]
    print("\n" + render_table(
        ["distribution", "T [s]", "failures", "rollbacks"],
        rows, title="Ablation: failure interarrival distribution (same mean)",
    ))
    assert all(report.completed for report in reports.values())
    # Same mean rate: failure counts land in the same band.
    counts = [report.failures_injected for report in reports.values()]
    assert max(counts) <= 4 * max(1, min(counts))
