"""Command-line entry point: regenerate any paper artifact.

Usage::

    repro-exp list
    repro-exp run table2
    repro-exp run fig13 max_processes=50000
    repro-exp run table4 quick=true             # reduced grid, serial
    repro-exp campaign --quick --workers 4      # Table 4 grid with progress
    repro-exp campaign --failure-free           # Table 5 sweep
    repro-exp chaos --quick --workers 4         # storage-fault sweep
    repro-exp advise --processes 50000 --mtbf 5y --base-time 128h \
               --alpha 0.2 --checkpoint-cost 8min --restart-cost 12min

Execution options are set only by the ``campaign``/``chaos`` flags
(``--workers``, ``--cell-timeout``, ``--store``), which build the one
executor a sweep runs on; ``run`` executes serially.  Seeds are derived
before fan-out, so parallel grids are bit-identical to serial ones.

Parameter overrides are ``key=value`` pairs; values are parsed as
Python literals when possible (ints, floats, tuples, booleans), else
kept as strings.
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Any, Dict, List, Optional

from . import units
from ._version import __version__
from .errors import ReproError
from .experiments import list_experiments, run_experiment
from .obs import ObsSession, render_report, report_from_file


def _parse_value(text: str) -> Any:
    try:
        return ast.literal_eval(text)
    except (SyntaxError, ValueError):
        lowered = text.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        return text


def _parse_overrides(pairs: List[str]) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"override {pair!r} is not key=value")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = _parse_value(value.strip())
    return overrides


def _add_sweep_flags(subparser: argparse.ArgumentParser, quick_help: str) -> None:
    """Execution, observability and store knobs shared by the sweeps."""
    subparser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep (default 1: serial); results "
        "are bit-identical either way",
    )
    subparser.add_argument("--quick", action="store_true", help=quick_help)
    subparser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="wall-clock seconds one grid cell may run in its process "
        "(default: unlimited; process mode only)",
    )
    subparser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL trace of every job (phase spans, fault events) "
        "to FILE; render it later with 'repro-exp report FILE'",
    )
    subparser.add_argument(
        "--metrics",
        action="store_true",
        help="print parent-side campaign metrics (counters, gauges, "
        "wall-time histograms) after the sweep",
    )
    _add_store_flag(subparser)
    subparser.add_argument(
        "overrides",
        nargs="*",
        help="extra experiment parameter overrides as key=value",
    )


def _add_store_flag(subparser: argparse.ArgumentParser) -> None:
    """The results-store flag shared by the sweep/serve subcommands."""
    subparser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="results-store directory (default: none); finished cells "
        "are persisted and already-stored cells are restored",
    )


def _open_store(args):
    """The ResultsStore at ``--store DIR``, or None without the flag."""
    if not args.store:
        return None
    from .store import ResultsStore

    return ResultsStore(args.store)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Regenerate tables and figures from 'Combining Partial "
        "Redundancy and Checkpointing for HPC' (ICDCS 2012).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command")
    commands.add_parser("list", help="list available experiments")
    runner = commands.add_parser("run", help="run one experiment")
    runner.add_argument("experiment", help="experiment id (see 'list')")
    runner.add_argument(
        "overrides",
        nargs="*",
        help="parameter overrides as key=value",
    )
    campaign = commands.add_parser(
        "campaign",
        help="run the simulation campaign grid with per-cell progress",
    )
    campaign.add_argument(
        "--failure-free",
        action="store_true",
        help="run the Table 5 failure-free sweep instead of the Table 4 grid",
    )
    _add_sweep_flags(
        campaign, quick_help="reduced 3x5 grid instead of the full 5x9 grid"
    )
    chaos = commands.add_parser(
        "chaos",
        help="sweep completion time vs injected storage-fault probability",
    )
    _add_sweep_flags(chaos, quick_help="reduced probability grid (0, 0.1, 0.3)")
    reporter = commands.add_parser(
        "report",
        help="render the per-phase time breakdown from a --trace file",
    )
    reporter.add_argument("trace", help="JSONL trace written by --trace")
    reporter.add_argument(
        "--tolerance",
        type=float,
        default=0.01,
        help="relative disagreement allowed between span sums and each "
        "job's reported totals (default 0.01)",
    )
    advisor = commands.add_parser(
        "advise",
        help="recommend a redundancy degree and checkpoint interval",
    )
    advisor.add_argument("--processes", type=int, required=True,
                         help="application (virtual) process count N")
    advisor.add_argument("--mtbf", required=True,
                         help="per-node MTBF, e.g. 5y, 18h")
    advisor.add_argument("--base-time", required=True,
                         help="failure-free run time, e.g. 128h, 46min")
    advisor.add_argument("--alpha", type=float, default=0.2,
                         help="communication/computation ratio (default 0.2)")
    advisor.add_argument("--checkpoint-cost", default="8min",
                         help="cost of one checkpoint (default 8min)")
    advisor.add_argument("--restart-cost", default="12min",
                         help="cost of one restart (default 12min)")
    advisor.add_argument("--node-budget", type=int, default=None,
                         help="maximum physical processes available")
    advisor.add_argument("--resource-weight", type=float, default=0.0,
                         help="cost-function weight on node usage")
    server = commands.add_parser(
        "serve",
        help="serve model evaluations and recommendations over JSON "
        "(batched /evaluate, /recommend, /healthz, /metrics)",
    )
    server.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    server.add_argument("--port", type=int, default=8787,
                        help="bind port; 0 picks a free port (default 8787)")
    server.add_argument("--max-batch", type=int, default=64,
                        help="most /evaluate requests coalesced into one "
                        "vectorized grid call (default 64)")
    server.add_argument("--queue-limit", type=int, default=256,
                        help="bounded request queue; beyond it requests are "
                        "shed with 429 (default 256)")
    _add_store_flag(server)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS.get(args.command)
    if handler is None:
        parser.print_help()
        return 1
    try:
        return handler(args)
    except BrokenPipeError:
        # Output piped into `head` or similar closed early; not an error.
        return 0
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _list(args) -> int:
    for experiment in list_experiments():
        print(experiment)
    return 0


def _run(args) -> int:
    result = run_experiment(args.experiment, _parse_overrides(args.overrides))
    print(result.render())
    return 0


def _campaign_progress(cell) -> None:
    mtbf = "-" if cell.node_mtbf is None else f"{cell.node_mtbf:.3g}s"
    print(
        f"  cell mtbf={mtbf} r={cell.redundancy}x: {cell.minutes:.2f} min",
        flush=True,
    )


def _chaos_progress(outcome) -> None:
    status = (
        f"{outcome.report.total_time:.3f} s"
        if outcome.ok
        else f"FAILED ({outcome.error_type})"
    )
    faults = outcome.config.storage_faults
    prob = 0.0 if faults is None else max(faults.write_fail_prob, faults.corrupt_prob)
    print(f"  cell p={prob:g}: {status}", flush=True)


def _sweep(args) -> int:
    """Run a simulated sweep (Table 4, Table 5 or chaos) with live progress."""
    from .orchestration import CampaignExecutor

    overrides = _parse_overrides(args.overrides)
    if args.command == "chaos":
        experiment, progress = "chaos", _chaos_progress
    else:
        experiment = "table5" if args.failure_free else "table4"
        progress = _campaign_progress
    if args.quick and experiment != "table5":
        overrides.setdefault("quick", True)
    obs = ObsSession(trace_path=args.trace, metrics=args.metrics)
    obs.stamp(experiment, params=overrides)
    store = _open_store(args)
    executor = CampaignExecutor(
        workers=args.workers, cell_timeout=args.cell_timeout, obs=obs, store=store
    )
    result = run_experiment(experiment, overrides, progress, executor)
    obs.finalize()
    print(result.render())
    if obs.metrics is not None:
        print()
        print(obs.metrics.render())
    if store is not None:
        print()
        print(store.render_stats())
    if args.trace:
        print(f"\ntrace written to {args.trace} "
              f"(render with: repro-exp report {args.trace})")
    return 0


def _report(args) -> int:
    """Render a trace file's per-phase breakdown and reconciliation."""
    report = report_from_file(args.trace, tolerance=args.tolerance)
    print(render_report(report))
    return 0 if report.ok else 2


def _advise(args) -> int:
    """Build the model from CLI arguments and print a recommendation."""
    from .models import CombinedModel, recommend
    from .util import render_table

    model = CombinedModel(
        virtual_processes=args.processes,
        redundancy=1.0,
        node_mtbf=units.parse_duration(args.mtbf),
        alpha=args.alpha,
        base_time=units.parse_duration(args.base_time),
        checkpoint_cost=units.parse_duration(args.checkpoint_cost),
        restart_cost=units.parse_duration(args.restart_cost),
    )
    outcome = recommend(
        model,
        node_budget=args.node_budget,
        resource_weight=args.resource_weight,
    )
    rows = []
    for point in outcome.candidates:
        marker = "<-- run this" if point.redundancy == outcome.redundancy else ""
        time_text = (
            f"{units.to_hours(point.total_time):.1f}"
            if point.result is not None
            else "diverges"
        )
        rows.append([f"{point.redundancy}x", time_text, marker])
    table = render_table(
        ["degree", "T_total [h]", ""],
        rows,
        title=f"Candidates for N={args.processes:,}, node MTBF {args.mtbf}",
    )
    lines = [
        table,
        "",
        f"recommendation: {outcome.redundancy}x redundancy, checkpoint every "
        f"{units.fmt_duration(outcome.checkpoint_interval)}",
        f"expected completion: {units.fmt_duration(outcome.total_time)} on "
        f"{outcome.total_processes:,} processes "
        f"(speedup vs plain: {outcome.speedup_vs_plain:.2f}x)",
        f"why: {outcome.rationale}",
    ]
    print("\n".join(lines))
    return 0


def _serve(args) -> int:
    """Run the batched model-serving endpoint until SIGTERM/SIGINT."""
    import asyncio

    from .service import ModelServer

    store = _open_store(args)

    async def _main() -> None:
        server = ModelServer(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            queue_limit=args.queue_limit,
            store=store,
        )
        await server.start()
        server.handle_signals()
        print(
            f"serving on http://{server.host}:{server.port} "
            f"(batch<={args.max_batch}, queue<={args.queue_limit}"
            + (", store on" if store is not None else "")
            + ") — SIGTERM drains gracefully",
            flush=True,
        )
        await server.run()
        print(
            f"drained: {server.requests} requests, "
            f"{server.batcher.evaluations} evaluations in "
            f"{server.batcher.batches} batches",
            flush=True,
        )

    asyncio.run(_main())
    return 0


_HANDLERS = {
    "list": _list,
    "run": _run,
    "campaign": _sweep,
    "chaos": _sweep,
    "report": _report,
    "advise": _advise,
    "serve": _serve,
}


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())
