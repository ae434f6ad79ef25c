"""ResilientJob: one fault-tolerant application run, end to end.

The lifecycle mirrors the paper's experimental framework (Section 5):

1. the world starts with ``N_total`` physical processes (Eq. 8) laid
   out by a :class:`~repro.redundancy.mapping.ReplicaMap`;
2. the failure injector draws per-process Poisson failure times and
   fail-stops processes as they come due (optionally suppressed while
   a checkpoint or restart is in progress, as in the paper's runs);
3. the checkpointer takes coordinated checkpoints at the configured
   interval (Daly's Eq. 15 at the Eq. 10 system MTBF by default);
4. a failure only aborts the attempt when a whole replica sphere is
   exhausted (Figure 7); the job then pays the restart cost, restores
   every virtual rank from the last committed image set, and re-runs
   from that step;
5. the run completes when every rank finishes the workload; the report
   carries the wallclock, failure/checkpoint/rollback counts and the
   application result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from .. import units
from ..checkpoint import CheckpointService, StableStorage
from ..errors import ConfigurationError, NoCheckpointError
from ..faults import (
    Exponential,
    FailureInjector,
    LogNormal,
    StorageFaultConfig,
    StorageFaultModel,
    Weibull,
)
from ..models.checkpointing import daly_interval
from ..models.redundancy import redundant_time, system_mtbf
from ..mpi import SimMPI
from ..netsim import QDR_BANDWIDTH, QDR_LATENCY, Network
from ..obs.manifest import RunManifest
from ..obs.trace import NULL_TRACER
from ..redundancy import ALL_TO_ALL, RedComm, ReplicaMap, SphereTracker
from ..redundancy.voting import MODES
from ..rng import StreamRegistry
from ..simkit import Environment
from ..simkit.events import AllOf, AnyOf
from ..workloads import WorkShell, Workload

#: Restarts a job may pay before it gives up (never reached by the
#: paper's settings; a guard against a job that can make no progress).
MAX_RESTARTS = 10_000

#: ``JobConfig.failure_distribution`` names and their interarrival laws.
_DISTRIBUTIONS = {
    "exponential": Exponential,
    "weibull": Weibull,
    "lognormal": LogNormal,
}

#: ``JobReport`` fields the closing ``summary`` trace record carries.
_SUMMARY_FIELDS = (
    "completed",
    "total_time",
    "attempts",
    "failures_injected",
    "rollbacks",
    "checkpoints_committed",
    "checkpoint_union_time",
    "checkpoint_interval",
    "physical_processes",
)


@dataclass
class JobConfig:
    """Everything that defines one resilient job run.

    Times are seconds.  ``None`` for ``node_mtbf`` disables failure
    injection; ``None`` for ``checkpoint_interval`` derives Daly's
    interval from the model (requires ``expected_base_time``).  As in
    the paper, checkpoint and restart cost the fixed ``checkpoint_cost``
    (``c``) and ``restart_cost`` (``R``); checkpointing needs the former.
    """

    workload_factory: Callable[[], Workload]
    virtual_processes: int
    redundancy: float = 1.0
    mode: str = ALL_TO_ALL
    node_mtbf: Optional[float] = None
    seed: int = 0
    checkpointing: bool = True
    checkpoint_interval: Optional[float] = None
    checkpoint_cost: Optional[float] = None
    restart_cost: float = 10.0
    expected_base_time: Optional[float] = None
    alpha_estimate: float = 0.2
    suppress_failures_during_cr: bool = True
    #: Interarrival distribution: "exponential" (the paper's Poisson
    #: assumption), "weibull" (field-study-realistic, shape 0.7) or
    #: "lognormal" — a robustness knob the paper leaves to future work.
    failure_distribution: str = "exponential"
    bookmark_exchange: bool = False
    network_latency: float = QDR_LATENCY
    network_bandwidth: float = QDR_BANDWIDTH
    #: Chaos layer: storage fault probabilities (None, or a config with
    #: all probabilities zero, leaves every code path bit-identical to
    #: the fault-free pipeline).  Recovery-line depth and write retries
    #: are the constants ``checkpoint.storage.RECOVERY_LINES`` and
    #: ``checkpoint.service.WRITE_RETRIES``/``RETRY_BACKOFF``.
    storage_faults: Optional[StorageFaultConfig] = None
    #: Label stamped on every trace record ("job" field).  ``None``
    #: derives one from the cell coordinates and seed.  Left out of the
    #: results-store key: it cannot change a result.
    trace_label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.virtual_processes < 1:
            raise ConfigurationError("virtual_processes must be >= 1")
        if not 1.0 <= self.redundancy < math.inf:
            raise ConfigurationError(
                f"redundancy must be finite and >= 1, got {self.redundancy}"
            )
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown redundancy mode {self.mode!r}")
        for name in ("node_mtbf", "checkpoint_interval", "expected_base_time"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and > 0, got {value}"
                )
        Network.validate(self.network_latency, self.network_bandwidth)
        if self.checkpointing and (
            self.checkpoint_cost is None or not self.checkpoint_cost >= 0
        ):
            raise ConfigurationError(
                "checkpointing needs a checkpoint_cost >= 0, "
                f"got {self.checkpoint_cost}"
            )
        if self.restart_cost is None or not self.restart_cost >= 0:
            raise ConfigurationError(
                f"restart_cost must be >= 0, got {self.restart_cost}"
            )
        if self.failure_distribution not in _DISTRIBUTIONS:
            raise ConfigurationError(
                f"unknown failure_distribution {self.failure_distribution!r}"
            )

    def resolve_interval(self) -> Optional[float]:
        """The checkpoint interval this job will use (None = no C/R)."""
        if not self.checkpointing:
            return None
        if self.checkpoint_interval is not None:
            return self.checkpoint_interval
        if self.node_mtbf is None:
            raise ConfigurationError(
                "derive-Daly checkpointing needs node_mtbf (or pass an "
                "explicit checkpoint_interval)"
            )
        if self.expected_base_time is None:
            raise ConfigurationError(
                "derive-Daly checkpointing needs expected_base_time (the "
                "Eq. 10 exposure) or an explicit checkpoint_interval"
            )
        if not self.checkpoint_cost > 0:
            raise ConfigurationError(
                "derive-Daly checkpointing needs a checkpoint_cost estimate > 0"
            )
        exposure = redundant_time(
            self.expected_base_time, self.alpha_estimate, self.redundancy
        )
        # Exact (exponential-CDF) reliability: at simulation scale the
        # exposure time is comparable to the node MTBF, where the paper's
        # t/theta linearisation is meaningless.
        theta_sys = system_mtbf(
            self.virtual_processes,
            self.redundancy,
            exposure,
            self.node_mtbf,
            exact=True,
        )
        if math.isinf(theta_sys):
            return float(exposure)  # effectively failure-free: one checkpoint
        if not theta_sys > 0.0:  # no exposure, or a diverged failure rate
            raise ConfigurationError(
                "derive-Daly checkpointing needs expected_base_time > 0 and "
                "a finite system failure rate"
            )
        return float(daly_interval(self.checkpoint_cost, theta_sys))


def trace_label(config: JobConfig) -> str:
    """The ``job`` field of a job's trace records."""
    if config.trace_label:
        return config.trace_label
    mtbf = 0.0 if config.node_mtbf is None else config.node_mtbf
    return f"r{config.redundancy:g}-mtbf{mtbf:g}-seed{config.seed}"


@dataclass
class JobReport:
    """What one job run produced."""

    completed: bool
    total_time: float
    attempts: int
    failures_injected: int
    rollbacks: int
    checkpoints_committed: int
    result: Any
    #: Wallclock the *application* spent checkpointing: the union of
    #: per-rank checkpoint windows (the phase-breakdown quantity).
    checkpoint_union_time: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    checkpoint_interval: Optional[float] = None
    physical_processes: int = 0
    #: Chaos stats — all zero/empty when no storage faults are injected.
    checkpoints_skipped: int = 0
    checkpoint_retries: int = 0
    checkpoint_write_failures: int = 0
    #: Deepest recovery-line fallback any restart needed (1 = newest
    #: line sufficed; > 1 means older lines were used; 0 = no restores).
    max_rollback_depth: int = 0
    #: Recovery lines skipped during restores (corrupt or unreadable).
    recovery_lines_skipped: int = 0
    #: Restarts that found every retained line bad and re-ran from step 0.
    cold_starts: int = 0
    #: Raw injection counts from the storage fault model.
    storage_fault_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total_minutes(self) -> float:
        """Completion time in minutes (Table 4's unit)."""
        return units.to_minutes(self.total_time)


class ResilientJob:
    """Assemble and run one job; see module docstring for the lifecycle.

    ``tracer`` (the null tracer by default) receives the job's manifest,
    its attempt/restart spans, its events (attempts, failures, commits,
    rollbacks: the job's one event log) and those of every layer it
    builds, and a closing summary built from the report; the caller
    reads them from the tracer after :meth:`run`.  The tracer only
    *reads* the simulation clock, so a traced run is sim-identical to
    an untraced one.
    """

    def __init__(self, config: JobConfig, tracer=NULL_TRACER) -> None:
        self.config = config
        self._world: Optional[SimMPI] = None
        self._service: Optional[CheckpointService] = None
        self._in_restart = False
        self._restart_disturbed = False
        self._failures_delivered = 0
        self._env: Optional[Environment] = None
        self._tracer = tracer

    def _log(self, env: Environment, kind: str, detail: str = "") -> None:
        self._tracer.event(kind, sim_time=env.now, detail=detail)

    # -- injector plumbing ---------------------------------------------------

    def _cr_active(self) -> bool:
        if self._in_restart:
            return True
        service = self._service
        return service is not None and service.cr_active

    def _kill(self, slot: int) -> None:
        self._failures_delivered += 1
        if self._env is not None:
            self._log(self._env, "failure", f"slot {slot}")
        if self._in_restart:
            self._restart_disturbed = True
            return
        world = self._world
        if world is not None and world.is_alive(slot):
            world.kill_rank(slot, cause="injected failure")

    # -- main entry ------------------------------------------------------------

    def run(self) -> JobReport:
        """Execute the job to completion (or restart exhaustion)."""
        cfg = self.config
        env = Environment()
        self._env = env
        if self._tracer.enabled:
            self._tracer.record(
                "manifest",
                **RunManifest.for_job(cfg, label=trace_label(cfg)).as_record(),
            )
        replica_map = ReplicaMap(cfg.virtual_processes, cfg.redundancy)
        total_physical = replica_map.total_physical
        fault_model = (
            StorageFaultModel(cfg.storage_faults, seed=cfg.seed)
            if cfg.storage_faults is not None
            else None
        )
        storage = StableStorage(env, faults=fault_model, tracer=self._tracer)
        delta = cfg.resolve_interval()

        injector = None
        if cfg.node_mtbf is not None:
            injector = FailureInjector(
                env,
                slots=total_physical,
                distribution=_DISTRIBUTIONS[cfg.failure_distribution](cfg.node_mtbf),
                rng=StreamRegistry(cfg.seed).stream("faults"),
                kill=self._kill,
                cr_active=self._cr_active,
                suppress_during_cr=cfg.suppress_failures_during_cr,
                tracer=self._tracer,
            )
            injector.start()

        attempts = 0
        restored: Optional[tuple] = None
        cold_starts = 0
        #: ``CheckpointService`` totals summed over the attempts, keyed by
        #: the service attribute and the ``JobReport`` field alike.
        totals: Dict[str, Any] = {
            "checkpoint_union_time": 0.0,
            "checkpoints_skipped": 0,
            "checkpoint_retries": 0,
            "checkpoint_write_failures": 0,
        }
        counters: Dict[str, float] = {}
        while True:
            attempts += 1
            self._log(env, "attempt_start", f"attempt {attempts}")
            # The attempt and restart spans tile the whole run: the
            # clock only advances inside them, so the trace report can
            # reconcile phase sums against total_time *exactly*.
            attempt_span = self._tracer.begin(
                "attempt", sim_time=env.now, attempt=attempts
            )
            completed, result = self._run_attempt(
                env, replica_map, storage, restored, delta, totals, counters
            )
            attempt_span.end(sim_time=env.now, completed=completed)
            if completed:
                break
            if attempts > MAX_RESTARTS:
                self._log(env, "gave_up", f"after {attempts} attempts")
                break
            line = storage.line
            self._log(env, "rollback", f"to step {line.step if line else 0}")
            restart_span = self._tracer.begin(
                "restart", sim_time=env.now, attempt=attempts
            )
            self._pay_restart(env)
            restart_span.end(sim_time=env.now)
            self._log(env, "restart_paid", "")
            if line is not None:
                try:
                    line, depth, images = storage.restore(range(cfg.virtual_processes))
                except NoCheckpointError:
                    # Every retained recovery line is corrupt or
                    # unreadable: degrade to a cold start from step 0
                    # instead of crashing the job.
                    cold_starts += 1
                    self._log(env, "cold_start", "all recovery lines unusable")
                    restored = None
                else:
                    if depth > 1:
                        self._log(
                            env,
                            "recovery_fallback",
                            f"depth {depth} to set {line.set_id}",
                        )
                    states = {rank: image["state"] for rank, image in images.items()}
                    restored = (line.step, states)
            else:
                restored = None

        if injector is not None:
            injector.stop()
        if completed:
            self._log(env, "completed", "")
        self._env = None
        report = JobReport(
            completed=completed,
            total_time=env.now,
            attempts=attempts,
            failures_injected=self._failures_delivered,
            rollbacks=attempts - 1,
            checkpoints_committed=storage.commits,
            result=result,
            counters=counters,
            checkpoint_interval=delta,
            physical_processes=total_physical,
            max_rollback_depth=storage.max_rollback_depth,
            recovery_lines_skipped=storage.lines_skipped,
            cold_starts=cold_starts,
            storage_fault_counts=(
                fault_model.counters() if fault_model is not None else {}
            ),
            **totals,
        )
        if self._tracer.enabled:
            self._tracer.record(
                "summary", **{name: getattr(report, name) for name in _SUMMARY_FIELDS}
            )
        return report

    # -- one attempt --------------------------------------------------------------

    def _run_attempt(
        self,
        env: Environment,
        replica_map: ReplicaMap,
        storage: StableStorage,
        restored: Optional[tuple],
        delta: Optional[float],
        totals: Dict[str, Any],
        counters: Dict[str, float],
    ) -> Tuple[bool, Any]:
        """Run one attempt; return ``(completed, lead replica's result)``.

        The attempt's service totals and world counters are added into
        ``totals`` and ``counters``.
        """
        cfg = self.config
        total_physical = replica_map.total_physical
        world = SimMPI(
            env,
            size=total_physical,
            network=Network(cfg.network_latency, cfg.network_bandwidth),
        )
        self._world = world
        tracker = SphereTracker(replica_map)
        failed_event = env.event()
        tracker.on_sphere_exhausted(
            lambda virtual: None if failed_event.triggered else failed_event.succeed(virtual)
        )

        service = None
        if delta is not None:
            service = CheckpointService(
                runtime=world,
                storage=storage,
                interval=delta,
                fixed_cost=cfg.checkpoint_cost,
                bookmark_exchange=cfg.bookmark_exchange,
                tracer=self._tracer,
            )
        self._service = service

        results: Dict[int, Any] = {}

        def program(ctx):
            red = RedComm(ctx, replica_map, tracker, mode=cfg.mode)
            workload = cfg.workload_factory()
            workload.configure(red.rank, cfg.virtual_processes)
            start_step = 0
            if restored is not None:
                start_step, states = restored
                workload.load(states[red.rank])
            shell = WorkShell(ctx, red)
            for step in range(start_step, workload.total_steps):
                yield from workload.step(shell, step)
                if service is not None:
                    yield from service.at_step_boundary(red, workload, step)
            outcome = yield from workload.finalize(shell)
            results[ctx.rank] = outcome
            return outcome

        world.spawn(program)
        everyone = AllOf(env, [world.process_of(p) for p in range(total_physical)])
        env.run(until=AnyOf(env, [everyone, failed_event]))

        # Read the totals before an aborted attempt's ranks are killed:
        # the kills unwind their open checkpoint windows.
        if service is not None:
            for name in totals:
                totals[name] += getattr(service, name)
        for name, value in world.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        completed = everyone.triggered and everyone.ok
        result = results.get(tracker.lead_replica(0)) if completed else None
        if not completed:  # a sphere is exhausted: tear the attempt down
            for rank in list(world.alive_ranks):
                world.kill_rank(rank, cause="attempt aborted")
        world.dispose()
        self._world = None
        self._service = None
        return completed, result

    # -- restart window ---------------------------------------------------------------

    def _pay_restart(self, env: Environment) -> None:
        """Advance the clock by the restart cost (repeats if disturbed)."""
        self._in_restart = True
        try:
            while True:
                self._restart_disturbed = False
                pause = env.process(self._pause(env, self.config.restart_cost))
                env.run(until=pause)
                if not self._restart_disturbed:
                    return
                # With suppression off a failure struck mid-restart: the
                # model says the restart phase itself is failure-prone,
                # so pay it again (Eq. 13's compounding).
        finally:
            self._in_restart = False

    @staticmethod
    def _pause(env: Environment, seconds: float):
        yield env.timeout(seconds)
