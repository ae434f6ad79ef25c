"""The failure injector (Section 5's first background process).

Maintains a per-physical-process next-failure schedule drawn from the
configured interarrival distribution and fires fail-stop events into
the running world.  Mirrors the paper's four injector steps:

1. keep the virtual→physical map (owned by the orchestrator; the
   injector addresses physical *slots* 0..P-1, which survive restarts);
2. draw each slot's next failure time from the exponential
   distribution;
3. when a slot's time arrives, mark it dead (the ``kill`` callback
   fail-stops the rank in whatever world is currently running);
4. sphere exhaustion → job restart is the orchestrator's reaction to
   the deaths this injector delivers.

The ``suppress_during_cr`` option reproduces the experimental setup:
failures are *not* triggered while a checkpoint or restart is in
progress — a due failure is re-armed until the window closes.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..obs.trace import NULL_TRACER
from ..simkit import Environment
from .distributions import Distribution


class FailureInjector:
    """Poisson (or custom-distribution) fail-stop injector."""

    def __init__(
        self,
        env: Environment,
        slots: int,
        distribution: Distribution,
        rng: np.random.Generator,
        kill: Callable[[int], None],
        cr_active: Optional[Callable[[], bool]] = None,
        suppress_during_cr: bool = True,
        tracer=NULL_TRACER,
    ) -> None:
        if slots < 1:
            raise ConfigurationError(f"slots must be >= 1, got {slots}")
        self.env = env
        self.tracer = tracer
        self.slots = slots
        self.distribution = distribution
        self.rng = rng
        self.kill = kill
        self.cr_active = cr_active or (lambda: False)
        self.suppress_during_cr = suppress_during_cr
        self._schedule: List[tuple] = []
        self._process = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Arm every slot and start the injector daemon."""
        if self._process is not None:
            raise ConfigurationError("injector already started")
        now = self.env.now
        for slot in range(self.slots):
            heapq.heappush(
                self._schedule, (now + self.distribution.sample(self.rng), slot)
            )
        self._process = self.env.process(self._run(), name="failure-injector")

    def stop(self) -> None:
        """Tear the daemon down (end of a campaign run).

        The daemon is halted where it sleeps: no kick event is queued
        for it, and its pending timer leaves the queue, so nothing the
        daemon left behind holds the environment in a reference cycle.
        """
        if self._process is not None:
            self._process.halt()
        self._process = None

    # -- daemon -------------------------------------------------------------

    def _run(self):
        while self._schedule:
            due, slot = self._schedule[0]
            if due > self.env.now:
                yield self.env.timeout(due - self.env.now)
                continue
            heapq.heappop(self._schedule)
            if self.suppress_during_cr and self.cr_active():
                # The paper's experiments do not trigger failures while
                # a checkpoint or restart is in progress.  The failure
                # is *dropped* and the slot re-armed with a fresh draw
                # (memoryless, so this is exactly "the Poisson process
                # pauses during C/R windows") — deferring it instead
                # would bunch failures at the window's end.
                self.tracer.event(
                    "failure_suppressed", sim_time=self.env.now, slot=slot
                )
                heapq.heappush(
                    self._schedule,
                    (self.env.now + self.distribution.sample(self.rng), slot),
                )
                continue
            self.tracer.event(
                "failure_injected", sim_time=self.env.now, slot=slot
            )
            self.kill(slot)
            # Step 2 again: the replacement process on the spare node
            # is just as mortal (assumption 5: spares are plentiful).
            heapq.heappush(
                self._schedule,
                (self.env.now + self.distribution.sample(self.rng), slot),
            )
