"""The simulation environment: clock + event queue + scheduler."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..errors import SimulationDeadlock, SimulationError
# The queue priorities live with the events, which push entries too;
# they are importable from here.
from .events import NORMAL, PROCESSED, URGENT, Event, Timeout  # noqa: F401
from .process import Process

#: Queue entries: (time, priority, sequence, call, arg); processing one
#: runs ``call(arg)``.  An event's entry is ``(..., Event._process,
#: event)``; a bare timer's is any one-argument callable, so a kernel
#: activity nobody waits on allocates no Event.  ``priority`` lets
#: urgent kernel activities (interrupt delivery) pre-empt same-time
#: user events; ``sequence`` makes ordering fully deterministic.
_QueueEntry = Tuple[float, int, int, Callable[[Any], None], Any]

_process_event = Event._process


class Environment:
    """Discrete-event simulation environment.

    The environment owns the virtual clock (:attr:`now`) and the event
    queue.  Simulated activities are generator functions registered via
    :meth:`process`.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[_QueueEntry] = []
        self._sequence = 0

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event construction --------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event (trigger with ``succeed``/``fail``)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register a generator as a simulated process and start it."""
        return Process(self, generator, name=name)

    # -- scheduling (kernel API) ----------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._sequence += 1
        heapq.heappush(
            self._queue, (self._now + delay, priority, self._sequence, _process_event, event)
        )

    def _schedule_call_at(self, when: float, call: Callable[[Any], None], arg: Any) -> None:
        """Queue a bare timer: ``call(arg)`` runs at the absolute time ``when``.

        Ordered with events by (time, priority, insertion), at normal
        priority.  For kernel activities nobody waits on.  The time is
        absolute because the runtime sums it from an earlier instant:
        ``now + (when - now)`` may round to a different float.
        """
        if when < self._now:
            raise SimulationError(f"cannot schedule into the past ({when} < {self._now})")
        self._sequence += 1
        heapq.heappush(self._queue, (when, NORMAL, self._sequence, call, arg))

    def _unschedule(self, event: Event) -> None:
        """Take an event's entry off the queue, if it has one.

        For an event nobody waits on any more (see
        :meth:`Process.halt`); the event stays triggered but is never
        processed.
        """
        queue = self._queue
        for index, entry in enumerate(queue):
            if entry[4] is event:
                queue[index] = queue[-1]
                queue.pop()
                heapq.heapify(queue)
                return

    # -- execution -------------------------------------------------------

    def step(self) -> None:
        """Process exactly one queue entry (advancing the clock to it)."""
        if not self._queue:
            raise SimulationDeadlock("event queue is empty")
        when, _priority, _seq, call, arg = heapq.heappop(self._queue)
        self._now = when
        call(arg)

    def run(self, until: Optional[object] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue drains;
            * a number — run until the clock reaches that time;
            * an :class:`Event` — run until that event is processed,
              returning its value (raising its exception if it failed).

        Raises
        ------
        SimulationDeadlock
            When ``until`` is an event and the queue drains before the
            event fires.
        """
        if until is None:
            while self._queue:
                self.step()
            return None
        if isinstance(until, Event):
            target = until
            while target._state != PROCESSED:
                if not self._queue:
                    raise SimulationDeadlock(
                        "queue drained before the awaited event fired"
                    )
                self.step()
            if not target.ok:
                raise target.value
            return target.value
        # Numeric horizon.
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(f"cannot run to the past ({horizon} < {self._now})")
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self._now = horizon
        return None
