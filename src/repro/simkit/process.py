"""Generator-based simulated processes.

A process wraps a generator that ``yield``s :class:`Event` objects.
The kernel resumes the generator with the event's value when it fires,
or throws the event's exception into it when the event failed.  The
process itself *is* an event: it fires with the generator's return
value when the generator finishes, so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from ..errors import ProcessInterrupted, SimulationError
from .events import PROCESSED, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .env import Environment


class Process(Event):
    """A running simulated activity (also an awaitable event)."""

    __slots__ = ("name", "_generator", "_waiting_on")

    def __init__(self, env: "Environment", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        start = Event(env)
        start.add_callback(self._resume)
        self._waiting_on = start
        start.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished or crashed."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessInterrupted` into the process *now*.

        The process stops waiting on whatever event it was blocked on
        (that event still fires for other waiters) and receives the
        interrupt at the current simulation time.  Interrupting a
        finished process is a silent no-op — failure injection races
        with normal completion, and losing that race is not an error.
        """
        if self.triggered:
            return
        if self._waiting_on is not None:
            self._waiting_on.discard_callback(self._resume)
            self._waiting_on = None
        kick = Event(self.env)
        kick.add_callback(self._resume)
        self._waiting_on = kick
        kick._ok = False
        kick._value = ProcessInterrupted(cause)
        kick._state = 1  # TRIGGERED
        self.env._schedule(kick, 0.0, priority=URGENT)

    def halt(self) -> None:
        """End a process nobody waits on, where it is, queuing nothing.

        For a daemon torn down after the last run: unlike
        :meth:`interrupt`, no kick event is queued (no later run would
        process it) and nothing is thrown into the generator, which is
        closed.  The event the process waited on forgets it and, once
        nobody else waits on it, leaves the queue, so nothing left there
        holds the environment in a reference cycle.  The process counts
        as finished with value ``None`` but runs no callbacks.  A no-op
        on a finished process.

        Raises
        ------
        SimulationError
            When something waits on the process.
        """
        if self.triggered:
            return
        if self.callbacks:
            raise SimulationError(f"process {self.name!r} has waiters; interrupt it")
        waiting, self._waiting_on = self._waiting_on, None
        if waiting is not None:
            waiting.discard_callback(self._resume)
            if not waiting.callbacks:
                self.env._unschedule(waiting)
        self._state = PROCESSED
        self._generator.close()

    # -- kernel ---------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except ProcessInterrupted as interrupt:
                # An interrupt escaped the generator: treat as clean
                # termination with no value (the rank was killed).  Its
                # traceback holds this frame, whose ``event`` holds the
                # interrupt: drop it, so the dead generator's frames are
                # freed by refcount, not by a cyclic collection.
                interrupt.__traceback__ = None
                self.succeed(None)
                return
            except BaseException as exc:
                if self.callbacks:
                    self.fail(exc)
                    return
                raise
            if not isinstance(target, Event):
                error = SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
                self._generator.throw(error)
                raise error
            if target._state == PROCESSED:
                # Already-fired event: feed its outcome straight back in
                # (loop, not recursion, to keep stack depth flat).
                event = target
                continue
            # ``add_callback`` inline: the event has not run its
            # callbacks yet, so this one joins them.
            target.callbacks.append(self._resume)
            self._waiting_on = target
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {status}>"
