"""Event primitives for the simkit kernel.

An :class:`Event` is a one-shot occurrence with an optional value (or a
failure exception).  Its lifecycle::

    PENDING --succeed()/fail()--> TRIGGERED --env.step()--> PROCESSED
    PENDING --succeed_inline()----------------------------> PROCESSED

Once *triggered* the event is sitting in the environment's queue with a
definite fire time; once *processed* its callbacks have run and waiting
processes have been resumed.  ``succeed_inline`` skips the queue: it is
for a zero-delay hop whose callbacks may run at once.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, List, Sequence

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .env import Environment

#: State constants (kept as ints for cheap comparisons in the hot loop).
PENDING = 0
TRIGGERED = 1
PROCESSED = 2

#: Queue priorities: urgent kernel activities (interrupt delivery)
#: pre-empt same-time normal ones.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot simulation event.

    Callbacks are callables taking the event itself; they run exactly
    once, in registration order, when the environment processes the
    event.
    """

    __slots__ = ("env", "callbacks", "_state", "_ok", "_value")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._state = PENDING
        self._ok = True
        self._value: Any = None

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled (or processed)."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._state == PENDING:
            raise SimulationError("event value read before trigger")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        self.env._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure after ``delay``.

        The exception is thrown into every waiting process.
        """
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.env._schedule(self, delay)
        return self

    def succeed_inline(self, value: Any = None) -> "Event":
        """Succeed *now*: run the callbacks inline, skipping the queue.

        The zero-delay form of :meth:`succeed`.  The callbacks run
        before entries already queued for the current instant, so use
        it only for a hop whose continuation may overtake them.
        """
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        # ``_process`` inline: this runs once per zero-delay hop.
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        return self

    # -- kernel hooks -----------------------------------------------------

    def _process(self) -> None:
        """Mark processed and run the callbacks once, in order."""
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback``; runs immediately if already processed."""
        if self._state == PROCESSED:
            callback(self)
        else:
            self.callbacks.append(callback)

    def discard_callback(self, callback: Callable[["Event"], None]) -> None:
        """Remove a previously registered callback if still present."""
        try:
            self.callbacks.remove(callback)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    It schedules itself: ``Event.__init__`` and
    ``Environment._schedule`` run inline, so a timeout costs one call.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        self.env = env
        self.callbacks = []
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        self.delay = delay
        env._sequence += 1
        heappush(env._queue, (env._now + delay, NORMAL, env._sequence, Event._process, self))


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_pending_count")

    def __init__(self, env: "Environment", events: Sequence[Event]) -> None:
        super().__init__(env)
        self.events = tuple(events)
        if not self.events:
            self._pending_count = 0
            self.succeed([])
            return
        for event in self.events:
            if event.env is not env:
                raise SimulationError("condition mixes events from different environments")
        # Count ALL children before registering any callback: a child
        # that is already processed runs its callback synchronously
        # inside add_callback, and must not see a partial count.
        self._pending_count = len(self.events)
        for event in self.events:
            event.add_callback(self._on_child)
            if self._state != PENDING:
                break  # decided by a processed child: skip the rest

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _detach(self) -> None:
        """Stop listening to the children that have not fired.

        Called once the condition is decided: a pending child would
        otherwise hold the condition, and everything waiting on it, in
        a reference cycle that only the cyclic collector frees.
        """
        for event in self.events:
            event.discard_callback(self._on_child)


class AllOf(_Condition):
    """Fires when every child event has fired; value is the value list.

    Fails as soon as any child fails (remaining children keep running).
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event.ok:
            self.fail(event.value)
            self._detach()
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed([child.value for child in self.events])


class AnyOf(_Condition):
    """Fires when the first child fires; value is ``(index, value)``."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._state != PENDING:
            return
        index = self.events.index(event)
        if event.ok:
            self.succeed((index, event.value))
        else:
            self.fail(event.value)
        self._detach()
