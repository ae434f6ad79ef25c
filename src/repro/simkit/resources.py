"""Shared-resource primitives: counted resources and object stores.

Used by the substrates for anything with finite capacity, such as the
stable-storage I/O channels that checkpoint writes queue up on.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from ..errors import SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .env import Environment


class Resource:
    """A counted resource with FIFO queuing.

    >>> def user(env, res, log, name):
    ...     req = res.request()
    ...     yield req
    ...     log.append((env.now, name, "acquired"))
    ...     yield env.timeout(1.0)
    ...     res.release()
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Units currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Requests waiting for a free unit."""
        return len(self._waiters)

    def request(self) -> Event:
        """Event that fires when a unit has been granted to the caller."""
        grant = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed()
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Return one unit; hands it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            # Unit moves directly to the next waiter; in_use unchanged.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO object store (channel).

    ``put`` never blocks; ``get`` returns an event that fires with the
    oldest item once one is available.  This is the building block for
    simulated message queues.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest blocked getter."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event firing with the next item (immediately if available)."""
        fetch = Event(self.env)
        if self._items:
            fetch.succeed(self._items.popleft())
        else:
            self._getters.append(fetch)
        return fetch

    def cancel_get(self, fetch: Event) -> None:
        """Withdraw a pending :meth:`get` request (e.g. on interrupt)."""
        try:
            self._getters.remove(fetch)
        except ValueError:
            pass
