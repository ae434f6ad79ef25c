"""simkit — a small, deterministic discrete-event simulation kernel.

Everything in the systems half of ``repro`` (network, MPI,
checkpointing, failure injection) runs on this kernel.  It follows the
familiar generator-process model: a simulated process is a Python
generator that ``yield``s events; the environment resumes it when the
event fires.

>>> from repro.simkit import Environment
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]

Design notes
------------
* **Determinism** — ties in time are broken by a monotonically
  increasing sequence number, so two runs of the same program produce
  identical event orders.
* **Interrupts** — ``Process.interrupt(cause)`` throws
  :class:`repro.errors.ProcessInterrupted` into the generator at the
  current simulation time; this is how node failures kill MPI ranks.
* **No wall-clock anywhere** — simulation time is just a float.
"""

from .events import AllOf, AnyOf, Event, Timeout
from .env import Environment
from .process import Process

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "Timeout",
]
