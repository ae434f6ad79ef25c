"""mpi — a simulated MPI runtime on the simkit kernel.

Implements the slice of MPI the paper's redundancy layer interposes on:
point-to-point send/recv (blocking and non-blocking, with tags and
``ANY_SOURCE``/``ANY_TAG`` wildcards), request handles with
wait/test/waitall, and the standard collectives built from
point-to-point messages (which is exactly why redundancy multiplies
collective cost by ``r`` in Eq. 1 — there are no hardware collectives
here either).

Programs are simkit generator processes; blocking calls are written as
``yield from``:

>>> from repro.simkit import Environment
>>> from repro.mpi import SimMPI
>>> env = Environment()
>>> world = SimMPI(env, size=2)
>>> def program(ctx):
...     if ctx.rank == 0:
...         yield from ctx.comm.send(b"hi", dest=1, tag=7)
...     else:
...         payload, status = yield from ctx.comm.recv(source=0, tag=7)
...         assert payload == b"hi" and status.source == 0
>>> world.spawn(program)
>>> world.run()
"""

from .status import ANY_SOURCE, ANY_TAG, Status
from .datatypes import payload_nbytes
from .matching import Envelope
from .requests import Request
from .comm import Communicator
from .runtime import RankContext, SimMPI
from . import ops

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "Envelope",
    "RankContext",
    "Request",
    "SimMPI",
    "Status",
    "ops",
    "payload_nbytes",
]
