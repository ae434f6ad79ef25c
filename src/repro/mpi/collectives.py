"""Collective operations, built entirely from point-to-point messages.

This matters for the paper's model: because collectives decompose into
point-to-point sends, the redundancy layer's r-fold amplification of
p2p traffic amplifies collective cost by the same factor — that is the
basis of Eq. 1 ("all collective communication in MPI is based on
point-to-point MPI messages").

Algorithms (standard MPICH-style):

* ``barrier``    — dissemination (log2(P) rounds of pairwise exchange);
* ``bcast``      — binomial tree;
* ``reduce``     — binomial tree (commutative ops);
* ``allreduce``  — reduce to rank 0, then broadcast;
* ``gather``     — linear fan-in with posted receives;
* ``allgather``  — gather + broadcast;
* ``alltoall``   — pairwise exchange with offset scheduling.

All functions are generators and must be driven with ``yield from``
inside a simkit process.  Every rank of the communicator must call the
same collectives in the same order (the usual MPI contract).

Requests are their own kernel events.  ``barrier`` and the binomial
tree behind ``bcast``, ``reduce`` and ``allreduce`` post with
``isend``/``irecv`` and yield the requests themselves, one generator
frame shallower than ``yield from comm.send/recv`` and with no
``AllOf``; a receive is finalized here, which for a request set is its
vote.  ``allreduce`` runs its reduce and broadcast phases in that one
tree generator.
"""

from __future__ import annotations

from typing import Any, List

from ..errors import CommunicatorError


def barrier(comm):
    """Dissemination barrier: after this, all ranks have entered."""
    size = comm.size
    if size == 1:
        return
    tag = comm._next_collective_tag()
    rank = comm.rank
    distance = 1
    while distance < size:
        dest = (rank + distance) % size
        source = (rank - distance) % size
        send_request = comm.isend(b"", dest, tag, _internal=True)
        recv_request = comm.irecv(source, tag, _internal=True)
        # One request after the other, as ``sendrecv`` waits them.
        yield send_request
        raw = yield recv_request
        recv_request._finalize(raw)
        distance <<= 1


def bcast(comm, value: Any, root: int = 0):
    """Binomial-tree broadcast; returns the root's value on every rank."""
    return _binomial_tree(comm, value, None, root, True)


def reduce(comm, value: Any, op, root: int = 0):
    """Binomial-tree reduction; result lands at ``root``.

    ``op`` must be commutative (all :mod:`repro.mpi.ops` operators are).
    Returns the reduced value at root, ``None`` elsewhere.
    """
    return _binomial_tree(comm, value, op, root, False)


def allreduce(comm, value: Any, op):
    """Reduce to rank 0 then broadcast; returns the result everywhere."""
    return _binomial_tree(comm, value, op, 0, True)


def _binomial_tree(comm, value: Any, op, root: int, broadcast: bool):
    """Generator: reduce up a binomial tree with ``op``, then broadcast down it.

    ``op=None`` skips the reduction and ``broadcast=False`` the
    broadcast.  Each phase takes a collective tag of its own, so an
    ``allreduce`` is a ``reduce`` then a ``bcast`` message for message,
    in one generator frame: a resume inside it passes one frame, not
    two.
    """
    size = comm.size
    if not 0 <= root < size:
        raise _root_error(root, size)
    if size == 1:
        return value
    rank = comm.rank
    relative = (rank - root) % size
    if op is not None:
        tag = comm._next_collective_tag()
        mask = 1
        while mask < size:
            if relative & mask:
                dest = (rank - mask) % size
                yield comm.isend(value, dest, tag, _internal=True)
                break
            partner_relative = relative | mask
            if partner_relative < size:
                source = (rank + mask) % size
                request = comm.irecv(source, tag, _internal=True)
                raw = yield request
                value = op(value, request._finalize(raw)[0])
            mask <<= 1
        if relative:
            value = None  # only the root holds the reduction
    if not broadcast:
        return value
    tag = comm._next_collective_tag()

    # Receive phase: find the round in which this rank gets the value.
    mask = 1
    while mask < size:
        if relative & mask:
            source = (rank - mask) % size
            request = comm.irecv(source, tag, _internal=True)
            raw = yield request
            value = request._finalize(raw)[0]
            break
        mask <<= 1
    else:
        mask = 1 << (size - 1).bit_length()

    # Send phase: forward to the subtree below this rank.
    mask >>= 1
    while mask > 0:
        if relative + mask < size:
            dest = (rank + mask) % size
            yield comm.isend(value, dest, tag, _internal=True)
        mask >>= 1
    return value


def gather(comm, value: Any, root: int = 0):
    """Linear gather; returns the ordered list at root, None elsewhere."""
    size = comm.size
    rank = comm.rank
    if not 0 <= root < size:
        raise _root_error(root, size)
    tag = comm._next_collective_tag()
    if rank != root:
        yield from comm.send(value, root, tag, _internal=True)
        return None
    collected: List[Any] = [None] * size
    collected[root] = value
    requests = [
        comm.irecv(peer, tag, _internal=True) for peer in range(size) if peer != root
    ]
    results = yield from comm.waitall(requests)
    for payload, status in results:
        collected[status.source] = payload
    return collected


def allgather(comm, value: Any):
    """Gather at rank 0 then broadcast the list; returns it everywhere."""
    collected = yield from gather(comm, value, root=0)
    result = yield from bcast(comm, collected, root=0)
    return result


def alltoall(comm, values: List[Any]):
    """Pairwise-exchange personalised all-to-all.

    ``values[i]`` goes to rank ``i``; returns a list whose ``i``-th
    entry came from rank ``i``.
    """
    size = comm.size
    rank = comm.rank
    if len(values) != size:
        raise CommunicatorError(
            f"alltoall needs exactly {size} values, got {len(values)}"
        )
    tag = comm._next_collective_tag()
    received: List[Any] = [None] * size
    received[rank] = values[rank]
    if size == 1:
        return received
    requests = []
    for offset in range(1, size):
        dest = (rank + offset) % size
        source = (rank - offset) % size
        requests.append(comm.isend(values[dest], dest, tag, _internal=True))
        requests.append(comm.irecv(source, tag, _internal=True))
    results = yield from comm.waitall(requests)
    for request, result in zip(requests, results):
        if request.kind == "recv":
            payload, status = result
            received[status.source] = payload
    return received


def _root_error(root: int, size: int) -> CommunicatorError:
    return CommunicatorError(f"root {root} outside communicator of size {size}")
