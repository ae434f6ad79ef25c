"""Exception hierarchy shared by every ``repro`` subsystem.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError``, ``KeyError``, ...).

The hierarchy mirrors the package layout: each substrate owns a small
family of exceptions, and cross-cutting conditions (bad user parameters)
live at the top.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """A user-supplied parameter is outside its valid domain.

    Inherits :class:`ValueError` so idiomatic ``except ValueError``
    call sites keep working.
    """


# --------------------------------------------------------------------------
# Discrete-event simulation kernel
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the simulation kernel."""


class SimulationDeadlock(SimulationError):
    """The event queue drained while processes were still waiting."""


class ProcessInterrupted(SimulationError):
    """Raised *inside* a simulated process when it is interrupted.

    Carries the interrupt ``cause`` (an arbitrary object supplied by the
    interrupter, e.g. a :class:`~repro.faults.injector.FailureEvent`).
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


# --------------------------------------------------------------------------
# Simulated MPI runtime
# --------------------------------------------------------------------------


class MPIError(ReproError):
    """Base class for simulated-MPI errors."""


class CommunicatorError(MPIError):
    """Invalid communicator usage (bad rank, finalized world, ...)."""


class RequestError(MPIError):
    """Invalid request-handle usage (double wait, foreign handle, ...)."""


# --------------------------------------------------------------------------
# Redundancy layer
# --------------------------------------------------------------------------


class RedundancyError(ReproError):
    """Base class for redundancy-layer errors."""


class VotingError(RedundancyError):
    """Replica messages disagreed and no majority could be formed."""


# --------------------------------------------------------------------------
# Checkpoint / restart
# --------------------------------------------------------------------------


class CheckpointError(ReproError):
    """Base class for checkpoint/restart errors."""


class NoCheckpointError(CheckpointError):
    """Restart requested but stable storage holds no usable image set."""


class CorruptImageError(CheckpointError):
    """A stored process image failed its integrity check on read-back."""


class StorageWriteError(CheckpointError):
    """A stable-storage write was rejected by the fault model.

    Transient: the *operation* failed, not the device, so re-staging
    the same image may succeed.  Raised only when a
    :class:`~repro.faults.storage_faults.StorageFaultModel` is wired
    into :class:`~repro.checkpoint.storage.StableStorage`.
    """


# --------------------------------------------------------------------------
# Results store
# --------------------------------------------------------------------------


class StoreError(ReproError):
    """Base class for results-store errors (keys, codecs, backend)."""


class UnkeyableError(StoreError):
    """A value cannot be canonically serialized into a cache key."""


class CodecError(StoreError):
    """A stored payload cannot be decoded back into its object."""


# --------------------------------------------------------------------------
# Serving layer
# --------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for model-serving errors."""


class ServiceOverloadedError(ServiceError):
    """The bounded request queue is full; the request was shed."""


class ServiceClosedError(ServiceError):
    """The service is draining/stopped and accepts no new requests."""


# --------------------------------------------------------------------------
# Analytic models
# --------------------------------------------------------------------------


class ModelError(ReproError):
    """Base class for analytic-model errors."""


class ModelDivergence(ModelError):
    """The model has no finite solution for these parameters.

    Raised, for example, when ``λ · t_RR >= 1`` in Eq. 14 — the expected
    repair time per failure exceeds the mean time between failures, so
    the job never completes in expectation.
    """
