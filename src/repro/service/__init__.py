"""Batched model serving: ``repro-exp serve`` and its building blocks.

The subsystem turns the analytic model into a long-lived endpoint:

``batching``
    :class:`MicroBatcher` — coalesces concurrent evaluations into
    single vectorized grid calls (drains what is queued, bounded queue,
    load shedding), with answers bit-identical to ``CombinedModel.evaluate()``.
``server``
    :class:`ModelServer` — the asyncio HTTP/1.1 JSON server
    (``/evaluate``, ``/recommend``, ``/healthz``, ``/metrics``) with
    graceful SIGTERM drain.
    :class:`ServerThread` runs one in a background thread (tests).
``client``
    :class:`ServeClient` — blocking keep-alive client mapping server
    errors back to local exception types.
"""

from .batching import MicroBatcher, model_to_dict
from .client import ServeClient
from .server import ModelServer, ServerThread, parse_model, recommendation_to_dict

__all__ = [
    "MicroBatcher",
    "ModelServer",
    "ServeClient",
    "ServerThread",
    "model_to_dict",
    "parse_model",
    "recommendation_to_dict",
]
