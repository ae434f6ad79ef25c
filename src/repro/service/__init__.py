"""Batched model serving: ``repro-exp serve`` and its building blocks.

The subsystem turns the analytic model into a long-lived endpoint:

``batching``
    :class:`MicroBatcher` — coalesces concurrent evaluations into
    single vectorized grid calls (N-or-T window, bounded queue,
    load shedding), with answers bit-identical to ``CombinedModel.evaluate()``.
``server``
    :class:`ModelServer` — the asyncio HTTP/1.1 JSON server
    (``/evaluate``, ``/recommend``, ``/healthz``, ``/metrics``) with
    graceful SIGTERM drain.
``client``
    :class:`ServeClient` — blocking keep-alive client mapping server
    errors back to local exception types.
``bench``
    :func:`run_bench` — the ``bench-serve`` load generator with exact
    latency percentiles and a served-vs-scalar bit-identity probe.
"""

from .batching import MicroBatcher, model_to_dict
from .bench import ServerThread, run_bench
from .client import ServeClient
from .server import ModelServer, parse_model, recommendation_to_dict

__all__ = [
    "MicroBatcher",
    "ModelServer",
    "ServeClient",
    "ServerThread",
    "model_to_dict",
    "parse_model",
    "recommendation_to_dict",
    "run_bench",
]
