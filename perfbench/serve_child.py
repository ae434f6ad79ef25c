"""Traced launcher for the serve workload: ``repro-exp serve`` under cProfile.

    python perfbench/serve_child.py PROFILE_OUT SAMPLES_OUT serve [ARGS...]

Runs ``repro.cli.main`` with the given arguments under ``cProfile`` and
dumps the profile when the server has drained.  Two probes wrap the
serving path's public pieces, in this process only:

* ``MicroBatcher.submit`` and ``MicroBatcher._execute``: queue wait,
  the time from submit to the answer minus its batch's evaluation time;
* ``ModelServer._parse_json`` and ``parse_model``: request parse time.

Their samples [s] are written to SAMPLES_OUT as JSON.
"""

from __future__ import annotations

import cProfile
import json
import sys
import time


def install_probes(samples):
    from repro.service import batching, server

    batcher_cls = batching.MicroBatcher
    batch_seconds = {}
    execute = batcher_cls._execute
    submit = batcher_cls.submit

    def timed_execute(self, batch):
        started = time.perf_counter()
        execute(self, batch)
        elapsed = time.perf_counter() - started
        for model, _future in batch:
            batch_seconds[id(model)] = elapsed

    async def timed_submit(self, model):
        started = time.perf_counter()
        answer = await submit(self, model)
        waited = time.perf_counter() - started - batch_seconds.pop(id(model), 0.0)
        samples["queue_wait_s"].append(waited)
        return answer

    batcher_cls._execute = timed_execute
    batcher_cls.submit = timed_submit

    parse_json = server.ModelServer._parse_json
    parse_model = server.parse_model

    def timed(function, bucket):
        def wrapper(body):
            started = time.perf_counter()
            try:
                return function(body)
            finally:
                samples[bucket].append(time.perf_counter() - started)

        return wrapper

    server.ModelServer._parse_json = staticmethod(timed(parse_json, "parse_json_s"))
    server.parse_model = timed(parse_model, "parse_model_s")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    profile_out, samples_out, serve_args = argv[0], argv[1], argv[2:]
    samples = {"queue_wait_s": [], "parse_json_s": [], "parse_model_s": []}
    install_probes(samples)
    from repro import cli

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        code = cli.main(serve_args)
    finally:
        profiler.disable()
        profiler.dump_stats(profile_out)
        with open(samples_out, "w") as handle:
            json.dump(samples, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
