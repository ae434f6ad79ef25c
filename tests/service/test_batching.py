"""Tests for the micro-batching engine (plain asyncio.run, no plugins)."""

import asyncio
import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    ModelDivergence,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.models import CombinedModel
from repro.models.grid import evaluate_grid
from repro.obs.metrics import MetricsRegistry
from repro.service import MicroBatcher, model_to_dict
from repro.service.server import parse_model
from tests.models.test_grid import domain_checks, model_cells  # noqa: F401


def model(i: int = 0, **overrides) -> CombinedModel:
    params = dict(
        virtual_processes=10_000 + 100 * i,
        redundancy=1.0 + 0.25 * (i % 9),
        node_mtbf=5 * 365 * 24 * 3600.0,
        alpha=0.2,
        base_time=128 * 3600.0,
        checkpoint_cost=300.0,
        restart_cost=600.0,
    )
    params.update(overrides)
    return CombinedModel(**params)


class TestCoalescing:
    def test_concurrent_submits_share_grid_calls(self):
        async def main():
            batcher = MicroBatcher(max_batch=16)
            await batcher.start()
            answers = await asyncio.gather(
                *(batcher.submit(model(i)) for i in range(24))
            )
            await batcher.stop()
            return batcher, answers

        batcher, answers = asyncio.run(main())
        assert len(answers) == 24
        assert batcher.evaluations == 24
        assert batcher.batches < 24  # genuinely coalesced

    def test_lone_submit_answered_without_waiting(self):
        # No timer holds a lone request: it is answered within a few
        # loop ticks of the caller, with no wall-clock wait anywhere.
        async def main():
            batcher = MicroBatcher()
            await batcher.start()
            task = asyncio.ensure_future(batcher.submit(model(0)))
            ticks = 0
            while not task.done() and ticks < 10:
                await asyncio.sleep(0)
                ticks += 1
            done = task.done()
            await batcher.stop()
            return done, batcher

        done, batcher = asyncio.run(main())
        assert done
        assert batcher.batches == 1

    def test_queued_submits_drain_in_max_batch_chunks(self):
        sizes = []

        class Recording(MicroBatcher):
            def _execute(self, batch):
                sizes.append(len(batch))
                super()._execute(batch)

        async def main():
            batcher = Recording(max_batch=8)
            await batcher.start()
            # Every submit task runs in the same loop pass, before the
            # flush the first one scheduled.
            tasks = [
                asyncio.ensure_future(batcher.submit(model(i)))
                for i in range(20)
            ]
            answers = await asyncio.gather(*tasks)
            await batcher.stop()
            return answers

        answers = asyncio.run(main())
        assert len(answers) == 20
        assert sizes == [8, 8, 4]

    def test_batched_answers_bit_identical_to_scalar(self):
        async def main():
            batcher = MicroBatcher(max_batch=64)
            await batcher.start()
            answers = await asyncio.gather(
                *(batcher.submit(model(i)) for i in range(32))
            )
            await batcher.stop()
            return answers

        answers = asyncio.run(main())
        for i, served in enumerate(answers):
            direct = model(i).evaluate()
            assert served["redundant_time"] == direct.redundant_time
            assert served["system_reliability"] == direct.system_reliability
            assert served["failure_rate"] == direct.failure_rate
            assert served["system_mtbf"] == direct.system_mtbf
            assert served["checkpoint_interval"] == direct.checkpoint_interval
            assert served["total_time"] == direct.total_time
            assert served["total_processes"] == direct.total_processes
            assert served["diverged"] is False

    def test_mixed_interval_rules_stay_grouped_and_identical(self):
        models = [
            model(0),
            model(1, interval_rule="young"),
            model(2, checkpoint_interval=1800.0),
            model(3, exact_reliability=True),
        ]

        async def main():
            batcher = MicroBatcher(max_batch=8)
            await batcher.start()
            answers = await asyncio.gather(*(batcher.submit(m) for m in models))
            await batcher.stop()
            return answers

        for m, served in zip(models, asyncio.run(main())):
            assert served["total_time"] == m.evaluate().total_time

    def test_diverged_member_flags_without_poisoning_batch(self):
        # t_Red >= node MTBF under the linearised model: diverges.
        bad = model(0, node_mtbf=100.0, base_time=1000.0)
        good = model(1)

        async def main():
            batcher = MicroBatcher(max_batch=8)
            await batcher.start()
            answers = await asyncio.gather(
                batcher.submit(bad), batcher.submit(good)
            )
            await batcher.stop()
            return answers

        served_bad, served_good = asyncio.run(main())
        assert served_bad["diverged"] is True
        with pytest.raises(ModelDivergence):
            bad.evaluate()
        assert served_good["total_time"] == good.evaluate().total_time


#: The answer fields that carry a number.
NUMERIC_ANSWER_FIELDS = (
    "redundant_time",
    "total_processes",
    "system_reliability",
    "failure_rate",
    "system_mtbf",
    "checkpoint_interval",
    "total_time",
)

#: Every grouping key a batch is split by: interval rule, exact
#: reliability and whether the interval is overridden.
GROUP_KEYS = tuple(itertools.product(("daly", "young"), (False, True), (False, True)))


def divergent_cells(rule, exact, override):
    """Strategy: a model whose node MTBF is shorter than its run, so most
    draws have no finite completion time (served ``diverged``)."""
    return st.builds(
        dataclasses.replace,
        model_cells(rule, exact, override),
        node_mtbf=st.floats(min_value=1.0, max_value=100.0),
        base_time=st.just(1e5),
    )


#: Strategy: a model under any grouping key, finite or divergent.
ANY_CELL = st.one_of(
    *(model_cells(*key) for key in GROUP_KEYS),
    *(divergent_cells(*key) for key in GROUP_KEYS),
)


def serve_in_waves(waves):
    """Answers for ``waves`` of models; each wave is submitted in one loop
    pass, so it is one batch, and a one-model wave is a lone request."""

    async def main():
        batcher = MicroBatcher(max_batch=64)
        await batcher.start()
        answers = []
        for wave in waves:
            answers += await asyncio.gather(*(batcher.submit(m) for m in wave))
        await batcher.stop()
        return answers

    return asyncio.run(main())


def hex_fields(answer):
    return {
        name: float(answer[name]).hex() for name in NUMERIC_ANSWER_FIELDS
    }


def kernel_answer(m: CombinedModel):
    """The one-cell kernel's numbers for ``m``, as served fields."""
    grid = evaluate_grid(m)
    return {name: getattr(grid, name)[()] for name in NUMERIC_ANSWER_FIELDS}


class TestBitIdentity:
    """Served answers equal ``evaluate()`` and the one-cell kernel in
    every bit (``float.hex`` tells -0.0 from 0.0 and sees NaN), whether a
    model is served alone or inside a mixed batch."""

    @settings(max_examples=80, deadline=None)
    @given(waves=st.lists(st.lists(ANY_CELL, min_size=1, max_size=10),
                          min_size=1, max_size=4))
    def test_lone_and_mixed_groups_match_scalar(self, waves):
        answers = serve_in_waves(waves)
        for m, served in zip(itertools.chain(*waves), answers):
            assert hex_fields(served) == hex_fields(kernel_answer(m)), m
            try:
                direct = m.evaluate()
            except ModelDivergence:
                assert served["diverged"] is True, m
                continue
            assert served["diverged"] is False, m
            expected = {name: getattr(direct, name) for name in NUMERIC_ANSWER_FIELDS}
            assert hex_fields(served) == hex_fields(expected), m

    def test_lone_model_matches_itself_in_a_big_batch(self):
        lone = model(4, redundancy=2.75, exact_reliability=True)
        crowd = [model(i, exact_reliability=True) for i in range(40)]
        alone, *in_batch = serve_in_waves([[lone], crowd[:20] + [lone] + crowd[20:]])
        assert hex_fields(alone) == hex_fields(in_batch[20])
        assert alone == in_batch[20]


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha": 1.5},
            {"alpha": -0.1},
            {"node_mtbf": 0.0},
            {"checkpoint_cost": 0.0},
            {"restart_cost": -1.0},
            {"redundancy": 0.5},
            {"virtual_processes": 0},
            {"base_time": -1.0},
        ],
    )
    def test_out_of_domain_request_rejected_before_queueing(self, overrides):
        # A model checks its domain when it is built, so an out-of-domain
        # request never becomes a model that could join a batch — neither
        # from Python nor from a request body.
        with pytest.raises(ConfigurationError):
            model(0, **overrides)
        with pytest.raises(ConfigurationError):
            parse_model({**model_to_dict(model(0)), **overrides})


class TestOneCheckPerRequest:
    def test_lone_evaluate_checks_its_numbers_once(self, domain_checks):
        # The model checks its fields when parse_model builds it; the
        # batcher's one-cell kernel call takes that as proof.
        body = model_to_dict(model(3))
        domain_checks.clear()

        async def main():
            batcher = MicroBatcher()
            await batcher.start()
            answer = await batcher.submit(parse_model(body))
            await batcher.stop()
            return answer

        answer = asyncio.run(main())
        assert answer["model"] == body
        assert len(domain_checks) == 1


class TestBackpressure:
    def test_full_queue_sheds_with_429_error(self):
        async def main():
            metrics = MetricsRegistry()
            batcher = MicroBatcher(
                max_batch=4, queue_limit=2, metrics=metrics
            )
            await batcher.start()
            # Create all submit tasks, then yield once: every task
            # submits before the flush the first one scheduled runs, so
            # exactly queue_limit are admitted.
            tasks = [
                asyncio.ensure_future(batcher.submit(model(i)))
                for i in range(10)
            ]
            await asyncio.sleep(0)
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            await batcher.stop()
            return batcher, metrics, outcomes

        batcher, metrics, outcomes = asyncio.run(main())
        shed = [o for o in outcomes if isinstance(o, ServiceOverloadedError)]
        served = [o for o in outcomes if isinstance(o, dict)]
        assert len(shed) == 8 and len(served) == 2
        assert batcher.shed == 8
        assert metrics.counter("serve.shed").value == 8

    def test_queue_depth_gauge_tracks(self):
        async def main():
            metrics = MetricsRegistry()
            batcher = MicroBatcher(metrics=metrics)
            await batcher.start()
            await batcher.submit(model(0))
            await batcher.stop()
            return metrics

        metrics = asyncio.run(main())
        assert metrics.gauge("serve.queue_depth").value == 0
        assert metrics.histogram("serve.batch_size").count == 1


class TestLifecycle:
    def test_stop_drains_admitted_requests(self):
        async def main():
            batcher = MicroBatcher(max_batch=4)
            await batcher.start()
            tasks = [
                asyncio.ensure_future(batcher.submit(model(i)))
                for i in range(6)
            ]
            await asyncio.sleep(0)  # admit everything
            await batcher.stop()  # answers everything admitted
            answers = await asyncio.gather(*tasks)
            return batcher, answers

        batcher, answers = asyncio.run(main())
        assert len(answers) == 6
        assert all(isinstance(a, dict) for a in answers)
        assert batcher.evaluations == 6

    def test_submit_after_stop_is_closed(self):
        async def main():
            batcher = MicroBatcher()
            await batcher.start()
            await batcher.stop()
            with pytest.raises(ServiceClosedError):
                await batcher.submit(model(0))

        asyncio.run(main())

    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(queue_limit=0)
