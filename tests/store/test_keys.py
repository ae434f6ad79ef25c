"""Tests for canonical cache keys."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.errors import UnkeyableError
from repro.faults import StorageFaultConfig
from repro.models import CombinedModel
from repro.orchestration import JobConfig
from repro.store.keys import canonical, fingerprint, job_key
from repro.workloads import SyntheticWorkload


def config(**overrides):
    params = dict(
        workload_factory=partial(
            SyntheticWorkload,
            total_steps=10,
            compute_seconds=0.01,
            message_bytes=1024,
        ),
        virtual_processes=4,
        redundancy=1.5,
        node_mtbf=5.0,
        seed=42,
        checkpoint_cost=0.05,
        restart_cost=0.05,
        expected_base_time=0.5,
        alpha_estimate=0.2,
    )
    params.update(overrides)
    return JobConfig(**params)


class TestCanonical:
    def test_floats_key_by_exact_value(self):
        assert canonical(0.1) == {"__float": (0.1).hex()}
        assert canonical(0.1) != canonical(0.1 + 1e-16)

    def test_float_and_equal_int_key_differently(self):
        assert canonical(1.0) != canonical(1)

    def test_dict_key_order_is_irrelevant(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_numpy_scalars_normalise(self):
        assert canonical(np.float64(0.25)) == canonical(0.25)
        assert canonical(np.int64(3)) == canonical(3)

    def test_lambda_is_unkeyable(self):
        with pytest.raises(UnkeyableError):
            canonical(lambda: None)

    def test_closure_partial_is_unkeyable(self):
        def local():  # pragma: no cover - never called
            pass

        with pytest.raises(UnkeyableError):
            canonical(partial(local))

    def test_unknown_object_is_unkeyable(self):
        with pytest.raises(UnkeyableError):
            canonical(object())


class TestJobKey:
    def test_same_config_same_key(self):
        assert job_key(config()) == job_key(config())

    def test_seed_changes_key(self):
        assert job_key(config(seed=1)) != job_key(config(seed=2))

    def test_partial_kwarg_order_is_irrelevant(self):
        a = config(
            workload_factory=partial(
                SyntheticWorkload, total_steps=10, compute_seconds=0.01
            )
        )
        b = config(
            workload_factory=partial(
                SyntheticWorkload, compute_seconds=0.01, total_steps=10
            )
        )
        assert job_key(a) == job_key(b)

    def test_trace_fields_do_not_change_key(self):
        base = config()
        traced = replace(base, trace_label="cell-1")
        assert job_key(base) == job_key(traced)

    def test_version_salts_key(self):
        assert job_key(config(), version="1") != job_key(config(), version="2")

    def test_result_affecting_fields_change_key(self):
        base = config()
        for field, value in (
            ("redundancy", 2.0),
            ("node_mtbf", 7.0),
            ("checkpoint_cost", 0.1),
            ("storage_faults", StorageFaultConfig(corrupt_prob=0.1)),
        ):
            assert job_key(base) != job_key(replace(base, **{field: value}))


class TestModelAndFingerprint:
    def test_model_key_stable_and_sensitive(self):
        model = CombinedModel(
            virtual_processes=1000,
            redundancy=2.0,
            node_mtbf=1e6,
            alpha=0.2,
            base_time=3600.0,
            checkpoint_cost=60.0,
            restart_cost=120.0,
        )
        assert fingerprint("model", model) == fingerprint("model", model)
        assert fingerprint("model", model) != fingerprint(
            "model", replace(model, alpha=0.21)
        )

    def test_kind_separates_namespaces(self):
        assert fingerprint("job", {"x": 1}) != fingerprint("model", {"x": 1})

    def test_key_is_hex_sha256(self):
        key = fingerprint("job", {"x": 1})
        assert len(key) == 64
        int(key, 16)
