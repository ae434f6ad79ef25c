"""Tests for canonical cache keys."""

from dataclasses import fields as fields_of, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnkeyableError
from repro.faults import StorageFaultConfig
from repro.models import CombinedModel
from repro.experiments.table4 import ScaledSetup
from repro.orchestration import JobConfig
from repro.orchestration.campaign import redundancy_sweep_configs
from repro.redundancy import MSG_PLUS_HASH
from repro.store.keys import _canonical_again, canonical, fingerprint, job_key
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


def _pinned_configs():
    """The configs whose keys ``TestPinnedKeys`` pins, by name."""
    setup = ScaledSetup(virtual_processes=8, steps=5)
    # perfbench's table4 cell at the 6 h MTBF and 2.0x.
    (cell,) = redundancy_sweep_configs(setup.job_config(), [setup.mtbf_to_sim(6.0)], [2.0])
    positional = config(
        workload_factory=partial(SyntheticWorkload, 7, message_bytes=2048, compute_seconds=0.25),
        redundancy=1.5,
    )
    network = JobConfig(
        workload_factory=SyntheticWorkload, virtual_processes=16, redundancy=2.75,
        mode=MSG_PLUS_HASH, checkpoint_cost=0.125, network_latency=1.5e-6,
        network_bandwidth=3.2e9, storage_faults=StorageFaultConfig(0.1, 0.05),
        trace_label="ignored",
    )
    return {"cell": cell, "partial": positional, "network": network}


class TestPinnedKeys:
    """Keys are stable across releases of the key code itself.

    A stored campaign is found again only if its cells key as they did
    when they were written, so these hex keys (salted with a fixed
    version) are literals: any change to how a config is canonicalised
    or sealed moves them.
    """

    KEYS = {
        "cell": "e562332ef6c5bdd217b34e49b721954143c8b77c3a1eb486475c1599957ed7f1",
        "partial": "81e24ad8e3b47c1a8cef02e73e6d9e090b3ea6acb4338981df71d8d64bd43789",
        "network": "b47c9b4733dc671b0a346364e17dd5d33b7062fb9660dbbd54b1146578e6e370",
    }

    @pytest.mark.parametrize("name", sorted(KEYS))
    def test_job_key_is_pinned(self, name):
        assert job_key(_pinned_configs()[name], version="0.0.0") == self.KEYS[name]

    @pytest.mark.parametrize("name", sorted(KEYS))
    def test_job_key_is_the_fingerprint_of_the_canonical_fields(self, name):
        """The key equals its definition: a fingerprint of the
        already-canonical fields."""
        config = _pinned_configs()[name]
        fields = [
            [field.name, canonical(getattr(config, field.name))]
            for field in fields_of(config)
            if field.name != "trace_label"
        ]
        payload = {"config": "JobConfig", "fields": fields}
        assert job_key(config, version="0.0.0") == fingerprint("job", payload, version="0.0.0")

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
            lambda children: (
                st.lists(children, max_size=3)
                | st.tuples(children, children)
                | st.dictionaries(
                    st.text(max_size=3) | st.integers() | st.floats(allow_nan=False),
                    children,
                    max_size=3,
                )
            ),
            max_leaves=12,
        )
    )
    def test_second_pass_is_canonical_again(self, value):
        form = canonical(value)
        assert _canonical_again(form) == canonical(form)


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
