"""Exact outcomes of shortened simulated cells, pinned bit for bit.

The cells are perfbench's shortened Table 4/5 cells
(``ScaledSetup(virtual_processes=8, steps=5)``).  The outcome literals
are the ones ``perfbench/tables.py`` pins in ``GOLDEN``; the traffic
counters are those the same cells report.  A change to the simulator
that moves one bit of a completion time, or one message, fails here
instead of only in a benchmark run.
"""

import dataclasses
import os
import sys

import pytest

import repro
from repro.experiments.table4 import ScaledSetup
from repro.orchestration import run_failure_free_sweep, run_redundancy_sweep
from repro.redundancy import MSG_PLUS_HASH
from repro.simkit.env import Environment
from repro.simkit.process import Process
from repro.workloads.synthetic import ring_payload

SETUP = ScaledSetup(virtual_processes=8, steps=5)

#: Table 5 cells (failure-free): degree -> (total as float.hex,
#: attempts, failures injected, checkpoints committed, p2p_messages,
#: p2p_bytes, app_sends).
FAILURE_FREE = {
    1.25: ("0x1.0a402a927ac17p-2", 1, 0, 0, 228, 9_846_336, 170),
    2.25: ("0x1.34e592967019ap-2", 1, 0, 0, 692, 32_816_224, 294),
}

#: Kernel heap steps of the 2.25x Table 5 cell.  A send costs one step
#: per copy (its wire arrival) plus one for the whole request set (its
#: completion); a timer per copy leaving the NIC would cost 692 steps
#: where the 294 set completions cost 294, for 1,540 in all.  A
#: ``sendrecv`` waits its two events in turn and takes no step of its
#: own (an ``AllOf`` would add one per call, 90 here).
STEPS_2_25X = 1_142

#: Process resumes of the same cell: a work count, pinned exactly.  A
#: ``sendrecv`` resumes once per event still pending when it is yielded.
RESUMES_2_25X = 638

#: Python calls into ``repro`` code for the same cell, counted as
#: ``call`` profile events (a generator resume is one) from an empty
#: payload memo: an upper bound, not an exact count, since Python 3.12
#: inlines list comprehensions and counts fewer.  The host work per
#: message copy is what perfbench times; the cell made 12,907 such
#: calls before the request-set, route, compute and check helpers were
#: folded into their callers, and makes 10,419 on CPython 3.11.  The
#: bound adds 2% for interpreters it was not measured on; one more
#: call per message copy would add 692.
CALLS_2_25X = 10_630

#: Kernel heap steps of the Table 4 cell below, with its kills and
#: restart: a work count, pinned exactly.
STEPS_6H_2X = 1_073

#: The Table 4 cell at the 6 h MTBF and 2.0x, same fields.
MTBF_6H_2X = ("0x1.0c29b1aa31975p-2", 1, 3, 0, 608, 17_737_632, 346)


#: Table 4 cells at the 6 h MTBF in Msg-PlusHash mode, which no table
#: flow runs: degree -> (total as float.hex, attempts, failures
#: injected, checkpoints committed, every ``p2p_*``/``app_*`` counter).
#: Each receiver replica gets one full copy and a digest from every
#: other sender replica, and a replica death moves the full copy to a
#: survivor: the routes these cells use change with every death.
MSG_PLUS_HASH_6H = {
    2.0: ("0x1.0c1a2cd1f0224p-2", 1, 3, 0, {
        "app_recvs": 346, "app_sends": 346,
        "p2p_bytes": 11_020_520, "p2p_messages": 608,
    }),
    2.5: ("0x1.d21d56f969597p+0", 2, 11, 0, {
        "app_recvs": 601, "app_sends": 583,
        "p2p_bytes": 19_605_880, "p2p_messages": 1_526,
    }),
}


def _observed(cell):
    report = cell.report
    return (
        report.total_time.hex(),
        report.attempts,
        report.failures_injected,
        report.checkpoints_committed,
        report.counters["p2p_messages"],
        report.counters["p2p_bytes"],
        report.counters["app_sends"],
    )


@pytest.mark.parametrize("degree", sorted(FAILURE_FREE))
def test_failure_free_cell_is_exact(degree):
    (cell,) = run_failure_free_sweep(SETUP.job_config(), degrees=[degree], workers=1)
    assert _observed(cell) == FAILURE_FREE[degree]


def test_failure_cell_is_exact():
    (cell,) = run_redundancy_sweep(
        SETUP.job_config(),
        node_mtbfs=[SETUP.mtbf_to_sim(6.0)],
        degrees=[2.0],
        workers=1,
    )
    assert _observed(cell) == MTBF_6H_2X


@pytest.mark.parametrize("degree", sorted(MSG_PLUS_HASH_6H))
def test_msg_plus_hash_cell_is_exact(degree):
    config = dataclasses.replace(SETUP.job_config(), mode=MSG_PLUS_HASH)
    (cell,) = run_redundancy_sweep(
        config, node_mtbfs=[SETUP.mtbf_to_sim(6.0)], degrees=[degree], workers=1
    )
    report = cell.report
    traffic = {
        name: value
        for name, value in report.counters.items()
        if name.startswith(("p2p_", "app_"))
    }
    observed = (
        report.total_time.hex(),
        report.attempts,
        report.failures_injected,
        report.checkpoints_committed,
        traffic,
    )
    assert observed == MSG_PLUS_HASH_6H[degree]


def _count_calls(monkeypatch, cls, name):
    """Count the calls of ``cls.name`` from now on; returns the tally list."""
    calls = []
    method = getattr(cls, name)

    def counting(self, *args):
        calls.append(None)
        return method(self, *args)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_failure_free_cell_heap_steps(monkeypatch):
    steps = _count_calls(monkeypatch, Environment, "step")
    run_failure_free_sweep(SETUP.job_config(), degrees=[2.25], workers=1)
    assert len(steps) == STEPS_2_25X


def test_failure_free_cell_resumes(monkeypatch):
    resumes = _count_calls(monkeypatch, Process, "_resume")
    run_failure_free_sweep(SETUP.job_config(), degrees=[2.25], workers=1)
    assert len(resumes) == RESUMES_2_25X


def test_failure_free_cell_python_calls():
    package = os.path.dirname(repro.__file__) + os.sep
    calls = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls.append(None)

    config = SETUP.job_config()
    # A memo miss is a call, so count from an empty memo whatever ran
    # before.
    ring_payload.cache_clear()
    sys.setprofile(profile)
    try:
        run_failure_free_sweep(config, degrees=[2.25], workers=1)
    finally:
        sys.setprofile(None)
    assert len(calls) <= CALLS_2_25X


def test_failure_cell_heap_steps(monkeypatch):
    steps = _count_calls(monkeypatch, Environment, "step")
    run_redundancy_sweep(
        SETUP.job_config(),
        node_mtbfs=[SETUP.mtbf_to_sim(6.0)],
        degrees=[2.0],
        workers=1,
    )
    assert len(steps) == STEPS_6H_2X
