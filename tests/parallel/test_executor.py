"""The shard executor: worker count, modes, and error semantics.

Serial and process sessions run tasks through the same ``_invoke``
wrapper, so results, per-task timings, and — critically — which
exception surfaces for multi-task failures must be identical in both
modes.
"""

import multiprocessing as mp
import os

import pytest

from repro.engine.faults import InjectedFault
from repro.errors import EngineError, ReproError
from repro.parallel import ShardExecutor
from repro.parallel import executor as executor_module

HAVE_FORK = "fork" in mp.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="fork start method unavailable"
)

MODES = ["serial"] + (["process"] if HAVE_FORK else [])


def _double(payload, task):
    return payload["base"] * task


def _fail_on_two(payload, task):
    if task == 2:
        raise EngineError(f"task {task} exploded")
    return task


def _fault_on_two(payload, task):
    if task == 2:
        raise InjectedFault("shard.plan", 7)
    return task


def test_worker_count_is_explicit_and_floored(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "abc")  # never read
    assert ShardExecutor(workers=3).workers == 3
    assert ShardExecutor(workers=1).workers == 1
    assert ShardExecutor(workers=0).workers == 1  # floored at one
    assert ShardExecutor(workers=-2).workers == 1


def test_unknown_mode_is_rejected():
    with pytest.raises(ReproError):
        ShardExecutor(workers=2, mode="threads")


def test_serial_session_runs_tasks_in_order():
    executor = ShardExecutor(workers=4, mode="serial")
    assert not executor.uses_processes
    with executor.session({"base": 10}) as session:
        results, seconds = session.run(_double, [1, 2, 3])
    assert results == [10, 20, 30]
    assert len(seconds) == 3 and all(s >= 0 for s in seconds)
    assert executor_module._PAYLOAD is None  # cleared when the session ends


def test_auto_mode_stays_serial_without_parallel_hardware(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert not ShardExecutor(workers=4, mode="auto").uses_processes
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert not ShardExecutor(workers=1, mode="auto").uses_processes
    if HAVE_FORK:
        assert ShardExecutor(workers=4, mode="auto").uses_processes


@pytest.mark.parametrize("mode", MODES)
def test_worker_exceptions_reconstruct(mode):
    executor = ShardExecutor(workers=2, mode=mode)
    with executor.session({}) as session:
        # The earliest failing task's error surfaces, regardless of
        # which worker finishes first.
        with pytest.raises(EngineError, match="task 2 exploded"):
            session.run(_fail_on_two, [1, 2, 3])


@pytest.mark.parametrize("mode", MODES)
def test_injected_faults_cross_the_pipe(mode):
    executor = ShardExecutor(workers=2, mode=mode)
    with executor.session({}) as session:
        with pytest.raises(InjectedFault) as info:
            session.run(_fault_on_two, [0, 2])
    assert info.value.failpoint == "shard.plan"
    assert info.value.hit == 7


@needs_fork
def test_process_mode_matches_serial():
    payload = {"base": 7}
    serial = ShardExecutor(workers=2, mode="serial")
    process = ShardExecutor(workers=2, mode="process")
    assert process.uses_processes
    with serial.session(payload) as session:
        expected, _ = session.run(_double, list(range(6)))
    with process.session(payload) as session:
        actual, _ = session.run(_double, list(range(6)))
    assert actual == expected == [0, 7, 14, 21, 28, 35]
