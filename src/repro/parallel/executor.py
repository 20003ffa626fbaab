"""The shard executor: process fan-out with a deterministic serial twin.

Workers are forked (``multiprocessing`` ``fork`` start method), so the
task payload — the MO, bound actions, evaluation time — is
inherited by reference instead of pickled: the parent publishes it in
the module-global :data:`_PAYLOAD` immediately before creating the pool,
and workers read it back.  Only the per-task descriptors (small tuples
of ints and strings) and the results cross the pipe.

Execution mode:

* ``"serial"`` — run every task in-process, in task order;
* ``"process"`` — always use a ``ProcessPoolExecutor``;
* ``"auto"`` (default) — processes when there is more than one worker,
  more than one CPU, and ``fork`` is available; serial otherwise.

The worker count is always explicit; no environment variable sets it.

Both modes run tasks through the same :func:`_invoke` wrapper, which
converts exceptions into picklable markers — so error semantics (which
exception type, raised for the earliest failing task) are identical in
both modes, and the shard plans themselves never depend on the mode:
serial execution of a 4-worker plan produces bit-for-bit the same
output as process execution of the same plan.
"""

from __future__ import annotations

import importlib
import multiprocessing as _mp
import os
import time
from concurrent import futures as _futures
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from ..engine.faults import InjectedFault
from ..errors import ReproError, SanitizerError
from .forksafe import install_fork_guard, pending_fork_violation

#: The fork-inherited task payload (set only inside an active session).
_PAYLOAD: Any = None

MODES = ("auto", "serial", "process")


def _invoke(fn: Callable[[Any, Any], Any], task: Any) -> tuple:
    """Run one task against the inherited payload, marker-encoding errors."""
    started = time.perf_counter()
    try:
        violation = pending_fork_violation()
        if violation is not None:
            # The fork sanitizer (REPRO_SANITIZE=fork) found a cache that
            # survived the fork-time sweep; at-fork hooks cannot raise,
            # so the worker surfaces it at its first task instead.
            raise SanitizerError(violation)
        result = fn(_PAYLOAD, task)
    except InjectedFault as fault:
        return (
            "fault",
            (fault.failpoint, fault.hit),
            time.perf_counter() - started,
        )
    except Exception as exc:
        cls = type(exc)
        return (
            "exc",
            (cls.__module__, cls.__qualname__, str(exc)),
            time.perf_counter() - started,
        )
    return ("ok", result, time.perf_counter() - started)


def _reconstruct(kind: str, data: tuple) -> BaseException:
    if kind == "fault":
        return InjectedFault(*data)
    module_name, qualname, message = data
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        exc = obj(message)
        if isinstance(exc, BaseException):
            return exc
    except Exception:
        pass
    return ReproError(f"worker failed: {module_name}.{qualname}: {message}")


class _Session:
    """One executor session: a fixed payload plus a task runner."""

    def run(
        self, fn: Callable[[Any, Any], Any], tasks: Sequence[Any]
    ) -> tuple[list[Any], list[float]]:
        """Run *tasks*, returning (results, per-task seconds) in order.

        If any task failed, the earliest failing task's exception is
        reconstructed and raised — deterministic regardless of which
        worker finished first.
        """
        outcomes = self._outcomes(fn, tasks)
        seconds = [outcome[2] for outcome in outcomes]
        for kind, data, _ in outcomes:
            if kind != "ok":
                raise _reconstruct(kind, data)
        return [outcome[1] for outcome in outcomes], seconds

    def _outcomes(self, fn, tasks) -> list[tuple]:
        raise NotImplementedError


class _SerialSession(_Session):
    def _outcomes(self, fn, tasks) -> list[tuple]:
        return [_invoke(fn, task) for task in tasks]


class _ProcessSession(_Session):
    def __init__(self, pool: _futures.ProcessPoolExecutor) -> None:
        self._pool = pool

    def _outcomes(self, fn, tasks) -> list[tuple]:
        handles = [self._pool.submit(_invoke, fn, task) for task in tasks]
        return [handle.result() for handle in handles]


class ShardExecutor:
    """Fan shard tasks out over worker processes (or run them inline)."""

    def __init__(self, workers: int, mode: str = "auto") -> None:
        if mode not in MODES:
            raise ReproError(
                f"unknown executor mode {mode!r}; expected one of {MODES}"
            )
        self.workers = max(1, int(workers))
        self.mode = mode

    @property
    def uses_processes(self) -> bool:
        if self.mode == "serial":
            return False
        if self.mode == "process":
            return True
        return (
            self.workers > 1
            and (os.cpu_count() or 1) > 1
            and "fork" in _mp.get_all_start_methods()
        )

    @contextmanager
    def session(self, payload: Any) -> Iterator[_Session]:
        """Publish *payload* and yield a task runner bound to it.

        The payload global is set before the pool forks, so worker
        processes inherit it; it is cleared when the session ends.
        """
        global _PAYLOAD
        install_fork_guard()
        _PAYLOAD = payload
        try:
            if self.uses_processes:
                context = _mp.get_context("fork")
                with _futures.ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                ) as pool:
                    yield _ProcessSession(pool)
            else:
                yield _SerialSession()
        finally:
            _PAYLOAD = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShardExecutor(workers={self.workers}, mode={self.mode!r})"
