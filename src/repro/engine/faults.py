"""Deterministic fault injection for the durable store engine.

A :class:`FaultInjector` owns a set of named *failpoints* — well-known
call sites inside the durable store (:mod:`repro.engine.durable`) where a
process crash would be most damaging.  Each failpoint can be armed to
fire on its N-th hit, with a probability per hit (seeded RNG, so runs are
reproducible), or a bounded number of times.  Firing raises
:class:`InjectedFault`, which the crash-recovery tests treat as the
moment the process died: nothing after the raise may be assumed to have
happened, and recovery from disk must land on a consistent state.

Beyond simulated crashes, a failpoint can carry a *payload* that shapes
what firing does:

* :class:`DiskFault` raises a realistic ``OSError`` with the given
  ``errno`` (ENOSPC, EIO, ...) instead of :class:`InjectedFault`, so the
  durable engine's error handling sees exactly what a full or failing
  disk would produce;
* :class:`SlowFault` injects latency (a blocking sleep) and lets the
  call proceed — the model of a stalling disk or an overloaded sync,
  which the serving layer's deadline and backpressure machinery must
  absorb rather than crash on.

Failpoints can also be armed from the environment
(``REPRO_FAILPOINTS="journal.append=2,sync.migrate=p0.25"`` with
``REPRO_FAULT_SEED=1``), which is how the CI fault-injection and
serving-chaos jobs drive the property suites without code changes.
Disk and slow failpoints armed from the environment pick up their
default payloads from :data:`DEFAULT_PAYLOADS`.
"""

from __future__ import annotations

import errno as _errno
import os
import random
import time
from dataclasses import dataclass, field

from ..errors import ReproError

#: The failpoint catalogue: every site the durable engine consults, with
#: the crash the site simulates.  Tests iterate this to prove recovery
#: works no matter where the process dies.
FAILPOINTS: tuple[str, ...] = (
    "journal.append",  # before a journal record reaches the file
    "journal.torn",  # after a *prefix* of a record is written (torn write)
    "journal.fsync",  # after write, before the journal fsync returns
    "snapshot.write",  # before the snapshot temp file is written
    "snapshot.fsync",  # after the temp file is written, before fsync
    "snapshot.rename",  # before the atomic rename publishes the snapshot
    "snapshot.manifest",  # before the manifest pointer is replaced
    "load.insert",  # mid bulk-load, after some facts were staged
    "sync.migrate",  # mid synchronization, before each fact moves
)

#: The failpoint of the sharded batch reducer
#: (:func:`repro.parallel.reduce_mo_sharded`).  Kept out of
#: :data:`FAILPOINTS` because the crash-recovery reference script
#: asserts it hits every entry of that catalogue, and the durable store
#: never reaches this site.
SHARD_FAILPOINTS: tuple[str, ...] = (
    "shard.plan",  # after the shard plan is built, before any worker runs
)

#: Disk- and server-level failpoints for the serving layer's chaos
#: suite (:mod:`repro.serving`).  The ``disk.*`` sites sit inside the
#: durable engine's write paths and default to realistic ``OSError``
#: payloads; the ``serve.*`` and ``sync.slow`` sites model a crashing
#: handler and a stalling synchronization, which the server must absorb
#: (degraded stale-snapshot serving) instead of exiting.
SERVING_FAILPOINTS: tuple[str, ...] = (
    "disk.enospc",  # journal append / snapshot publish hits a full disk
    "disk.eio",  # journal append / snapshot publish hits an I/O error
    "sync.slow",  # synchronization stalls (latency, not a crash)
    "serve.handler",  # a request handler dies mid-request
    "serve.slow",  # a request handler stalls past its deadline
)

#: Failpoints consulted by the streaming ingest path
#: (:mod:`repro.ingest`).  ``ingest.batch`` sits just before a group
#: commit reaches the journal (a crash there loses the whole in-flight
#: batch, never part of it), ``ingest.commit`` just after the commit
#: record is durable (a crash there must replay the full batch), and
#: ``ingest.deadletter`` before a rejected row is appended to the
#: dead-letter file.
INGEST_FAILPOINTS: tuple[str, ...] = (
    "ingest.batch",  # before the group-commit journal record is written
    "ingest.commit",  # after the batch committed, before the ack
    "ingest.deadletter",  # before a bad row reaches the dead-letter file
)


@dataclass(frozen=True)
class DiskFault:
    """A failpoint payload that raises ``OSError(errno, ...)`` on fire."""

    errno: int

    def raise_for(self, name: str, hit: int) -> None:
        code = _errno.errorcode.get(self.errno, str(self.errno))
        raise OSError(
            self.errno, f"injected {code} at {name!r} (hit {hit})"
        )


@dataclass(frozen=True)
class SlowFault:
    """A failpoint payload that sleeps instead of raising: the call
    proceeds, late — a stalling disk or sync, not a dead process."""

    seconds: float


#: Payloads failpoints armed without an explicit one default to (used
#: by :meth:`FaultInjector.arm` and environment-driven arming).
DEFAULT_PAYLOADS: dict[str, object] = {
    "disk.enospc": DiskFault(_errno.ENOSPC),
    "disk.eio": DiskFault(_errno.EIO),
    "sync.slow": SlowFault(0.05),
    "serve.slow": SlowFault(0.05),
}


class InjectedFault(ReproError):
    """A simulated crash raised by an armed failpoint."""

    def __init__(self, name: str, hit: int) -> None:
        self.failpoint = name
        self.hit = hit
        super().__init__(f"injected fault at {name!r} (hit {hit})")


@dataclass
class _Arming:
    """One failpoint's trigger configuration."""

    #: Fire on this hit number (1-based); ``None`` = every eligible hit.
    at_hit: int | None = None
    #: Fire with this probability per hit; ``None`` = always eligible.
    probability: float | None = None
    #: Stop firing after this many fires; ``None`` = unbounded.
    max_fires: int | None = None
    #: What firing does: ``None`` raises :class:`InjectedFault`, a
    #: :class:`DiskFault` raises ``OSError``, a :class:`SlowFault` sleeps.
    payload: object | None = None
    hits: int = 0
    fires: int = 0


@dataclass
class FaultInjector:
    """Named, seeded, countable failpoints.

    ``arm("journal.append", at_hit=3)`` fires on exactly the third time
    the journal tries to append; ``arm("sync.migrate",
    probability=0.25)`` fires on each migration with probability 0.25
    from the injector's seeded RNG.  An unarmed failpoint never fires,
    so production code can consult failpoints unconditionally at zero
    configuration cost.
    """

    seed: int = 0
    _armed: dict[str, _Arming] = field(default_factory=dict)
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def arm(
        self,
        name: str,
        *,
        at_hit: int | None = None,
        probability: float | None = None,
        max_fires: int | None = None,
        payload: object | None = None,
    ) -> None:
        known_names = (
            FAILPOINTS
            + SHARD_FAILPOINTS
            + SERVING_FAILPOINTS
            + INGEST_FAILPOINTS
        )
        if name not in known_names:
            known = ", ".join(known_names)
            raise ReproError(f"unknown failpoint {name!r}; known: {known}")
        if at_hit is None and probability is None:
            at_hit = 1
        if payload is None:
            payload = DEFAULT_PAYLOADS.get(name)
        self._armed[name] = _Arming(at_hit, probability, max_fires, payload)

    def disarm(self, name: str | None = None) -> None:
        """Disarm one failpoint, or all of them when *name* is None."""
        if name is None:
            self._armed.clear()
        else:
            self._armed.pop(name, None)

    def hit(self, name: str) -> None:
        """Consult a failpoint; raises :class:`InjectedFault` if it fires."""
        arming = self._armed.get(name)
        if arming is None:
            return
        arming.hits += 1
        if arming.max_fires is not None and arming.fires >= arming.max_fires:
            return
        if arming.at_hit is not None and arming.hits != arming.at_hit:
            return
        if (
            arming.probability is not None
            and self._rng.random() >= arming.probability
        ):
            return
        arming.fires += 1
        if isinstance(arming.payload, SlowFault):
            time.sleep(arming.payload.seconds)
            return
        if isinstance(arming.payload, DiskFault):
            arming.payload.raise_for(name, arming.hits)
        raise InjectedFault(name, arming.hits)

    def hit_count(self, name: str) -> int:
        """How many times an armed failpoint has been consulted."""
        arming = self._armed.get(name)
        return arming.hits if arming is not None else 0

    def fire_count(self, name: str) -> int:
        arming = self._armed.get(name)
        return arming.fires if arming is not None else 0

    @classmethod
    def from_environment(
        cls,
        spec: str | None = None,
        seed: int | None = None,
    ) -> "FaultInjector":
        """Build an injector from ``REPRO_FAILPOINTS``.

        The spec is a comma- or semicolon-separated list of
        ``name=trigger`` items where the trigger is a hit number
        (``journal.append=2``), a probability (``sync.migrate=p0.25``),
        or ``*`` for every hit.  The RNG seed comes from
        ``REPRO_FAULT_SEED`` (default 0).
        """
        if spec is None:
            spec = os.environ.get("REPRO_FAILPOINTS", "")
        if seed is None:
            seed = int(os.environ.get("REPRO_FAULT_SEED", "0"))
        injector = cls(seed=seed)
        for item in spec.replace(";", ",").split(","):
            item = item.strip()
            if not item:
                continue
            name, _, trigger = item.partition("=")
            name = name.strip()
            trigger = trigger.strip() or "1"
            if trigger == "*":
                injector.arm(name, at_hit=None, probability=1.0)
            elif trigger.startswith("p"):
                try:
                    probability = float(trigger[1:])
                except ValueError:
                    raise ReproError(
                        f"bad failpoint trigger {item!r}: probability "
                        "must look like p0.25"
                    ) from None
                injector.arm(name, probability=probability)
            else:
                try:
                    at_hit = int(trigger)
                except ValueError:
                    raise ReproError(
                        f"bad failpoint trigger {item!r}: expected a hit "
                        "number, p<float>, or *"
                    ) from None
                injector.arm(name, at_hit=at_hit)
        return injector


#: A process-wide injector with nothing armed: the default for durable
#: stores constructed without an explicit injector.
PASSIVE = FaultInjector()
