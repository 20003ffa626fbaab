"""The self-check rule catalog: stable ``RL`` codes over the repro tree.

Where the ``SDR`` rules (:mod:`repro.lint`) machine-check *reduction
specifications*, the ``RL`` rules machine-check the *reproduction
itself*: the concurrency-safety invariants the serving, parallel, and
durability layers rely on but that, before this pass, were enforced
purely by convention.  Each rule has a runtime companion where one
makes sense (see :mod:`repro.sanitize`): ``RL001`` pairs with the
``block`` sanitizer, ``RL002`` with ``fork``, ``RL003`` with
``mutation``.

Codes are stable; the catalog is documented in ``docs/selfcheck.md``.
"""

from __future__ import annotations

from ..lint.diagnostics import Severity
from ..lint.rules import Rule

_RULE_DEFS = (
    Rule(
        "RL001",
        "blocking-call-in-async",
        Severity.ERROR,
        "A blocking call (sleep, fsync, rename, file/socket I/O, journal "
        "write) is reachable inside an async def body of the serving "
        "layer without asyncio.to_thread or an executor.",
        "docs/serving.md — event-loop discipline",
        hint="move the blocking work into asyncio.to_thread(...) or "
        "loop.run_in_executor(...)",
    ),
    Rule(
        "RL002",
        "fork-unsafe-cache",
        Severity.ERROR,
        "A module-level mutable cache in a worker-imported package is "
        "not registered with the fork-safe cache registry, so forked "
        "shard workers inherit it uncleared.",
        "docs/performance.md — the sharded batch reducer",
        hint="register it via repro._forkreg.register_cache(name, "
        "clearer, size) so forksafe.clear_inherited_caches sweeps it",
    ),
    Rule(
        "RL003",
        "snapshot-mutation",
        Severity.ERROR,
        "Attribute or item assignment on an object that carries frozen "
        "StoreSnapshot state, outside the snapshot constructors.",
        "docs/serving.md — MVCC snapshot immutability",
        hint="published versions are immutable; mutate the live store "
        "and publish a new version",
    ),
    Rule(
        "RL004",
        "nondeterministic-source",
        Severity.ERROR,
        "An unseeded random generator or wall-clock read (time.time, "
        "datetime.now, date.today) in a module that promises "
        "deterministic replay.",
        "docs/durability.md — deterministic fault schedules",
        hint="take the clock or a seeded random.Random(seed) as an "
        "injectable parameter",
    ),
    Rule(
        "RL005",
        "telemetry-drift",
        Severity.ERROR,
        "A repro_* metric name that is not declared exactly once in a "
        "telemetry/obs registry module, or is missing from "
        "docs/observability.md.",
        "docs/observability.md — metric catalog",
        hint="declare the name as a constant in the layer's telemetry "
        "module, import it at use sites, and document it",
    ),
    Rule(
        "RL006",
        "failpoint-uncovered",
        Severity.ERROR,
        "A registered failpoint name is never exercised by any test "
        "(neither literally nor via iteration over its catalog tuple).",
        "docs/durability.md — failpoint catalogue",
        hint="add a test that schedules the failpoint (REPRO_FAILPOINTS "
        "or FaultInjector) and asserts the system absorbs it",
    ),
    Rule(
        "RL000",
        "selfcheck-parse-error",
        Severity.ERROR,
        "A file handed to the self-check pass could not be parsed as "
        "Python.",
        "docs/selfcheck.md",
    ),
)

RULES: dict[str, Rule] = {rule.code: rule for rule in _RULE_DEFS}
