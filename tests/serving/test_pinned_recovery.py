"""A reader pinned on a snapshot across a crash and recovery.

A serving reader may hold a pinned snapshot taken *before* a crash
while recovery reopens the very directory the crashed store wrote.
Snapshots are deep in-memory copies, so recovery must be invisible to
them: the pinned version still verifies its fingerprint and still
answers queries, while the recovered store lands on exactly the
committed state the pin froze.
"""

import pytest

from repro.core.hierarchy import TOP
from repro.engine.durable import DurableStore, open_durable
from repro.engine.faults import FaultInjector, InjectedFault
from repro.engine.queryproc import SubcubeQuery
from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.serving import SnapshotManager, store_fingerprint

from ..engine.durableutil import facts_of

GRAND_TOTAL = SubcubeQuery(None, {"Time": TOP, "URL": TOP})


def rows_of(mo):
    return sorted(
        (mo.direct_cell(f), mo.measure_value(f, "Number_of"))
        for f in mo.facts()
    )


def test_pinned_reader_survives_a_crash_and_recovery(tmp_path):
    path = tmp_path / "store"
    mo = build_paper_mo()
    faults = FaultInjector()
    store = DurableStore.create(
        str(path), mo, paper_specification(mo), fsync=False, faults=faults
    )
    store.load(facts_of(mo))
    store.synchronize(SNAPSHOT_TIMES[1])

    # The serving layer publishes, and a reader pins this version.
    manager = SnapshotManager()
    manager.publish(store)
    pinned = manager.acquire()
    baseline = rows_of(pinned.query(GRAND_TOTAL, SNAPSHOT_TIMES[1]))

    # The next sync dies mid-flight (a simulated process kill after its
    # first migration reached the journal).
    faults.arm("sync.migrate", at_hit=1)
    with pytest.raises(InjectedFault):
        store.synchronize(SNAPSHOT_TIMES[2])
    store.close()

    # Recovery reopens the directory while the reader still holds its pin.
    recovered, report = open_durable(str(path), faults=FaultInjector())
    assert report.interrupted_sync == SNAPSHOT_TIMES[2]

    # The recovered store is the committed pre-crash state — exactly
    # what the pinned snapshot froze.
    assert store_fingerprint(recovered) == pinned.fingerprint

    # The reader never noticed: its snapshot still hashes clean and
    # still answers the same rows after recovery reopened its directory.
    assert pinned.verify_integrity()
    assert rows_of(pinned.query(GRAND_TOTAL, SNAPSHOT_TIMES[1])) == baseline

    # Re-running the interrupted sync converges; the old pinned version
    # survives the new publication until released.
    recovered.synchronize(SNAPSHOT_TIMES[2])
    fresh = manager.publish(recovered)
    assert manager.live_versions() == [1, 2]
    assert fresh.fingerprint != pinned.fingerprint
    manager.release(pinned)
    assert manager.live_versions() == [2]
    recovered.close()
