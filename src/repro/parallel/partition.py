"""Cost-balanced shard planning over action signatures.

Facts are first grouped by action signature (see :mod:`.footprint`):
facts with the same signature are interchangeable routing-wise, and
facts with signature 0 can only merge with duplicates of their own
bottom cell.  Each signature group is weighted by
``n_facts * (0.5 + sum of member-action weights)`` where an action's
weight is its static selectivity from
:func:`~repro.analysis.cost.estimate_costs` (1.0 when ungroundable) —
the 0.5 floor charges the per-fact routing/merge cost even for
zero-action facts.  Groups larger than ~1.25x the per-worker target are
split *contiguously in serial fact order* — for time-correlated loads
that is a time-range split, pygrametl's splitpoint partitioning in our
setting — and the resulting units are packed onto shards with the LPT
(longest processing time first) heuristic.

Shard fact lists are kept in serial fact order, which is what lets the
merge rebuild the serial result bit-for-bit.  The merge is correct for
any partition, so the plan only ever affects speed.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..analysis.cost import estimate_costs
from ..checks.prover import Prover
from ..core.mo import MultidimensionalObject
from ..spec.action import Action
from .footprint import SignatureRouter

#: Units heavier than this multiple of the per-shard target are split.
OVERSIZE_FACTOR = 1.25


@dataclass(frozen=True)
class Shard:
    """One unit of worker work: a fact slice plus its live actions."""

    index: int
    #: Fact ids in serial (MO iteration) order.
    fact_ids: tuple[str, ...]
    #: Indices into the specification's action list that any of this
    #: shard's facts might admit; all other actions are pruned.
    action_indices: tuple[int, ...]
    weight: float


@dataclass
class ShardPlan:
    """A complete partition of one MO's facts into worker shards."""

    shards: tuple[Shard, ...]
    workers: int
    n_actions: int
    n_facts: int
    #: max/mean shard weight (1.0 = perfectly balanced).
    skew: float
    #: Distinct action signatures observed while routing.
    signatures: int

    @property
    def pruned_actions(self) -> int:
        """Total action evaluations the per-shard pruning removed."""
        return sum(
            self.n_actions - len(shard.action_indices)
            for shard in self.shards
            if shard.fact_ids
        )


def action_weights(
    actions: Sequence[Action],
    dimensions: Mapping | None,
) -> list[float]:
    """Per-action routing weights from static selectivity estimates."""
    weights = [1.0] * len(actions)
    if not actions or dimensions is None:
        return weights
    try:
        costs = estimate_costs(actions, Prover(dimensions))
    except Exception:
        return weights
    for index, cost in enumerate(costs):
        if cost.selectivity is not None:
            weights[index] = cost.selectivity
    return weights


def plan_reduction_shards(
    mo: MultidimensionalObject,
    actions: Sequence[Action],
    now: _dt.date,
    workers: int,
) -> ShardPlan:
    """Partition *mo*'s facts into *workers* cost-balanced shards.

    The same plan is built regardless of execution mode, so serial and
    process execution see identical shards (and identical outputs).
    """
    workers = max(1, int(workers))
    router = SignatureRouter(mo, actions, now)
    groups: dict[int, list[str]] = {}
    n_facts = 0
    for fact_id in mo.facts():
        n_facts += 1
        groups.setdefault(router.action_signature(fact_id), []).append(
            fact_id
        )

    weights = action_weights(actions, mo.dimensions)
    units: list[tuple[float, int, list[str]]] = []  # (weight, sig, facts)
    for signature, fact_ids in groups.items():
        per_fact = 0.5
        remaining = signature
        while remaining:
            bit = (remaining & -remaining).bit_length() - 1
            per_fact += weights[bit]
            remaining &= remaining - 1
        units.append((len(fact_ids) * per_fact, signature, fact_ids))

    total = sum(weight for weight, _, _ in units)
    target = total / workers if workers else total
    if target > 0:
        split: list[tuple[float, int, list[str]]] = []
        for weight, signature, fact_ids in units:
            if weight <= OVERSIZE_FACTOR * target or len(fact_ids) < 2:
                split.append((weight, signature, fact_ids))
                continue
            # Contiguous serial-order (== time-range for time-ordered
            # loads) split into ceil(weight/target) near-equal chunks.
            pieces = min(len(fact_ids), max(2, -int(-weight // target)))
            size = -(-len(fact_ids) // pieces)
            for start in range(0, len(fact_ids), size):
                chunk = fact_ids[start : start + size]
                split.append((weight * len(chunk) / len(fact_ids), signature, chunk))
        units = split

    # LPT packing: heaviest unit first onto the lightest shard.
    loads = [0.0] * workers
    assigned: list[list[tuple[float, int, list[str]]]] = [
        [] for _ in range(workers)
    ]
    for unit in sorted(units, key=lambda u: (-u[0], u[2][0] if u[2] else "")):
        shard_index = min(range(workers), key=lambda i: loads[i])
        loads[shard_index] += unit[0]
        assigned[shard_index].append(unit)

    serial_index = {fact_id: i for i, fact_id in enumerate(mo.facts())}
    shards: list[Shard] = []
    for index in range(workers):
        fact_ids: list[str] = []
        signature = 0
        for _, unit_signature, unit_facts in assigned[index]:
            fact_ids.extend(unit_facts)
            signature |= unit_signature
        fact_ids.sort(key=serial_index.__getitem__)
        action_indices = []
        remaining = signature
        while remaining:
            bit = (remaining & -remaining).bit_length() - 1
            action_indices.append(bit)
            remaining &= remaining - 1
        shards.append(
            Shard(index, tuple(fact_ids), tuple(action_indices), loads[index])
        )

    mean = total / workers if workers else 0.0
    skew = (max(loads) / mean) if mean > 0 else 1.0
    return ShardPlan(
        shards=tuple(shards),
        workers=workers,
        n_actions=len(actions),
        n_facts=n_facts,
        skew=skew,
        signatures=len(groups),
    )
