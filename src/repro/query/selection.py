"""The selection operator over reduced MOs (Section 6.1, Equation 36).

``o[p](O)`` restricts the fact set to facts characterized by values on
which the predicate evaluates to true.  With reduced data the predicate's
category may be unavailable for some facts; the *approach* decides what
happens then:

* ``CONSERVATIVE`` (the paper's choice) — only facts *known* to satisfy;
* ``LIBERAL`` — all facts that *might* satisfy;
* ``WEIGHTED`` — the liberal answer with a certainty weight per fact
  (:func:`select_weighted`).

:func:`select` is the reference operator; :class:`CompiledPredicate` is
its set-at-a-time plan, the form the subcube engine evaluates.
"""

from __future__ import annotations

import datetime as _dt
from itertools import compress
from typing import Mapping

from ..core.mo import MultidimensionalObject
from ..errors import SpecSemanticsError
from ..spec.action import _bind_predicate, resolve_terms
from ..spec.ast import (
    And,
    Atom,
    FalsePredicate,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from ..spec.parser import parse_predicate
from .compare import Approach, atom_compare

# ``repro.spec.predicate`` is imported at call time below: it builds on
# this package's comparison semantics, so a module-level import would be
# circular.


def bind_query_predicate(
    mo: MultidimensionalObject, predicate: "Predicate | str"
) -> "Predicate":
    """Parse/validate a query predicate against the MO's schema."""
    if isinstance(predicate, str):
        predicate = parse_predicate(predicate)
    return _bind_predicate(mo.schema, predicate, "query")


def select(
    mo: MultidimensionalObject,
    predicate: "Predicate | str",
    now: _dt.date,
    approach: Approach = Approach.CONSERVATIVE,
) -> MultidimensionalObject:
    """``o[p](O)``: the sub-MO of facts satisfying *predicate* at *now*.

    Dimensions and schema stay the same; fact-dimension relations and
    measures are restricted accordingly (Equation 36).
    """
    from ..spec.predicate import satisfies

    bound = bind_query_predicate(mo, predicate)
    keep = [
        fact_id
        for fact_id in mo.facts()
        if satisfies(mo, fact_id, bound, now, approach)
    ]
    return mo.restrict_to_facts(keep)


class CompiledPredicate:
    """A bound predicate compiled at one evaluation time, answering
    set-at-a-time.

    Mirrors :func:`repro.spec.predicate.evaluate` exactly — including the
    NOT conservative/liberal dual — but resolves every ``NOW`` term once
    at construction and computes the verdict once per *distinct
    combination of direct values* in the dimensions the predicate reads;
    :meth:`satisfying_facts` broadcasts those verdicts over an MO's
    relation columns.  Beneath that, each atom's verdict is kept per
    distinct direct value, so a new combination of already-seen values
    costs one dict hit per atom.  The tables (one per approach) live as
    long as the plan and are shared by every MO it is asked about — in
    the subcube engine, every cube of every query at this time.
    """

    def __init__(
        self,
        predicate: Predicate,
        dimensions: Mapping[str, object],
        now: _dt.date,
    ) -> None:
        self.predicate = predicate
        self.now = now
        self._dimensions = dimensions
        # Keyed by atom identity: the predicate tree is held alive by
        # ``self.predicate``, so ids are stable for this plan's lifetime.
        self._rights: dict[int, object] = {}
        for atom in predicate.atoms():
            rights = resolve_terms(atom, now)
            self._rights[id(atom)] = (
                rights if atom.op == "in" else rights[0]
            )
        #: The dimensions the predicate reads, in first-mention order.
        self._reads = tuple(
            dict.fromkeys(atom.ref.dimension for atom in predicate.atoms())
        )
        self._verdicts: dict[Approach, dict[tuple[str, ...], bool]] = {
            approach: {} for approach in Approach
        }
        self._atom_verdicts: dict[Approach, dict[tuple[int, str], bool]] = {
            approach: {} for approach in Approach
        }

    def satisfying_facts(
        self,
        mo: MultidimensionalObject,
        approach: Approach = Approach.CONSERVATIVE,
    ) -> list[str]:
        """The facts of *mo* satisfying the predicate, in *mo*'s order."""
        fact_ids = list(mo.facts())
        reads = self._reads
        if not reads:  # a constant predicate: one verdict for every fact
            constant = self._evaluate(self.predicate, {}, approach)
            return fact_ids if constant else []
        combinations = list(
            zip(*(mo.relations[name].values_of(fact_ids) for name in reads))
        )
        verdicts = self._verdicts[approach]
        for combination in set(combinations).difference(verdicts):
            verdicts[combination] = self._evaluate(
                self.predicate, dict(zip(reads, combination)), approach
            )
        return list(
            compress(fact_ids, map(verdicts.__getitem__, combinations))
        )

    def _evaluate(
        self,
        node: Predicate,
        cell: Mapping[str, str],
        approach: Approach,
    ) -> bool:
        if isinstance(node, TruePredicate):
            return True
        if isinstance(node, FalsePredicate):
            return False
        if isinstance(node, Atom):
            value = cell[node.ref.dimension]
            verdicts = self._atom_verdicts[approach]
            key = (id(node), value)
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = atom_compare(
                    self._dimensions[node.ref.dimension],
                    value,
                    node.ref.category,
                    node.op,
                    self._rights[id(node)],
                    approach,
                )
            return verdict
        if isinstance(node, Not):
            from ..spec.predicate import dual_approach

            return not self._evaluate(
                node.operand, cell, dual_approach(approach)
            )
        if isinstance(node, And):
            return all(
                self._evaluate(p, cell, approach) for p in node.operands
            )
        if isinstance(node, Or):
            return any(
                self._evaluate(p, cell, approach) for p in node.operands
            )
        raise SpecSemanticsError(f"cannot evaluate {node!r}")


def select_weighted(
    mo: MultidimensionalObject,
    predicate: "Predicate | str",
    now: _dt.date,
) -> tuple[MultidimensionalObject, dict[str, float]]:
    """The weighted approach: the liberal answer plus per-fact weights.

    A fact's weight is the fraction of its possible detailed values that
    satisfy the predicate (1.0 on the conservative answer); facts with
    weight 0 are omitted.
    """
    from ..spec.predicate import satisfaction_weight

    bound = bind_query_predicate(mo, predicate)
    weights: dict[str, float] = {}
    for fact_id in mo.facts():
        def value_of(dimension_name: str, _fid: str = fact_id) -> str:
            return mo.direct_value(_fid, dimension_name)

        weight = satisfaction_weight(bound, value_of, mo.dimensions, now)
        if weight > 0.0:
            weights[fact_id] = weight
    return mo.restrict_to_facts(weights), weights
