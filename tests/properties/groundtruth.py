"""Admission masks over a fixed cell list, one atom verdict per value.

The per-cell ground truth (``cell_satisfies`` once per cell per time)
re-evaluates every atom on every cell, although an atom reads a single
dimension and the cells repeat each dimension value many times.  This
helper walks the predicate tree the way
:func:`repro.spec.predicate.evaluate` does (NOT evaluates its operand
under :func:`~repro.spec.predicate.dual_approach`), but evaluates each
atom with the interpretive ``evaluate`` once per distinct value of the
atom's dimension and broadcasts the verdict over the cells holding that
value.  An atom's verdicts depend on the evaluation time only through
its resolved terms, so they are memoised per
``(atom, resolve_terms(atom, at), approach)``: sampled times whose
windows resolve alike share them.

It deliberately does not use the production query plan
(``CompiledPredicate``): the ground truth must stay independent of the
code it checks.
"""

from __future__ import annotations

import datetime as dt
from typing import Mapping, Sequence

from repro.core.dimension import Dimension
from repro.query.compare import Approach
from repro.spec.action import resolve_terms
from repro.spec.ast import (
    And,
    Atom,
    FalsePredicate,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.spec.predicate import dual_approach, evaluate


class GroundTruth:
    """Exact admission masks (sets of cell indices) over *cells*."""

    def __init__(
        self,
        dimensions: Mapping[str, Dimension],
        cells: Sequence[Mapping[str, str]],
    ) -> None:
        self.dimensions = dimensions
        self.everything = frozenset(range(len(cells)))
        #: Per dimension: distinct value -> indices of the cells holding it.
        self._holders: dict[str, dict[str, list[int]]] = {}
        for index, cell in enumerate(cells):
            for name, value in cell.items():
                self._holders.setdefault(name, {}).setdefault(
                    value, []
                ).append(index)
        self._atoms: dict[tuple, frozenset[int]] = {}

    def mask(
        self,
        predicate: Predicate,
        at: dt.date,
        approach: Approach = Approach.CONSERVATIVE,
    ) -> frozenset[int]:
        """Indices of the cells satisfying *predicate* at *at*."""
        if isinstance(predicate, TruePredicate):
            return self.everything
        if isinstance(predicate, FalsePredicate):
            return frozenset()
        if isinstance(predicate, Atom):
            return self._atom(predicate, at, approach)
        if isinstance(predicate, Not):
            return self.everything - self.mask(
                predicate.operand, at, dual_approach(approach)
            )
        if isinstance(predicate, And):
            result = self.everything
            for operand in predicate.operands:
                result = result & self.mask(operand, at, approach)
            return result
        if isinstance(predicate, Or):
            result = frozenset()
            for operand in predicate.operands:
                result = result | self.mask(operand, at, approach)
            return result
        raise TypeError(f"cannot evaluate {predicate!r}")

    def _atom(
        self, atom: Atom, at: dt.date, approach: Approach
    ) -> frozenset[int]:
        key = (atom, resolve_terms(atom, at), approach)
        mask = self._atoms.get(key)
        if mask is None:
            admitted: list[int] = []
            for value, holders in self._holders[atom.ref.dimension].items():
                if evaluate(
                    atom,
                    lambda _name, value=value: value,
                    self.dimensions,
                    at,
                    approach,
                ):
                    admitted.extend(holders)
            mask = self._atoms[key] = frozenset(admitted)
        return mask
