"""The bundled analysis report rendered by ``repro check``.

:class:`SpecAnalysis` bundles the relationship matrix, the reachability
pass and the cost estimates with stable ``to_dict`` / ``render_text``
shapes.  :meth:`repro.lint.engine.LintContext.analysis` builds it from
the same memoised matrix and reachability the lint rules read.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

from .cost import ActionCost
from .matrix import RelationshipMatrix
from .reach import ReachabilityResult

#: Stable schema tag of the JSON rendering.
ANALYSIS_SCHEMA = "repro-analysis/2"


@dataclass
class SpecAnalysis:
    """Everything the semantic analyzer proved about a specification."""

    actions: tuple[str, ...]
    matrix: RelationshipMatrix
    reach: ReachabilityResult
    costs: tuple[ActionCost, ...]
    reference: _dt.date
    horizon_years: int

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": ANALYSIS_SCHEMA,
            "reference": self.reference.isoformat(),
            "horizon_years": self.horizon_years,
            "actions": list(self.actions),
            "matrix": self.matrix.to_dict(),
            "reachability": self.reach.to_dict(),
            "costs": [cost.to_dict() for cost in self.costs],
        }

    def render_text(self) -> str:
        lines = [
            "Semantic analysis "
            f"(reference {self.reference.isoformat()}, "
            f"horizon {self.horizon_years}y)",
            "",
            "Action-relationship matrix:",
        ]
        for relation in self.matrix.pairs():
            line = (
                f"  {relation.first} vs {relation.second}: "
                f"{relation.verdict.value.upper()} - {relation.reason}"
            )
            if relation.witness is not None:
                witness = relation.witness
                cell = ", ".join(
                    f"{k}={v}" for k, v in witness.cell
                )
                day = witness.day.isoformat() if witness.day else "-"
                line += (
                    f" [witness at={witness.at.isoformat()} day={day}"
                    + (f" cell=({cell})" if cell else "")
                    + "]"
                )
            lines.append(line)
        if not self.matrix.pairs():
            lines.append("  (fewer than two actions)")
        lines.append("")
        lines.append("Reachability:")
        lines.append(
            "  live: " + (", ".join(self.reach.live) or "(none)")
        )
        if self.reach.unsatisfiable:
            lines.append(
                "  unsatisfiable: " + ", ".join(self.reach.unsatisfiable)
            )
        for name, catchers in self.reach.dead.items():
            lines.append(
                f"  dead: {name} (union-covered by {', '.join(catchers)})"
            )
        lines.append("")
        lines.append("Cost estimates (upper bounds at the reference time):")
        for cost in self.costs:
            granularity = ", ".join(cost.granularity)
            if cost.admitted_cells is None:
                lines.append(
                    f"  {cost.action} -> [{granularity}]: not groundable"
                )
                continue
            selectivity = (
                f"{100.0 * cost.selectivity:.1f}%"
                if cost.selectivity is not None
                else "?"
            )
            output = (
                str(cost.output_cells)
                if cost.output_cells is not None
                else "?"
            )
            lines.append(
                f"  {cost.action} -> [{granularity}]: "
                f"<= {cost.admitted_cells} of {cost.total_cells} bottom "
                f"cells ({selectivity}), <= {output} after rollup"
            )
        return "\n".join(lines) + "\n"

