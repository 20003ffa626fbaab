"""Property: lint error findings are a superset of insert-time rejections.

``ReductionSpecification`` rejects an action set when ``check_noncrossing``
or ``check_growing`` report violations.  The lint engine re-expresses both
conditions as rules SDR102/SDR103, so for ANY action subset every
insert-time violation must surface as an error-level lint diagnostic (the
lint may know more — other rules — but never less).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks.growing import GrowingCheckViolation
from repro.checks.noncrossing import CrossingViolation
from repro.experiments.paper_example import (
    action_a1,
    action_a2,
    action_a4,
    action_a7,
    action_a8,
    build_paper_mo,
    growing_example_actions,
)
from repro.checks.prover import Prover
from repro.lint import Severity, lint_sources
from repro.spec.specification import ReductionSpecification

SETTINGS = settings(max_examples=12, deadline=None)

_MO = build_paper_mo()
_POOL = (
    action_a1(_MO),
    action_a2(_MO),
    action_a4(_MO),
    action_a7(_MO),
    action_a8(_MO),
    *growing_example_actions(_MO),
)


def lint_through_source(spec):
    """Lint a bound specification through its source text."""
    text = "".join(f"{a.name}: {a.source}\n" for a in spec)
    result, _ = lint_sources(
        [(None, text)], _MO.schema, Prover(_MO.dimensions)
    )
    return result


@st.composite
def action_subsets(draw):
    indices = draw(
        st.lists(
            st.integers(0, len(_POOL) - 1),
            unique=True,
            min_size=1,
            max_size=4,
        )
    )
    return [_POOL[i] for i in sorted(indices)]


@SETTINGS
@given(action_subsets())
def test_lint_errors_superset_of_rejections(actions):
    spec = ReductionSpecification(actions, _MO.dimensions, validate=False)
    violations = spec.violations()
    result = lint_through_source(spec)
    errors = result.errors
    for violation in violations:
        if isinstance(violation, CrossingViolation):
            assert any(
                d.code == "SDR102"
                and repr(violation.first) in d.message
                and repr(violation.second) in d.message
                for d in errors
            ), f"unreported crossing: {violation}"
        elif isinstance(violation, GrowingCheckViolation):
            assert any(
                d.code == "SDR103"
                and repr(violation.action) in d.message
                for d in errors
            ), f"unreported growing violation: {violation}"
        else:  # pragma: no cover - no other violation kinds exist
            raise AssertionError(f"unknown violation type: {violation!r}")


@SETTINGS
@given(action_subsets())
def test_gate_codes_only_when_rejected(actions):
    # The converse on the gate rules: a subset the specification would
    # accept must produce no SDR102/SDR103 diagnostics at all.
    spec = ReductionSpecification(actions, _MO.dimensions, validate=False)
    result = lint_through_source(spec)
    gate = [d for d in result if d.code in ("SDR102", "SDR103")]
    if not spec.violations():
        assert gate == []
    else:
        assert gate
        assert all(d.severity is Severity.ERROR for d in gate)
