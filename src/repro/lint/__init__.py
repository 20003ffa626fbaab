"""Static diagnostics over reduction specifications (the lint engine).

A rule-based analyzer that inspects specification source text and
reports findings with stable ``SDR`` codes, severities, fix-it hints,
and 1-based line/column source regions.  :func:`lint_sources` parses,
binds and lints once and returns the bound :class:`LintContext`, whose
:meth:`~LintContext.analysis` is the semantic analysis report.
Reporters render the findings as human text, machine JSON, or SARIF
2.1.0; ``repro check`` is the command-line front end.

The paper's two soundness conditions (NonCrossing, Section 5.2; Growing,
Section 5.3) are exposed as lint rules ``SDR102``/``SDR103`` and are
computed by the same checker functions that gate specification inserts,
so the two paths cannot disagree.
"""

from .diagnostics import Diagnostic, LintResult, Region, Severity
from .engine import LintContext, SpecEntry, lint_sources
from .reporters import (
    FORMATS,
    json_report,
    render,
    render_json,
    render_sarif,
    render_text,
    sarif_log,
)
from .rules import CHECKERS, RULES, Rule, lint_document_measures

__all__ = [
    "CHECKERS",
    "Diagnostic",
    "FORMATS",
    "LintContext",
    "LintResult",
    "Region",
    "Rule",
    "RULES",
    "Severity",
    "SpecEntry",
    "json_report",
    "lint_document_measures",
    "lint_sources",
    "render",
    "render_json",
    "render_sarif",
    "render_text",
    "sarif_log",
]
