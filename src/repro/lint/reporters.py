"""Diagnostic reporters: human text, machine JSON, and SARIF 2.1.0.

The SARIF rendering follows the 2.1.0 schema: one run, the full rule
catalog under ``tool.driver.rules`` (so viewers can show rule metadata
for every result), and per-result physical locations with 1-based
line/column regions whose ``endColumn`` is exclusive.
"""

from __future__ import annotations

import json

from .diagnostics import Diagnostic, LintResult
from .rules import Rule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

TEXT = "text"
JSON = "json"
SARIF = "sarif"

FORMATS = (TEXT, JSON, SARIF)


def render_text(result: LintResult) -> str:
    """The human-facing report: one finding per line, then a summary."""
    lines = [diagnostic.format() for diagnostic in result]
    lines.append(result.summary())
    return "\n".join(lines)


def json_report(result: LintResult) -> dict:
    """The JSON report document as a plain dict."""
    return {
        "diagnostics": [d.to_dict() for d in result],
        "summary": {
            "errors": len(result.errors),
            "warnings": len(result.warnings),
            "infos": len(result.infos),
        },
    }


def render_json(result: LintResult) -> str:
    """A stable machine-readable report for tooling and tests."""
    return json.dumps(json_report(result), indent=2, sort_keys=True)


def _sarif_result(diagnostic: Diagnostic, rule_index: dict[str, int]) -> dict:
    out: dict = {
        "ruleId": diagnostic.code,
        "level": diagnostic.severity.sarif_level,
        "message": {"text": diagnostic.message},
    }
    if diagnostic.code in rule_index:
        out["ruleIndex"] = rule_index[diagnostic.code]
    if diagnostic.file is not None:
        physical: dict = {
            "artifactLocation": {"uri": diagnostic.file}
        }
        if diagnostic.region is not None:
            physical["region"] = {
                "startLine": diagnostic.region.start_line,
                "startColumn": diagnostic.region.start_column,
                "endLine": diagnostic.region.end_line,
                "endColumn": diagnostic.region.end_column,
            }
        out["locations"] = [{"physicalLocation": physical}]
    if diagnostic.action is not None or diagnostic.hint is not None:
        properties: dict = {}
        if diagnostic.action is not None:
            properties["action"] = diagnostic.action
        if diagnostic.hint is not None:
            properties["hint"] = diagnostic.hint
        out["properties"] = properties
    return out


def _default_catalog() -> "dict[str, Rule]":
    from .rules import RULES

    return RULES


def sarif_log(
    result: LintResult,
    *,
    tool_name: str = "repro-lint",
    catalog: "dict[str, Rule] | None" = None,
    information_uri: str = "https://example.invalid/repro/docs/linting",
) -> dict:
    """The SARIF 2.1.0 log document as a plain dict.

    The defaults render the specification lint catalog; the self-check
    engine (:mod:`repro.devlint`) reuses the exact same rendering with
    its own *tool_name* and ``RL`` rule *catalog*.
    """
    from .. import __version__

    if catalog is None:
        catalog = _default_catalog()
    rules = []
    rule_index: dict[str, int] = {}
    for index, rule in enumerate(catalog.values()):
        rule_index[rule.code] = index
        entry = {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "help": {"text": f"Reference: {rule.paper}"},
            "defaultConfiguration": {
                "level": rule.severity.sarif_level
            },
        }
        rules.append(entry)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "version": __version__,
                        "informationUri": information_uri,
                        "rules": rules,
                    }
                },
                "results": [
                    _sarif_result(d, rule_index) for d in result
                ],
            }
        ],
    }


def render_sarif(result: LintResult, **sarif_options: object) -> str:
    return json.dumps(
        sarif_log(result, **sarif_options),  # type: ignore[arg-type]
        indent=2,
        sort_keys=True,
    )


def render(result: LintResult, format: str, **sarif_options: object) -> str:
    """Dispatch on a ``--format`` value (``text``/``json``/``sarif``).

    ``sarif_options`` (``tool_name``/``catalog``/``information_uri``)
    are forwarded to :func:`sarif_log` and ignored by the other formats.
    """
    if format == TEXT:
        return render_text(result)
    if format == JSON:
        return render_json(result)
    if format == SARIF:
        return render_sarif(result, **sarif_options)
    raise ValueError(f"unknown report format {format!r}")
