"""Inputs of the self-check pass: parsed modules and tree layout.

The pass works on a *tree*, not a single file: several rules (telemetry
drift, failpoint coverage, fork-cache registration) are cross-module
properties, so the engine loads every Python file under the requested
roots up front into :class:`PyModule` values and hands the whole
collection to each check.

Suppressions are inline and must carry a reason::

    time.sleep(0.01)  # devlint: allow[RL001] paced retry, loop is idle

A suppression silences exactly the named code on that physical line.
Reason-less ``allow`` markers are deliberately rejected (they match
nothing), so every accepted finding leaves a written justification in
the tree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

SUPPRESS_RE = re.compile(
    r"#\s*devlint:\s*allow\[(?P<code>RL\d{3})\]\s+(?P<reason>\S.*)$"
)

#: Directories never worth parsing (caches, VCS metadata).
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", ".mypy_cache"}


@dataclass(frozen=True)
class SelfCheckConfig:
    """Where the tree-wide rules look for their ground truth.

    *root* anchors relative paths in diagnostics.  *docs_path* is the
    metric catalog RL005 checks documentation against; *tests_path* is
    the tree RL006 scans for failpoint coverage.  Either may be absent
    (e.g. linting a fixture corpus), in which case the dependent half
    of the rule is skipped.
    """

    root: Path
    docs_path: Path | None = None
    tests_path: Path | None = None

    @classmethod
    def for_repo(cls, root: Path) -> "SelfCheckConfig":
        """The standard layout: ``docs/observability.md`` + ``tests/``."""
        docs = root / "docs" / "observability.md"
        tests = root / "tests"
        return cls(
            root=root,
            docs_path=docs if docs.is_file() else None,
            tests_path=tests if tests.is_dir() else None,
        )


@dataclass
class PyModule:
    """One parsed source file plus its per-line suppressions."""

    path: Path
    rel: str
    source: str
    lines: list[str]
    tree: ast.Module
    #: line number -> set of suppressed RL codes on that line.
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @property
    def basename(self) -> str:
        return self.path.name

    @property
    def segments(self) -> tuple[str, ...]:
        """Path segments of the repo-relative path (for scoping rules)."""
        return tuple(Path(self.rel).parts)

    def suppressed(self, line: int, code: str) -> bool:
        return code in self.suppressions.get(line, set())


def parse_suppressions(lines: Iterable[str]) -> dict[int, set[str]]:
    out: dict[int, set[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = SUPPRESS_RE.search(text)
        if match is not None:
            out.setdefault(number, set()).add(match.group("code"))
    return out


def load_module(path: Path, root: Path) -> "PyModule | SyntaxError":
    """Parse *path*; a :class:`SyntaxError` return becomes an RL000."""
    try:
        rel = str(path.relative_to(root))
    except ValueError:
        rel = str(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return exc
    lines = source.splitlines()
    return PyModule(
        path=path,
        rel=rel,
        source=source,
        lines=lines,
        tree=tree,
        suppressions=parse_suppressions(lines),
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``.py`` file under *paths*, files and directories alike."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_file():
            if path.suffix == ".py" and path not in seen:
                seen.add(path)
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate
