"""The execution layers import nothing from the static analyzer.

``repro.analysis`` serves ``repro check`` only; the model, the reducers,
the engine, the query algebra, ingest and serving must run without it.
"""

import ast
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
LAYERS = ("engine", "query", "serving", "ingest", "reduction", "core")
FORBIDDEN = "repro.analysis"


def imported_modules(source: str, package: str):
    """Absolute names of the modules *source* imports, relative ones
    resolved against *package* (the dotted package the module sits in)."""
    parts = package.split(".")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = parts[: len(parts) - node.level + 1]
                module = ".".join([*base, *filter(None, [node.module])])
            else:
                module = node.module or ""
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def is_analyzer(module: str) -> bool:
    return module == FORBIDDEN or module.startswith(FORBIDDEN + ".")


def package_of(path: Path) -> str:
    return ".".join(["repro", *path.relative_to(ROOT).parent.parts])


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_does_not_import_the_analyzer(layer):
    offenders = [
        f"{path.relative_to(ROOT)}: {module}"
        for path in sorted((ROOT / layer).rglob("*.py"))
        for module in imported_modules(path.read_text(), package_of(path))
        if is_analyzer(module)
    ]
    assert not offenders, offenders


@pytest.mark.parametrize(
    "source",
    [
        "from ..analysis.matrix import relationship_matrix",
        "from .. import analysis",
        "import repro.analysis.cost",
    ],
)
def test_every_import_form_resolves_to_the_analyzer(source):
    assert any(map(is_analyzer, imported_modules(source, "repro.engine")))
