"""JSON serialization for MOs and text serialization for specifications.

Lets warehouses, dimensions, and reduction policies round-trip through
files, which the CLI (:mod:`repro.cli`) builds on:

* an MO serializes to one JSON document: dimension types (as chains),
  dimension values (as parent-linked rows), measures (name + aggregate),
  and facts (coordinates + measures + provenance);
* a specification serializes to a text file with one action per line
  (the Table 1 surface syntax round-trips through ``str(action)``).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import Iterator, Mapping, TextIO

from .core.dimension import ALL_VALUE, Dimension
from .core.facts import Provenance
from .core.hierarchy import Hierarchy
from .core.measures import resolve_aggregate
from .core.mo import MultidimensionalObject
from .core.schema import DimensionType, FactSchema, MeasureType
from .errors import ReproError, SpecSyntaxError, StorageError
from .spec.action import Action, is_time_dimension_type
from .spec.specification import ReductionSpecification
from .timedim.builder import time_normalizer, time_sort_key

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Crash-safe file writing
# ----------------------------------------------------------------------

@contextlib.contextmanager
def atomic_write(
    path: str | os.PathLike[str],
    *,
    fsync: bool = True,
    encoding: str = "utf-8",
) -> Iterator[TextIO]:
    """Write a file so that a crash never leaves a partial artifact.

    Yields a text stream backed by a temporary file in the target's
    directory; on clean exit the stream is flushed, optionally fsynced,
    and atomically renamed over *path* (``os.replace``), then the
    directory entry is fsynced so the rename itself is durable.  On any
    exception the temporary file is removed and the destination — if it
    existed — is untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    stream = os.fdopen(fd, "w", encoding=encoding)
    try:
        yield stream
        stream.flush()
        if fsync:
            os.fsync(stream.fileno())
        stream.close()
        os.replace(tmp_path, path)
        if fsync:
            fsync_directory(directory)
    except BaseException:
        if not stream.closed:
            stream.close()
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def fsync_directory(directory: str) -> None:
    """fsync a directory entry (no-op on platforms that disallow it)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(dir_fd)


# ----------------------------------------------------------------------
# MO -> dict -> MO
# ----------------------------------------------------------------------

def canonical_json(value: object) -> str:
    """The one encoding checksums are taken over: sorted keys, compact.

    Re-encoding the parse of a canonical text yields the same text, so
    canonical fragments can be spliced into a larger canonical document
    (the journal line, the durable snapshot body).
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def mo_schema_to_dict(mo: MultidimensionalObject) -> dict:
    """The dimension half of an MO document: everything but the facts."""
    dimensions = {}
    for name, dimension in mo.dimensions.items():
        hierarchy = dimension.dimension_type.hierarchy
        values = []
        for category in hierarchy.user_categories:
            for value in sorted(dimension.values(category)):
                parents = sorted(
                    p for p in dimension.parents(value) if p != ALL_VALUE
                )
                values.append(
                    {"category": category, "value": value, "parents": parents}
                )
        dimensions[name] = {
            "chains": [
                list(path[:-1])  # strip TOP
                for path in hierarchy.paths_to_top(hierarchy.bottom)
            ],
            "time_like": is_time_dimension_type(mo.schema.dimension_type(name)),
            "values": values,
        }
    return {
        "format": FORMAT_VERSION,
        "fact_type": mo.schema.fact_type,
        "dimension_order": list(mo.schema.dimension_names),
        "dimensions": dimensions,
        "measures": [
            {"name": mt.name, "aggregate": mt.aggregate.name}
            for mt in mo.schema.measure_types
        ],
    }


def mo_facts_to_list(mo: MultidimensionalObject) -> list[dict]:
    """The facts half of an MO document, sorted by fact id."""
    return [
        {
            "id": fact_id,
            "coordinates": {
                name: mo.direct_value(fact_id, name)
                for name in mo.schema.dimension_names
            },
            "measures": {
                name: mo.measure_value(fact_id, name)
                for name in mo.schema.measure_names
            },
            "members": sorted(mo.provenance(fact_id).members),
        }
        for fact_id in sorted(mo.facts())
    ]


def mo_to_dict(mo: MultidimensionalObject) -> dict:
    """A JSON-serializable description of the complete MO."""
    return {**mo_schema_to_dict(mo), "facts": mo_facts_to_list(mo)}


def _require(mapping: Mapping, key: str, path: str) -> object:
    """A key lookup that reports the offending document path on failure."""
    if not isinstance(mapping, Mapping):
        raise StorageError(f"{path}: expected an object, got {type(mapping).__name__}")
    try:
        return mapping[key]
    except KeyError:
        raise StorageError(f"{path}: missing required key {key!r}") from None


def mo_from_dict(document: Mapping) -> MultidimensionalObject:
    """Rebuild an MO from :func:`mo_to_dict` output.

    Malformed documents — missing keys, unknown dimension or category
    names, duplicate fact ids — raise :class:`StorageError` naming the
    offending path within the document, never a bare ``KeyError``.
    """
    if document.get("format") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported MO document format {document.get('format')!r}"
        )
    dimension_infos = _require(document, "dimensions", "$")
    dimension_order = _require(document, "dimension_order", "$")
    dimension_types: list[DimensionType] = []
    dimensions: dict[str, Dimension] = {}
    for name in dimension_order:
        info = _require(dimension_infos, name, "$.dimensions")
        path = f"$.dimensions.{name}"
        chains = _require(info, "chains", path)
        if not chains or not chains[0]:
            raise StorageError(f"{path}.chains: must name at least one category")
        edges: dict[str, set[str]] = {}
        for chain in chains:
            for child, parent in zip(chain, chain[1:]):
                edges.setdefault(child, set()).add(parent)
            if chain:
                edges.setdefault(chain[-1], set())
        bottom = chains[0][0]
        dimension_type = DimensionType(name, Hierarchy(edges, bottom))
        dimension_types.append(dimension_type)
        if info.get("time_like"):
            dimension = Dimension(dimension_type, time_sort_key, time_normalizer)
        else:
            dimension = Dimension(dimension_type)
        hierarchy = dimension_type.hierarchy
        order = {c: i for i, c in enumerate(hierarchy)}
        rows = _require(info, "values", path)
        for index, row in enumerate(rows):
            category = _require(row, "category", f"{path}.values[{index}]")
            if category not in order:
                raise StorageError(
                    f"{path}.values[{index}].category: unknown category "
                    f"{category!r} (hierarchy has {sorted(order)!r})"
                )
        for row in sorted(rows, key=lambda r: -order[r["category"]]):
            dimension.add_value(
                row["category"],
                _require(row, "value", f"{path}.values[]"),
                row.get("parents", []),
            )
        dimensions[name] = dimension

    measure_types = []
    for index, m in enumerate(_require(document, "measures", "$")):
        path = f"$.measures[{index}]"
        measure_types.append(
            MeasureType(
                _require(m, "name", path),
                resolve_aggregate(_require(m, "aggregate", path)),
            )
        )
    schema = FactSchema(
        _require(document, "fact_type", "$"), dimension_types, measure_types
    )
    mo = MultidimensionalObject(schema, dimensions)
    seen_ids: set[str] = set()
    for index, fact in enumerate(_require(document, "facts", "$")):
        path = f"$.facts[{index}]"
        fact_id = _require(fact, "id", path)
        if fact_id in seen_ids:
            raise StorageError(f"{path}.id: duplicate fact id {fact_id!r}")
        seen_ids.add(fact_id)
        coordinates = _require(fact, "coordinates", path)
        unknown = set(coordinates) - set(schema.dimension_names)
        if unknown:
            raise StorageError(
                f"{path}.coordinates: unknown dimensions {sorted(unknown)!r}"
            )
        try:
            mo.insert_aggregate_fact(
                fact_id,
                coordinates,
                _require(fact, "measures", path),
                Provenance(frozenset(fact.get("members", [fact_id]))),
            )
        except ReproError as exc:
            raise StorageError(f"{path}: {exc}") from exc
    return mo


def dump_mo(mo: MultidimensionalObject, stream: TextIO) -> None:
    """Write the MO as a JSON document to *stream*."""
    json.dump(mo_to_dict(mo), stream, indent=1, sort_keys=True)


def load_mo(stream: TextIO) -> MultidimensionalObject:
    """Read an MO from a JSON document written by :func:`dump_mo`."""
    return mo_from_dict(json.load(stream))


# ----------------------------------------------------------------------
# Specification <-> text
# ----------------------------------------------------------------------

def dump_specification(
    specification: ReductionSpecification, stream: TextIO
) -> None:
    """One ``name: action`` line per action (comments start with ``#``)."""
    for action in specification:
        stream.write(f"{action}\n")


def load_specification(
    stream: TextIO,
    schema: FactSchema,
    dimensions: Mapping[str, Dimension] | None = None,
    validate: bool = True,
) -> ReductionSpecification:
    """Parse a specification file written by :func:`dump_specification`.

    Each non-comment line is ``[name:] p(a[...] o[...](O))``; names
    default to ``action_N``.

    Parse failures are reported with the 1-based line number, and a
    duplicate explicit action name raises a typed error naming both
    lines rather than silently shadowing the earlier action.
    """
    actions: list[Action] = []
    named_at: dict[str, int] = {}
    for line_number, raw_line in enumerate(stream, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        name = None
        head, sep, tail = line.partition(":")
        if sep and "[" not in head and "(" not in head:
            name = head.strip()
            line = tail.strip()
        if name is not None:
            previous = named_at.get(name)
            if previous is not None:
                raise SpecSyntaxError(
                    f"line {line_number}: duplicate action name {name!r} "
                    f"(first defined on line {previous})"
                )
            named_at[name] = line_number
        try:
            actions.append(Action.parse(schema, line, name))
        except ReproError as exc:
            raise SpecSyntaxError(f"line {line_number}: {exc}") from exc
    return ReductionSpecification(actions, dimensions, validate=validate)
