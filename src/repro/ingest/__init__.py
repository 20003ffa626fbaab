"""Streaming bulk ingest: batched append and group commit.

The producer side of the serving stack — the fast path for getting
facts *into* the warehouse the paper's reduction machinery assumes they
are already in:

* :mod:`repro.ingest.sources` — CSV/JSONL row adapters with typed
  validation and a per-row error policy (reject / skip / dead-letter);
* :mod:`repro.ingest.batch` — :class:`FactBatchBuffer`, column-oriented
  accumulation straight into the interned columnar layout (no per-fact
  Python objects on the hot path), validated by the same
  :class:`~repro.core.rowcheck.RowValidator` single-fact insert uses;
* :mod:`repro.ingest.commit` — :class:`StreamingLoader`, group commit:
  one fsync'd journal record per batch instead of per fact.

See ``docs/ingest.md`` for formats, semantics, and knobs.
"""

from .batch import FactBatchBuffer
from .commit import StreamingLoader
from .sources import (
    BadRow,
    DeadLetterFile,
    ErrorPolicy,
    SourceRow,
    open_source,
    parse_csv,
    parse_jsonl,
)

__all__ = [
    "BadRow",
    "DeadLetterFile",
    "ErrorPolicy",
    "FactBatchBuffer",
    "SourceRow",
    "StreamingLoader",
    "open_source",
    "parse_csv",
    "parse_jsonl",
]
