"""The fork-safe cache registry.

Forked shard workers inherit every module-level cache their parent
built.  The caches are pure, so inheriting them is never *incorrect* —
but plan caches pin parent-heap objects the child will rebuild anyway,
so workers clear them at fork time (:mod:`repro.parallel.forksafe`).

This module is the declarative half of that contract: any module that
keeps a module-level cache (an ``lru_cache``'d function, a memo dict, a
weak set of instances with per-instance memos) **registers** it here at
import time with a clearer and a size probe.  Registration buys two
things:

* :func:`clear_all` — the single sweep ``forksafe`` runs in every
  forked child (``os.register_at_fork(after_in_child=...)``);
* :func:`cache_sizes` — the probe the ``fork`` runtime sanitizer
  (``REPRO_SANITIZE=fork``) uses to *assert* the sweep actually
  emptied every cache, and that the static ``RL002`` self-check uses
  as its ground truth: a module-level cache that never calls
  :func:`register_cache` is flagged as fork-unsafe.

The module is deliberately dependency-free (imported by leaf modules
like :mod:`repro.spec.parser`), so registering can never create an
import cycle.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

#: name -> (clearer, size probe).  Names are dotted ``module:cache``
#: identifiers; re-registering a name replaces the previous entry (the
#: registering module was re-imported, e.g. under importlib.reload).
_REGISTRY: dict[str, tuple[Callable[[], None], Callable[[], int]]] = {}


def register_cache(
    name: str,
    clearer: Callable[[], None],
    size: Callable[[], int],
) -> None:
    """Declare a module-level cache as fork-safe.

    ``clearer`` empties the cache; ``size`` reports how many entries it
    currently holds (0 right after a successful clear).
    """
    _REGISTRY[name] = (clearer, size)


def clear_all() -> None:
    """Empty every registered cache (the fork-time sweep)."""
    for clearer, _ in _REGISTRY.values():
        clearer()


def cache_sizes() -> Mapping[str, int]:
    """Current entry counts, by cache name (the sanitizer's probe)."""
    return {name: size() for name, (_, size) in _REGISTRY.items()}


def iter_nonempty() -> Iterator[tuple[str, int]]:
    """Yield ``(name, size)`` for every cache that is not empty."""
    for name, (_, size) in _REGISTRY.items():
        count = size()
        if count:
            yield name, count
