"""One registry for the library's memo tables, each with its scope.

Every module-level cache is a plain ``dict`` obtained from this registry
and bound to a module name, so hot paths keep a bare ``dict.get``.  Keys
are values (cubes, objects, functors, shapes), never object ids, so equal
inputs share entries however they were built.  A table has one of two
scopes, fixed by the constructor that made it:

- ``table(name)`` makes a run-scoped table, keyed by data: interned
  cubes, boundaries, alternations, pullback cubes, functor images, and
  the shared identity and zero matrices.  ``end_run()`` empties these,
  and ``suites.Suite.run`` calls it when a suite returns or raises, so a
  long-lived process holds no cube of an earlier run.
- ``shape_table(name)`` makes a shape table, keyed by degree or index
  shape only (vertex indices, arrow keys, axis lines, face and
  permutation tables).  These are bounded by the largest degree met and
  live as long as the process.

``clear()`` empties both kinds.  A cube or matrix kept from before a
table was emptied stays valid and equal to one built afterwards, but it
is no longer the same object: the canonical instance is whichever is
interned first after the reset.
"""

from __future__ import annotations

_TABLES: dict = {}
_RUN_SCOPED: dict = {}


def _register(name: str) -> dict:
    if name in _TABLES:
        raise ValueError("memo table %r already exists" % name)
    out = _TABLES[name] = {}
    return out


def table(name: str) -> dict:
    """A new, empty run-scoped table registered under ``name``."""
    out = _RUN_SCOPED[name] = _register(name)
    return out


def shape_table(name: str) -> dict:
    """A new, empty shape table registered under ``name``; ``end_run``
    leaves it as it is."""
    return _register(name)


def end_run() -> None:
    """Empty every run-scoped table in place."""
    for t in _RUN_SCOPED.values():
        t.clear()


def clear() -> None:
    for t in _TABLES.values():
        t.clear()


def sizes() -> dict:
    return {name: len(t) for name, t in _TABLES.items()}
