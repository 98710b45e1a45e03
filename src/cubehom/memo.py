"""One registry for the library's memo tables.

Every module-level cache is a plain ``dict`` obtained from ``table(name)``
and bound to a module name, so hot paths keep a bare ``dict.get``.  Keys
are values (cubes, objects, functors, shapes), never object ids, so equal
inputs share entries however they were built.  ``clear()`` empties every
table in place; interned cubes built before it stay valid but are no
longer canonical, so callers should drop them too.
"""

from __future__ import annotations

_TABLES: dict = {}


def table(name: str) -> dict:
    """A new, empty memo table registered under ``name``."""
    if name in _TABLES:
        raise ValueError("memo table %r already exists" % name)
    out = _TABLES[name] = {}
    return out


def clear() -> None:
    for t in _TABLES.values():
        t.clear()


def sizes() -> dict:
    return {name: len(t) for name, t in _TABLES.items()}
