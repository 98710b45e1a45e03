"""Symbolic logarithmic forms on a product of projective lines.

A form is a Q-combination of monomials log|z_a|^2 . w, where w is a wedge
word in the one-form generators dz_b/z_b and conj(dz_c)/conj(z_c) over
indices distinct from each other and from a.  Forms are
``exactlin.FormalSum``s whose normal form stores each monomial with the
wedge word sorted by index, the reordering parity absorbed into the
coefficient.  The symmetrized forms W_r built here satisfy the
conjugation symmetry conj(W_r) = (-1)^{r-1} W_r exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from .exactlin import FormalSum
from .signs import perm_sign

HOLO = "dz"
ANTI = "dzb"


def _canon_wedge(gens):
    """Sort generators by index; return (canonical tuple, parity sign)."""
    idx = [g[1] for g in gens]
    if len(set(idx)) != len(idx):
        raise ValueError("repeated index in a wedge word")
    return tuple(sorted(gens, key=lambda g: g[1])), perm_sign(idx)


class LogForm(FormalSum):
    """A Q-combination of monomials (log_index or None, wedge word)."""

    __slots__ = ()

    def _normal(self, key, c):
        log_ix, wedge = key
        wedge, sign = _canon_wedge(wedge)
        if log_ix is not None and any(g[1] == log_ix for g in wedge):
            raise ValueError("index repeated between log and wedge")
        return (log_ix, wedge), sign * c

    @staticmethod
    def one() -> "LogForm":
        return LogForm([((None, ()), Fraction(1))])


def build_S(r: int, i: int) -> LogForm:
    """The signed symmetrization with i - 1 holomorphic and r - i
    antiholomorphic logarithmic one-form factors."""
    if not 1 <= i <= r:
        raise ValueError("holomorphic split out of range")
    terms = []
    for sigma in permutations(range(1, r + 1)):
        sgn = perm_sign(sigma)
        log_ix = sigma[0]
        wedge = tuple((HOLO, sigma[a]) for a in range(1, i)) + \
            tuple((ANTI, sigma[a]) for a in range(i, r))
        terms.append(((log_ix, wedge), Fraction(sgn)))
    return LogForm(terms)


def build_W(r: int) -> LogForm:
    """W_r = (1 / 2 r!) sum_i (-1)^i S_r^i, and W_0 = 1."""
    if r == 0:
        return LogForm.one()
    acc = LogForm()
    for i in range(1, r + 1):
        acc = acc + build_S(r, i).scale((-1) ** i)
    return acc.scale(Fraction(1, 2 * factorial(r)))


def conjugate(f: LogForm) -> LogForm:
    """Complex conjugation: fixes log factors, swaps the two generator
    kinds, and renormalizes the wedge order."""
    out = []
    for (log_ix, wedge), c in f.terms.items():
        new_wedge = tuple((ANTI if kind == HOLO else HOLO, ix)
                          for kind, ix in wedge)
        out.append(((log_ix, new_wedge), c))
    return LogForm(out)


def bidegree_split(f: LogForm) -> dict:
    """Split by (holomorphic, antiholomorphic) generator counts."""
    out = {}
    for key, c in f.terms.items():
        _, wedge = key
        p = sum(1 for kind, _ in wedge if kind == HOLO)
        out.setdefault((p, len(wedge) - p), []).append((key, c))
    return {pq: LogForm(terms) for pq, terms in out.items()}


def check_conjugation(r_max: int) -> dict:
    for r in range(0, r_max + 1):
        w = build_W(r)
        sgn = (-1) ** ((r - 1) % 2) if r >= 1 else 1
        if conjugate(w) != w.scale(sgn):
            return {"ok": False, "at": r}
    return {"ok": True, "r_max": r_max}


def check_degrees(r_max: int) -> dict:
    """Every monomial of W_r has one log factor and r - 1 one-forms."""
    for r in range(1, r_max + 1):
        w = build_W(r)
        if not w.terms:
            return {"ok": False, "at": r, "why": "empty"}
        for (log_ix, wedge) in w.terms:
            if log_ix is None or len(wedge) != r - 1:
                return {"ok": False, "at": r, "why": "degree"}
    return {"ok": True, "r_max": r_max}
