"""A free character target for the multi-relative complexes.

Chains at every level map to formal symbols ch_n(x) in a free Q-module
bigraded by (level size, n), whose elements are ``exactlin.FormalSum``s of
symbol keys.  The differential on symbols is DEFINED by
the face-and-boundary relation

    d ch_n(x_I) = sum_l (-1)^l ch_n(x_I restricted to the l-th larger
                  level) + (-1)^{r-|I|} ch_{n-1}(d x_I),

and symbols of chains that are isometric to degenerate ones are set to
zero.  Both d^2 = 0 and the assembled chain-map identity

    (-1)^r d ch_n(x) = ch_{n-1}(d x),    ch_n(x) = sum_I (-1)^{e(I)}
                                         ch_{n+|I|}(x_I),
    e(I) = |I| (|I|+1) / 2 + r |I| + sum(I),

are consequences to be verified, not axioms; the verification exercises
the level bookkeeping j_k = l + k - 1 recorded in reindex_check.
"""

from __future__ import annotations

from fractions import Fraction
from .cubes import CubeChain, boundary
from .exactlin import FormalSum, linear_terms
from .multirel import GeomView, LevelChain, op_structure, xi_K
from .signs import subsets


class FormalElement(FormalSum):
    """A Q-combination of symbols (n, level, cube)."""

    __slots__ = ()


class FormalTarget:
    """The free symbol module over a geometry, on the isometry classes of
    nondegenerate cubes, with the defined differential and the vanishing
    rule for iso-degenerate generators.

    Symbols are keyed by isometry class because the character map the
    target models cannot distinguish isometric inputs; that is also what
    makes the defined differential square to zero (pullback words that
    differ only in grouping agree up to square metric rescalings)."""

    def __init__(self, g: GeomView):
        self.g = g
        self.r = len(g.marks)
        self._flag_cache = {}
        self._reps = {}

    def vanishes(self, cube) -> bool:
        hit = self._flag_cache.get(cube)
        if hit is None:
            hit = cube.iso_degenerate_witness() is not None
            self._flag_cache[cube] = hit
        return hit

    def _class_of(self, n: int, level, cube):
        key = (n, level, iso_class_key(cube))
        self._reps.setdefault(key, cube)
        return key

    def ch(self, n: int, level, chain: CubeChain) -> FormalElement:
        """The symbol of a chain at a level, linearly, with the vanishing
        rule applied to every generator."""
        level = frozenset(level)
        terms = []
        for cube, c in chain.terms.items():
            if self.vanishes(cube):
                continue
            terms.append((self._class_of(n, level, cube), c))
        return FormalElement(terms)

    def _raw_d(self, n: int, level, cube):
        """The defined differential of ch_n(cube) at this level before the
        vanishing rule and the isometry classes: its ((n', level', cube'),
        coeff) terms."""
        complement = sorted(k for k in self.g.marks if k not in level)
        for l, mark in enumerate(complement, start=1):
            restricted = xi_K(self.g, (mark,), level, CubeChain.of(cube))
            for c2, co in restricted.terms.items():
                yield (n, level | {mark}, c2), co * (-1) ** l
        sign = (-1) ** ((self.r - len(level)) % 2)
        for c2, co in boundary(CubeChain.of(cube)).terms.items():
            yield (n - 1, level, c2), co * sign

    def d_symbol(self, key) -> FormalElement:
        n, level, _ = key
        return FormalElement(
            (self._class_of(nn, lvl, c2), co)
            for (nn, lvl, c2), co in self._raw_d(n, level, self._reps[key])
            if not self.vanishes(c2))

    def d(self, elt: FormalElement) -> FormalElement:
        return FormalElement(linear_terms(elt.terms.items(), self.d_symbol))


def sign_exponent(I, r: int) -> int:
    m = len(I)
    return (m * (m + 1)) // 2 + r * m + sum(I)


def formal_ch(target: FormalTarget, x: LevelChain, n: int) -> FormalElement:
    """ch_n of a total-degree-n element of the multi-relative complex:
    x carries a chain of cube degree n + |I| at each level I."""
    out = FormalElement()
    for I, chain in x.chains().items():
        if chain.degree != n + len(I):
            raise ValueError("component degree inconsistent with the grading")
        out = out + target.ch(n + len(I), I, chain).scale(
            (-1) ** (sign_exponent(I, target.r) % 2))
    return out


def tot_boundary(g: GeomView, x: LevelChain) -> LevelChain:
    """The total boundary of the multi-relative complex: the sum of the
    structure family, (d x)_J = sum_{m <= |J|} S^{m,|J|}(x)_J."""
    out = LevelChain()
    for m in sorted({len(I) for I, _ in x.terms}):
        xm = LevelChain((key, c) for key, c in x.terms.items()
                        if len(key[0]) == m)
        for n in range(m, len(g.marks) + 1):
            out = out + op_structure(g, m, n, xm)
    return out


def check_ds_squared(target: FormalTarget, level, chain: CubeChain,
                     n: int) -> bool:
    elt = target.ch(n, level, chain)
    return target.d(target.d(elt)).is_zero()


def check_chain_map(target: FormalTarget, x: LevelChain, n: int) -> bool:
    """(-1)^r d ch_n(x) = ch_{n-1}(d x)."""
    lhs = target.d(formal_ch(target, x, n)).scale((-1) ** (target.r % 2))
    dx = tot_boundary(target.g, x)
    rhs = formal_ch(target, dx, n - 1)
    return (lhs - rhs).is_zero()


def _squarefree(x: Fraction) -> int:
    v = abs(x.numerator * x.denominator)
    out = 1
    d = 2
    while d * d <= v:
        cnt = 0
        while v % d == 0:
            v //= d
            cnt += 1
        if cnt % 2:
            out *= d
        d += 1
    return out * v


def iso_class_key(cube):
    """A key constant on the isometry classes the engine produces: vertex
    gram matrices are normalized by their leading entry, whose square-free
    part is retained, so cubes differing by square metric rescalings per
    vertex collapse while genuinely different metrics stay apart."""
    vparts = []
    for a in sorted(cube.vertices):
        o = cube.vertices[a]
        if o.gram is None or o.gram.is_zero():
            vparts.append((a, o.dim, None, None))
            continue
        lead = o.gram[min(o.gram.num)]
        vparts.append((a, o.dim, o.gram.scale(Fraction(1) / lead),
                       _squarefree(lead)))
    aparts = tuple(sorted(cube.arrows.items(), key=lambda kv: kv[0]))
    return (cube.n, tuple(vparts), aparts)


def check_vanishing_consistency(target: FormalTarget, cube) -> bool:
    """For a flagged generator, the raw differential of its symbol is a
    combination the character map cannot see: after dropping the flagged
    images, the rest cancels within isometry classes."""
    if not target.vanishes(cube):
        return True
    return FormalElement([((nn, lvl, iso_class_key(c2)), co)
                          for (nn, lvl, c2), co
                          in target._raw_d(cube.n, frozenset(), cube)
                          if not target.vanishes(c2)]).is_zero()


def reindex_check(r: int) -> dict:
    """The level bookkeeping behind the chain-map identity: for sorted J
    and j_k in J, with I = J - {j_k} and l the position of j_k in the
    complement of I, both j_k = l + k - 1 and sum(I) + l = sum(J) - k + 1."""
    checked = 0
    for J in subsets(range(1, r + 1)):
        for k, jk in enumerate(sorted(J), start=1):
            I = tuple(x for x in J if x != jk)
            complement = sorted(set(range(1, r + 1)) - set(I))
            l = complement.index(jk) + 1
            checked += 1
            if jk != l + k - 1:
                return {"ok": False, "at": {"J": J, "k": k}, "checked": checked}
            if sum(I) + l != sum(J) - k + 1:
                return {"ok": False, "at": {"J": J, "k": k}, "checked": checked}
    return {"ok": True, "checked": checked}
