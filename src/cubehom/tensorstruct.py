"""The tensor structure on multi-relative complexes: bracket operators.

A slot functor is a formal Q-linear combination of pipelines, each
pipeline a tuple of pullback words applied right to left; a single word
of r morphism classes acts through the composite-pullback cube and raises
degree by r - 1.  Bracket cubes over the isomorphism chain

    F (x) phi_1 ... phi_l (G)  ~  phi_1(F (x) phi_2 ... (G))  ~  ...

assemble slots into the operators of the tensor structure: the map given
by tensoring with a fixed object, the homotopy exchanging it with a
pullback, and the second homotopy produced by a section of a closed
immersion.  All three are one signed sum of bracket terms over ordered
divisions of J - I with 0, 1 or 2 marked slots that may be empty
(``_bracket_sum``); each operator states only its weight, its slots and
the geometry of each station.

The words of every Xi slot come from ``multirel.xi_words``, the one
enumerator of the Xi family, which multirel's Xi operators apply to chains
directly; both take them prepared from ``multirel.prepared_xi_words``, and
a slot's boundary splits and merges prepared words without composing
morphisms again.  The operators here sum over divisions J = K ∐ I through
the same ``multirel.levelwise`` loop as multirel's connecting, pullback
and homotopy operators.

Alternation policy: every operator here is of the form Alt . (plain sum
of pullback words), and alternation absorbs the axis action of words
(Alt Xi Alt = Alt Xi, one of the verified suites).  Identities between
alternated operators are therefore checked by evaluating the plain
operators and alternating the final combination once; the helpers below
produce plain values, and the relation checkers alternate the final
``LevelChain`` once.
"""

from __future__ import annotations

from itertools import combinations

from .cubes import (CubeChain, ExactCube, ExactFunctor, alt, boundary,
                    bracket_cube, composite_pullback)
from .exactlin import MetObj, tensor_obj, times
from . import multirel
from .multirel import GeomView, LevelChain, MorphView, levelwise
from .signs import b_weight, divisions_into, sgn_multidivision


def _pipe(words, cube: ExactCube) -> ExactCube:
    """The pipeline of prepared pullback words (``cubes.PullbackWord``)
    applied to a cube, right to left."""
    for w in reversed(words):
        cube = composite_pullback(w, cube)
    return cube


class SlotSum:
    """A combination of pipelines of a fixed added cube degree: ``terms``
    lists (tuple of words, coefficient) pairs, which never merge."""

    __slots__ = ("terms", "deg")

    def __init__(self, terms, deg: int):
        self.terms = list(terms)
        self.deg = deg

    def compose(self, other: "SlotSum") -> "SlotSum":
        """self after other: pipelines concatenate."""
        return SlotSum(((t + u, a * b) for t, a in self.terms
                        for u, b in other.terms), self.deg + other.deg)

    def apply_chain(self, x: CubeChain) -> CubeChain:
        return CubeChain(x.degree + self.deg,
                         ((_pipe(t, cu), times(c, xc))
                          for t, c in self.terms
                          for cu, xc in x.terms.items()))

    def boundary(self) -> "SlotSum":
        """Face expansion of single-word slots along their own axes:
        splits, merges, and dropped zero faces, with signs (-1)^{i+j}."""
        out = []
        for t, c in self.terms:
            if len(t) != 1:
                raise ValueError("boundary of a composite pipeline")
            (w,) = t
            for j in range(1, len(w)):
                out.append((w.split(j), c * (-1) ** ((j - 1) % 2)))
                out.append(((w.merge(j),), c * (-1) ** (j % 2)))
        return SlotSum(out, self.deg - 1)


def _xi_slot(views, K, I) -> SlotSum:
    """Xi_{K,f_1..f_t} as a slot functor: one single-word pipeline per
    signed word of ``multirel.xi_words``, prepared once per run."""
    words = multirel.prepared_xi_words(views, K, I)
    return SlotSum((((w,), s) for s, w in words),
                   len(K) + len(views) // 2 - 1)


def xi_slot(g: GeomView, K, I) -> SlotSum:
    """Xi_K as a slot functor from level I to level K | I."""
    if not K:
        raise ValueError("Xi slot needs a nonempty removal set")
    return _xi_slot([g], K, I)


def xi_slot_f(f: MorphView, K, I) -> SlotSum:
    """Xi_{K,f} as a slot functor; K may be empty (then it is f^*)."""
    return _xi_slot([f.src, f, f.dst], K, I)


def xi_slot_fg(f: MorphView, g: MorphView, K, I) -> SlotSum:
    """Xi_{K,f,g} as a slot functor; K may be empty."""
    return _xi_slot([f.src, f, f.dst, g, g.dst], K, I)


def bracket_apply(f_obj: MetObj, slots, pis, x: CubeChain) -> CubeChain:
    """The bracket cube of the isomorphism chain, multilinear in the slots,
    applied to a chain.  ``pis[p]`` is the base pullback functor at station
    p (station l innermost, station 0 the output); not alternated."""
    l = len(slots)
    if l == 0:
        tens = ExactFunctor.tensor_by(pis[0].on_obj(f_obj))
        return x.map_cubes(tens.on_cube, x.degree)
    s = sum(sl.deg for sl in slots)
    combos = [((), 1)]
    for sl in slots:
        combos = [(picked + (t,), co * c) for picked, co in combos
                  for t, c in sl.terms]

    def terms():
        for picked, coeff in combos:
            for cube, xc in x.terms.items():
                stages = [cube]
                for p in range(l, 0, -1):
                    stages.append(_pipe(picked[p - 1], stages[-1]))
                # stages[i] = slots_{l-i+1..l} applied to cube, i = 0..l
                items = []
                for p in range(l + 1):
                    cur = ExactFunctor.tensor_by(pis[p].on_obj(f_obj)).on_cube(
                        stages[l - p])
                    for sl_idx in range(p - 1, -1, -1):
                        cur = _pipe(picked[sl_idx], cur)
                    items.append(cur)
                yield bracket_cube(items), times(coeff, xc)

    return CubeChain(x.degree + s + l, terms())


def check_bracket_boundary(f_obj: MetObj, slots, pis, x: CubeChain) -> bool:
    """The boundary formula for alternated bracket operators:

    d <F; phi_1..phi_l>(x) = <F; phi_1..phi_{l-1}>(phi_l(x))
      + sum_j (-1)^j <F; .., phi_{l-j} phi_{l-j+1}, ..>(x)
      + (-1)^{s_1 (l-1) + l} phi_1(<F; phi_2..>(x))
      + (-1)^l sum_j (-1)^{s_1+..+s_{j-1}} <F; .., d phi_j, ..>(x)
      + (-1)^{s+l} <F; phi_1..phi_l>(d x),

    with one alternation outside each side."""
    l = len(slots)
    if l == 0:
        raise ValueError("boundary formula needs at least one slot")
    sdeg = [sl.deg for sl in slots]
    s = sum(sdeg)
    lhs = boundary(bracket_apply(f_obj, slots, pis, x))
    rhs = bracket_apply(f_obj, slots[:-1], pis[:-1], slots[-1].apply_chain(x))
    for j in range(1, l):
        merged = slots[l - j - 1].compose(slots[l - j])
        new_slots = slots[:l - j - 1] + [merged] + slots[l - j + 1:]
        new_pis = pis[:l - j] + pis[l - j + 1:]
        rhs = rhs + bracket_apply(f_obj, new_slots, new_pis, x).scale((-1) ** j)
    inner = bracket_apply(f_obj, slots[1:], pis[1:], x)
    rhs = rhs + slots[0].apply_chain(inner).scale(
        (-1) ** ((sdeg[0] * (l - 1) + l) % 2))
    for j in range(1, l + 1):
        dslot = slots[j - 1].boundary()
        new_slots = slots[:j - 1] + [dslot] + slots[j:]
        sgn = (-1) ** ((l + sum(sdeg[:j - 1])) % 2)
        rhs = rhs + bracket_apply(f_obj, new_slots, pis, x).scale(sgn)
    if x.degree >= 1:
        rhs = rhs + bracket_apply(f_obj, slots, pis, boundary(x)).scale(
            (-1) ** ((s + l) % 2))
    return alt(lhs - rhs).is_zero()


# -- the level operators of the tensor structure ------------------------

def _station_levels(parts, I):
    """Station p carries level I | parts[p] | ... | parts[l-1] (0-based),
    for p = 0..l; station l is I itself."""
    return [frozenset(I).union(*parts[p:]) for p in range(len(parts) + 1)]


def _pi(view: GeomView, lvl) -> ExactFunctor:
    return view.base_cls(lvl).functor()


def _bracket_sum(f_obj: MetObj, chain: CubeChain, Kc, I_src, J, reach: int,
                 marked: int, weight, slot, station) -> CubeChain:
    """The sum, over l, over the increasing 1-based positions P of
    ``marked`` of the l slots, and over the ordered divisions of Kc into l
    parts nonempty outside P, of sgn(nonempty parts, I_src; J)
    (-1)^weight(sizes, P) <F; slots>(chain).  Slot p is slot(P, p, part,
    level) and station p pulls back along the base class of geometry
    station(P, p); ``reach`` fixes the degree of an empty sum."""
    term = CubeChain.zero(chain.degree + len(Kc) + reach)
    for l in range(1, len(Kc) + marked + 1):
        divisions = divisions_into(Kc, l, allow_empty=True)
        for P in combinations(range(1, l + 1), marked):
            for parts in divisions:
                if not all(q or p in P for p, q in enumerate(parts, 1)):
                    continue
                lvls = _station_levels(parts, I_src)
                sgn = sgn_multidivision([q for q in parts if q] + [I_src], J)
                sgn *= (-1) ** (weight([len(q) for q in parts], P) % 2)
                slots = [slot(P, p, parts[p - 1], lvls[p])
                         for p in range(1, l + 1)]
                pis = [_pi(station(P, p), lvls[p]) for p in range(l + 1)]
                term = term + bracket_apply(f_obj, slots, pis,
                                            chain).scale(sgn)
    return term


def op_tensor(f_obj: MetObj, g: GeomView, m: int, n: int,
              x: LevelChain) -> LevelChain:
    """(F (x) )^{m,n}, plain (not alternated): the diagonal is tensoring
    with the pullback of F, the off-diagonal components are signed bracket
    operators over ordered divisions of J - I."""
    def component(Kc, I, I_src, J, _s, chain):
        if not Kc:
            return 1, bracket_apply(f_obj, [], [_pi(g, frozenset(I))], chain)
        return 1, _bracket_sum(
            f_obj, chain, Kc, I_src, J, 0, 0,
            lambda sizes, P: b_weight(sizes),
            lambda P, p, K, lvl: xi_slot(g, K, lvl), lambda P, p: g)
    return levelwise([g], m, n, x, component)


def op_tensor_homotopy(f_obj: MetObj, f: MorphView, m: int, n: int,
                       x: LevelChain) -> LevelChain:
    """Phi_f^{m,n}, plain: the homotopy exchanging (F (x) ) with f^*.
    One marked slot p0 carries Xi_{K_p0, f} and may be empty; the weight
    reads the sizes with part p0 merged into part p0 - 1."""
    def weight(sizes, P):
        lo = max(P[0] - 2, 0)
        merged = sizes[:lo] + [sum(sizes[lo:P[0]])] + sizes[P[0]:]
        return b_weight(merged) + n + P[0] + len(sizes) + 1

    def station(P, p):
        return f.src if p < P[0] else f.dst

    def slot(P, p, K, lvl):
        if p in P:
            return xi_slot_f(f, K, lvl)
        return xi_slot(station(P, p), K, lvl)

    def component(Kc, I, I_src, J, _s, chain):
        return 1, _bracket_sum(f_obj, chain, Kc, I_src, J, 1, 1, weight,
                               slot, station)
    return levelwise([f.src, f, f.dst], m, n, x, component)


def op_tensor_theta(f_obj: MetObj, f: MorphView, g: MorphView, m: int, n: int,
                    x: LevelChain) -> LevelChain:
    """Theta^{m,n} = Theta_1 + Theta_2, plain: the second homotopy of the
    section setup g f = Id.  Theta_1 places Xi_{K_p,f,g} in one marked
    slot; Theta_2 places Xi_{K_p,f} and Xi_{K_q,g} in two marked slots,
    with the stations from p to q - 1 on the geometry of T.  Marked slots
    may be empty."""
    def weight(sizes, P):
        # Theta_1 has p0 = q0: its weight is b(sizes) + 1, its stations on X
        p0, q0 = P[0], P[-1]
        return b_weight(sizes) + sum(sizes[p0 - 1:q0 - 1]) + p0 + q0 + 1

    def station(P, p):
        return g.dst if (p < P[0] or p >= P[-1]) else f.dst

    def slot(P, p, K, lvl):
        if P == (p,):
            return xi_slot_fg(f, g, K, lvl)
        if p in P:
            return xi_slot_f(f if p == P[0] else g, K, lvl)
        return xi_slot(station(P, p), K, lvl)

    def component(Kc, I, I_src, J, _s, chain):
        return 1, (_bracket_sum(f_obj, chain, Kc, I_src, J, 2, 1, weight,
                                slot, station)
                   + _bracket_sum(f_obj, chain, Kc, I_src, J, 2, 2, weight,
                                  slot, station))
    return levelwise([g.dst], m, n, x, component)


def check_phi_s_equals_tensor(f_obj: MetObj, big: GeomView, x: LevelChain,
                              m: int, n_max: int) -> dict:
    """The cone-induced map of the tensor structure agrees with tensoring.

    The multi-relative complex on (X; Y_1..Y_r) is the simple complex of
    the last restriction map (with the sign twist on levels containing r);
    the square of that map with the tensor operators commutes up to the
    exchange homotopy, and the induced cone map phi_s must equal the
    tensor map, after one outer alternation, on every generator."""
    from .multirel import restriction_morphism
    r = max(big.marks)
    iota = restriction_morphism(big, r)
    geom_a, geom_b = iota.dst, iota.src
    # the A half keeps the levels without r; the B half takes the others,
    # r removed and with the cone's sign twist
    a = LevelChain(((J, cube), c) for (J, cube), c in x.terms.items()
                   if r not in J)
    b = LevelChain(((J - {r}, cube), -c) for (J, cube), c in x.terms.items()
                   if r in J)
    for n in range(m, n_max + 1):
        direct = op_tensor(f_obj, big, m, n, x)
        out_a = op_tensor(f_obj, geom_a, m, n, a)
        out_b = (op_tensor(f_obj, geom_b, m - 1, n - 1, b)
                 + op_tensor_homotopy(f_obj, iota, m, n - 1, a))
        cone = out_a + LevelChain(((J | {r}, cube), -c)
                                  for (J, cube), c in out_b.terms.items())
        if not (direct - cone).alt().is_zero():
            return {"ok": False, "at": {"m": m, "n": n}}
    return {"ok": True}


def bracket_pair(f1_obj: MetObj, f2_obj: MetObj, x: CubeChain) -> CubeChain:
    """The bracket of the two-step tensor chain
    F1 (x) (F2 (x) G) ~ (F1 (x) F2) (x) G, as a chain operator."""
    t1 = ExactFunctor.tensor_by(f1_obj)
    t2 = ExactFunctor.tensor_by(f2_obj)
    t12 = ExactFunctor.tensor_by(tensor_obj(f1_obj, f2_obj))
    return CubeChain(x.degree + 1,
                     ((bracket_cube([t1.on_cube(t2.on_cube(cube)),
                                     t12.on_cube(cube)]), c)
                      for cube, c in x.terms.items()))
