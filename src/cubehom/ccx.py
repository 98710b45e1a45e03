"""C-complexes: families of chain complexes with higher connecting maps.

A C-complex is a finite family of chain complexes A^m together with maps
F^{m,n}: A^m_* -> A^n_{*+n-m-1} for m < n satisfying

    (-1)^m F^{m,n} d + (-1)^n d F^{m,n} + sum_{m<l<n} F^{l,n} F^{m,l} = 0.

Everything here is matrix-level over Q: validation, total complexes,
maps, homotopies and second homotopies, simple complexes (mapping cones),
the section construction, and the simple complex of a four-complex
diagram with its long-exact-sequence check.

Degree bookkeeping: a component ``comp[(m, n)][k]`` is a matrix from
A^m_k into B^n_{k + n - m + off}:

    shape               off   components
    structure S          -1   m <= n
    map                   0   m <= n
    homotopy             +1   m <= n + 1
    second homotopy      +2   m <= n + 2

All four are one component-family class, ``CFamily``, told apart only by
their reach (= off).  The structure family of a C-complex,
``CComplex.structure()``, has S^{m,m} = (-1)^m d and S^{m,n} = F^{m,n},
and every relation is a composite through ``compose_terms``: the relation
above is (S S)^{m,n} = 0 for m < n, the boundary of the total complex is
S, and a family h has the one defect

    D(h) = S_B h + (-1)^(reach+1) h S_A,

which vanishes on a map, is to - frm on a homotopy and
Psi' phi_B - Phi_f g - f' Phi_g - phi_B Psi on a second homotopy.
``multirel.check_relation`` states the same relation on generators.

Absent is zero: families and chain complexes store only nonzero
matrices, read with ``get`` (None where absent), and every sum of
blocks is one ``_gather``, which skips an absent block.  The cone
constructions are block families (``_blocks``): source and target are
lists of slots (C, s) holding C^{m-s}_k at index m and degree k, and
each block (i, j, fam, sign) adds sign * fam^{m-s_j, n-s_i}_k from source
slot j to target slot i.  A cone s(f) has the slots (A, 0), (B, 1); its
connecting maps, projection, inclusion, phi_s, the section t with its
homotopies and Pi are block families, and so is the sum of two families
(two blocks on one slot).
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property
from itertools import accumulate

from .exactlin import RatMatrix, induced_homology_rank, rank


class ChainComplex:
    """A finite chain complex: dims per degree and boundaries d_n: C_n -> C_{n-1}."""

    def __init__(self, dims: dict, boundary: dict):
        self.dims = {n: d for n, d in dims.items() if d}
        self.boundary = {}
        for n, m in boundary.items():
            if m.rows != self.dim(n - 1) or m.cols != self.dim(n):
                raise ValueError("boundary shape mismatch at degree %d" % n)
            if not m.is_zero():
                self.boundary[n] = m

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def degrees(self):
        return sorted(self.dims)

    def d(self, n: int) -> RatMatrix:
        """d_n, the zero matrix where the boundary is absent."""
        m = self.boundary.get(n)
        if m is None:
            return RatMatrix.zero(self.dim(n - 1), self.dim(n))
        return m

    def validate(self):
        """Structured report: the first nonzero entry of d d, named by its
        source degree at index (0, 0), or ok.  A degree with an absent
        boundary on either side is counted and skipped."""
        for checked, n in enumerate(self.dims, 1):
            dd = _product(self.boundary.get(n), self.boundary.get(n + 1))
            if dd is not None and not dd.is_zero():
                return _witness(checked, 0, 0, n + 1, dd)
        return {"ok": True, "checked": len(self.dims)}

    def homology(self) -> dict:
        degs = self.degrees()
        if not degs:
            return {}
        out = {}
        for n in range(min(degs), max(degs) + 1):
            if not self.dim(n):
                out[n] = 0
                continue
            out[n] = self.dim(n) - rank(self.d(n)) - rank(self.d(n + 1))
        return out

    def shift(self, r: int) -> "ChainComplex":
        """A[r]_n = A_{n-r} with boundary (-1)^r d."""
        sgn = -1 if r % 2 else 1
        return ChainComplex({n + r: d for n, d in self.dims.items()},
                            {n + r: m.scale(sgn) for n, m in self.boundary.items()})


_NONE = {}
_EMPTY = ChainComplex({}, {})


def _witness(checked: int, m: int, n: int, k: int, diff: RatMatrix) -> dict:
    """The failure report of a relation: its first nonzero entry."""
    entry = min(diff.num)
    return {"ok": False, "checked": checked,
            "at": {"m": m, "n": n, "degree": k,
                   "entry": [entry[0], entry[1]],
                   "value": str(diff[entry])}}


def _product(a, b):
    """a b, None when either is absent."""
    return None if a is None or b is None else a.mul(b)


def _assemble(rows: int, cols: int, blocks) -> RatMatrix:
    """The rows x cols matrix that is the sum of the blocks, a list of
    (row offset, column offset, matrix, int sign), summed on numerators
    over the lcm of the blocks' denominators."""
    den = math.lcm(*(mat.den for _, _, mat, _ in blocks))
    ent = {}
    get = ent.get
    for r0, c0, mat, sign in blocks:
        f = sign * (den // mat.den)
        for (r, c), v in mat.num.items():
            key = (r0 + r, c0 + c)
            ent[key] = get(key, 0) + f * v
    return RatMatrix.from_num(rows, cols, ent, den)


def _gather(rows, cols, blocks):
    """The block matrix whose row slots have the dimensions ``rows`` and
    whose column slots have the dimensions ``cols`` (iterables, read only
    when a block is present): block (i, j) is the sum of sign * mat over
    the (i, j, mat, sign) in ``blocks``, a None mat being absent.  None
    when every block is absent."""
    present = [blk for blk in blocks if blk[2] is not None]
    if not present:
        return None
    row_offs = list(accumulate(rows, initial=0))
    col_offs = list(accumulate(cols, initial=0))
    return _assemble(row_offs[-1], col_offs[-1],
                     [(row_offs[i], col_offs[j], mat, sign)
                      for i, j, mat, sign in present])


class CComplex:
    """complexes: dict m -> ChainComplex; fmaps: dict (m, n) -> dict k -> matrix,
    the component F^{m,n}: A^m_k -> A^n_{k+n-m-1}."""

    def __init__(self, complexes: dict, fmaps: dict):
        self.complexes = {m: c for m, c in complexes.items() if c.dims}
        self._indices = tuple(sorted(self.complexes))
        self.fmaps = {}
        for (m, n), per_deg in fmaps.items():
            if m >= n:
                raise ValueError("connecting map needs m < n")
            kept = {k: mat for k, mat in per_deg.items() if not mat.is_zero()}
            if kept:
                self.fmaps[(m, n)] = kept
        self._structure = None

    def indices(self) -> tuple:
        """The indices m of the nonzero complexes A^m, in increasing order."""
        return self._indices

    def cx(self, m: int) -> ChainComplex:
        return self.complexes.get(m, _EMPTY)

    def structure(self) -> "CFamily":
        """The structure family S of reach -1: S^{m,m}_k = (-1)^m d_k and
        S^{m,n} = F^{m,n} for m < n."""
        if self._structure is None:
            comps = dict(self.fmaps)
            for m, c in self.complexes.items():
                sign = -1 if m % 2 else 1
                comps[(m, m)] = {k: d.scale(sign) for k, d in c.boundary.items()}
            # through a proxy, so the complex and its S form no cycle that
            # only the garbage collector could free
            me = weakref.proxy(self)
            self._structure = CFamily(me, me, comps, -1)
        return self._structure

    def validate(self):
        """Structured report: first failing (m, n, degree, entry) or ok."""
        idxs = self.indices()
        if not idxs:
            return {"ok": True, "checked": 0}
        for m in idxs:
            rep = self.cx(m).validate()
            if not rep["ok"]:
                rep["at"].update(m=m, n=m)
                return rep
        s = self.structure()
        checked = 0
        lo, hi = min(idxs), max(idxs)
        for m in range(lo, hi + 1):
            for n in range(m + 1, hi + 1):
                for k in self.cx(m).degrees():
                    # (S S)^{m,n}_k: A^m_k -> A^n_{k+n-m-2}
                    acc = _composite(s, s, m, n, k)
                    checked += 1
                    if acc is not None and not acc.is_zero():
                        return _witness(checked, m, n, k, acc)
        return {"ok": True, "checked": checked}

    def shift(self, r: int) -> "CComplex":
        """A[r]^m = A^{m+r} with F_{A[r]}^{m,n} = (-1)^r F_A^{m+r,n+r}."""
        sgn = -1 if r % 2 else 1
        return CComplex({m - r: c for m, c in self.complexes.items()},
                        {(m - r, n - r): {k: mat.scale(sgn) for k, mat in per.items()}
                         for (m, n), per in self.fmaps.items()})

    # -- total complex -------------------------------------------------

    def tot(self) -> ChainComplex:
        """Tot_p = (+)_m A^m_{m+p}, the summands in index order, with the
        block S^{m,n} from A^m to A^n."""
        idxs = self.indices()
        pos = {m: i for i, m in enumerate(idxs)}
        s = self.structure()
        return _slot_complex([(self.cx(m), m) for m in idxs],
                             [(pos[n], pos[m],
                               lambda p, m=m, n=n: s.get(m, n, m + p), 1)
                              for m, n in s.comps])


def single_complex(c: ChainComplex) -> CComplex:
    """``c`` as a C-complex concentrated in index 0."""
    return CComplex({0: c}, {})


def _keys(src: CComplex, dst: CComplex, reach: int):
    """(m, n, k) of every component of a family of this reach, in the
    order validation visits them."""
    for m in src.indices():
        for n in dst.indices():
            if m <= n + max(reach, 0):
                for k in src.cx(m).degrees():
                    yield m, n, k


class CFamily:
    """comps[(m, n)][k]: A^m_k -> B^n_{k+n-m+reach} for m <= n + max(reach,
    0); only the nonzero components are stored, and ``get`` reads an
    absent one as None, which stands for zero.  Reach -1 is a structure
    family, 0 a map of C-complexes, 1 a homotopy and 2 a second homotopy;
    composing two families adds their reaches."""

    def __init__(self, src: CComplex, dst: CComplex, comps: dict, reach: int):
        self.src = src
        self.dst = dst
        self.reach = reach
        self.comps = {}
        for (m, n), per in comps.items():
            if m > n + max(reach, 0):
                raise ValueError("component (%d, %d) beyond reach %d"
                                 % (m, n, reach))
            kept = {k: mat for k, mat in per.items() if not mat.is_zero()}
            if kept:
                self.comps[(m, n)] = kept

    def get(self, m: int, n: int, k: int):
        """The component in degree k, or None where it is zero."""
        return self.comps.get((m, n), _NONE).get(k)

    def defect_terms(self, m: int, n: int, k: int):
        """The terms of D(h)^{m,n}_k = S_B h + (-1)^(reach+1) h S_A, each a
        (sign, left, key, right) standing for sign * left h_key right:
        key is the (m', n', k') of a component of h, and left or right is
        a present component of S, the other None for an identity."""
        sb, sa = self.dst.structure(), self.src.structure()
        for skey, key in compose_terms(sb, self, m, n, k):
            left = sb.get(*skey)
            if left is not None:
                yield 1, left, key, None
        sign = (-1) ** ((self.reach + 1) % 2)
        for key, skey in compose_terms(self, sa, m, n, k):
            right = sa.get(*skey)
            if right is not None:
                yield sign, None, key, right

    def defect(self, m: int, n: int, k: int):
        """D(h)^{m,n}_k: A^m_k -> B^n_{k+n-m+reach-1}, the sum of the
        present terms of ``defect_terms``, None when none is present."""
        return _gather(
            [self.dst.cx(n).dim(k + n - m + self.reach - 1)],
            [self.src.cx(m).dim(k)],
            [(0, 0, left.mul(h) if right is None else h.mul(right), sign)
             for sign, left, key, right in self.defect_terms(m, n, k)
             if (h := self.get(*key)) is not None])

    def compare_defect(self, target=None) -> dict:
        """Compare the defect with the family ``target`` of reach one
        less, zero when None, at every component; report the first
        differing entry."""
        checked = 0
        for m, n, k in _keys(self.src, self.dst, self.reach):
            diff = self.defect(m, n, k)
            want = None if target is None else target.get(m, n, k)
            if want is not None:
                diff = -want if diff is None else diff - want
            checked += 1
            if diff is not None and not diff.is_zero():
                return _witness(checked, m, n, k, diff)
        return {"ok": True, "checked": checked}


def compose_terms(g: CFamily, f: CFamily, m: int, n: int, k: int):
    """The terms of (g f)^{m,n}_k as component keys: one pair ((l, n, k'),
    (m, l, k)) of g^{l,n}_{k'} f^{m,l}_k for each index l of f's target
    within both supports, with k' = k + l - m + (reach of f)."""
    lo, hi = m - max(f.reach, 0), n + max(g.reach, 0)
    shift = k - m + f.reach
    for l in f.dst.indices():
        if lo <= l <= hi:
            yield (l, n, shift + l), (m, l, k)


def _composite(g: CFamily, f: CFamily, m: int, n: int, k: int):
    """(g f)^{m,n}_k summed over its present terms, None when none is."""
    return _gather([g.dst.cx(n).dim(k + n - m + f.reach + g.reach)],
                   [f.src.cx(m).dim(k)],
                   [(0, 0, _product(g.get(*gkey), f.get(*fkey)), 1)
                    for gkey, fkey in compose_terms(g, f, m, n, k)])


def family(src: CComplex, dst: CComplex, reach: int, comp) -> CFamily:
    """The family of this reach whose (m, n, k) component is comp(m, n, k),
    None for zero: a CMap for reach 0, a CHomotopy for reach 1."""
    comps = {}
    for m, n, k in _keys(src, dst, reach):
        mat = comp(m, n, k)
        if mat is not None:
            comps.setdefault((m, n), {})[k] = mat
    if reach == 0:
        return CMap(src, dst, comps)
    if reach == 1:
        return CHomotopy(src, dst, comps)
    return CFamily(src, dst, comps, reach)


def _blocks(src_slots, dst_slots, reach: int, blocks):
    """comp(m, n, k) for ``family`` of the block family of this reach from
    the slots ``src_slots`` to ``dst_slots``: the block from source slot j
    (shift s_j) to target slot i (shift s_i) is the sum of sign *
    fam^{m-s_j, n-s_i}_k over the (i, j, fam, sign) in ``blocks``, and the
    component is None where every block is absent."""
    def comp(m, n, k):
        kk = k + n - m + reach
        return _gather((c.cx(n - s).dim(kk) for c, s in dst_slots),
                       (c.cx(m - s).dim(k) for c, s in src_slots),
                       [(i, j, fam.get(m - src_slots[j][1],
                                       n - dst_slots[i][1], k), sign)
                        for i, j, fam, sign in blocks])
    return comp


class CMap(CFamily):
    """A map of C-complexes: comps[(m, n)][k]: A^m_k -> B^n_{k+n-m}, m <= n."""

    def __init__(self, src: CComplex, dst: CComplex, comps: dict):
        super().__init__(src, dst, comps, 0)

    def validate(self):
        return self.compare_defect()

    def tot(self) -> dict:
        """Tot(f) as matrices per total degree, the summands of Tot_p =
        (+)_m A^m_{m+p} in index order; zero in a degree with no block."""
        src, dst = self.src.indices(), self.dst.indices()
        degs = {k - m for side in (self.src, self.dst)
                for m in side.indices() for k in side.cx(m).degrees()}
        out = {}
        for p in degs:
            rows = [self.dst.cx(n).dim(n + p) for n in dst]
            cols = [self.src.cx(m).dim(m + p) for m in src]
            mat = _gather(rows, cols, [(dst.index(n), src.index(m),
                                        self.get(m, n, m + p), 1)
                                       for m, n in self.comps])
            out[p] = mat if mat is not None else RatMatrix.zero(sum(rows),
                                                                sum(cols))
        return out


def identity_cmap(a: CComplex) -> CMap:
    return family(a, a, 0, lambda m, n, k: RatMatrix.identity(a.cx(m).dim(k))
                  if m == n else None)


def zero_cmap(a: CComplex, b: CComplex) -> CMap:
    return CMap(a, b, {})


def compose(g: CFamily, f: CFamily) -> CFamily:
    """g f, whose reach is the sum of the two, summed over
    ``compose_terms``."""
    return family(f.src, g.dst, f.reach + g.reach,
                  lambda m, n, k: _composite(g, f, m, n, k))


def cmap_shift(f: CMap, r: int) -> CMap:
    """f[r]: A[r] -> B[r], components reindexed without signs."""
    return CMap(f.src.shift(r), f.dst.shift(r),
                {(m - r, n - r): dict(per) for (m, n), per in f.comps.items()})


def cmap_add(f: CFamily, g: CFamily, scale_g=1) -> CFamily:
    """f + scale_g g, for two families of one reach between one pair of
    C-complexes and an int scale_g."""
    return family(f.src, f.dst, f.reach,
                  _blocks([(f.src, 0)], [(f.dst, 0)], f.reach,
                          [(0, 0, f, 1), (0, 0, g, scale_g)]))


class CHomotopy(CFamily):
    """A homotopy: comps[(m, n)][k]: A^m_k -> B^n_{k+n-m+1}, m <= n+1."""

    def __init__(self, src: CComplex, dst: CComplex, comps: dict):
        super().__init__(src, dst, comps, 1)

    def validate(self, frm: CMap, to: CMap):
        """D(h) = to - frm, degreewise: h is a homotopy from frm to to."""
        return self.compare_defect(cmap_add(to, frm, -1))


def homotopy_defect(src: CComplex, dst: CComplex, comps: dict) -> CMap:
    """The defect of a homotopy-shaped family supported on m <= n: a CMap
    homotopic to zero.

    Families with (n+1, n) components are rejected; their relation value
    would overflow the shape of a map of C-complexes."""
    for (m, n) in comps:
        if m > n:
            raise ValueError("defect of a family with m > n components")
    return family(src, dst, 0, CHomotopy(src, dst, comps).defect)


def second_homotopy_target(g: CMap, fp: CMap, phi_b: CMap, h_f: CHomotopy,
                           h_g: CHomotopy, psi: CHomotopy,
                           psi_p: CHomotopy) -> CHomotopy:
    """Psi' phi_B - Phi_f g - f' Phi_g - phi_B Psi: the defect D(Theta) a
    second homotopy Theta: B -> B' of reach 2 must have, mediating the two
    homotopies  Phi_f g + f' Phi_g + phi_B Psi  and  Psi' phi_B.  Check one
    with ``theta.compare_defect(target)``."""
    return cmap_add(cmap_add(compose(psi_p, phi_b), compose(h_f, g), -1),
                    cmap_add(compose(fp, h_g), compose(phi_b, psi)), -1)


# -- simple complex (mapping cone) ------------------------------------

class SimpleParts:
    """The simple complex ccx of a C-map f: A -> B with its projection to A
    and its inclusion of B[-1]; C^m_k is A^m_k (+) B^{m-1}_k, in that
    order: the slots ``sides`` = [(A, 0), (B, 1)]."""

    def __init__(self, a: CComplex, b: CComplex, ccx: CComplex):
        self.a, self.b, self.ccx = a, b, ccx
        self.sides = [(a, 0), (b, 1)]

    @cached_property
    def proj(self) -> CMap:
        """p: s(f) -> A, the diagonal projection onto the A slot."""
        return family(self.ccx, self.a, 0, _blocks(
            self.sides, [(self.a, 0)], 0,
            [(0, 0, identity_cmap(self.a), 1)]))

    @cached_property
    def incl(self) -> CMap:
        """i: B[-1] -> s(f), the diagonal inclusion of the B slot."""
        return family(self.b.shift(-1), self.ccx, 0, _blocks(
            [(self.b, 1)], self.sides, 0,
            [(1, 0, identity_cmap(self.b), 1)]))


def simple(f: CMap) -> SimpleParts:
    """s(f)^m = A^m (+) B^{m-1}, with
    F_C^{m,n}(a, b) = (F_A(a), f^{m,n-1}(a) - F_B^{m-1,n-1}(b))."""
    a, b = f.src, f.dst
    idxs = sorted(set(a.indices()) | {m + 1 for m in b.indices()})
    complexes = {m: _slot_complex([(a.cx(m), 0), (b.cx(m - 1), 0)],
                                  [(0, 0, a.cx(m).boundary.get, 1),
                                   (1, 1, b.cx(m - 1).boundary.get, 1)])
                 for m in idxs}
    sides = [(a, 0), (b, 1)]
    comp = _blocks(sides, sides, -1, [(0, 0, a.structure(), 1), (1, 0, f, 1),
                                      (1, 1, b.structure(), -1)])
    fmaps = {(m, n): {k: mat for k in complexes[m].degrees()
                      if (mat := comp(m, n, k)) is not None}
             for m in idxs for n in idxs if m < n}
    return SimpleParts(a, b, CComplex(complexes, fmaps))


def phi_s(parts: SimpleParts, parts_p: SimpleParts, phi_a: CMap, phi_b: CMap,
          h_f: CHomotopy) -> CMap:
    """The induced map s(f) -> s(f') of a square commuting up to the
    homotopy h_f from phi_B f to f' phi_A:

        phi_s^{m,n}(a, b) = (phi_A(a), phi_B^{m-1,n-1}(b) + h_f^{m,n-1}(a)).
    """
    return family(parts.ccx, parts_p.ccx, 0, _blocks(
        parts.sides, parts_p.sides, 0,
        [(0, 0, phi_a, 1), (1, 1, phi_b, 1), (1, 0, h_f, 1)]))


def section_t(parts: SimpleParts, f: CMap, g: CMap, psi: CHomotopy):
    """The section construction: given g with a homotopy psi from Id_B to
    f g, the map t: A -> s(f),

       t^{m,n}(a) = (delta^{m,n}(a) - sum_l g^{l,n} f^{m,l}(a),
                     -sum_l psi^{l,n-1} f^{m,l}(a)),

    together with the homotopies psi_1 (from Id_{s(f)} to t p) and psi_2
    (from 0 to t g).  Returns (t, psi_1, psi_2)."""
    a, b = f.src, f.dst
    cone, sides = parts.ccx, parts.sides
    t = family(a, cone, 0, _blocks(
        [(a, 0)], sides, 0,
        [(0, 0, compose(g, f), -1), (1, 0, compose(psi, f), -1),
         (0, 0, identity_cmap(a), 1)]))
    # psi_1^{m,n}(a, b) = (-g^{m-1,n}(b), -psi^{m-1,n-1}(b))
    psi1 = family(cone, cone, 1, _blocks(
        sides, sides, 1, [(0, 1, g, -1), (1, 1, psi, -1)]))
    # psi_2^{m,n}(b) = (-sum_l g^{l,n} psi^{m,l}(b), -sum_l psi^{l,n-1} psi^{m,l}(b))
    psi2 = family(b, cone, 1, _blocks(
        [(b, 0)], sides, 1,
        [(0, 0, compose(g, psi), -1), (1, 0, compose(psi, psi), -1)]))
    return t, psi1, psi2


def pi_homotopy(parts_p: SimpleParts, f: CMap, theta: CFamily,
                h_f: CHomotopy, h_g: CHomotopy, psi_p: CHomotopy,
                gp: CMap) -> CHomotopy:
    """The homotopy from phi_s t to t' phi_A induced by a second homotopy:

    Pi^{m,n}(a) = (-sum Phi_g^{l,n} f^{m,l}(a) - sum g'^{l,n} Phi_f^{m,l}(a),
                   -sum Psi'^{l,n-1} Phi_f^{m,l}(a) + sum Theta^{l,n-1} f^{m,l}(a)).
    """
    return family(f.src, parts_p.ccx, 1, _blocks(
        [(f.src, 0)], parts_p.sides, 1,
        [(0, 0, compose(h_g, f), -1), (0, 0, compose(gp, h_f), -1),
         (1, 0, compose(psi_p, h_f), -1), (1, 0, compose(theta, f), 1)]))


# -- simple complex of a diagram ---------------------------------------

def _slot_complex(slots, blocks) -> ChainComplex:
    """The direct sum of the slots, each a (complex C, shift s) read as
    C_{n+s} in degree n, with the boundary whose block from slot j to slot
    i in degree n is sign * get(n), for each (i, j, get, sign) in blocks;
    get returns None where the block is absent."""
    degs = {k - s for cx, s in slots for k in cx.dims}
    if not degs:
        return ChainComplex({}, {})
    lo, hi = min(degs), max(degs)
    dims = {n: [cx.dim(n + s) for cx, s in slots]
            for n in range(lo - 1, hi + 1)}
    bnd = {}
    for n in range(lo, hi + 1):
        mat = _gather(dims[n - 1], dims[n],
                      [(i, j, get(n), sign) for i, j, get, sign in blocks])
        if mat is not None:
            bnd[n] = mat
    return ChainComplex({n: sum(d) for n, d in dims.items()}, bnd)


def _diagram(a1, b1, a2, b2, f1, g1, f2):
    """The slots A1, A2, B1[-1], B2[-1] of s(D) and its boundary blocks,
    after checking that f1, g1 and f2 are chain maps."""
    for maps, src, dst in ((f1, a1, b1), (g1, a2, b1), (f2, a2, b2)):
        for k, m in maps.items():
            if m.rows != dst.dim(k) or m.cols != src.dim(k):
                raise ValueError("chain map shape mismatch at degree %d" % k)
            fd = _product(maps.get(k - 1), src.boundary.get(k))
            df = _product(dst.boundary.get(k), m)
            diff = _gather([dst.dim(k - 1)], [src.dim(k)],
                           [(0, 0, fd, 1), (0, 0, df, -1)])
            if diff is not None and not diff.is_zero():
                raise ValueError("not a chain map at degree %d" % k)
    slots = [(a1, 0), (a2, 0), (b1, 1), (b2, 1)]
    blocks = [(0, 0, a1.boundary.get, 1), (1, 1, a2.boundary.get, 1),
              (2, 0, f1.get, 1), (2, 1, g1.get, -1),
              (2, 2, lambda n: b1.boundary.get(n + 1), -1),
              (3, 1, f2.get, 1),
              (3, 3, lambda n: b2.boundary.get(n + 1), -1)]
    return slots, blocks


def diagram_simple(a1: ChainComplex, b1: ChainComplex, a2: ChainComplex,
                   b2: ChainComplex, f1: dict, g1: dict, f2: dict) -> ChainComplex:
    """The simple complex of the diagram A1 -f1-> B1 <-g1- A2 -f2-> B2:

        s(D)_n = A1_n (+) A2_n (+) B1_{n+1} (+) B2_{n+1}
        d(a1, a2, b1, b2) = (d a1, d a2, f1(a1) - g1(a2) - d b1, f2(a2) - d b2)

    The chain maps are given per degree as dicts degree -> RatMatrix.
    """
    return _slot_complex(*_diagram(a1, b1, a2, b2, f1, g1, f2))


def diagram_les_check(a1: ChainComplex, b1: ChainComplex, a2: ChainComplex,
                      b2: ChainComplex, f1: dict, g1: dict, f2: dict,
                      interior: tuple) -> dict:
    """Dimension-level exactness of the long sequence relating H(s(D)),
    H(A1) and H(B2) when g1 is a quasi-isomorphism.

    Uses the inclusion u: B2[-1] -> s(D) and the quotient w: s(D) -> C
    (the cone over B1 of (f1, -g1)), whose homology is identified with
    H(A1) through the projection C -> A1.  Exactness of

        ... -> H_n(B2[-1]) -u-> H_n(s(D)) -v-> H_n(A1) -> H_{n-1}(B2[-1]) -> ...

    is verified on the interior degree window by rank counting.
    """
    slots, blocks = _diagram(a1, b1, a2, b2, f1, g1, f2)
    sd = _slot_complex(slots, blocks)
    lo, hi = interior
    # quotient C: s(D) without its B2[-1] slot
    cx = _slot_complex(slots[:3], [blk for blk in blocks if 3 not in blk[:2]])

    h_sd = sd.homology()
    h_c = cx.homology()
    h_a1 = a1.homology()

    # chain maps: u: B2[-1] -> s(D); v: s(D) -> C; q: C -> A1
    def proj(n, sum_of, keep):
        """The projection in degree n of the sum of the slots sum_of onto
        its slots keep."""
        dims = [c.dim(n + s) for c, s in sum_of]
        return _gather([dims[j] for j in keep], dims,
                       [(i, j, RatMatrix.identity(dims[j]), 1)
                        for i, j in enumerate(keep)])

    def rank_u(n):
        mat = proj(n, slots, [3]).transpose()
        return induced_homology_rank(mat, b2.d(n + 1).scale(-1), sd.d(n + 1))

    def rank_v(n):
        mat = proj(n, slots, [0, 1, 2])
        return induced_homology_rank(mat, sd.d(n), cx.d(n + 1))

    def rank_q(n):
        mat = proj(n, slots[:3], [0])
        return induced_homology_rank(mat, cx.d(n), a1.d(n + 1))

    h_b2m = b2.shift(-1).homology()
    failures = []
    for n in range(lo, hi + 1):
        # the quotient map C -> A1 must induce isomorphisms (g1 quasi-iso)
        rq = rank_q(n)
        if not (rq == h_c.get(n, 0) == h_a1.get(n, 0)):
            failures.append({"degree": n, "check": "quotient-iso",
                             "rank": rq, "hc": h_c.get(n, 0), "ha1": h_a1.get(n, 0)})
            continue
        ru, rv = rank_u(n), rank_v(n)
        if h_sd.get(n, 0) != ru + rv:
            failures.append({"degree": n, "check": "exactness-middle",
                             "h_sd": h_sd.get(n, 0), "rank_u": ru, "rank_v": rv})
        # exactness at W and at U: coker(v_n) must match ker(u_{n-1})
        if n - 1 >= lo:
            coker_v = h_c.get(n, 0) - rv
            ker_u = h_b2m.get(n - 1, 0) - rank_u(n - 1)
            if coker_v != ker_u:
                failures.append({"degree": n, "check": "connecting-rank",
                                 "coker_v": coker_v, "ker_u": ker_u})
    return {"ok": not failures, "failures": failures,
            "h_simple": {str(k): v for k, v in sorted(h_sd.items())}}
