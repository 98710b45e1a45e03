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
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property

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
        m = self.boundary.get(n)
        if m is None:
            return RatMatrix.zero(self.dim(n - 1), self.dim(n))
        return m

    def validate(self):
        """Structured report: the first nonzero entry of d d, named by its
        source degree at index (0, 0), or ok."""
        for checked, n in enumerate(self.dims, 1):
            dd = self.d(n).mul(self.d(n + 1))
            if not dd.is_zero():
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


class CComplex:
    """complexes: dict m -> ChainComplex; fmaps: dict (m, n) -> dict k -> matrix,
    the component F^{m,n}: A^m_k -> A^n_{k+n-m-1}."""

    def __init__(self, complexes: dict, fmaps: dict):
        self.complexes = {m: c for m, c in complexes.items() if c.dims}
        self.fmaps = {}
        for (m, n), per_deg in fmaps.items():
            if m >= n:
                raise ValueError("connecting map needs m < n")
            kept = {k: mat for k, mat in per_deg.items() if not mat.is_zero()}
            if kept:
                self.fmaps[(m, n)] = kept
        self._structure = None

    def indices(self):
        return sorted(self.complexes)

    def cx(self, m: int) -> ChainComplex:
        return self.complexes.get(m, _EMPTY)

    def f(self, m: int, n: int, k: int) -> RatMatrix:
        """F^{m,n}_k for m < n, zero where absent."""
        return self.structure().c(m, n, k)

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

    def tot_offsets(self, p: int):
        """Tot_p = (+)_m A^m_{m+p}, the summands in index order: the offset
        of each summand, and the dimension of Tot_p."""
        offs, total = {}, 0
        for m in self.indices():
            offs[m] = total
            total += self.cx(m).dim(m + p)
        return offs, total

    def tot(self) -> ChainComplex:
        """Tot_p = (+)_m A^m_{m+p}, in the order of ``tot_offsets``, with
        the block S^{m,n} from A^m to A^n."""
        idxs = self.indices()
        pos = {m: i for i, m in enumerate(idxs)}
        s = self.structure()
        return _slot_complex([(self.cx(m), m) for m in idxs],
                             [(pos[n], pos[m],
                               lambda p, m=m, n=n: s.c(m, n, m + p), 1)
                              for m, n in s.comps])


def single_complex(c: ChainComplex, m: int = 0) -> CComplex:
    return CComplex({m: c}, {})


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
    0), zero where absent.  Reach -1 is a structure family, 0 a map of
    C-complexes, 1 a homotopy and 2 a second homotopy; composing two
    families adds their reaches."""

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

    def c(self, m: int, n: int, k: int) -> RatMatrix:
        """The component in degree k, zero where absent."""
        mat = self.get(m, n, k)
        return mat if mat is not None else RatMatrix.zero(
            self.dst.cx(n).dim(k + n - m + self.reach), self.src.cx(m).dim(k))

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

    def defect(self, m: int, n: int, k: int) -> RatMatrix:
        """D(h)^{m,n}_k: A^m_k -> B^n_{k+n-m+reach-1}, the sum of the
        present terms of ``defect_terms``."""
        acc = RatMatrix.zero(self.dst.cx(n).dim(k + n - m + self.reach - 1),
                             self.src.cx(m).dim(k))
        for sign, left, key, right in self.defect_terms(m, n, k):
            h = self.get(*key)
            if h is not None:
                term = left.mul(h) if right is None else h.mul(right)
                acc = acc + term if sign == 1 else acc - term
        return acc

    def compare_defect(self, target=None) -> dict:
        """Compare the defect with target(m, n, k), zero when None, at
        every component; report the first differing entry."""
        checked = 0
        for m, n, k in _keys(self.src, self.dst, self.reach):
            diff = self.defect(m, n, k)
            if target is not None:
                diff = diff - target(m, n, k)
            checked += 1
            if not diff.is_zero():
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
    acc = None
    for gkey, fkey in compose_terms(g, f, m, n, k):
        a, b = g.get(*gkey), f.get(*fkey)
        if a is not None and b is not None:
            term = a.mul(b)
            acc = term if acc is None else acc + term
    return acc


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


class CMap(CFamily):
    """A map of C-complexes: comps[(m, n)][k]: A^m_k -> B^n_{k+n-m}, m <= n."""

    def __init__(self, src: CComplex, dst: CComplex, comps: dict):
        super().__init__(src, dst, comps, 0)

    def validate(self):
        return self.compare_defect()

    def tot(self) -> dict:
        """Tot(f) as matrices per total degree."""
        out = {}
        degs = set()
        for side in (self.src, self.dst):
            for m in side.indices():
                for k in side.cx(m).degrees():
                    degs.add(k - m)
        for p in degs:
            src_off, src_dim = self.src.tot_offsets(p)
            dst_off, dst_dim = self.dst.tot_offsets(p)
            out[p] = _assemble(dst_dim, src_dim,
                               [(dst_off[n], src_off[m], self.c(m, n, m + p), 1)
                                for m, n in self.comps])
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
    C-complexes."""
    return family(f.src, f.dst, f.reach,
                  lambda m, n, k: f.c(m, n, k) + g.c(m, n, k).scale(scale_g))


class CHomotopy(CFamily):
    """A homotopy: comps[(m, n)][k]: A^m_k -> B^n_{k+n-m+1}, m <= n+1."""

    def __init__(self, src: CComplex, dst: CComplex, comps: dict):
        super().__init__(src, dst, comps, 1)

    def validate(self, frm: CMap, to: CMap):
        """D(h) = to - frm, degreewise: h is a homotopy from frm to to."""
        return self.compare_defect(
            lambda m, n, k: to.c(m, n, k) - frm.c(m, n, k))


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
    with ``theta.compare_defect(target.c)``."""
    return cmap_add(cmap_add(compose(psi_p, phi_b), compose(h_f, g), -1),
                    cmap_add(compose(fp, h_g), compose(phi_b, psi)), -1)


# -- simple complex (mapping cone) ------------------------------------

class SimpleParts:
    """The simple complex ccx of a C-map f: A -> B with its projection to A
    and its inclusion of B[-1]; C^m_k is A^m_k (+) B^{m-1}_k, in that
    order."""

    def __init__(self, a: CComplex, b: CComplex, ccx: CComplex):
        self.a, self.b, self.ccx = a, b, ccx

    @cached_property
    def proj(self) -> CMap:
        """p: s(f) -> A, the diagonal projection onto the A slot."""
        return family(self.ccx, self.a, 0, lambda m, n, k: _slot_unit(
            *self.slots(m, k), 0) if m == n else None)

    @cached_property
    def incl(self) -> CMap:
        """i: B[-1] -> s(f), the diagonal inclusion of the B slot."""
        return family(self.b.shift(-1), self.ccx, 0,
                      lambda m, n, k: _slot_unit(*self.slots(m, k), 1)
                      .transpose() if m == n else None)

    def slots(self, m: int, k: int):
        """The dimensions of A^m_k and B^{m-1}_k inside C^m_k."""
        return self.a.cx(m).dim(k), self.b.cx(m - 1).dim(k)


def _slot_unit(da: int, db: int, slot: int) -> RatMatrix:
    """The projection of A (+) B, of dimensions da and db, onto slot 0 (A)
    or slot 1 (B)."""
    d, off = (da, 0) if slot == 0 else (db, da)
    return RatMatrix(d, da + db, {(i, off + i): 1 for i in range(d)})


def simple(f: CMap) -> SimpleParts:
    """s(f)^m = A^m (+) B^{m-1}, with
    F_C^{m,n}(a, b) = (F_A(a), f^{m,n-1}(a) - F_B^{m-1,n-1}(b))."""
    a, b = f.src, f.dst
    idxs = sorted(set(a.indices()) | {m + 1 for m in b.indices()})
    complexes = {m: _slot_complex([(a.cx(m), 0), (b.cx(m - 1), 0)],
                                  [(0, 0, a.cx(m).d, 1),
                                   (1, 1, b.cx(m - 1).d, 1)])
                 for m in idxs}
    fmaps = {}
    for m in idxs:
        for n in idxs:
            if m >= n:
                continue
            per = {}
            for k in set(a.cx(m).degrees()) | set(b.cx(m - 1).degrees()):
                da = a.cx(m).dim(k)
                kk = k + n - m - 1
                ta = a.cx(n).dim(kk)
                per[k] = _assemble(ta + b.cx(n - 1).dim(kk),
                                   da + b.cx(m - 1).dim(k),
                                   [(0, 0, a.f(m, n, k), 1),
                                    (ta, 0, f.c(m, n - 1, k), 1),
                                    (ta, da, b.f(m - 1, n - 1, k), -1)])
            fmaps[(m, n)] = per
    return SimpleParts(a, b, CComplex(complexes, fmaps))


def phi_s(parts: SimpleParts, parts_p: SimpleParts, phi_a: CMap, phi_b: CMap,
          h_f: CHomotopy) -> CMap:
    """The induced map s(f) -> s(f') of a square commuting up to the
    homotopy h_f from phi_B f to f' phi_A:

        phi_s^{m,n}(a, b) = (phi_A(a), phi_B^{m-1,n-1}(b) + h_f^{m,n-1}(a)).
    """
    def comp(m, n, k):
        da, db = parts.slots(m, k)
        ta, tb = parts_p.slots(n, k + n - m)
        return _assemble(ta + tb, da + db,
                         [(0, 0, phi_a.c(m, n, k), 1),
                          (ta, da, phi_b.c(m - 1, n - 1, k), 1),
                          (ta, 0, h_f.c(m, n - 1, k), 1)])
    return family(parts.ccx, parts_p.ccx, 0, comp)


def section_t(parts: SimpleParts, f: CMap, g: CMap, psi: CHomotopy):
    """The section construction: given g with a homotopy psi from Id_B to
    f g, the map t: A -> s(f),

       t^{m,n}(a) = (delta^{m,n}(a) - sum_l g^{l,n} f^{m,l}(a),
                     -sum_l psi^{l,n-1} f^{m,l}(a)),

    together with the homotopies psi_1 (from Id_{s(f)} to t p) and psi_2
    (from 0 to t g).  Returns (t, psi_1, psi_2)."""
    a, b = f.src, f.dst
    cone = parts.ccx
    gf, psi_f = compose(g, f), compose(psi, f)

    def t_comp(m, n, k):
        ta, tb = parts.slots(n, k + n - m)
        blocks = [(0, 0, gf.c(m, n, k), -1), (ta, 0, psi_f.c(m, n - 1, k), -1)]
        if m == n:
            blocks.append((0, 0, RatMatrix.identity(a.cx(m).dim(k)), 1))
        return _assemble(ta + tb, a.cx(m).dim(k), blocks)
    t = family(a, cone, 0, t_comp)

    # psi_1^{m,n}(a, b) = (-g^{m-1,n}(b), -psi^{m-1,n-1}(b))
    def psi1_comp(m, n, k):
        da, db = parts.slots(m, k)
        ta, tb = parts.slots(n, k + n - m + 1)
        return _assemble(ta + tb, da + db,
                         [(0, da, g.c(m - 1, n, k), -1),
                          (ta, da, psi.c(m - 1, n - 1, k), -1)])
    psi1 = family(cone, cone, 1, psi1_comp)

    # psi_2^{m,n}(b) = (-sum_l g^{l,n} psi^{m,l}(b), -sum_l psi^{l,n-1} psi^{m,l}(b))
    g_psi, psi_psi = compose(g, psi), compose(psi, psi)

    def psi2_comp(m, n, k):
        ta, tb = parts.slots(n, k + n - m + 1)
        return _assemble(ta + tb, b.cx(m).dim(k),
                         [(0, 0, g_psi.c(m, n, k), -1),
                          (ta, 0, psi_psi.c(m, n - 1, k), -1)])
    psi2 = family(b, cone, 1, psi2_comp)
    return t, psi1, psi2


def pi_homotopy(parts_p: SimpleParts, f: CMap, theta: CFamily,
                h_f: CHomotopy, h_g: CHomotopy, psi_p: CHomotopy,
                gp: CMap) -> CHomotopy:
    """The homotopy from phi_s t to t' phi_A induced by a second homotopy:

    Pi^{m,n}(a) = (-sum Phi_g^{l,n} f^{m,l}(a) - sum g'^{l,n} Phi_f^{m,l}(a),
                   -sum Psi'^{l,n-1} Phi_f^{m,l}(a) + sum Theta^{l,n-1} f^{m,l}(a)).
    """
    hg_f, gp_hf = compose(h_g, f), compose(gp, h_f)
    psi_hf, theta_f = compose(psi_p, h_f), compose(theta, f)

    def comp(m, n, k):
        ta, tb = parts_p.slots(n, k + n - m + 1)
        return _assemble(ta + tb, f.src.cx(m).dim(k),
                         [(0, 0, hg_f.c(m, n, k), -1),
                          (0, 0, gp_hf.c(m, n, k), -1),
                          (ta, 0, psi_hf.c(m, n - 1, k), -1),
                          (ta, 0, theta_f.c(m, n - 1, k), 1)])
    return family(f.src, parts_p.ccx, 1, comp)


# -- simple complex of a diagram ---------------------------------------

def _slot_complex(slots, blocks) -> ChainComplex:
    """The direct sum of the slots, each a (complex C, shift s) read as
    C_{n+s} in degree n, with the boundary whose block from slot j to slot
    i in degree n is sign * mat(n), for each (i, j, mat, sign) in blocks."""
    degs = {k - s for cx, s in slots for k in cx.dims}
    if not degs:
        return ChainComplex({}, {})
    offs = {}
    for n in range(min(degs) - 1, max(degs) + 1):
        offs[n] = [0]
        for cx, s in slots:
            offs[n].append(offs[n][-1] + cx.dim(n + s))
    dims = {n: o[-1] for n, o in offs.items()}
    bnd = {n: _assemble(dims[n - 1], dims[n],
                        [(offs[n - 1][i], offs[n][j], mat(n), sign)
                         for i, j, mat, sign in blocks])
           for n in range(min(degs), max(degs) + 1)}
    return ChainComplex(dims, bnd)


def _diagram(a1, b1, a2, b2, f1, g1, f2):
    """The slots A1, A2, B1[-1], B2[-1] of s(D) and its boundary blocks,
    after checking that f1, g1 and f2 are chain maps."""
    def chain_map(maps, src, dst):
        return lambda k: maps[k] if k in maps else RatMatrix.zero(dst.dim(k), src.dim(k))

    for maps, src, dst in ((f1, a1, b1), (g1, a2, b1), (f2, a2, b2)):
        for k, m in maps.items():
            if m.rows != dst.dim(k) or m.cols != src.dim(k):
                raise ValueError("chain map shape mismatch at degree %d" % k)
            if chain_map(maps, src, dst)(k - 1).mul(src.d(k)) != dst.d(k).mul(m):
                raise ValueError("not a chain map at degree %d" % k)
    slots = [(a1, 0), (a2, 0), (b1, 1), (b2, 1)]
    blocks = [(0, 0, a1.d, 1), (1, 1, a2.d, 1),
              (2, 0, chain_map(f1, a1, b1), 1),
              (2, 1, chain_map(g1, a2, b1), -1),
              (2, 2, lambda n: b1.d(n + 1), -1),
              (3, 1, chain_map(f2, a2, b2), 1),
              (3, 3, lambda n: b2.d(n + 1), -1)]
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
    def rank_u(n):
        mat = _slot_unit(cx.dim(n), b2.dim(n + 1), 1).transpose()
        return induced_homology_rank(mat, b2.d(n + 1).scale(-1), sd.d(n + 1))

    def rank_v(n):
        mat = _slot_unit(cx.dim(n), b2.dim(n + 1), 0)
        return induced_homology_rank(mat, sd.d(n), cx.d(n + 1))

    def rank_q(n):
        mat = _slot_unit(a1.dim(n), cx.dim(n) - a1.dim(n), 0)
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
