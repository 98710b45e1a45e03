"""C-complexes: families of chain complexes with higher connecting maps.

A C-complex is a finite family of chain complexes A^m together with maps
F^{m,n}: A^m_* -> A^n_{*+n-m-1} for m < n satisfying

    (-1)^m F^{m,n} d + (-1)^n d F^{m,n} + sum_{m<l<n} F^{l,n} F^{m,l} = 0.

Everything here is matrix-level over Q: validation, total complexes,
maps, homotopies and second homotopies, simple complexes (mapping cones),
the section construction, and the simple complex of a four-complex
diagram with its long-exact-sequence check.

Degree bookkeeping: a map component ``comp[(m, n)][k]`` is a matrix from
A^m_k into B^n_{k + n - m + off} where ``off`` is -1 for connecting maps,
0 for maps, +1 for homotopies, +2 for second homotopies.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlin import RatMatrix, induced_homology_rank, rank


class ChainComplex:
    """A finite chain complex: dims per degree and boundaries d_n: C_n -> C_{n-1}."""

    def __init__(self, dims: dict, boundary: dict, labels: dict | None = None):
        self.dims = {n: d for n, d in dims.items() if d}
        self.boundary = {}
        for n, m in boundary.items():
            if m.rows != self.dim(n - 1) or m.cols != self.dim(n):
                raise ValueError("boundary shape mismatch at degree %d" % n)
            if not m.is_zero():
                self.boundary[n] = m
        self.labels = labels or {}

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def degrees(self):
        return sorted(self.dims)

    def d(self, n: int) -> RatMatrix:
        m = self.boundary.get(n)
        if m is None:
            return RatMatrix(self.dim(n - 1), self.dim(n))
        return m

    def validate(self):
        for n in list(self.dims):
            if not self.d(n).mul(self.d(n + 1)).is_zero():
                raise ValueError("d^2 != 0 at degree %d" % n)

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
        sgn = Fraction(-1) ** (r % 2)
        return ChainComplex({n + r: d for n, d in self.dims.items()},
                            {n + r: m.scale(sgn) for n, m in self.boundary.items()})


def _comp(maps: dict, m: int, n: int, k: int, rows: int, cols: int) -> RatMatrix:
    mm = maps.get((m, n), {}).get(k)
    if mm is None:
        return RatMatrix.zero(rows, cols)
    return mm


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

    def indices(self):
        return sorted(self.complexes)

    def cx(self, m: int) -> ChainComplex:
        c = self.complexes.get(m)
        if c is None:
            c = ChainComplex({}, {})
        return c

    def f(self, m: int, n: int, k: int) -> RatMatrix:
        return _comp(self.fmaps, m, n, k,
                     self.cx(n).dim(k + n - m - 1), self.cx(m).dim(k))

    def validate(self):
        """Structured report: first failing (m, n, degree, entry) or ok."""
        idxs = self.indices()
        if not idxs:
            return {"ok": True, "checked": 0}
        checked = 0
        for m in idxs:
            self.cx(m).validate()
        lo, hi = min(idxs), max(idxs)
        for m in range(lo, hi + 1):
            for n in range(m + 1, hi + 1):
                for k in self.cx(m).degrees():
                    # target degree of the relation: A^n_{k+n-m-2}
                    acc = self.f(m, n, k - 1).mul(self.cx(m).d(k)).scale((-1) ** m)
                    acc = acc + self.cx(n).d(k + n - m - 1).mul(self.f(m, n, k)).scale((-1) ** n)
                    for l in range(m + 1, n):
                        acc = acc + self.f(l, n, k + l - m - 1).mul(self.f(m, l, k))
                    checked += 1
                    if not acc.is_zero():
                        entry = sorted(acc.entries)[0]
                        return {"ok": False, "checked": checked,
                                "at": {"m": m, "n": n, "degree": k,
                                       "entry": [entry[0], entry[1]],
                                       "value": str(acc.entries[entry])}}
        return {"ok": True, "checked": checked}

    def shift(self, r: int) -> "CComplex":
        """A[r]^m = A^{m+r} with F_{A[r]}^{m,n} = (-1)^r F_A^{m+r,n+r}."""
        sgn = Fraction(-1) ** (r % 2)
        return CComplex({m - r: c for m, c in self.complexes.items()},
                        {(m - r, n - r): {k: mat.scale(sgn) for k, mat in per.items()}
                         for (m, n), per in self.fmaps.items()})

    # -- total complex -------------------------------------------------

    def tot_basis(self, p: int):
        """Ordered basis of Tot_p = (+)_m A^m_{m+p} as (m, i) pairs."""
        out = []
        for m in self.indices():
            for i in range(self.cx(m).dim(m + p)):
                out.append((m, i))
        return out

    def tot(self) -> ChainComplex:
        degs = set()
        for m in self.indices():
            for k in self.cx(m).degrees():
                degs.add(k - m)
        if not degs:
            return ChainComplex({}, {})
        dims = {}
        basis = {}
        for p in range(min(degs), max(degs) + 1):
            b = self.tot_basis(p)
            basis[p] = {mi: j for j, mi in enumerate(b)}
            dims[p] = len(b)
        bnd = {}
        for p in sorted(dims):
            if p - 1 not in dims:
                if dims.get(p):
                    bnd[p] = RatMatrix(0, dims[p])
                continue
            ent = {}
            tgt = basis[p - 1]
            src = basis[p]
            idxs = self.indices()
            for m in idxs:
                # (-1)^m d within A^m, then F^{m,n} into each later slot n;
                # each block's entries are bucketed by source column once
                sign = -1 if m % 2 else 1
                own = {}
                for (r, c), v in self.cx(m).d(m + p).entries.items():
                    own.setdefault(c, []).append((tgt[(m, r)], v * sign))
                blocks = [own]
                for n in idxs:
                    if n > m:
                        by_col = {}
                        for (r, c), v in self.f(m, n, m + p).entries.items():
                            by_col.setdefault(c, []).append((tgt[(n, r)], v))
                        blocks.append(by_col)
                for i in range(self.cx(m).dim(m + p)):
                    col = src[(m, i)]
                    for by_col in blocks:
                        for t, v in by_col.get(i, ()):
                            key = (t, col)
                            ent[key] = ent.get(key, 0) + v
            bnd[p] = RatMatrix(dims[p - 1], dims[p],
                               {k: v for k, v in ent.items() if v})
        return ChainComplex(dims, bnd)


def single_complex(c: ChainComplex, m: int = 0) -> CComplex:
    return CComplex({m: c}, {})


class CMap:
    """comps[(m, n)][k]: A^m_k -> B^n_{k+n-m} for m <= n."""

    def __init__(self, src: CComplex, dst: CComplex, comps: dict):
        self.src = src
        self.dst = dst
        self.comps = {}
        for (m, n), per in comps.items():
            if m > n:
                raise ValueError("map component needs m <= n")
            kept = {k: mat for k, mat in per.items() if not mat.is_zero()}
            if kept:
                self.comps[(m, n)] = kept

    def c(self, m: int, n: int, k: int) -> RatMatrix:
        return _comp(self.comps, m, n, k,
                     self.dst.cx(n).dim(k + n - m), self.src.cx(m).dim(k))

    def _index_window(self):
        idx = sorted(set(self.src.indices()) | set(self.dst.indices()))
        if not idx:
            return []
        return list(range(min(idx), max(idx) + 1))

    def validate(self):
        win = self._index_window()
        checked = 0
        for m in self.src.indices():
            for n in self.dst.indices():
                if m > n:
                    continue
                for k in self.src.cx(m).degrees():
                    lhs = self.dst.cx(n).d(k + n - m).mul(self.c(m, n, k)).scale((-1) ** n)
                    for l in win:
                        if l < n:
                            lhs = lhs + self.dst.f(l, n, k + l - m).mul(self.c(m, l, k))
                    rhs = self.c(m, n, k - 1).mul(self.src.cx(m).d(k)).scale((-1) ** m)
                    for l in win:
                        if l > m:
                            rhs = rhs + self.c(l, n, k + l - m - 1).mul(self.src.f(m, l, k))
                    checked += 1
                    if lhs != rhs:
                        diff = lhs - rhs
                        entry = sorted(diff.entries)[0]
                        return {"ok": False, "checked": checked,
                                "at": {"m": m, "n": n, "degree": k,
                                       "entry": [entry[0], entry[1]],
                                       "value": str(diff.entries[entry])}}
        return {"ok": True, "checked": checked}

    def tot(self) -> dict:
        """Tot(f) as matrices per total degree."""
        out = {}
        degs = set()
        for side in (self.src, self.dst):
            for m in side.indices():
                for k in side.cx(m).degrees():
                    degs.add(k - m)
        for p in degs:
            src_b = self.src.tot_basis(p)
            dst_b = {mi: j for j, mi in enumerate(self.dst.tot_basis(p))}
            ent = {}
            for col, (m, i) in enumerate(src_b):
                for n in self.dst.indices():
                    if n < m:
                        continue
                    mat = self.c(m, n, m + p)
                    for (r, c), v in mat.entries.items():
                        if c == i:
                            ent[(dst_b[(n, r)], col)] = v
            out[p] = RatMatrix(len(dst_b), len(src_b), ent)
        return out


def identity_cmap(a: CComplex) -> CMap:
    comps = {}
    for m in a.indices():
        per = {}
        for k in a.cx(m).degrees():
            per[k] = RatMatrix.identity(a.cx(m).dim(k))
        comps[(m, m)] = per
    return CMap(a, a, comps)


def zero_cmap(a: CComplex, b: CComplex) -> CMap:
    return CMap(a, b, {})


def compose(g: CMap, f: CMap) -> CMap:
    """(gf)^{m,n} = sum_l g^{l,n} f^{m,l}."""
    comps = {}
    win = sorted(set(f.dst.indices()))
    for m in f.src.indices():
        for n in g.dst.indices():
            if m > n:
                continue
            per = {}
            for k in f.src.cx(m).degrees():
                acc = RatMatrix(g.dst.cx(n).dim(k + n - m), f.src.cx(m).dim(k))
                for l in win:
                    if m <= l <= n:
                        acc = acc + g.c(l, n, k + l - m).mul(f.c(m, l, k))
                if not acc.is_zero():
                    per[k] = acc
            if per:
                comps[(m, n)] = per
    return CMap(f.src, g.dst, comps)


def cmap_shift(f: CMap, r: int) -> CMap:
    """f[r]: A[r] -> B[r], components reindexed without signs."""
    return CMap(f.src.shift(r), f.dst.shift(r),
                {(m - r, n - r): dict(per) for (m, n), per in f.comps.items()})


def cmap_add(f: CMap, g: CMap, scale_g=1) -> CMap:
    comps = {}
    keys = set(f.comps) | set(g.comps)
    for (m, n) in keys:
        per = {}
        ks = set(f.comps.get((m, n), {})) | set(g.comps.get((m, n), {}))
        for k in ks:
            per[k] = f.c(m, n, k) + g.c(m, n, k).scale(scale_g)
        comps[(m, n)] = per
    return CMap(f.src, f.dst, comps)


class CHomotopy:
    """comps[(m, n)][k]: A^m_k -> B^n_{k+n-m+1} for m <= n+1, from f to g."""

    def __init__(self, src: CComplex, dst: CComplex, comps: dict,
                 frm: CMap | None = None, to: CMap | None = None):
        self.src = src
        self.dst = dst
        self.frm = frm
        self.to = to
        self.comps = {}
        for (m, n), per in comps.items():
            if m > n + 1:
                raise ValueError("homotopy component needs m <= n+1")
            kept = {k: mat for k, mat in per.items() if not mat.is_zero()}
            if kept:
                self.comps[(m, n)] = kept

    def c(self, m: int, n: int, k: int) -> RatMatrix:
        return _comp(self.comps, m, n, k,
                     self.dst.cx(n).dim(k + n - m + 1), self.src.cx(m).dim(k))

    def validate(self, frm: CMap | None = None, to: CMap | None = None):
        f = frm if frm is not None else self.frm
        g = to if to is not None else self.to
        if f is None or g is None:
            raise ValueError("homotopy endpoints not supplied")
        win = sorted(set(self.src.indices()) | set(self.dst.indices()))
        if win:
            win = list(range(min(win), max(win) + 1))
        checked = 0
        for m in self.src.indices():
            for n in self.dst.indices():
                if m > n + 1:
                    continue
                for k in self.src.cx(m).degrees():
                    acc = self.c(m, n, k - 1).mul(self.src.cx(m).d(k)).scale((-1) ** m)
                    for l in win:
                        if l > m:
                            acc = acc + self.c(l, n, k + l - m - 1).mul(self.src.f(m, l, k))
                    acc = acc + self.dst.cx(n).d(k + n - m + 1).mul(self.c(m, n, k)).scale((-1) ** n)
                    for l in win:
                        if l < n:
                            acc = acc + self.dst.f(l, n, k + l - m + 1).mul(self.c(m, l, k))
                    target = g.c(m, n, k) - f.c(m, n, k)
                    checked += 1
                    if acc != target:
                        diff = acc - target
                        entry = sorted(diff.entries)[0]
                        return {"ok": False, "checked": checked,
                                "at": {"m": m, "n": n, "degree": k,
                                       "entry": [entry[0], entry[1]],
                                       "value": str(diff.entries[entry])}}
        return {"ok": True, "checked": checked}


def homotopy_compose_map(phi: CHomotopy, f: CMap) -> CHomotopy:
    """phi o f (precompose a homotopy with a map): (phi f)^{m,n} = sum phi^{l,n} f^{m,l}."""
    comps = {}
    for m in f.src.indices():
        for n in phi.dst.indices():
            if m > n + 1:
                continue
            per = {}
            for k in f.src.cx(m).degrees():
                acc = RatMatrix(phi.dst.cx(n).dim(k + n - m + 1), f.src.cx(m).dim(k))
                for l in f.dst.indices():
                    if m <= l <= n + 1:
                        acc = acc + phi.c(l, n, k + l - m).mul(f.c(m, l, k))
                if not acc.is_zero():
                    per[k] = acc
            if per:
                comps[(m, n)] = per
    return CHomotopy(f.src, phi.dst, comps)


def map_compose_homotopy(f: CMap, phi: CHomotopy) -> CHomotopy:
    """f o phi: (f phi)^{m,n} = sum f^{l,n} phi^{m,l}."""
    comps = {}
    for m in phi.src.indices():
        for n in f.dst.indices():
            if m > n + 1:
                continue
            per = {}
            for k in phi.src.cx(m).degrees():
                acc = RatMatrix(f.dst.cx(n).dim(k + n - m + 1), phi.src.cx(m).dim(k))
                for l in phi.dst.indices():
                    if l <= n:
                        acc = acc + f.c(l, n, k + l - m + 1).mul(phi.c(m, l, k))
                if not acc.is_zero():
                    per[k] = acc
            if per:
                comps[(m, n)] = per
    return CHomotopy(phi.src, f.dst, comps)


def homotopy_add(a: CHomotopy, b: CHomotopy, scale_b=1) -> CHomotopy:
    comps = {}
    keys = set(a.comps) | set(b.comps)
    for (m, n) in keys:
        ks = set(a.comps.get((m, n), {})) | set(b.comps.get((m, n), {}))
        comps[(m, n)] = {k: a.c(m, n, k) + b.c(m, n, k).scale(scale_b) for k in ks}
    return CHomotopy(a.src, a.dst, comps)


def homotopy_defect(src: CComplex, dst: CComplex, comps: dict) -> CMap:
    """The map whose components are the homotopy relation applied to a
    homotopy-shaped family supported on m <= n: a CMap homotopic to zero.

    Families with (n+1, n) components are rejected; their relation value
    would overflow the shape of a map of C-complexes."""
    for (m, n) in comps:
        if m > n:
            raise ValueError("defect of a family with m > n components")
    h = CHomotopy(src, dst, comps)
    out = {}
    win = sorted(set(src.indices()) | set(dst.indices()))
    if win:
        win = list(range(min(win), max(win) + 1))
    for m in src.indices():
        for n in dst.indices():
            if m > n:
                continue
            per = {}
            for k in src.cx(m).degrees():
                acc = h.c(m, n, k - 1).mul(src.cx(m).d(k)).scale((-1) ** m)
                for l in win:
                    if l > m:
                        acc = acc + h.c(l, n, k + l - m - 1).mul(src.f(m, l, k))
                acc = acc + dst.cx(n).d(k + n - m + 1).mul(h.c(m, n, k)).scale((-1) ** n)
                for l in win:
                    if l < n:
                        acc = acc + dst.f(l, n, k + l - m + 1).mul(h.c(m, l, k))
                if not acc.is_zero():
                    per[k] = acc
            if per:
                out[(m, n)] = per
    return CMap(src, dst, out)


class SecondHomotopy:
    """Theta^{m,n}: B^m_k -> B'^n_{k+n-m+2} for m <= n+2, mediating the two
    homotopies  Phi_f g + f' Phi_g + phi_B Psi  and  Psi' phi_B.

    The six gadgets are stored so the defining relation can be checked.
    """

    def __init__(self, comps: dict, f: CMap, g: CMap, fp: CMap, gp: CMap,
                 phi_a: CMap, phi_b: CMap, h_f: CHomotopy, h_g: CHomotopy,
                 psi: CHomotopy, psi_p: CHomotopy):
        self.comps = {}
        for (m, n), per in comps.items():
            if m > n + 2:
                raise ValueError("second homotopy component needs m <= n+2")
            kept = {k: mat for k, mat in per.items() if not mat.is_zero()}
            if kept:
                self.comps[(m, n)] = kept
        self.f, self.g, self.fp, self.gp = f, g, fp, gp
        self.phi_a, self.phi_b = phi_a, phi_b
        self.h_f, self.h_g, self.psi, self.psi_p = h_f, h_g, psi, psi_p
        self.src = g.src  # B
        self.dst = phi_b.dst  # B'

    def c(self, m: int, n: int, k: int) -> RatMatrix:
        return _comp(self.comps, m, n, k,
                     self.dst.cx(n).dim(k + n - m + 2), self.src.cx(m).dim(k))


def check_second_homotopy(theta: SecondHomotopy):
    """The defining relation of a second homotopy, degreewise:

    (-1)^n d Th + sum F Th - (-1)^m Th d - sum Th F
      = sum Psi' phi_B - sum Phi_f g - sum f' Phi_g - sum phi_B Psi.
    """
    b, bp = theta.src, theta.dst
    win = sorted(set(b.indices()) | set(bp.indices())
                 | set(theta.g.dst.indices()) | set(theta.phi_b.dst.indices()))
    if win:
        win = list(range(min(win), max(win) + 1))
    checked = 0
    for m in b.indices():
        for n in bp.indices():
            if m > n + 2:
                continue
            for k in b.cx(m).degrees():
                lhs = bp.cx(n).d(k + n - m + 2).mul(theta.c(m, n, k)).scale((-1) ** n)
                for l in win:
                    if l < n:
                        lhs = lhs + bp.f(l, n, k + l - m + 2).mul(theta.c(m, l, k))
                lhs = lhs - theta.c(m, n, k - 1).mul(b.cx(m).d(k)).scale((-1) ** m)
                for l in win:
                    if l > m:
                        lhs = lhs - theta.c(l, n, k + l - m - 1).mul(b.f(m, l, k))
                rhs = RatMatrix(bp.cx(n).dim(k + n - m + 1), b.cx(m).dim(k))
                for l in win:
                    rhs = rhs + theta.psi_p.c(l, n, k + l - m).mul(theta.phi_b.c(m, l, k))
                    rhs = rhs - theta.h_f.c(l, n, k + l - m).mul(theta.g.c(m, l, k))
                    rhs = rhs - theta.fp.c(l, n, k + l - m + 1).mul(theta.h_g.c(m, l, k))
                    rhs = rhs - theta.phi_b.c(l, n, k + l - m + 1).mul(theta.psi.c(m, l, k))
                checked += 1
                if lhs != rhs:
                    diff = lhs - rhs
                    entry = sorted(diff.entries)[0]
                    return {"ok": False, "checked": checked,
                            "at": {"m": m, "n": n, "degree": k,
                                   "entry": [entry[0], entry[1]],
                                   "value": str(diff.entries[entry])}}
    return {"ok": True, "checked": checked}


def ccomplex_to_json(cc: CComplex) -> dict:
    """JSON form: the index range, per-index complexes, and the connecting
    maps as degree-indexed matrices."""
    complexes = {}
    for m, cx in cc.complexes.items():
        complexes[str(m)] = {
            "dims": {str(n): d for n, d in sorted(cx.dims.items())},
            "boundary": {str(n): mat.to_json_obj()
                         for n, mat in sorted(cx.boundary.items())},
        }
    fmaps = {}
    for (m, n), per in cc.fmaps.items():
        fmaps["%d,%d" % (m, n)] = {str(k): mat.to_json_obj()
                                   for k, mat in sorted(per.items())}
    return {"complexes": complexes, "fmaps": fmaps}


def ccomplex_from_json(obj) -> CComplex:
    complexes = {}
    for ms, entry in obj["complexes"].items():
        dims = {int(k): int(v) for k, v in entry["dims"].items()}
        bnd = {int(k): RatMatrix.from_json_obj(v)
               for k, v in entry["boundary"].items()}
        complexes[int(ms)] = ChainComplex(dims, bnd)
    fmaps = {}
    for key, per in obj["fmaps"].items():
        m, n = (int(x) for x in key.split(","))
        fmaps[(m, n)] = {int(k): RatMatrix.from_json_obj(v)
                         for k, v in per.items()}
    return CComplex(complexes, fmaps)


# -- simple complex (mapping cone) ------------------------------------

class SimpleParts:
    """The simple complex of a C-map with its projection and inclusion,
    plus the slot bookkeeping (per (m, degree): how A^m_k and B^{m-1}_k sit
    inside C^m_k)."""

    def __init__(self, ccx: CComplex, proj: CMap, incl: CMap, a_dims: dict, b_dims: dict):
        self.ccx = ccx
        self.proj = proj
        self.incl = incl
        self.a_dims = a_dims
        self.b_dims = b_dims


def simple(f: CMap) -> SimpleParts:
    """s(f)^m = A^m (+) B^{m-1}, with
    F_C^{m,n}(a, b) = (F_A(a), f^{m,n-1}(a) - F_B^{m-1,n-1}(b))."""
    a, b = f.src, f.dst
    idxs = sorted(set(a.indices()) | {m + 1 for m in b.indices()})
    complexes = {}
    a_dims = {}
    b_dims = {}
    for m in idxs:
        dims = {}
        bnd = {}
        degs = set(a.cx(m).degrees()) | set(b.cx(m - 1).degrees())
        for k in degs:
            da, db = a.cx(m).dim(k), b.cx(m - 1).dim(k)
            dims[k] = da + db
            a_dims[(m, k)] = da
            b_dims[(m, k)] = db
        for k in degs:
            da, db = a.cx(m).dim(k), b.cx(m - 1).dim(k)
            da1, db1 = a.cx(m).dim(k - 1), b.cx(m - 1).dim(k - 1)
            ent = {}
            for (r, c), v in a.cx(m).d(k).entries.items():
                ent[(r, c)] = v
            for (r, c), v in b.cx(m - 1).d(k).entries.items():
                ent[(da1 + r, da + c)] = v
            bnd[k] = RatMatrix(da1 + db1, da + db, ent)
        complexes[m] = ChainComplex(dims, bnd)
    fmaps = {}
    for m in idxs:
        for n in idxs:
            if m >= n:
                continue
            per = {}
            degs = set(a.cx(m).degrees()) | set(b.cx(m - 1).degrees())
            for k in degs:
                da = a.cx(m).dim(k)
                db = b.cx(m - 1).dim(k)
                kk = k + n - m - 1
                ta = a.cx(n).dim(kk)
                tb = b.cx(n - 1).dim(kk)
                ent = {}
                for (r, c), v in a.f(m, n, k).entries.items():
                    ent[(r, c)] = v
                for (r, c), v in f.c(m, n - 1, k).entries.items():
                    ent[(ta + r, c)] = v
                for (r, c), v in b.f(m - 1, n - 1, k).entries.items():
                    ent[(ta + r, da + c)] = -v
                mat = RatMatrix(ta + tb, da + db, ent)
                if not mat.is_zero():
                    per[k] = mat
            if per:
                fmaps[(m, n)] = per
    cone = CComplex(complexes, fmaps)
    # p: s(f) -> A, diagonal projection; i: B[-1] -> s(f), diagonal inclusion
    proj_comps = {}
    for m in idxs:
        per = {}
        for k in cone.cx(m).degrees():
            da = a.cx(m).dim(k)
            if da:
                per[k] = RatMatrix(da, cone.cx(m).dim(k),
                                   {(i, i): Fraction(1) for i in range(da)})
        if per:
            proj_comps[(m, m)] = per
    proj = CMap(cone, a, proj_comps)
    bshift = b.shift(-1)
    incl_comps = {}
    for m in idxs:
        per = {}
        for k in bshift.cx(m).degrees():
            db = bshift.cx(m).dim(k)
            da = a.cx(m).dim(k)
            if db:
                per[k] = RatMatrix(cone.cx(m).dim(k), db,
                                   {(da + i, i): Fraction(1) for i in range(db)})
        if per:
            incl_comps[(m, m)] = per
    incl = CMap(bshift, cone, incl_comps)
    return SimpleParts(cone, proj, incl, a_dims, b_dims)


def phi_s(parts: SimpleParts, parts_p: SimpleParts, phi_a: CMap, phi_b: CMap,
          h_f: CHomotopy) -> CMap:
    """The induced map s(f) -> s(f') of a square commuting up to the
    homotopy h_f from phi_B f to f' phi_A:

        phi_s^{m,n}(a, b) = (phi_A(a), phi_B^{m-1,n-1}(b) + h_f^{m,n-1}(a)).
    """
    comps = {}
    src, dst = parts.ccx, parts_p.ccx
    for m in src.indices():
        for n in dst.indices():
            if m > n:
                continue
            per = {}
            for k in src.cx(m).degrees():
                kk = k + n - m
                da = parts.a_dims.get((m, k), 0)
                db = parts.b_dims.get((m, k), 0)
                ta = parts_p.a_dims.get((n, kk), 0)
                tb = parts_p.b_dims.get((n, kk), 0)
                ent = {}
                for (r, c), v in phi_a.c(m, n, k).entries.items():
                    ent[(r, c)] = v
                for (r, c), v in phi_b.c(m - 1, n - 1, k).entries.items():
                    ent[(ta + r, da + c)] = v
                for (r, c), v in h_f.c(m, n - 1, k).entries.items():
                    ent[(ta + r, c)] = ent.get((ta + r, c), 0) + v
                mat = RatMatrix(ta + tb, da + db,
                                {kk2: v for kk2, v in ent.items() if v})
                if not mat.is_zero():
                    per[k] = mat
            if per:
                comps[(m, n)] = per
    return CMap(src, dst, comps)


def section_t(parts: SimpleParts, f: CMap, g: CMap, psi: CHomotopy):
    """The section construction: given g with a homotopy psi from Id_B to
    f g, the map t: A -> s(f),

       t^{m,n}(a) = (delta^{m,n}(a) - sum_l g^{l,n} f^{m,l}(a),
                     -sum_l psi^{l,n-1} f^{m,l}(a)),

    together with the homotopies psi_1 (from Id_{s(f)} to t p) and psi_2
    (from 0 to t g).  Returns (t, psi_1, psi_2)."""
    a, b = f.src, f.dst
    cone = parts.ccx
    gf = compose(g, f)
    comps = {}
    for m in a.indices():
        for n in cone.indices():
            if m > n:
                continue
            per = {}
            for k in a.cx(m).degrees():
                kk = k + n - m
                ta = parts.a_dims.get((n, kk), 0)
                tb = parts.b_dims.get((n, kk), 0)
                ent = {}
                top = gf.c(m, n, k).scale(-1)
                if m == n:
                    top = top + RatMatrix.identity(a.cx(m).dim(k))
                for (r, c), v in top.entries.items():
                    ent[(r, c)] = v
                bot = RatMatrix(tb, a.cx(m).dim(k))
                for l in b.indices():
                    if m <= l <= n:
                        bot = bot + psi.c(l, n - 1, k + l - m).mul(f.c(m, l, k))
                for (r, c), v in bot.scale(-1).entries.items():
                    ent[(ta + r, c)] = v
                mat = RatMatrix(ta + tb, a.cx(m).dim(k), ent)
                if not mat.is_zero():
                    per[k] = mat
            if per:
                comps[(m, n)] = per
    t = CMap(a, cone, comps)

    # psi_1^{m,n}(a, b) = (-g^{m-1,n}(b), -psi^{m-1,n-1}(b))
    p1 = {}
    for m in cone.indices():
        for n in cone.indices():
            if m > n + 1:
                continue
            per = {}
            for k in cone.cx(m).degrees():
                kk = k + n - m + 1
                da = parts.a_dims.get((m, k), 0)
                db = parts.b_dims.get((m, k), 0)
                ta = parts.a_dims.get((n, kk), 0)
                tb = parts.b_dims.get((n, kk), 0)
                ent = {}
                for (r, c), v in g.c(m - 1, n, k).entries.items():
                    ent[(r, da + c)] = -v
                for (r, c), v in psi.c(m - 1, n - 1, k).entries.items():
                    ent[(ta + r, da + c)] = -v
                mat = RatMatrix(ta + tb, da + db, ent)
                if not mat.is_zero():
                    per[k] = mat
            if per:
                p1[(m, n)] = per
    psi1 = CHomotopy(cone, cone, p1)

    # psi_2^{m,n}(b) = (-sum_l g^{l,n} psi^{m,l}(b), -sum_l psi^{l,n-1} psi^{m,l}(b))
    p2 = {}
    for m in b.indices():
        for n in cone.indices():
            if m > n + 1:
                continue
            per = {}
            for k in b.cx(m).degrees():
                kk = k + n - m + 1
                ta = parts.a_dims.get((n, kk), 0)
                tb = parts.b_dims.get((n, kk), 0)
                top = RatMatrix(ta, b.cx(m).dim(k))
                for l in b.indices():
                    top = top + g.c(l, n, k + l - m + 1).mul(psi.c(m, l, k))
                bot = RatMatrix(tb, b.cx(m).dim(k))
                for l in b.indices():
                    bot = bot + psi.c(l, n - 1, k + l - m + 1).mul(psi.c(m, l, k))
                ent = {}
                for (r, c), v in top.scale(-1).entries.items():
                    ent[(r, c)] = v
                for (r, c), v in bot.scale(-1).entries.items():
                    ent[(ta + r, c)] = v
                mat = RatMatrix(ta + tb, b.cx(m).dim(k), ent)
                if not mat.is_zero():
                    per[k] = mat
            if per:
                p2[(m, n)] = per
    psi2 = CHomotopy(b, cone, p2)
    return t, psi1, psi2


def pi_homotopy(parts_p: SimpleParts, f: CMap, theta: SecondHomotopy,
                h_f: CHomotopy, psi_p: CHomotopy, gp: CMap) -> CHomotopy:
    """The homotopy from phi_s t to t' phi_A induced by a second homotopy:

    Pi^{m,n}(a) = (-sum Phi_g^{l,n} f^{m,l}(a) - sum g'^{l,n} Phi_f^{m,l}(a),
                   -sum Psi'^{l,n-1} Phi_f^{m,l}(a) + sum Theta^{l,n-1} f^{m,l}(a)).
    """
    a = f.src
    cone_p = parts_p.ccx
    h_g = theta.h_g
    comps = {}
    for m in a.indices():
        for n in cone_p.indices():
            if m > n + 1:
                continue
            per = {}
            for k in a.cx(m).degrees():
                kk = k + n - m + 1
                ta = parts_p.a_dims.get((n, kk), 0)
                tb = parts_p.b_dims.get((n, kk), 0)
                top = RatMatrix(ta, a.cx(m).dim(k))
                for l in f.dst.indices():
                    top = top - h_g.c(l, n, k + l - m).mul(f.c(m, l, k))
                for l in h_f.dst.indices():
                    top = top - gp.c(l, n, k + l - m + 1).mul(h_f.c(m, l, k))
                bot = RatMatrix(tb, a.cx(m).dim(k))
                for l in h_f.dst.indices():
                    bot = bot - psi_p.c(l, n - 1, k + l - m + 1).mul(h_f.c(m, l, k))
                for l in f.dst.indices():
                    bot = bot + theta.c(l, n - 1, k + l - m).mul(f.c(m, l, k))
                ent = {}
                for (r, c), v in top.entries.items():
                    ent[(r, c)] = v
                for (r, c), v in bot.entries.items():
                    ent[(ta + r, c)] = v
                mat = RatMatrix(ta + tb, a.cx(m).dim(k), ent)
                if not mat.is_zero():
                    per[k] = mat
            if per:
                comps[(m, n)] = per
    return CHomotopy(a, cone_p, comps)


# -- simple complex of a diagram ---------------------------------------

def diagram_simple(a1: ChainComplex, b1: ChainComplex, a2: ChainComplex,
                   b2: ChainComplex, f1: dict, g1: dict, f2: dict) -> ChainComplex:
    """The simple complex of the diagram A1 -f1-> B1 <-g1- A2 -f2-> B2:

        s(D)_n = A1_n (+) A2_n (+) B1_{n+1} (+) B2_{n+1}
        d(a1, a2, b1, b2) = (d a1, d a2, f1(a1) - g1(a2) - d b1, f2(a2) - d b2)

    The chain maps are given per degree as dicts degree -> RatMatrix.
    """
    def comp(maps, src, dst, k):
        m = maps.get(k)
        if m is None:
            return RatMatrix(dst.dim(k), src.dim(k))
        return m

    for maps, src, dst in ((f1, a1, b1), (g1, a2, b1), (f2, a2, b2)):
        for k, m in maps.items():
            if m.rows != dst.dim(k) or m.cols != src.dim(k):
                raise ValueError("chain map shape mismatch at degree %d" % k)
            lhs = comp(maps, src, dst, k - 1).mul(src.d(k))
            rhs = dst.d(k).mul(m)
            if lhs != rhs:
                raise ValueError("not a chain map at degree %d" % k)

    degs = set(a1.dims) | set(a2.dims) | {k - 1 for k in b1.dims} | {k - 1 for k in b2.dims}
    if not degs:
        return ChainComplex({}, {})
    dims = {}
    for n in range(min(degs), max(degs) + 1):
        dims[n] = a1.dim(n) + a2.dim(n) + b1.dim(n + 1) + b2.dim(n + 1)
    bnd = {}
    for n in sorted(dims):
        if n - 1 not in dims and dims.get(n, 0):
            bnd[n] = RatMatrix(0, dims[n])
            continue
        if n - 1 not in dims:
            continue
        o_src = (0, a1.dim(n), a1.dim(n) + a2.dim(n),
                 a1.dim(n) + a2.dim(n) + b1.dim(n + 1))
        o_dst = (0, a1.dim(n - 1), a1.dim(n - 1) + a2.dim(n - 1),
                 a1.dim(n - 1) + a2.dim(n - 1) + b1.dim(n))
        ent = {}

        def put(block_r, block_c, mat, sign=1):
            for (r, c), v in mat.entries.items():
                key = (o_dst[block_r] + r, o_src[block_c] + c)
                ent[key] = ent.get(key, 0) + sign * v

        put(0, 0, a1.d(n))
        put(1, 1, a2.d(n))
        put(2, 0, comp(f1, a1, b1, n))
        put(2, 1, comp(g1, a2, b1, n), -1)
        put(2, 2, b1.d(n + 1), -1)
        put(3, 1, comp(f2, a2, b2, n))
        put(3, 3, b2.d(n + 1), -1)
        bnd[n] = RatMatrix(dims[n - 1], dims[n],
                           {k: v for k, v in ent.items() if v})
    return ChainComplex(dims, bnd)


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
    sd = diagram_simple(a1, b1, a2, b2, f1, g1, f2)
    lo, hi = interior

    def comp(maps, src, dst, k):
        m = maps.get(k)
        if m is None:
            return RatMatrix(dst.dim(k), src.dim(k))
        return m

    # quotient C: A1 (+) A2 (+) B1[-1] with the induced boundary
    cdims = {}
    degs = set(a1.dims) | set(a2.dims) | {k - 1 for k in b1.dims}
    if degs:
        for n in range(min(degs), max(degs) + 1):
            cdims[n] = a1.dim(n) + a2.dim(n) + b1.dim(n + 1)
    cbnd = {}
    for n in sorted(cdims):
        if n - 1 not in cdims:
            if cdims.get(n):
                cbnd[n] = RatMatrix(0, cdims[n])
            continue
        o_src = (0, a1.dim(n), a1.dim(n) + a2.dim(n))
        o_dst = (0, a1.dim(n - 1), a1.dim(n - 1) + a2.dim(n - 1))
        ent = {}

        def put(br, bc, mat, sign=1):
            for (r, c), v in mat.entries.items():
                key = (o_dst[br] + r, o_src[bc] + c)
                ent[key] = ent.get(key, 0) + sign * v

        put(0, 0, a1.d(n))
        put(1, 1, a2.d(n))
        put(2, 0, comp(f1, a1, b1, n))
        put(2, 1, comp(g1, a2, b1, n), -1)
        put(2, 2, b1.d(n + 1), -1)
        cbnd[n] = RatMatrix(cdims[n - 1], cdims[n], {k: v for k, v in ent.items() if v})
    cx = ChainComplex(cdims, cbnd)

    h_sd = sd.homology()
    h_c = cx.homology()
    h_a1 = a1.homology()

    # chain maps: u: B2[-1] -> s(D); v: s(D) -> C; q: C -> A1
    def rank_u(n):
        src_dim = b2.dim(n + 1)
        off = a1.dim(n) + a2.dim(n) + b1.dim(n + 1)
        mat = RatMatrix(sd.dim(n), src_dim, {(off + i, i): Fraction(1) for i in range(src_dim)})
        return induced_homology_rank(mat, b2.d(n + 1).scale(-1), None, sd.d(n), sd.d(n + 1))

    def rank_v(n):
        keep = a1.dim(n) + a2.dim(n) + b1.dim(n + 1)
        mat = RatMatrix(cx.dim(n), sd.dim(n),
                        {(i, i): Fraction(1) for i in range(keep)})
        return induced_homology_rank(mat, sd.d(n), sd.d(n + 1), cx.d(n), cx.d(n + 1))

    def rank_q(n):
        mat = RatMatrix(a1.dim(n), cx.dim(n),
                        {(i, i): Fraction(1) for i in range(a1.dim(n))})
        return induced_homology_rank(mat, cx.d(n), cx.d(n + 1), a1.d(n), a1.d(n + 1))

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
