"""Seeded random instances: matrices, cubes, chain complexes, C-complexes.

Every generator takes an explicit ``random.Random`` so suite reports are
reproducible from their seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .ccx import (CComplex, ChainComplex, CHomotopy, CMap, _assemble,
                  _slot_complex, cmap_add, compose, homotopy_defect,
                  identity_cmap, simple, single_complex)
from .cubes import ExactCube, MetObj, object_cube, one_cube, tensor_cube
from .exactlin import RatMatrix, ZERO_OBJ, inverse


def rnd_fraction(rng: random.Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rnd_matrix(rng: random.Random, rows: int, cols: int, density: float = 0.7) -> RatMatrix:
    ent = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rnd_fraction(rng)
                if v != 0:
                    ent[(r, c)] = v
    return RatMatrix(rows, cols, ent)


def rnd_invertible(rng: random.Random, n: int) -> RatMatrix:
    lo = {(i, i): 1 for i in range(n)}
    up = {(i, i): 1 for i in range(n)}
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.6:
                lo[(i, j)] = rnd_fraction(rng)
            if rng.random() < 0.6:
                up[(j, i)] = rnd_fraction(rng)
    perm = list(range(n))
    rng.shuffle(perm)
    pm = RatMatrix(n, n, {(perm[i], i): 1 for i in range(n)})
    return pm.mul(RatMatrix(n, n, lo)).mul(RatMatrix(n, n, up))


def rnd_gram(rng: random.Random, n: int) -> RatMatrix:
    a = rnd_matrix(rng, n, n, density=0.5)
    return a.transpose().mul(a) + RatMatrix.identity(n)


def rnd_metobj(rng: random.Random, max_dim: int = 3, with_gram=None) -> MetObj:
    d = rng.randint(0, max_dim)
    if d == 0:
        return ZERO_OBJ
    if with_gram is None:
        with_gram = rng.random() < 0.5
    return MetObj(d, rnd_gram(rng, d) if with_gram else None, check=False)


def rnd_one_cube(rng: random.Random, max_dim: int = 3, with_gram: bool = False) -> ExactCube:
    a = rng.randint(0, max_dim)
    c = rng.randint(0 if a else 1, max_dim)
    u = rnd_invertible(rng, a + c)
    uinv = inverse(u)
    inj = RatMatrix(a + c, a, {(r, k): u[(r, k)] for r in range(a + c)
                               for k in range(a) if u[(r, k)] != 0})
    surj = RatMatrix(c, a + c, {(r - a, k): uinv[(r, k)] for r in range(a, a + c)
                                for k in range(a + c) if uinv[(r, k)] != 0})
    mk = (lambda n: MetObj(n, rnd_gram(rng, n) if (with_gram and n) else None,
                           check=False))
    return one_cube(mk(a), mk(a + c), mk(c), inj, surj)


def rnd_cube(rng: random.Random, n: int, max_dim: int = 2,
             with_gram: bool = False) -> ExactCube:
    """A random nondegenerate exact n-cube (tensor product of random exact
    one-cubes); degenerate draws are rerolled."""
    if n == 0:
        d = rng.randint(1, max_dim + 1)
        return object_cube(MetObj(d, rnd_gram(rng, d) if with_gram else None,
                                  check=False))
    for _ in range(50):
        cube = rnd_one_cube(rng, max_dim=max_dim, with_gram=with_gram)
        for _ in range(n - 1):
            cube = tensor_cube(cube, rnd_one_cube(rng, max_dim=max_dim,
                                                  with_gram=with_gram))
        if not cube.is_degenerate():
            return cube
    raise RuntimeError("could not draw a nondegenerate cube")


def rnd_chain_complex(rng: random.Random, degs=(0, 3), maxdim: int = 3) -> ChainComplex:
    """A random complex with exactly controllable ranks: a split model
    conjugated by random invertibles, so the boundary squares to zero."""
    lo, hi = degs
    dims = {n: rng.randint(0, maxdim) for n in range(lo, hi + 1)}
    rks = {}
    for n in range(lo + 1, hi + 1):
        cap = min(dims.get(n - 1, 0) - rks.get(n - 1, 0), dims.get(n, 0))
        rks[n] = rng.randint(0, max(0, cap))
    bnd = {}
    base = {n: rnd_invertible(rng, dims.get(n, 0)) for n in range(lo, hi + 1)}
    for n in range(lo + 1, hi + 1):
        ent = {(i, dims[n] - rks[n] + i): 1 for i in range(rks[n])}
        m = RatMatrix(dims.get(n - 1, 0), dims.get(n, 0), ent)
        bnd[n] = base[n - 1].mul(m).mul(inverse(base[n]))
    return ChainComplex(dims, bnd)


def rnd_homotopy_comps(rng: random.Random, src: CComplex, dst: CComplex,
                       density: float = 0.4, allow_corner: bool = False) -> dict:
    """Random homotopy-shaped components; by default only m <= n, so the
    homotopy defect is a map of C-complexes."""
    comps = {}
    for m in src.indices():
        for n in dst.indices():
            if m > (n + 1 if allow_corner else n):
                continue
            per = {}
            for k in src.cx(m).degrees():
                rows = dst.cx(n).dim(k + n - m + 1)
                cols = src.cx(m).dim(k)
                if rows and cols and rng.random() < density:
                    per[k] = rnd_matrix(rng, rows, cols, density=0.5)
            if per:
                comps[(m, n)] = per
    return comps


def rnd_cmap(rng: random.Random, a: CComplex, b: CComplex) -> CMap:
    """A random (null-homotopic) map of C-complexes."""
    return homotopy_defect(a, b, rnd_homotopy_comps(rng, a, b))


def rnd_ccomplex(rng: random.Random, steps=(0, 2)) -> CComplex:
    """A random C-complex: iterated mapping cones over random maps."""
    a = single_complex(rnd_chain_complex(rng), 0)
    for _ in range(rng.randint(*steps)):
        b = single_complex(rnd_chain_complex(rng), 0)
        a = simple(rnd_cmap(rng, a, b)).ccx
    return a


def direct_sum_ccomplex(b: CComplex, e: CComplex) -> CComplex:
    """B (+) E, with B's basis first in every index and degree."""
    comps = {m: _slot_complex([(b.cx(m), 0), (e.cx(m), 0)],
                              [(0, 0, b.cx(m).d, 1), (1, 1, e.cx(m).d, 1)])
             for m in set(b.complexes) | set(e.complexes)}
    fm = {}
    for (m, n) in set(b.fmaps) | set(e.fmaps):
        per = {}
        for kk in set(b.fmaps.get((m, n), {})) | set(e.fmaps.get((m, n), {})):
            tgt = kk + n - m - 1
            per[kk] = _assemble(b.cx(n).dim(tgt) + e.cx(n).dim(tgt),
                                b.cx(m).dim(kk) + e.cx(m).dim(kk),
                                [(0, 0, b.f(m, n, kk), 1),
                                 (b.cx(n).dim(tgt), b.cx(m).dim(kk),
                                  e.f(m, n, kk), 1)])
        fm[(m, n)] = per
    return CComplex(comps, fm)


def rnd_exchange_square(rng: random.Random):
    """A homotopy-commuting square: maps f: A -> B, fp: Ap -> Bp, columns
    pa: A -> Ap, pb: B -> Bp, and a homotopy phi from pb f to fp pa."""
    a, b = rnd_ccomplex(rng), rnd_ccomplex(rng)
    ap, bp = rnd_ccomplex(rng), rnd_ccomplex(rng)
    f = rnd_cmap(rng, a, b)
    fp = rnd_cmap(rng, ap, bp)
    h2 = rnd_homotopy_comps(rng, b, bp)
    pb = homotopy_defect(b, bp, h2)
    hp = rnd_homotopy_comps(rng, a, ap)
    pa = homotopy_defect(a, ap, hp)
    phi = cmap_add(compose(fp, CHomotopy(a, ap, hp)),
                   compose(CHomotopy(b, bp, h2), f), scale_g=-1)
    return a, b, ap, bp, f, fp, pa, pb, phi


def _put_eqs(eqs, row0, cols, slot, mat, sign, right=False):
    """Add the coefficients of sign * mat @ Th (sign * Th @ mat when
    ``right``) to the equations from row0 on, each holding one entry of a
    block with ``cols`` columns; Th is the unknown block at ``slot``, a
    (column offset, rows, cols) triple, or None for no unknown."""
    if slot is None:
        return
    off, trows, tcols = slot
    for (p, q), v in mat.items():
        if right:
            # eq(t, q) += sign * Th[t, p] * mat[p, q]
            r0, c0, rstep, cstep, count = row0 + q, off + p, cols, tcols, trows
        else:
            # eq(p, t) += sign * mat[p, q] * Th[q, t]
            r0, c0, rstep, cstep, count = row0 + p * cols, off + q * tcols, 1, 1, tcols
        w = sign * v
        for t in range(count):
            key = (r0 + t * rstep, c0 + t * cstep)
            eqs[key] = eqs.get(key, 0) + w


def solve_second_homotopy(f, g, fp, gp, phi_a, phi_b, h_f, h_g, psi, psi_p):
    """An explicit second homotopy for the given gadgets, found by solving
    the defining relation exactly; returns the SecondHomotopy or None when
    the residual is not a boundary in the mediating degree."""
    from .ccx import (SecondHomotopy, check_second_homotopy,
                      second_homotopy_target)
    from .exactlin import solve
    b = g.src
    bp = phi_b.dst
    win = sorted(set(b.indices()) | set(bp.indices())
                 | set(g.dst.indices()))
    if win:
        win = list(range(min(win), max(win) + 1))
    # unknown layout: one block per (m, n, k) with m <= n + 2
    offs = {}
    total = 0
    for m in b.indices():
        for n in bp.indices():
            if m > n + 2:
                continue
            for k in b.cx(m).degrees():
                rows = bp.cx(n).dim(k + n - m + 2)
                cols = b.cx(m).dim(k)
                if rows and cols:
                    offs[(m, n, k)] = (total, rows, cols)
                    total += rows * cols
    target = second_homotopy_target(g, fp, phi_b, h_f, h_g, psi, psi_p)
    eqs = {}
    rhsv = {}
    eqcount = 0
    for m in b.indices():
        for n in bp.indices():
            if m > n + 2:
                continue
            for k in b.cx(m).degrees():
                cols = b.cx(m).dim(k)
                if not cols:
                    continue
                # relation evaluated in degree shift +1 relative to Theta:
                # (-1)^n d Th^{m,n}[k] + sum F Th^{m,l}[k]
                # - (-1)^m Th^{m,n}[k-1] d - sum Th^{l,n}[k+l-m-1] F = R
                rdim = bp.cx(n).dim(k + n - m + 1)
                if not rdim:
                    continue
                for (rr, cc), v in target.c(m, n, k).items():
                    rhsv[(eqcount + rr * cols + cc, 0)] = v
                eq_block = (eqs, eqcount, cols)
                _put_eqs(*eq_block, offs.get((m, n, k)),
                         bp.cx(n).d(k + n - m + 2), (-1) ** (n % 2))
                for l in win:
                    if l < n:
                        _put_eqs(*eq_block, offs.get((m, l, k)),
                                 bp.f(l, n, k + l - m + 2), 1)
                _put_eqs(*eq_block, offs.get((m, n, k - 1)), b.cx(m).d(k),
                         -((-1) ** (m % 2)), right=True)
                for l in win:
                    if l > m:
                        _put_eqs(*eq_block, offs.get((l, n, k + l - m - 1)),
                                 b.f(m, l, k), -1, right=True)
                eqcount += rdim * cols
    mat = RatMatrix(eqcount, total, {k: v for k, v in eqs.items() if v})
    rhs = RatMatrix(eqcount, 1, rhsv)
    sol = solve(mat, rhs)
    if sol is None:
        return None
    comps = {}
    for (m, n, k), (off, rows, cols) in offs.items():
        ent = {}
        for rr in range(rows):
            for cc in range(cols):
                v = sol[(off + rr * cols + cc, 0)]
                if v != 0:
                    ent[(rr, cc)] = v
        if ent:
            comps.setdefault((m, n), {})[k] = RatMatrix(rows, cols, ent)
    theta = SecondHomotopy(comps, f, g, fp, gp, phi_a, phi_b, h_f, h_g,
                           psi, psi_p)
    rep = check_second_homotopy(theta)
    return theta if rep["ok"] else None


def rnd_retraction(rng: random.Random):
    """A random section setup: f: A -> B with g: B -> A and a homotopy psi
    from the identity of B to f g; returns (A, B, f, g, psi)."""
    b = rnd_ccomplex(rng)
    e = rnd_ccomplex(rng)
    a = direct_sum_ccomplex(b, e)
    fc, gc = {}, {}
    for m in a.indices():
        perf, perg = {}, {}
        for kk in a.cx(m).degrees():
            db = b.cx(m).dim(kk)
            if db:
                perf[kk] = RatMatrix(db, a.cx(m).dim(kk),
                                     {(i, i): 1 for i in range(db)})
                perg[kk] = RatMatrix(a.cx(m).dim(kk), db,
                                     {(i, i): 1 for i in range(db)})
        if perf:
            fc[(m, m)] = perf
        if perg:
            gc[(m, m)] = perg
    fmap = CMap(a, b, fc)
    gmap = CMap(b, a, gc)
    h = rnd_homotopy_comps(rng, b, a)
    g2 = cmap_add(gmap, homotopy_defect(b, a, h))
    psi = compose(fmap, CHomotopy(b, a, h))
    return a, b, fmap, g2, psi


def rnd_second_homotopy_setup(rng: random.Random):
    """A full cast for the mediating-homotopy relation: a retraction with
    identity-perturbed columns, the induced exchange homotopies, and an
    explicitly solved second homotopy.  Returns a dict of the gadgets, or
    None when the linear solve happens to be obstructed."""
    a, b, f, g, psi = rnd_retraction(rng)
    h1 = rnd_homotopy_comps(rng, a, a, density=0.3)
    h2 = rnd_homotopy_comps(rng, b, b, density=0.3)
    phi_a = cmap_add(identity_cmap(a), homotopy_defect(a, a, h1))
    phi_b = cmap_add(identity_cmap(b), homotopy_defect(b, b, h2))
    # exchange homotopies from phi_B f to f phi_A and from phi_A g to g phi_B
    h_f = cmap_add(compose(f, CHomotopy(a, a, h1)),
                   compose(CHomotopy(b, b, h2), f), scale_g=-1)
    h_g = cmap_add(compose(g, CHomotopy(b, b, h2)),
                   compose(CHomotopy(a, a, h1), g), scale_g=-1)
    theta = solve_second_homotopy(f, g, f, g, phi_a, phi_b, h_f, h_g, psi, psi)
    if theta is None:
        return None
    return {"A": a, "B": b, "f": f, "g": g, "psi": psi,
            "phi_a": phi_a, "phi_b": phi_b, "h_f": h_f, "h_g": h_g,
            "theta": theta}
