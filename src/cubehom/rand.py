"""Seeded random instances: matrices, cubes, chain complexes, C-complexes.

Every generator takes an explicit ``random.Random`` so suite reports are
reproducible from their seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .ccx import (CComplex, CFamily, ChainComplex, CHomotopy, CMap,
                  _assemble, _keys, cmap_add, compose,
                  homotopy_defect, identity_cmap, second_homotopy_target,
                  simple, single_complex)
from .cubes import ExactCube, MetObj, object_cube, one_cube, tensor_cube
from .exactlin import RatMatrix, ZERO_OBJ, inverse, solve


def rnd_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def rnd_matrix(rng: random.Random, rows: int, cols: int, density: float = 0.7) -> RatMatrix:
    ent = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rnd_fraction(rng)
                if v != 0:
                    ent[(r, c)] = v
    return RatMatrix(rows, cols, ent)


def _invertible_draws(rng: random.Random, n: int):
    """The draws of ``rnd_invertible``, in order: for each (i, j) with
    j < i, ``random()`` for L's entry (i, j), then ``randint(-3, 3)`` and
    ``randint(1, 3)`` when it is kept, and the same for U's entry (j, i);
    then a shuffle of range(n).  Returns L's and U's kept entries as
    numerators over 6 (a drawn zero kept as 0) and the shuffled list."""
    rand, randint = rng.random, rng.randint
    lo, up = {}, {}
    for i in range(n):
        for j in range(i):
            if rand() < 0.6:
                lo[(i, j)] = randint(-3, 3) * (6 // randint(1, 3))
            if rand() < 0.6:
                up[(j, i)] = randint(-3, 3) * (6 // randint(1, 3))
    perm = list(range(n))
    rng.shuffle(perm)
    return lo, up, perm


def _invertible(n: int, lo: dict, up: dict, perm: list) -> RatMatrix:
    """P L U for the draws of ``_invertible_draws``: L and U unitriangular
    with those entries, and P moving row i to row perm[i].  P L is L with
    its rows moved, so one product builds the matrix."""
    pl = {}
    for i in range(n):
        row = perm[i]
        pl[(row, i)] = 6
        for j in range(i):
            v = lo.get((i, j))
            if v:
                pl[(row, j)] = v
    u = {(i, i): 6 for i in range(n)}
    u.update(up)
    return RatMatrix.from_num(n, n, pl, 6).mul(RatMatrix.from_num(n, n, u, 6))


def rnd_invertible(rng: random.Random, n: int) -> RatMatrix:
    """A random invertible n x n matrix P L U: L lower and U upper
    unitriangular, each entry off the diagonal kept with probability 0.6
    and drawn as ``rnd_fraction``, and P a shuffle of the rows.  The draws
    are those of ``_invertible_draws``; the matrix is one product of
    integer numerators."""
    return _invertible(n, *_invertible_draws(rng, n))


def rnd_gram(rng: random.Random, n: int) -> RatMatrix:
    a = rnd_matrix(rng, n, n, density=0.5)
    return a.transpose().mul(a) + RatMatrix.identity(n)


def rnd_metobj(rng: random.Random) -> MetObj:
    """A random object of dimension at most 2 with a random Gram form."""
    d = rng.randint(0, 2)
    return MetObj(d, rnd_gram(rng, d), check=False) if d else ZERO_OBJ


def _block(m: RatMatrix, rows: range, cols: range, top: int) -> RatMatrix:
    """The block of m on ``rows`` and ``cols``, its rows renumbered from
    ``top``, entries read row by row."""
    num, ent = m.num, {}
    for r in rows:
        for k in cols:
            v = num.get((r, k))
            if v:
                ent[(r - top, k)] = v
    return RatMatrix.from_num(len(rows), len(cols), ent, m.den)


def rnd_one_cube(rng: random.Random, max_dim: int = 3, with_gram: bool = False) -> ExactCube:
    """A random one-cube a -> a + c -> c (a + c >= 1): the first a columns
    of an invertible u and the last c rows of u^-1."""
    a = rng.randint(0, max_dim)
    c = rng.randint(0 if a else 1, max_dim)
    u = rnd_invertible(rng, a + c)
    inj = _block(u, range(a + c), range(a), 0)
    surj = _block(inverse(u), range(a, a + c), range(a + c), a)
    mk = (lambda n: MetObj(n, rnd_gram(rng, n) if (with_gram and n) else None,
                           check=False))
    return one_cube(mk(a), mk(a + c), mk(c), inj, surj)


def rnd_cube(rng: random.Random, n: int, max_dim: int = 2,
             with_gram: bool = False) -> ExactCube:
    """A random nondegenerate exact n-cube (tensor product of random exact
    one-cubes); degenerate draws are rerolled.  A product is degenerate
    iff one of its factors is, so a draw is tested on its factors before
    the product is assembled."""
    if n == 0:
        d = rng.randint(1, max_dim + 1)
        return object_cube(MetObj(d, rnd_gram(rng, d) if with_gram else None,
                                  check=False))
    for _ in range(50):
        factors = [rnd_one_cube(rng, max_dim=max_dim, with_gram=with_gram)
                   for _ in range(n)]
        if any(f.is_degenerate() for f in factors):
            continue
        cube = factors[0]
        for f in factors[1:]:
            cube = tensor_cube(cube, f)
        return cube
    raise RuntimeError("could not draw a nondegenerate cube")


def rnd_chain_complex(rng: random.Random, degs=(0, 3), maxdim: int = 3) -> ChainComplex:
    """A random complex with exactly controllable ranks: a split model
    conjugated by random invertibles, so the boundary squares to zero.

    Draws, in order: the dimension of each degree, the rank of each
    boundary, and the draws of an invertible base B_n of each degree
    (``_invertible_draws``).  The boundary of rank r into degree n - 1 is
    B_{n-1} E B_n^-1, E taking the last r basis vectors of degree n to
    the first r of degree n - 1, so B_{n-1} E is a block of columns of
    B_{n-1}.  A boundary of rank 0 is zero and built not at all; a base
    is built when a nonzero boundary reads it, once."""
    lo, hi = degs
    dims = {n: rng.randint(0, maxdim) for n in range(lo, hi + 1)}
    rks = {}
    for n in range(lo + 1, hi + 1):
        cap = min(dims.get(n - 1, 0) - rks.get(n - 1, 0), dims.get(n, 0))
        rks[n] = rng.randint(0, max(0, cap))
    draws = {n: _invertible_draws(rng, dims[n]) for n in range(lo, hi + 1)}
    base = {}

    def basis(n):
        out = base.get(n)
        if out is None:
            out = base[n] = _invertible(dims[n], *draws[n])
        return out

    bnd = {}
    for n in range(lo + 1, hi + 1):
        rk = rks[n]
        if rk:
            b, off = basis(n - 1), dims[n] - rk
            cols = RatMatrix.from_num(dims[n - 1], dims[n], {
                (r, off + k): v for (r, k), v in b.num.items() if k < rk},
                b.den)
            bnd[n] = cols.mul(inverse(basis(n)))
    return ChainComplex(dims, bnd)


def rnd_homotopy_comps(rng: random.Random, src: CComplex, dst: CComplex,
                       density: float = 0.4) -> dict:
    """Random homotopy-shaped components supported on m <= n, so the
    homotopy defect is a map of C-complexes."""
    comps = {}
    for m, n, k in _keys(src, dst, 0):
        rows = dst.cx(n).dim(k + n - m + 1)
        cols = src.cx(m).dim(k)
        if rows and cols and rng.random() < density:
            comps.setdefault((m, n), {})[k] = rnd_matrix(rng, rows, cols,
                                                         density=0.5)
    return comps


def rnd_cmap(rng: random.Random, a: CComplex, b: CComplex) -> CMap:
    """A random (null-homotopic) map of C-complexes."""
    return homotopy_defect(a, b, rnd_homotopy_comps(rng, a, b))


def rnd_ccomplex(rng: random.Random, steps=(0, 2)) -> CComplex:
    """A random C-complex: iterated mapping cones over random maps."""
    a = single_complex(rnd_chain_complex(rng))
    for _ in range(rng.randint(*steps)):
        b = single_complex(rnd_chain_complex(rng))
        a = simple(rnd_cmap(rng, a, b)).ccx
    return a


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


def solve_second_homotopy(target: CHomotopy):
    """A second homotopy Theta with D(Theta) = target, found by solving the
    relation exactly: a family B -> B' of reach 2 for a target B -> B' of
    reach 1 (``ccx.second_homotopy_target``), or None when the target is
    not a boundary in the mediating degree.

    The unknowns are the entries of each Theta^{m,n}_k, row by row; a
    defect term sign * L Theta R is the block sign * (L kron R^T) of the
    linear system."""
    b, bp = target.src, target.dst
    unknowns, total = {}, 0
    for m, n, k in _keys(b, bp, 2):
        rows, cols = bp.cx(n).dim(k + n - m + 2), b.cx(m).dim(k)
        if rows and cols:
            unknowns.setdefault((m, n), {})[k] = (total, rows, cols)
            total += rows * cols
    eqs, rhsv, eqcount = {}, {}, 0
    for m, n, k in _keys(b, bp, 2):
        rows, cols = bp.cx(n).dim(k + n - m + 1), b.cx(m).dim(k)
        if not (rows and cols):
            continue
        eqs[(m, n, k)] = eqcount
        mat = target.get(m, n, k)
        for (rr, cc), v in (() if mat is None else mat.items()):
            rhsv[(eqcount + rr * cols + cc, 0)] = v
        eqcount += rows * cols
    blocks = []
    for sign, key, left, (off, trows, tcols), right in CFamily(
            b, bp, {}, 2).defect_terms(unknowns):
        if left is None:
            left = RatMatrix.identity(trows)
        if right is None:
            right = RatMatrix.identity(tcols)
        blocks.append((eqs[key], off, left.kron(right.transpose()), sign))
    sol = solve(_assemble(eqcount, total, blocks), RatMatrix(eqcount, 1, rhsv))
    if sol is None:
        return None
    comps = {}
    for (m, n), per in unknowns.items():
        for k, (off, rows, cols) in per.items():
            ent = {}
            for rr in range(rows):
                for cc in range(cols):
                    v = sol[(off + rr * cols + cc, 0)]
                    if v != 0:
                        ent[(rr, cc)] = v
            if ent:
                comps.setdefault((m, n), {})[k] = RatMatrix(rows, cols, ent)
    theta = CFamily(b, bp, comps, 2)
    return theta if theta.compare_defect(target)["ok"] else None


def rnd_retraction(rng: random.Random):
    """A random section setup: f: A -> B with g: B -> A and a homotopy psi
    from the identity of B to f g; returns (A, B, f, g, psi).  A is B (+) E,
    the cone of the zero map B -> E[1], f is its projection to B, and g is
    the transpose of f plus a null-homotopic map."""
    b = rnd_ccomplex(rng)
    e = rnd_ccomplex(rng)
    fmap = simple(CMap(b, e.shift(1), {})).proj
    a = fmap.src
    gmap = CMap(b, a, {(m, n): {k: mat.transpose() for k, mat in per.items()}
                       for (m, n), per in fmap.comps.items() if m == n})
    h = rnd_homotopy_comps(rng, b, a)
    g2 = cmap_add(gmap, homotopy_defect(b, a, h))
    psi = compose(fmap, CHomotopy(b, a, h))
    return a, b, fmap, g2, psi


def rnd_second_homotopy_setup(rng: random.Random):
    """A full cast for the mediating-homotopy relation: a retraction with
    identity-perturbed columns, the induced exchange homotopies, the target
    of the relation and an explicitly solved second homotopy.  Returns a
    dict of the gadgets, or None when the linear solve happens to be
    obstructed."""
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
    target = second_homotopy_target(g, f, phi_b, h_f, h_g, psi, psi)
    theta = solve_second_homotopy(target)
    if theta is None:
        return None
    return {"A": a, "B": b, "f": f, "g": g, "psi": psi,
            "phi_a": phi_a, "phi_b": phi_b, "h_f": h_f, "h_g": h_g,
            "target": target, "theta": theta}
