"""Shared random generators for the test suite (package re-exports), the
check of the stored form of a matrix, small builders and readers of
matrices and cubes that only the tests use, the chain-form oracle of
``multirel.materialize_operator``, the every-member oracles of
``cubes.canonical`` and ``multirel.close_span_generic`` with the
equivariance check the closure rests on, the plain-against-alternating
relations that make the signs of ``cubes.canonical`` load-bearing, and
the closure-driven oracles of the gathered cube constructions and of the
random generators, the hand-written component closures of the cone
constructions of ``ccx`` that its block families replace, and the
zero-filled family algebra (composites, C-complex validation, defects and
their comparison at every key) that ``ccx`` replaced with products over
present components."""

import math
import random
from fractions import Fraction
from functools import partial
from itertools import permutations

from cubehom import ccx

from cubehom.cubes import (ExactCube, act_sym, arrow_keys, boundary_cube,
                           one_cube, vertex_indices)
from cubehom.exactlin import (MetObj, RatMatrix, ZERO_OBJ, inverse, rat_str,
                              tensor_obj)
from cubehom.multirel import (GeomView, LevelChain, MorphView, Span, Tower,
                              _op_image_seeds, closed_model, levelwise,
                              materialize_ccomplex, materialize_operator,
                              op_homotopy, op_pullback)
from cubehom.signs import perm_sign
from cubehom.rand import (rnd_chain_complex, rnd_cmap, rnd_ccomplex, rnd_cube,
                          rnd_fraction, rnd_gram, rnd_homotopy_comps,
                          rnd_invertible, rnd_matrix, rnd_metobj,
                          rnd_one_cube, rnd_retraction)

__all__ = [
    "rnd_chain_complex", "rnd_cmap", "rnd_ccomplex",
    "rnd_cube", "rnd_fraction", "rnd_gram", "rnd_homotopy_comps",
    "rnd_invertible", "rnd_matrix", "rnd_metobj", "rnd_one_cube",
    "rnd_retraction", "normal", "cube_parts", "from_rows", "to_dense",
    "to_json_obj", "zero_cube", "chain_form_components",
    "orbit_signs", "close_span_every_member", "equivariance_witness",
    "plain_against_alternating", "rho_oracle", "degeneracy_oracle",
    "tensor_cube_oracle", "rnd_invertible_oracle", "rnd_one_cube_oracle",
    "rnd_chain_complex_oracle", "ConeOracle", "phi_s_oracle",
    "section_t_oracle", "pi_homotopy_oracle", "cmap_add_oracle",
    "zero_filled", "compare_defect_oracle", "homotopy_validate_oracle",
    "family", "compose_terms", "composite_oracle", "compose_oracle",
    "validate_oracle", "defect_oracle",
]


def normal(m):
    """m, after asserting that it is stored in normal form: nonzero
    in-bounds int numerators over one positive int denominator, in lowest
    terms, and den == 1 for the zero matrix."""
    assert type(m.den) is int and m.den > 0
    assert all(type(v) is int and v for v in m.num.values())
    assert all(0 <= r < m.rows and 0 <= c < m.cols for r, c in m.num)
    assert math.gcd(m.den, *m.num.values()) == 1
    assert m.num or m.den == 1
    return m


def cube_parts(cube):
    """The vertex and arrow dicts of ``cube``, keyed by index as the
    ``ExactCube`` constructor takes them, read through its accessors."""
    return ({a: cube.vertex(a) for a in vertex_indices(cube.n)},
            {(j, a): cube.arrow(j, a) for j, a in arrow_keys(cube.n)})


def from_rows(rows_data):
    """The matrix with the given rows (lists of exact entries)."""
    rows_data = [list(r) for r in rows_data]
    cols = len(rows_data[0]) if rows_data else 0
    if any(len(row) != cols for row in rows_data):
        raise ValueError("ragged rows")
    return RatMatrix(len(rows_data), cols,
                     {(i, j): v for i, row in enumerate(rows_data)
                      for j, v in enumerate(row)})


def to_dense(m):
    """m as a list of rows of Fractions."""
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.items():
        out[r][c] = v
    return out


def to_json_obj(m):
    """m in the matrix format of the ``homology`` input file (README
    "File formats"), entries sorted by position."""
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[r, c, rat_str(v)] for (r, c), v in sorted(m.items())]}


def zero_cube(n):
    """The interned n-cube with every vertex zero."""
    return ExactCube(n, {a: ZERO_OBJ for a in vertex_indices(n)},
                     {k: RatMatrix.zero(0, 0) for k in arrow_keys(n)}).intern()


def chain_form_components(src_model, dst_model, op, reach):
    """The components ``materialize_operator(src_model, dst_model, op,
    reach)`` should return, worked out one basis chain at a time through
    the chain form: op(m, n, LevelChain.of(level, basis chain)), then Alt
    where the destination alternates (not on a C-complex's own boundary),
    then the destination's ``coords`` of each level of the image."""
    comps = {}
    if not src_model.span.index:
        return comps
    r = len(src_model.g.marks)
    dmax = max(deg for (_, deg) in src_model.span.index)
    for m in range(r + 1):
        for n in range(max(m - max(reach, 0), 0), r + 1):
            alternate = dst_model.use_alt and (n, reach) != (m, -1)
            per = {}
            for k in range(dmax + 1):
                col_off, cols = src_model.layout(m, k)
                row_off, rows = dst_model.layout(n, k + n - m + reach)
                if not rows or not cols:
                    continue
                ent = {}
                for lvl, col in col_off.items():
                    for j in range(src_model.dim(lvl, k)):
                        img = op(m, n, LevelChain.of(
                            lvl, src_model.basis_chain(lvl, k, j)))
                        if alternate:
                            img = img.alt()
                        for lvl2, ch in img.chains().items():
                            for pos, v in dst_model.coords(lvl2, ch).items():
                                ent[(row_off[lvl2] + pos, col + j)] = v
                mat = RatMatrix(rows, cols, ent)
                if not mat.is_zero():
                    per[k] = mat
            if per:
                comps[(m, n)] = per
    return comps


def orbit_signs(cube):
    """The every-member oracle of ``cubes.canonical``: {member: the sign of
    a permutation taking ``cube`` to it} over the cube's orbit under the
    axis action, and whether an odd permutation fixes the cube (then Alt
    kills the orbit and the signs mean nothing)."""
    sign, killed = {}, False
    for sigma in permutations(range(1, cube.n + 1)):
        s = perm_sign(sigma)
        if sign.setdefault(act_sym(sigma, cube), s) != s:
            killed = True
    return sign, killed


def _members(cube):
    # the orbit of a cube; one of degree <= 1 (exact or glued) is its own
    if cube.n <= 1:
        return [cube]
    return [act_sym(sigma, cube)
            for sigma in permutations(range(1, cube.n + 1))]


def close_span_every_member(seeds, expand, sym):
    """The span closure that expands every span cube: its faces, its
    ``expand`` images and, with ``sym``, every member of its orbit; the
    oracle of ``multirel.close_span_generic``, on a plain span that keeps
    every member."""
    span = Span(False)
    queue = []
    for level, cube in seeds:
        if span.add(level, cube):
            queue.append((frozenset(level), cube))
    while queue:
        level, cube = queue.pop()
        new = [(level, c2) for c2 in boundary_cube(cube).terms]
        new.extend(expand(level, cube))
        if sym:
            new.extend((level, g) for g in _members(cube))
        for lvl, c2 in new:
            if span.add(lvl, c2):
                queue.append((frozenset(lvl), c2))
    return span


def equivariance_witness(expand, level, cube):
    """None if every image of sigma(cube) under ``expand`` lies in the
    orbit, at the same level, of an image of ``cube``, for every axis
    permutation sigma; else the first (member, level, image) that does
    not."""
    orbits = {(frozenset(lvl), g) for lvl, img in expand(level, cube)
              for g in _members(img)}
    for member in _members(cube):
        for lvl, img in expand(level, member):
            if (frozenset(lvl), img) not in orbits:
                return member, lvl, img
    return None


def _identity_op(view):
    # the identity as a levelwise operator along one view
    def op(m, n, x):
        if n != m:
            return LevelChain()
        return levelwise([view], m, m, x, lambda K, I, I_src, J, s, ch: (1, ch))
    return op


def plain_against_alternating(marks, degree, seed):
    """The plain models and maps g, f, h and phi of ``build_homotopy`` on
    a tower of three members with ``marks`` marks, seeded with one random
    cube of ``degree``, against the alternating ones on models whose spans
    hold the orbits of the plain spans.  Alt, read as a matrix map A from
    each plain model to its alternating one, must be a C-map and
    intertwine them: A_t g = g' A_s, A_x f = f' A_t, A_x h = h' A_s and
    A_x phi = phi' A_s.  Returns (failed, compared): the names of the A
    that do not validate and of the relations whose sides differ, and per
    relation the number of nonzero components of its left side."""
    tower = Tower(r=marks, schemes=3, seed=seed)
    vs = [GeomView(tower, s) for s in range(3)]
    f, g = MorphView(vs[0], vs[1]), MorphView(vs[1], vs[2])
    ops = {"g": partial(op_pullback, g), "f": partial(op_pullback, f),
           "h": partial(op_pullback, MorphView(f.src, g.dst)),
           "phi": partial(op_homotopy, f, g)}
    ends = {"g": ("s", "t", 0), "f": ("t", "x", 0), "h": ("s", "x", 0),
            "phi": ("s", "x", 1)}
    seeds = [(frozenset(), rnd_cube(random.Random(seed), degree,
                                    with_gram=True))]
    plain = {"s": closed_model(g.dst, seeds)}
    plain["t"] = closed_model(f.dst, _op_image_seeds(plain["s"], ops["g"], 0))
    plain["x"] = closed_model(f.src, _op_image_seeds(plain["t"], ops["f"], 0)
                              + _op_image_seeds(plain["s"], ops["h"], 0)
                              + _op_image_seeds(plain["s"], ops["phi"], 1))
    alt = {k: closed_model(model.g, [(lvl, cube) for (lvl, _), cubes
                                     in model.span.items() for cube in cubes],
                           use_alt=True)
           for k, model in plain.items()}

    def maps(models):
        cc = {k: materialize_ccomplex(model) for k, model in models.items()}
        out = {}
        for name, (a, b, reach) in ends.items():
            comps = materialize_operator(models[a], models[b], ops[name], reach)
            out[name] = (ccx.CMap if reach == 0 else ccx.CHomotopy)(
                cc[a], cc[b], comps)
        return cc, out

    cc, before = maps(plain)
    cc_alt, after = maps(alt)
    A = {k: ccx.CMap(cc[k], cc_alt[k], materialize_operator(
        plain[k], alt[k], _identity_op(plain[k].g), 0)) for k in plain}
    failed = [k for k, a in A.items() if not a.validate()["ok"]]
    compared = {}
    for name, (a, b, _) in ends.items():
        left = ccx.compose(A[b], before[name]).comps
        if left != ccx.compose(after[name], A[a]).comps:
            failed.append(name)
        compared[name] = sum(map(len, left.values()))
    return failed, compared


# -- closure-driven oracles ----------------------------------------------
#
# The cube constructions as a vertex rule and an arrow rule read per
# index, and the random generators reading every entry as a Fraction,
# conjugating by a permutation matrix and inverting every base.  The
# library gathers the same cubes through shape tables and builds the same
# matrices from integer numerators; these are what it must equal.

def _step(alpha, j):
    return alpha[:j - 1] + (alpha[j - 1] + 1,) + alpha[j:]


def _assemble(n, vertex, arrow):
    """The interned n-cube with vertex(a) at each index a.  An arrow with
    a zero-dimensional end is the zero map; every other arrow (k, a) is
    arrow(k, a, dim), dim the dimension at a."""
    verts = {a: vertex(a) for a in vertex_indices(n)}
    arrows = {}
    for k, a in arrow_keys(n):
        sd, td = verts[a].dim, verts[_step(a, k)].dim
        arrows[(k, a)] = (arrow(k, a, sd) if sd and td
                          else RatMatrix.zero(td, sd))
    return ExactCube(n, verts, arrows).intern()


def degeneracy_oracle(cube, j, sign):
    """s_j^{+1} (edge F -> F -> 0) or s_j^{-1} (edge 0 -> F -> F)."""
    def vertex(a):
        return ZERO_OBJ if a[j - 1] == sign else cube.vertex(a[:j - 1] + a[j:])

    def arrow(k, a, dim):
        if k == j:
            return RatMatrix.identity(dim)
        return cube.arrow(k if k < j else k - 1, a[:j - 1] + a[j:])

    return _assemble(cube.n + 1, vertex, arrow)


_RHO_VERT = {(-1, -1): -1, (-1, 0): -1, (0, -1): -1, (0, 0): 0,
             (0, 1): 1, (1, 0): 1, (1, 1): 1, (-1, 1): None, (1, -1): None}


def rho_oracle(cube, j):
    """The (n+1)-cube duplicating axis j of ``cube``."""
    def collapse(a):
        w = _RHO_VERT[(a[j - 1], a[j])]
        return None if w is None else a[:j - 1] + (w,) + a[j + 1:]

    def vertex(a):
        src = collapse(a)
        return ZERO_OBJ if src is None else cube.vertex(src)

    def arrow(k, a, dim):
        ca = collapse(a)
        if k not in (j, j + 1):
            return cube.arrow(k if k < j else k - 1, ca)
        if ca == collapse(_step(a, k)):
            return RatMatrix.identity(dim)
        return cube.arrow(j, ca)

    return _assemble(cube.n + 1, vertex, arrow)


def tensor_cube_oracle(f, g):
    """(F (x) G)_{a,b} = F_a (x) G_b, with F's axes first."""
    n = f.n

    def arrow(k, ab, dim):
        a, b = ab[:n], ab[n:]
        if k <= n:
            return f.arrow(k, a).kron(RatMatrix.identity(g.vertex(b).dim))
        return RatMatrix.identity(f.vertex(a).dim).kron(g.arrow(k - n, b))

    return _assemble(n + g.n, lambda ab: tensor_obj(f.vertex(ab[:n]),
                                                    g.vertex(ab[n:])),
                     arrow)


def rnd_invertible_oracle(rng, n):
    """P L U: L and U unitriangular with Fraction entries, P the
    permutation matrix of a shuffle, two products."""
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


def rnd_one_cube_oracle(rng, max_dim=3, with_gram=False):
    """A random one-cube a -> a + c -> c: the first a columns of an
    invertible u and the last c rows of its inverse, read entry by entry."""
    a = rng.randint(0, max_dim)
    c = rng.randint(0 if a else 1, max_dim)
    u = rnd_invertible_oracle(rng, a + c)
    uinv = inverse(u)
    inj = RatMatrix(a + c, a, {(r, k): u[(r, k)] for r in range(a + c)
                               for k in range(a) if u[(r, k)] != 0})
    surj = RatMatrix(c, a + c, {(r - a, k): uinv[(r, k)]
                                for r in range(a, a + c)
                                for k in range(a + c) if uinv[(r, k)] != 0})

    def mk(d):
        return MetObj(d, rnd_gram(rng, d) if (with_gram and d) else None,
                      check=False)

    return one_cube(mk(a), mk(a + c), mk(c), inj, surj)


def rnd_chain_complex_oracle(rng, degs=(0, 3), maxdim=3):
    """A split complex conjugated by random invertibles, every base built
    and inverted, zero boundaries included."""
    lo, hi = degs
    dims = {n: rng.randint(0, maxdim) for n in range(lo, hi + 1)}
    rks = {}
    for n in range(lo + 1, hi + 1):
        cap = min(dims.get(n - 1, 0) - rks.get(n - 1, 0), dims.get(n, 0))
        rks[n] = rng.randint(0, max(0, cap))
    bnd = {}
    base = {n: rnd_invertible_oracle(rng, dims.get(n, 0))
            for n in range(lo, hi + 1)}
    for n in range(lo + 1, hi + 1):
        ent = {(i, dims[n] - rks[n] + i): 1 for i in range(rks[n])}
        m = RatMatrix(dims.get(n - 1, 0), dims.get(n, 0), ent)
        bnd[n] = base[n - 1].mul(m).mul(inverse(base[n]))
    return ccx.ChainComplex(dims, bnd)


# -- the zero-filled family algebra ----------------------------------------

def family(src, dst, reach, comp):
    """The family of this reach whose (m, n, k) component is comp(m, n, k),
    None for zero, at every key of ``ccx._keys``: a CMap for reach 0, a
    CHomotopy for reach 1."""
    comps = {}
    for m, n, k in ccx._keys(src, dst, reach):
        mat = comp(m, n, k)
        if mat is not None:
            comps.setdefault((m, n), {})[k] = mat
    if reach == 0:
        return ccx.CMap(src, dst, comps)
    if reach == 1:
        return ccx.CHomotopy(src, dst, comps)
    return ccx.CFamily(src, dst, comps, reach)


def compose_terms(g, f, m, n, k):
    """The terms of (g f)^{m,n}_k as component keys: one pair ((l, n, k'),
    (m, l, k)) of g^{l,n}_{k'} f^{m,l}_k for each index l of f's target
    within both supports, with k' = k + l - m + (reach of f)."""
    lo, hi = m - max(f.reach, 0), n + max(g.reach, 0)
    shift = k - m + f.reach
    for l in f.dst.indices():
        if lo <= l <= hi:
            yield (l, n, shift + l), (m, l, k)


def composite_oracle(g, f, m, n, k):
    """(g f)^{m,n}_k summed from the zero matrix of its shape over every
    term of ``compose_terms``, each absent component zero-filled."""
    acc = RatMatrix.zero(g.dst.cx(n).dim(k + n - m + f.reach + g.reach),
                         f.src.cx(m).dim(k))
    for gkey, fkey in compose_terms(g, f, m, n, k):
        acc = acc + zero_filled(g, *gkey).mul(zero_filled(f, *fkey))
    return acc


def compose_oracle(g, f):
    """``ccx.compose``: the composite at every key of its reach."""
    return family(f.src, g.dst, f.reach + g.reach,
                  lambda m, n, k: composite_oracle(g, f, m, n, k))


def validate_oracle(cc):
    """``CComplex.validate`` with (S S)^{m,n}_k zero-filled at every m < n
    up to the largest index."""
    idxs = cc.indices()
    if not idxs:
        return {"ok": True, "checked": 0}
    for m in idxs:
        rep = cc.cx(m).validate()
        if not rep["ok"]:
            rep["at"].update(m=m, n=m)
            return rep
    s = cc.structure()
    checked = 0
    lo, hi = min(idxs), max(idxs)
    for m in range(lo, hi + 1):
        for n in range(m + 1, hi + 1):
            for k in cc.cx(m).degrees():
                acc = composite_oracle(s, s, m, n, k)
                checked += 1
                if not acc.is_zero():
                    return ccx._witness(checked, m, n, k, acc)
    return {"ok": True, "checked": checked}


# -- the cone constructions, one closure per component -------------------

def zero_filled(fam, m, n, k):
    """The (m, n) component of ``fam`` in degree k, the zero matrix of its
    shape where it is absent."""
    mat = fam.get(m, n, k)
    return mat if mat is not None else RatMatrix.zero(
        fam.dst.cx(n).dim(k + n - m + fam.reach), fam.src.cx(m).dim(k))


def _slot_unit(da, db, slot):
    """The projection of A (+) B, of dimensions da and db, onto slot 0 (A)
    or slot 1 (B)."""
    d, off = (da, 0) if slot == 0 else (db, da)
    return RatMatrix(d, da + db, {(i, off + i): 1 for i in range(d)})


class ConeOracle:
    """s(f) of a C-map f: A -> B with its projection and inclusion, each
    component assembled by hand from the slot dimensions of A^m and
    B^{m-1} and every block read with ``zero_filled``, zeros included."""

    def __init__(self, f):
        a, b = f.src, f.dst
        self.a, self.b = a, b
        sa, sb = a.structure(), b.structure()
        idxs = sorted(set(a.indices()) | {m + 1 for m in b.indices()})
        complexes = {m: ccx._slot_complex([(a.cx(m), 0), (b.cx(m - 1), 0)],
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
                    per[k] = ccx._assemble(
                        ta + b.cx(n - 1).dim(kk), da + b.cx(m - 1).dim(k),
                        [(0, 0, zero_filled(sa, m, n, k), 1),
                         (ta, 0, zero_filled(f, m, n - 1, k), 1),
                         (ta, da, zero_filled(sb, m - 1, n - 1, k), -1)])
                fmaps[(m, n)] = per
        self.ccx = ccx.CComplex(complexes, fmaps)

    def slots(self, m, k):
        """The dimensions of A^m_k and B^{m-1}_k inside C^m_k."""
        return self.a.cx(m).dim(k), self.b.cx(m - 1).dim(k)

    @property
    def proj(self):
        return family(self.ccx, self.a, 0, lambda m, n, k: _slot_unit(
            *self.slots(m, k), 0) if m == n else None)

    @property
    def incl(self):
        return family(self.b.shift(-1), self.ccx, 0,
                          lambda m, n, k: _slot_unit(*self.slots(m, k), 1)
                          .transpose() if m == n else None)


def phi_s_oracle(parts, parts_p, phi_a, phi_b, h_f):
    """phi_s^{m,n}(a, b) = (phi_A(a), phi_B^{m-1,n-1}(b) + h_f^{m,n-1}(a))."""
    def comp(m, n, k):
        da, db = parts.slots(m, k)
        ta, tb = parts_p.slots(n, k + n - m)
        return ccx._assemble(ta + tb, da + db,
                             [(0, 0, zero_filled(phi_a, m, n, k), 1),
                              (ta, da, zero_filled(phi_b, m - 1, n - 1, k), 1),
                              (ta, 0, zero_filled(h_f, m, n - 1, k), 1)])
    return family(parts.ccx, parts_p.ccx, 0, comp)


def section_t_oracle(parts, f, g, psi):
    """(t, psi_1, psi_2) of ``ccx.section_t``."""
    a, b = f.src, f.dst
    cone = parts.ccx
    gf, psi_f = ccx.compose(g, f), ccx.compose(psi, f)

    def t_comp(m, n, k):
        ta, tb = parts.slots(n, k + n - m)
        blocks = [(0, 0, zero_filled(gf, m, n, k), -1),
                  (ta, 0, zero_filled(psi_f, m, n - 1, k), -1)]
        if m == n:
            blocks.append((0, 0, RatMatrix.identity(a.cx(m).dim(k)), 1))
        return ccx._assemble(ta + tb, a.cx(m).dim(k), blocks)

    def psi1_comp(m, n, k):
        da, db = parts.slots(m, k)
        ta, tb = parts.slots(n, k + n - m + 1)
        return ccx._assemble(ta + tb, da + db,
                             [(0, da, zero_filled(g, m - 1, n, k), -1),
                              (ta, da, zero_filled(psi, m - 1, n - 1, k), -1)])

    g_psi, psi_psi = ccx.compose(g, psi), ccx.compose(psi, psi)

    def psi2_comp(m, n, k):
        ta, tb = parts.slots(n, k + n - m + 1)
        return ccx._assemble(ta + tb, b.cx(m).dim(k),
                             [(0, 0, zero_filled(g_psi, m, n, k), -1),
                              (ta, 0, zero_filled(psi_psi, m, n - 1, k), -1)])
    return (family(a, cone, 0, t_comp), family(cone, cone, 1, psi1_comp),
            family(b, cone, 1, psi2_comp))


def pi_homotopy_oracle(parts_p, f, theta, h_f, h_g, psi_p, gp):
    """Pi of ``ccx.pi_homotopy``."""
    hg_f, gp_hf = ccx.compose(h_g, f), ccx.compose(gp, h_f)
    psi_hf, theta_f = ccx.compose(psi_p, h_f), ccx.compose(theta, f)

    def comp(m, n, k):
        ta, tb = parts_p.slots(n, k + n - m + 1)
        return ccx._assemble(ta + tb, f.src.cx(m).dim(k),
                             [(0, 0, zero_filled(hg_f, m, n, k), -1),
                              (0, 0, zero_filled(gp_hf, m, n, k), -1),
                              (ta, 0, zero_filled(psi_hf, m, n - 1, k), -1),
                              (ta, 0, zero_filled(theta_f, m, n - 1, k), 1)])
    return family(f.src, parts_p.ccx, 1, comp)


def cmap_add_oracle(f, g, scale_g=1):
    """f + scale_g g, one matrix sum per component."""
    return family(f.src, f.dst, f.reach,
                      lambda m, n, k: zero_filled(f, m, n, k)
                      + zero_filled(g, m, n, k).scale(scale_g))


# -- the zero-filled defect comparison ------------------------------------

def defect_oracle(fam, m, n, k):
    """D(fam)^{m,n}_k = (S_B fam + (-1)^(reach+1) fam S_A)^{m,n}_k, each
    composite zero-filled."""
    sign = -1 if fam.reach % 2 == 0 else 1
    return (composite_oracle(fam.dst.structure(), fam, m, n, k)
            + composite_oracle(fam, fam.src.structure(), m, n, k).scale(sign))


def compare_defect_oracle(fam, target=None):
    """``CFamily.compare_defect`` with every matrix zero-filled: the defect
    minus target(m, n, k), a matrix of the defect's shape, at every
    component in validation order; the first differing entry."""
    checked = 0
    for m, n, k in ccx._keys(fam.src, fam.dst, fam.reach):
        diff = defect_oracle(fam, m, n, k)
        if target is not None:
            diff = diff - target(m, n, k)
        checked += 1
        if not diff.is_zero():
            return ccx._witness(checked, m, n, k, diff)
    return {"ok": True, "checked": checked}


def homotopy_validate_oracle(h, frm, to):
    """``CHomotopy.validate``: D(h) against to - frm, both zero-filled."""
    return compare_defect_oracle(
        h, lambda m, n, k: zero_filled(to, m, n, k) - zero_filled(frm, m, n, k))
