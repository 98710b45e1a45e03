"""Shared random generators for the test suite (package re-exports), the
check of the stored form of a matrix, small builders and readers of
matrices and cubes that only the tests use, the chain-form oracle of
``multirel.materialize_operator``, the every-member oracles of
``cubes.canonical`` and ``multirel.close_span_generic`` with the
equivariance check the closure rests on, and the plain-against-alternating
relations that make the signs of ``cubes.canonical`` load-bearing."""

import math
import random
from fractions import Fraction
from functools import partial
from itertools import permutations

from cubehom import ccx

from cubehom.cubes import (ExactCube, act_sym, arrow_keys, boundary_cube,
                           vertex_indices)
from cubehom.exactlin import RatMatrix, ZERO_OBJ, rat_str
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
    "plain_against_alternating",
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
