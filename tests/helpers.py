"""Shared random generators for the test suite (package re-exports), the
check of the stored form of a matrix, small builders and readers of
matrices and cubes that only the tests use, and the chain-form oracle of
``multirel.materialize_operator``."""

import math
from fractions import Fraction

from cubehom.cubes import ExactCube, arrow_keys, vertex_indices
from cubehom.exactlin import RatMatrix, ZERO_OBJ, rat_str
from cubehom.multirel import LevelChain
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
    if not src_model.span.basis:
        return comps
    r = len(src_model.g.marks)
    dmax = max(deg for (_, deg) in src_model.span.basis)
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
