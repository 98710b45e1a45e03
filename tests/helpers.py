"""Shared random generators for the test suite (package re-exports) and
the check of the stored form of a matrix."""

import math

from cubehom.cubes import arrow_keys, vertex_indices
from cubehom.rand import (direct_sum_ccomplex, rnd_chain_complex, rnd_cmap,
                          rnd_ccomplex, rnd_cube, rnd_fraction, rnd_gram,
                          rnd_homotopy_comps, rnd_invertible, rnd_matrix,
                          rnd_metobj, rnd_one_cube, rnd_retraction)

__all__ = [
    "direct_sum_ccomplex", "rnd_chain_complex", "rnd_cmap", "rnd_ccomplex",
    "rnd_cube", "rnd_fraction", "rnd_gram", "rnd_homotopy_comps",
    "rnd_invertible", "rnd_matrix", "rnd_metobj", "rnd_one_cube",
    "rnd_retraction", "normal", "cube_parts",
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
