"""Property tests of the exact elimination routines.

References are independent of ``cubehom.exactlin``'s kernels: a plain
``Fraction`` Gauss-Jordan elimination kept here, and sympy's rank and
positive-definiteness test.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from cubehom.exactlin import (RatMatrix, _is_sym_posdef, kernel_basis, rank,
                              rref, solve)

PROPS = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)

# negative and non-unit denominators
fractions = st.builds(Fraction, st.integers(-9, 9),
                      st.integers(-7, 7).filter(bool))


# about half the entries of a sparse matrix are zero
sparse_entries = st.one_of(st.just(Fraction(0)), fractions)


@st.composite
def matrices(draw, max_dim=6):
    """Random shapes (0 x n and n x 0 included), sparse or dense entries,
    optional zero columns, and low-rank products A @ B."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(["sparse", "dense", "product"]))
    if kind == "product" and r and c:
        k = draw(st.integers(1, max(1, min(r, c) - 1)))
        m = draw(grid(r, k, fractions)).mul(draw(grid(k, c, fractions)))
    else:
        m = draw(grid(r, c, fractions if kind == "dense" else sparse_entries))
    zero_cols = draw(st.sets(st.integers(0, max(0, c - 1)), max_size=2))
    return RatMatrix(r, c, {(i, j): v for (i, j), v in m.entries.items()
                            if j not in zero_cols})


def grid(r, c, entries):
    return st.lists(entries, min_size=r * c, max_size=r * c).map(
        lambda vals: RatMatrix(r, c, {(i, j): vals[i * c + j]
                                      for i in range(r) for j in range(c)}))


def reference_rref(m):
    """Rational Gauss-Jordan elimination, pivoting on the first nonzero."""
    a = m.to_dense()
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


@st.composite
def symmetric_matrices(draw, max_dim=5):
    """Symmetric matrices that are positive-definite, singular
    positive-semidefinite (a Gram matrix of fewer vectors than its size),
    or indefinite (a Gram matrix shifted by a negative multiple of the
    identity, or a random symmetric matrix)."""
    n = draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(["gram", "shifted-gram", "symmetric"]))
    if kind == "symmetric":
        m = draw(grid(n, n, sparse_entries))
        return m + m.transpose()
    a = draw(grid(draw(st.integers(0, n + 1)), n, fractions))
    g = a.transpose().mul(a)
    if kind == "shifted-gram":
        g = g + RatMatrix.identity(n).scale(draw(fractions))
    return g


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(v.numerator, v.denominator)
                         for row in m.to_dense() for v in row])


def sympy_rank(m):
    return to_sympy(m).rank()


@PROPS
@given(matrices())
def test_rref_equals_rational_gauss_jordan(m):
    got_rows, got_pivots = rref(m)
    want_rows, want_pivots = reference_rref(m)
    assert got_pivots == want_pivots
    assert got_rows == want_rows
    assert all(type(v) is Fraction for row in got_rows for v in row)


@PROPS
@given(matrices())
def test_rank_equals_sympy(m):
    assert rank(m) == sympy_rank(m)


@PROPS
@given(st.data())
def test_solve_finds_a_solution_exactly_when_consistent(data):
    m = data.draw(matrices())
    k = data.draw(st.integers(1, 2))
    if data.draw(st.booleans()):
        rhs = m.mul(data.draw(grid(m.cols, k, sparse_entries)))
    else:
        rhs = data.draw(grid(m.rows, k, sparse_entries))
    consistent = sympy_rank(m) == sympy_rank(m.hstack(rhs))
    x = solve(m, rhs)
    if consistent:
        assert x is not None and (x.rows, x.cols) == (m.cols, k)
        assert m.mul(x) == rhs
    else:
        assert x is None


@PROPS
@given(matrices())
def test_kernel_dimension_is_nullity(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert m.mul(v).is_zero()


@PROPS
@given(symmetric_matrices())
def test_sym_posdef_equals_sympy(g):
    assert _is_sym_posdef(g) == to_sympy(g).is_positive_definite
