import json
import random
from fractions import Fraction

import pytest

from cubehom.cli import _matrix
from cubehom.cubes import one_cube
from cubehom.exactlin import (MetObj, RatMatrix, ShortExact, ZERO_OBJ,
                              is_short_exact, kernel_basis, rank, rat_str,
                              rref, solve, tensor_map, tensor_obj)
from helpers import (from_rows as M, normal, rnd_chain_complex, rnd_gram,
                     rnd_matrix, rnd_one_cube, to_json_obj)


def test_rank_examples():
    assert rank(RatMatrix.identity(2)) == 2
    assert rank(RatMatrix.zero(3, 2)) == 0
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_rank_sparse_and_dense_agree():
    rng = random.Random(0)
    for _ in range(40):
        m = rnd_matrix(rng, rng.randint(1, 20), rng.randint(1, 20), density=0.3)
        assert rank(m) == len(rref(m)[1])


def test_kernel_basis_examples():
    assert kernel_basis(RatMatrix.identity(3)) == []
    assert len(kernel_basis(RatMatrix.zero(2, 3))) == 3
    (v,) = kernel_basis(M([[1, 1]]))
    assert v[(0, 0)] == -v[(1, 0)] != 0


def test_kernel_vectors_annihilate():
    rng = random.Random(1)
    for _ in range(25):
        m = rnd_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            assert m.mul(v).is_zero()


def test_homology_matches_dense_oracle():
    rng = random.Random(2)
    for _ in range(100):
        cx = rnd_chain_complex(rng, degs=(0, 3), maxdim=4)
        assert sum(cx.dims.values()) <= 24
        h = cx.homology()
        for n in cx.degrees():
            want = cx.dim(n) - len(rref(cx.d(n))[1]) - len(rref(cx.d(n + 1))[1])
            assert h[n] == want


def test_is_short_exact_examples():
    inj = M([[1], [0]])
    surj = M([[0, 1]])
    s = ShortExact(MetObj(1), MetObj(2), MetObj(1), inj, surj)
    assert is_short_exact(s)
    bad = ShortExact(MetObj(1), MetObj(1), MetObj(1),
                     RatMatrix.identity(1), RatMatrix.identity(1))
    assert not is_short_exact(bad)


def test_is_short_exact_shape_mismatch_is_error():
    with pytest.raises(ValueError):
        ShortExact(MetObj(2), MetObj(2), MetObj(1),
                   RatMatrix.identity(1), M([[1, 0]]))


def test_random_extension_is_exact():
    rng = random.Random(3)
    for _ in range(30):
        cube = rnd_one_cube(rng, max_dim=4)
        s = ShortExact(cube.vertex((-1,)), cube.vertex((0,)),
                       cube.vertex((1,)), cube.arrow(1, (-1,)),
                       cube.arrow(1, (0,)))
        assert is_short_exact(s)
        assert rank(s.inj) + rank(s.surj) == s.mid.dim
        assert s.surj.mul(s.inj).is_zero()


def test_tensor_obj_examples():
    a, b = MetObj(2), MetObj(3)
    assert tensor_obj(a, b).dim == 6
    rng = random.Random(4)
    x = MetObj(2, rnd_gram(rng, 2))
    y = MetObj(1, rnd_gram(rng, 1))
    z = MetObj(2, rnd_gram(rng, 2))
    assert tensor_obj(tensor_obj(x, y), z) == tensor_obj(x, tensor_obj(y, z))


def test_kron_gram_positive_definite():
    rng = random.Random(5)
    for _ in range(10):
        g1 = rnd_gram(rng, 2)
        g2 = rnd_gram(rng, 2)
        MetObj(4, g1.kron(g2))  # constructor checks leading minors


def test_tensor_map_mixed_gram():
    a = MetObj(2)
    b = MetObj(2, rnd_gram(random.Random(6), 2))
    assert tensor_obj(a, b).gram is None
    assert tensor_map(RatMatrix.identity(2), RatMatrix.identity(3)) == \
        RatMatrix.identity(6)


def test_matrix_json_roundtrip():
    """The ``homology`` reader takes the README matrix format back to the
    matrix written, with entry values as JSON integers or "p/q" strings."""
    m = M([[Fraction(1, 2), 0], [3, Fraction(-7, 5)]])
    obj = json.loads(json.dumps(to_json_obj(m)))
    assert obj == {"rows": 2, "cols": 2,
                   "entries": [[0, 0, "1/2"], [1, 0, "3"], [1, 1, "-7/5"]]}
    assert _matrix(obj, 1) == m
    assert _matrix({"rows": 2, "cols": 2, "entries": [
        [0, 0, "2/4"], [1, 0, 3], [1, 1, "-7/5"]]}, 1) == m
    assert _matrix({"rows": 1, "cols": 3}, 1) == RatMatrix.zero(1, 3)


def test_solve_consistency():
    rng = random.Random(7)
    for _ in range(25):
        m = rnd_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = rnd_matrix(rng, m.cols, 1, density=0.9)
        rhs = m.mul(x)
        sol = solve(m, rhs)
        assert sol is not None and m.mul(sol) == rhs


def test_rat_str():
    assert rat_str(Fraction(3)) == "3"
    assert rat_str(Fraction(-4, 6)) == "-2/3"


def test_gram_must_be_positive_definite():
    with pytest.raises(ValueError):
        MetObj(2, M([[1, 2], [2, 1]]))
    with pytest.raises(ValueError):
        MetObj(2, M([[1, 2], [3, 4]]))


def test_zero_obj():
    assert ZERO_OBJ.dim == 0 and ZERO_OBJ == MetObj(0)


# -- public constructor and the unchecked path of derived matrices -----

def test_public_constructor_validates_and_normalizes():
    with pytest.raises(ValueError):
        RatMatrix(-1, 2)
    with pytest.raises(ValueError):
        RatMatrix(2, -1)
    with pytest.raises(ValueError):
        RatMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        RatMatrix(2, 2, {(0, -1): 1})
    m = RatMatrix(2, 3, {(0, 0): 3, (0, 1): "-2/6", (1, 2): 0,
                         (1, 0): Fraction(0)})
    assert dict(m.items()) == {(0, 0): Fraction(3), (0, 1): Fraction(-1, 3)}
    assert all(type(v) is Fraction for _, v in m.items())
    assert (m.num, m.den) == ({(0, 0): 9, (0, 1): -1}, 3)
    assert m[(0, 1)] == Fraction(-1, 3) and m[(1, 1)] == 0


def test_floats_are_refused():
    with pytest.raises(TypeError):
        RatMatrix(1, 1, {(0, 0): 0.1})
    with pytest.raises(TypeError):
        RatMatrix(1, 1, {(0, 0): 0.0})
    with pytest.raises(TypeError):
        M([[1, 0.5]])
    with pytest.raises(TypeError):
        RatMatrix.identity(2).scale(0.1)
    with pytest.raises(TypeError):
        RatMatrix.identity(2).scale(1.0)
    # exact decimal text is not a float
    assert RatMatrix(1, 1, {(0, 0): "0.1"})[(0, 0)] == Fraction(1, 10)


def _public(m):
    return RatMatrix(m.rows, m.cols, dict(m.items()))


def test_derived_matrices_equal_and_hash_like_public_ones():
    rng = random.Random(8)
    for _ in range(20):
        a = rnd_matrix(rng, 3, 4, density=0.6)
        b = rnd_matrix(rng, 3, 4, density=0.6)
        c = rnd_matrix(rng, 4, 2, density=0.6)
        sq = rnd_matrix(rng, 3, 3, density=0.9)
        x = rnd_matrix(rng, 3, 2, density=0.9)
        ints = RatMatrix(3, 4, {(i, j): rng.randint(-3, 3)
                                for i in range(3) for j in range(4)})
        half, third = a.scale(Fraction(1, 2)), b.scale(Fraction(-1, 3))
        cancel = (a + ints) - a
        assert cancel == ints and cancel.den == 1
        derived = [a + b, a - b, a - a, a.scale(Fraction(-2, 3)), a.mul(c),
                   a.kron(c), a.transpose(), a.hstack(b), solve(sq, sq.mul(x)),
                   cancel, half + half, a.scale(Fraction(7, 2)),
                   half.kron(c.scale(Fraction(5, 3))), half.hstack(third),
                   third.hstack(ints), solve(sq, x), -half,
                   *kernel_basis(a), *kernel_basis(half.hstack(third))]
        for d in derived:
            if d is None:
                continue
            normal(d)
            p = _public(d)
            assert d == p and p == d
            assert hash(d) == hash(p)
            assert (d.num, d.den) == (p.num, p.den)
            assert dict(d.items()) == dict(p.items())
        assert a - a == RatMatrix.zero(3, 4)


def test_matrix_is_immutable():
    a = M([[1, 2], [3, 4]])
    for m in (a, a.transpose(), a + a):
        for name in ("rows", "cols", "num", "den", "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
    assert a == M([[1, 2], [3, 4]])


def test_equality_does_not_force_a_hash():
    a, b = M([[1, 2]]), M([[1, 2]]).scale(1)
    assert a == b and a != M([[1, 3]])
    assert a._hash is None and b._hash is None
    assert hash(a) == hash(b) == a._hash == b._hash


def test_equal_arrows_from_both_paths_intern_to_one_cube():
    rng = random.Random(9)
    for _ in range(10):
        c = rnd_one_cube(rng, max_dim=3)
        inj, surj = c.arrow(1, (-1,)), c.arrow(1, (0,))
        # transpose twice: the derived (unchecked) path, same values
        again = one_cube(c.vertex((-1,)), c.vertex((0,)), c.vertex((1,)),
                         inj.transpose().transpose(), _public(surj))
        assert again is c
