import random
from fractions import Fraction

import pytest

from itertools import permutations

from cubehom.cubes import (CubeChain, ExactCube, ExactFunctor, _step, act_sym,
                           alt, alt_block, arrow_keys, boundary,
                           boundary_partial, bracket_cube, composite_pullback,
                           degeneracy, face, object_cube, one_cube,
                           phi_homotopy, psi_homotopy, rho, tensor_cube,
                           transposition, vertex_indices, zero_cube)
from cubehom.exactlin import MetObj, RatMatrix, ZERO_OBJ, inverse
from cubehom.multirel import GeomView, Tower
from helpers import (rnd_cube, rnd_gram, rnd_invertible, rnd_metobj,
                     rnd_one_cube)


def simple_one_cube():
    # 0 -> Q -> Q^2 -> Q -> 0 with the canonical maps
    inj = RatMatrix.from_rows([[1], [0]])
    surj = RatMatrix.from_rows([[0, 1]])
    return one_cube(MetObj(1), MetObj(2), MetObj(1), inj, surj)


def test_face_definition_degree_one():
    c = simple_one_cube()
    assert face(c, 1, -1) == object_cube(MetObj(1))
    assert face(c, 1, 0) == object_cube(MetObj(2))
    assert face(c, 1, 1) == object_cube(MetObj(1))
    with pytest.raises(ValueError):
        face(c, 2, 0)
    with pytest.raises(ValueError):
        face(c, 1, 2)


def test_face_commutation_on_random_cubes():
    rng = random.Random(11)
    for _ in range(12):
        c = rnd_cube(rng, 3)
        for j in range(1, 3):
            for k in range(1, j + 1):
                for i in (-1, 0, 1):
                    for l in (-1, 0, 1):
                        assert face(face(c, k, l), j, i) == \
                            face(face(c, j + 1, i), k, l)


def test_degeneracy_examples():
    rng = random.Random(12)
    c = rnd_cube(rng, 1)
    s = degeneracy(c, 1, 1)
    assert s.is_degenerate()
    assert face(s, 1, 0) == c
    assert face(s, 1, 1).is_zero_cube()
    s2 = degeneracy(c, 2, -1)
    assert s2.is_degenerate()
    assert face(s2, 2, 0) == c
    # faces of a degeneracy reproduce the transported degeneracies
    for j in (1, 2):
        sj = degeneracy(c, j, 1)
        assert face(sj, j, -1) == c


def test_boundary_degree_one_alternating_sum():
    c = simple_one_cube()
    b = boundary(CubeChain.of(c))
    assert b.terms == {object_cube(MetObj(1)): Fraction(2),
                       object_cube(MetObj(2)): Fraction(-1)}


def test_boundary_squares_to_zero():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 3)
        x = CubeChain.of(rnd_cube(rng, n))
        assert boundary(boundary(x)).is_zero()


def test_degenerate_cubes_normalize_away():
    rng = random.Random(14)
    c = rnd_cube(rng, 1)
    ch = CubeChain.of(degeneracy(c, 1, 1))
    assert ch.is_zero()
    closed = boundary(CubeChain.of(rnd_cube(rng, 2)))
    assert boundary(closed).is_zero()


def test_act_sym_group_action():
    rng = random.Random(15)
    c = rnd_cube(rng, 3)
    assert act_sym((1, 2, 3), c) is c
    tau = transposition(3, 1)
    assert act_sym(tau, act_sym(tau, c)) == c
    sdeg = degeneracy(rnd_cube(rng, 2), 1, 1)
    assert act_sym(transposition(3, 2), sdeg).is_degenerate()


def test_alt_examples():
    rng = random.Random(16)
    x = CubeChain.of(rnd_cube(rng, 1))
    assert alt(x) == x
    c = rnd_cube(rng, 2)
    tau = transposition(2, 1)
    expected = CubeChain.of(c, Fraction(1, 2)) + \
        CubeChain.of(act_sym(tau, c), Fraction(-1, 2))
    assert alt(CubeChain.of(c)) == expected
    sym = rho(rnd_cube(rng, 1), 1)  # invariant under the transposition
    assert act_sym(tau, sym) == sym
    assert alt(CubeChain.of(sym)).is_zero()


def test_alt_idempotent_chain_map():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 3)
        x = CubeChain.of(rnd_cube(rng, n)) + CubeChain.of(rnd_cube(rng, n), -3)
        ax = alt(x)
        assert alt(ax) == ax
        assert boundary(ax) == alt(boundary(x))


def test_rho_displayed_two_cube():
    # build rho of A -> B -> C by hand and compare
    c = simple_one_cube()
    r = rho(c, 1)
    A, B, C = c.vertices[(-1,)], c.vertices[(0,)], c.vertices[(1,)]
    f, g = c.arrows[(1, (-1,))], c.arrows[(1, (0,))]
    want_vertices = {
        (-1, -1): A, (-1, 0): A, (-1, 1): ZERO_OBJ,
        (0, -1): A, (0, 0): B, (0, 1): C,
        (1, -1): ZERO_OBJ, (1, 0): C, (1, 1): C,
    }
    assert r.vertices == want_vertices
    eye = RatMatrix.identity
    assert r.arrows[(2, (-1, -1))] == eye(1)
    assert r.arrows[(2, (0, -1))] == f
    assert r.arrows[(2, (0, 0))] == g
    assert r.arrows[(2, (1, 0))] == eye(1)
    assert r.arrows[(1, (-1, -1))] == eye(1)
    assert r.arrows[(1, (0, 0))] == g
    assert r.arrows[(1, (-1, 0))] == f
    assert r.arrows[(1, (0, 1))] == eye(1)


def test_rho_face_identities():
    rng = random.Random(18)
    for _ in range(10):
        n = rng.randint(1, 3)
        c = rnd_cube(rng, n)
        for j in range(1, n + 1):
            r = rho(c, j)
            assert face(r, j, 0) == c == face(r, j + 1, 0)
            assert face(r, j, -1) == degeneracy(face(c, j, -1), j, 1)
            assert face(r, j + 1, -1) == degeneracy(face(c, j, -1), j, 1)
            assert face(r, j, 1) == degeneracy(face(c, j, 1), j, -1)
            assert face(r, j + 1, 1) == degeneracy(face(c, j, 1), j, -1)
            for k in range(1, n + 2):
                if k < j:
                    for i in (-1, 0, 1):
                        assert face(r, k, i) == rho(face(c, k, i), j - 1)
                elif k > j + 1:
                    for i in (-1, 0, 1):
                        assert face(r, k, i) == rho(face(c, k - 1, i), j)
        for j in range(1, n):
            assert rho(rho(c, j), j + 1) == rho(rho(c, j), j)
        assert rho(degeneracy(c, 1, 1), 1).is_degenerate()


def test_phi_psi_contracting_identities():
    rng = random.Random(19)

    def dprime(ch, nn):
        return boundary_partial(ch, list(range(1, nn + 1)))

    def dsecond(ch, nn, mm):
        return boundary_partial(ch, list(range(nn + 1, nn + mm + 1)))

    for _ in range(8):
        n, m = rng.randint(0, 2), rng.randint(1, 2)
        x = CubeChain.of(rnd_cube(rng, n + m))
        lhs = dprime(phi_homotopy(n, m, x), n + 1)
        if n >= 1:
            lhs = lhs + phi_homotopy(n - 1, m, dprime(x, n))
        assert lhs == x
        n2, m2 = rng.randint(1, 2), rng.randint(0, 2)
        y = CubeChain.of(rnd_cube(rng, n2 + m2))
        lhs2 = dsecond(psi_homotopy(n2, m2, y), n2, m2 + 1)
        if m2 >= 1:
            lhs2 = lhs2 + psi_homotopy(n2, m2 - 1, dsecond(y, n2, m2))
        assert lhs2 == y


def test_alt_absorbs_block_action():
    rng = random.Random(20)
    for _ in range(6):
        n, m = rng.randint(0, 2), 1
        x = CubeChain.of(rnd_cube(rng, n + m))
        lhs = alt_block(phi_homotopy(n, m, alt_block(x, n)), n + 1)
        rhs = alt_block(phi_homotopy(n, m, x), n + 1)
        assert lhs == rhs


def test_telescoped_alternation():
    rng = random.Random(21)

    def dsecond(ch, nn, mm):
        return boundary_partial(ch, list(range(nn + 1, nn + mm + 1)))

    for m in (1, 2, 3):
        x = CubeChain.of(rnd_cube(rng, m))
        y = x
        for k in range(m):
            y = alt_block(phi_homotopy(k, m - k, y), k + 1)
            y = dsecond(y, k + 1, m - k)
        sgn = Fraction(-1) ** ((m * (m - 1)) // 2 % 2)
        assert y.scale(sgn) == alt(x)


def test_tensor_cube_chain_rule():
    rng = random.Random(22)
    for _ in range(8):
        a = rnd_cube(rng, rng.randint(1, 2))
        b = rnd_cube(rng, rng.randint(1, 2))
        t = tensor_cube(a, b)
        lhs = boundary(CubeChain.of(t))
        rhs = boundary(CubeChain.of(a)).map_cubes(
            lambda cu: tensor_cube(cu, b), t.n - 1)
        rhs = rhs + boundary(CubeChain.of(b)).map_cubes(
            lambda cu, aa=a: tensor_cube(aa, cu), t.n - 1).scale((-1) ** a.n)
        assert lhs == rhs


def test_zero_cube_is_dropped():
    z = zero_cube(2)
    assert z.is_zero_cube()
    assert CubeChain.of(z).is_zero()


def test_exact_functor_words():
    rng = random.Random(23)
    m = rnd_metobj(rng, 2, with_gram=True)
    if m.dim == 0:
        m = MetObj(1, rnd_gram(rng, 1))
    f = ExactFunctor.tensor_by(m)
    g = ExactFunctor.identity()
    assert f.compose(g).word == f.word
    c = rnd_cube(rng, 1, with_gram=True)
    fc = f.on_cube(c)
    assert fc.vertices[(0,)].dim == m.dim * c.vertices[(0,)].dim
    assert g.on_cube(c) is c
    # functors preserve degeneracy and the zero object
    assert f.on_obj(ZERO_OBJ).is_zero()
    assert f.on_cube(degeneracy(c, 1, 1)).is_degenerate()


def test_bracket_cube_layout():
    rng = random.Random(24)
    g0 = object_cube(MetObj(2, rnd_gram(rng, 2)))
    g1 = object_cube(MetObj(2, rnd_gram(rng, 2)))
    g2 = object_cube(MetObj(2, rnd_gram(rng, 2)))
    assert bracket_cube([g0]) is g0
    br = bracket_cube([g0, g1, g2])
    assert br.n == 2
    # displayed 3x3 grid: rows are the first axis
    assert br.vertices[(-1, -1)] == g0.vertices[()]
    assert br.vertices[(0, -1)] == g0.vertices[()]
    assert br.vertices[(-1, 0)] == g1.vertices[()]
    assert br.vertices[(0, 0)] == g2.vertices[()]
    for a in ((1, -1), (1, 0), (1, 1), (-1, 1), (0, 1)):
        assert br.vertices[a].dim == 0
    # boundary: alternating omissions
    lhs = boundary(CubeChain.of(br))
    rhs = CubeChain.of(bracket_cube([g0, g1])) \
        - CubeChain.of(bracket_cube([g0, g2])) \
        + CubeChain.of(bracket_cube([g1, g2]))
    assert lhs == rhs


def test_bracket_cube_rejects_bad_witness():
    g0 = object_cube(MetObj(2))
    g1 = object_cube(MetObj(2))
    bad = {(): RatMatrix.zero(2, 2)}
    with pytest.raises(ValueError):
        bracket_cube([g0, g1], isos=[bad])


def test_bracket_cube_of_degenerate_is_degenerate():
    rng = random.Random(25)
    c = degeneracy(rnd_cube(rng, 1, with_gram=True), 1, 1)
    br = bracket_cube([c, c])
    assert br.is_degenerate()


def conjugated(rng, cube):
    """A cube isomorphic to ``cube`` through a random invertible matrix at
    every vertex, with those matrices keyed by vertex."""
    isos = {a: rnd_invertible(rng, o.dim) for a, o in cube.vertices.items()}
    arrows = {(k, a): isos[_step(a, k)].mul(m).mul(inverse(isos[a]))
              for (k, a), m in cube.arrows.items()}
    return ExactCube(cube.n, cube.vertices, arrows).intern(), isos


def test_assembled_cubes_validate():
    rng = random.Random(32)
    for n in range(3):
        for _ in range(2):
            c = rnd_cube(rng, n, with_gram=True)
            c2, isos = conjugated(rng, c)
            built = [zero_cube(n), tensor_cube(c, rnd_cube(rng, 1)),
                     bracket_cube([c, c, c]), bracket_cube([c, c2], [isos])]
            built += [degeneracy(c, j, sign) for j in range(1, n + 2)
                      for sign in (1, -1)]
            built += [rho(c, j) for j in range(1, n + 1)]
            for cube in built:
                cube.validate(exactness=True)


def test_map_cubes_enforces_its_degree():
    # rho raises degree by one: the images are 2-cubes, not 5-cubes
    with pytest.raises(ValueError):
        CubeChain.of(rnd_cube(random.Random(1), 1)).map_cubes(
            lambda cu: rho(cu, 1), 5)


def test_chain_sum_checks_degrees_with_a_zero_side():
    with pytest.raises(ValueError, match="degree mismatch"):
        CubeChain.zero(5) + CubeChain.of(rnd_cube(random.Random(1), 1))
    with pytest.raises(ValueError, match="degree mismatch"):
        CubeChain.of(rnd_cube(random.Random(1), 1)) + CubeChain.zero(5)


def test_cube_constructor_names_a_missing_part():
    c = rnd_cube(random.Random(2), 2)
    verts = dict(c.vertices)
    del verts[(1, 0)]
    with pytest.raises(ValueError, match=r"missing vertex \(1, 0\)"):
        ExactCube(2, verts, c.arrows)
    arrows = dict(c.arrows)
    del arrows[(2, (0, -1))]
    with pytest.raises(ValueError, match=r"missing arrow \(2, \(0, -1\)\)"):
        ExactCube(2, c.vertices, arrows)
    assert ExactCube(2, c.vertices, c.arrows) == c


def _embedding_word(tower):
    g = GeomView(tower, 0)
    levels = [{1, 2, 3}, {2, 3}, {3}, set()]
    return [tower.cls(0, g.level(a), 0, g.level(b))
            for a, b in zip(levels, levels[1:])]


def _lift(a, j, i):
    return a[:j - 1] + (i,) + a[j - 1:]


def test_trusted_constructions_equal_checked_ones():
    """Every construction builds its dicts in the order the hash reads them:
    rebuilt through the checked constructor, each result has the same hash,
    the same parts and the same canonical instance."""
    rng = random.Random(43)
    word = _embedding_word(Tower(r=3, seed=5))
    for n in range(4):
        c = rnd_cube(rng, n, with_gram=True)
        c2, isos = conjugated(rng, c)
        built = [zero_cube(n), tensor_cube(c, rnd_cube(rng, 1)),
                 composite_pullback(word, c), bracket_cube([c, c2], [isos])]
        built += [degeneracy(c, j, sign) for j in range(1, n + 2)
                  for sign in (1, -1)]
        built += [rho(c, j) for j in range(1, n + 1)]
        built += [act_sym(sigma, c) for sigma in permutations(range(1, n + 1))]
        for j in range(1, n + 1):
            for i in (-1, 0, 1):
                f = face(c, j, i)
                assert f.vertices == {a: c.vertices[_lift(a, j, i)]
                                      for a in vertex_indices(n - 1)}
                assert f.arrows == {
                    (k, a): c.arrows[(k if k < j else k + 1, _lift(a, j, i))]
                    for k, a in arrow_keys(n - 1)}
                built += [f, face(degeneracy(c, j, 1), j, 1)]
        for cube in built:
            checked = ExactCube(cube.n, dict(cube.vertices), dict(cube.arrows))
            assert hash(checked) == hash(cube)
            assert checked.vertices == cube.vertices
            assert checked.arrows == cube.arrows
            assert checked.intern() is cube
            cube.validate()
            assert cube.is_zero_cube() == all(
                o.dim == 0 for o in cube.vertices.values())
