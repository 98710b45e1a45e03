import random

from cubehom.cubes import CubeChain
from cubehom.formalchern import (FormalTarget, check_chain_map,
                                 check_ds_squared,
                                 check_vanishing_consistency, formal_ch,
                                 iso_class_key, reindex_check, sign_exponent,
                                 tot_boundary)
from cubehom.multirel import GeomView, LevelChain, MorphView, Tower, xi_K, xi_Kf
from helpers import from_rows, rnd_cube


def geometry(r, seed=19, schemes=1):
    tower = Tower(r=r, schemes=schemes, seed=seed)
    return tower, [GeomView(tower, s) for s in range(schemes)]


def test_sign_exponent_examples():
    assert sign_exponent((), 1) % 2 == 0
    # one mark at full depth: 1 + 1 + 1 = 3, an odd exponent
    assert sign_exponent((1,), 1) == 3
    assert sign_exponent((1,), 1) % 2 == 1


def test_ds_squared_on_random_spans():
    rng = random.Random(0)
    for r in (1, 2, 3):
        _, (g,) = geometry(r)
        target = FormalTarget(g)
        for _ in range(6):
            lvl = frozenset(rng.sample(range(1, r + 1), rng.randint(0, r)))
            ch = CubeChain.of(rnd_cube(rng, rng.randint(0, 2), with_gram=True))
            assert check_ds_squared(target, lvl, ch, ch.degree)


def test_chain_map_identity():
    rng = random.Random(1)
    for r in (1, 2, 3):
        _, (g,) = geometry(r)
        target = FormalTarget(g)
        for _ in range(4):
            n = rng.randint(1, 2)
            x = LevelChain.of(frozenset(), rnd_cube(rng, n, with_gram=True))
            if rng.random() < 0.6:
                x = x + LevelChain.of(
                    {1}, rnd_cube(rng, n + 1, with_gram=True))
            assert check_chain_map(target, x, n)


def test_connecting_terms_vanish_under_the_rule():
    # levels two or more marks up are hit only through flagged generators
    rng = random.Random(2)
    _, (g,) = geometry(2)
    target = FormalTarget(g)
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    img = xi_K(g, (1, 2), (), x)
    assert not img.is_zero()
    assert target.ch(x.degree + 1, frozenset({1, 2}), img).is_zero()


def test_vanishing_consistency_on_flagged_cubes():
    rng = random.Random(3)
    tower = Tower(r=2, schemes=2, seed=23)
    g0, g1 = GeomView(tower, 0), GeomView(tower, 1)
    f = MorphView(g0, g1)
    target = FormalTarget(g0)
    tested = 0
    for _ in range(6):
        x = CubeChain.of(rnd_cube(rng, rng.randint(0, 1), with_gram=True))
        for cube in xi_Kf(f, (1,), (), x).terms:
            if target.vanishes(cube):
                assert check_vanishing_consistency(target, cube)
                tested += 1
    assert tested > 0


def test_iso_class_key_collapses_square_rescalings():
    rng = random.Random(4)
    from cubehom.cubes import ExactFunctor
    from cubehom.exactlin import MetObj, RatMatrix
    from fractions import Fraction
    c = rnd_cube(rng, 1, with_gram=True)
    tw = ExactFunctor.tensor_by(MetObj(1, RatMatrix(1, 1, {(0, 0): Fraction(9, 4)}),
                                       check=False))
    assert iso_class_key(c) == iso_class_key(tw.on_cube(c))
    tw2 = ExactFunctor.tensor_by(MetObj(1, RatMatrix(1, 1, {(0, 0): Fraction(2)}),
                                        check=False))
    assert iso_class_key(c) != iso_class_key(tw2.on_cube(c))


def test_iso_class_key_normalizes_integer_grams_exactly():
    from cubehom.cubes import ExactFunctor, object_cube
    from cubehom.exactlin import MetObj, RatMatrix
    from fractions import Fraction
    gram = from_rows([[3, 1], [1, 2]])
    c = object_cube(MetObj(2, gram))
    (_, dim, lead_one, squarefree), = iso_class_key(c)[1]
    assert dim == 2 and squarefree == 3
    assert lead_one == gram.scale(Fraction(1, 3))
    assert (lead_one.num, lead_one.den) == ({(0, 0): 3, (0, 1): 1, (1, 0): 1,
                                             (1, 1): 2}, 3)
    tw = ExactFunctor.tensor_by(MetObj(1, RatMatrix(1, 1, {(0, 0): 4}),
                                       check=False))
    assert iso_class_key(tw.on_cube(c)) == iso_class_key(c)


def test_reindex_bookkeeping():
    for r in (1, 4, 5):
        rep = reindex_check(r)
        assert rep["ok"]
    assert reindex_check(5)["checked"] == 80


def test_formal_ch_signs():
    rng = random.Random(5)
    _, (g,) = geometry(1)
    target = FormalTarget(g)
    x0 = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    x1 = CubeChain.of(rnd_cube(rng, 2, with_gram=True))
    elt = formal_ch(target, LevelChain.of((), x0) + LevelChain.of({1}, x1), 1)
    # the empty level enters with +1, the one-mark level with -1
    for (n, lvl, _), c in elt.terms.items():
        cube_coeffs = x0.terms if not lvl else x1.terms
        sign = 1 if not lvl else -1
        assert c in {sign * v for v in cube_coeffs.values()}
