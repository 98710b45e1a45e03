"""Mutation checks: the verifiers must reject perturbed identities.

Each test breaks one ingredient (a sign, a term, a weight) and asserts
the corresponding checker fails, guarding the suites against vacuity.
"""

import random
from fractions import Fraction

from cubehom import multirel
from cubehom.cubes import CubeChain, boundary
from cubehom.multirel import (GeomView, MorphView, Tower, check_xi_boundary,
                              check_xi_fg_boundary, lev_add, lev_alt,
                              lev_boundary, lev_eq, lev_scale, op_F, xi_K,
                              xi_Kf, xi_Kfg)
from cubehom.suites import _tensor_cmap_relation
from cubehom.tensorstruct import op_tensor
from helpers import rnd_cube, rnd_gram
from cubehom.exactlin import MetObj


def geometry(r, seed=5, schemes=1):
    tower = Tower(r=r, schemes=schemes, seed=seed, mode="scalar")
    return tower, [GeomView(tower, s) for s in range(schemes)]


def test_wrong_boundary_sign_fails_xi_identity():
    rng = random.Random(0)
    _, (g,) = geometry(3)
    K, I = (1, 2), frozenset()
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    assert check_xi_boundary(g, K, I, x)
    # flip the sign of the argument-boundary term
    w = len(K)
    lhs = boundary(xi_K(g, K, I, x)) - xi_K(g, K, I, boundary(x)).scale((-1) ** w)
    rhs = CubeChain.zero(lhs.degree)
    from cubehom.multirel import _splits
    for a, L, Lp, s in _splits(K):
        if a == 0 or a == w:
            continue
        inner = xi_K(g, Lp, I, x)
        rhs = rhs + xi_K(g, L, I | set(Lp), inner).scale(s * (-1) ** (a + 1))
    assert lhs != rhs


def test_dropped_composite_term_fails_exchange_identity():
    rng = random.Random(1)
    _, vs = geometry(2, schemes=3)
    f, g = MorphView(vs[0], vs[1]), MorphView(vs[1], vs[2])
    h = MorphView(vs[0], vs[2])
    K, I = (1,), frozenset({2})
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    assert check_xi_fg_boundary(f, g, K, I, x)
    w = len(K)
    lhs = boundary(xi_Kfg(f, g, K, I, x)) + \
        xi_Kfg(f, g, K, I, boundary(x)).scale((-1) ** w)
    # rebuild the right side WITHOUT the composite-pullback correction
    from cubehom.multirel import _splits, _marks_back
    rhs = CubeChain.zero(lhs.degree)
    mid_levels = _marks_back(g, I)
    src_levels = _marks_back(f, mid_levels)
    for a, L, Lp, s in _splits(K):
        if a >= 1:
            inner = xi_Kfg(f, g, Lp, I, x)
            rhs = rhs + xi_K(f.src, L, frozenset(Lp) | src_levels,
                             inner).scale(s * (-1) ** (a + 1))
        inner = xi_Kf(g, Lp, I, x)
        rhs = rhs + xi_Kf(f, L, frozenset(Lp) | mid_levels, inner).scale(s)
        if a <= w - 1:
            inner = xi_K(g.dst, Lp, I, x)
            rhs = rhs + xi_Kfg(f, g, L, I | set(Lp), inner).scale(s * (-1) ** (a + 1))
    assert lhs != rhs  # the missing -Xi_{K,gf} term is detected


def test_wrong_weight_fails_tensor_map(monkeypatch):
    rng = random.Random(2)
    _, (g,) = geometry(2, seed=9)
    F = MetObj(2, rnd_gram(rng, 2), check=False)
    x = {frozenset(): CubeChain.of(rnd_cube(rng, 1, with_gram=True))}
    assert _tensor_cmap_relation(F, g, x, 0, 2)
    import cubehom.tensorstruct as ts
    real = ts.b_weight
    monkeypatch.setattr(ts, "b_weight", lambda sizes: real(sizes) + 1)
    assert not _tensor_cmap_relation(F, g, x, 0, 2)


def test_wrong_division_sign_fails_ccomplex_relation(monkeypatch):
    rng = random.Random(3)
    _, (g,) = geometry(2, seed=9)
    x = {frozenset(): CubeChain.of(rnd_cube(rng, 1, with_gram=True))}
    assert multirel.check_ccomplex_relation(g, x, 0, 2)["ok"]
    real = multirel.sgn_division
    monkeypatch.setattr(multirel, "sgn_division",
                        lambda K, I, J: -real(K, I, J) if len(K) == 2
                        else real(K, I, J))
    assert not multirel.check_ccomplex_relation(g, x, 0, 2)["ok"]


def test_missing_alternation_fails_identity_pullback():
    rng = random.Random(4)
    tower = Tower(r=2, schemes=2, seed=3, mode="scalar", alias=[0, 0])
    X0, X1 = GeomView(tower, 0), GeomView(tower, 1)
    gid = MorphView(X0, X1)
    x = {frozenset(): CubeChain.of(rnd_cube(rng, 1, with_gram=True))}
    img = multirel.op_pullback(gid, 0, 2, x)
    # before alternation the off-diagonal part is nonzero ...
    assert any(not ch.is_zero() for ch in img.values())
    # ... and only alternation makes the identity pullback the identity
    assert lev_eq(lev_alt(img), {})


def test_one_perturbed_word_enumerator_fails_pullback_and_tensor(monkeypatch):
    # the Xi words of multirel's operators and of tensorstruct's slot
    # functors come from one enumerator, so a single perturbation of it
    # must break the relations of both families
    from cubehom.suites import _tensor_homotopy_relation
    rng = random.Random(5)
    _, (X0, X1) = geometry(2, seed=9, schemes=2)
    f = MorphView(X0, X1)
    F = MetObj(2, rnd_gram(rng, 2), check=False)
    x = {frozenset(): CubeChain.of(rnd_cube(rng, 1, with_gram=True))}
    assert multirel.check_cmap_relation(f, x, 0, 2)["ok"]
    assert _tensor_homotopy_relation(F, f, x, 0, 2)
    real = multirel.xi_words

    def odd_insert_flipped(views, K, I):
        # the inserted morphism is the one class that changes scheme; its
        # index in the word is its insertion position
        for sgn, word in real(views, K, I):
            p = next((i for i, c in enumerate(word) if c.src[0] != c.dst[0]), 0)
            yield (-sgn if p % 2 else sgn), word

    monkeypatch.setattr(multirel, "xi_words", odd_insert_flipped)
    assert not multirel.check_cmap_relation(f, x, 0, 2)["ok"]
    assert not _tensor_homotopy_relation(F, f, x, 0, 2)
