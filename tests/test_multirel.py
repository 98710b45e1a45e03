import random
from fractions import Fraction

import pytest

from cubehom import ccx
from cubehom.cubes import CubeChain, act_sym, alt, transposition
from cubehom.exactlin import RatMatrix
from cubehom.multirel import (GeomView, MorphView, Tower, build_ccomplex,
                              build_homotopy, build_pullback,
                              check_alt_absorption, check_ccomplex_relation,
                              check_cmap_relation, check_cor_2_16,
                              check_homotopy_relation, check_identity_cmap,
                              check_identity_pullback_vanishing,
                              check_xi_boundary, identity_word_cube,
                              LevelChain, op_F, op_homotopy, op_pullback,
                              restriction_morphism, xi_K, xi_Kf)
from helpers import chain_form_components, rnd_cube


def geometry(r, seed=5, schemes=1, alias=None):
    tower = Tower(r=r, schemes=schemes, seed=seed, alias=alias)
    return tower, [GeomView(tower, s) for s in range(schemes)]


def test_xi_singleton_is_plain_pullback():
    rng = random.Random(0)
    _, (g,) = geometry(2)
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    img = xi_K(g, (1,), (), x)
    assert len(img.terms) == 1
    assert img.degree == x.degree
    (coeff,) = img.terms.values()
    assert coeff == 1


def test_xi_pair_has_two_opposite_sign_terms():
    rng = random.Random(1)
    _, (g,) = geometry(2)
    x = CubeChain.of(rnd_cube(rng, 0, with_gram=True))
    img = xi_K(g, (1, 2), (), x)
    assert img.degree == 1
    assert sorted(img.terms.values()) == [Fraction(-1), Fraction(1)]


def test_xi_rejects_overlap_and_empty():
    rng = random.Random(2)
    _, (g,) = geometry(2)
    x = CubeChain.of(rnd_cube(rng, 0, with_gram=True))
    with pytest.raises(ValueError):
        xi_K(g, (1,), (1,), x)
    with pytest.raises(ValueError):
        xi_K(g, (), (1,), x)


def test_xi_empty_insert_is_pullback():
    rng = random.Random(3)
    _, (g0, g1) = geometry(2, schemes=2)
    f = MorphView(g0, g1)
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    img = xi_Kf(f, (), (1,), x)
    assert img.degree == x.degree
    assert len(img.terms) == 1


def test_xi_boundary_identities():
    rng = random.Random(4)
    _, (g,) = geometry(3)
    for K, I, deg in [((1,), (), 1), ((1, 2), (), 1), ((1, 2), (3,), 1),
                      ((1, 2, 3), (), 0)]:
        x = CubeChain.of(rnd_cube(rng, deg, with_gram=True))
        assert check_xi_boundary([g], K, I, x)


def test_xi_f_boundary_identities():
    rng = random.Random(5)
    _, (g0, g1) = geometry(3, schemes=2)
    f = MorphView(g0, g1)
    for K, I, deg in [((), (1,), 1), ((1,), (), 1), ((1, 2), (), 1),
                      ((1, 2, 3), (), 0)]:
        x = CubeChain.of(rnd_cube(rng, deg, with_gram=True))
        assert check_xi_boundary([f.src, f, f.dst], K, I, x)


def test_xi_fg_boundary_includes_composite_term():
    rng = random.Random(6)
    _, vs = geometry(3, schemes=3)
    f, g = MorphView(vs[0], vs[1]), MorphView(vs[1], vs[2])
    for K, I, deg in [((), (1,), 1), ((1,), (2,), 1), ((1, 2), (), 0)]:
        x = CubeChain.of(rnd_cube(rng, deg, with_gram=True))
        assert check_xi_boundary([f.src, f, f.dst, g, g.dst], K, I, x)


def test_xi_triple_boundary():
    rng = random.Random(7)
    _, vs = geometry(2, schemes=4)
    f1, f2, f3 = (MorphView(vs[0], vs[1]), MorphView(vs[1], vs[2]),
                  MorphView(vs[2], vs[3]))
    for K, I, deg in [((), (1,), 1), ((1,), (), 0), ((1, 2), (), 0)]:
        x = CubeChain.of(rnd_cube(rng, deg, with_gram=True))
        assert check_xi_boundary([f1.src, f1, f1.dst, f2, f2.dst, f3, f3.dst],
                                 K, I, x)


def test_connecting_map_at_one_mark_is_minus_pullback():
    rng = random.Random(8)
    _, (g,) = geometry(1)
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    img = op_F(g, 0, 1, LevelChain.of((), x))
    (lvl, chain), = img.chains().items()
    assert lvl == frozenset({1})
    assert chain == xi_K(g, (1,), (), x).scale(-1)


def test_ccomplex_relation_generatorwise():
    rng = random.Random(9)
    _, (g,) = geometry(3)
    for m, I, deg in [(0, (), 1), (1, (2,), 1), (0, (), 2)]:
        x = LevelChain.of(frozenset(I), rnd_cube(rng, deg, with_gram=True))
        assert check_ccomplex_relation(g, x, m, 3)["ok"]


def test_cmap_and_homotopy_relations():
    rng = random.Random(10)
    _, vs = geometry(2, schemes=3)
    f, g = MorphView(vs[0], vs[1]), MorphView(vs[1], vs[2])
    h = MorphView(vs[0], vs[2])
    x = LevelChain.of(frozenset(), rnd_cube(rng, 1, with_gram=True))
    assert check_cmap_relation(f, x, 0, 2)["ok"]
    assert check_homotopy_relation(f, g, h, x, 0, 2)["ok"]
    x1 = LevelChain.of({1}, rnd_cube(rng, 1, with_gram=True))
    assert check_cmap_relation(f, x1, 1, 2)["ok"]
    assert check_homotopy_relation(f, g, h, x1, 1, 2)["ok"]


def test_materialized_ccomplex_validates():
    rng = random.Random(11)
    for r, use_alt in [(2, False), (2, True), (3, False)]:
        _, (g,) = geometry(r, seed=13)
        model, cc = build_ccomplex(
            g, [(frozenset(), rnd_cube(rng, 1, with_gram=True))],
            use_alt=use_alt)
        assert cc.validate()["ok"]
        assert cc.tot().validate()["ok"]


def test_materialized_pullback_validates():
    rng = random.Random(12)
    for r, use_alt in [(2, False), (2, True)]:
        _, (g0, g1) = geometry(r, seed=13, schemes=2)
        f = MorphView(g0, g1)
        _, _, cmap = build_pullback(
            f, [(frozenset(), rnd_cube(rng, 1, with_gram=True))],
            use_alt=use_alt)
        assert cmap.validate()["ok"]


def test_materialized_homotopy_validates():
    rng = random.Random(13)
    _, vs = geometry(2, seed=13, schemes=3)
    f, g = MorphView(vs[0], vs[1]), MorphView(vs[1], vs[2])
    out = build_homotopy(f, g, [(frozenset(), rnd_cube(rng, 1, with_gram=True))])
    assert out["f"].validate()["ok"]
    assert out["g"].validate()["ok"]
    assert out["h"].validate()["ok"]
    assert out["phi"].validate(out["h"], ccx.compose(out["f"], out["g"]))["ok"]


def test_cone_identification():
    rng = random.Random(14)
    for r, use_alt in [(2, False), (3, False), (2, True)]:
        _, (g,) = geometry(r, seed=17)
        rep = check_cor_2_16(g, [(frozenset(), rnd_cube(rng, 1, with_gram=True))],
                             use_alt=use_alt)
        assert rep["ok"], rep


def test_alt_absorption():
    rng = random.Random(15)
    _, (g,) = geometry(3)
    for K, I, deg in [((1,), (), 2), ((1, 2), (), 1), ((2, 3), (1,), 2)]:
        x = CubeChain.of(rnd_cube(rng, deg, with_gram=True)) + \
            CubeChain.of(rnd_cube(rng, deg, with_gram=True), -3)
        assert check_alt_absorption(g, K, I, x)


def test_identity_insert_word_classification():
    rng = random.Random(16)
    tower, (X0, X1) = geometry(3, seed=3, schemes=2, alias=[0, 0])
    gid = MorphView(X0, X1)
    x = CubeChain.of(rnd_cube(rng, 0, with_gram=True))
    for K, I in [((1,), ()), ((1, 2), ()), ((1, 2), (3,)), ((1, 2, 3), ())]:
        rep = check_identity_pullback_vanishing(X0, gid, K, I, x)
        assert rep["ok"], rep
    # the interior-insertion two-cube is NOT degenerate before alternation
    cube = list(x.terms)[0]
    wc = identity_word_cube(X0, (1, 2), (), 1, cube, gid)
    assert not wc.is_degenerate()
    assert act_sym(transposition(wc.n, 1), wc) == wc
    assert alt(CubeChain.of(wc)).is_zero()
    # its square of nonzero vertices: three equal split pullbacks and one
    # jointly composed pullback in the corner, connected by identities
    v = wc.vertex
    assert v((-1, -1)) == v((-1, 0)) == v((0, -1))
    assert v((0, 0)) != v((-1, -1))
    assert v((0, 0)).dim == v((-1, -1)).dim
    for key in ((1, (-1, -1)), (1, (0, -1)), (2, (-1, -1)), (2, (0, -1))):
        j, a = key
        src, dst = v(a), v(a[:j - 1] + (a[j - 1] + 1,) + a[j:])
        if src.dim and dst.dim:
            assert wc.arrow(j, a).is_identity()
    # so the off-diagonal identity pullback is nonzero before alternation
    img = op_pullback(gid, 0, 2, LevelChain.of((), x))
    assert not img.is_zero()
    assert img.alt().is_zero()


def test_identity_pullback_is_identity_on_alternating_part():
    rng = random.Random(17)
    tower, (X0, X1) = geometry(2, seed=3, schemes=2, alias=[0, 0])
    gid = MorphView(X0, X1)
    for m, I, deg in [(0, (), 1), (1, (2,), 1)]:
        x = LevelChain.of(frozenset(I), rnd_cube(rng, deg, with_gram=True))
        assert check_identity_cmap(gid, x, m, 2)["ok"]


def test_restriction_morphism_views():
    rng = random.Random(18)
    _, (g,) = geometry(3)
    iota = restriction_morphism(g, 3)
    assert iota.src.extra == frozenset({3})
    assert iota.dst.marks == (1, 2)
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    assert check_xi_boundary([iota.src, iota, iota.dst], (1,), (), x)


def test_geometry_rejects_bad_morphisms():
    tower, _ = geometry(2, schemes=2)
    with pytest.raises(ValueError):
        tower.cls(1, frozenset(), 0, frozenset())
    with pytest.raises(ValueError):
        tower.cls(0, frozenset(), 0, frozenset({1}))


def _embedding_word(g, order, top):
    word = []
    cur = set(top)
    for k in order:
        nxt = cur - {k}
        word.append(g.tower.cls(g.scheme, g.level(cur), g.scheme, g.level(nxt)))
        cur = nxt
    return word


def test_composite_pullback_single_morphism_is_functor():
    from cubehom.cubes import PullbackWord, composite_pullback
    rng = random.Random(19)
    _, (g,) = geometry(2)
    cls = g.tower.cls(0, frozenset({1}), 0, frozenset())
    c = rnd_cube(rng, 1, with_gram=True)
    assert composite_pullback(PullbackWord([cls]), c) == \
        cls.functor().on_cube(c)


def test_composite_pullback_face_clauses():
    # for j below the word length: the lower face splits the word, the
    # middle face merges two morphisms, the upper face is the zero cube;
    # beyond it, faces pass to the argument
    from cubehom.cubes import PullbackWord, composite_pullback, face
    rng = random.Random(20)
    _, (g,) = geometry(3)
    for trial in range(10):
        n = rng.randint(0, 2)
        c = rnd_cube(rng, n, with_gram=True)
        order = list(rng.sample((1, 2, 3), 3))
        word = _embedding_word(g, order, (1, 2, 3))
        r = len(word)
        big = composite_pullback(PullbackWord(word), c)
        big.validate()
        for j in range(1, r):
            lower = face(big, j, -1)
            inner = composite_pullback(PullbackWord(word[j:]), c)
            assert lower == composite_pullback(PullbackWord(word[:j]), inner)
            merged = word[:j - 1] + [word[j].compose(word[j - 1])] + word[j + 1:]
            assert face(big, j, 0) == \
                composite_pullback(PullbackWord(merged), c)
            assert face(big, j, 1).is_zero_cube()
        for j in range(r, r + n):
            for i in (-1, 0, 1):
                assert face(big, j, i) == \
                    composite_pullback(PullbackWord(word),
                                       face(c, j - r + 1, i))


def _chain(gs, t):
    # (g_0, f_1, g_1, ..., f_t, g_t) over the first t + 1 members
    views = [gs[0]]
    for i in range(1, t + 1):
        views += [MorphView(gs[i - 1], gs[i]), gs[i]]
    return views


def test_prepared_words_pull_back_as_words_composed_afresh():
    # for r <= 4 and t <= 2, every prepared Xi word has the sign of its
    # xi_words word and the same pullback cube as that word composed
    # afresh once the memo is emptied; its splits and merges (the faces a
    # slot boundary takes) are those of the morphism word
    from cubehom import memo
    from cubehom.cubes import PullbackWord, composite_pullback
    from cubehom.multirel import prepared_xi_words, xi_words
    rng = random.Random(23)
    seen = 0
    for r in range(1, 5):
        _, gs = geometry(r, seed=r, schemes=3)
        for t in range(3):
            views = _chain(gs, t)
            for k in range(0 if t else 1, min(r, 4 - t) + 1):
                K, I = tuple(range(1, k + 1)), frozenset(range(k + 1, r + 1))
                cube = rnd_cube(rng, rng.randint(0, 1), with_gram=True)
                prepared = prepared_xi_words(views, K, I)
                plain = list(xi_words(views, K, I))
                assert [s for s, _ in prepared] == [s for s, _ in plain]
                cubes = [composite_pullback(w, cube) for _, w in prepared]
                memo.end_run()
                for (_, w), (_, word), got in zip(prepared, plain, cubes):
                    seen += 1
                    assert w.functors == PullbackWord(list(word)).functors
                    assert composite_pullback(PullbackWord(list(word)),
                                              cube) == got
                    for j in range(1, len(word)):
                        assert w.split(j) == (PullbackWord(word[:j]),
                                              PullbackWord(word[j:]))
                        merged = (word[:j - 1]
                                  + (word[j].compose(word[j - 1]),)
                                  + word[j + 1:])
                        assert w.merge(j) == PullbackWord(merged)
    assert seen > 150


def test_equal_towers_share_the_prepared_words():
    from cubehom.multirel import prepared_xi_words
    views = [_chain(geometry(3, seed=4, schemes=2)[1], 1) for _ in range(2)]
    first = prepared_xi_words(views[0], (1, 2), {3})
    assert prepared_xi_words(views[1], (2, 1), frozenset({3})) is first
    other = _chain(geometry(3, seed=5, schemes=2)[1], 1)
    assert prepared_xi_words(other, (1, 2), {3}) != first


def test_iso_degeneracy_propagation():
    rng = random.Random(21)
    _, (g,) = geometry(3)
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    # connecting maps two or more levels up are flagged
    for n in (2, 3):
        img = op_F(g, 0, n, LevelChain.of((), x))
        assert img.terms
        for _, cube in img.terms:
            assert cube.iso_degenerate_witness() is not None
    # homotopy components are flagged for every index pair
    _, vs = geometry(2, schemes=3)
    f2, g2 = MorphView(vs[0], vs[1]), MorphView(vs[1], vs[2])
    for n in (0, 1, 2):
        img = op_homotopy(f2, g2, 0, n, LevelChain.of((), x))
        for _, cube in img.terms:
            assert cube.iso_degenerate_witness() is not None
    # pullback-map components one level up are flagged as well
    img = op_pullback(MorphView(vs[0], vs[1]), 0, 1, LevelChain.of((), x))
    for _, cube in img.terms:
        assert cube.iso_degenerate_witness() is not None


def _alt_models(monkeypatch, suite, **params):
    """The alternating MatrixModels built while a seeded suite runs."""
    from cubehom import suites
    from cubehom.multirel import MatrixModel
    models = []
    init = MatrixModel.__init__

    def record(self, g, span, use_alt):
        init(self, g, span, use_alt)
        if use_alt:
            models.append(self)

    monkeypatch.setattr(MatrixModel, "__init__", record)
    rep = suites.run_suite(suite, trials=1, **params)
    assert rep["ok"]
    assert models
    return models


def _alt_projector(span, level, degree):
    """The matrix of Alt on the span cubes of one level and degree."""
    idx = span.index[(level, degree)]
    ent = {}
    for col, cube in enumerate(span.basis[(level, degree)]):
        for other, v in alt(CubeChain.of(cube)).terms.items():
            ent[(idx[other], col)] = v
    return RatMatrix(len(idx), len(idx), ent)


@pytest.mark.parametrize("suite,params", [
    ("multirel.alternating", {"r": 2, "seed": 5}),
    ("multirel.cone-identification", {"r": 3, "seed": 0}),
])
def test_alt_coords_match_solve_on_suite_spans(monkeypatch, suite, params):
    # reference: the basis is the pivot columns of the Alt projector, and
    # coordinates solve against them
    from cubehom.exactlin import rref, solve
    rng = random.Random(7)
    not_alt = perturbed = 0
    not_in_alt = "chain not in the alternating subspace"
    for model in _alt_models(monkeypatch, suite, **params):
        for (level, degree), cubes in model.span.items():
            idx = model.span.index[(level, degree)]
            proj = _alt_projector(model.span, level, degree)
            assert proj.mul(proj) == proj
            pivots = rref(proj)[1]
            dim = model.dim(level, degree)
            assert [model.basis_chain(level, degree, p) for p in range(dim)] \
                == [alt(CubeChain.of(cubes[j])) for j in pivots]
            slot = {j: p for p, j in enumerate(pivots)}
            mat = RatMatrix(proj.rows, dim, {(r, slot[j]): v for (r, j), v
                                             in proj.items()
                                             if j in slot})
            for _ in range(3):
                coeffs = {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for p in range(dim)}
                chain = CubeChain.zero(degree)
                for p, c in coeffs.items():
                    chain = chain + model.basis_chain(level, degree, p).scale(c)
                got = model.coords(level, chain)
                rhs = {(idx[cube], 0): v for cube, v in chain.terms.items()}
                want = solve(mat, RatMatrix(mat.rows, 1, rhs))
                assert got == {p: v for (p, _), v in want.items()}
                assert got == {p: c for p, c in coeffs.items() if c}
            for cube in cubes:
                single = CubeChain.of(cube)
                orbit = alt(single)
                if orbit == single:
                    continue
                not_alt += 1
                bad = [single]
                if len(orbit.terms) > 1:
                    perturbed += 1
                    bad.append(orbit + CubeChain.of(cube, Fraction(1, 7)))
                for chain in bad:
                    with pytest.raises(ValueError, match=not_in_alt):
                        model.coords(level, chain)
    assert not_alt and perturbed


def test_alt_coords_reject_a_cube_that_alt_kills():
    # the interior identity-insert two-cube is transposition-invariant, so
    # its orbit has no alternating chain
    from cubehom.multirel import MatrixModel, close_span_generic
    rng = random.Random(16)
    _, (X0, X1) = geometry(3, seed=3, schemes=2, alias=[0, 0])
    cube = rnd_cube(rng, 0, with_gram=True)
    wc = identity_word_cube(X0, (1, 2), (), 1, cube, MorphView(X0, X1))
    span = close_span_generic([(frozenset(), wc)], lambda lvl, cu: [],
                              sym=True)
    assert span.basis[(frozenset(), 2)] == [wc]
    model = MatrixModel(X0, span, use_alt=True)
    assert model.dim(frozenset(), 2) == 0
    with pytest.raises(ValueError, match="chain not in the alternating"):
        model.coords(frozenset(), CubeChain.of(wc))
    with pytest.raises(ValueError, match="chain leaves the generated span"):
        model.coords(frozenset(), CubeChain.of(
            identity_word_cube(X0, (1, 3), (), 1, cube, MorphView(X0, X1))))
    # an alternating model needs every orbit member in its span
    square = rnd_cube(rng, 2, with_gram=True)
    assert alt(CubeChain.of(square)) != CubeChain.of(square)
    bare = close_span_generic([(frozenset(), square)], lambda lvl, cu: [],
                              sym=False)
    with pytest.raises(ValueError, match="not closed under the symmetric"):
        MatrixModel(X0, bare, use_alt=True)


# -- the column form of materialize_operator against the chain form -------

@pytest.mark.parametrize("suite, params", [
    ("multirel.pullback-map", {"r": 3, "seed": 0}),
    ("multirel.composite-homotopy", {"r": 3, "seed": 0}),
    ("multirel.alternating", {"r": 2, "seed": 5}),
    # trial 0 of cone-identification builds its models in the alternating mode
    ("multirel.cone-identification", {"r": 3, "seed": 0}),
])
def test_column_form_matches_the_chain_form(monkeypatch, suite, params):
    from cubehom import multirel, suites
    calls = []
    real = multirel.materialize_operator

    def record(src_model, dst_model, op, reach):
        out = real(src_model, dst_model, op, reach)
        # materialize_ccomplex pops the boundaries off the returned dict
        calls.append((src_model, dst_model, op, reach, dict(out)))
        return out

    monkeypatch.setattr(multirel, "materialize_operator", record)
    assert suites.run_suite(suite, trials=1, **params)["ok"]
    assert any(out for *_, out in calls)
    if suite != "multirel.pullback-map":
        assert any(dst.use_alt for _, dst, *_ in calls) == \
            (suite != "multirel.composite-homotopy")
    for src_model, dst_model, op, reach, out in calls:
        assert out == chain_form_components(src_model, dst_model, op, reach)


def test_memoized_xi_images_equal_fresh_builds(monkeypatch):
    from cubehom import memo, multirel
    from cubehom.cubes import composite_pullback
    from cubehom.multirel import prepared_xi_words, xi_apply

    def no_build(word, cube):
        raise AssertionError("a kept Xi image was built again")

    rng = random.Random(29)
    _, gs = geometry(3, seed=7, schemes=3)
    chains = [[gs[0]], [gs[0], MorphView(gs[0], gs[1]), gs[1]],
              [gs[0], MorphView(gs[0], gs[1]), gs[1], MorphView(gs[1], gs[2]),
               gs[2]]]
    for views in chains:
        t = len(views) // 2
        for K, I in [((1,), ()), ((1, 2), (3,)), ((2, 3), ())]:
            a = rnd_cube(rng, rng.randint(0, 1), with_gram=True)
            b = rnd_cube(rng, a.n, with_gram=True)
            x = CubeChain.of(a)
            first = xi_apply(views, K, I, x)
            two = CubeChain(a.n, [(a, Fraction(2, 3)), (b, -1)])
            xi_apply(views, K, I, CubeChain.of(b))
            with monkeypatch.context() as mp:
                mp.setattr(multirel, "composite_pullback", no_build)
                assert xi_apply(views, K, I, CubeChain.of(a)) == first
                # a chain of several terms is the combination of the images
                combined = xi_apply(views, K, I, two)
            memo.end_run()
            fresh = CubeChain(a.n + len(K) + t - 1, [
                (composite_pullback(w, a), s)
                for s, w in prepared_xi_words(views, K, I)])
            assert xi_apply(views, K, I, x) == first == fresh
            assert xi_apply(views, K, I, two) == combined == \
                fresh.scale(Fraction(2, 3)) - xi_apply(views, K, I,
                                                      CubeChain.of(b))
            assert first.terms
