import os
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
from helpers import (chain_form_components, close_span_every_member,
                     equivariance_witness, orbit_signs,
                     plain_against_alternating, rnd_cube)


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

    def record(self, g, span):
        init(self, g, span)
        if self.use_alt:
            models.append(self)

    monkeypatch.setattr(MatrixModel, "__init__", record)
    rep = suites.run_suite(suite, trials=1, **params)
    assert rep["ok"]
    assert models
    return models


@pytest.mark.parametrize("suite,params", [
    ("multirel.alternating", {"r": 2, "seed": 5}),
    ("multirel.cone-identification", {"r": 3, "seed": 0}),
])
def test_alt_coords_match_solve_on_suite_spans(monkeypatch, suite, params):
    # reference: the basis is Alt of each span cube that Alt does not
    # kill, and coordinates solve against the basis chains written over
    # their own terms
    from cubehom.exactlin import solve
    rng = random.Random(7)
    for model in _alt_models(monkeypatch, suite, **params):
        for (level, degree), cubes in model.span.items():
            dim = model.dim(level, degree)
            basis = [model.basis_chain(level, degree, p) for p in range(dim)]
            alts = [alt(CubeChain.of(cube)) for cube in cubes]
            assert basis == [a for a in alts if not a.is_zero()]
            row = {}
            for chain in basis:
                for cube in chain.terms:
                    row.setdefault(cube, len(row))
            mat = RatMatrix(len(row), dim, {(row[cube], p): v for p, chain
                                            in enumerate(basis)
                                            for cube, v in chain.terms.items()})
            for _ in range(3):
                coeffs = {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for p in range(dim)}
                chain = CubeChain.zero(degree)
                for p, c in coeffs.items():
                    chain = chain + basis[p].scale(c)
                got = model.coords(level, chain)
                rhs = {(row[cube], 0): v for cube, v in chain.terms.items()}
                want = solve(mat, RatMatrix(mat.rows, 1, rhs))
                assert got == {p: v for (p, _), v in want.items()}
                assert got == {p: c for p, c in coeffs.items() if c}


def test_alt_coords_reject_a_cube_that_alt_kills():
    # the interior identity-insert two-cube is transposition-invariant, so
    # Alt kills its orbit: its canonical member is in the span but has no
    # basis vector, and the cube reads as zero
    from cubehom.cubes import canonical
    from cubehom.multirel import MatrixModel, close_span_generic
    rng = random.Random(16)
    _, (X0, X1) = geometry(3, seed=3, schemes=2, alias=[0, 0])
    cube = rnd_cube(rng, 0, with_gram=True)
    wc = identity_word_cube(X0, (1, 2), (), 1, cube, MorphView(X0, X1))
    span = close_span_generic([(frozenset(), wc)], lambda lvl, cu: [],
                              sym=True)
    rep, s = canonical(wc)
    assert s == 0 and list(span.index[(frozenset(), 2)]) == [rep]
    model = MatrixModel(X0, span)
    assert model.dim(frozenset(), 2) == 0
    assert model.coords(frozenset(), CubeChain.of(wc)) == {}
    square = rnd_cube(rng, 2, with_gram=True)
    assert canonical(square)[1]
    with pytest.raises(ValueError, match="chain leaves the generated span"):
        model.coords(frozenset(), CubeChain.of(square))


# -- canonical members against the every-member oracle ------------------------

ALT_BUILDS = ("ccomplex-alt", "homotopy-alt", "pullback-alt", "cor216-alt",
              "buildt-alt")


def _recorded_closures(monkeypatch, r4=True):
    """(seeds, expand, sym) of every span closure of the alternating
    builds of the matrix pins, and of an alternating r = 4 model."""
    from cubehom import double, multirel
    from test_report_digests import _build
    calls = []
    real = multirel.close_span_generic

    def record(seeds, expand, sym):
        seeds = list(seeds)
        calls.append((seeds, expand, sym))
        return real(seeds, expand, sym)

    for mod in (multirel, double):
        monkeypatch.setattr(mod, "close_span_generic", record)
    for name in ALT_BUILDS:
        _build(name)
    if r4:
        _, (g,) = geometry(4, seed=61)
        multirel.closed_model(g, [(frozenset(), rnd_cube(
            random.Random(61), 1, with_gram=True))], use_alt=True)
    monkeypatch.undo()
    assert any(sym for *_, sym in calls)
    return calls


def _cube_sets(span):
    return {key: set(idx) for key, idx in span.index.items()}


def test_canonical_matches_the_orbit_oracle(monkeypatch):
    # every member of the orbit of every span cube gets that cube, which
    # is canonical, and the sign of a permutation reaching it, or 0 when
    # an odd permutation fixes the cube
    from cubehom.cubes import canonical
    from cubehom.multirel import close_span_generic
    checked = killed = 0
    for seeds, expand, sym in _recorded_closures(monkeypatch):
        if not sym:
            continue
        for (_, degree), cubes in close_span_generic(seeds, expand,
                                                     sym).items():
            if degree < 2:
                continue
            for cube in cubes:
                sign, dead = orbit_signs(cube)
                assert all(canonical(g) == (cube, 0 if dead else s)
                           for g, s in sign.items())
                checked += 1
                killed += dead
    assert checked > killed > 0


def test_canonical_is_the_same_under_other_hash_seeds():
    # the alternating bases take canonical members, so their matrices must
    # not depend on the string hash seed of the process
    import subprocess
    import sys
    from pathlib import Path
    tests = Path(__file__).resolve().parent
    code = ("import hashlib, json, pytest\n"
            "from test_report_digests import _build, _record_matrices\n"
            "with pytest.MonkeyPatch.context() as mp:\n"
            "    calls = _record_matrices(mp)\n"
            "    _build('ccomplex-alt')\n"
            "print(len(calls), hashlib.sha256(json.dumps(calls).encode())"
            ".hexdigest())\n")
    path = os.pathsep.join([str(tests), str(tests.parent / "src")])
    outs = [subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed,
                                    PYTHONPATH=path)).stdout
            for seed in ("0", "987")]
    assert outs[0] == outs[1]
    assert int(outs[0].split()[0]) > 0


def test_canonical_raises_on_a_label_shared_by_two_members(monkeypatch):
    # with every axis key and every label equal, both members of a generic
    # square's orbit are least: a hash collision, which must not be
    # resolved silently
    from cubehom import cubes
    square = rnd_cube(random.Random(69), 2, with_gram=True)
    assert cubes.act_sym(transposition(2, 1), square) != square
    monkeypatch.setattr(cubes, "_axis_key", lambda *args: 0)
    monkeypatch.setattr(cubes, "_label", lambda *args: 0)
    with pytest.raises(ValueError, match="share a label"):
        cubes.canonical(square)


def test_span_closure_matches_expanding_every_member(monkeypatch):
    from cubehom.cubes import canonical
    from cubehom.multirel import close_span_generic
    for seeds, expand, sym in _recorded_closures(monkeypatch):
        want = close_span_every_member(seeds, expand, sym)
        assert _cube_sets(close_span_generic(seeds, expand, sym)) == {
            key: {canonical(cube)[0] for cube in idx} if sym else set(idx)
            for key, idx in want.index.items()}


def test_span_expansions_are_equivariant(monkeypatch):
    # the closure expands canonical members only, which is sound when the
    # expansion of sigma x lies in the orbits of the expansion of x: so
    # for closed_model's Xi images and double_spans' reindexers
    checked = {}
    for seeds, expand, sym in _recorded_closures(monkeypatch, r4=False):
        if not sym:
            continue
        span = close_span_every_member(seeds, expand, sym)
        owner = expand.__qualname__.split(".")[0]
        for (level, degree), cubes in span.items():
            for cube in cubes:
                assert equivariance_witness(expand, level, cube) is None
                checked[owner] = checked.get(owner, 0) + 1
    assert set(checked) == {"closed_model", "double_spans"}, checked


def test_equivariance_check_fails_a_non_equivariant_expansion():
    square = rnd_cube(random.Random(63), 2, with_gram=True)

    def first_axis_face(level, cube):
        return [(level, cube.face(1, -1))] if cube.n == 2 else []

    assert equivariance_witness(first_axis_face, frozenset(), square) \
        is not None


# -- the alternating coordinate reader ----------------------------------------

def test_alternating_coords_read_alt_of_every_written_image(monkeypatch):
    # materialization writes the coordinates of every image through the
    # destination's coords and builds no Alt chain; on every image an
    # alternating destination reads in the alternating builds, those are
    # the coordinates of alt(img)
    from cubehom.multirel import MatrixModel
    from test_report_digests import _build
    seen = []
    real = MatrixModel.coords

    def record(self, level, chain):
        got = real(self, level, chain)
        if self.use_alt:
            seen.append((self, level, chain, got))
        return got

    monkeypatch.setattr(MatrixModel, "coords", record)
    for name in ALT_BUILDS:
        _build(name)
    monkeypatch.undo()
    assert any(got for *_, got in seen)
    for model, level, chain, got in seen:
        assert got == model.coords(level, alt(chain))


def test_alternating_coords_cancel_an_orbit_outside_the_span():
    # G + tau G, tau odd, has Alt zero: its coordinates are empty even
    # though G's orbit lies outside the span; G alone leaves the span
    from cubehom.cubes import canonical
    from cubehom.multirel import MatrixModel, close_span_generic
    rng = random.Random(65)
    _, (g,) = geometry(2)
    square, other = (rnd_cube(rng, 2, with_gram=True) for _ in range(2))
    span = close_span_generic([(frozenset(), square)], lambda lvl, cu: [],
                              sym=True)
    model = MatrixModel(g, span)
    assert model.dim(frozenset(), 2) == 1
    swapped = act_sym(transposition(2, 1), other)
    assert swapped != other and canonical(other)[1]
    assert canonical(other)[0] not in span.index[(frozenset(), 2)]
    pair = CubeChain(2, [(other, 1), (swapped, 1)])
    assert model.coords(frozenset(), pair) == {}
    with pytest.raises(ValueError, match="chain leaves the generated span"):
        model.coords(frozenset(), CubeChain.of(other))


# Setups of plain_against_alternating: (marks, seed degree, tower seed).
PLAIN_AGAINST_ALT = [(1, 0, 3001), (1, 1, 3001), (2, 0, 3002), (2, 1, 3002),
                     (3, 0, 3003)]


def test_alt_is_a_cmap_intertwining_the_plain_and_alternating_maps():
    # the signs of cubes.canonical are load-bearing here: with every sign
    # +1, or with no orbit killed, some A fails to be a C-map
    # (test_mutation.py)
    for marks, degree, seed in PLAIN_AGAINST_ALT:
        failed, compared = plain_against_alternating(marks, degree, seed)
        assert failed == []
        assert all(compared.values()), compared


def test_alternating_closure_expands_once_per_orbit(monkeypatch):
    # counted work: one expand call per span cube, each the canonical
    # member of its orbit, where expanding every member makes one per
    # cube of the every-member closure
    from cubehom import multirel
    calls, expands = [], []
    real = multirel.close_span_generic

    def counting(seeds, expand, sym):
        expands.append(expand)

        def counted(level, cube):
            calls.append((frozenset(level), cube))
            return expand(level, cube)
        return real(seeds, counted, sym)

    monkeypatch.setattr(multirel, "close_span_generic", counting)
    _, (g,) = geometry(3, seed=71)
    seeds = [(frozenset(), rnd_cube(random.Random(71), 1, with_gram=True))]
    model = multirel.closed_model(g, seeds, use_alt=True)
    span_cubes = {(level, cube)
                  for (level, _), cubes in model.span.items() for cube in cubes}
    assert len(calls) == len(set(calls)) == len(span_cubes)
    assert set(calls) == span_cubes
    every = close_span_every_member(seeds, expands[0], True)
    assert len(span_cubes) < sum(len(idx) for idx in every.index.values())


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
