"""Mutation checks: the verifiers must reject perturbed identities.

Each test breaks one ingredient (a sign, a term, a weight) and asserts
the corresponding checker fails, guarding the suites against vacuity.
"""

import inspect
import random
import textwrap

import pytest

from cubehom import ccx, cubes, double, memo, multirel, suites
from cubehom.cubes import CubeChain, boundary
from cubehom.double import GluedCube
from cubehom.multirel import (GeomView, LevelChain, MorphView, Tower,
                              check_xi_boundary, xi_apply, xi_K, xi_Kf)
from cubehom.signs import divisions_into, sgn_division
from cubehom.suites import _tensor_cmap_relation
from helpers import plain_against_alternating, rnd_cube, rnd_gram
from cubehom.exactlin import MetObj


@pytest.fixture(autouse=True)
def _end_run():
    # run-scoped memo entries made while a function is patched (prepared
    # Xi words, say) must not outlive the patch
    yield
    memo.end_run()


def geometry(r, seed=5, schemes=1):
    tower = Tower(r=r, schemes=schemes, seed=seed)
    return tower, [GeomView(tower, s) for s in range(schemes)]


def _splits(K):
    """(|L|, L, L', sgn(L L'; K)) for every division K = L ∐ L'."""
    return [(len(L), L, Lp, sgn_division(L, Lp, K))
            for L, Lp in divisions_into(K, 2, allow_empty=True)]


def test_wrong_boundary_sign_fails_xi_identity():
    rng = random.Random(0)
    _, (g,) = geometry(3)
    K, I = (1, 2), frozenset()
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    assert check_xi_boundary([g], K, I, x)
    # flip the sign of the argument-boundary term
    w = len(K)
    lhs = boundary(xi_K(g, K, I, x)) - xi_K(g, K, I, boundary(x)).scale((-1) ** w)
    rhs = CubeChain.zero(lhs.degree)
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
    views = [f.src, f, f.dst, g, g.dst]
    assert check_xi_boundary(views, K, I, x)
    w = len(K)
    lhs = boundary(xi_apply(views, K, I, x)) + \
        xi_apply(views, K, I, boundary(x)).scale((-1) ** w)
    # rebuild the right side WITHOUT the composite-pullback correction
    from cubehom.multirel import _marks_back
    rhs = CubeChain.zero(lhs.degree)
    mid_levels = _marks_back(g, I)
    src_levels = _marks_back(f, mid_levels)
    for a, L, Lp, s in _splits(K):
        if a >= 1:
            inner = xi_apply(views, Lp, I, x)
            rhs = rhs + xi_K(f.src, L, frozenset(Lp) | src_levels,
                             inner).scale(s * (-1) ** (a + 1))
        inner = xi_Kf(g, Lp, I, x)
        rhs = rhs + xi_Kf(f, L, frozenset(Lp) | mid_levels, inner).scale(s)
        if a <= w - 1:
            inner = xi_K(g.dst, Lp, I, x)
            rhs = rhs + xi_apply(views, L, I | set(Lp), inner).scale(s * (-1) ** (a + 1))
    assert lhs != rhs  # the missing -Xi_{K,gf} term is detected


def test_wrong_weight_fails_tensor_map(monkeypatch):
    rng = random.Random(2)
    _, (g,) = geometry(2, seed=9)
    F = MetObj(2, rnd_gram(rng, 2), check=False)
    x = LevelChain.of(frozenset(), rnd_cube(rng, 1, with_gram=True))
    assert _tensor_cmap_relation(F, g, x, 0, 2)
    import cubehom.tensorstruct as ts
    real = ts.b_weight
    monkeypatch.setattr(ts, "b_weight", lambda sizes: real(sizes) + 1)
    assert not _tensor_cmap_relation(F, g, x, 0, 2)


def test_wrong_division_sign_fails_ccomplex_relation(monkeypatch):
    rng = random.Random(3)
    _, (g,) = geometry(2, seed=9)
    x = LevelChain.of(frozenset(), rnd_cube(rng, 1, with_gram=True))
    assert multirel.check_ccomplex_relation(g, x, 0, 2)["ok"]
    real = multirel.sgn_division
    monkeypatch.setattr(multirel, "sgn_division",
                        lambda K, I, J: -real(K, I, J) if len(K) == 2
                        else real(K, I, J))
    assert not multirel.check_ccomplex_relation(g, x, 0, 2)["ok"]


def test_missing_alternation_fails_identity_pullback():
    rng = random.Random(4)
    tower = Tower(r=2, schemes=2, seed=3, alias=[0, 0])
    X0, X1 = GeomView(tower, 0), GeomView(tower, 1)
    gid = MorphView(X0, X1)
    x = LevelChain.of(frozenset(), rnd_cube(rng, 1, with_gram=True))
    img = multirel.op_pullback(gid, 0, 2, x)
    # before alternation the off-diagonal part is nonzero ...
    assert not img.is_zero()
    # ... and only alternation makes the identity pullback the identity
    assert img.alt().is_zero()


def test_one_perturbed_word_enumerator_fails_pullback_and_tensor(monkeypatch):
    # the Xi words of multirel's operators and of tensorstruct's slot
    # functors come from one enumerator, so a single perturbation of it
    # must break the relations of both families
    from cubehom.suites import _tensor_homotopy_relation
    rng = random.Random(5)
    _, (X0, X1) = geometry(2, seed=9, schemes=2)
    f = MorphView(X0, X1)
    F = MetObj(2, rnd_gram(rng, 2), check=False)
    x = LevelChain.of(frozenset(), rnd_cube(rng, 1, with_gram=True))
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
    # the words prepared before the patch are run-scoped memo entries
    memo.end_run()
    assert not multirel.check_cmap_relation(f, x, 0, 2)["ok"]
    assert not _tensor_homotopy_relation(F, f, x, 0, 2)


def _mutant(fn, old, new):
    """fn recompiled from its own source with the one occurrence of old
    replaced by new."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1
    ns = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"),
         fn.__globals__, ns)
    return ns[fn.__name__]


def test_flipped_reach_sign_fails_every_matrix_family(monkeypatch):
    # maps, homotopies and second homotopies share one defect, so one flip
    # of its reach-dependent sign must break all three checks
    from cubehom.rand import rnd_retraction, rnd_second_homotopy_setup
    rng = random.Random(6)
    # most solved second homotopies are zero, whose defect has no sign to
    # flip; ten setups at this seed include nonzero ones.  They are solved
    # before the flip, since the solver reads the same defect terms.
    thetas = [(s["theta"], s["target"]) for s in (
        rnd_second_homotopy_setup(rng) for _ in range(10)) if s is not None]
    maps, homotopies = [], []
    for _ in range(4):
        a, b, f, g, psi = rnd_retraction(rng)
        maps += [f, g]
        homotopies.append((psi, ccx.identity_cmap(b), ccx.compose(f, g)))
    assert all(f.validate()["ok"] for f in maps)
    assert all(h.validate(p, q)["ok"] for h, p, q in homotopies)
    assert all(t.compare_defect(d)["ok"] for t, d in thetas)
    monkeypatch.setattr(ccx.CFamily, "defect_terms", _mutant(
        ccx.CFamily.defect_terms, "(-1) ** ((self.reach + 1) % 2)",
        "(-1) ** (self.reach % 2)"))
    assert not all(f.validate()["ok"] for f in maps)
    assert not all(h.validate(p, q)["ok"] for h, p, q in homotopies)
    assert not all(t.compare_defect(d)["ok"] for t, d in thetas)


def _reset_structures(*ccs):
    for cc in ccs:
        cc._structure = None


def test_unsigned_structure_diagonal_fails_ccomplex_relations(monkeypatch):
    # the sign (-1)^m of a C-complex's d is written once, in its structure
    # family; without it cones and multi-relative complexes stop being
    # C-complexes, and homotopies between retraction maps stop validating.
    # (rnd_ccomplex draws rarely have a nonzero F, so they would not tell.)
    from cubehom.rand import rnd_retraction
    rng = random.Random(6)
    cones, homotopies = [], []
    for _ in range(4):
        a, b, f, g, psi = rnd_retraction(rng)
        cones.append(ccx.simple(f).ccx)
        homotopies.append((psi, ccx.identity_cmap(b), ccx.compose(f, g)))
    for r in (2, 3):
        _, (g,) = geometry(r, seed=17)
        seeds = [(frozenset(), rnd_cube(random.Random(14 + r), 1,
                                        with_gram=True))]
        cones.append(multirel.build_ccomplex(g, seeds)[1])
    assert all(cc.validate()["ok"] for cc in cones)
    assert all(h.validate(p, q)["ok"] for h, p, q in homotopies)
    monkeypatch.setattr(ccx.CComplex, "structure", _mutant(
        ccx.CComplex.structure, "sign = -1 if m % 2 else 1", "sign = 1"))
    _reset_structures(*cones)
    for h, _, _ in homotopies:
        _reset_structures(h.src, h.dst)
    assert not any(cc.validate()["ok"] for cc in cones)
    assert not all(h.validate(p, q)["ok"] for h, p, q in homotopies)


def test_unsigned_op_structure_fails_generator_relations(monkeypatch):
    # the generator-level structure family carries the same one sign; the
    # C-complex relation and the pullback-map relation both read it
    _, (X0, X1) = geometry(2, seed=9, schemes=2)
    f = MorphView(X0, X1)
    xs = [LevelChain.of(frozenset(), rnd_cube(random.Random(20 + i), 1,
                                              with_gram=True))
          for i in range(4)]
    assert all(multirel.check_ccomplex_relation(X0, x, 0, 2)["ok"] for x in xs)
    assert all(multirel.check_cmap_relation(f, x, 0, 2)["ok"] for x in xs)
    monkeypatch.setattr(multirel, "op_structure", _mutant(
        multirel.op_structure, ".scale((-1) ** (m % 2))", ""))
    assert not any(multirel.check_ccomplex_relation(X0, x, 0, 2)["ok"]
                   for x in xs)
    assert not any(multirel.check_cmap_relation(f, x, 0, 2)["ok"] for x in xs)


def test_flipped_reach_sign_fails_generator_relations(monkeypatch):
    # the pullback map and the tensor homotopy are checked by one
    # generator-level relation, so one flip of its reach-dependent sign
    # must break both
    from cubehom.suites import _tensor_homotopy_relation
    rng = random.Random(5)
    _, (X0, X1) = geometry(2, seed=9, schemes=2)
    f = MorphView(X0, X1)
    F = MetObj(2, rnd_gram(rng, 2), check=False)
    x = LevelChain.of(frozenset(), rnd_cube(rng, 1, with_gram=True))
    assert multirel.check_cmap_relation(f, x, 0, 2)["ok"]
    assert _tensor_homotopy_relation(F, f, x, 0, 2)
    flipped = _mutant(multirel.check_relation, "(-1) ** ((reach + 1) % 2)",
                      "(-1) ** (reach % 2)")
    monkeypatch.setattr(multirel, "check_relation", flipped)
    monkeypatch.setattr(suites, "check_relation", flipped)
    assert not multirel.check_cmap_relation(f, x, 0, 2)["ok"]
    assert not _tensor_homotopy_relation(F, f, x, 0, 2)


def test_flipped_split_sign_fails_xi_boundary_at_every_chain_length(
        monkeypatch):
    # the boundary identities of Xi_K, Xi_{K,f}, Xi_{K,f,g} and
    # Xi_{K,f1,f2,f3} are one checker over one list of splits, so one flip
    # of the sign of the proper split L = {1}, L' = {2} must break all four
    K, I = (1, 2), frozenset()
    cases = []
    for t in range(4):
        _, geoms = geometry(2, schemes=t + 1)
        views = [geoms[0]]
        for src, dst in zip(geoms, geoms[1:]):
            views += [MorphView(src, dst), dst]
        x = CubeChain.of(rnd_cube(random.Random(10 + t), 0, with_gram=True))
        assert check_xi_boundary(views, K, I, x)
        cases.append((views, x))
    real = multirel.sgn_division
    monkeypatch.setattr(multirel, "sgn_division", lambda L, Lp, K: (
        -real(L, Lp, K) if (L, Lp) == ((1,), (2,)) else real(L, Lp, K)))
    for views, x in cases:
        assert not check_xi_boundary(views, K, I, x)


def test_unsigned_cone_identification_fails_cor_2_16(monkeypatch):
    # the cone's B half sits on the levels containing the last mark with
    # sign -1; the same identification with sign +1 must fail to be a map
    # of C-complexes, in the plain and in the alternating mode
    cases = []
    for r, use_alt in [(2, False), (3, False), (2, True), (3, True)]:
        _, (g,) = geometry(r, seed=17)
        seeds = [(frozenset(), rnd_cube(random.Random(14 + r), 1,
                                        with_gram=True))]
        assert multirel.check_cor_2_16(g, seeds, use_alt)["ok"]
        cases.append((g, seeds, use_alt))
    monkeypatch.setattr(multirel, "cone_identification", _mutant(
        multirel.cone_identification, "frozenset({mark}), da, -1)",
        "frozenset({mark}), da, 1)"))
    for g, seeds, use_alt in cases:
        rep = multirel.check_cor_2_16(g, seeds, use_alt)
        assert not rep["ok"]
        assert set(rep["at"]) == {"m", "n", "degree", "entry", "value"}


def test_misplaced_restriction_fails_double_extraction(monkeypatch):
    # the extraction suite runs the restriction that build_t uses; this one
    # reads the empty component from the largest subset of the level index
    # (with k added); double.splitting then meets a fold image outside the
    # span its build closed
    def misplaced(view, I, k, cube):
        index = view.level_index(set(I) | {k})
        top = max(index, key=len)
        return GluedCube(cube.n, {S: cube.comps[(S or top) | {k}]
                                  for S in index})

    runs = [({"seed": 0}, 15), ({"seed": 1}, 16),
            ({"trials": 5, "r": 3, "seed": 0}, 5)]
    for params, _ in runs:
        assert suites.run_suite("double.extraction", **params)["ok"]
    monkeypatch.setattr(double, "restrict", misplaced)
    for params, failed in runs:
        rep = suites.run_suite("double.extraction", **params)
        assert not rep["ok"]
        assert rep["counts"]["failed"] == failed
    with pytest.raises(ValueError, match="chain leaves the generated span"):
        suites.run_suite("double.splitting", seed=0)


@pytest.mark.parametrize("mutant", ["unsigned", "no-kill"])
def test_wrong_canonical_signs_fail_the_plain_against_alternating_relations(
        monkeypatch, mutant):
    # cubes.canonical gives each member the sign relating its Alt to that
    # of the canonical member, and 0 where Alt kills the orbit.  With every
    # sign +1, or with no orbit killed, Alt read as a matrix map from a
    # plain model to an alternating one is no C-map for some setup, and
    # the alternating suite at its defaults fails
    from test_multirel import PLAIN_AGAINST_ALT
    assert suites.run_suite("multirel.alternating")["ok"]
    real = cubes.canonical

    def wrong(cube):
        rep, s = real(cube)
        return rep, 1 if mutant == "unsigned" else s or 1

    monkeypatch.setattr(cubes, "canonical", wrong)
    monkeypatch.setattr(multirel, "canonical", wrong)
    assert any(plain_against_alternating(marks, degree, seed)[0]
               for marks, degree, seed in PLAIN_AGAINST_ALT)
    assert not suites.run_suite("multirel.alternating")["ok"]
