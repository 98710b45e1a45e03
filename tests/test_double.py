import random
from fractions import Fraction

import pytest

from cubehom import ccx
from cubehom.cubes import CubeChain, ExactCube
from cubehom.double import (DoubleGeometry, GluedBundle, GluedCube,
                            VirtualGlued, build_t, double_spans,
                            inclusion_exclusion_op, iota_j_star, p_j_star,
                            qt_bundle)
from cubehom.exactlin import MetObj
from cubehom.signs import subsets
from helpers import cube_parts, rnd_cube, rnd_gram


def rnd_bundle(rng, marks, dim=2):
    return GluedBundle(marks, {frozenset(S): MetObj(dim, rnd_gram(rng, dim),
                                                    check=False)
                               for S in subsets(marks)})


def test_bundle_requires_constant_rank():
    rng = random.Random(0)
    comps = {frozenset(): MetObj(1), frozenset({1}): MetObj(2)}
    with pytest.raises(ValueError):
        GluedBundle((1,), comps)


def test_extraction_examples():
    rng = random.Random(1)
    obj = MetObj(2, rnd_gram(rng, 2), check=False)
    const = GluedBundle((1, 2), {frozenset(S): obj for S in subsets((1, 2))})
    for I in subsets((1, 2)):
        assert const.comps[frozenset(I)] == obj
    f = rnd_bundle(rng, (1,))
    # extraction is additive on virtual bundles
    v = VirtualGlued.of(f, 2) + VirtualGlued.of(const_restrict(f), -2)
    got = v.extract(())
    want = {}
    for b, c in v.terms.items():
        obj2 = b.comps[frozenset()]
        want[obj2] = want.get(obj2, 0) + c
    assert got == {k: v2 for k, v2 in want.items() if v2}


def const_restrict(f):
    # an arbitrary second bundle derived from f for linearity checks
    return p_j_star(iota_j_star(f, f.marks[0]), f.marks[0])


def test_restriction_table_r2():
    rng = random.Random(2)
    f = rnd_bundle(rng, (1, 2))
    g1 = iota_j_star(f, 1)
    assert g1.marks == (2,)
    assert g1.comps[frozenset()] == f.comps[frozenset({1})]
    assert g1.comps[frozenset({2})] == f.comps[frozenset({1, 2})]
    g2 = iota_j_star(f, 2)
    assert g2.comps[frozenset()] == f.comps[frozenset({2})]
    assert g2.comps[frozenset({1})] == f.comps[frozenset({1, 2})]


def test_fold_section_identity():
    rng = random.Random(3)
    for r in range(1, 5):
        marks = tuple(range(1, r + 1))
        f = rnd_bundle(rng, marks)
        for j in marks:
            g = iota_j_star(f, j)
            assert iota_j_star(p_j_star(g, j), j) == g
            back = p_j_star(g, j)
            for S in subsets(marks):
                assert back.comps[frozenset(S)] == g.comps[frozenset(S) - {j}]


def test_one_minus_fold_vanishes_on_marked_components():
    rng = random.Random(4)
    for r in (2, 3, 4):
        marks = tuple(range(1, r + 1))
        f = rnd_bundle(rng, marks)
        for j in marks:
            v = VirtualGlued.of(f) - VirtualGlued.of(
                p_j_star(iota_j_star(f, j), j))
            for I in subsets(marks):
                if j in I:
                    assert not v.extract(I)


def test_qt_bundle_cancellations():
    rng = random.Random(5)
    for r in (1, 2, 3, 4):
        marks = tuple(range(1, r + 1))
        f = rnd_bundle(rng, marks)
        qt = qt_bundle(f)
        for I in subsets(marks):
            if I:
                assert not qt.extract(I)
        want = {}
        for I in subsets(marks):
            obj = f.comps[frozenset(I)]
            s = want.get(obj, 0) + (-1) ** len(I)
            if s == 0:
                want.pop(obj, None)
            else:
                want[obj] = s
        assert qt.extract(()) == want


def regram(rng, cube):
    verts, arrows = cube_parts(cube)
    verts = {a: MetObj(o.dim, rnd_gram(rng, o.dim) if o.dim else None,
                       check=False)
             for a, o in verts.items()}
    return ExactCube(cube.n, verts, arrows).intern()


def seed_family(rng, geom):
    base = rnd_cube(rng, 1, max_dim=2, with_gram=True)
    comps = {frozenset(S): regram(rng, base) for S in subsets(geom.marks)}
    return geom.family_cube((), comps)


def test_glued_cube_degeneracy_needs_common_axis():
    rng = random.Random(6)
    from cubehom.cubes import degeneracy
    c = rnd_cube(rng, 1, with_gram=True)
    d1 = degeneracy(c, 1, 1)
    d2 = degeneracy(c, 2, 1)
    geom = DoubleGeometry(1)
    same = geom.family_cube((), {frozenset(): d1, frozenset({1}): d1})
    assert same.is_degenerate()
    mixed = geom.family_cube((), {frozenset(): d1, frozenset({1}): d2})
    assert not mixed.is_degenerate()
    assert CubeChain.of(mixed) == CubeChain.of(mixed)
    assert boundary(CubeChain.of(mixed)) is not None


from cubehom.cubes import boundary


def test_build_t_splitting():
    rng = random.Random(7)
    for r in (1, 2, 3):
        geom = DoubleGeometry(r)
        seed = seed_family(rng, geom)
        out = build_t(geom, [((), seed)])
        t, q = out["t"], out["q"]
        assert t.validate()["ok"]
        assert q.validate()["ok"]
        qt = ccx.compose(q, t)
        model0 = out["models"][0]
        nontrivial = 0
        for (lvl, deg), cubes in model0.span.items():
            for pos in range(model0.dim(lvl, deg)):
                chain = model0.basis_chain(lvl, deg, pos)
                want = inclusion_exclusion_op(geom, chain)
                if not want.is_zero():
                    nontrivial += 1
                want_coords = model0.coords(lvl, want)
                mat = qt.c(0, 0, deg)
                got = {rr: mat[(rr, pos)] for rr in range(mat.rows)
                       if mat[(rr, pos)] != 0}
                assert got == want_coords
        assert nontrivial > 0
        # higher section components vanish in this strict family model,
        # consistent with being flagged as isometric to degenerate cubes
        assert not [1 for (m, n) in t.comps if m == 0 and n > 0]


def test_build_t_glued_spans_are_closed():
    # each step's complex lives on the union of the two halves' spans; that
    # union must be closed already, cube for cube and in the same order
    rng = random.Random(8)
    for r in (1, 2, 3):
        geom = DoubleGeometry(r)
        out = build_t(geom, [((), seed_family(rng, geom))])
        for j, model in enumerate(out["models"][1:], 1):
            cubes = [(level, cube) for (level, _), row in model.span.items()
                     for cube in row]
            assert double_spans(geom, j, cubes).basis == model.span.basis
