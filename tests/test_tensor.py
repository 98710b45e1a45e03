import random
from fractions import Fraction

from cubehom.cubes import CubeChain, ExactFunctor, boundary, face
from cubehom.exactlin import MetObj, RatMatrix
from cubehom.multirel import GeomView, LevelChain, MorphView, Tower
from cubehom.suites import (_tensor_cmap_relation, _tensor_homotopy_relation,
                            _theta_relation)
from cubehom.tensorstruct import (SlotSum, SlotTerm, bracket_apply,
                                  bracket_pair, check_bracket_boundary,
                                  check_phi_s_equals_tensor, op_tensor,
                                  op_tensor_homotopy, xi_slot, xi_slot_f,
                                  xi_slot_fg, _pi, _station_levels)
from helpers import rnd_cube, rnd_gram


def geometry(r, seed=9, schemes=1, alias=None):
    tower = Tower(r=r, schemes=schemes, seed=seed, alias=alias)
    return tower, [GeomView(tower, s) for s in range(schemes)]


def fixed_obj(rng, dim=2):
    return MetObj(dim, rnd_gram(rng, dim), check=False)


def test_bracket_of_empty_slot_list_is_tensor():
    rng = random.Random(0)
    _, (g,) = geometry(2)
    F = fixed_obj(rng)
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    out = bracket_apply(F, [], [_pi(g, frozenset())], x)
    tens = ExactFunctor.tensor_by(_pi(g, frozenset()).on_obj(F))
    assert out == x.map_cubes(tens.on_cube, x.degree)


def test_bracket_first_face_drops_into_slot_application():
    rng = random.Random(1)
    _, (g,) = geometry(2)
    F = fixed_obj(rng)
    x = CubeChain.of(rnd_cube(rng, 0, with_gram=True))
    lvls = _station_levels(((1,),), ())
    slot = xi_slot(g, (1,), lvls[1])
    pis = [_pi(g, lvls[0]), _pi(g, lvls[1])]
    br = bracket_apply(F, [slot], pis, x)
    # the first bracket axis, lower face, recovers tensor-after-slot
    dropped = CubeChain.zero(br.degree - 1)
    for cube, c in br.terms.items():
        f = face(cube, 1, -1)
        if not (f.is_zero_cube() or f.is_degenerate()):
            dropped = dropped + CubeChain.of(f, c)
    inner = bracket_apply(F, [], pis[:1], slot.apply_chain(x))
    assert dropped == inner


def test_bracket_boundary_formula():
    rng = random.Random(2)
    _, (g,) = geometry(3)
    F = fixed_obj(rng)
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    for parts in [((1,),), ((1, 2),), ((2,), (1,)), ((1, 2), (3,))]:
        lvls = _station_levels(parts, ())
        slots = [xi_slot(g, parts[p], lvls[p + 1]) for p in range(len(parts))]
        pis = [_pi(g, lvls[p]) for p in range(len(parts) + 1)]
        xx = x if sum(len(p) for p in parts) <= 2 else \
            CubeChain.of(rnd_cube(rng, 0, with_gram=True))
        assert check_bracket_boundary(F, slots, pis, xx), parts


def test_slot_boundary_terms():
    _, (g,) = geometry(2)
    slot = xi_slot(g, (1, 2), frozenset())
    ds = slot.boundary()
    # each 2-embedding word has one split and one merge
    assert len(ds.terms) == 2 * len(slot.terms)
    assert ds.deg == slot.deg - 1


def test_single_word_slot_boundary_obeys_leibniz():
    # over a whole Xi slot the merge terms of its words cancel in pairs (a
    # composite does not depend on the path), whatever their sign; one word
    # alone pins it: d(phi x) = (d phi)(x) + (-1)^deg(phi) phi(d x)
    rng = random.Random(12)
    _, (g,) = geometry(3)
    for K in [(1, 2), (1, 2, 3)]:
        full = xi_slot(g, K, frozenset())
        for t in list(full.terms)[:2]:
            slot = SlotSum({t: 1}, full.deg)
            for deg in (0, 1):
                x = CubeChain.of(rnd_cube(rng, deg, with_gram=True))
                rhs = slot.boundary().apply_chain(x)
                if deg:
                    rhs = rhs + slot.apply_chain(boundary(x)).scale(
                        (-1) ** (slot.deg % 2))
                assert boundary(slot.apply_chain(x)) == rhs, (K, deg)


def test_tensor_cmap_diagonal_is_tensoring():
    rng = random.Random(3)
    _, (g,) = geometry(2)
    F = fixed_obj(rng)
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    out = op_tensor(F, g, 0, 0, LevelChain.of((), x))
    tens = ExactFunctor.tensor_by(_pi(g, frozenset()).on_obj(F))
    assert out == LevelChain.of((), x.map_cubes(tens.on_cube, x.degree))


def test_tensor_cmap_single_mark_component():
    rng = random.Random(4)
    _, (g,) = geometry(1)
    F = fixed_obj(rng)
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    out = op_tensor(F, g, 0, 1, LevelChain.of((), x))
    lvls = _station_levels(((1,),), ())
    want = bracket_apply(F, [xi_slot(g, (1,), lvls[1])],
                         [_pi(g, lvls[0]), _pi(g, lvls[1])], x)
    # single part, weight zero, division sign +1
    assert out == LevelChain.of({1}, want)


def test_tensor_cmap_relation():
    rng = random.Random(5)
    for r in (1, 2, 3):
        _, (g,) = geometry(r)
        F = fixed_obj(rng)
        deg = 1 if r <= 2 else 0
        x = LevelChain.of(frozenset(), rnd_cube(rng, deg, with_gram=True))
        assert _tensor_cmap_relation(F, g, x, 0, r)
    _, (g,) = geometry(2)
    x = LevelChain.of({2}, rnd_cube(rng, 1, with_gram=True))
    assert _tensor_cmap_relation(fixed_obj(rng), g, x, 1, 2)


def test_tensor_homotopy_relation():
    rng = random.Random(6)
    for r in (1, 2):
        _, (g0, g1) = geometry(r, schemes=2)
        f = MorphView(g0, g1)
        F = fixed_obj(rng)
        x = LevelChain.of(frozenset(), rnd_cube(rng, 1, with_gram=True))
        assert _tensor_homotopy_relation(F, f, x, 0, r)
    _, (g0, g1) = geometry(3, schemes=2)
    f = MorphView(g0, g1)
    x = LevelChain.of(frozenset(), rnd_cube(rng, 0, with_gram=True))
    assert _tensor_homotopy_relation(fixed_obj(rng), f, x, 0, 3)


def test_phi_s_equals_tensor():
    rng = random.Random(7)
    for r in (1, 2, 3):
        _, (g,) = geometry(r, seed=7)
        F = fixed_obj(rng)
        deg = 1 if r <= 2 else 0
        x = LevelChain.of(frozenset(), rnd_cube(rng, deg, with_gram=True))
        assert check_phi_s_equals_tensor(F, g, x, 0, r)["ok"]
    _, (g,) = geometry(2, seed=7)
    x = LevelChain.of({2}, rnd_cube(rng, 0, with_gram=True))
    assert check_phi_s_equals_tensor(fixed_obj(rng), g, x, 1, 2)["ok"]


def test_second_homotopy_relation():
    rng = random.Random(8)
    for r in (1, 2):
        tower = Tower(r=r, schemes=3, seed=11, alias=[0, 1, 0])
        X0, T1, X2 = (GeomView(tower, 0), GeomView(tower, 1),
                      GeomView(tower, 2))
        f, g = MorphView(X0, T1), MorphView(T1, X2)
        F = fixed_obj(rng)
        deg = 1 if r == 1 else 0
        x = LevelChain.of(frozenset(), rnd_cube(rng, deg, with_gram=True))
        assert _theta_relation(F, f, g, x, 0, r)


def test_bracket_pair_strict_and_boundary():
    rng = random.Random(9)
    f1, f2 = fixed_obj(rng), fixed_obj(rng, dim=1)
    t1 = ExactFunctor.tensor_by(f1)
    t2 = ExactFunctor.tensor_by(f2)
    t12 = ExactFunctor.tensor_by(MetObj(f1.dim * f2.dim,
                                        f1.gram.kron(f2.gram), check=False))
    for deg in (0, 1):
        x = CubeChain.of(rnd_cube(rng, deg, with_gram=True))
        br = bracket_pair(f1, f2, x)
        assert br.degree == deg + 1
        # strictness: the associator arrow is an identity matrix, and the
        # bracket is flagged as isometric to a degenerate cube
        for cube in br.terms:
            assert cube.iso_degenerate_witness() is not None
        lhs = boundary(br)
        rhs = x.map_cubes(lambda cu: t1.on_cube(t2.on_cube(cu)), deg) \
            - x.map_cubes(t12.on_cube, deg)
        if deg:
            rhs = rhs - bracket_pair(f1, f2, boundary(x))
        assert lhs == rhs


def test_pullback_word_twists_axis_action():
    # the pullback of an axis-permuted cube is the word-axis-fixing
    # extension of the permutation applied to the pullback
    from cubehom.cubes import act_sym, composite_pullback
    from itertools import permutations as perms
    rng = random.Random(11)
    _, (g,) = geometry(2)
    word = []
    cur = {1, 2}
    for k in (2, 1):
        nxt = cur - {k}
        word.append(g.tower.cls(0, g.level(cur), 0, g.level(nxt)))
        cur = nxt
    w = len(word) - 1
    for _ in range(4):
        c = rnd_cube(rng, 2, with_gram=True)
        big = composite_pullback(word, c)
        for sigma in perms((1, 2)):
            ext = tuple(range(1, w + 1)) + tuple(s + w for s in sigma)
            assert composite_pullback(word, act_sym(sigma, c)) == \
                act_sym(ext, big)


def test_bracket_last_middle_face_is_twisted_composition():
    # before alternation, the deepest middle face of a two-slot bracket is
    # the slot-one application twisted by the block transposition that
    # exchanges the leading bracket axes with the slot-one axes
    from cubehom.cubes import act_sym, face
    rng = random.Random(12)
    _, (g,) = geometry(2)
    F = fixed_obj(rng)
    parts = ((2,), (1,))
    lvls = _station_levels(parts, ())
    slots = [xi_slot(g, parts[0], lvls[1]), xi_slot(g, parts[1], lvls[2])]
    pis = [_pi(g, lvls[p]) for p in range(3)]
    x = CubeChain.of(rnd_cube(rng, 1, with_gram=True))
    br = bracket_apply(F, slots, pis, x)
    l = 2
    s1 = slots[0].deg
    dropped = CubeChain.zero(br.degree - 1)
    for cube, c in br.terms.items():
        f = face(cube, l, 0)
        if not (f.is_zero_cube() or f.is_degenerate()):
            dropped = dropped + CubeChain.of(f, c)
    inner = bracket_apply(F, slots[1:], pis[1:], x)
    plain = slots[0].apply_chain(inner)
    # sigma exchanges the leading l-1 bracket axes with the s1 slot axes
    n_tot = plain.degree
    sigma = tuple(range(l, l + s1 - 1 + 1)) + tuple(range(1, l)) + \
        tuple(range(l + s1, n_tot + 1))
    twisted = plain.map_cubes(lambda cu: act_sym(sigma, cu), n_tot)
    assert dropped == twisted


def test_bracket_pair_degenerate_input():
    rng = random.Random(10)
    from cubehom.cubes import degeneracy
    f1, f2 = fixed_obj(rng), fixed_obj(rng)
    degen = degeneracy(rnd_cube(rng, 0, with_gram=True), 1, 1)
    out = bracket_pair(f1, f2, CubeChain.of(degen))
    assert out.is_zero()
