"""The gathered cube constructions and the drawn instances against their
closure-driven oracles (``helpers``).

``rho``, ``degeneracy`` and ``tensor_cube`` gather through shape tables,
and the random generators build their matrices from integer numerators
and skip zero boundaries; each must give the cube or matrix its oracle
gives, leave the generator in the oracle's state, and keep the pinned
draws.  The mutants at the end show that these checks see a misplaced
arrow and a skipped draw."""

import hashlib
import json
import random

import pytest

from cubehom import cubes, memo, rand
from cubehom.cubes import degeneracy, rho, tensor_cube
from cubehom.rand import (rnd_chain_complex, rnd_cube, rnd_invertible,
                          rnd_one_cube)
from helpers import (degeneracy_oracle, rho_oracle, rnd_chain_complex_oracle,
                     rnd_invertible_oracle, rnd_one_cube_oracle,
                     tensor_cube_oracle)


@pytest.fixture(autouse=True)
def _end_run():
    # cubes built under a patched table must not outlive the patch
    yield
    memo.end_run()


def _cubes(seed):
    """Seeded cubes of degree 0-4: products of one-cubes drawn without
    rerolls, so degenerate factors and factors with a zero end (a = 0 or
    c = 0) occur, with and without Gram forms."""
    rng = random.Random(seed)
    out = [rnd_cube(rng, 0, with_gram=True)]
    for n in range(1, 5):
        for with_gram in (False, True):
            cube = None
            for _ in range(n):
                f = rnd_one_cube(rng, max_dim=2, with_gram=with_gram)
                cube = f if cube is None else tensor_cube(cube, f)
            out.append(cube)
    return out


def _construction_mismatches(seeds=range(4)):
    """Every (construction, args) whose gathered cube differs from its
    oracle's, over the cubes of ``_cubes`` and every axis and sign."""
    bad = []
    for seed in seeds:
        drawn = _cubes(seed)
        for c in drawn:
            for j in range(1, c.n + 1):
                if rho(c, j) != rho_oracle(c, j):
                    bad.append(("rho", seed, c.n, j))
            for j in range(1, c.n + 2):
                for sign in (1, -1):
                    if degeneracy(c, j, sign) != degeneracy_oracle(c, j, sign):
                        bad.append(("degeneracy", seed, c.n, j, sign))
        for f in drawn:
            for g in drawn:
                if f.n + g.n <= 4 and tensor_cube(f, g) != \
                        tensor_cube_oracle(f, g):
                    bad.append(("tensor_cube", seed, f.n, g.n))
    return bad


def test_gathered_constructions_equal_their_oracles():
    zero_ends = sum(not o.dim for seed in range(4) for c in _cubes(seed)
                    for o in c.vertices)
    assert zero_ends > 0
    assert _construction_mismatches() == []


def test_gathered_constructions_are_the_interned_oracle_cubes():
    drawn = _cubes(5)
    c, point = drawn[-1], drawn[0]
    assert rho(c, 2) is rho_oracle(c, 2)
    assert degeneracy(c, 5, -1) is degeneracy_oracle(c, 5, -1)
    assert tensor_cube(c, point) is tensor_cube_oracle(c, point)
    assert tensor_cube(point, c) is tensor_cube_oracle(point, c)


def test_constructions_refuse_out_of_range_axes():
    c = _cubes(0)[3]
    for bad in (0, c.n + 1):
        with pytest.raises(ValueError, match="rho axis"):
            rho(c, bad)
    with pytest.raises(ValueError, match="degeneracy axis"):
        degeneracy(c, c.n + 2, 1)
    with pytest.raises(ValueError, match="degeneracy sign"):
        degeneracy(c, 1, 0)


def _mat_parts(m):
    # the stored form, entry order included
    return m.rows, m.cols, m.den, list(m.num.items())


def _parts(x):
    if hasattr(x, "arrows"):
        return ([(o.dim, None if o.gram is None else _mat_parts(o.gram))
                 for o in x.vertices], [_mat_parts(a) for a in x.arrows])
    if hasattr(x, "boundary"):
        return (list(x.dims.items()),
                [(n, _mat_parts(m)) for n, m in x.boundary.items()])
    return _mat_parts(x)


CALLS = [
    (rnd_invertible, rnd_invertible_oracle, [(n,) for n in range(7)]),
    (rnd_one_cube, rnd_one_cube_oracle,
     [(d, w) for d in (1, 2, 3) for w in (False, True)]),
    (rnd_chain_complex, rnd_chain_complex_oracle,
     [((0, 3), 3), ((0, 4), 2), ((-1, 2), 4), ((0, 4), 1)]),
]


def _generator_mismatches(seeds=range(12)):
    """Every (generator, seed, args) whose result differs from the
    oracle's in value or stored entry order, or that leaves the generator
    in another state."""
    bad = []
    for fn, oracle, arglists in CALLS:
        for seed in seeds:
            new, old = random.Random(seed), random.Random(seed)
            for args in arglists:
                got, want = fn(new, *args), oracle(old, *args)
                if _parts(got) != _parts(want) or \
                        new.getstate() != old.getstate():
                    bad.append((fn.__name__, seed, args))
                    break
    return bad


def test_generators_draw_and_build_what_their_oracles_do():
    assert _generator_mismatches() == []


def test_chain_complexes_skip_only_zero_boundaries():
    ranks = {True: 0, False: 0}
    for seed in range(12):
        cx = rnd_chain_complex(random.Random(seed))
        for n in range(1, 4):
            ranks[n in cx.boundary] += 1
        assert cx.validate()["ok"]
    assert ranks[True] and ranks[False]


# -- pinned draws ------------------------------------------------------------
#
# The SHA-256 of the matrices the generators draw at seeds 0-9, each
# seed's list followed by the generator's next 64 random bits; computed
# before the generators built from integer numerators.

def _mat(m):
    return [m.rows, m.cols, m.den,
            sorted([r, c, v] for (r, c), v in m.num.items())]


def _cube(c):
    return [c.n, [[o.dim, None if o.gram is None else _mat(o.gram)]
                  for o in c.vertices], [_mat(a) for a in c.arrows]]


def _cx(cx):
    return [sorted(cx.dims.items()),
            [[n, _mat(m)] for n, m in sorted(cx.boundary.items())]]


DRAWS = {
    "rnd_invertible": lambda rng: [_mat(rnd_invertible(rng, n))
                                   for n in range(7)],
    "rnd_one_cube": lambda rng: [_cube(rnd_one_cube(rng, max_dim=d,
                                                    with_gram=w))
                                 for d in (1, 2, 3) for w in (False, True)],
    "rnd_chain_complex": lambda rng: [
        _cx(rnd_chain_complex(rng, degs, maxdim))
        for degs, maxdim in (((0, 3), 3), ((0, 4), 2), ((-1, 2), 4))],
    "rnd_cube": lambda rng: [_cube(rnd_cube(rng, n, max_dim=2,
                                            with_gram=n % 2 == 1))
                             for n in range(4)],
}

DRAW_DIGESTS = {
    "rnd_invertible":
        "8f1edcb2579d46f5b276293a8cc281929b7bd28d93f74fc4efa706ef8752c66a",
    "rnd_one_cube":
        "94112aaeb80941c4afe6b773a72d543c2c5a77f286375309080a45cf023ab34d",
    "rnd_chain_complex":
        "15feccf8cf3d56e0209837e78061d8d24f12345f540b470e0efad25abaa7abde",
    "rnd_cube":
        "053edde9ee2ed8f0663318242406f8e6bde778b0b8499d80a5b41e02dcba576d",
}


def _draw_digest(kind):
    out = []
    for seed in range(10):
        rng = random.Random(seed)
        out.append([DRAWS[kind](rng), rng.getrandbits(64)])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(DRAW_DIGESTS))
def test_drawn_matrices_are_pinned(kind):
    assert _draw_digest(kind) == DRAW_DIGESTS[kind]


# -- the checks bite ---------------------------------------------------------

def test_a_table_with_two_arrows_swapped_fails_the_oracle(monkeypatch):
    c = _cubes(0)[4]
    key = ("rho", c.n, 1)
    rho(c, 1)
    vsrc, asrc, fills = cubes._BUILD_TABLE_CACHE[key]
    arrows = c.arrows + (None,)
    # the first two gathered positions that hold different matrices
    p, q = next((p, q) for p in range(len(asrc)) for q in range(p)
                if arrows[asrc[p]] != arrows[asrc[q]])
    swapped = list(asrc)
    swapped[p], swapped[q] = swapped[q], swapped[p]
    monkeypatch.setitem(cubes._BUILD_TABLE_CACHE, key,
                        (vsrc, tuple(swapped), fills))
    assert ("rho", 0, c.n, 1) in _construction_mismatches(seeds=[0])


def _draws_skipping_zero_denominators(rng, n):
    # the draws of rnd_invertible, but a zero numerator draws no denominator
    def entry():
        p = rng.randint(-3, 3)
        return p * (6 // rng.randint(1, 3)) if p else 0

    lo, up = {}, {}
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.6:
                lo[(i, j)] = entry()
            if rng.random() < 0.6:
                up[(j, i)] = entry()
    perm = list(range(n))
    rng.shuffle(perm)
    return lo, up, perm


def test_a_skipped_denominator_draw_fails_the_oracle_and_the_pins(monkeypatch):
    monkeypatch.setattr(rand, "_invertible_draws",
                        _draws_skipping_zero_denominators)
    bad = {name for name, _, _ in _generator_mismatches()}
    assert bad == {"rnd_invertible", "rnd_one_cube", "rnd_chain_complex"}
    assert all(_draw_digest(kind) != DRAW_DIGESTS[kind]
               for kind in DRAW_DIGESTS)
