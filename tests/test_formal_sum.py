"""Property tests of ``exactlin.FormalSum`` through four subclasses.

Cube chains, formal character symbols, logarithmic forms and level
elements share one implementation of collection, sums and scaling; each
keeps only its normal form.  Every property runs on each, and on virtual
glued bundles, which are cube chains of glued 0-cubes.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from cubehom.cubes import CubeChain, degeneracy, object_cube
from cubehom.double import DoubleGeometry
from cubehom.exactlin import MetObj, linear_terms
from cubehom.formalchern import FormalElement
from cubehom.multirel import LevelChain
from cubehom.wang import ANTI, HOLO, LogForm
from helpers import rnd_cube, rnd_gram, zero_cube

PROPS = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)

# Every draw is an index into a fixed pool: Hypothesis then draws small
# integers only, and each test body builds its values from the pools.

# zero, and every p/q with p in -9..9 and q in -7..7 nonzero: negative
# and non-unit denominators, each value as often as the quotients give it
COEFFS = [Fraction(0)] + [Fraction(p, q) for p in range(-9, 10)
                          for q in range(-7, 8) if q]

# nondegenerate 1-cubes, plus a degenerate and a zero one that chains drop
CUBES = [rnd_cube(random.Random(s), 1) for s in range(4)] + [
    degeneracy(object_cube(MetObj(2)), 1, 1), zero_cube(1)]


def _bundle(seed, dim):
    rng = random.Random(seed)
    return DoubleGeometry(1).family_cube((), {
        frozenset(): object_cube(MetObj(dim, rnd_gram(rng, dim),
                                        check=False)),
        frozenset({1}): object_cube(MetObj(dim))})


# cubes at levels: two levels share a cube, one level carries cubes of two
# degrees, and a degenerate and a zero cube that level elements drop
LEVEL_KEYS = [(frozenset(), CUBES[0]), (frozenset(), CUBES[1]),
              (frozenset({1}), CUBES[0]), (frozenset({1}), CUBES[2]),
              (frozenset({1, 2}), CUBES[3]),
              (frozenset({1, 2}), rnd_cube(random.Random(4), 2)),
              (frozenset({2}), CUBES[4]), (frozenset({1}), CUBES[5])]


# two distinct rank-2 bundles, a rank-1 bundle, and a rank-0 bundle (a zero
# glued cube) that drops
BUNDLES = [_bundle(0, 2), _bundle(1, 2), _bundle(2, 1), _bundle(3, 0)]


def _monomials():
    """Every log index (or none) with every unsorted wedge word over the
    other indices of 1..4, each one-form holomorphic or antiholomorphic."""
    out = []
    for log_ix in (None, 1, 2, 3, 4):
        free = [i for i in (1, 2, 3, 4) if i != log_ix]
        for k in range(len(free) + 1):
            for idx in permutations(free, k):
                for kinds in product((HOLO, ANTI), repeat=k):
                    out.append((log_ix, tuple(zip(kinds, idx))))
    return out


MONOMIALS = _monomials()

# each kind's constructor and its pool of keys
KINDS = {
    "CubeChain": (lambda terms: CubeChain(1, terms), CUBES),
    "VirtualGlued": (lambda terms: CubeChain(0, terms), BUNDLES),
    "FormalElement": (FormalElement, list(product(
        range(3), [frozenset(s) for k in range(4)
                   for s in combinations((1, 2, 3), k)], range(4)))),
    "LogForm": (LogForm, MONOMIALS),
    "LevelChain": (LevelChain, LEVEL_KEYS),
}


# a key index is taken modulo the size of the kind's pool, so one
# strategy serves every kind of a parametrized test
keys = st.integers(0, max(len(pool) for _, pool in KINDS.values()) - 1)
coeffs = st.integers(0, len(COEFFS) - 1)
term_lists = st.lists(st.tuples(keys, coeffs), max_size=6)


def key(kind, k):
    pool = KINDS[kind][1]
    return pool[k % len(pool)]


def terms(kind, drawn):
    return [(key(kind, k), COEFFS[c]) for k, c in drawn]


def element(kind, drawn):
    return KINDS[kind][0](terms(kind, drawn))


def no_stored_zero(x):
    return all(c != 0 for c in x.terms.values())


@pytest.mark.parametrize("kind", KINDS)
@PROPS
@given(term_lists, term_lists, term_lists)
def test_sum_is_associative_and_commutative(kind, a, b, c):
    x, y, z = (element(kind, d) for d in (a, b, c))
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x


@pytest.mark.parametrize("kind", KINDS)
@PROPS
@given(term_lists)
def test_difference_with_itself_is_zero(kind, a):
    x = element(kind, a)
    assert (x - x).is_zero()
    assert (x + -x).is_zero()


@pytest.mark.parametrize("kind", KINDS)
@PROPS
@given(term_lists, coeffs, coeffs)
def test_scale_composes(kind, d, i, j):
    x, a, b = element(kind, d), COEFFS[i], COEFFS[j]
    assert x.scale(a).scale(b) == x.scale(a * b)


@pytest.mark.parametrize("kind", KINDS)
@PROPS
@given(keys, keys)
def test_float_coefficient_is_refused(kind, k, k2):
    # a float's binary value is rarely the rational meant (0.1 would be
    # stored as 3602879701896397/36028797018963968), so sums refuse it as
    # RatMatrix does, in scaling and in construction
    make = KINDS[kind][0]
    x = make([(key(kind, k), Fraction(1))])
    with pytest.raises(TypeError):
        x.scale(0.1)
    with pytest.raises(TypeError):
        make([(key(kind, k2), 0.1)])


@pytest.mark.parametrize("kind", KINDS)
@PROPS
@given(term_lists, term_lists, coeffs)
def test_no_zero_coefficient_is_stored(kind, d, e, i):
    x, y, a = element(kind, d), element(kind, e), COEFFS[i]
    for z in (x, y, x + y, x - y, x.scale(a), y - y, x + x.scale(-1)):
        assert no_stored_zero(z)


@pytest.mark.parametrize("kind", KINDS)
@PROPS
@given(term_lists)
def test_term_list_is_sum_of_single_terms(kind, d):
    make = KINDS[kind][0]
    tl = terms(kind, d)
    total = make([])
    for term in tl:
        total = total + make([term])
    assert make(tl) == total
    assert make(dict(tl[:1])) == make(tl[:1])


@PROPS
@given(st.integers(0, len(MONOMIALS) - 1), coeffs)
def test_log_form_wedge_is_alternating(m, i):
    """Reversing a wedge word of k one-forms multiplies by (-1)^(k(k-1)/2)."""
    mono, c = MONOMIALS[m], COEFFS[i]
    log_ix, wedge = mono
    k = len(wedge)
    flipped = LogForm([((log_ix, wedge[::-1]), c * (-1) ** (k * (k - 1) // 2))])
    assert LogForm([(mono, c)]) == flipped


# unit, integer and non-integer factors, as the linear extensions meet them
FACTORS = [1, -1, Fraction(1), Fraction(-1)] + list(range(-3, 4)) + COEFFS
factors = st.integers(0, len(FACTORS) - 1)


def left_fold(items):
    """The dict each ``acc = acc + x.scale(c)`` step used to leave, kept as
    the reference for the collecting accumulator's values and key order."""
    acc = {}
    for x, c in items:
        c = Fraction(c)
        img = {} if c == 0 else {k: c * d for k, d in x.terms.items()}
        if not img:
            continue
        if not acc:
            acc = img
            continue
        acc = dict(acc)
        for k, d in img.items():
            s = acc.get(k, 0) + d
            if s == 0:
                del acc[k]
            else:
                acc[k] = s
    return acc


@pytest.mark.parametrize("kind", KINDS)
@PROPS
@given(st.tuples(term_lists, term_lists, term_lists),
       st.lists(st.tuples(st.integers(0, 2), factors), max_size=8),
       st.booleans(), st.integers(0, 7), factors)
def test_accumulator_matches_the_left_fold(kind, elems, drawn, cancel, at, f):
    make = KINDS[kind][0]
    pool = [element(kind, d) for d in elems]
    items = [(pool[p], FACTORS[i]) for p, i in drawn]
    if items and cancel:
        # cancel an earlier image in full, then bring part of it back
        x, c = items[at % len(items)]
        items += [(x, -c), (x, FACTORS[f])]
    out = make(linear_terms(enumerate(c for _, c in items),
                            lambda i: items[i][0]))
    ref = left_fold(items)
    assert out.terms == ref
    assert list(out.terms) == list(ref)
    assert no_stored_zero(out)
