"""Property tests of ``exactlin.FormalSum`` through five subclasses.

Cube chains, virtual glued bundles, formal character symbols,
logarithmic forms and level elements share one implementation of
collection, sums and scaling; each keeps only its normal form.  Every
property runs on each.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubehom.cubes import CubeChain, degeneracy, object_cube, zero_cube
from cubehom.double import GluedBundle, VirtualGlued
from cubehom.exactlin import MetObj, linear_terms
from cubehom.formalchern import FormalElement
from cubehom.multirel import LevelChain
from cubehom.wang import ANTI, HOLO, LogForm
from helpers import rnd_cube, rnd_gram

PROPS = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)

# negative and non-unit denominators, and zero
coeffs = st.one_of(st.just(Fraction(0)),
                   st.builds(Fraction, st.integers(-9, 9),
                             st.integers(-7, 7).filter(bool)))

# nondegenerate 1-cubes, plus a degenerate and a zero one that chains drop
CUBES = [rnd_cube(random.Random(s), 1) for s in range(4)] + [
    degeneracy(object_cube(MetObj(2)), 1, 1), zero_cube(1)]


def _bundle(seed, dim):
    rng = random.Random(seed)
    return GluedBundle((1,), {frozenset(): MetObj(dim, rnd_gram(rng, dim),
                                                  check=False),
                              frozenset({1}): MetObj(dim)})


# cubes at levels: two levels share a cube, one level carries cubes of two
# degrees, and a degenerate and a zero cube that level elements drop
LEVEL_KEYS = [(frozenset(), CUBES[0]), (frozenset(), CUBES[1]),
              (frozenset({1}), CUBES[0]), (frozenset({1}), CUBES[2]),
              (frozenset({1, 2}), CUBES[3]),
              (frozenset({1, 2}), rnd_cube(random.Random(4), 2)),
              (frozenset({2}), CUBES[4]), (frozenset({1}), CUBES[5])]


# two distinct rank-2 bundles, a rank-1 bundle, and a rank-0 bundle that drops
BUNDLES = [_bundle(0, 2), _bundle(1, 2), _bundle(2, 1), _bundle(3, 0)]


@st.composite
def monomials(draw):
    """A log index (or none) and an unsorted wedge word over other indices."""
    log_ix = draw(st.sampled_from([None, 1, 2, 3, 4]))
    free = [i for i in (1, 2, 3, 4) if i != log_ix]
    idx = draw(st.permutations(free))[:draw(st.integers(0, len(free)))]
    kinds = draw(st.lists(st.sampled_from([HOLO, ANTI]), min_size=len(idx),
                          max_size=len(idx)))
    return log_ix, tuple(zip(kinds, idx))


KINDS = {
    "CubeChain": (lambda terms: CubeChain(1, terms), st.sampled_from(CUBES)),
    "VirtualGlued": (VirtualGlued, st.sampled_from(BUNDLES)),
    "FormalElement": (FormalElement, st.tuples(
        st.integers(0, 2), st.frozensets(st.integers(1, 3)),
        st.integers(0, 3))),
    "LogForm": (LogForm, monomials()),
    "LevelChain": (LevelChain, st.sampled_from(LEVEL_KEYS)),
}


def term_lists(kind):
    return st.lists(st.tuples(KINDS[kind][1], coeffs), max_size=6)


def elements(kind):
    return term_lists(kind).map(KINDS[kind][0])


def no_stored_zero(x):
    return all(c != 0 for c in x.terms.values())


@pytest.mark.parametrize("kind", KINDS)
@PROPS
@given(data=st.data())
def test_sum_is_associative_and_commutative(kind, data):
    x, y, z = (data.draw(elements(kind)) for _ in range(3))
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x


@pytest.mark.parametrize("kind", KINDS)
@PROPS
@given(data=st.data())
def test_difference_with_itself_is_zero(kind, data):
    x = data.draw(elements(kind))
    assert (x - x).is_zero()
    assert (x + -x).is_zero()


@pytest.mark.parametrize("kind", KINDS)
@PROPS
@given(data=st.data())
def test_scale_composes(kind, data):
    x = data.draw(elements(kind))
    a, b = data.draw(coeffs), data.draw(coeffs)
    assert x.scale(a).scale(b) == x.scale(a * b)


@pytest.mark.parametrize("kind", KINDS)
@PROPS
@given(data=st.data())
def test_float_coefficient_is_refused(kind, data):
    # a float's binary value is rarely the rational meant (0.1 would be
    # stored as 3602879701896397/36028797018963968), so sums refuse it as
    # RatMatrix does, in scaling and in construction
    make, keys = KINDS[kind]
    x = make([(data.draw(keys), Fraction(1))])
    with pytest.raises(TypeError):
        x.scale(0.1)
    with pytest.raises(TypeError):
        make([(data.draw(keys), 0.1)])


@pytest.mark.parametrize("kind", KINDS)
@PROPS
@given(data=st.data())
def test_no_zero_coefficient_is_stored(kind, data):
    x, y = data.draw(elements(kind)), data.draw(elements(kind))
    a = data.draw(coeffs)
    for z in (x, y, x + y, x - y, x.scale(a), y - y, x + x.scale(-1)):
        assert no_stored_zero(z)


@pytest.mark.parametrize("kind", KINDS)
@PROPS
@given(data=st.data())
def test_term_list_is_sum_of_single_terms(kind, data):
    make = KINDS[kind][0]
    terms = data.draw(term_lists(kind))
    total = make([])
    for term in terms:
        total = total + make([term])
    assert make(terms) == total
    assert make(dict(terms[:1])) == make(terms[:1])


@PROPS
@given(monomials(), coeffs)
def test_log_form_wedge_is_alternating(mono, c):
    """Reversing a wedge word of k one-forms multiplies by (-1)^(k(k-1)/2)."""
    log_ix, wedge = mono
    k = len(wedge)
    flipped = LogForm([((log_ix, wedge[::-1]), c * (-1) ** (k * (k - 1) // 2))])
    assert LogForm([(mono, c)]) == flipped


# unit, integer and non-integer factors, as the linear extensions meet them
factors = st.one_of(st.sampled_from([1, -1, Fraction(1), Fraction(-1)]),
                    st.integers(-3, 3), coeffs)


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
@given(data=st.data())
def test_accumulator_matches_the_left_fold(kind, data):
    make = KINDS[kind][0]
    pool = [data.draw(elements(kind)) for _ in range(3)]
    items = data.draw(st.lists(st.tuples(st.sampled_from(pool), factors),
                               max_size=8))
    if items and data.draw(st.booleans()):
        # cancel an earlier image in full, then bring part of it back
        x, c = data.draw(st.sampled_from(items))
        items += [(x, -c), (x, data.draw(factors))]
    out = make(linear_terms(enumerate(c for _, c in items),
                            lambda i: items[i][0]))
    ref = left_fold(items)
    assert out.terms == ref
    assert list(out.terms) == list(ref)
    assert no_stored_zero(out)
