"""Property tests of the sign calculus and of the normalized cube complex.

Cubes come from ``rand.rnd_cube`` at hypothesis-chosen seeds, so a failing
example is reproduced by its seed alone.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cubehom.cubes import CubeChain, alt, boundary
from cubehom.signs import perm_sign, sgn_division
from helpers import rnd_cube

PROPS = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)
CUBE_PROPS = settings(PROPS, max_examples=40)

seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def chains(draw):
    """c_1 + q c_2 for two random nondegenerate cubes of degree 1 to 3."""
    rng = random.Random(draw(seeds))
    n = draw(st.integers(1, 3))
    q = draw(st.builds(Fraction, st.integers(-5, 5),
                       st.integers(1, 4)))
    return CubeChain.of(rnd_cube(rng, n)) + CubeChain.of(rnd_cube(rng, n), q)


@CUBE_PROPS
@given(chains())
def test_boundary_squares_to_zero(x):
    assert boundary(boundary(x)).is_zero()


@CUBE_PROPS
@given(chains())
def test_alt_is_an_idempotent_chain_map(x):
    ax = alt(x)
    assert alt(ax) == ax
    assert boundary(ax) == alt(boundary(x))


@st.composite
def permutation_pairs(draw):
    n = draw(st.integers(0, 7))
    return (tuple(draw(st.permutations(range(1, n + 1)))),
            tuple(draw(st.permutations(range(1, n + 1)))))


@PROPS
@given(permutation_pairs())
def test_perm_sign_is_multiplicative(pair):
    s, t = pair
    composite = tuple(s[t[i] - 1] for i in range(len(t)))
    assert perm_sign(composite) == perm_sign(s) * perm_sign(t)


@PROPS
@given(st.dictionaries(st.integers(1, 9), st.sampled_from("LPI"),
                       max_size=9))
def test_sgn_division_refinement_product(parts):
    """sgn(K I; J) sgn(L L'; K) = sgn(L P; J) sgn(L' I; P) for every
    L + L' + I = J, K = L + L', P = L' + I."""
    L, Lp, I = (tuple(sorted(k for k, v in parts.items() if v == part))
                for part in "LPI")
    J = tuple(sorted(parts))
    K, P = tuple(sorted(L + Lp)), tuple(sorted(Lp + I))
    assert sgn_division(K, I, J) * sgn_division(L, Lp, K) == \
        sgn_division(L, P, J) * sgn_division(Lp, I, P)
