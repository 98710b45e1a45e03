import pytest

from cubehom.signs import (b_weight, check_lemma_2_11, check_lemma_9_2,
                           divisions_into, perm_sign,
                           sgn_division, sgn_multidivision, subsets)


def test_sgn_division_examples():
    assert sgn_division((), (1, 2, 3), (1, 2, 3)) == 1
    assert sgn_division((2,), (1, 3), (1, 2, 3)) == -1
    assert sgn_division((1, 2), (3,), (1, 2, 3)) == 1


def test_sgn_division_rejects_bad_input():
    with pytest.raises(ValueError):
        sgn_division((1,), (1, 2), (1, 2))
    with pytest.raises(ValueError):
        sgn_division((1,), (3,), (1, 2))


def test_sgn_multidivision_examples():
    assert sgn_multidivision([(1, 2, 3)], (1, 2, 3)) == 1
    assert sgn_multidivision([(2,), (3,), (1,)], (1, 2, 3)) == 1
    # a refinement instance of the product identity
    L, Lp, I = (3,), (1,), (2,)
    J = (1, 2, 3)
    K = tuple(sorted(L + Lp))
    P = tuple(sorted(Lp + I))
    assert sgn_division(K, I, J) * sgn_division(L, Lp, K) == \
        sgn_division(L, P, J) * sgn_division(Lp, I, P)


def test_b_weight_examples():
    assert b_weight([5]) == 0
    assert b_weight([2, 3]) == 2
    assert b_weight([1, 2, 3]) == 2


def test_b_weight_rejects_empty():
    with pytest.raises(ValueError):
        b_weight([])


def test_lemma_2_11_trivial_and_exhaustive():
    assert check_lemma_2_11(1)["ok"]
    rep = check_lemma_2_11(3)
    assert rep["ok"] and rep["checked"] > 0


def test_lemma_9_2():
    rep = check_lemma_9_2(4, 4)
    assert rep["ok"] and rep["checked"] > 0


def test_multidivision_is_product_of_refinements():
    for r in range(1, 6):
        universe = list(range(1, r + 1))
        for J in subsets(universe):
            for parts in (p for l in (1, 2, 3) for p in divisions_into(J, l)):
                sgn = sgn_multidivision(list(parts), J)
                acc = 1
                rest = tuple(sorted(J))
                for p in parts[:-1]:
                    tail = tuple(x for x in rest if x not in p)
                    acc *= sgn_division(p, tail, rest)
                    rest = tail
                assert sgn == acc


def test_perm_sign_inversions():
    assert perm_sign([1, 2, 3]) == 1
    assert perm_sign([2, 1, 3]) == -1
    assert perm_sign([2, 3, 1]) == 1
    with pytest.raises(ValueError):
        perm_sign([1, 1])


def test_divisions_into_counts():
    assert len(divisions_into((1, 2, 3), 3)) == 6
    assert len(divisions_into((1, 2, 3), 1)) == 1
    assert divisions_into((), 1) == []
    # ordered pairs of disjoint covering parts: one per subset in the first slot
    assert len(divisions_into((1, 2), 2, allow_empty=True)) == 4
