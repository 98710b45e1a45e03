import math
import random
from fractions import Fraction

import pytest

from cubehom.wang import (ANTI, HOLO, LogForm, bidegree_split, build_S,
                          build_W, check_conjugation, check_degrees,
                          conjugate)


def test_w0_and_w1():
    assert build_W(0) == LogForm.one()
    assert build_W(1).terms == {(1, ()): Fraction(-1, 2)}


def test_conjugation_symmetry():
    assert check_conjugation(5)["ok"]
    w2 = build_W(2)
    assert conjugate(w2) == w2.scale(-1)
    w3 = build_W(3)
    assert conjugate(w3) == w3


def test_conjugation_involution_on_random_forms():
    rng = random.Random(0)
    for _ in range(10):
        terms = []
        for _ in range(rng.randint(1, 5)):
            idx = rng.sample(range(1, 6), rng.randint(0, 3))
            wedge = tuple((HOLO if rng.random() < 0.5 else ANTI, i)
                          for i in idx)
            log_ix = None
            remaining = [i for i in range(1, 6) if i not in idx]
            if rng.random() < 0.7:
                log_ix = rng.choice(remaining)
            terms.append(((log_ix, wedge),
                          Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
        f = LogForm(terms)
        assert conjugate(conjugate(f)) == f


def test_S_expansion_counts():
    for r in range(1, 5):
        for i in range(1, r + 1):
            s = build_S(r, i)
            assert len(s.terms) == r * math.comb(r - 1, i - 1)
            coeff = math.factorial(i - 1) * math.factorial(r - i)
            assert all(abs(c) == coeff for c in s.terms.values())


def test_build_S_range_errors():
    with pytest.raises(ValueError):
        build_S(2, 0)
    with pytest.raises(ValueError):
        build_S(2, 3)


def test_degree_invariants():
    assert check_degrees(5)["ok"]


def test_bidegree_split():
    w1 = build_W(1)
    assert bidegree_split(w1) == {(0, 0): w1}
    parts = bidegree_split(build_W(2))
    assert set(parts) == {(1, 0), (0, 1)}
    rng = random.Random(1)
    for r in (2, 3, 4):
        w = build_W(r)
        total = LogForm()
        for p in bidegree_split(w).values():
            total = total + p
        assert total == w


def test_wedge_antisymmetry_normalization():
    a = LogForm([((None, ((HOLO, 2), (HOLO, 1))), Fraction(1))])
    b = LogForm([((None, ((HOLO, 1), (HOLO, 2))), Fraction(-1))])
    assert a == b
    with pytest.raises(ValueError):
        LogForm([((None, ((HOLO, 1), (ANTI, 1))), Fraction(1))])
    with pytest.raises(ValueError):
        LogForm([((1, ((HOLO, 1),)), Fraction(1))])


def test_pretty_printer_mentions_generators():
    text = build_W(2).pretty()
    assert "log|z1|^2" in text and "dz2/z2" in text
