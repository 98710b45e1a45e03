"""The memo registry: value-keyed tables shared by equal inputs."""

import pkgutil
import random
import re
from fractions import Fraction
from importlib import import_module

import pytest

import cubehom
from cubehom import memo
from cubehom.cubes import ExactFunctor, composite_pullback
from cubehom.exactlin import MetObj, RatMatrix
from cubehom.multirel import GeomView, Tower
from cubehom.suites import run_suite
from helpers import rnd_cube, rnd_matrix


def _word(tower):
    # the embedding word {1,2,3} -> {2,3} -> {3} -> {} of member 0
    g = GeomView(tower, 0)
    levels = [{1, 2, 3}, {2, 3}, {3}, set()]
    return [tower.cls(0, g.level(a), 0, g.level(b))
            for a, b in zip(levels, levels[1:])]


def _cube():
    return rnd_cube(random.Random(7), 1, with_gram=True)


def test_equal_towers_share_the_pullback_cube():
    c = _cube()
    first = composite_pullback(_word(Tower(r=3, seed=5)), c)
    size = memo.sizes()["cubes.pullback"]
    again = composite_pullback(_word(Tower(r=3, seed=5)), c)
    assert again is first
    assert memo.sizes()["cubes.pullback"] == size


def test_towers_with_other_seeds_give_other_cubes():
    c = _cube()
    assert composite_pullback(_word(Tower(r=3, seed=5)), c) != \
        composite_pullback(_word(Tower(r=3, seed=6)), c)


def test_repeated_suite_runs_add_no_entries():
    run_suite("multirel.pullback-map", r=3, seed=106, trials=3)
    sizes = memo.sizes()
    for _ in range(9):
        rep = run_suite("multirel.pullback-map", r=3, seed=106, trials=3)
        assert rep["ok"]
        assert memo.sizes() == sizes


def test_clear_then_recompute_gives_an_equal_cube():
    c = _cube()
    before = composite_pullback(_word(Tower(r=3, seed=5)), c)
    memo.clear()
    assert all(n == 0 for n in memo.sizes().values())
    assert composite_pullback(_word(Tower(r=3, seed=5)), c) == before


def test_dim_one_twist_leaves_maps_as_they_are():
    rng = random.Random(3)
    tw = MetObj(1, RatMatrix(1, 1, {(0, 0): Fraction(9, 4)}), check=False)
    f = ExactFunctor((tw, MetObj(2), tw))
    mat = rnd_matrix(rng, 3, 2)
    explicit = mat
    for m in reversed(f.word):
        explicit = RatMatrix.identity(m.dim).kron(explicit)
    assert f.on_map(mat) == explicit
    assert ExactFunctor.tensor_by(tw).on_map(mat) == \
        RatMatrix.identity(1).kron(mat)


def test_zero_matrices_are_shared_and_immutable():
    z = RatMatrix.zero(2, 3)
    assert z is RatMatrix.zero(2, 3)
    assert z == RatMatrix(2, 3) and z.is_zero()
    with pytest.raises(AttributeError):
        z.rows = 3


def test_table_names_are_unique():
    with pytest.raises(ValueError):
        memo.table("cubes.boundary")


def test_every_module_cache_is_a_registry_table():
    # a new ad-hoc module cache must come from memo.table, so that clear()
    # and sizes() see it
    tables = list(memo._TABLES.values())
    found = []
    for info in pkgutil.iter_modules(cubehom.__path__):
        mod = import_module("cubehom." + info.name)
        for name, v in vars(mod).items():
            if (isinstance(v, dict)
                    and re.fullmatch(r"_[A-Z0-9_]*_CACHE|_INTERN", name)):
                found.append(name)
                assert any(v is t for t in tables), \
                    "%s.%s is not a memo table" % (mod.__name__, name)
    assert "_INTERN" in found and "_BOUNDARY_CACHE" in found
