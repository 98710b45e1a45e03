"""The memo registry: value-keyed tables shared by equal inputs, run-scoped
tables emptied by every suite run, and shape tables kept."""

import gc
import pkgutil
import random
import re
from fractions import Fraction
from importlib import import_module

import pytest

import cubehom
from cubehom import memo, suites
from cubehom.cubes import (CubeChain, ExactFunctor, PullbackWord,
                           composite_pullback)
from cubehom.exactlin import MetObj, RatMatrix
from cubehom.multirel import GeomView, Tower, xi_K
from cubehom.suites import run_suite
from helpers import rnd_cube, rnd_matrix


def _word(tower):
    # the embedding word {1,2,3} -> {2,3} -> {3} -> {} of member 0
    g = GeomView(tower, 0)
    levels = [{1, 2, 3}, {2, 3}, {3}, set()]
    return PullbackWord([tower.cls(0, g.level(a), 0, g.level(b))
                         for a, b in zip(levels, levels[1:])])


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


RUN_SCOPED = {"cubes.intern", "cubes.boundary", "cubes.alt", "cubes.canonical",
              "cubes.pullback", "cubes.functor_obj", "cubes.functor_cube",
              "exactlin.identity", "exactlin.zero", "multirel.xi_words",
              "multirel.xi_images"}
SHAPES = {"cubes.vidx", "cubes.arrow_keys", "cubes.axis_lines",
          "cubes.face_table", "cubes.sym_table", "cubes.build_table",
          "signs.division"}


def _fill_new_tables():
    # an Xi image and a functor image: the run-scoped tables that hold them
    # must hold entries afterwards
    c = _cube()
    xi_K(GeomView(Tower(r=3, seed=5), 0), (1, 2), (), CubeChain.of(c))
    ExactFunctor.tensor_by(MetObj(2)).on_cube(c)
    sizes = memo.sizes()
    assert sizes["multirel.xi_images"] > 0 and \
        sizes["cubes.functor_cube"] > 0, sizes


def _split_sizes():
    sizes = memo.sizes()
    run = {k: n for k, n in sizes.items() if k in memo._RUN_SCOPED}
    return run, {k: n for k, n in sizes.items() if k not in run}


def test_every_table_has_its_scope():
    assert set(memo._RUN_SCOPED) == RUN_SCOPED
    assert set(memo.sizes()) == RUN_SCOPED | SHAPES


def test_a_returning_run_empties_the_run_scoped_tables():
    composite_pullback(_word(Tower(r=3, seed=5)), _cube())
    assert memo.sizes()["cubes.pullback"] > 0
    _fill_new_tables()
    rep = run_suite("multirel.pullback-map", r=3, seed=106, trials=3)
    assert rep["ok"]
    run, shapes = _split_sizes()
    assert all(n == 0 for n in run.values()), run
    assert shapes["cubes.vidx"] > 0 and shapes["cubes.face_table"] > 0


def test_a_raising_run_empties_the_run_scoped_tables(monkeypatch):
    def body(rng, **_):
        c = rnd_cube(rng, 2)
        assert memo.sizes()["cubes.intern"] > 0
        _fill_new_tables()
        yield "built", c.n == 2
        raise RuntimeError("the body fails partway")

    monkeypatch.setitem(suites._REGISTRY, "test.raises",
                        suites.Suite("test.raises", "raises", body,
                                     {"seed": 0}))
    shapes_before = _split_sizes()[1]
    with pytest.raises(RuntimeError, match="partway"):
        run_suite("test.raises", seed=3)
    run, shapes = _split_sizes()
    assert all(n == 0 for n in run.values()), run
    assert all(shapes[k] >= n for k, n in shapes_before.items())
    assert shapes["cubes.vidx"] > 0


def test_a_rejected_parameter_leaves_the_run_scoped_tables_empty():
    _cube()
    with pytest.raises(suites.ParamError):
        run_suite("multirel.ccomplex", r=0, trials=1)
    assert all(n == 0 for n in _split_sizes()[0].values())


def test_repeated_suite_runs_add_no_entries():
    run_suite("multirel.pullback-map", r=3, seed=106, trials=3)
    shapes = _split_sizes()[1]
    for _ in range(9):
        rep = run_suite("multirel.pullback-map", r=3, seed=106, trials=3)
        assert rep["ok"]
        run, again = _split_sizes()
        assert all(n == 0 for n in run.values()), run
        assert again == shapes


def test_many_seeds_in_one_process_hold_no_more_objects():
    # a long-lived process (pytest, a benchmark worker) keeps nothing of a
    # finished run: the tracked-object count after twenty seeds stays within
    # 10% of its count after the first
    def objects_after(seed):
        assert run_suite("cubes.contraction", seed=seed, trials=5)["ok"]
        gc.collect()
        return len(gc.get_objects())

    first = objects_after(0)
    for seed in range(1, 19):
        objects_after(seed)
    last = objects_after(19)
    assert abs(last - first) <= 0.1 * first, (first, last)


def test_clear_then_recompute_gives_an_equal_cube():
    c = _cube()
    before = composite_pullback(_word(Tower(r=3, seed=5)), c)
    memo.clear()
    assert all(n == 0 for n in memo.sizes().values())
    assert composite_pullback(_word(Tower(r=3, seed=5)), c) == before


def test_dim_one_twist_leaves_maps_as_they_are():
    rng = random.Random(3)
    tw = MetObj(1, RatMatrix(1, 1, {(0, 0): Fraction(9, 4)}), check=False)
    mat = rnd_matrix(rng, 3, 2)
    assert ExactFunctor.tensor_by(tw).on_map(mat) is mat
    assert ExactFunctor.tensor_by(tw).on_map(mat) == \
        RatMatrix.identity(1).kron(mat)
    assert ExactFunctor.tensor_by(MetObj(2)).on_map(mat) == \
        RatMatrix.identity(2).kron(mat)


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
    # a new ad-hoc module cache must come from the registry, so that
    # end_run(), clear() and sizes() see it
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


def test_face_table_grows_with_degree_not_with_data():
    from cubehom.cubes import _FACE_TABLE_CACHE
    assert any(t is _FACE_TABLE_CACHE for t in memo._TABLES.values())
    run_suite("multirel.pullback-map", r=3, seed=106, trials=3)
    keys = list(_FACE_TABLE_CACHE)
    assert keys
    for key in keys:
        assert isinstance(key, tuple) and len(key) == 3
        assert all(type(x) is int for x in key)
        n, j, i = key
        assert 1 <= j <= n and i in (-1, 0, 1)
    # at most one entry per face operator of each degree met
    top = max(n for n, _, _ in keys)
    assert len(keys) <= 3 * top * (top + 1) // 2
