import json
import random

import pytest

from cubehom.ccx import ccomplex_from_json, ccomplex_to_json
from cubehom.cubes import cube_from_json, cube_to_json
from cubehom.double import GluedBundle, bundle_from_json, bundle_to_json
from cubehom.exactlin import MetObj
from cubehom.multirel import GeomView, Tower, tower_from_json, tower_to_json
from cubehom.signs import subsets
from helpers import rnd_ccomplex, rnd_cube, rnd_gram


def roundtrip(obj):
    return json.loads(json.dumps(obj))


def test_cube_json_roundtrip():
    rng = random.Random(0)
    for n in (0, 1, 2):
        c = rnd_cube(rng, n, with_gram=(n % 2 == 0))
        obj = roundtrip(cube_to_json(c))
        assert obj["degree"] == n
        assert cube_from_json(obj) == c


def test_ccomplex_json_roundtrip():
    rng = random.Random(1)
    for _ in range(5):
        cc = rnd_ccomplex(rng)
        cc2 = ccomplex_from_json(roundtrip(ccomplex_to_json(cc)))
        assert cc2.complexes.keys() == cc.complexes.keys()
        for m in cc.indices():
            assert cc2.cx(m).dims == cc.cx(m).dims
            for n in cc.cx(m).degrees():
                assert cc2.cx(m).d(n) == cc.cx(m).d(n)
        assert cc2.fmaps == cc.fmaps


def test_tower_json_roundtrip():
    rng = random.Random(2)
    t = Tower(r=3, schemes=3, seed=11, alias=[0, 1, 0])
    t2 = tower_from_json(roundtrip(tower_to_json(t)))
    obj = MetObj(2, rnd_gram(rng, 2), check=False)
    for src, dst in [((0, frozenset({1, 2})), (1, frozenset({1}))),
                     ((0, frozenset({3})), (0, frozenset()))]:
        f1 = t.cls(src[0], src[1], dst[0], dst[1]).functor()
        f2 = t2.cls(src[0], src[1], dst[0], dst[1]).functor()
        assert f1.on_obj(obj) == f2.on_obj(obj)


def test_tower_json_rejects_a_mode_other_than_scalar():
    obj = tower_to_json(Tower(r=2, seed=4))
    assert "mode" not in obj
    assert tower_to_json(tower_from_json(dict(obj, mode="scalar"))) == obj
    with pytest.raises(ValueError, match="mode"):
        tower_from_json(dict(obj, mode="identity"))


def test_bundle_json_roundtrip():
    rng = random.Random(3)
    for marks in [(1,), (1, 2), (2, 4, 5)]:
        b = GluedBundle(marks, {frozenset(S): MetObj(2, rnd_gram(rng, 2),
                                                     check=False)
                                for S in subsets(marks)})
        assert bundle_from_json(roundtrip(bundle_to_json(b))) == b
