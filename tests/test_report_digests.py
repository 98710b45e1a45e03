"""Pinned digests of every registered suite's report.

Each entry is the SHA-256 of ``json.dumps(report, sort_keys=True)`` for
``run_suite(name, trials=2, seed=s)``, seeds 0 and 1.  A refactor of the
Xi operators, the levelwise operators, the span materialization, the
component families of ``ccx`` or the suite runner must leave every report
byte-identical, so these digests must not move.  A change that is meant
to alter reports (for example the fix of the identity-pullback twist
collision, ROADMAP item 1) updates the digests here in the same change and
says why.
"""

import hashlib
import json
import random

import pytest

from cubehom import double, multirel
from cubehom.cubes import ExactCube, arrow_keys, vertex_indices
from cubehom.exactlin import MetObj
from cubehom.multirel import GeomView, MorphView, Tower
from cubehom.rand import rnd_cube, rnd_gram, rnd_second_homotopy_setup
from cubehom.signs import subsets
from cubehom.suites import run_suite, suite_names

# suite -> (digest at seed 0, digest at seed 1)
DIGESTS = {
    "ccx.cone-map": (
        "79b5920dc07980c7f09a89e59a5e357e0cffad11727ae6636292b3778c2eebaf",
        "3313b42d834e39498e1a15af8f2dc419c69deeb2a2b9a847f1b09bdfae741e49"),
    "ccx.cone-section": (
        "0d58221bd99c3ea6013edad43fbf4211201fd9217f611da4a6704671b58cffaf",
        "0f1cb6c5dac638c20ee7b04870f8234b872bb7a3412a3af4e72616e265c0c046"),
    "ccx.relation": (
        "59981fe9a83195fe05e148897073829b29da2787b42ffcacf69bed7532d10410",
        "dd343f2d41af46bd03b44c2af2d33d914102810c66fab88b444285bd50ab9792"),
    "ccx.second-homotopy": (
        "89a3ae0e8fca11721d9c94469d6c3f346cfdabd92aeb7dfb33642edaa07ed986",
        "97a4ecfa2f3b5e7eb7c093e08d75192d20f649b2e936a2fca192ae602b7900b4"),
    "ccx.shift": (
        "b35857d2cf3ad57f56605a3e4898426b41e5935fcee49fcb955e4910d0fea30e",
        "1cf535a527b08e0f3604ba0720ec9d7b1894d02f587b718916c4e335e1eaac7a"),
    "cubes.alternation": (
        "ea45a9a1fa1ca5e23e87225e42e85618011713a2b7b7756a6ff6efc3482986a7",
        "d0354fc9f3c5455296e431ab4024332dcc325557993df5a5013ccaf14d947dd5"),
    "cubes.boundary-squared": (
        "feec2a177daa4bc436af00cc439bf4bb6606a8976412f8b77205ca3b5409d0a1",
        "ed625dbaa5e9b305379073399518703b6d1e52bc541c49deaf1e9cf364fffabf"),
    "cubes.contraction": (
        "68029e2dc4f666d6abc74e4721d75ae3669e8ec1b501b36c6c051271ed8d02f6",
        "b95fde509fcc0bfa18d387724be69c98330074aa8c4b45408b225ad9783c881f"),
    "cubes.duplication-faces": (
        "a87c771c5cc9f12ef9e288b4f43971298dd5610a031cb76560283e1562aee39d",
        "462c99b644a99cf6b75b454e6be1ea9f6537b599dcae0b2b54df98dc32cdf22d"),
    "diagram.simple": (
        "92b9a38acd1388c6b99ae7f71ca3a16f02cf7078751ca11a9a7ade396260eef9",
        "10ddce3c8c610e8bac1f9acec6306ac29d70fbf431f0f9e9ba1f084d9231abfb"),
    "double.extraction": (
        "527f8521744e77485e3b0a6c7bf8cd1f632582d35046d1ec7d093483ea8bc058",
        "c98d68db5a074e5e26be91a29c01e9a3f623c4c6d72a582e858ca0dff9d8453d"),
    "double.splitting": (
        "b3cc25a4eb30a294ea43aea8820e0bab38e17638ef86a7d3b6496674806a12f2",
        "810d99cfd580ffdf8a5e107a5d5efe34306e69856070c0c8d2989f1ef962dab8"),
    "exactlin.homology": (
        "1a147310dec35942a43b816f1d9353d60268b00e450cb0219ceb4bab57ff94e4",
        "5671b92b192898446d3b7be1a8f4bc177476510736f996d3c4bc2295afc8308d"),
    "exactlin.shortexact": (
        "a19f5a343dc56e678f4c839e667fd1754dfad1fcfce328d524144838e8ebba0a",
        "d6b16937e4b981785e2b60565a6e2b5997bc96022ea6870c4c90e63dcb342322"),
    "formalchern.chain-map": (
        "e67f1ba71bec50759272b83b9c4ad81e6517b0192f34fe95e376af119a170bc8",
        "6bcd48c6ad6dbc1800626c0edc052d3e06680c9d5e364d3ee298af9e634f49da"),
    "formalchern.squared": (
        "e038d40fd4c786fdf0f83f701bf6a0a7847c4d0eb8b2a400a438cfe261d1807d",
        "a3311a16ea56ab0a08a865698eb8c8109c3fe72459676f8abea091f2cc58c168"),
    "formalchern.vanishing": (
        "f5254964aaaa5649cda99b4c3f89f57254a70c65ec52c0987d79d5da98d74e93",
        "7f15cc94c7c2545eab3b05ff2fd010ac723bdc7a72a7c3381ee004e608644b43"),
    "multirel.absorption": (
        "a39196c98514501e04c2be84476b69378d15a06b0cf52dd6e74ae8df912c2c36",
        "1b471b7f06eb00edc3cb1efb346b44c7c54f322d78de89426232c2eef2e2a37e"),
    "multirel.alternating": (
        "ca006fd0452a87f6acbcc233c6b42893a71276ae694ef6bdd9d5681301fc1aa7",
        "0b52c871a4c265d2af585e4b3145fc45de4b382a822ce9bbd06c52e0e9109375"),
    "multirel.ccomplex": (
        "9f7f016024b44431062d16fe6184f99e3a4a87ca7fe617a90ee3152c566d50d8",
        "ff0b5865030e9814fadc426ba3d1ee842ca66463b06945ae71d5409b73619b6c"),
    "multirel.composite-homotopy": (
        "3611237820ab7518eebf5aa63846598344dafb9c2f5038eaa65898916c810312",
        "0b315836be8802516f200cf26809404d7fe078c5e5e4c6b7d7649dc36611f2c7"),
    "multirel.cone-identification": (
        "178790de2f95dd9de14a4b0e9d399e33cbfe88a339280d8e7b871b5fb8ef443a",
        "6f1ba556b8657c7cc6a6fcfec9c6c239b7efcd045123b7ae65e965309050a456"),
    "multirel.identity-pullback": (
        "675304f4f020b312f2c10d2d059ab696f067292c31a51e7305854a13b1ea1bc6",
        "94d87b83a83db1e2e006832a8976e94ce37d1b01c2535c3e53f12b969e48e02c"),
    "multirel.pullback-map": (
        "7b50892b10eca251e88f2b2f2c3bf40039dfeb043a49de89968794e4a90e403f",
        "bcf0682d3ddde5890c98ba0b987a093f493693649d79bea57ce3cd04d1b9886e"),
    "multirel.xi-boundary": (
        "5738745efb8d32b7764ee484e6f243ac3fff732d961e2f85dcef6acb286fe86b",
        "873e1b9646ebba1dd0819ce96aabbd93beae410ce34231ee025586744094aa88"),
    "multirel.xi-exchange-boundary": (
        "bbbccd4dfdb870d5a1c2a8a65ee835240c4e29e5ae45d8b61be3de96ee76e087",
        "7a591c3d1d16dd93f47f8efb03b5816b4fb6d0cb2d74f3b9dab7b39365090a4d"),
    "multirel.xi-pullback-boundary": (
        "25de1d7c6445d53409818091139e63ff9a87ca8dfb41db6dd276e80a6aeb1396",
        "ae5edbb441f8dc2b9c1bf5b139a9ff11eab74ab8899d09591d56ba44c5cb676b"),
    "multirel.xi-triple-boundary": (
        "e6e9d6f81f3904522eabb3546b96315802ee839fa7d51836d04e4023d4cde952",
        "c754d6d1128e1d518fa3fcc675bff92556d2937b78d859eb41134e1aa06e34ec"),
    "signs.b-weight": (
        "2e839a0086c445ff48c05ae87ceb4ce718f1a6e4d16b82e16c9938ec3114f86b",
        "98ced3c38da1baf9ddb78a768c08e4be8dc82d863dafd9052aead35d26f06589"),
    "signs.division-product": (
        "0e4c0d14582eee40368747688f6b0654d599ca740d273e577d4ec50d5d182297",
        "18e5ed2cce1cd17f34ee8d42f64d72a6f99c0539b484b6610b4dc7bd449ae2f4"),
    "signs.multidivision": (
        "e78d96a817e9bcb6bd51f451669285e949a1966f39ae771081663771ede6ea53",
        "92ccc3f9582484312298c35dcc4cfdc42ff1ab68998d6d6b9da1e37474c9b456"),
    "tensor.bracket-boundary": (
        "b3f86a80bbcc095ff68dbb7b03d4ac17e0b897fd121834f3cf3d1a9b686618b6",
        "1603aedb9224ee0af23e1414831e3b96646b19559b762a28831fb15db47fa84c"),
    "tensor.cmap": (
        "d108f5b527d3ca320e2273882e5e3eda936a31342adbb701c09eceb6659f571e",
        "1b15ee02df15d8644c11a876fbc854c203d6905b7647865da2ce4404be320d63"),
    "tensor.cone-agreement": (
        "686af48f5c43f9b45ba4402bbfae620ad883157ccb7d90a3747ca8a79c762f40",
        "b71c87a47330d8feb42b18f7a69edd09a7d75bc6518b7d73604563821670fbb8"),
    "tensor.homotopy": (
        "d5f24a568c4a5bd708e2057d82ec00815c7a0240d2437594025b7bc3a9d548c1",
        "69da2f7e21987c554a82eb3b508a2a1feba571f82b1ca3d54c3d3e8ac19d9007"),
    "tensor.pair-associator": (
        "72f8ab0421d58779c7c36154e7823e5a74de55ac313fa0698b593058fd78a72d",
        "aae85625c1ea79e2fe4835b179ae2e62d0fc286caf8837bcfa3cfe5a38d770b3"),
    "tensor.second-homotopy": (
        "1bc18eac2c73f2f9eb1b1c4a0ce475fb14cfb95f8c5a381f35a694d5a870fea5",
        "da87053008209a2b113233f7944d88beacf45b24d6b9f3d5bb6da1a64cb3c266"),
    "wang.conjugation": (
        "c8d86d4186276dd00f8c40ce9adcba4faaedf7be4f633262d312be6d7f7f3eda",
        "c186b4ba2e493e5fcb8b88b8f08ef0c875bb7db71b98336f8e9131a478d48fbd"),
    "wang.degrees": (
        "f07758979a7a1e7288e0287f8d501d19225e1b6ef8b1f86ad739227016c75199",
        "de86fb95b028bca096fa1930de0b39f2ce7a714c9d1535a1de0b19e0c3db451e"),
}


def test_pinned_set_is_every_suite_of_these_families():
    assert sorted(DIGESTS) == suite_names()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest(name, seed):
    report = run_suite(name, trials=2, seed=seed)
    got = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert got == DIGESTS[name][seed]


# -- pinned matrices -------------------------------------------------------
#
# Reports carry only ok flags, so a change of basis or coordinates that
# still validates would not move a digest above.  These pin every matrix
# that materialize_operator and cone_identification return during a few
# seeded builds: the SHA-256 of, per call in order, each component's
# (m, n, degree, shape) and its sorted entries.

def _record_matrices(monkeypatch):
    calls = []

    def recorder(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            comps = out.comps if hasattr(out, "comps") else out
            calls.append(sorted(
                [m, n, k, mat.rows, mat.cols,
                 sorted([r, c, str(v)] for (r, c), v in mat.items())]
                for (m, n), per in comps.items() for k, mat in per.items()))
            return out
        return wrapped

    for mod in (multirel, double):
        for name in ("materialize_operator", "cone_identification"):
            monkeypatch.setattr(mod, name, recorder(getattr(multirel, name)))
    return calls


def _build(name):
    rng = random.Random(31)
    kind, _, mode = name.partition("-")
    use_alt = mode == "alt"
    seeds = [(frozenset(), rnd_cube(rng, 1, with_gram=True))]
    if kind == "ccomplex":
        g = GeomView(Tower(r=3, seed=41))
        multirel.build_ccomplex(g, seeds, use_alt=use_alt)
    elif kind == "homotopy":
        tower = Tower(r=2, schemes=3, seed=43)
        vs = [GeomView(tower, s) for s in range(3)]
        seeds = [(frozenset(), rnd_cube(rng, 0, with_gram=True))]
        multirel.build_homotopy(MorphView(vs[0], vs[1]),
                                MorphView(vs[1], vs[2]), seeds,
                                use_alt=use_alt)
    elif kind == "pullback":
        tower = Tower(r=2, schemes=2, seed=47)
        f = MorphView(GeomView(tower, 0), GeomView(tower, 1))
        multirel.build_pullback(f, seeds, use_alt=use_alt)
    elif kind == "cor216":
        g = GeomView(Tower(r=3, seed=53))
        assert multirel.check_cor_2_16(g, seeds, use_alt=use_alt)["ok"]
    else:
        geom = double.DoubleGeometry(2)
        base = rnd_cube(rng, 1, max_dim=2, with_gram=True)
        comps = {}
        arrows = dict(zip(arrow_keys(base.n), base.arrows))
        for S in subsets(geom.marks):
            verts = {a: MetObj(o.dim, rnd_gram(rng, o.dim) if o.dim else None,
                               check=False)
                     for a, o in zip(vertex_indices(base.n), base.vertices)}
            comps[frozenset(S)] = ExactCube(base.n, verts, arrows).intern()
        out = double.build_t(geom, [((), geom.family_cube((), comps))])
        assert out["t"].validate()["ok"]


MATRIX_DIGESTS = {
    "ccomplex-plain":
        "a420c6044e7b79fdac65d8ff2495438f1bc33fdbc6b9725671445207c5903305",
    "ccomplex-alt":
        "98433ff8056df2022fa3c53f6abf0b83322fae15b21cb28240fb5f8755aa435b",
    "homotopy-plain":
        "eb18c123e9bd56441e2188cd27b518b3c3611d50d52b36aa534c752f72b9b47e",
    "homotopy-alt":
        "45d5840049f51cd62a0cbfb15ca4bc9f7608965edd0f93ea5046aea8e098648a",
    "pullback-alt":
        "36c7de49ad84c7c44689a026261a232ffb24c42bbb14a2e1778076aeadc4bddf",
    "cor216-alt":
        "cc8761c6d33e13b9af74ca2c0bdbc4d47625b13e8a5952443079fe460d8868ad",
    "buildt-alt":
        "f52daba1ed277f09123efca81e2d581fb54b125c3cfd893a4f11a350bedf2c24",
}


@pytest.mark.parametrize("name", sorted(MATRIX_DIGESTS))
def test_materialized_matrix_digest(monkeypatch, name):
    calls = _record_matrices(monkeypatch)
    _build(name)
    assert calls
    got = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
    assert got == MATRIX_DIGESTS[name]


# -- pinned second homotopies ----------------------------------------------
#
# A solver that returns a different but valid Theta would leave every
# report above in place, so this pins the solved Theta of four setups per
# seed: the SHA-256 of, per setup in order, each component's (m, n,
# degree, shape), its denominator and its sorted numerators.

THETA_DIGEST = "3568988fd824fc092b369eb39640842e7a7dd7c55e068c8cac5cde5a3b18ba2b"


def test_solved_second_homotopy_digest():
    out = []
    for s in range(6):
        rng = random.Random(s)
        for _ in range(4):
            setup = rnd_second_homotopy_setup(rng)
            out.append(None if setup is None else sorted(
                [m, n, k, mat.rows, mat.cols, mat.den,
                 sorted([r, c, v] for (r, c), v in mat.num.items())]
                for (m, n), per in setup["theta"].comps.items()
                for k, mat in per.items()))
    assert any(out)
    got = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert got == THETA_DIGEST
