"""Pinned digests of the multi-relative, tensor, formal-character and
double-geometry suite reports.

Each entry is the SHA-256 of ``json.dumps(report, sort_keys=True)`` for
``run_suite(name, trials=2, seed=s)``, seeds 0 and 1.  A refactor of the
Xi operators, the levelwise operators or the span materialization must
leave every report byte-identical, so these digests must not move.  A
change that is meant to alter reports (for example the fix of the
identity-pullback twist collision, ROADMAP item 4) updates the digests
here in the same change and says why.
"""

import hashlib
import json

import pytest

from cubehom.suites import run_suite, suite_names

# suite -> (digest at seed 0, digest at seed 1)
DIGESTS = {
    "double.extraction": (
        "527f8521744e77485e3b0a6c7bf8cd1f632582d35046d1ec7d093483ea8bc058",
        "c98d68db5a074e5e26be91a29c01e9a3f623c4c6d72a582e858ca0dff9d8453d"),
    "double.splitting": (
        "b3cc25a4eb30a294ea43aea8820e0bab38e17638ef86a7d3b6496674806a12f2",
        "810d99cfd580ffdf8a5e107a5d5efe34306e69856070c0c8d2989f1ef962dab8"),
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
}

PREFIXES = ("multirel.", "tensor.", "formalchern.", "double.")


def test_pinned_set_is_every_suite_of_these_families():
    assert sorted(DIGESTS) == [n for n in suite_names() if n.startswith(PREFIXES)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest(name, seed):
    report = run_suite(name, trials=2, seed=seed)
    got = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert got == DIGESTS[name][seed]
