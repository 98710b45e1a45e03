"""The acceptance gate: every criterion at its stated budget, all exact.

Each test runs one numbered criterion, asserts it (zero tolerance; all
arithmetic is rational), and prints one PASS/FAIL line.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import subprocess
import sys
import time

from cubehom import suites

_LINES = []


def _criterion(num, desc, t0, reports, budget=None):
    elapsed = time.time() - t0
    ok = all(r["ok"] for r in reports)
    checks = sum(r["counts"]["total"] for r in reports)
    if budget is not None:
        ok = ok and elapsed < budget
    line = "ACCEPTANCE %2d %s: %s (%d checks, %.1fs%s)" % (
        num, "PASS" if ok else "FAIL", desc, checks, elapsed,
        "" if budget is None else ", budget %gs" % budget)
    _LINES.append(line)
    print("\n" + line)
    assert ok, line
    return ok


def test_criterion_01_boundary_squared():
    t0 = time.time()
    rep = suites.run_suite("cubes.boundary-squared", trials=200, dim=3, seed=1)
    _criterion(1, "boundary squares to zero on 200 random cube chains",
               t0, [rep], budget=10)


def test_criterion_02_duplication_identities():
    t0 = time.time()
    rep = suites.run_suite("cubes.duplication-faces", trials=100, seed=2)
    _criterion(2, "all duplication-cube face identities on 100 seeds",
               t0, [rep], budget=5)


def test_criterion_03_contraction_machinery():
    t0 = time.time()
    rep = suites.run_suite("cubes.contraction", trials=40, seed=3)
    rep2 = suites.run_suite("cubes.alternation", trials=60, seed=3)
    _criterion(3, "contracting homotopies, alternation equivariance, "
               "telescoped composite", t0, [rep, rep2], budget=30)


def test_criterion_04_sign_suites():
    t0 = time.time()
    rep = suites.run_suite("signs.division-product", r=6)
    rep2 = suites.run_suite("signs.b-weight", dim=4, r=5)
    rep3 = suites.run_suite("signs.multidivision", r=6)
    _criterion(4, "exhaustive division-sign and weight identities",
               t0, [rep, rep2, rep3], budget=60)


def test_criterion_05_xi_boundary_identities():
    t0 = time.time()
    reps = [suites.run_suite("multirel.xi-boundary", trials=50, r=3, seed=5),
            suites.run_suite("multirel.xi-pullback-boundary", trials=50, r=3,
                             seed=5),
            suites.run_suite("multirel.xi-exchange-boundary", trials=50, r=3,
                             seed=5),
            suites.run_suite("multirel.xi-triple-boundary", trials=50, r=3,
                             seed=5)]
    _criterion(5, "signed pullback-sum boundary identities, 50 seeds each",
               t0, reps, budget=120)


def test_criterion_06_structure_validations():
    t0 = time.time()
    reps = [suites.run_suite("multirel.ccomplex", trials=50, r=3, seed=6),
            suites.run_suite("multirel.pullback-map", trials=50, r=3, seed=6),
            suites.run_suite("multirel.composite-homotopy", trials=50, r=3,
                             seed=6),
            suites.run_suite("multirel.alternating", trials=12, r=3, seed=6),
            suites.run_suite("multirel.cone-identification", trials=10, r=3,
                             seed=6)]
    _criterion(6, "constructed complexes, maps and homotopies validate; "
               "cone identification is literal", t0, reps, budget=40)


def test_criterion_07_identity_pullback():
    t0 = time.time()
    rep = suites.run_suite("multirel.identity-pullback", trials=100, r=3,
                           seed=7)
    _criterion(7, "alternation kills interior identity-insertion words, "
               "100 seeds", t0, [rep], budget=0.3)


def test_criterion_08_cone_section_machinery():
    t0 = time.time()
    reps = [suites.run_suite("ccx.cone-section", trials=100, seed=8),
            suites.run_suite("ccx.cone-map", trials=50, seed=8),
            suites.run_suite("ccx.second-homotopy", trials=40, seed=8)]
    _criterion(8, "section, cone-map and mediating-homotopy identities on "
               "random instances", t0, reps, budget=9)


def test_criterion_09_tensor_structure():
    t0 = time.time()
    reps = [suites.run_suite("tensor.bracket-boundary", trials=25, r=3, seed=9),
            suites.run_suite("tensor.cmap", trials=30, r=3, seed=9),
            suites.run_suite("tensor.homotopy", trials=20, r=3, seed=9),
            suites.run_suite("tensor.cone-agreement", trials=20, r=3, seed=9),
            suites.run_suite("tensor.second-homotopy", trials=10, r=2, seed=9),
            suites.run_suite("tensor.pair-associator", trials=30, seed=9)]
    _criterion(9, "tensor-structure suite: bracket boundary, map, homotopy, "
               "cone agreement, second homotopy", t0, reps, budget=300)


def test_criterion_10_double_suite():
    t0 = time.time()
    reps = [suites.run_suite("double.extraction", trials=20, r=4, seed=10),
            suites.run_suite("double.splitting", trials=6, r=3, seed=10)]
    _criterion(10, "double: fold sections, splitting operator, extraction "
               "cancellations", t0, reps, budget=3)


def test_criterion_11_formal_character():
    t0 = time.time()
    reps = [suites.run_suite("formalchern.squared", trials=100, r=3, seed=11),
            suites.run_suite("formalchern.chain-map", trials=100, r=3, seed=11),
            suites.run_suite("formalchern.vanishing", trials=25, r=2, seed=11)]
    _criterion(11, "formal character target: squared differential and "
               "chain-map identity, 100 seeds", t0, reps, budget=12)


def test_criterion_12_log_forms():
    t0 = time.time()
    reps = [suites.run_suite("wang.conjugation", r=5),
            suites.run_suite("wang.degrees", r=5)]
    _criterion(12, "log-form conjugation symmetry and degree invariants",
               t0, reps, budget=10)


def test_criterion_13_diagram_long_sequence():
    t0 = time.time()
    rep = suites.run_suite("diagram.simple", trials=20, seed=13)
    _criterion(13, "diagram simple complex and its long sequence on 20 "
               "instances", t0, [rep], budget=1)


def test_criterion_14_cli_contract():
    t0 = time.time()

    def cli(args, env=None):
        import os
        full = dict(os.environ)
        if env:
            full.update(env)
        return subprocess.run([sys.executable, "-m", "cubehom.cli", *args],
                              capture_output=True, text=True, env=full)

    a = cli(["verify", "signs.division-product", "--r", "4", "--seed", "3"])
    b = cli(["verify", "signs.division-product", "--r", "4", "--seed", "3"])
    ok = a.returncode == 0 and a.stdout == b.stdout
    ok = ok and cli(["verify", "definitely.not.a.suite"]).returncode == 2
    import tempfile, os
    from helpers import from_rows, to_json_obj
    with tempfile.TemporaryDirectory() as td:
        bad = {"dims": {"0": 1, "1": 1, "2": 1},
               "boundary": {"1": to_json_obj(from_rows([[1]])),
                            "2": to_json_obj(from_rows([[1]]))}}
        path = os.path.join(td, "bad.json")
        with open(path, "w") as fh:
            json.dump(bad, fh)
        ok = ok and cli(["homology", path]).returncode == 1
    line = "ACCEPTANCE 14 %s: CLI determinism and exit-code contract (%.1fs)" \
        % ("PASS" if ok else "FAIL", time.time() - t0)
    _LINES.append(line)
    print("\n" + line)
    assert ok, line


def test_zz_summary():
    print("\n" + "=" * 72)
    for line in _LINES:
        print(line)
    print("=" * 72)
    assert len(_LINES) == 14
