import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import from_rows, to_json_obj


def run_cli(args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "cubehom.cli", *args],
                          capture_output=True, text=True, env=full_env)


def test_list_catalog():
    res = run_cli(["list"])
    assert res.returncode == 0
    cat = json.loads(res.stdout)
    names = [s["suite"] for s in cat["suites"]]
    assert len(names) == len(set(names))
    assert "signs.division-product" in names
    for s in cat["suites"]:
        assert s["claim"]
        assert "seed" in s["defaults"]


def test_unknown_suite_is_usage_error():
    res = run_cli(["verify", "no.such.suite"])
    assert res.returncode == 2


def test_verify_pass_and_determinism(tmp_path: Path):
    a = run_cli(["verify", "cubes.boundary-squared", "--trials", "8",
                 "--seed", "5"])
    b = run_cli(["verify", "cubes.boundary-squared", "--trials", "8",
                 "--seed", "5"])
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    rep = json.loads(a.stdout)
    assert rep["ok"] and rep["params"]["seed"] == 5
    keys = [c["key"] for c in rep["checks"]]
    assert keys == sorted(keys)


def test_seed_env_fallback():
    a = run_cli(["verify", "signs.division-product", "--r", "3", "--seed", "9"])
    b = run_cli(["verify", "signs.division-product", "--r", "3"],
                env={"CUBEHOM_SEED": "9"})
    assert a.stdout == b.stdout


def test_verify_out_file(tmp_path: Path):
    out = tmp_path / "report.json"
    res = run_cli(["verify", "signs.b-weight", "--dim", "3", "--r", "3",
                   "--out", str(out)])
    assert res.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["ok"]


def test_homology_fixtures(tmp_path: Path):
    good = {"dims": {"0": 1, "1": 1},
            "boundary": {"1": to_json_obj(from_rows([[1]]))}}
    gp = tmp_path / "good.json"
    gp.write_text(json.dumps(good))
    res = run_cli(["homology", str(gp)])
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["homology"] == {"0": "0", "1": "0"} or \
        rep["homology"] == {"0": 0, "1": 0}

    zero = {"dims": {"0": 2, "1": 3}, "boundary": {}}
    zp = tmp_path / "zero.json"
    zp.write_text(json.dumps(zero))
    rep = json.loads(run_cli(["homology", str(zp)]).stdout)
    assert rep["homology"] == {"0": 2, "1": 3}

    bad = {"dims": {"0": 1, "1": 1, "2": 1},
           "boundary": {"1": to_json_obj(from_rows([[1]])),
                        "2": to_json_obj(from_rows([[1]]))}}
    bp = tmp_path / "bad.json"
    bp.write_text(json.dumps(bad))
    res = run_cli(["homology", str(bp)])
    assert res.returncode == 1
    rep = json.loads(res.stdout)
    assert not rep["ok"] and rep["witness"]["degree"] == 1

    res = run_cli(["homology", str(tmp_path / "missing.json")])
    assert res.returncode == 2


@pytest.mark.parametrize("text", [json.dumps(payload) for payload in [
    {"dims": {"0": 1, "1": 1},
     "boundary": {"1": {"rows": 1, "cols": 1, "entries": [[0, 0, "1/0"]]}}},
    [{"dims": {"0": 1}}],
    {"dims": {"0": -1}, "boundary": {}},
    {"dims": {"0": 1.5}, "boundary": {}},
    {"dims": {"0": True}, "boundary": {}},
    {"dims": {"0": 1, "1": 1},
     "boundary": {"1": {"rows": 1.9, "cols": 1, "entries": [[0, 0, "1"]]}}},
    {"dims": {"0": 1, "1": 1},
     "boundary": {"1": {"rows": 1, "cols": 1, "entries": [[0, 0, 0.1]]}}},
    {"dims": {"0": 1, "1": 1},
     "boundary": {"1": {"rows": 1, "cols": 1, "entries": [[0, 0, True]]}}},
    {"dims": {"0": 1, "1": 1},
     "boundary": {"1": {"rows": 1, "cols": 1, "entries": [[0, 0, "1_0"]]}}},
    {"dims": {"1_0": 1}, "boundary": {}},
    {"dims": {"0": 1, "1": 1},
     "boundary": {" 1 ": {"rows": 1, "cols": 1, "entries": [[0, 0, "1"]]}}},
    {"dims": {"1": 1, "01": 1}, "boundary": {}},
]] + ['{"dims": {"0": 1e400}, "boundary": {}}'],
    ids=["zero-denominator", "top-level-list", "negative-dim", "float-dim",
         "bool-dim", "float-rows", "float-entry", "bool-entry",
         "underscore-entry", "underscore-degree", "spaced-degree",
         "repeated-degree", "overflowing-dim"])
def test_homology_malformed_input_is_usage_error(tmp_path: Path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    res = run_cli(["homology", str(p)])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("cannot read complex: ")
    assert res.stderr.count("\n") == 1


@pytest.mark.parametrize("flags", [["--trials", "-1"], ["--trials", "0"],
                                   ["--r", "-1"], ["--dim", "-1"]])
def test_verify_rejects_vacuous_parameters(flags):
    res = run_cli(["verify", "cubes.boundary-squared", *flags])
    assert res.returncode == 2
    assert res.stdout == ""
    assert "must be at least" in res.stderr


@pytest.mark.parametrize("suite, flag, least", [
    ("multirel.ccomplex", "--r", 1),
    ("multirel.cone-identification", "--r", 1),
    ("tensor.cmap", "--r", 1),
    ("cubes.boundary-squared", "--dim", 2),
    ("signs.b-weight", "--r", 2),
    ("signs.b-weight", "--dim", 1),
    ("signs.multidivision", "--r", 1),
    ("wang.degrees", "--r", 1),
])
def test_verify_rejects_values_below_the_suite_least(tmp_path: Path, suite,
                                                      flag, least):
    out = tmp_path / "report.json"
    res = run_cli(["verify", suite, flag, str(least - 1), "--trials", "1",
                   "--out", str(out)])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "%s must be at least %d for %s, got %d\n" \
        % (flag, least, suite, least - 1)
    assert not out.exists()
    ok = run_cli(["verify", suite, flag, str(least), "--trials", "1"])
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["params"][flag[2:]] == least


def test_verify_keeps_accepting_a_zero_the_suite_takes():
    # at r = 0 the division identity has one division to check, the empty one
    res = run_cli(["verify", "signs.division-product", "--r", "0",
                   "--trials", "1"])
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["params"]["r"] == 0


def test_homology_matches_oracle(tmp_path: Path):
    import random
    from cubehom.rand import rnd_chain_complex
    rng = random.Random(3)
    cx = rnd_chain_complex(rng, degs=(0, 3), maxdim=3)
    payload = {"dims": {str(k): v for k, v in cx.dims.items()},
               "boundary": {str(k): to_json_obj(m)
                            for k, m in cx.boundary.items()}}
    p = tmp_path / "cx.json"
    p.write_text(json.dumps(payload))
    rep = json.loads(run_cli(["homology", str(p)]).stdout)
    h = cx.homology()
    for n, v in h.items():
        assert rep["homology"][str(n)] == v


def test_no_command_is_usage_error():
    res = run_cli([])
    assert res.returncode == 2


def test_non_integer_seed_env_is_usage_error():
    res = run_cli(["verify", "signs.b-weight"], env={"CUBEHOM_SEED": "abc"})
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert "CUBEHOM_SEED must be an integer" in res.stderr


@pytest.mark.parametrize("args", [
    ["verify", "signs.b-weight", "--dim", "2", "--r", "2"],
    ["list"],
    ["homology", "{complex}"],
], ids=["verify", "list", "homology"])
def test_unwritable_out_path_is_usage_error(tmp_path: Path, args):
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps({"dims": {"0": 1}, "boundary": {}}))
    out = tmp_path / "missing" / "report.json"
    res = run_cli([a.format(complex=cx) for a in args] + ["--out", str(out)])
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("cannot write %s: " % out)
    assert not out.parent.exists()


def test_unwritable_out_path_fails_before_the_suite_runs(tmp_path: Path,
                                                         monkeypatch, capsys):
    from cubehom import cli, suites

    def refuse(*args, **kwargs):
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setattr(suites, "run_suite", refuse)
    out = tmp_path / "missing" / "report.json"
    assert cli.main(["verify", "multirel.composite-homotopy",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("cannot write %s: " % out)
    assert not out.parent.exists()
