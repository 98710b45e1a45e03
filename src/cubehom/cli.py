"""Command-line front end: run verification suites, compute homology tables.

JSON in, JSON out, no interactive mode.  Reports are byte-identical across
runs with the same seed and version (timing goes to stderr, never into the
payload).  Exit codes: 0 all checks pass, 1 a check failed or the input is
inconsistent, 2 usage errors (a malformed option, seed or input, or an
output path that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__, suites
from .ccx import ChainComplex
from .exactlin import RatMatrix, rat_str


def _emit(report, out_path) -> bool:
    """Write the report to out_path, or to stdout without one; False, with
    a message, when out_path cannot be written."""
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return True
    return _write(out_path, "w", text)


def _write(out_path, mode, text="") -> bool:
    try:
        with open(out_path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write("cannot write %s: %s\n" % (out_path, exc))
        return False
    return True


def cmd_verify(args) -> int:
    name = args.suite
    if name not in suites.suite_names():
        sys.stderr.write("unknown suite: %s\n" % name)
        sys.stderr.write("run 'cubehom list' for the catalog\n")
        return 2
    for flag, value, least in (("--trials", args.trials, 1),
                               ("--r", args.r, 0), ("--dim", args.dim, 0)):
        if value is not None and value < least:
            sys.stderr.write("%s must be at least %d, got %d\n"
                             % (flag, least, value))
            return 2
    seed = args.seed
    if seed is None:
        env = os.environ.get("CUBEHOM_SEED")
        try:
            seed = int(env) if env else None
        except ValueError:
            sys.stderr.write("CUBEHOM_SEED must be an integer, got %r\n" % env)
            return 2
    params = dict(r=args.r, dim=args.dim, trials=args.trials, seed=seed)
    try:
        suites.get_suite(name).merge(**params)
    except suites.ParamError as exc:
        sys.stderr.write("--%s\n" % exc)
        return 2
    # appending nothing opens the path without truncating it: a path that
    # cannot be written fails before the suite runs
    if args.out and not _write(args.out, "a"):
        return 2
    t0 = time.time()
    report = suites.run_suite(name, **params)
    report["version"] = __version__
    if not _emit(report, args.out):
        return 2
    sys.stderr.write("suite %s finished in %.2fs\n" % (name, time.time() - t0))
    return 0 if report["ok"] else 1


def cmd_list(args) -> int:
    catalog = []
    for name in suites.suite_names():
        s = suites.get_suite(name)
        catalog.append({"suite": name, "claim": s.claim,
                        "defaults": {k: s.defaults[k] for k in sorted(s.defaults)}})
    report = {"version": __version__, "suites": catalog}
    return 0 if _emit(report, args.out) else 2


# -- the homology input format (README "File formats") ------------------

_DEGREE = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _json_int(v, what: str) -> int:
    """v if it is a JSON integer (an int, not a bool); else ValueError."""
    if type(v) is not int:
        raise ValueError("%s must be an integer, got %r" % (what, v))
    return v


def _rat(v):
    """An entry value: a JSON integer, or a string "p" or "p/q" of
    decimal digits with an optional leading minus."""
    if type(v) is int:
        return v
    if isinstance(v, str) and _RATIONAL.fullmatch(v):
        return Fraction(v)
    raise ValueError("entry value must be an integer or a \"p/q\" string, "
                     "got %r" % (v,))


def _by_degree(obj: dict, what: str) -> dict:
    """obj with its keys read as degrees: each must be a string of decimal
    digits with an optional leading minus, and no degree may repeat."""
    out = {}
    for k, v in obj.items():
        if not _DEGREE.fullmatch(k):
            raise ValueError("%s key must be an integer degree, got %r"
                             % (what, k))
        if int(k) in out:
            raise ValueError("%s gives degree %d twice" % (what, int(k)))
        out[int(k)] = v
    return out


def _matrix(obj, n: int) -> RatMatrix:
    if not isinstance(obj, dict):
        raise ValueError("boundary %d must be a JSON object" % n)
    ent = {(_json_int(r, "entry row"), _json_int(c, "entry column")): _rat(v)
           for r, c, v in obj.get("entries", [])}
    return RatMatrix(_json_int(obj["rows"], "rows"),
                     _json_int(obj["cols"], "cols"), ent)


def _load_complex(path):
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("top level must be a JSON object")
    dims_obj, bnd_obj = obj.get("dims", {}), obj.get("boundary", {})
    if not (isinstance(dims_obj, dict) and isinstance(bnd_obj, dict)):
        raise ValueError("'dims' and 'boundary' must be JSON objects")
    dims = {n: _json_int(v, "dimension at degree %d" % n)
            for n, v in _by_degree(dims_obj, "dims").items()}
    for n, d in dims.items():
        if d < 0:
            raise ValueError("negative dimension %d at degree %d" % (d, n))
    bnds = {n: _matrix(mat, n)
            for n, mat in _by_degree(bnd_obj, "boundary").items()}
    return dims, bnds


def cmd_homology(args) -> int:
    try:
        dims, bnds = _load_complex(args.file)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        sys.stderr.write("cannot read complex: %s\n" % exc)
        return 2
    for n, m in bnds.items():
        want_rows = dims.get(n - 1, 0)
        want_cols = dims.get(n, 0)
        if m.rows != want_rows or m.cols != want_cols:
            sys.stderr.write("boundary at degree %d has shape %dx%d, "
                             "expected %dx%d\n"
                             % (n, m.rows, m.cols, want_rows, want_cols))
            return 2
    # reject if consecutive boundaries do not compose to zero
    for n in sorted(bnds):
        up = bnds.get(n + 1)
        if up is None:
            continue
        comp = bnds[n].mul(up)
        if not comp.is_zero():
            entry = min(comp.num)
            report = {"version": __version__, "ok": False,
                      "error": "boundaries do not compose to zero",
                      "witness": {"degree": n, "entry": [entry[0], entry[1]],
                                  "value": rat_str(comp[entry])}}
            return 1 if _emit(report, args.out) else 2
    cx = ChainComplex(dims, bnds)
    degs = cx.degrees()
    table = {}
    if degs:
        h = cx.homology()
        table = {str(n): h.get(n, 0) for n in range(min(degs), max(degs) + 1)}
    report = {"version": __version__, "ok": True,
              "dims": {str(k): v for k, v in sorted(dims.items())},
              "homology": table}
    return 0 if _emit(report, args.out) else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cubehom",
        description="exact verification of cube-chain homological algebra")
    sub = p.add_subparsers(dest="command")
    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("suite")
    v.add_argument("--r", type=int, default=None,
                   help="geometry size (marks / tensor factors)")
    v.add_argument("--dim", type=int, default=None,
                   help="dimension bound where a suite takes one")
    v.add_argument("--trials", type=int, default=None,
                   help="number of random instances")
    v.add_argument("--seed", type=int, default=None,
                   help="random seed (CUBEHOM_SEED is the fallback)")
    v.add_argument("--out", default=None, help="write the JSON report here")
    h = sub.add_parser("homology", help="homology table of a JSON chain complex")
    h.add_argument("file")
    h.add_argument("--out", default=None)
    ls = sub.add_parser("list", help="print the suite catalog")
    ls.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "homology":
        return cmd_homology(args)
    if args.command == "list":
        return cmd_list(args)
    parser.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
