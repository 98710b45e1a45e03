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
import sys
import time

from . import __version__, suites
from .exactlin import RatMatrix, rat_str


def _emit(report, out_path) -> bool:
    """Write the report to out_path, or to stdout without one; False, with
    a message, when out_path cannot be written."""
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return True
    try:
        with open(out_path, "w") as fh:
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
    t0 = time.time()
    report = suites.run_suite(name, r=args.r, dim=args.dim,
                              trials=args.trials, seed=seed)
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


def _load_complex(path):
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("top level must be a JSON object")
    dims_obj, bnd_obj = obj.get("dims", {}), obj.get("boundary", {})
    if not (isinstance(dims_obj, dict) and isinstance(bnd_obj, dict)):
        raise ValueError("'dims' and 'boundary' must be JSON objects")
    dims = {int(k): int(v) for k, v in dims_obj.items()}
    for n, d in dims.items():
        if d < 0:
            raise ValueError("negative dimension %d at degree %d" % (d, n))
    bnds = {}
    for k, mat in bnd_obj.items():
        if not isinstance(mat, dict):
            raise ValueError("boundary %s must be a JSON object" % k)
        bnds[int(k)] = RatMatrix.from_json_obj(mat)
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
            entry = sorted(comp.entries)[0]
            report = {"version": __version__, "ok": False,
                      "error": "boundaries do not compose to zero",
                      "witness": {"degree": n, "entry": [entry[0], entry[1]],
                                  "value": rat_str(comp.entries[entry])}}
            return 1 if _emit(report, args.out) else 2
    from .ccx import ChainComplex
    cx = ChainComplex(dims, bnds)
    degs = cx.degrees()
    table = {}
    if degs:
        lo, hi = min(degs), max(degs)
        interior = [n for n in range(lo, hi + 1)]
        h = cx.homology()
        for n in interior:
            table[str(n)] = h.get(n, 0)
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
