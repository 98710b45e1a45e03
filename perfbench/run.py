"""cubehom benchmark: verification time, set-up, memory and failure share.

    python3 perfbench/run.py --workload span-solve --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics:
set-up time over several fresh interpreters, then fresh worker processes,
each making a cold and a warm pass over instances drawn from ``--seed``;
the number of workers follows from the workload and ``--seconds`` alone.
With ``--trace 1`` it runs the first worker once untraced and twice traced
and reports the per-layer metrics.  The last line of standard output is the JSON result; README.md
describes every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_STARTS = 9
WORKER_TIMEOUT_S = 150

# Suites whose failing checks are a known defect of the library: they are
# counted in ``failed`` and in checks_passed_ratio, never hidden, but do
# not make the run incorrect.  Class twists collide in Tower._scalar
# (138 classes share 35 twists at r=3), so identity-inserted words can
# pass where they should not and fail where they should pass.
KNOWN_DEFECT_SUITES = {"multirel.identity-pullback"}

END_TO_END = {
    "setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB",
    "checks_passed_ratio": "ratio"}

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import cubehom.suites as s; s.suite_names()")


def _child_cpu():
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return c.ru_utime + c.ru_stime


def fraction_loop():
    """A fixed pure-Python Fraction workload; its time shows how fast this
    machine ran at the start and end of the run.  Recorded, not compared."""
    t0, c0 = time.perf_counter(), time.process_time()
    acc = Fraction(0)
    for k in range(40000):
        acc += Fraction(k % 13 - 6, k % 11 + 2) * Fraction(k % 5 + 1, k % 7 + 3)
    assert acc.denominator > 0
    return {"wall_s": time.perf_counter() - t0,
            "cpu_s": time.process_time() - c0}


def machine_facts(args, env):
    commit = None
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            commit = p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cubehom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "commit": commit,
            "src_sha256": h.hexdigest(), "loadavg": os.getloadavg(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "pythonhashseed": env["PYTHONHASHSEED"]}


def setup_samples(env):
    """CPU seconds of fresh interpreters that import cubehom.suites and
    build the registry; one unmeasured start first compiles bytecode."""
    out = []
    for i in range(SETUP_STARTS + 1):
        c0, w0 = _child_cpu(), time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], env=env,
                       check=True, timeout=60)
        if i:
            out.append({"cpu_s": _child_cpu() - c0,
                        "wall_s": time.perf_counter() - w0})
    return out


def run_worker(spec, env):
    p = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                       input=json.dumps(spec), capture_output=True,
                       text=True, env=env, timeout=WORKER_TIMEOUT_S)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit("worker exited with %d" % p.returncode)
    return json.loads(p.stdout.strip().splitlines()[-1])


def worker_spec(workload, seed, rep, trace):
    return {"src": SRC, "trace": trace,
            "passes": [{"name": name,
                        "instances": workloads.instances(workload, seed, rep,
                                                         name)}
                       for name in ("cold", "warm")]}


def tally(results):
    """attempted, failed and the problems that make a run incorrect."""
    attempted = failed = 0
    problems = []
    for res in results:
        for pname, p in res["passes"].items():
            attempted += p["attempted"]
            failed += p["failed_checks"] + p["raised"] + p["malformed"]
            problems += ["%s: %s" % (pname, s) for s in p["problems"]]
            for suite, n in p["failed_by_suite"].items():
                if suite not in KNOWN_DEFECT_SUITES:
                    problems.append("%s: %s failed %d checks"
                                    % (pname, suite, n))
    return attempted, failed, problems


def measure(args, env):
    setup = setup_samples(env)
    reps = [run_worker(worker_spec(args.workload, args.seed, i, False), env)
            for i in range(workloads.workers(args.workload, args.seconds))]
    attempted, failed, problems = tally(reps)
    metrics = {
        "setup_s": statistics.median(s["cpu_s"] for s in setup),
        "cold_s": statistics.median(r["passes"]["cold"]["cpu_s"] for r in reps),
        "warm_s": statistics.median(r["passes"]["warm"]["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "checks_passed_ratio": (attempted - failed) / attempted,
    }
    detail = {"setup": setup, "reps": reps}
    return metrics, END_TO_END, attempted, failed, problems, detail


def per_layer_metrics(traced, untraced):
    """Per-layer metrics from two traced workers and one untraced one."""
    a = traced[0]
    units = {}
    metrics = {}

    def put(name, value, unit):
        metrics[name] = value
        units[name] = unit

    for layer in LAYERS:
        put(layer + ".calls", a["trace"]["layers"][layer]["calls"], "count")
        if layer != "cubes.intern":
            put(layer + ".self_s", statistics.median(
                t["trace"]["layers"][layer]["self_s"] for t in traced), "s")
    for name, v in a["trace"]["counters"].items():
        put(name, v, "count")
    before, after = a["caches_before"], a["caches_after"]
    for layer, cache in (("cubes.face", "_FACE_CACHE"),
                         ("cubes.intern", "_INTERN")):
        calls = a["trace"]["layers"][layer]["calls"]
        if cache in after and calls:
            grown = after[cache] - before.get(cache, 0)
            put(layer + ".hit_ratio", (calls - grown) / calls, "ratio")
        else:
            put(layer + ".hit_ratio", -1.0, "ratio")
    put("cubes.cache_entries", sum(after.values()), "count")

    def suite_time(t):
        return sum(s["dur_s"] for s in t["trace"]["suite_spans"])

    put("suites.self_s", statistics.median(
        sum(s["dur_s"] - s["child_s"] for s in t["trace"]["suite_spans"])
        for t in traced), "s")
    for group in ("exactlin.solve_rref", "exactlin.rref",
                  "cubes.composite_pullback"):
        put(group + ".incl_share", statistics.median(
            t["trace"]["union_s"][group] / suite_time(t) for t in traced),
            "ratio")
    per_suite = {}
    for s in a["trace"]["suite_spans"]:
        per_suite[s["suite"]] = per_suite.get(s["suite"], 0.0) + s["dur_s"]
    put("suites.max_share", max(per_suite.values()) / suite_time(a), "ratio")
    put("trace.overhead_ratio", statistics.median(
        t["passes"]["cold"]["cpu_s"] for t in traced)
        / untraced["passes"]["cold"]["cpu_s"], "ratio")
    return metrics, units


def repeat_problems(traced, untraced):
    """Exact counts and report digests must repeat between the traced
    workers, and digests must match the untraced worker."""
    out = []
    a, b = traced
    for pname in ("cold", "warm"):
        ds = {x["passes"][pname]["digest"] for x in (a, b, untraced)}
        if len(ds) != 1:
            out.append("%s report digests differ: %s" % (pname, sorted(ds)))
    for layer in LAYERS:
        ca = a["trace"]["layers"][layer]["calls"]
        cb = b["trace"]["layers"][layer]["calls"]
        if ca != cb:
            out.append("%s.calls did not repeat: %d vs %d" % (layer, ca, cb))
    if a["trace"]["counters"] != b["trace"]["counters"]:
        out.append("counters did not repeat: %s vs %s"
                   % (a["trace"]["counters"], b["trace"]["counters"]))
    if a["caches_after"] != b["caches_after"]:
        out.append("cache sizes did not repeat")
    return out


def focus_lines(workload, metrics):
    """The share each workload exists to stress, as PASS/FAIL lines.
    Shares move when a layer gets faster, so they are shown, not gated."""
    rules = workloads.FOCUS[workload]
    lines = []
    for name, op, bound in rules:
        v = metrics[name]
        ok = v >= bound if op == ">=" else v < bound
        lines.append("focus %s: %s = %.3f (want %s %.2f)"
                     % ("PASS" if ok else "FAIL", name, v, op, bound))
    return lines


def trace(args, env):
    spec = worker_spec(args.workload, args.seed, 0, False)
    traced_spec = dict(spec, trace=True)
    # the untraced worker runs between the traced ones, so neither side of
    # the overhead ratio is always first; the second traced worker hashes
    # strings differently, so the repeat check also catches counts that
    # depend on set or dict order
    traced = [run_worker(traced_spec, env)]
    untraced = run_worker(spec, env)
    traced.append(run_worker(traced_spec, dict(env, PYTHONHASHSEED="1")))
    attempted, failed, problems = tally([untraced] + traced)
    problems += repeat_problems(traced, untraced)
    metrics, units = per_layer_metrics(traced, untraced)
    detail = {"untraced": untraced, "traced": traced,
              "focus": focus_lines(args.workload, metrics)}
    return metrics, units, attempted, failed, problems, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cubehom", "suites.py")):
        sys.stderr.write("no cubehom sources under %s: run from the root "
                         "of a source checkout\n" % SRC)
        return 2
    # children import cubehom from src/ only, with cached bytecode as an
    # installed package has, and with pinned string hashing
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONHASHSEED"] = "0"
    facts = machine_facts(args, env)
    facts["instances_rep0"] = worker_spec(args.workload, args.seed, 0,
                                          False)["passes"]
    start = fraction_loop()
    fn = trace if args.trace else measure
    metrics, units, attempted, failed, problems, detail = fn(args, env)
    end = fraction_loop()
    detail.update(facts=facts, fraction_loop={"start": start, "end": end},
                  metrics=metrics, problems=problems)
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    reps = detail.get("reps") or [detail["untraced"]]
    for i, r in enumerate(reps):
        for pname in ("cold", "warm"):
            p = r["passes"][pname]
            print("rep %d %s: cpu %.3f s, wall %.3f s, %d checks, %d failed,"
                  " sha256 %s" % (i, pname, p["cpu_s"], p["wall_s"],
                                  p["attempted"], p["failed_checks"]
                                  + p["raised"] + p["malformed"], p["digest"]))
    for line in detail.get("focus", []):
        print(line)
    print("fraction loop: start %.3f s, end %.3f s (cpu); nproc %d, "
          "python %s, commit %s" % (start["cpu_s"], end["cpu_s"],
                                    facts["nproc"], facts["python"],
                                    facts["commit"] or facts["src_sha256"]))
    for name in sorted(metrics):
        print("%-40s %.6g %s" % (name, metrics[name], units[name]))
    for p in problems:
        print("PROBLEM: " + p)
    print("details: " + os.path.relpath(path, ROOT))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
