"""One fresh verifying process: a cold pass, then a warm pass.

Reads a JSON spec on stdin:

    {"src": <dir holding the cubehom package>, "trace": false,
     "passes": [{"name": "cold", "instances": [[suite, params], ...]},
                {"name": "warm", "instances": [...]}]}

and prints one JSON line with, per pass, CPU and wall time, the SHA-256 of
the canonical reports, check counts and per-suite times; then peak RSS and,
when traced, the layer summary and the cache sizes read from outside.
"""

import hashlib
import json
import os
import resource
import sys
import time


def _cpu():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def canonical(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def check_report(report, suite, params):
    """Problems with the report's shape; [] when it is well formed."""
    bad = []
    checks = report.get("checks")
    counts = report.get("counts", {})
    if report.get("suite") != suite:
        bad.append("suite name %r" % report.get("suite"))
    for k, v in params.items():
        if report.get("params", {}).get(k) != v:
            bad.append("param %s not applied" % k)
    if not isinstance(checks, list) or not checks:
        bad.append("zero checks")
        return bad
    nfail = sum(1 for c in checks if not c["ok"])
    if counts.get("total") != len(checks) or counts.get("failed") != nfail:
        bad.append("counts disagree with checks")
    if report.get("ok") != (nfail == 0):
        bad.append("ok flag disagrees with checks")
    return bad


def run_pass(suites, instances, tracer):
    digest = hashlib.sha256()
    out = {"attempted": 0, "failed_checks": 0, "raised": 0, "malformed": 0,
           "failed_by_suite": {}, "problems": [], "suite_cpu_s": {}}
    cpu0, wall0 = _cpu(), time.perf_counter()
    for suite, params in instances:
        c0 = _cpu()
        try:
            if tracer is None:
                report = suites.run_suite(suite, **params)
            else:
                report = tracer.suite_span(
                    suite, lambda: suites.run_suite(suite, **params))
        except Exception as exc:  # a raising suite is a failed check
            out["raised"] += 1
            out["attempted"] += 1
            out["problems"].append("%s %s raised %s: %s"
                                   % (suite, params, type(exc).__name__, exc))
            digest.update(canonical({"suite": suite, "params": params,
                                     "raised": type(exc).__name__}).encode())
            digest.update(b"\n")
            continue
        finally:
            out["suite_cpu_s"][suite] = (out["suite_cpu_s"].get(suite, 0.0)
                                         + _cpu() - c0)
        digest.update(canonical(report).encode())
        digest.update(b"\n")
        bad = check_report(report, suite, params)
        if bad:
            out["malformed"] += 1
            out["attempted"] += 1
            out["problems"].append("%s %s: %s" % (suite, params, "; ".join(bad)))
            continue
        n, f = report["counts"]["total"], report["counts"]["failed"]
        out["attempted"] += n
        out["failed_checks"] += f
        if f:
            out["failed_by_suite"][suite] = (
                out["failed_by_suite"].get(suite, 0) + f)
    out["cpu_s"] = _cpu() - cpu0
    out["wall_s"] = time.perf_counter() - wall0
    out["digest"] = digest.hexdigest()
    return out


def cache_sizes(cubes):
    """Entries in the module-level caches of ``cubes``, read from outside."""
    out = {}
    for name, v in vars(cubes).items():
        if not (name.startswith("_") and name.isupper()
                and isinstance(v, dict)):
            continue
        if name == "_INTERN":
            out[name] = sum(len(b) for b in v.values())
        elif name.endswith("_CACHE"):
            out[name] = len(v)
    return out


def main():
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    from cubehom import cubes, suites
    here = os.path.realpath(spec["src"])
    if not os.path.realpath(suites.__file__).startswith(here + os.sep):
        raise SystemExit("cubehom imported from %s, not %s"
                         % (suites.__file__, here))
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        caches0 = cache_sizes(cubes)
    result = {"passes": {}}
    try:
        for p in spec["passes"]:
            result["passes"][p["name"]] = run_pass(suites, p["instances"],
                                                   tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["caches_before"] = caches0
        result["caches_after"] = cache_sizes(cubes)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
