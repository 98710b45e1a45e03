"""Measure the cost of single suite calls, to build the instance pools.

Each candidate (suite, params, suite seed) runs in a fresh interpreter, so
the measured CPU time is the cold cost a pass pays for it; with
``--repeat`` the least of several runs is kept, which discounts time lost
to other tenants.  Results are appended as JSON lines, one per candidate,
so an interrupted calibration keeps what it measured; a later line for the
same candidate replaces an earlier one.

    python3 perfbench/calibrate.py measure --slot alternating \
        --seeds 0:60 --repeat 3 --out cal.jsonl
    python3 perfbench/calibrate.py select cal.jsonl > perfbench/pools.json

``select`` keeps, per slot, the seeds whose cost lies within the slot's
band (see ``workloads.POOL_SLOTS``) and writes them with their measured
costs.  The band rule, not the machine, decides membership; the costs are
recorded so the next calibration can be compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

_CHILD = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
from cubehom import suites
kw = json.loads(sys.argv[3])
t = time.process_time()
rep = suites.run_suite(sys.argv[2], **kw)
print(json.dumps({"cpu_s": time.process_time() - t,
                  "checks": rep["counts"]["total"],
                  "failed": rep["counts"]["failed"]}))
"""


def measure(slot_name, seeds, out, timeout, repeat):
    slot = workloads.POOL_SLOTS[slot_name]
    src = os.path.join(workloads.ROOT, "src")
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(out, "a") as fh:
        for s in seeds:
            kw = dict(slot["params"], seed=s)
            row = {"slot": slot_name, "seed": s, "cpu_s": None}
            runs = []
            try:
                for _ in range(repeat):
                    p = subprocess.run(
                        [sys.executable, "-c", _CHILD, src, slot["suite"],
                         json.dumps(kw)],
                        capture_output=True, text=True, timeout=timeout,
                        env=env, check=True)
                    runs.append(json.loads(p.stdout.strip().splitlines()[-1]))
            except subprocess.TimeoutExpired:
                runs = []
            if runs:
                row.update(runs[0], cpu_s=min(r["cpu_s"] for r in runs),
                           cpu_all=[r["cpu_s"] for r in runs])
            fh.write(json.dumps(row) + "\n")
            fh.flush()


def select(paths):
    rows = {}
    for path in paths:
        with open(path) as fh:
            for line in fh:
                r = json.loads(line)
                rows.setdefault(r["slot"], {})[r["seed"]] = r
    pools = {}
    for name, slot in workloads.POOL_SLOTS.items():
        got = rows.get(name, {})
        lo, hi = slot["band_s"]
        keep = sorted(s for s, r in got.items()
                      if r["cpu_s"] is not None and lo <= r["cpu_s"] <= hi
                      and r["failed"] == 0)
        costs = [got[s]["cpu_s"] for s in keep]
        pools[name] = {
            "suite": slot["suite"], "params": slot["params"],
            "band_s": [lo, hi], "measured": len(got),
            "median_s": round(statistics.median(costs), 3) if costs else None,
            "seeds": keep,
            "cost_s": {str(s): round(got[s]["cpu_s"], 3) for s in keep}}
    json.dump(pools, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("measure")
    m.add_argument("--slot", required=True, choices=sorted(workloads.POOL_SLOTS))
    m.add_argument("--seeds", required=True,
                   help="first:stop, or a comma-separated list")
    m.add_argument("--repeat", type=int, default=1)
    m.add_argument("--out", required=True)
    m.add_argument("--timeout", type=float, default=20.0)
    s = sub.add_parser("select")
    s.add_argument("paths", nargs="+")
    a = ap.parse_args()
    if a.cmd == "measure":
        if ":" in a.seeds:
            lo, hi = (int(x) for x in a.seeds.split(":"))
            seeds = range(lo, hi)
        else:
            seeds = [int(x) for x in a.seeds.split(",")]
        measure(a.slot, seeds, a.out, a.timeout, a.repeat)
    else:
        select(a.paths)


if __name__ == "__main__":
    main()
