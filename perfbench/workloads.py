"""Workload definitions: which suite calls make up a pass.

A pass is a list of ``(suite, params)`` instances whose params include the
suite seed.  Suite seeds come from the benchmark's ``--seed``: for pooled
slots a seeded draw from the slot's calibrated pool (``pools.json``), for
the others a seeded integer.  Why the pools exist is in README.md.
"""

import functools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Slots whose single-call cost varies by two orders of magnitude with the
# suite seed.  ``band_s`` is the CPU-time band a seed's cold call must fall
# in to join the pool.
POOL_SLOTS = {
    "cone-id": {"suite": "multirel.cone-identification",
                "params": {"r": 3, "trials": 1}, "band_s": [1.3, 1.8]},
    "alternating": {"suite": "multirel.alternating",
                    "params": {"r": 2, "trials": 1}, "band_s": [0.5, 0.75]},
    "pullback-map": {"suite": "multirel.pullback-map",
                     "params": {"r": 3, "trials": 1}, "band_s": [0.85, 1.35]},
    "composite-homotopy": {"suite": "multirel.composite-homotopy",
                           "params": {"r": 3, "trials": 1},
                           "band_s": [0.55, 0.8]},
    "tensor-homotopy": {"suite": "tensor.homotopy",
                        "params": {"r": 3, "trials": 1}, "band_s": [0.3, 0.7]},
    "chain-map": {"suite": "formalchern.chain-map",
                  "params": {"r": 3, "trials": 1}, "band_s": [0.1, 0.3]},
}

# The slow small-dense suites run at an eighth of their default trials so a
# pass stays near 2 s; the cheap ones, and identity-pullback with its
# known failures, run at their defaults.  ccx.relation is the only one
# that builds total complexes, so ccx.tot is measured somewhere.
SMALL_DENSE = [
    ("exactlin.homology", {"trials": 100, "dim": 24}),
    ("ccx.relation", {"trials": 12}),
    ("cubes.boundary-squared", {"trials": 25, "dim": 3}),
    ("cubes.duplication-faces", {"trials": 12}),
    ("cubes.contraction", {"trials": 5}),
    ("ccx.cone-section", {"trials": 12}),
    ("ccx.second-homotopy", {"trials": 5}),
    ("ccx.cone-map", {"trials": 6}),
    ("diagram.simple", {"trials": 20}),
    ("multirel.identity-pullback", {"trials": 100, "r": 3}),
]

# ``worker_s`` is the wall time of one worker (start, cold and warm pass)
# on the reference machine in its slower periods; it turns ``--seconds``
# into a fixed number of workers, so the work of a run depends on its seed
# and length only.
WORKLOADS = {
    "span-solve": {"pooled": [("cone-id", 1), ("alternating", 1)],
                   "worker_s": 6.2},
    "pullback-chain": {"pooled": [("pullback-map", 1),
                                  ("composite-homotopy", 1),
                                  ("tensor-homotopy", 1), ("chain-map", 1)],
                       "worker_s": 7.4},
    "small-dense": {"fixed": SMALL_DENSE, "worker_s": 5.3},
}

# (per-layer metric, comparison, bound): the share of traced suite time
# that shows a workload stresses what it exists to stress
FOCUS = {
    "span-solve": [("exactlin.solve_rref.incl_share", ">=", 0.50)],
    "pullback-chain": [("cubes.composite_pullback.incl_share", ">=", 0.30),
                       ("exactlin.rref.incl_share", "<", 0.05)],
    "small-dense": [("suites.max_share", "<", 0.35)],
}


def workers(workload, seconds):
    """How many workers a run of ``seconds`` starts: as many as fit on the
    reference machine, at least 3 and at most 12.  It never depends on how
    fast the workers ran, so every run of one seed attempts the same
    checks."""
    return max(3, min(12, int(seconds / WORKLOADS[workload]["worker_s"])))


@functools.cache
def pools():
    with open(os.path.join(HERE, "pools.json")) as fh:
        return json.load(fh)


def instances(workload, seed, rep, pass_name):
    """The (suite, params) list of one pass; params include the suite seed.

    Cold and warm passes of one worker never share a suite seed.  For
    fixed suites, worker 0's cold pass uses ``seed`` itself, so a report
    can be reproduced with ``cubehom verify <suite> --seed <seed>``."""
    spec = WORKLOADS[workload]
    index = ("cold", "warm").index(pass_name)
    rng = random.Random("%s:%d:%d" % (workload, seed, rep))
    out = []
    for slot, k in spec.get("pooled", ()):
        pool = pools()[slot]
        picked = rng.sample(pool["seeds"], 2 * k)[index * k:(index + 1) * k]
        out += [(pool["suite"], dict(pool["params"], seed=s)) for s in picked]
    fixed_seeds = [rng.randrange(2 ** 31), rng.randrange(2 ** 31)]
    if rep == 0:
        fixed_seeds[0] = seed
    for suite, params in spec.get("fixed", ()):
        out.append((suite, dict(params, seed=fixed_seeds[index])))
    return out
