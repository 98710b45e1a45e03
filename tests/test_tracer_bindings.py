"""The benchmark tracer still finds, wraps and restores every traced name.

``perfbench/tracer.py`` wraps library callables by name (module functions
wherever a ``cubehom`` module imported them, and methods on their class),
so renaming or removing one of them breaks the per-layer benchmark.  This
runs two small suites under the tracer, each traced on its own, and
checks that every layer saw calls in one run or the other, except the
layers neither reaches, and that ``restore`` puts every original back
after each.
"""

import importlib.util
import pathlib
import sys

from cubehom import memo, suites

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# The traced runs: multirel.alternating at r=2 materializes alternating
# models, which read Alt off canonical members and build no Alt chain;
# multirel.absorption builds Alt chains (cubes.alt).
RUNS = [("multirel.alternating", {"r": 2, "trials": 1, "seed": 5}),
        ("multirel.absorption", {"trials": 1, "seed": 0})]

# layers neither run reaches: they take no ranks, build no total complex
# and use no tensor operator
ZERO_FOR_SUITE = {"exactlin.rank", "ccx.tot", "tensorstruct.ops"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("cubehom_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings(layers):
    """Every module attribute and method the tracer may replace."""
    mods = [m for name, m in sys.modules.items()
            if name == "cubehom" or name.startswith("cubehom.")]
    out = {}
    for modname, quals in layers.values():
        mod = sys.modules[modname]
        for qual in quals:
            owner, _, attr = qual.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                out[(cls, attr)] = getattr(cls, attr)
                continue
            fn = getattr(mod, attr)
            for m in mods:
                for k, v in vars(m).items():
                    if v is fn:
                        out[(m, k)] = fn
    return out


def test_tracer_wraps_and_restores_every_layer():
    tracer = _load_tracer()
    before = _bindings(tracer.LAYERS)
    zero = set(tracer.LAYERS)
    for name, params in RUNS:
        memo.clear()
        tr = tracer.Tracer()
        tr.install()
        try:
            assert all(getattr(owner, attr) is not fn
                       for (owner, attr), fn in before.items())
            rep = suites.run_suite(name, **params)
        finally:
            tr.restore()
        assert rep["ok"]
        summary = tr.summary()
        zero &= {layer for layer, got in summary["layers"].items()
                 if not got["calls"]}
        for (owner, attr), fn in before.items():
            assert getattr(owner, attr) is fn, (owner, attr)
        if name == "multirel.alternating":
            assert summary["counters"]["multirel.span_cubes"] > 0
    assert zero <= ZERO_FOR_SUITE, zero
