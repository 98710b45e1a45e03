"""The benchmark tracer still finds, wraps and restores every traced name.

``perfbench/tracer.py`` wraps library callables by name (module functions
wherever a ``cubehom`` module imported them, and methods on their class),
so renaming or removing one of them breaks the per-layer benchmark.  This
runs one small suite under the tracer and checks that every layer saw
calls, except the layers that suite never reaches, and that ``restore``
puts every original back.
"""

import importlib.util
import pathlib
import sys

from cubehom import memo, suites

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# layers multirel.alternating at r=2 never reaches: it takes no ranks,
# builds no total complex and uses no tensor operator
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
    memo.clear()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in before.items())
        rep = suites.run_suite("multirel.alternating", r=2, trials=1, seed=5)
    finally:
        tr.restore()
    assert rep["ok"]
    summary = tr.summary()
    zero = {layer for layer, got in summary["layers"].items()
            if not got["calls"]}
    assert zero <= ZERO_FOR_SUITE
    assert summary["counters"]["multirel.span_cubes"] > 0
    for (owner, attr), fn in before.items():
        assert getattr(owner, attr) is fn, (owner, attr)
