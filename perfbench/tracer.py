"""In-memory layer spans around cubehom's public functions and methods.

The tracer replaces every binding of each traced callable: the defining
module's attribute, every ``cubehom`` module that imported it by name, or
the attribute on its class.  ``restore()`` puts the originals back.

Spans are aggregated as they close, per layer: calls, inclusive time, the
part of it covered by child spans (so self time = inclusive - children),
and the union of a group's spans (its time counted once however deeply
they nest).  One traced pass makes millions of calls, so individual spans
are kept only at the suite level.
"""

import functools
import sys
import time

# layer name -> (module, qualified names in that module)
LAYERS = {
    "exactlin.rref": ("cubehom.exactlin", ["rref"]),
    "exactlin.solve": ("cubehom.exactlin", ["solve"]),
    "exactlin.rank": ("cubehom.exactlin", ["rank"]),
    "exactlin.ratmatrix_init": ("cubehom.exactlin", ["RatMatrix.__init__"]),
    "exactlin.mul": ("cubehom.exactlin", ["RatMatrix.mul"]),
    "exactlin.kron": ("cubehom.exactlin", ["RatMatrix.kron"]),
    "cubes.composite_pullback": ("cubehom.cubes", ["composite_pullback"]),
    "cubes.boundary": ("cubehom.cubes", ["boundary"]),
    "cubes.alt": ("cubehom.cubes", ["alt"]),
    "cubes.face": ("cubehom.cubes", ["face"]),
    "cubes.intern": ("cubehom.cubes", ["ExactCube.intern"]),
    "multirel.coords": ("cubehom.multirel", ["MatrixModel.coords"]),
    "multirel.close_span": ("cubehom.multirel", ["close_span_generic"]),
    "multirel.materialize": ("cubehom.multirel", ["materialize_ccomplex",
                                                  "materialize_operator"]),
    "multirel.ops": ("cubehom.multirel", ["op_F", "op_pullback",
                                          "op_homotopy"]),
    "ccx.tot": ("cubehom.ccx", ["CComplex.tot", "CMap.tot"]),
    "ccx.validate": ("cubehom.ccx", ["ChainComplex.validate",
                                     "CComplex.validate", "CMap.validate",
                                     "CHomotopy.validate"]),
    "tensorstruct.ops": ("cubehom.tensorstruct", ["op_tensor",
                                                  "op_tensor_homotopy",
                                                  "op_tensor_theta"]),
}

# union groups beyond each layer's own: solve runs rref on the augmented
# matrix, and rref is also called directly, so their shares overlap
GROUPS = {"exactlin.rref": ("exactlin.solve_rref",),
          "exactlin.solve": ("exactlin.solve_rref",)}


def _rref_cells(args, kwargs):
    m = args[0] if args else kwargs["m"]
    return m.rows * m.cols


def _span_cubes(result):
    return sum(len(idx) for idx in result.index.values())


# extra counters: layer -> (counter name, function of the arguments or of
# the result, and which)
EXTRAS = {"exactlin.rref": ("exactlin.rref.cells", _rref_cells, "args"),
          "multirel.close_span": ("multirel.span_cubes", _span_cubes,
                                  "result")}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.calls = {}
        self.incl = {}
        self.child = {}
        self.union = {}
        self.counters = {}
        self.suite_spans = []
        self._stack = []
        self._depth = {}
        self._patches = []

    # -- installing and removing wrappers --------------------------------

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "cubehom" or name.startswith("cubehom.")]
        for layer, (modname, qualnames) in LAYERS.items():
            for g in (layer,) + GROUPS.get(layer, ()):
                self.union.setdefault(g, 0.0)
                self._depth.setdefault(g, 0)
            self.calls[layer] = 0
            self.incl[layer] = 0.0
            self.child[layer] = 0.0
            mod = sys.modules[modname]
            for qual in qualnames:
                self._patch(mods, mod, qual, layer)
        for name, _fn, _kind in EXTRAS.values():
            self.counters[name] = 0

    def _patch(self, mods, mod, qual, layer):
        owner_name, _, attr = qual.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            orig = owner.__dict__[attr]
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, layer))
            return
        orig = getattr(mod, attr)
        wrapped = self._wrap(orig, layer)
        bound = 0
        for m in mods:
            for k, v in list(vars(m).items()):
                if v is orig:
                    self._patches.append((m, k, orig))
                    setattr(m, k, wrapped)
                    bound += 1
        if not bound:
            raise RuntimeError("no binding of %s.%s" % (mod.__name__, attr))

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- spans ---------------------------------------------------------

    def _wrap(self, fn, layer):
        groups = (layer,) + GROUPS.get(layer, ())
        extra = EXTRAS.get(layer)
        stack, depth, clock = self._stack, self._depth, self.clock
        calls, incl, child = self.calls, self.incl, self.child
        union, counters = self.union, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if extra is not None and extra[2] == "args":
                counters[extra[0]] += extra[1](args, kwargs)
            frame = [0.0]
            stack.append(frame)
            for g in groups:
                depth[g] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                for g in groups:
                    depth[g] -= 1
                    if depth[g] == 0:
                        union[g] += d
                calls[layer] += 1
                incl[layer] += d
                child[layer] += frame[0]
                if stack:
                    stack[-1][0] += d
            if extra is not None and extra[2] == "result":
                counters[extra[0]] += extra[1](result)
            return result

        return traced

    def suite_span(self, name, fn):
        """Run ``fn()`` as a root span named after the suite."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            return fn()
        finally:
            d = self.clock() - t0
            self._stack.pop()
            self.suite_spans.append({"suite": name, "start": t0, "dur_s": d,
                                     "child_s": frame[0]})

    def summary(self):
        layers = {}
        for layer in LAYERS:
            layers[layer] = {"calls": self.calls[layer],
                             "incl_s": self.incl[layer],
                             "self_s": self.incl[layer] - self.child[layer]}
        return {"layers": layers, "union_s": dict(self.union),
                "counters": dict(self.counters),
                "suite_spans": list(self.suite_spans)}
