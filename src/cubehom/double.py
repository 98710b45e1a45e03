"""Glued bundles on an iterated double and the chain-level splitting.

The double of a space along r marked subspaces has one component per
subset of {1..r}; a bundle on it is a family of objects indexed by those
subsets, of constant rank (the double is connected), with free metric
data per component; virtual bundles are ``exactlin.FormalSum``s of them
that drop rank zero.  The extraction maps i_I^*, the restriction to the
partial double T_j, and the pullback along the fold map T -> T_j are pure
lattice bookkeeping, and the inclusion-exclusion operator they generate
realizes the splitting of the relative theory.

At chain level the same geometry acts on glued cubes, families of exact
cubes of one degree; pullback classes act by reindexing and compose
strictly, so all higher connecting data vanishes and the generic cone
section construction applies with the zero homotopy.  The splitting
t = t_r ... t_1 is built through that construction, not hand-coded, and
its degree-(0,0) part is checked against prod_j (1 - p_j^* iota_j^*).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import ccx
from .cubes import CubeChain, degenerate_along, face, identity_edge
from .exactlin import FormalSum, MetObj, RatMatrix
from .multirel import (LevelChain, MatrixModel, Span, close_span_generic,
                       cone_identification, levelwise, materialize_ccomplex,
                       materialize_operator, relabeled_model)
from .signs import sgn_division, subsets


class GluedBundle:
    """A family of objects over the subsets of an index universe."""

    __slots__ = ("marks", "comps", "_hash")

    def __init__(self, marks, comps: dict):
        marks = tuple(sorted(marks))
        full = {}
        dims = set()
        for S in subsets(marks):
            key = frozenset(S)
            if key not in comps:
                raise ValueError("missing component %r" % (sorted(S),))
            full[key] = comps[key]
            dims.add(comps[key].dim)
        if len(dims) > 1:
            raise ValueError("components of unequal rank cannot glue")
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "comps", full)
        object.__setattr__(self, "_hash", hash(
            (marks, tuple(full[k] for k in sorted(full, key=sorted)))))

    def __setattr__(self, name, value):
        raise AttributeError("GluedBundle is immutable")

    def __eq__(self, other):
        if not isinstance(other, GluedBundle):
            return NotImplemented
        return self.marks == other.marks and self.comps == other.comps

    def __hash__(self):
        return self._hash

    def dim(self) -> int:
        return next(iter(self.comps.values())).dim

    def is_zero(self) -> bool:
        return self.dim() == 0


class VirtualGlued(FormalSum):
    """A formal Q-combination of glued bundles; zero-rank bundles drop."""

    __slots__ = ()

    def _normal(self, b, c):
        return None if b.is_zero() else (b, c)

    @staticmethod
    def of(b: GluedBundle, c=1) -> "VirtualGlued":
        return VirtualGlued([(b, Fraction(c))])

    def extract(self, I) -> dict:
        """i_I^* on virtual bundles: a virtual object {MetObj: coeff}."""
        I = frozenset(I)
        return FormalSum([(b.comps[I], c) for b, c in self.terms.items()
                          if b.comps[I].dim]).terms


def i_I_star(f: GluedBundle, I) -> MetObj:
    return f.comps[frozenset(I)]


def iota_j_star(f: GluedBundle, j: int) -> GluedBundle:
    """Restriction to T_j: components containing j, reindexed over the
    subsets of the remaining marks."""
    if j not in f.marks:
        raise ValueError("mark not present")
    rest = tuple(k for k in f.marks if k != j)
    return GluedBundle(rest, {frozenset(S): f.comps[frozenset(S) | {j}]
                              for S in subsets(rest)})


def p_j_star(g: GluedBundle, j: int) -> GluedBundle:
    """Pullback along the fold map: (p_j^* G)_I = G_{I - {j}}."""
    if j in g.marks:
        raise ValueError("mark already present")
    marks = tuple(sorted(g.marks + (j,)))
    return GluedBundle(marks, {frozenset(S): g.comps[frozenset(S) - {j}]
                               for S in subsets(marks)})


def bundle_to_json(f: GluedBundle) -> dict:
    """JSON form: components keyed by the subset bitmask over the marks."""
    comps = {}
    for S, obj in f.comps.items():
        mask = 0
        for i, m in enumerate(f.marks):
            if m in S:
                mask |= 1 << i
        comps[str(mask)] = {"dim": obj.dim,
                            "gram": None if obj.gram is None
                            else obj.gram.to_json_obj()}
    return {"marks": list(f.marks), "components": comps}


def bundle_from_json(obj) -> GluedBundle:
    marks = tuple(int(m) for m in obj["marks"])
    comps = {}
    for mask_s, entry in obj["components"].items():
        mask = int(mask_s)
        S = frozenset(marks[i] for i in range(len(marks)) if mask >> i & 1)
        gram = None if entry.get("gram") is None else \
            RatMatrix.from_json_obj(entry["gram"])
        comps[S] = MetObj(int(entry["dim"]), gram, check=False)
    return GluedBundle(marks, comps)


def one_minus_fold(f: VirtualGlued, j: int) -> VirtualGlued:
    out = VirtualGlued()
    for b, c in f.terms.items():
        out = out + VirtualGlued.of(b, c)
        out = out + VirtualGlued.of(p_j_star(iota_j_star(b, j), j), -c)
    return out


def qt_bundle(f: GluedBundle) -> VirtualGlued:
    """(1 - p_r^* iota_r^*) ... (1 - p_1^* iota_1^*) on virtual bundles."""
    acc = VirtualGlued.of(f)
    for j in f.marks:
        acc = one_minus_fold(acc, j)
    return acc


# -- glued cubes --------------------------------------------------------

class GluedCube:
    """A family of exact cubes of one degree over an index lattice; the
    degenerate glued cubes degenerate every component along one common
    axis with one sign."""

    __slots__ = ("n", "comps", "_hash", "_degen")

    def __init__(self, n: int, comps: dict):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "comps", dict(comps))
        for c in self.comps.values():
            if c.n != n:
                raise ValueError("component degrees disagree")
        key = tuple(sorted((tuple(sorted(s)), c._hash)
                           for s, c in self.comps.items()))
        object.__setattr__(self, "_hash", hash((n, key)))
        object.__setattr__(self, "_degen", None)

    def __setattr__(self, name, value):
        raise AttributeError("GluedCube is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GluedCube):
            return NotImplemented
        return (self._hash == other._hash and self.n == other.n
                and self.comps == other.comps)

    def __hash__(self):
        return self._hash

    def is_zero_cube(self) -> bool:
        return all(c.is_zero_cube() for c in self.comps.values())

    def is_degenerate(self) -> bool:
        d = self._degen
        if d is None:
            d = self._scan()
            object.__setattr__(self, "_degen", d)
        return d

    def _scan(self) -> bool:
        return any(all(degenerate_along(c, j, sign, identity_edge)
                       for c in self.comps.values())
                   for j in range(1, self.n + 1) for sign in (1, -1))

    def face(self, j: int, i: int) -> "GluedCube":
        return GluedCube(self.n - 1,
                         {s: face(c, j, i) for s, c in self.comps.items()})

    def act(self, sigma) -> "GluedCube":
        return GluedCube(self.n, {s: c.act(sigma) for s, c in self.comps.items()})


def _reindex(cube: GluedCube, index, src) -> GluedCube:
    """The glued cube with component cube.comps[src(S)] at each S of index."""
    return GluedCube(cube.n, {S: cube.comps[src(S)] for S in index})


class DoubleGeometry:
    """The geometry of (T; T_1..T_r) on glued cubes.  Level I carries
    families over the subsets of {1..r} - I; embedding pullbacks select
    subfamilies and fold pullbacks duplicate them, composing strictly."""

    def __init__(self, r: int):
        self.r = r
        self.marks = tuple(range(1, r + 1))
        self.extra = frozenset()

    def level_index(self, I):
        return [frozenset(S) for S in subsets([k for k in self.marks
                                               if k not in I])]

    def family_cube(self, I, comps: dict) -> GluedCube:
        full = {}
        for S in self.level_index(I):
            if S not in comps:
                raise ValueError("missing family component %r" % (sorted(S),))
            full[S] = comps[S]
        return GluedCube(next(iter(full.values())).n, full)

    def fold(self, I, j: int, cube: GluedCube) -> GluedCube:
        """p_j^* between the partial-double geometries at level I: a family
        missing mark j is duplicated across j."""
        return _reindex(cube, self.level_index(I), lambda S: S - {j})


# -- the relative complexes of the double and the splitting --------------

class _PartialView:
    """Marks bookkeeping for the geometry (T; T_1..T_{j-1}) with the mark
    universe of the full double: level families may omit ``drop``."""

    def __init__(self, geom: DoubleGeometry, upto: int, drop=frozenset()):
        self.geom = geom
        self.marks = tuple(range(1, upto + 1))
        self.extra = frozenset()
        self.drop = frozenset(drop)

    def level_index(self, I):
        return [frozenset(S) for S in subsets(
            [k for k in self.geom.marks if k not in I and k not in self.drop])]


def _restrict_level(view: _PartialView, I, k, cube: GluedCube) -> GluedCube:
    return _reindex(cube, view.level_index(set(I) | {k}), lambda S: S | {k})


def double_op_F(view: _PartialView, m: int, n: int,
                x: LevelChain) -> LevelChain:
    """Connecting maps of the double geometry on glued chains: only the
    single-embedding component survives (longer words are degenerate)."""
    if n != m + 1:
        return LevelChain()
    sgn = (-1) ** (n % 2)

    def component(K, I, I_src, J, chain):
        return chain.map_cubes(
            lambda cu: _restrict_level(view, I, K[0], cu),
            chain.degree).scale(sgn * sgn_division(K, I_src, J))
    return levelwise([view], m, n, x, component)


def double_spans(geom: DoubleGeometry, upto: int, seeds, drop=frozenset()) -> Span:
    """Span of glued cubes for (T; T_1..T_upto), closed under faces, all
    embedding pullbacks, the fold composites, and the symmetric action."""
    view = _PartialView(geom, upto, drop)

    def expand(level, cube):
        out = []
        others = [k for k in view.marks if k not in level]
        for k in others:
            out.append((frozenset(level) | {k},
                        _restrict_level(view, level, k, cube)))
        for k in geom.marks:
            if k not in level and k not in view.drop:
                # the level-preserving reindexer S -> S | {k} (the fold composite)
                out.append((frozenset(level),
                            _reindex(cube, view.level_index(level),
                                     lambda S: S | {k})))
        return out

    return close_span_generic(seeds, expand, sym=True)


def _diagonal_op(cube_map):
    """The levelwise operator with only (m, m) components, mapping every
    cube of level I by cube_map(I, cube)."""
    def op(m, n, x):
        return x.map_cubes(cube_map) if n == m else LevelChain()
    return op


def build_t(geom: DoubleGeometry, seeds) -> dict:
    """The splitting t = t_r ... t_1 of the double, each step produced by
    the generic cone section construction with the zero homotopy, glued
    back through the sign-twisted cone identification.

    ``seeds`` are (level, GluedCube) pairs on the plain double (usually
    level = ()); returns the pieces: per-step complexes, the composed map
    t, the canonical projection q, and the models, all alternating.
    """
    view0 = _PartialView(geom, 0)
    model0 = MatrixModel(view0, double_spans(geom, 0, seeds), use_alt=True)
    models = [model0]
    complexes = [materialize_ccomplex(model0,
                                      f_op=lambda m, n, x: LevelChain())]
    t_total = None
    for j in range(1, geom.r + 1):
        view_a = _PartialView(geom, j - 1)
        view_b = _PartialView(geom, j - 1, drop={j})
        model_a, cc_a = models[-1], complexes[-1]
        # span on T_j side: restrictions of the plain double's span, closed
        seeds_b = [(level, _restrict_level(view_a, level, j, cube))
                   for (level, _), cubes in model0.span.items()
                   for cube in cubes]
        model_b = MatrixModel(view_b, double_spans(geom, j - 1, seeds_b,
                                                   drop={j}), use_alt=True)
        cc_b = materialize_ccomplex(model_b, f_op=partial(double_op_F, view_b))
        op_iota = _diagonal_op(lambda I, cu: _restrict_level(view_a, I, j, cu))
        op_fold = _diagonal_op(lambda I, cu: geom.fold(I, j, cu))
        fmap = ccx.CMap(cc_a, cc_b,
                        materialize_operator(model_a, model_b, op_iota, 0))
        gmap = ccx.CMap(cc_b, cc_a,
                        materialize_operator(model_b, model_a, op_fold, 0))
        parts = ccx.simple(fmap)
        t_j, _, _ = ccx.section_t(parts, fmap, gmap,
                                  ccx.CHomotopy(cc_b, cc_b, {}))
        # the complex of (T; T_1..T_j) lives on the two halves' spans glued,
        # the B half on the levels containing j; the union is closed already
        view_next = _PartialView(geom, j)
        model_next = relabeled_model(view_next, [
            (model_a, lambda lvl: lvl), (model_b, lambda lvl: lvl | {j})])
        cc_next = materialize_ccomplex(model_next,
                                       f_op=partial(double_op_F, view_next))
        step = ccx.compose(cone_identification(parts, model_a, model_b,
                                               model_next, cc_next, j), t_j)
        t_total = step if t_total is None else ccx.compose(step, t_total)
        models.append(model_next)
        complexes.append(cc_next)
    # canonical projection q: the level-() block of index 0, which every
    # model carries on model0's span
    per = {}
    for k in complexes[-1].cx(0).degrees():
        col_off, cols = models[-1].layout(0, k)
        rows = model0.dim(frozenset(), k)
        per[k] = RatMatrix(rows, cols, {(i, col_off[frozenset()] + i): 1
                                        for i in range(rows)})
    q = ccx.CMap(complexes[-1], complexes[0], {(0, 0): per})
    return {"t": t_total, "q": q, "models": models, "complexes": complexes,
            "geometry": geom}


def inclusion_exclusion_op(geom: DoubleGeometry, x: CubeChain) -> CubeChain:
    """(1 - p_r^* iota_r^*) ... (1 - p_1^* iota_1^*) on glued chains at the
    plain double level."""
    acc = x
    for j in geom.marks:
        nxt = acc
        img = acc.map_cubes(
            lambda cu: geom.fold(frozenset(), j,
                                 _restrict_level(_PartialView(geom, 0),
                                                 frozenset(), j, cu)),
            acc.degree)
        acc = nxt - img
    return acc
