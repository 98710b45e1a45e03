"""The iterated double and the chain-level splitting of its relative theory.

The double of a space along r marked subspaces has one component per
subset of {1..r}.  A glued cube is a family of exact cubes of one degree
indexed by those subsets; a bundle on the double is a glued 0-cube, with
free metric data per component, and a virtual bundle is a chain of them.
The restriction to the partial double T_j (``restrict``), the pullback
along the fold map T -> T_j (``DoubleGeometry.fold``) and the extraction
i_I^* (``extract``) are pure lattice bookkeeping, and the
inclusion-exclusion operator they generate realizes the splitting of the
relative theory.

Pullback classes act by reindexing and compose strictly, so all higher
connecting data vanishes and the generic cone section construction
applies with the zero homotopy.  The splitting t = t_r ... t_1 is built
through that construction, not hand-coded, and its degree-(0,0) part is
checked against prod_j (1 - p_j^* iota_j^*), the operator that the
extraction suite checks on bundles.
"""

from __future__ import annotations

from functools import partial

from . import ccx
from .cubes import CubeChain, degenerate_along, face, identity_edge
from .exactlin import FormalSum, RatMatrix
from .multirel import (LevelChain, MatrixModel, Span, close_span_generic,
                       cone_identification, levelwise, materialize_ccomplex,
                       materialize_operator, relabeled_model)
from .signs import subsets


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

    def is_zero_face(self, j: int, i: int) -> bool:
        return all(c.is_zero_face(j, i) for c in self.comps.values())


def _reindex(cube: GluedCube, index, src) -> GluedCube:
    """The glued cube with component cube.comps[src(S)] at each S of index."""
    return GluedCube(cube.n, {S: cube.comps[src(S)] for S in index})


class DoubleGeometry:
    """The geometry of (T; T_1..T_upto) on glued cubes, over the mark
    universe {1..r} of the full double (``upto`` defaults to r).  Level I
    carries families over the subsets of {1..r} - I - drop; embedding
    pullbacks select subfamilies and fold pullbacks duplicate them,
    composing strictly."""

    def __init__(self, r: int, upto=None, drop=frozenset()):
        self.r = r
        self.marks = tuple(range(1, (r if upto is None else upto) + 1))
        self.drop = frozenset(drop)

    def free(self, I):
        """The marks of the universe outside I and ``drop``."""
        return [k for k in range(1, self.r + 1)
                if k not in I and k not in self.drop]

    def level_index(self, I):
        return [frozenset(S) for S in subsets(self.free(I))]

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


def restrict(view: DoubleGeometry, I, k, cube: GluedCube) -> GluedCube:
    """iota_k^* from level I of ``view`` to level I + {k}: the components
    containing k, reindexed over the subsets of the remaining marks."""
    return _reindex(cube, view.level_index(set(I) | {k}), lambda S: S | {k})


def extract(x: CubeChain, I) -> dict:
    """i_I^* on a chain of glued 0-cubes: the virtual object {MetObj:
    coeff} of the components at I, rank zero dropping."""
    I = frozenset(I)
    objs = [(cu.comps[I].vertices[0], c) for cu, c in x.terms.items()]
    return FormalSum([(o, c) for o, c in objs if o.dim]).terms


# -- the relative complexes of the double and the splitting --------------

def double_op_F(view: DoubleGeometry, m: int, n: int,
                x: LevelChain) -> LevelChain:
    """Connecting maps of the double geometry on glued chains: only the
    single-embedding component survives (longer words are degenerate)."""
    if n != m + 1:
        return LevelChain()
    sgn = (-1) ** (n % 2)

    def component(K, I, I_src, J, s, chain):
        return sgn * s, chain.map_cubes(
            lambda cu: restrict(view, I, K[0], cu), chain.degree)
    return levelwise([view], m, n, x, component)


def double_spans(view: DoubleGeometry, seeds) -> Span:
    """Span of glued cubes for ``view``, closed under faces, all embedding
    pullbacks and the fold composites.  The span alternates; its glued
    cubes have degree at most 1, so each is its own orbit."""
    def expand(level, cube):
        out = [(frozenset(level) | {k}, restrict(view, level, k, cube))
               for k in view.marks if k not in level]
        # the level-preserving reindexers S -> S | {k} (the fold composites)
        out.extend((frozenset(level),
                    _reindex(cube, view.level_index(level), lambda S: S | {k}))
                   for k in view.free(level))
        return out

    return close_span_generic(seeds, expand, sym=True)


def _diagonal_op(view, cube_map):
    """The levelwise operator along ``view`` with only (m, m) components,
    mapping every cube of level I by cube_map(I, cube)."""
    def component(K, I, I_src, J, _s, chain):
        return 1, chain.map_cubes(partial(cube_map, I), chain.degree)

    def op(m, n, x):
        return levelwise([view], m, n, x, component) if n == m else LevelChain()
    return op


def build_t(geom: DoubleGeometry, seeds) -> dict:
    """The splitting t = t_r ... t_1 of the double, each step produced by
    the generic cone section construction with the zero homotopy, glued
    back through the sign-twisted cone identification.

    ``seeds`` are (level, GluedCube) pairs on the plain double (usually
    level = ()); returns the composed map t, the canonical projection q,
    and the per-step models, all alternating.
    """
    view0 = DoubleGeometry(geom.r, 0)
    model0 = MatrixModel(view0, double_spans(view0, seeds))
    models = [model0]
    cc0 = cc_a = materialize_ccomplex(model0, f_op=partial(double_op_F, view0))
    t_total = None
    for j in range(1, geom.r + 1):
        view_a = DoubleGeometry(geom.r, j - 1)
        view_b = DoubleGeometry(geom.r, j - 1, drop={j})
        model_a = models[-1]
        # span on T_j side: restrictions of the plain double's span, closed
        seeds_b = [(level, restrict(view_a, level, j, cube))
                   for (level, _), cubes in model0.span.items()
                   for cube in cubes]
        model_b = MatrixModel(view_b, double_spans(view_b, seeds_b))
        cc_b = materialize_ccomplex(model_b, f_op=partial(double_op_F, view_b))
        op_iota = _diagonal_op(view_a,
                               lambda I, cu: restrict(view_a, I, j, cu))
        op_fold = _diagonal_op(view_b, lambda I, cu: geom.fold(I, j, cu))
        fmap = ccx.CMap(cc_a, cc_b,
                        materialize_operator(model_a, model_b, op_iota, 0))
        gmap = ccx.CMap(cc_b, cc_a,
                        materialize_operator(model_b, model_a, op_fold, 0))
        parts = ccx.simple(fmap)
        t_j, _, _ = ccx.section_t(parts, fmap, gmap,
                                  ccx.CHomotopy(cc_b, cc_b, {}))
        # the complex of (T; T_1..T_j) lives on the two halves' spans glued,
        # the B half on the levels containing j; the union is closed already
        view_next = DoubleGeometry(geom.r, j)
        model_next = relabeled_model(view_next, [
            (model_a, lambda lvl: lvl), (model_b, lambda lvl: lvl | {j})])
        cc_next = materialize_ccomplex(model_next,
                                       f_op=partial(double_op_F, view_next))
        step = ccx.compose(cone_identification(parts, model_a, model_b,
                                               model_next, cc_next, j), t_j)
        t_total = step if t_total is None else ccx.compose(step, t_total)
        models.append(model_next)
        cc_a = cc_next
    # canonical projection q: the level-() block of index 0, which every
    # model carries on model0's span
    per = {}
    for k in cc_a.cx(0).degrees():
        col_off, cols = models[-1].layout(0, k)
        rows = model0.dim(frozenset(), k)
        per[k] = RatMatrix(rows, cols, {(i, col_off[frozenset()] + i): 1
                                        for i in range(rows)})
    q = ccx.CMap(cc_a, cc0, {(0, 0): per})
    return {"t": t_total, "q": q, "models": models}


def inclusion_exclusion_op(geom: DoubleGeometry, x: CubeChain) -> CubeChain:
    """(1 - p_r^* iota_r^*) ... (1 - p_1^* iota_1^*) on glued chains at the
    plain double level."""
    acc = x
    for j in geom.marks:
        acc = acc - acc.map_cubes(
            lambda cu: geom.fold((), j, restrict(geom, (), j, cu)), acc.degree)
    return acc
