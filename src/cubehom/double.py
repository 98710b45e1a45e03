"""Glued bundles on an iterated double and the chain-level splitting.

The double of a space along r marked subspaces has one component per
subset of {1..r}; a bundle on it is a family of objects indexed by those
subsets, of constant rank (the double is connected), with free metric
data per component.  The extraction maps i_I^*, the restriction to the
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
from . import ccx
from .cubes import CubeChain, ExactCube, face
from .exactlin import MetObj, RatMatrix
from .multirel import (MatrixModel, Span, _levels_of_size, close_span_generic,
                       materialize_ccomplex, materialize_operator)
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


class VirtualGlued:
    """A formal Q-combination of glued bundles; zero-rank bundles drop."""

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for b, c in (terms.items() if isinstance(terms, dict) else terms):
                c = Fraction(c)
                if c == 0 or b.is_zero():
                    continue
                s = clean.get(b, 0) + c
                if s == 0:
                    clean.pop(b, None)
                else:
                    clean[b] = s
        self.terms = clean

    @staticmethod
    def of(b: GluedBundle, c=1) -> "VirtualGlued":
        return VirtualGlued([(b, Fraction(c))])

    def __add__(self, other):
        out = dict(self.terms)
        for b, c in other.terms.items():
            s = out.get(b, 0) + c
            if s == 0:
                out.pop(b, None)
            else:
                out[b] = s
        v = VirtualGlued()
        v.terms = out
        return v

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "VirtualGlued":
        c = Fraction(c)
        v = VirtualGlued()
        if c != 0:
            v.terms = {b: c * x for b, x in self.terms.items()}
        return v

    def is_zero(self) -> bool:
        return not self.terms

    def extract(self, I) -> dict:
        """i_I^* on virtual bundles: a virtual object {MetObj: coeff}."""
        out = {}
        for b, c in self.terms.items():
            obj = b.comps[frozenset(I)]
            if obj.dim == 0:
                continue
            s = out.get(obj, 0) + c
            if s == 0:
                out.pop(obj, None)
            else:
                out[obj] = s
        return out


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
        if self.n == 0:
            return False
        for j in range(1, self.n + 1):
            for sign in (1, -1):
                if all(_axis_degenerate(c, j, sign) for c in self.comps.values()):
                    return True
        return False

    def face(self, j: int, i: int) -> "GluedCube":
        return GluedCube(self.n - 1,
                         {s: face(c, j, i) for s, c in self.comps.items()})

    def act(self, sigma) -> "GluedCube":
        return GluedCube(self.n, {s: c.act(sigma) for s, c in self.comps.items()})


def _axis_degenerate(cube: ExactCube, j: int, sign: int) -> bool:
    from itertools import product
    for co in product((-1, 0, 1), repeat=cube.n - 1):
        lo = co[:j - 1] + (-1,) + co[j - 1:]
        mid = co[:j - 1] + (0,) + co[j - 1:]
        hi = co[:j - 1] + (1,) + co[j - 1:]
        if sign == 1:
            if (cube.vertices[hi].dim != 0
                    or cube.vertices[lo] != cube.vertices[mid]
                    or not cube.arrows[(j, lo)].is_identity()):
                return False
        else:
            if (cube.vertices[lo].dim != 0
                    or cube.vertices[mid] != cube.vertices[hi]
                    or not cube.arrows[(j, mid)].is_identity()):
                return False
    return True


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

    def restrict(self, I, k: int, cube: GluedCube) -> GluedCube:
        """iota_k^*: level I -> level I + {k}."""
        return GluedCube(cube.n, {S: cube.comps[frozenset(S | {k})]
                                  for S in self.level_index(set(I) | {k})})

    def fold(self, I, j: int, cube: GluedCube) -> GluedCube:
        """p_j^* between the partial-double geometries at level I: a family
        missing mark j is duplicated across j."""
        return GluedCube(cube.n, {S: cube.comps[frozenset(S - {j})]
                                  for S in self.level_index(I)})


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
    return GluedCube(cube.n, {S: cube.comps[frozenset(S | {k})]
                              for S in view.level_index(set(I) | {k})})


def double_op_F(view: _PartialView, m: int, n: int, x: dict) -> dict:
    """Connecting maps of the double geometry on glued chains: only the
    single-embedding component survives (longer words are degenerate)."""
    if n != m + 1:
        return {}
    out = {}
    for I, chain in x.items():
        others = [k for k in view.marks if k not in I]
        for k in others:
            J = frozenset(I) | {k}
            s = sgn_division((k,), tuple(sorted(I)), tuple(sorted(J)))
            sgn = s * ((-1) ** (n % 2))
            img = chain.map_cubes(
                lambda cu: _restrict_level(view, I, k, cu), chain.degree)
            img = img.scale(sgn)
            if img.is_zero():
                continue
            out[J] = out.get(J, CubeChain.zero(img.degree)) + img
    return {k: v for k, v in out.items() if not v.is_zero()}


def _reindex_union(view: _PartialView, level, k: int, cube: GluedCube) -> GluedCube:
    """The level-preserving reindexer S -> S | {k} (the fold composite)."""
    return GluedCube(cube.n, {S: cube.comps[frozenset(S | {k})]
                              for S in view.level_index(level)})


def double_spans(geom: DoubleGeometry, upto: int, seeds, drop=frozenset(),
                 sym: bool = True) -> Span:
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
                out.append((frozenset(level), _reindex_union(view, level, k, cube)))
        return out

    return close_span_generic(seeds, expand, sym=sym)


def _diagonal_op(cube_map):
    """The levelwise operator with only (m, m) components, mapping every
    cube of level I by cube_map(I, cube)."""
    def op(m, n, x):
        if n != m:
            return {}
        out = {}
        for I, ch in x.items():
            img = ch.map_cubes(lambda cu: cube_map(I, cu), ch.degree)
            if not img.is_zero():
                out[I] = img
        return out
    return op


def build_t(geom: DoubleGeometry, seeds, use_alt: bool = True) -> dict:
    """The splitting t = t_r ... t_1 of the double, each step produced by
    the generic cone section construction with the zero homotopy, glued
    back through the sign-twisted cone identification.

    ``seeds`` are (level, GluedCube) pairs on the plain double (usually
    level = ()); returns the pieces: per-step complexes, the composed map
    t, the canonical projection q, and the models.
    """
    r = geom.r
    span0 = double_spans(geom, 0, seeds, sym=use_alt)
    view0 = _PartialView(geom, 0)
    model_prev = MatrixModel(view0, span0, use_alt=use_alt)
    cc_prev = materialize_ccomplex(
        model_prev, f_op=lambda m, n, x: {})
    t_total = None
    models = [model_prev]
    complexes = [cc_prev]
    for j in range(1, r + 1):
        view_a = _PartialView(geom, j - 1)
        view_b = _PartialView(geom, j - 1, drop={j})
        # span on T_j side: restrictions of the previous span, closed
        seeds_b = []
        for (level, degree), cubes in model_prev.span.items():
            for cube in cubes:
                seeds_b.append((level, _restrict_level(view_a, level, j, cube)))

        span_b = double_spans(geom, j - 1, seeds_b, drop={j}, sym=use_alt)
        model_b = MatrixModel(view_b, span_b, use_alt=use_alt)
        cc_b = materialize_ccomplex(
            model_b, f_op=lambda m, n, x, v=view_b: double_op_F(v, m, n, x))
        cc_a = complexes[-1]
        model_a = models[-1]

        op_iota = _diagonal_op(lambda I, cu: _restrict_level(view_a, I, j, cu))
        op_fold = _diagonal_op(lambda I, cu: geom.fold(I, j, cu))
        fmap = ccx.CMap(cc_a, cc_b,
                        materialize_operator(model_a, model_b, op_iota, 0, "map"))
        gmap = ccx.CMap(cc_b, cc_a,
                        materialize_operator(model_b, model_a, op_fold, 0, "map"))
        psi = ccx.CHomotopy(cc_b, cc_b, {})
        parts = ccx.simple(fmap)
        t_j, psi1, psi2 = ccx.section_t(parts, fmap, gmap, psi)
        # identify the cone with the complex of (T; T_1..T_j):
        # levels containing j flip sign and sit in the B slots
        seeds_next = []
        for (level, degree), cubes in model_a.span.items():
            for cube in cubes:
                seeds_next.append((level, cube))
        for (level, degree), cubes in model_b.span.items():
            for cube in cubes:
                seeds_next.append((frozenset(level) | {j}, cube))
        view_next = _PartialView(geom, j)

        span_next = double_spans(geom, j, seeds_next, sym=use_alt)
        model_next = MatrixModel(view_next, span_next, use_alt=use_alt)
        cc_next = materialize_ccomplex(
            model_next, f_op=lambda m, n, x, v=view_next: double_op_F(v, m, n, x))
        transfer = _cone_transfer(parts, model_a, model_b, model_next,
                                  cc_next, j)
        step = ccx.compose(transfer, t_j)
        t_total = step if t_total is None else ccx.compose(step, t_total)
        models.append(model_next)
        complexes.append(cc_next)
    # canonical projection q: level-() column, identity in index 0
    cc_full = complexes[-1]
    q_comps = {}
    per = {}
    for k in cc_full.cx(0).degrees():
        d = complexes[0].cx(0).dim(k)
        dd = cc_full.cx(0).dim(k)
        ent = {}
        # the level-() block comes first in the level ordering of index 0
        for i in range(min(d, dd)):
            ent[(i, i)] = Fraction(1)
        per[k] = RatMatrix(d, dd, ent)
    q_comps[(0, 0)] = per
    q = ccx.CMap(cc_full, complexes[0], q_comps)
    return {"t": t_total, "q": q, "models": models, "complexes": complexes,
            "geometry": geom}


def _cone_transfer(parts, model_a, model_b, model_next, cc_next, j: int):
    """The sign-twisted identification cone(iota_j^*) -> full complex."""
    comps = {}
    cone = parts.ccx
    for m in cone.indices():
        per = {}
        for k in cone.cx(m).degrees():
            rows = cc_next.cx(m).dim(k)
            cols = cone.cx(m).dim(k)
            if not rows or not cols:
                continue
            ent = {}
            # destination offsets per level
            row_off = {}
            off = 0
            for lvl in _levels_of_size(model_next.g.marks, m):
                row_off[lvl] = off
                off += model_next.dim(lvl, k)
            col = 0
            for lvl in _levels_of_size(model_a.g.marks, m):
                d = model_a.dim(lvl, k)
                for i in range(d):
                    ch = model_a.basis_chain(lvl, k, i)
                    for pos, v in model_next.coords(lvl, ch).items():
                        ent[(row_off[lvl] + pos, col)] = v
                    col += 1
            # no level has size -1, so index 0 has no B part
            for lvl in _levels_of_size(model_b.g.marks, m - 1) if m else ():
                d = model_b.dim(lvl, k)
                tgt = frozenset(lvl | {j})
                for i in range(d):
                    ch = model_b.basis_chain(lvl, k, i)
                    for pos, v in model_next.coords(tgt, ch).items():
                        ent[(row_off[tgt] + pos, col)] = -v
                    col += 1
            mat = RatMatrix(rows, cols, ent)
            if not mat.is_zero():
                per[k] = mat
        if per:
            comps[(m, m)] = per
    return ccx.CMap(cone, cc_next, comps)


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
