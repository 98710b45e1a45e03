"""Multi-relative complexes of exact cubes over combinatorial geometries.

A geometry models a space with r marked closed subspaces: one copy of the
base category for every subset I of {1..r}, together with a pullback
functor for every containment and every morphism of geometries.  Pullback
functors are assigned per morphism *class* (source and target level), so
differently grouped composites of embeddings give genuinely different
objects, while every connecting arrow stays an identity matrix.  In the
scalar mode each class tensors by a one-dimensional object whose metric is
the square of a rational, which keeps all those arrows certified
isometries; the identity mode makes every class the identity functor.

On top of the geometries this module builds the signed pullback operators
(the Xi family), the induced C-complex structure with its pullback maps
and homotopies, the alternating variants, the tensor structure given by
bracket cubes, and matrix materializations of all of it on finitely
generated spans.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import partial
from itertools import (combinations, combinations_with_replacement, islice,
                       permutations)

from . import ccx
from .cubes import (CubeChain, ExactCube, ExactFunctor, act_sym, alt,
                    boundary, composite_pullback, transposition)
from .exactlin import MetObj, RatMatrix, rref, times
from .signs import perm_sign, sgn_division


# -- towers of geometries --------------------------------------------

class Tower:
    """A chain of geometries related by morphisms, sharing r subspace marks.

    ``schemes`` is the number of members; ``alias`` maps a member to an
    earlier one it coincides with (used for retraction setups g f = Id).
    Morphism classes exist from member a to member b >= a, from level J to
    level I whenever I is contained in J; the class functor is a scalar
    metric twist determined by the canonical (member, level) endpoints.
    """

    def __init__(self, r: int, schemes: int = 1, seed: int = 0,
                 mode: str = "scalar", alias=None):
        if mode not in ("scalar", "identity"):
            raise ValueError("mode must be 'scalar' or 'identity'")
        self.r = r
        self.schemes = schemes
        self.seed = seed
        self.mode = mode
        self.alias = list(alias) if alias is not None else list(range(schemes))
        if len(self.alias) != schemes or any(self.alias[s] > s for s in range(schemes)):
            raise ValueError("alias must point backwards")
        self._functors = {}

    def node(self, scheme: int, level) -> tuple:
        return (self.alias[scheme], frozenset(level))

    def base_node(self) -> tuple:
        return (-1, frozenset())

    def cls(self, src_scheme: int, src_level, dst_scheme: int, dst_level) -> "MorphismClass":
        src = (src_scheme, frozenset(src_level))
        dst = (dst_scheme, frozenset(dst_level))
        if dst_scheme != -1:
            if src_scheme > dst_scheme:
                raise ValueError("no morphism backwards along the tower")
            if not dst[1] <= src[1]:
                raise ValueError("morphism must decrease the level")
        return MorphismClass(self, src, dst)

    def functor_for(self, src_node: tuple, dst_node: tuple) -> ExactFunctor:
        a = (self.alias[src_node[0]] if src_node[0] >= 0 else -1, src_node[1])
        b = (self.alias[dst_node[0]] if dst_node[0] >= 0 else -1, dst_node[1])
        if a == b or self.mode == "identity":
            return ExactFunctor.identity()
        key = (a, b)
        f = self._functors.get(key)
        if f is None:
            t = self._scalar(key)
            tw = MetObj(1, RatMatrix(1, 1, {(0, 0): t * t}), check=False)
            f = ExactFunctor.tensor_by(tw)
            self._functors[key] = f
        return f

    def _scalar(self, key) -> Fraction:
        # every class gets its own generic square scaling, so differently
        # grouped or differently interleaved pullback words stay
        # distinguishable (they only agree up to scalar-square isometry,
        # which is what the character-level constructions quotient by)
        (sa, la), (sb, lb) = key
        text = "%d|%d:%s|%d:%s" % (self.seed, sa, sorted(la), sb, sorted(lb))
        h = hashlib.sha256(text.encode()).digest()
        return Fraction(1 + h[0] % 7, 1 + h[1] % 7)


def tower_to_json(t: Tower) -> dict:
    """Geometry descriptor: size, member count, alias chain, mode, seed."""
    return {"r": t.r, "schemes": t.schemes, "seed": t.seed,
            "mode": t.mode, "alias": list(t.alias)}


def tower_from_json(obj) -> Tower:
    return Tower(r=int(obj["r"]), schemes=int(obj["schemes"]),
                 seed=int(obj["seed"]), mode=obj["mode"],
                 alias=obj.get("alias"))


class MorphismClass:
    """A morphism class of a tower: the canonical map between two nodes.
    Nodes are stored with aliased members resolved, so classes through a
    retraction literally coincide with the corresponding internal ones."""

    __slots__ = ("tower", "src", "dst")

    def __init__(self, tower: Tower, src: tuple, dst: tuple):
        self.tower = tower
        self.src = (tower.alias[src[0]] if src[0] >= 0 else src[0], src[1])
        self.dst = (tower.alias[dst[0]] if dst[0] >= 0 else dst[0], dst[1])

    def compose(self, earlier: "MorphismClass") -> "MorphismClass":
        """self o earlier; the tower is thin, so only endpoints matter."""
        if earlier.dst != self.src:
            raise ValueError("morphism classes do not compose")
        return MorphismClass(self.tower, earlier.src, self.dst)

    def functor(self) -> ExactFunctor:
        return self.tower.functor_for(self.src, self.dst)

    def __repr__(self):
        return "MorphismClass(%r -> %r)" % (self.src, self.dst)


class GeomView:
    """One member of a tower seen as a geometry (X; Y_1..Y_r), possibly with
    a fixed sub-level adjoined to every index (the geometry on Y_extra)."""

    def __init__(self, tower: Tower, scheme: int = 0, extra=frozenset(),
                 marks=None):
        self.tower = tower
        self.scheme = scheme
        self.extra = frozenset(extra)
        self.marks = tuple(sorted(marks)) if marks is not None \
            else tuple(i for i in range(1, tower.r + 1) if i not in self.extra)

    @property
    def r(self) -> int:
        return len(self.marks)

    def level(self, I) -> frozenset:
        return frozenset(I) | self.extra

    def node(self, I) -> tuple:
        return (self.scheme, self.level(I))

    def embed_cls(self, J, I) -> MorphismClass:
        """The embedding class Y_J -> Y_I for I within J."""
        return self.tower.cls(self.scheme, self.level(J), self.scheme, self.level(I))

    def base_cls(self, I) -> MorphismClass:
        """The structure-map class from level I to the shared base."""
        return MorphismClass(self.tower, self.node(I), self.tower.base_node())


class MorphView:
    """A morphism of geometries f: src_geom -> dst_geom inside one tower."""

    def __init__(self, src_geom: GeomView, dst_geom: GeomView):
        if src_geom.tower is not dst_geom.tower:
            raise ValueError("morphism across towers")
        if len(src_geom.marks) != len(dst_geom.marks):
            raise ValueError("mark count mismatch")
        self.src = src_geom
        self.dst = dst_geom
        self.tower = src_geom.tower

    def cls(self, J, I) -> MorphismClass:
        """The class (src at level J) -> (dst at level I), I within J."""
        lj = self.src.level(_marks_back(self, J))
        li = self.dst.level(I)
        return self.tower.cls(self.src.scheme, lj, self.dst.scheme, li)


def _marks_back(f: MorphView, I):
    # marks are positional: the i-th mark of dst corresponds to the i-th of src
    back = {dm: sm for sm, dm in zip(f.src.marks, f.dst.marks)}
    return frozenset(back[i] for i in I)


def restriction_morphism(g: GeomView, k: int) -> MorphView:
    """The geometry on Y_k with the remaining marks, mapping to the geometry
    with mark k dropped; its pullback words live inside the same tower."""
    if k not in g.marks:
        raise ValueError("mark not present")
    rest = tuple(i for i in g.marks if i != k)
    sub = GeomView(g.tower, g.scheme, extra=g.extra | {k}, marks=rest)
    amb = GeomView(g.tower, g.scheme, extra=g.extra, marks=rest)
    return MorphView(sub, amb)


# -- the Xi operators --------------------------------------------------
#
# ``views`` is a chain of geometries and morphisms (g_0, f_1, g_1, ...,
# f_t, g_t): Xi_{K,f_1..f_t} takes level I of g_t to level K | I of g_0.

def xi_words(views, K, I):
    """The signed pullback words of Xi_{K,f_1..f_t} from level I.

    For every ordering sigma of K (in ``permutations`` order) and every
    0 <= p_1 <= ... <= p_t <= |K| (lexicographic), the word from level
    K | I of g_0 of the embeddings removing the marks of K in the order
    sigma, one at a time, with f_i inserted after p_i removals (the
    embeddings after f_i belong to g_i), with sign sgn(sigma)
    (-1)^{p_1+...+p_t}.  Every Xi operator, levelwise operator and slot
    functor is built from these words."""
    K = tuple(sorted(K))
    if set(K) & set(I):
        raise ValueError("removal set overlaps the level")
    geoms, mors = views[0::2], views[1::2]
    top = set(K) | set(I)
    for sigma in permutations(K):
        sgn = perm_sign(sigma)
        for inserts in combinations_with_replacement(range(len(K) + 1),
                                                     len(mors)):
            word = []
            cur = top
            seg = 0
            for removed, k in enumerate(sigma):
                # cross to the next geometry at the current level
                while seg < len(mors) and inserts[seg] == removed:
                    word.append(mors[seg].cls(cur, cur))
                    seg += 1
                nxt = cur - {k}
                word.append(geoms[seg].embed_cls(cur, nxt))
                cur = nxt
            for f in mors[seg:]:
                word.append(f.cls(cur, cur))
            yield (-sgn if sum(inserts) % 2 else sgn), tuple(word)


def xi_apply(views, K, I, x: CubeChain) -> CubeChain:
    """Xi_{K,f_1..f_t}(x): the signed sum of the pullbacks of x along the
    words of xi_words; raises degree by |K| + t - 1."""
    deg = x.degree + len(K) + len(views) // 2 - 1
    return CubeChain(deg, ((composite_pullback(word, cu), times(sgn, c))
                           for sgn, word in xi_words(views, K, I)
                           for cu, c in x.terms.items()))


def xi_K(g: GeomView, K, I, x: CubeChain) -> CubeChain:
    """Xi_K = sum over orderings of K, with the permutation sign, of the
    pullback along the embedding word; raises on overlap or empty K."""
    if not K:
        raise ValueError("Xi needs a nonempty removal set")
    return xi_apply([g], K, I, x)


def xi_Kf(f: MorphView, K, I, x: CubeChain) -> CubeChain:
    """Xi_{K,f} = sum_p (-1)^p sum_sigma sgn(sigma) (embed words with the
    morphism inserted after p removals); K may be empty (then it is f^*)."""
    return xi_apply([f.src, f, f.dst], K, I, x)


# -- the boundary identity of the Xi operators --------------------------
#
# One identity serves every chain (g_0, f_1, g_1, ..., f_t, g_t), t >= 0.
# With w = |K| and Xi = Xi_{K; views}:
#
#   d Xi(x) + (-1)^(w+t) Xi(d x)
#     = sum_{i=1}^{t-1} (-1)^i Xi_{K; f_i, f_{i+1} merged into f_{i+1} f_i}(x)
#     + sum_{p=0}^{t} sum_{L + L' = K} (-1)^e sgn(L L'; K)
#           Xi_{L; g_0..g_p}(Xi_{L'; g_p..g_t}(x)),
#
# cut at the geometry g_p, with sign exponent e = t + (|L| + 1) [t - p
# even].  The cut p = 0 needs L nonempty and the cut p = t needs L'
# nonempty; the outer operator starts from level L' | I carried back
# through f_{p+1}, ..., f_t.  For t = 0 this is the interchange of Xi_K
# with the boundary, for t = 1 that of the pullback operators, for t = 2
# the one with the composite pullback Xi_{K, gf}, and so on.

def _splits(K):
    """All divisions K = L ∐ L' with the division sign, by |L|."""
    K = tuple(sorted(K))
    out = []
    for a in range(len(K) + 1):
        for L in combinations(K, a):
            Lp = tuple(k for k in K if k not in L)
            out.append((a, L, Lp, sgn_division(L, Lp, K)))
    return out


def check_xi_boundary(views, K, I, x: CubeChain) -> bool:
    """The boundary identity above for Xi_{K; views} from level I at x."""
    views = list(views)
    t = len(views) // 2
    w = len(K)
    I = frozenset(I)
    lhs = boundary(xi_apply(views, K, I, x))
    if x.degree >= 1:
        lhs = lhs + xi_apply(views, K, I, boundary(x)).scale((-1) ** (w + t))
    rhs = CubeChain.zero(lhs.degree)
    for i in range(1, t):
        merged = (views[:2 * i - 1]
                  + [MorphView(views[2 * i - 2], views[2 * i + 2])]
                  + views[2 * i + 2:])
        rhs = rhs + xi_apply(merged, K, I, x).scale((-1) ** i)
    back = [I]
    for f in reversed(views[1::2]):
        back.insert(0, _marks_back(f, back[0]))
    splits = _splits(K)
    for p in range(t + 1):
        for a, L, Lp, s in splits:
            if (p == 0 and a == 0) or (p == t and a == w):
                continue
            e = t + (a + 1) * ((t - p + 1) % 2)
            inner = xi_apply(views[2 * p:], Lp, I, x)
            rhs = rhs + xi_apply(views[:2 * p + 1], L, frozenset(Lp) | back[p],
                                 inner).scale(s * (-1) ** e)
    return lhs == rhs


# -- level elements and the C-structure --------------------------------

def lev_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for lvl, ch in b.items():
        cur = out.get(lvl)
        s = ch if cur is None else cur + ch
        if s.is_zero():
            out.pop(lvl, None)
        else:
            out[lvl] = s
    return out


def lev_scale(a: dict, c) -> dict:
    c = Fraction(c)
    if c == 0:
        return {}
    return {lvl: ch.scale(c) for lvl, ch in a.items()}


def lev_eq(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    for k in keys:
        x, y = a.get(k), b.get(k)
        if x is None:
            if not y.is_zero():
                return False
        elif y is None:
            if not x.is_zero():
                return False
        elif x != y:
            return False
    return True


def lev_boundary(a: dict) -> dict:
    out = {}
    for lvl, ch in a.items():
        b = boundary(ch)
        if not b.is_zero():
            out[lvl] = b
    return out


def lev_alt(a: dict) -> dict:
    out = {}
    for lvl, ch in a.items():
        b = alt(ch)
        if not b.is_zero():
            out[lvl] = b
    return out


def levelwise(views, m: int, n: int, x: dict, component) -> dict:
    """A levelwise operator of bidegree (m, n) along the chain ``views``.

    For every level I of x (of size m), with I_src its marks in g_0, and
    every K of n - m marks of g_0 outside I_src, adds
    component(K, I, I_src, J, x_I) into out[J], J = K | I_src; I_src and
    J are passed as sorted tuples.  Zero terms are dropped; n < m gives
    zero."""
    if n < m:
        return {}
    out = {}
    for I, chain in x.items():
        if len(I) != m:
            raise ValueError("element has a level of the wrong size")
        I_src = I
        for f in reversed(views[1::2]):
            I_src = _marks_back(f, I_src)
        I_src = tuple(sorted(I_src))
        others = [k for k in views[0].marks if k not in I_src]
        for K in combinations(others, n - m):
            J = tuple(sorted(set(K) | set(I_src)))
            term = component(K, I, I_src, J, chain)
            if term.is_zero():
                continue
            Jf = frozenset(J)
            out[Jf] = out.get(Jf, CubeChain.zero(term.degree)) + term
    return {k: v for k, v in out.items() if not v.is_zero()}


def _xi_levelwise(views, m: int, n: int, x: dict, sign: int,
                  use_alt: bool) -> dict:
    """sum over J = K | I of sign sgn(K I; J) Xi_{K,views}(x_I), each term
    alternated first when use_alt is set."""
    def component(K, I, I_src, J, chain):
        term = xi_apply(views, K, I, chain)
        if use_alt:
            term = alt(term)
        return term.scale(sign * sgn_division(K, I_src, J))
    return levelwise(views, m, n, x, component)


def op_F(g: GeomView, m: int, n: int, x: dict, use_alt: bool = False) -> dict:
    """The connecting map F^{m,n}(x)_J = (-1)^n sum sgn(K I; J) Xi_K(x_I)."""
    if n <= m:
        raise ValueError("connecting map needs n > m")
    return _xi_levelwise([g], m, n, x, (-1) ** (n % 2), use_alt)


def op_pullback(f: MorphView, m: int, n: int, x: dict, use_alt: bool = False) -> dict:
    """(f^*)^{m,n}(x)_J = sum sgn(K I; J) Xi_{K,f}(x_I); zero for n < m."""
    return _xi_levelwise([f.src, f, f.dst], m, n, x, 1, use_alt)


def op_homotopy(f: MorphView, g: MorphView, m: int, n: int, x: dict,
                use_alt: bool = False) -> dict:
    """Phi^{m,n}(x)_J = (-1)^n sum sgn(K I; J) Xi_{K,f,g}(x_I); zero for n < m."""
    return _xi_levelwise([f.src, f, f.dst, g, g.dst], m, n, x,
                         (-1) ** (n % 2), use_alt)


# -- matrix materialization on finitely generated spans ------------------

class Span:
    """Ordered cube bases per (level, degree), closed under the requested
    operators; the scaffolding for matrix C-complexes."""

    def __init__(self):
        self.basis = {}   # (frozenset level, degree) -> list of cubes
        self.index = {}   # (frozenset level, degree) -> {cube: position}

    def add(self, level, cube) -> bool:
        if cube.is_zero_cube() or cube.is_degenerate():
            return False
        key = (frozenset(level), cube.n)
        idx = self.index.setdefault(key, {})
        if cube in idx:
            return False
        idx[cube] = len(idx)
        self.basis.setdefault(key, []).append(cube)
        return True

    def cubes(self, level, degree):
        return self.basis.get((frozenset(level), degree), [])

    def items(self):
        return list(self.basis.items())


def close_span(g: GeomView, seeds, sym: bool = False) -> Span:
    """Close seed cubes under faces and all embedding pullbacks (and the
    axis action of the symmetric groups when ``sym`` is set)."""
    def expand(level, cube):
        out = []
        others = [k for k in g.marks if k not in level]
        for size in range(1, len(others) + 1):
            for K in combinations(others, size):
                img = xi_K(g, K, level, CubeChain.of(cube))
                tgt = level | set(K)
                for c2 in img.terms:
                    out.append((tgt, c2))
        return out

    return close_span_generic(seeds, expand, sym=sym)


def close_span_generic(seeds, expand, sym: bool = False) -> Span:
    """Close seeds under faces, an expansion rule, and optionally the
    symmetric-group action."""
    span = Span()
    queue = []
    for level, cube in seeds:
        if span.add(level, cube):
            queue.append((frozenset(level), cube))
    while queue:
        level, cube = queue.pop()
        new = []
        for c2 in boundary(CubeChain.of(cube)).terms:
            new.append((level, c2))
        new.extend(expand(level, cube))
        if sym:
            for sigma in permutations(range(1, cube.n + 1)):
                new.append((level, cube.act(sigma)))
        for lvl, c2 in new:
            if span.add(lvl, c2):
                queue.append((frozenset(lvl), c2))
    return span


def _chain_coords(span: Span, level, chain: CubeChain):
    """Coordinates of a chain in the span basis; raises if not contained."""
    idx = span.index.get((frozenset(level), chain.degree), {})
    out = {}
    for cube, c in chain.terms.items():
        pos = idx.get(cube)
        if pos is None:
            raise ValueError("chain leaves the generated span")
        out[pos] = c
    return out


def _alt_projector(span: Span, level, degree) -> RatMatrix:
    cubes = span.cubes(level, degree)
    ent = {}
    for col, cube in enumerate(cubes):
        img = alt(CubeChain.of(cube))
        for pos, v in _chain_coords(span, level, img).items():
            ent[(pos, col)] = v
    return RatMatrix(len(cubes), len(cubes), ent)


class MatrixModel:
    """A multi-relative C-complex materialized as matrices on a span.

    In the alternating mode the chain groups are the images of the
    alternation projectors, with bases chosen among the projected span
    cubes; operators are expressed in those bases exactly.  ``g`` only
    needs ``marks`` and ``extra`` attributes.
    """

    def __init__(self, g, span: Span, use_alt: bool = False):
        self.g = g
        self.span = span
        self.use_alt = use_alt
        self._alt_basis = {}
        if use_alt:
            self._build_alt_bases()

    def _build_alt_bases(self):
        # Alt is idempotent on a closed span, so every column j of proj is
        # sum_r red[r][j] * proj[:, pivots[r]]; hence y in im(proj) has
        # coordinates red @ y in the pivot-column basis.
        for (level, degree), cubes in self.span.items():
            proj = _alt_projector(self.span, level, degree)
            red, pivots = rref(proj)
            slot = {j: jj for jj, j in enumerate(pivots)}
            ent = {(r, slot[j]): v for (r, j), v in proj.entries.items()
                   if j in slot}
            reduced = [[(c, v) for c, v in enumerate(row) if v != 0]
                       for row in red[:len(pivots)]]
            self._alt_basis[(level, degree)] = (
                list(pivots), RatMatrix(proj.rows, len(pivots), ent), reduced)

    def dim(self, level, degree) -> int:
        if self.use_alt:
            got = self._alt_basis.get((frozenset(level), degree))
            return len(got[0]) if got else 0
        return len(self.span.cubes(level, degree))

    def coords(self, level, chain: CubeChain):
        """Coordinates in the stored basis (alternating basis if set)."""
        if not self.use_alt:
            return _chain_coords(self.span, level, chain)
        got = self._alt_basis.get((frozenset(level), chain.degree))
        if not got:
            if chain.is_zero():
                return {}
            raise ValueError("chain leaves the generated span")
        _, mat, reduced = got
        y = _chain_coords(self.span, level, chain)
        x = {}
        for p, row in enumerate(reduced):
            v = sum(w * y[c] for c, w in row if c in y)
            if v:
                x[p] = v
        back = {}
        for (r, p), v in mat.entries.items():
            if p in x:
                back[r] = back.get(r, 0) + v * x[p]
        if {r: v for r, v in back.items() if v} != y:
            raise ValueError("chain not in the alternating subspace")
        return x

    def basis_chain(self, level, degree, pos) -> CubeChain:
        cubes = self.span.cubes(level, degree)
        if not self.use_alt:
            return CubeChain.of(cubes[pos])
        cols = self._alt_basis[(frozenset(level), degree)][0]
        return alt(CubeChain.of(cubes[cols[pos]]))


def _levels_of_size(marks, m):
    return [frozenset(c) for c in combinations(sorted(marks), m)]


def materialize_ccomplex(model: MatrixModel, f_op=None) -> "ccx.CComplex":
    """The C-complex of the geometry on the span, as ccx matrices.

    Index m holds the direct sum over levels of size m; ``f_op(m, n, x)``
    defaults to the geometry connecting map of ``model.g``.  The boundaries
    are the (m, m) components, and the connecting maps the (m, n > m)
    components, of one levelwise operator of degree shift n - m - 1."""
    g = model.g
    if f_op is None:
        f_op = lambda m, n, x: op_F(g, m, n, x, use_alt=model.use_alt)
    if not model.span.basis:
        return ccx.CComplex({}, {})

    def d_and_f(m, n, x):
        return lev_boundary(x) if n == m else f_op(m, n, x)

    comps = materialize_operator(model, model, d_and_f, -1, "map")
    dmax = max(deg for (_, deg) in model.span.basis)
    complexes = {}
    for m in range(len(g.marks) + 1):
        levels = _levels_of_size(g.marks, m)
        dims = {k: sum(model.dim(lvl, k) for lvl in levels)
                for k in range(dmax + 1)}
        complexes[m] = ccx.ChainComplex(dims, comps.pop((m, m), {}))
    return ccx.CComplex(complexes, comps)


# how far below the diagonal (m, m) the components of each shape reach
_SHAPE_REACH = {"map": 0, "homotopy": 1, "second": 2}


def materialize_operator(src_model: MatrixModel, dst_model: MatrixModel,
                         op, offset: int, shape: str) -> dict:
    """Components of a levelwise operator as ccx-style matrices.

    ``op(m, n, x)``: level element to level element; ``offset``: the degree
    shift of the (m, n) component beyond n - m; ``shape``: 'map' for
    m <= n, 'homotopy' for m <= n + 1."""
    g_src, g_dst = src_model.g, dst_model.g
    r = len(g_src.marks)
    comps = {}
    lo_shift = _SHAPE_REACH[shape]
    src_levels = {m: _levels_of_size(g_src.marks, m) for m in range(r + 1)}
    dst_levels = {m: _levels_of_size(g_dst.marks, m) for m in range(r + 1)}
    degrees = sorted({deg for (lvl, deg) in src_model.span.basis})
    if not degrees:
        return comps
    dmax = max(degrees)
    for m in range(r + 1):
        for n in range(max(m - lo_shift, 0), r + 1):
            per = {}
            for k in range(0, dmax + 1):
                kk = k + n - m + offset
                cols = sum(src_model.dim(lvl, k) for lvl in src_levels[m])
                rows = sum(dst_model.dim(lvl, kk) for lvl in dst_levels[n])
                if not rows or not cols:
                    continue
                ent = {}
                row_off = {}
                off = 0
                for lvl in dst_levels[n]:
                    row_off[lvl] = off
                    off += dst_model.dim(lvl, kk)
                col = 0
                for lvl in src_levels[m]:
                    for j in range(src_model.dim(lvl, k)):
                        x = {lvl: src_model.basis_chain(lvl, k, j)}
                        img = op(m, n, x)
                        for lvl2, ch in img.items():
                            for pos, v in dst_model.coords(lvl2, ch).items():
                                ent[(row_off[lvl2] + pos, col)] = v
                        col += 1
                mat = RatMatrix(rows, cols, ent)
                if not mat.is_zero():
                    per[k] = mat
            if per:
                comps[(m, n)] = per
    return comps


def _op_image_seeds(src_span: Span, op, shape: str, r: int):
    """Seed cubes for a destination span: every cube of every component
    image of the span basis under a levelwise operator."""
    lo_shift = _SHAPE_REACH[shape]
    seeds = []
    for (level, degree), cubes in src_span.items():
        m = len(level)
        for cube in cubes:
            x = {level: CubeChain.of(cube)}
            for n in range(max(m - lo_shift, 0), r + 1):
                for lvl2, ch in op(m, n, x).items():
                    for c2 in ch.terms:
                        seeds.append((lvl2, c2))
    return seeds


def build_ccomplex(g: GeomView, seeds, use_alt: bool = False):
    """The multi-relative C-complex on the span generated by the seeds,
    materialized as ccx matrices; returns (model, ccomplex)."""
    span = close_span(g, seeds, sym=use_alt)
    model = MatrixModel(g, span, use_alt=use_alt)
    return model, materialize_ccomplex(model)


def build_pullback(f: MorphView, seeds_dst, use_alt: bool = False,
                   models=None):
    """The pullback map of C-complexes of a geometry morphism on spans.

    ``seeds_dst`` generate the span on the pullback source complex (the
    target geometry of the morphism); returns (model_src_cx, model_dst_cx,
    ccx.CMap).  Supplying ``models`` (src_model, dst_model) reuses spans.
    """
    r = len(f.src.marks)
    op = (lambda m, n, x: op_pullback(f, m, n, x, use_alt=use_alt))
    if models is None:
        span_t = close_span(f.dst, seeds_dst, sym=use_alt)
        model_t = MatrixModel(f.dst, span_t, use_alt=use_alt)
        span_x = close_span(f.src, _op_image_seeds(span_t, op, "map", r),
                            sym=use_alt)
        model_x = MatrixModel(f.src, span_x, use_alt=use_alt)
    else:
        model_t, model_x = models
    cc_t = materialize_ccomplex(model_t)
    cc_x = materialize_ccomplex(model_x)
    comps = materialize_operator(model_t, model_x, op, 0, "map")
    return model_t, model_x, ccx.CMap(cc_t, cc_x, comps)


def build_homotopy(f: MorphView, g: MorphView, seeds_src, use_alt: bool = False):
    """The homotopy from (g f)^* to f^* g^* on spans, with all three
    pullback maps materialized; returns a dict of the pieces."""
    h = MorphView(f.src, g.dst)
    r = len(f.src.marks)
    op_g = (lambda m, n, x: op_pullback(g, m, n, x, use_alt=use_alt))
    op_f = (lambda m, n, x: op_pullback(f, m, n, x, use_alt=use_alt))
    op_h = (lambda m, n, x: op_pullback(h, m, n, x, use_alt=use_alt))
    op_phi = (lambda m, n, x: op_homotopy(f, g, m, n, x, use_alt=use_alt))
    span_s = close_span(g.dst, seeds_src, sym=use_alt)
    model_s = MatrixModel(g.dst, span_s, use_alt=use_alt)
    span_t = close_span(f.dst, _op_image_seeds(span_s, op_g, "map", r),
                        sym=use_alt)
    model_t = MatrixModel(f.dst, span_t, use_alt=use_alt)
    seeds_x = _op_image_seeds(span_t, op_f, "map", r)
    seeds_x += _op_image_seeds(span_s, op_h, "map", r)
    seeds_x += _op_image_seeds(span_s, op_phi, "homotopy", r)
    span_x = close_span(f.src, seeds_x, sym=use_alt)
    model_x = MatrixModel(f.src, span_x, use_alt=use_alt)
    cc_s = materialize_ccomplex(model_s)
    cc_t = materialize_ccomplex(model_t)
    cc_x = materialize_ccomplex(model_x)
    gmap = ccx.CMap(cc_s, cc_t, materialize_operator(model_s, model_t, op_g, 0, "map"))
    fmap = ccx.CMap(cc_t, cc_x, materialize_operator(model_t, model_x, op_f, 0, "map"))
    hmap = ccx.CMap(cc_s, cc_x, materialize_operator(model_s, model_x, op_h, 0, "map"))
    phi = ccx.CHomotopy(cc_s, cc_x,
                        materialize_operator(model_s, model_x, op_phi, 1, "homotopy"),
                        frm=hmap, to=ccx.compose(fmap, gmap))
    return {"models": (model_s, model_t, model_x),
            "complexes": (cc_s, cc_t, cc_x),
            "g": gmap, "f": fmap, "h": hmap, "phi": phi}


def check_cor_2_16(g: GeomView, seeds, use_alt: bool = False) -> dict:
    """The multi-relative complex is the simple complex of the last
    restriction map: after flipping the sign of every level containing the
    last mark, all boundaries and connecting maps coincide literally."""
    rmark = max(g.marks)
    iota = restriction_morphism(g, rmark)
    geom_a, geom_b = iota.dst, iota.src
    span_big = close_span(g, seeds, sym=use_alt)
    model_big = MatrixModel(g, span_big, use_alt=use_alt)
    big = materialize_ccomplex(model_big)
    # restrict the big span to the two halves so bases literally agree
    span_a, span_b = Span(), Span()
    for (level, degree), cubes in span_big.items():
        if rmark in level:
            for c in cubes:
                span_b.add(frozenset(level - {rmark}), c)
        else:
            for c in cubes:
                span_a.add(level, c)
    model_a = MatrixModel(geom_a, span_a, use_alt=use_alt)
    model_b = MatrixModel(geom_b, span_b, use_alt=use_alt)
    cc_a = materialize_ccomplex(model_a)
    cc_b = materialize_ccomplex(model_b)
    op = (lambda m, n, x: op_pullback(iota, m, n, x, use_alt=use_alt))
    fmap = ccx.CMap(cc_a, cc_b, materialize_operator(model_a, model_b, op, 0, "map"))
    parts = ccx.simple(fmap)
    cone = parts.ccx
    r = len(g.marks)
    lv_big = {m: _levels_of_size(g.marks, m) for m in range(r + 1)}
    lv_a = {m: _levels_of_size(geom_a.marks, m) for m in range(r)}
    lv_b = {m: _levels_of_size(geom_b.marks, m) for m in range(r)}

    def transfer(m, k) -> RatMatrix:
        """cone C^m_k <- big A^m_k: reorder levels, negate the r-levels."""
        rows = cone.cx(m).dim(k)
        cols = big.cx(m).dim(k)
        ent = {}
        col = 0
        a_off = {}
        off = 0
        for lvl in lv_a.get(m, []):
            a_off[lvl] = off
            off += model_a.dim(lvl, k)
        b_off = {}
        off = parts.a_dims.get((m, k), 0)
        for lvl in lv_b.get(m - 1, []):
            b_off[lvl] = off
            off += model_b.dim(lvl, k)
        for lvl in lv_big[m]:
            d = model_big.dim(lvl, k)
            if rmark in lvl:
                tgt = frozenset(lvl - {rmark})
                for j in range(d):
                    ent[(b_off[tgt] + j, col + j)] = Fraction(-1)
            else:
                for j in range(d):
                    ent[(a_off[frozenset(lvl)] + j, col + j)] = Fraction(1)
            col += d
        return RatMatrix(rows, cols, ent)

    degrees = sorted({deg for (lvl, deg) in span_big.basis})
    dmax = max(degrees) if degrees else 0
    for m in big.indices():
        for k in range(0, dmax + 1):
            if big.cx(m).dim(k) != cone.cx(m).dim(k):
                return {"ok": False, "at": {"m": m, "degree": k, "what": "dims"}}
        for k in range(1, dmax + 1):
            u_k = transfer(m, k)
            u_prev = transfer(m, k - 1)
            if u_prev.mul(big.cx(m).d(k)) != cone.cx(m).d(k).mul(u_k):
                return {"ok": False, "at": {"m": m, "degree": k, "what": "boundary"}}
    for m in big.indices():
        for n in big.indices():
            if m >= n:
                continue
            for k in range(0, dmax + 1):
                u_src = transfer(m, k)
                u_dst = transfer(n, k + n - m - 1)
                if u_dst.mul(big.f(m, n, k)) != cone.f(m, n, k).mul(u_src):
                    return {"ok": False,
                            "at": {"m": m, "n": n, "degree": k, "what": "fmap"}}
    return {"ok": True, "indices": big.indices()}


# -- alternation absorption and the identity pullback --------------------

def check_alt_absorption(g: GeomView, K, I, x: CubeChain) -> bool:
    """Alt Xi_K Alt = Alt Xi_K, the mechanism letting every alternated
    composite be evaluated plainly with one outer alternation."""
    return alt(xi_K(g, K, I, alt(x))) == alt(xi_K(g, K, I, x))


def identity_word_cube(g: GeomView, K, I, p: int, obj_cube: ExactCube,
                       identity_at: MorphView) -> ExactCube:
    """The pullback cube of the word with the identity morphism inserted
    after p of the embeddings of K (in sorted order)."""
    if not 0 <= p <= len(K):
        raise ValueError("insert position out of range")
    # the first |K| + 1 words are those of the sorted ordering, with the
    # insert after 0, 1, ..., |K| removals
    _, word = next(islice(xi_words([g, identity_at, g], K, I), p, None))
    return composite_pullback(word, obj_cube)


def check_identity_pullback_vanishing(g: GeomView, gid: MorphView, K, I,
                                      x: CubeChain) -> dict:
    """The word cubes with an inserted identity morphism are degenerate at
    the boundary insertion positions, transposition-invariant hence killed
    by Alt at interior ones, and not degenerate there before Alt."""
    K = tuple(sorted(K))
    w = len(K)
    report = {"ok": True, "positions": {}}
    for p in range(w + 1):
        for cube, _ in x.terms.items():
            wc = identity_word_cube(g, K, I, p, cube, gid)
            entry = {"degenerate": wc.is_degenerate(),
                     "alt_zero": alt(CubeChain.of(wc)).is_zero()}
            if p == 0 or p == w:
                ok = entry["degenerate"]
            else:
                sym = act_sym(transposition(wc.n, p), wc) == wc
                entry["transposition_invariant"] = sym
                ok = (not entry["degenerate"]) and entry["alt_zero"] and sym
            report["positions"][p] = entry
            if not ok:
                report["ok"] = False
                report["at"] = p
    return report


def check_identity_cmap(g: GeomView, gid: MorphView, x: dict, m: int,
                        n_max: int) -> dict:
    """On the alternating complex the identity morphism pulls back to the
    identity: the diagonal components are identities and every off-diagonal
    component vanishes after alternation."""
    for n in range(m, n_max + 1):
        img = op_pullback(gid, m, n, x)
        if n == m:
            if not lev_eq(lev_alt(img), lev_alt(x)):
                return {"ok": False, "at": {"m": m, "n": n, "part": "diagonal"}}
        else:
            if not lev_eq(lev_alt(img), {}):
                return {"ok": False, "at": {"m": m, "n": n, "part": "off-diagonal"}}
    return {"ok": True}


# -- generator-wise relation checks -------------------------------------

def check_ccomplex_relation(g: GeomView, x: dict, m: int, n_max: int,
                            use_alt: bool = False) -> dict:
    """(-1)^m F^{m,n} d + (-1)^n d F^{m,n} + sum_l F^{l,n} F^{m,l} = 0
    applied to a generator element at index m, for every n <= n_max."""
    if use_alt:
        x = lev_alt(x)
    dx = lev_boundary(x)
    for n in range(m + 1, n_max + 1):
        acc = lev_scale(op_F(g, m, n, dx, use_alt), (-1) ** m) if dx else {}
        acc = lev_add(acc, lev_scale(lev_boundary(op_F(g, m, n, x, use_alt)),
                                     (-1) ** n))
        for l in range(m + 1, n):
            acc = lev_add(acc, op_F(g, l, n, op_F(g, m, l, x, use_alt), use_alt))
        if not lev_eq(acc, {}):
            return {"ok": False, "at": {"m": m, "n": n},
                    "levels": sorted(tuple(sorted(k)) for k in acc)}
    return {"ok": True}


def check_relation(op, reach: int, g_in: GeomView, g_out: GeomView, x: dict,
                   m: int, n_max: int, target=(), compare_alt: bool = False,
                   use_alt: bool = False) -> dict:
    """The relation of a family op(m, n, y) of levelwise operators of this
    reach from the C-complex of g_in to that of g_out, applied to a
    generator element x at index m, for every n <= n_max:

        (-1)^n d op^{m,n} + sum_{l<n} F_out^{l,n} op^{m,l}
          + (-1)^(reach+1) [(-1)^m op^{m,n} d + sum_{l>m} op^{l,n} F_in^{m,l}]
          = sum over target of sign * (outer inner)^{m,n}

    for target triples (sign, outer, inner), where inner None stands for
    the identity; the generator-level form of ccx.CFamily.defect.  Reach 0
    states a map, 1 a homotopy and 2 a second homotopy.  Every operator
    vanishes below the diagonal, so (outer inner)^{m,n} sums over
    m <= l <= n.  With compare_alt the two sides are compared after
    alternation; use_alt alternates x and every F."""
    if use_alt:
        x = lev_alt(x)
    dx = lev_boundary(x)
    lo = max(m - reach, 0)
    img = {l: op(m, l, x) for l in range(lo, n_max + 1)}
    f_in = {l: op_F(g_in, m, l, x, use_alt)
            for l in range(m + 1, n_max + reach + 1)}
    # inner^{m,l}(x) per target term; the identity's one component is x
    terms = [(sign, outer, {m: x} if inner is None else
              {l: inner(m, l, x) for l in range(m, n_max + 1)})
             for sign, outer, inner in target]
    for n in range(lo, n_max + 1):
        left = lev_scale(lev_boundary(img[n]), (-1) ** (n % 2))
        for l in range(lo, n):
            left = lev_add(left, op_F(g_out, l, n, img[l], use_alt))
        right = lev_scale(op(m, n, dx), (-1) ** (m % 2)) if dx else {}
        for l in range(m + 1, n + reach + 1):
            right = lev_add(right, op(l, n, f_in[l]))
        diff = lev_add(left, lev_scale(right, (-1) ** ((reach + 1) % 2)))
        for sign, outer, inner_img in terms:
            for l, y in inner_img.items():
                if l <= n:
                    diff = lev_add(diff, lev_scale(outer(l, n, y), -sign))
        if not lev_eq(lev_alt(diff) if compare_alt else diff, {}):
            return {"ok": False, "at": {"m": m, "n": n}}
    return {"ok": True}


def check_cmap_relation(f: MorphView, x: dict, m: int, n_max: int,
                        use_alt: bool = False) -> dict:
    """(-1)^n d f^{m,n} + sum F f = (-1)^m f^{m,n} d + sum f F for the
    pullback map of a geometry morphism, applied to a generator."""
    return check_relation(partial(op_pullback, f, use_alt=use_alt), 0,
                          f.dst, f.src, x, m, n_max, use_alt=use_alt)


def check_homotopy_relation(f: MorphView, g: MorphView, h: MorphView, x: dict,
                            m: int, n_max: int, use_alt: bool = False) -> dict:
    """The homotopy relation for Phi between h^* and f^* g^* (h = g o f)."""
    def pull(v):
        return partial(op_pullback, v, use_alt=use_alt)
    return check_relation(partial(op_homotopy, f, g, use_alt=use_alt), 1,
                          g.dst, f.src, x, m, n_max,
                          [(1, pull(f), pull(g)), (-1, pull(h), None)],
                          use_alt=use_alt)
