"""Multi-relative complexes of exact cubes over combinatorial geometries.

A geometry models a space with r marked closed subspaces: one copy of the
base category for every subset I of {1..r}, together with a pullback
functor for every containment and every morphism of geometries.  Pullback
functors are assigned per morphism *class* (source and target level), so
differently grouped composites of embeddings give genuinely different
objects, while every connecting arrow stays an identity matrix.  Each
class tensors by a one-dimensional object whose metric is the square of a
rational, which keeps all those arrows certified isometries.

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
from itertools import (combinations, combinations_with_replacement,
                       permutations)

from . import ccx, memo
from .cubes import (CubeChain, ExactCube, ExactFunctor, PullbackWord, act_sym,
                    alt, alt_cube, boundary, boundary_cube, canonical,
                    canonical_terms, composite_pullback, transposition)
from .exactlin import FormalSum, MetObj, RatMatrix, _collect, times
from .signs import divisions_into, perm_sign, sgn_division


# -- towers of geometries --------------------------------------------

class Tower:
    """A chain of geometries related by morphisms, sharing r subspace marks.

    ``schemes`` is the number of members; ``alias`` maps a member to an
    earlier one it coincides with (used for retraction setups g f = Id).
    Morphism classes exist from member a to member b >= a, from level J to
    level I whenever I is contained in J; the class functor is a scalar
    metric twist determined by the canonical (member, level) endpoints.
    ``key`` is the tower as a value: towers with equal keys have equal
    class functors.
    """

    def __init__(self, r: int, schemes: int = 1, seed: int = 0, alias=None):
        self.r = r
        self.seed = seed
        self.alias = list(alias) if alias is not None else list(range(schemes))
        if len(self.alias) != schemes or any(self.alias[s] > s for s in range(schemes)):
            raise ValueError("alias must point backwards")
        self.key = (r, schemes, seed, tuple(self.alias))
        self._functors = {}

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
        if a == b:
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
    a fixed sub-level adjoined to every index (the geometry on Y_extra).
    ``key`` is the geometry as a value, its tower included."""

    def __init__(self, tower: Tower, scheme: int = 0, extra=frozenset(),
                 marks=None):
        self.tower = tower
        self.scheme = scheme
        self.extra = frozenset(extra)
        self.marks = tuple(sorted(marks)) if marks is not None \
            else tuple(i for i in range(1, tower.r + 1) if i not in self.extra)
        self.key = (tower.key, scheme, self.extra, self.marks)

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
        self.key = (src_geom.key, dst_geom.key)

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


_XI_WORDS = memo.table("multirel.xi_words")


def prepared_xi_words(views, K, I) -> tuple:
    """The signed words of ``xi_words(views, K, I)`` as (sign, PullbackWord)
    pairs, their group functors composed once per run.  The table keeps
    only signs and functors, keyed by value: each view's ``key`` (its
    geometries and tower), sorted K and the level I."""
    key = (*[v.key for v in views], *sorted(K), frozenset(I))
    out = _XI_WORDS.get(key)
    if out is None:
        out = tuple([(sgn, PullbackWord(word))
                     for sgn, word in xi_words(views, K, I)])
        _XI_WORDS[key] = out
    return out


_XI_IMAGE_CACHE = memo.table("multirel.xi_images")


def xi_image(views, K, I):
    """The map of a cube of level I to its Xi_{K,f_1..f_t} image, the
    signed sum of its pullbacks along the words of xi_words, of degree
    raised by |K| + t - 1.  Each image is built once per run and kept in a
    dict per prepared-words key, as a chain or, if it is one cube with
    coefficient 1 (most are), that cube."""
    key = (*[v.key for v in views], *sorted(K), frozenset(I))
    images = _XI_IMAGE_CACHE.setdefault(key, {})
    shift = len(K) + len(views) // 2 - 1

    def image(cube):
        img = images.get(cube)
        if img is None:
            img = CubeChain(cube.n + shift,
                            [(composite_pullback(word, cube), sgn)
                             for sgn, word in prepared_xi_words(views, K, I)])
            if list(img.terms.values()) == [1]:
                img = next(iter(img.terms))
            images[cube] = img
        return img
    return image


def xi_apply(views, K, I, x: CubeChain) -> CubeChain:
    """Xi_{K,f_1..f_t}(x), the linear extension of ``xi_image``."""
    deg = x.degree + len(K) + len(views) // 2 - 1
    return x.map_cubes(xi_image(views, K, I), deg)


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
    splits = [(L, Lp, sgn_division(L, Lp, tuple(sorted(K))))
              for L, Lp in divisions_into(K, 2, allow_empty=True)]
    for p in range(t + 1):
        for L, Lp, s in splits:
            a = len(L)
            if (p == 0 and a == 0) or (p == t and a == w):
                continue
            e = t + (a + 1) * ((t - p + 1) % 2)
            inner = xi_apply(views[2 * p:], Lp, I, x)
            rhs = rhs + xi_apply(views[:2 * p + 1], L, frozenset(Lp) | back[p],
                                 inner).scale(s * (-1) ** e)
    return lhs == rhs


# -- level elements and the C-structure --------------------------------

class LevelChain(FormalSum):
    """A level element: a formal Q-linear combination of cubes placed at
    levels, keyed by (level, cube) pairs with the level a frozenset.
    Degenerate and zero cubes are dropped at construction, as in
    CubeChain."""

    __slots__ = ()

    def _normal(self, key, coeff):
        cube = key[1]
        if cube.is_zero_cube() or cube.is_degenerate():
            return None
        return key, coeff

    @staticmethod
    def of(level, x) -> "LevelChain":
        """A chain, or a single cube, placed at one level."""
        level = frozenset(level)
        if isinstance(x, CubeChain):
            # a chain's terms are in normal form already
            return LevelChain()._like({(level, cube): c
                                       for cube, c in x.terms.items()})
        return LevelChain([((level, x), 1)])

    def map_cubes(self, fn) -> "LevelChain":
        """The level-preserving linear extension of fn(cube): a CubeChain,
        or the cube itself, so every image term is normal as it is."""
        def terms():
            for (level, cube), c in self.terms.items():
                img = fn(cube)
                if isinstance(img, CubeChain):
                    for cu, d in img.terms.items():
                        yield (level, cu), times(d, c)
                else:
                    yield (level, img), c
        return self._like(_collect({}, terms()))

    def boundary(self) -> "LevelChain":
        return self.map_cubes(boundary_cube)

    def alt(self) -> "LevelChain":
        return self.map_cubes(alt_cube)

    def chains(self) -> dict:
        """{level: CubeChain}, levels in first-seen order; raises
        ValueError when one level mixes cube degrees.  The terms are in
        normal form already, so each chain takes them as they are."""
        out = {}
        for (level, cube), c in self.terms.items():
            chain = out.get(level)
            if chain is None:
                chain = out[level] = CubeChain(cube.n)
            elif cube.n != chain.degree:
                raise ValueError("degree mismatch in chain term")
            chain.terms[cube] = c
        return out


def levelwise(views, m: int, n: int, x, component):
    """A levelwise operator of bidegree (m, n) along the chain ``views``.

    The plan of a level I of x (of size m), made once, lists each K of
    n - m marks of g_0 outside I_src (the marks of I carried back to g_0)
    with J = K | I_src and sgn(K I_src; J); component(K, I, I_src, J, sgn,
    x_I) gives a coefficient and the unscaled image at J.  n < m gives
    zero.  A LevelChain x gives the image LevelChain; the column form
    x = (chains, write) maps a level to (item, chain) pairs and hands each
    image to write(item, J, coef, img)."""
    if n < m:
        return LevelChain()
    out = {}
    if isinstance(x, LevelChain):
        chains = {I: [(None, ch)] for I, ch in x.chains().items()}

        def write(_, J, coef, img):
            _collect(out, (((J, cu), times(c, coef))
                           for cu, c in img.terms.items()))
    else:
        chains, write = x
    for I, items in chains.items():
        if len(I) != m:
            raise ValueError("element has a level of the wrong size")
        I_src = I
        for f in reversed(views[1::2]):
            I_src = _marks_back(f, I_src)
        I_src = tuple(sorted(I_src))
        plan = []
        for K in combinations([k for k in views[0].marks if k not in I_src],
                              n - m):
            J = tuple(sorted(K + I_src))
            plan.append((K, frozenset(J), sgn_division(K, I_src, J)))
        for item, chain in items:
            for K, J, s in plan:
                coef, img = component(K, I, I_src, J, s, chain)
                write(item, J, coef, img)
    return LevelChain()._like(out)


def _xi_levelwise(views, m: int, n: int, x: LevelChain,
                  sign: int) -> LevelChain:
    """sum over J = K | I of sign sgn(K I; J) Xi_{K,views}(x_I)."""
    def component(K, I, I_src, J, s, chain):
        return sign * s, xi_apply(views, K, I, chain)
    return levelwise(views, m, n, x, component)


def op_F(g: GeomView, m: int, n: int, x: LevelChain) -> LevelChain:
    """The connecting map F^{m,n}(x)_J = (-1)^n sum sgn(K I; J) Xi_K(x_I)."""
    if n <= m:
        raise ValueError("connecting map needs n > m")
    return _xi_levelwise([g], m, n, x, (-1) ** (n % 2))


def op_pullback(f: MorphView, m: int, n: int, x: LevelChain) -> LevelChain:
    """(f^*)^{m,n}(x)_J = sum sgn(K I; J) Xi_{K,f}(x_I); zero for n < m."""
    return _xi_levelwise([f.src, f, f.dst], m, n, x, 1)


def op_homotopy(f: MorphView, g: MorphView, m: int, n: int,
                x: LevelChain) -> LevelChain:
    """Phi^{m,n}(x)_J = (-1)^n sum sgn(K I; J) Xi_{K,f,g}(x_I); zero for n < m."""
    return _xi_levelwise([f.src, f, f.dst, g, g.dst], m, n, x, (-1) ** (n % 2))


# -- matrix materialization on finitely generated spans ------------------

class Span:
    """Ordered cube bases per (level, degree), closed under the requested
    operators; the scaffolding for matrix C-complexes.  An alternating
    span (``sym``) holds canonical members of symmetric-group orbits only
    (``cubes.canonical``)."""

    def __init__(self, sym: bool):
        self.sym = sym
        # (frozenset level, degree) -> {cube: position}, in span order
        self.index = {}

    def add(self, level, cube):
        """Add the cube, in an alternating span its canonical member;
        returns the added cube, or None when it is there already or is
        zero or degenerate."""
        if self.sym:
            cube = canonical(cube)[0]
        key = (frozenset(level), cube.n)
        idx = self.index.get(key)
        if idx is not None and cube in idx:
            return None
        if cube.is_zero_cube() or cube.is_degenerate():
            return None
        if idx is None:
            idx = self.index[key] = {}
        idx[cube] = len(idx)
        return cube

    def items(self):
        return [(key, list(idx)) for key, idx in self.index.items()]


def close_span_generic(seeds, expand, sym: bool) -> Span:
    """Close seeds under faces and an expansion rule ``expand(level,
    cube)`` of (level, cube) pairs, in a span that alternates when
    ``sym`` holds.

    An alternating span adds every seed, face and image as its canonical
    member and expands only those, killed ones included.  It reaches the
    orbits of the closure under the symmetric-group action as well when
    ``expand`` is equivariant, each image of sigma x in the orbit, at the
    same level, of an image of x, as faces are."""
    span, queue = Span(sym), []

    def push(level, cube):
        cube = span.add(level, cube)
        if cube is not None:
            queue.append((frozenset(level), cube))

    for level, cube in seeds:
        push(level, cube)
    while queue:
        level, cube = queue.pop()
        for c2 in boundary_cube(cube).terms:
            push(level, c2)
        for lvl, c2 in expand(level, cube):
            push(lvl, c2)
    return span


class MatrixModel:
    """A multi-relative C-complex materialized as matrices on a span.

    Each (level, degree) of the span has one basis vector per span cube R,
    in span order: R itself on a plain span, Alt(R) on an alternating one
    (``use_alt``, read off the span), leaving out the R that Alt kills.
    The span cubes of an alternating span are canonical members of
    distinct orbits, so these are a basis of the alternating chains on the
    span.  ``g`` only needs a ``marks`` attribute.
    """

    def __init__(self, g, span: Span):
        self.g = g
        self.span = span
        self.use_alt = span.sym
        self._layouts = {}
        self._bases = {}
        for key, idx in span.index.items():
            cubes = [c for c in idx if not self.use_alt or canonical(c)[1]]
            self._bases[key] = ({c: p for p, c in enumerate(cubes)},
                                [CubeChain.of(c) for c in cubes])

    def _reps(self, level, degree) -> list:
        # the basis cubes in basis order, as one-term chains
        return self._bases.get((frozenset(level), degree), ({}, []))[1]

    def dim(self, level, degree) -> int:
        return len(self._reps(level, degree))

    def layout(self, m: int, k: int):
        """(offsets, dim) of the index-m chain group in degree k: the
        direct sum over the levels of size m, in sorted order, each level's
        block starting at offsets[level]."""
        got = self._layouts.get((m, k))
        if got is None:
            offsets, dim = {}, 0
            for lvl in combinations(sorted(self.g.marks), m):
                lvl = frozenset(lvl)
                offsets[lvl] = dim
                dim += self.dim(lvl, k)
            got = self._layouts[(m, k)] = (offsets, dim)
        return got

    def coords(self, level, chain: CubeChain) -> dict:
        """Coordinates of a chain in the basis of its level and degree: of
        the chain on a plain model, of Alt(chain) on an alternating one,
        read off ``cubes.canonical_terms``.  A term without a basis
        position raises ValueError."""
        place = self._bases.get((frozenset(level), chain.degree), ({},))[0]
        terms = canonical_terms(chain) if self.use_alt else chain.terms
        try:
            return {place[cube]: c for cube, c in terms.items()}
        except KeyError:
            raise ValueError("chain leaves the generated span") from None

    def basis_chain(self, level, degree, pos) -> CubeChain:
        """The basis vector at a position: its span cube R, or Alt(R) in
        the alternating mode."""
        rep = self._reps(level, degree)[pos]
        return alt(rep) if self.use_alt else rep


def closed_model(g: GeomView, seeds, use_alt: bool = False) -> MatrixModel:
    """The matrix model on the span of the seed cubes closed under faces and
    all embedding pullbacks of g; in the alternating mode the span holds
    the canonical members of the orbits of that closure under the axis
    action of the symmetric groups.  The Xi images commute with that
    action, so the alternating closure need expand canonical members
    only."""
    def expand(level, cube):
        # xi_image keeps each image, which materialization reads again
        out = []
        others = [k for k in g.marks if k not in level]
        for size in range(1, len(others) + 1):
            for K in combinations(others, size):
                J, img = level.union(K), xi_image([g], K, level)(cube)
                out += ([(J, c2) for c2 in img.terms]
                        if type(img) is CubeChain else [(J, img)])
        return out

    return MatrixModel(g, close_span_generic(seeds, expand, sym=use_alt))


def relabeled_model(g, parts) -> MatrixModel:
    """The model of g on the levels of other models: ``parts`` lists
    (model, move) pairs, move(level) naming the level of g that a level of
    that model becomes, or None to leave it out."""
    span = Span(parts[0][0].use_alt)
    for src, move in parts:
        for (level, _), cubes in src.span.items():
            new = move(level)
            if new is not None:
                for cube in cubes:
                    span.add(new, cube)
    return MatrixModel(g, span)


def materialize_ccomplex(model: MatrixModel, f_op=None) -> "ccx.CComplex":
    """The C-complex of the geometry on the span, as ccx matrices.

    Index m holds the direct sum over levels of size m; ``f_op(m, n, x)``
    defaults to the geometry connecting map of ``model.g``.  The boundaries
    are the (m, m) components, and the connecting maps the (m, n > m)
    components, of one levelwise operator of reach -1."""
    if f_op is None:
        f_op = partial(op_F, model.g)
    if not model.span.index:
        return ccx.CComplex({}, {})

    def d_and_f(m, n, x):
        return f_op(m, n, x) if n != m else levelwise(
            [model.g], m, m, x, lambda K, I, I_src, J, s, ch: (1, boundary(ch)))

    comps = materialize_operator(model, model, d_and_f, -1)
    dmax = max(deg for (_, deg) in model.span.index)
    complexes = {}
    for m in range(len(model.g.marks) + 1):
        dims = {k: model.layout(m, k)[1] for k in range(dmax + 1)}
        complexes[m] = ccx.ChainComplex(dims, comps.pop((m, m), {}))
    return ccx.CComplex(complexes, comps)


def materialize_operator(src_model: MatrixModel, dst_model: MatrixModel,
                         op, reach: int) -> dict:
    """Components of a levelwise operator family as ccx-style matrices.

    ``op(m, n, x)`` is a levelwise operator, read in its column form (see
    ``levelwise``) on the source basis cubes: each image goes through
    the destination's ``coords`` and is multiplied by its coefficient as
    it is written.  ``reach`` is that of ccx.CFamily (0 a map, 1 a
    homotopy), or -1 for a C-complex's d and F: the (m, n) component, for
    n >= m - max(reach, 0), takes degree k to k + n - m + reach.  When
    dst_model alternates, an image is read as Alt(image), and no Alt chain
    is built: every operator here commutes with the axis action, so
    Alt op Alt(R) = Alt op R.  An alternating source needs an alternating
    destination."""
    r = len(src_model.g.marks)
    comps = {}
    if not src_model.span.index:
        return comps
    dmax = max(deg for (_, deg) in src_model.span.index)

    def write(item, J, coef, img):
        ent, row_off, col = item
        for pos, v in dst_model.coords(J, img).items():
            ent[(row_off[J] + pos, col)] = times(v, coef)

    for m in range(r + 1):
        for n in range(max(m - max(reach, 0), 0), r + 1):
            blocks, chains = {}, {}
            for k in range(dmax + 1):
                col_off, cols = src_model.layout(m, k)
                row_off, rows = dst_model.layout(n, k + n - m + reach)
                if rows and cols:
                    ent = {}
                    blocks[k] = (rows, cols, ent)
                    for lvl, col in col_off.items():
                        chains.setdefault(lvl, []).extend(
                            ((ent, row_off, col + j), rep)
                            for j, rep in enumerate(src_model._reps(lvl, k)))

            op(m, n, (chains, write))
            per = {}
            for k, (rows, cols, ent) in blocks.items():
                mat = RatMatrix(rows, cols, ent)
                if not mat.is_zero():
                    per[k] = mat
            if per:
                comps[(m, n)] = per
    return comps


def _op_image_seeds(model: MatrixModel, op, reach: int):
    """Seed cubes for a destination span: every cube of every component
    image of the model's basis cubes under a levelwise operator family of
    this reach, read as canonical members of Alt(image) when the model
    alternates; in span order, then by n, K and image order.  A killed
    span cube adds none: Alt op R = 0 when Alt kills R."""
    r = len(model.g.marks)
    images, chains = [], {}
    for level, degree in model.span.index:
        for rep in model._reps(level, degree):
            images.append([])
            chains.setdefault(len(level), {}).setdefault(level, []).append(
                (images[-1], rep))

    def write(out, J, _, img):
        out.extend([(J, cube) for cube in (canonical_terms(img)
                                           if model.use_alt else img.terms)])

    for m, per in chains.items():
        for n in range(max(m - reach, 0), r + 1):
            op(m, n, (per, write))
    return [seed for seeds in images for seed in seeds]


def build_ccomplex(g: GeomView, seeds, use_alt: bool = False):
    """The multi-relative C-complex on the span generated by the seeds,
    materialized as ccx matrices; returns (model, ccomplex)."""
    model = closed_model(g, seeds, use_alt)
    return model, materialize_ccomplex(model)


def build_pullback(f: MorphView, seeds_dst, use_alt: bool = False):
    """The pullback map of C-complexes of a geometry morphism on spans.

    ``seeds_dst`` generate the span on the pullback source complex (the
    target geometry of the morphism); returns (model_src_cx, model_dst_cx,
    ccx.CMap)."""
    op = partial(op_pullback, f)
    model_t = closed_model(f.dst, seeds_dst, use_alt)
    model_x = closed_model(f.src, _op_image_seeds(model_t, op, 0), use_alt)
    cc_t = materialize_ccomplex(model_t)
    cc_x = materialize_ccomplex(model_x)
    comps = materialize_operator(model_t, model_x, op, 0)
    return model_t, model_x, ccx.CMap(cc_t, cc_x, comps)


def build_homotopy(f: MorphView, g: MorphView, seeds_src, use_alt: bool = False):
    """The homotopy phi from (g f)^* to f^* g^* on spans, with all three
    pullback maps materialized; returns the maps g, f, h and phi in a
    dict, so that ``phi.validate(h, ccx.compose(f, g))`` checks phi."""
    h = MorphView(f.src, g.dst)
    op_g, op_f, op_h = (partial(op_pullback, v) for v in (g, f, h))
    op_phi = partial(op_homotopy, f, g)
    model_s = closed_model(g.dst, seeds_src, use_alt)
    model_t = closed_model(f.dst, _op_image_seeds(model_s, op_g, 0), use_alt)
    seeds_x = _op_image_seeds(model_t, op_f, 0)
    seeds_x += _op_image_seeds(model_s, op_h, 0)
    seeds_x += _op_image_seeds(model_s, op_phi, 1)
    model_x = closed_model(f.src, seeds_x, use_alt)
    cc_s = materialize_ccomplex(model_s)
    cc_t = materialize_ccomplex(model_t)
    cc_x = materialize_ccomplex(model_x)
    gmap = ccx.CMap(cc_s, cc_t, materialize_operator(model_s, model_t, op_g, 0))
    fmap = ccx.CMap(cc_t, cc_x, materialize_operator(model_t, model_x, op_f, 0))
    hmap = ccx.CMap(cc_s, cc_x, materialize_operator(model_s, model_x, op_h, 0))
    phi = ccx.CHomotopy(cc_s, cc_x,
                        materialize_operator(model_s, model_x, op_phi, 1))
    return {"g": gmap, "f": fmap, "h": hmap, "phi": phi}


def cone_identification(parts, model_a: MatrixModel, model_b: MatrixModel,
                        model: MatrixModel, cc, mark: int) -> "ccx.CMap":
    """The sign-twisted identification of the cone ``parts.ccx`` of a
    restriction map A -> B with the complex ``cc`` of ``model``: level I of
    A goes to level I, level I of B to level I | {mark} with sign -1.

    In both callers (check_cor_2_16 and double.build_t) the span of
    ``model`` is the union of the halves' spans, so a half's basis of a
    level is the model's basis of its image level, and the identification
    is a signed permutation read off the layouts."""
    cone = parts.ccx
    comps = {}
    for m in cone.indices():
        per = {}
        for k in cone.cx(m).degrees():
            row_off, rows = model.layout(m, k)
            da = parts.slots(m, k)[0]
            halves = [(model_a, m, frozenset(), 0, 1)]
            if m:  # no level has size -1
                halves.append((model_b, m - 1, frozenset({mark}), da, -1))
            ent = {}
            for half, size, added, shift, sign in halves:
                for lvl, col in half.layout(size, k)[0].items():
                    row = row_off[lvl | added]
                    for i in range(half.dim(lvl, k)):
                        ent[(row + i, shift + col + i)] = sign
            per[k] = RatMatrix(rows, cone.cx(m).dim(k), ent)
        comps[(m, m)] = per
    return ccx.CMap(cone, cc, comps)


def check_cor_2_16(g: GeomView, seeds, use_alt: bool = False) -> dict:
    """The multi-relative complex is the simple complex of the last
    restriction map: after flipping the sign of every level containing the
    last mark, all boundaries and connecting maps coincide literally.

    The dimensions are compared first; then the identification
    ``cone_identification`` must validate as a map of C-complexes."""
    rmark = max(g.marks)
    iota = restriction_morphism(g, rmark)
    model_big = closed_model(g, seeds, use_alt)
    big = materialize_ccomplex(model_big)
    # the two halves of the big model, so that bases literally agree
    model_a = relabeled_model(iota.dst, [
        (model_big, lambda lvl: None if rmark in lvl else lvl)])
    model_b = relabeled_model(iota.src, [
        (model_big, lambda lvl: lvl - {rmark} if rmark in lvl else None)])
    fmap = ccx.CMap(materialize_ccomplex(model_a), materialize_ccomplex(model_b),
                    materialize_operator(model_a, model_b,
                                         partial(op_pullback, iota), 0))
    parts = ccx.simple(fmap)
    cone = parts.ccx
    for m in sorted(set(big.indices()) | set(cone.indices())):
        for k in sorted(set(big.cx(m).degrees()) | set(cone.cx(m).degrees())):
            if big.cx(m).dim(k) != cone.cx(m).dim(k):
                return {"ok": False, "at": {"m": m, "degree": k, "what": "dims"}}
    return cone_identification(parts, model_a, model_b, model_big, big,
                               rmark).validate()


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
    _, word = prepared_xi_words([g, identity_at, g], K, I)[p]
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


def check_identity_cmap(gid: MorphView, x: LevelChain, m: int,
                        n_max: int) -> dict:
    """On the alternating complex the identity morphism pulls back to the
    identity: the diagonal components are identities and every off-diagonal
    component vanishes after alternation."""
    for n in range(m, n_max + 1):
        img = op_pullback(gid, m, n, x).alt()
        if n == m:
            if img != x.alt():
                return {"ok": False, "at": {"m": m, "n": n, "part": "diagonal"}}
        elif not img.is_zero():
            return {"ok": False, "at": {"m": m, "n": n, "part": "off-diagonal"}}
    return {"ok": True}


# -- generator-wise relation checks -------------------------------------

def op_structure(g: GeomView, m: int, n: int, x: LevelChain) -> LevelChain:
    """The structure family of the C-complex of g: (-1)^m d for n = m,
    F^{m,n} for n > m, zero for n < m."""
    if n < m:
        return LevelChain()
    if n == m:
        return x.boundary().scale((-1) ** (m % 2))
    return op_F(g, m, n, x)


def check_ccomplex_relation(g: GeomView, x: LevelChain, m: int,
                            n_max: int) -> dict:
    """(S S)^{m,n}(x) = sum_{m<=l<=n} S^{l,n} S^{m,l}(x) = 0 for a
    generator element x at index m, for every m < n <= n_max."""
    img = {l: op_structure(g, m, l, x) for l in range(m, n_max + 1)}
    for n in range(m + 1, n_max + 1):
        acc = LevelChain()
        for l in range(m, n + 1):
            acc = acc + op_structure(g, l, n, img[l])
        if not acc.is_zero():
            return {"ok": False, "at": {"m": m, "n": n},
                    "levels": sorted({tuple(sorted(k)) for k, _ in acc.terms})}
    return {"ok": True}


def check_relation(op, reach: int, g_in: GeomView, g_out: GeomView,
                   x: LevelChain, m: int, n_max: int, target=(),
                   compare_alt: bool = False) -> dict:
    """The relation of a family op(m, n, y) of levelwise operators of this
    reach from the C-complex of g_in to that of g_out, applied to a
    generator element x at index m, for every n <= n_max:

        sum_l S_out^{l,n} op^{m,l} + (-1)^(reach+1) sum_l op^{l,n} S_in^{m,l}
          = sum over target of sign * (outer inner)^{m,n}

    for target triples (sign, outer, inner), where inner None stands for
    the identity; the generator-level form of ccx.CFamily.defect.  Reach 0
    states a map, 1 a homotopy and 2 a second homotopy.  Every operator
    vanishes below the diagonal, so (outer inner)^{m,n} sums over
    m <= l <= n.  With compare_alt the two sides are compared after
    alternation."""
    lo = max(m - reach, 0)
    img = {l: op(m, l, x) for l in range(lo, n_max + 1)}
    s_in = {l: op_structure(g_in, m, l, x)
            for l in range(m, n_max + reach + 1)}
    # inner^{m,l}(x) per target term; the identity's one component is x
    terms = [(sign, outer, {m: x} if inner is None else
              {l: inner(m, l, x) for l in range(m, n_max + 1)})
             for sign, outer, inner in target]
    for n in range(lo, n_max + 1):
        left = LevelChain()
        for l in range(lo, n + 1):
            left = left + op_structure(g_out, l, n, img[l])
        right = LevelChain()
        for l in range(m, n + reach + 1):
            right = right + op(l, n, s_in[l])
        diff = left + right.scale((-1) ** ((reach + 1) % 2))
        for sign, outer, inner_img in terms:
            for l, y in inner_img.items():
                if l <= n:
                    diff = diff + outer(l, n, y).scale(-sign)
        if not (diff.alt() if compare_alt else diff).is_zero():
            return {"ok": False, "at": {"m": m, "n": n}}
    return {"ok": True}


def check_cmap_relation(f: MorphView, x: LevelChain, m: int,
                        n_max: int) -> dict:
    """(-1)^n d f^{m,n} + sum F f = (-1)^m f^{m,n} d + sum f F for the
    pullback map of a geometry morphism, applied to a generator."""
    return check_relation(partial(op_pullback, f), 0, f.dst, f.src, x, m, n_max)


def check_homotopy_relation(f: MorphView, g: MorphView, h: MorphView,
                            x: LevelChain, m: int, n_max: int) -> dict:
    """The homotopy relation for Phi between h^* and f^* g^* (h = g o f)."""
    pull_f, pull_g, pull_h = (partial(op_pullback, v) for v in (f, g, h))
    return check_relation(partial(op_homotopy, f, g), 1, g.dst, f.src, x, m,
                          n_max, [(1, pull_f, pull_g), (-1, pull_h, None)])
