"""Exact cubes of rational vector spaces and their chain complex.

An exact n-cube is a functor {-1,0,1}^n -> (MetObj, rational matrices)
whose edges are all short exact sequences.  The chain groups are formal
Q-linear combinations of such cubes (``exactlin.FormalSum``), normalized
by dropping degenerate summands.  This module carries faces,
degeneracies, the boundary, the symmetric-group action with the
canonical member of each orbit (``canonical``) and the Alt projector,
tensor products, the duplication construction rho with its two
contracting homotopies, the exact functors of the geometry models (the
identity and tensoring by a fixed object), composite pullback cubes along
words of morphisms, and the bracket cubes of isomorphism chains.

Degeneracies, rho and tensor products are assembled by ``_assemble`` from
a vertex rule and a rule for its nonzero arrows; composite pullbacks and
bracket cubes are stacks of pulled-back parts gathered by position
(``_stack``); faces and the symmetric action gather through tables of
source positions.

Index conventions: a vertex index alpha is a tuple over {-1,0,1}; axis
numbers are 1-based in the public API, matching the face operators
``face(F, j, i)``.  There is one arrow per unit step alpha -> alpha'
with alpha'_j = alpha_j + 1, keyed (j, alpha).  A cube stores its parts
as two flat tuples in canonical order: vertices in lexicographic order of
alpha (``vertex_indices``), arrows by axis and then by alpha
(``arrow_keys``).  ``cube.vertex(alpha)`` and ``cube.arrow(j, alpha)``
read a part by its index; faces, the symmetric action and the assembler
work on positions through shape tables of integer positions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, permutations, product
from math import isqrt

from . import memo
from .exactlin import (FormalSum, MetObj, RatMatrix, ShortExact, ZERO_OBJ,
                       _collect, is_invertible, is_short_exact, linear_terms,
                       tensor_obj, times)
from .signs import perm_sign


_VIDX_CACHE = memo.shape_table("cubes.vidx")


def vertex_indices(n: int) -> dict:
    """The vertex indices of degree n in canonical (lexicographic) order,
    each mapped to its position in ``ExactCube.vertices``."""
    out = _VIDX_CACHE.get(n)
    if out is None:
        out = {a: p for p, a in enumerate(product((-1, 0, 1), repeat=n))}
        _VIDX_CACHE[n] = out
    return out


_ARROW_KEYS_CACHE = memo.shape_table("cubes.arrow_keys")


def arrow_keys(n: int) -> dict:
    """The arrow keys (j, alpha) of degree n in canonical order (by axis,
    then by vertex index), each mapped to (p, s, t): its position p in
    ``ExactCube.arrows`` and the vertex positions s of alpha and t of
    alpha + e_j."""
    out = _ARROW_KEYS_CACHE.get(n)
    if out is None:
        out = {}
        for j in range(1, n + 1):
            step = 3 ** (n - j)
            for a, s in vertex_indices(n).items():
                if a[j - 1] != 1:
                    out[(j, a)] = (len(out), s, s + step)
        _ARROW_KEYS_CACHE[n] = out
    return out


_LINES_CACHE = memo.shape_table("cubes.axis_lines")


def axis_lines(n: int, j: int):
    """The lines along axis j, one per index of the other axes in
    canonical order: the positions (lo, mid, hi) of its three vertices
    and (alo, amid) of its two arrows."""
    out = _LINES_CACHE.get((n, j))
    if out is None:
        vp, ak = vertex_indices(n), arrow_keys(n)
        out = []
        for co in product((-1, 0, 1), repeat=n - 1):
            lo, mid, hi = (co[:j - 1] + (x,) + co[j - 1:] for x in (-1, 0, 1))
            out.append((vp[lo], vp[mid], vp[hi], ak[(j, lo)][0], ak[(j, mid)][0]))
        _LINES_CACHE[(n, j)] = out
    return out


_INTERN = memo.table("cubes.intern")

_new = object.__new__
_set = object.__setattr__


def _seal(cube: "ExactCube", n: int, verts: tuple, arrows: tuple) -> None:
    """Give ``cube`` its parts and its hash.  ``verts`` must list the
    vertices in ``vertex_indices(n)`` order and ``arrows`` the arrows in
    ``arrow_keys(n)`` order, so that the hash, taken from the parts'
    cached hashes in that order, is the same for equal cubes.  A matrix
    whose hash is not cached yet computes it once."""
    _set(cube, "n", n)
    _set(cube, "vertices", verts)
    _set(cube, "arrows", arrows)
    _set(cube, "_hash", hash((n, tuple([o._hash for o in verts]),
                              tuple([m._hash or hash(m) for m in arrows]))))
    _set(cube, "_zero", None)
    _set(cube, "_degen", None)


def _pick(table, keys, what: str) -> tuple:
    """table[k] for each of ``keys`` in order; a missing key raises
    ValueError naming it."""
    try:
        return tuple([table[k] for k in keys])
    except KeyError as e:
        raise ValueError("missing %s %r" % (what, e.args[0])) from None


def _mk(n: int, verts: tuple, arrows: tuple) -> "ExactCube":
    """The interned n-cube owning ``verts`` and ``arrows`` as given, with
    no copy and no check.  Only this module's constructions call it, on
    tuples they have just built in the canonical order of ``_seal``."""
    cube = _new(ExactCube)
    _seal(cube, n, verts, arrows)
    return cube.intern()


def _assemble(n: int, vertex, arrow) -> "ExactCube":
    """The interned n-cube with vertex(a) at each index a.  An arrow with
    a zero-dimensional end is the zero map; every other arrow (k, a) is
    arrow(k, a, dim), dim the dimension at a."""
    verts = tuple([vertex(a) for a in vertex_indices(n)])
    arrows = []
    for (k, a), (_, s, t) in arrow_keys(n).items():
        sd, td = verts[s].dim, verts[t].dim
        arrows.append(arrow(k, a, sd) if sd and td else RatMatrix.zero(td, sd))
    return _mk(n, verts, tuple(arrows))


class ExactCube:
    """An exact n-cube: vertex objects and one arrow per lattice step.

    ``vertices`` is the tuple of MetObj in ``vertex_indices(n)`` order;
    ``arrows`` is the tuple of matrices of the arrows alpha -> alpha + e_j,
    1 <= j <= n and alpha[j-1] in {-1, 0}, in ``arrow_keys(n)`` order.
    ``vertex(alpha)`` and ``arrow(j, alpha)`` read one part by its index.
    The constructor takes the parts as dicts keyed by those indices.
    Equality is structural (all vertices including gram data, and all
    arrow matrices); instances are immutable and hashable.
    """

    __slots__ = ("n", "vertices", "arrows", "_hash", "_zero", "_degen")

    def __init__(self, n: int, vertices, arrows):
        _seal(self, n, _pick(vertices, vertex_indices(n), "vertex"),
              _pick(arrows, arrow_keys(n), "arrow"))

    def __setattr__(self, name, value):
        raise AttributeError("ExactCube is immutable")

    def intern(self) -> "ExactCube":
        """The canonical instance structurally equal to this cube.

        All constructions in this module intern their results, so equality
        between library-produced cubes of one suite run is pointer
        identity; the table is run-scoped (see ``memo``)."""
        bucket = _INTERN.get(self._hash)
        if bucket is None:
            _INTERN[self._hash] = [self]
            return self
        for other in bucket:
            if self._structural_eq(other):
                return other
        bucket.append(self)
        return self

    def _structural_eq(self, other: "ExactCube") -> bool:
        return (self.n == other.n and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ExactCube):
            return NotImplemented
        return self._hash == other._hash and self._structural_eq(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "ExactCube(n=%d)" % self.n

    def vertex(self, alpha) -> MetObj:
        """The object at vertex index alpha."""
        return self.vertices[vertex_indices(self.n)[alpha]]

    def arrow(self, j: int, alpha) -> RatMatrix:
        """The matrix of the arrow alpha -> alpha + e_j."""
        return self.arrows[arrow_keys(self.n)[(j, alpha)][0]]

    def face(self, j: int, i: int) -> "ExactCube":
        return face(self, j, i)

    def is_zero_face(self, j: int, i: int) -> bool:
        """Whether the face (j, i) has only zero vertices; builds no face."""
        verts = self.vertices
        return not any(verts[p].dim for p in _face_table(self.n, j, i)[0])

    # -- structural checks -------------------------------------------

    def validate(self) -> None:
        """Raise ValueError unless the data is a functor on the cube poset
        with short exact edges.  Used in tests and on demand; constructions
        in this module always produce valid cubes."""
        n, verts, arrows = self.n, self.vertices, self.arrows
        for (j, alpha), (p, s, t) in arrow_keys(n).items():
            if arrows[p].cols != verts[s].dim or arrows[p].rows != verts[t].dim:
                raise ValueError("arrow shape mismatch at %r" % ((j, alpha),))
        # commuting squares
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                for alpha in vertex_indices(n):
                    if alpha[j - 1] == 1 or alpha[k - 1] == 1:
                        continue
                    a1 = self.arrow(k, _step(alpha, j)).mul(self.arrow(j, alpha))
                    a2 = self.arrow(j, _step(alpha, k)).mul(self.arrow(k, alpha))
                    if a1 != a2:
                        raise ValueError("non-commuting square at %r, axes %d,%d"
                                         % (alpha, j, k))
        for j in range(1, n + 1):
            for co, (lo, mid, hi, alo, amid) in zip(
                    product((-1, 0, 1), repeat=n - 1), axis_lines(n, j)):
                s = ShortExact(verts[lo], verts[mid], verts[hi],
                               arrows[alo], arrows[amid])
                if not is_short_exact(s):
                    raise ValueError("edge not exact along axis %d at %r"
                                     % (j, co))

    def is_zero_cube(self) -> bool:
        """True iff every vertex is the zero object; identified with the zero
        chain element (the distinguished zero object is preserved by every
        functor, so this is forced on the normalized complex).  Scanned
        once per cube."""
        z = self._zero
        if z is None:
            z = not any(o.dim for o in self.vertices)
            _set(self, "_zero", z)
        return z

    def is_degenerate(self) -> bool:
        """True iff the cube equals s_j^{+1}G or s_j^{-1}G for some axis j.

        Pattern: an axis along which every edge is X --Id--> X -> 0 (sign +1,
        with equal endpoint objects) or 0 -> X --Id--> X (sign -1)."""
        d = self._degen
        if d is None:
            d = self._degeneracy_scan()
            _set(self, "_degen", d)
        return d

    def _degeneracy_scan(self) -> bool:
        return any(degenerate_along(self, j, sign, identity_edge)
                   for j in range(1, self.n + 1) for sign in (1, -1))

    def iso_degenerate_witness(self):
        """Axis witnessing that the cube is isometric to a degenerate one.

        Searches for an axis j such that every edge along j is an
        isomorphism followed by zero (or zero followed by an isomorphism),
        with the isomorphism an isometry between the endpoint metrics
        whenever gram data is present.  Returns (j, sign) or None.
        """
        for j in range(1, self.n + 1):
            for sign in (1, -1):
                if degenerate_along(self, j, sign, _is_isometry):
                    return (j, sign)
        return None


def degenerate_along(cube: ExactCube, j: int, sign: int, edge) -> bool:
    """True iff every line along axis j is X -> Y -> 0 (sign +1) or
    0 -> X -> Y (sign -1) with edge(matrix, X, Y) true of its X -> Y."""
    verts, arrows = cube.vertices, cube.arrows
    for lo, mid, hi, alo, amid in axis_lines(cube.n, j):
        if sign == 1:
            if verts[hi].dim or not edge(arrows[alo], verts[lo], verts[mid]):
                return False
        elif verts[lo].dim or not edge(arrows[amid], verts[mid], verts[hi]):
            return False
    return True


def identity_edge(m: RatMatrix, src: MetObj, dst: MetObj) -> bool:
    """The edge of a degeneracy: equal endpoint objects, identity matrix."""
    return src == dst and m.is_identity()


def _is_isometry(m: RatMatrix, src: MetObj, dst: MetObj) -> bool:
    """Certified isometry test for the cubes this engine produces.

    Requires an invertible matrix; when both grams are present the map must
    identify them up to a rational square scaling (phi = t * m is then a
    literal isometry), which is complete for the scalar-metric functors used
    by the geometry models.
    """
    if src.dim != dst.dim:
        return False
    if src.dim == 0:
        return True
    if not is_invertible(m):
        return False
    if src.gram is None or dst.gram is None:
        return src.gram is None and dst.gram is None
    pulled = m.transpose().mul(dst.gram).mul(m)
    # pulled must equal src.gram up to a square rational factor t^2
    k0 = next(iter(src.gram.num), None)
    if k0 is None:
        return pulled.is_zero()
    w0 = pulled[k0]
    if w0 == 0:
        return False
    s = w0 / src.gram[k0]
    if pulled != src.gram.scale(s):
        return False
    return _is_rational_square(s)


def _is_rational_square(s: Fraction) -> bool:
    if s <= 0:
        return False
    p, q = s.numerator, s.denominator
    return isqrt(p) ** 2 == p and isqrt(q) ** 2 == q


def _step(alpha, j: int):
    return alpha[:j - 1] + (alpha[j - 1] + 1,) + alpha[j:]


# -- elementary constructions ----------------------------------------

def object_cube(obj: MetObj) -> ExactCube:
    """The 0-cube on a single object."""
    return _mk(0, (obj,), ())


def one_cube(left: MetObj, mid: MetObj, right: MetObj,
             inj: RatMatrix, surj: RatMatrix) -> ExactCube:
    return _mk(1, (left, mid, right), (inj, surj))


_FACE_TABLE_CACHE = memo.shape_table("cubes.face_table")


def face(cube: ExactCube, j: int, i: int) -> ExactCube:
    """The face cube with i inserted at axis j: (d_j^i F)_a = F_{a[:j-1], i, a[j-1:]}."""
    return _remap(cube, cube.n - 1, _face_table(cube.n, j, i))


def _face_table(n: int, j: int, i: int):
    """The ``_remap`` table of the face (j, i) of an n-cube."""
    tab = _FACE_TABLE_CACHE.get((n, j, i))
    if tab is None:
        if not 1 <= j <= n:
            raise ValueError("face axis out of range")
        if i not in (-1, 0, 1):
            raise ValueError("face index must be -1, 0 or 1")

        def lift(a):
            return a[:j - 1] + (i,) + a[j - 1:]

        vp, ak = vertex_indices(n), arrow_keys(n)
        tab = (tuple([vp[lift(a)] for a in vertex_indices(n - 1)]),
               tuple([ak[(k if k < j else k + 1, lift(a))][0]
                      for k, a in arrow_keys(n - 1)]))
        _FACE_TABLE_CACHE[(n, j, i)] = tab
    return tab


def _remap(cube: ExactCube, n: int, tab) -> ExactCube:
    """The n-cube taking its vertices and arrows from ``cube`` at the
    source positions of ``tab``, listed in ``vertex_indices(n)`` and
    ``arrow_keys(n)`` order."""
    vsrc, asrc = tab
    v, ar = cube.vertices, cube.arrows
    return _mk(n, tuple([v[p] for p in vsrc]), tuple([ar[p] for p in asrc]))


def degeneracy(cube: ExactCube, j: int, sign: int) -> ExactCube:
    """s_j^{+1} (edge F -> F -> 0) or s_j^{-1} (edge 0 -> F -> F)."""
    n = cube.n
    if not 1 <= j <= n + 1:
        raise ValueError("degeneracy axis out of range")
    if sign not in (1, -1):
        raise ValueError("degeneracy sign must be +-1")

    def vertex(a):
        return ZERO_OBJ if a[j - 1] == sign else cube.vertex(a[:j - 1] + a[j:])

    def arrow(k, a, dim):
        if k == j:
            return RatMatrix.identity(dim)
        return cube.arrow(k if k < j else k - 1, a[:j - 1] + a[j:])

    return _assemble(n + 1, vertex, arrow)


_SYM_TABLE_CACHE = memo.shape_table("cubes.sym_table")


def _sym_table(n: int, sigma: tuple):
    """The ``_remap`` table of the action of sigma on n-cubes."""
    tab = _SYM_TABLE_CACHE.get((n, sigma))
    if tab is None:
        if sorted(sigma) != list(range(1, n + 1)):
            raise ValueError("not a permutation of 1..%d" % n)
        inv = [0] * n
        for i in range(n):
            inv[sigma[i] - 1] = i + 1

        def src(a):
            return tuple(a[sigma[i] - 1] for i in range(n))

        vp, ak = vertex_indices(n), arrow_keys(n)
        tab = (tuple([vp[src(a)] for a in vp]),
               tuple([ak[(inv[k - 1], src(a))][0] for k, a in ak]))
        _SYM_TABLE_CACHE[(n, sigma)] = tab
    return tab


def act_sym(sigma, cube: ExactCube) -> ExactCube:
    """(sigma F)_{a_1..a_n} = F_{a_{sigma(1)},..,a_{sigma(n)}}.

    ``sigma`` is a tuple with sigma[i-1] = sigma(i), 1-based values."""
    n = cube.n
    sigma = tuple(sigma)
    tab = _sym_table(n, sigma)
    if all(sigma[i] == i + 1 for i in range(n)):
        return cube
    out = _remap(cube, n, tab)
    # sigma F is zero or degenerate exactly when F is
    if out._zero is None:
        _set(out, "_zero", cube._zero)
    if out._degen is None:
        _set(out, "_degen", cube._degen)
    return out


def transposition(n: int, p: int):
    """The transposition (p, p+1) as a permutation tuple of 1..n."""
    sigma = list(range(1, n + 1))
    sigma[p - 1], sigma[p] = sigma[p], sigma[p - 1]
    return tuple(sigma)


def tensor_cube(f: ExactCube, g: ExactCube) -> ExactCube:
    """(F (x) G)_{a,b} = F_a (x) G_b, with F's axes first."""
    n = f.n

    def arrow(k, ab, dim):
        a, b = ab[:n], ab[n:]
        if k <= n:
            return f.arrow(k, a).kron(RatMatrix.identity(g.vertex(b).dim))
        return RatMatrix.identity(f.vertex(a).dim).kron(g.arrow(k - n, b))

    return _assemble(n + g.n, lambda ab: tensor_obj(f.vertex(ab[:n]),
                                                    g.vertex(ab[n:])),
                     arrow)


# -- rho and the bigraded homotopies ---------------------------------

_RHO_VERT = {(-1, -1): -1, (-1, 0): -1, (0, -1): -1, (0, 0): 0,
             (0, 1): 1, (1, 0): 1, (1, 1): 1, (-1, 1): None, (1, -1): None}


def rho(cube: ExactCube, j: int) -> ExactCube:
    """The (n+1)-cube duplicating axis j; restricted to axes (j, j+1) it is
    the 2-cube rho of the corresponding edge of the input."""
    n = cube.n
    if not 1 <= j <= n:
        raise ValueError("rho axis out of range")

    def collapse(a):
        w = _RHO_VERT[(a[j - 1], a[j])]
        return None if w is None else a[:j - 1] + (w,) + a[j + 1:]

    def vertex(a):
        src = collapse(a)
        return ZERO_OBJ if src is None else cube.vertex(src)

    def arrow(k, a, dim):
        ca = collapse(a)
        if k not in (j, j + 1):
            return cube.arrow(k if k < j else k - 1, ca)
        # inside the duplicated pair: identity or the original arrow
        if ca == collapse(_step(a, k)):
            return RatMatrix.identity(dim)
        return cube.arrow(j, ca)

    return _assemble(n + 1, vertex, arrow)


# -- chains -----------------------------------------------------------

class CubeChain(FormalSum):
    """A formal Q-linear combination of exact n-cubes in normal form:
    degenerate cubes and zero coefficients are dropped at construction."""

    __slots__ = ("degree",)

    def __init__(self, degree: int, terms=None):
        self.degree = degree
        FormalSum.__init__(self, terms)

    def _normal(self, cube, coeff):
        if cube.n != self.degree:
            raise ValueError("degree mismatch in chain term")
        if cube.is_zero_cube() or cube.is_degenerate():
            return None
        return cube, coeff

    def _like(self, terms: dict) -> "CubeChain":
        out = FormalSum._like(self, terms)
        out.degree = self.degree
        return out

    @staticmethod
    def of(cube: ExactCube, coeff=1) -> "CubeChain":
        return CubeChain(cube.n, [(cube, coeff)])

    @staticmethod
    def zero(degree: int) -> "CubeChain":
        return CubeChain(degree)

    def __eq__(self, other):
        if not isinstance(other, CubeChain):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __add__(self, other: "CubeChain") -> "CubeChain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in chain sum")
        return FormalSum.__add__(self, other)

    def map_cubes(self, fn, degree: int) -> "CubeChain":
        """Linear extension of a cube-level map F -> CubeChain (or cube)
        into degree ``degree``; an image term of another degree raises
        ValueError.  A single cube of coefficient 1 whose image is a chain
        of that degree gives that chain itself, and one whose image is a
        normal cube of that degree gives the one-term chain of it."""
        pairs = [(fn(cube), c) for cube, c in self.terms.items()]
        if len(pairs) == 1 and pairs[0][1] == 1:
            img = pairs[0][0]
            if type(img) is CubeChain:
                if img.degree == degree:
                    return img
            elif img.n == degree and not (img.is_zero_cube()
                                          or img.is_degenerate()):
                out = CubeChain(degree)
                out.terms[img] = 1
                return out
        return CubeChain(degree, linear_terms(pairs, lambda img: img))

    def __repr__(self):
        return "CubeChain(deg=%d, %d terms)" % (self.degree, len(self.terms))


_BOUNDARY_CACHE = memo.table("cubes.boundary")


def boundary_cube(cube: ExactCube) -> CubeChain:
    """Alternating sum of faces: sum_{j,i} (-1)^{i+j} d_j^i.  A face whose
    vertices are all zero is the zero chain, so it is never built."""
    n = cube.n
    if n == 0:
        return CubeChain.zero(-1)
    out = _BOUNDARY_CACHE.get(cube)
    if out is None:
        out = CubeChain(n - 1, [(cube.face(j, i), -1 if (i + j) % 2 else 1)
                                for j in range(1, n + 1) for i in (-1, 0, 1)
                                if not cube.is_zero_face(j, i)])
        _BOUNDARY_CACHE[cube] = out
    return out


def boundary(chain: CubeChain) -> CubeChain:
    if chain.degree == 0:
        return CubeChain.zero(-1)
    return chain.map_cubes(boundary_cube, chain.degree - 1)


def boundary_partial(chain: CubeChain, axes) -> CubeChain:
    """Boundary restricted to the listed axes, with the global signs
    (-1)^{i+j} taken at the axis positions given (1-based, in the ambient
    cube).  Positions are renumbered 1.. within ``axes`` for the signs."""
    return CubeChain(chain.degree - 1, [
        (cube.face(j, i), -c if (i + pos) % 2 else c)
        for cube, c in chain.terms.items()
        for pos, j in enumerate(axes, start=1) for i in (-1, 0, 1)])


_CANONICAL_CACHE = memo.table("cubes.canonical")


def canonical(cube):
    """(R, s): R the canonical member of the cube's orbit under the axis
    action, and Alt(cube) = s Alt(R), with s = +-1, or 0 when Alt kills
    the orbit.  A cube of degree at most 1 (an exact or a glued one) is
    its own orbit.

    Axis j of an n-cube is keyed by its lines (``_axis_key``), which
    permuting the other axes leaves unchanged.  The permutations that sort
    the axes by key differ only inside groups of equal keys; of their
    images the one of least ``_label`` is R, built alone, and s is the
    sign of its permutation.  Two permutations of opposite sign giving R
    mean that an odd permutation fixes the cube: s = 0.  Two distinct
    cubes of one least label (a hash collision) raise ValueError.  Hashes
    of ints and fractions, hence keys and labels, are the same in every
    process."""
    n = cube.n
    if n <= 1:
        return cube, 1
    out = _CANONICAL_CACHE.get(cube)
    if out is None:
        vh = [o._hash for o in cube.vertices]
        ah = [m._hash for m in cube.arrows]
        keys = [_axis_key(vh, ah, n, j) for j in range(1, n + 1)]
        groups = [tuple(g) for _, g in groupby(
            sorted(range(n), key=keys.__getitem__), keys.__getitem__)]
        # each ordering lists the axes by rank; sigma sends an axis to its rank
        orders = [sum(p, ()) for p in product(*map(permutations, groups))]
        sigmas = [tuple([o.index(i) + 1 for i in range(n)]) for o in orders]
        if len(sigmas) > 1:
            labels = [_label(vh, ah, _sym_table(n, sigma)) for sigma in sigmas]
            least = min(labels)
            sigmas = [sigma for sigma, lab in zip(sigmas, labels)
                      if lab == least]
        rep = act_sym(sigmas[0], cube)
        s = perm_sign(sigmas[0])
        for sigma in sigmas[1:]:
            if act_sym(sigma, cube) is not rep:
                raise ValueError("two members of one orbit share a label")
            if perm_sign(sigma) != s:
                s = 0
        out = _CANONICAL_CACHE[cube] = (rep, s)
        _CANONICAL_CACHE.setdefault(rep, (rep, 1 if s else 0))
    return out


def _axis_key(vh: list, ah: list, n: int, j: int) -> list:
    """The part hashes (vertices lo, mid, hi, arrows lo, mid) of the lines
    along axis j, sorted."""
    return sorted([(vh[lo], vh[mid], vh[hi], ah[alo], ah[amid])
                   for lo, mid, hi, alo, amid in axis_lines(n, j)])


def _label(vh: list, ah: list, tab) -> tuple:
    """The part hashes of the permuted cube with position table ``tab``,
    in canonical order; the cube is not built."""
    return [vh[p] for p in tab[0]], [ah[p] for p in tab[1]]


def canonical_terms(chain: CubeChain) -> dict:
    """Alt(chain) as {R: coefficient} over canonical members R (Alt(G) =
    s Alt(R) for G of coefficient c gives c s at R), zero sums dropped."""
    pairs = []
    for cube, c in chain.terms.items():
        rep, s = canonical(cube)
        pairs.append((rep, times(s, c)))
    return _collect({}, pairs)


_ALT_CACHE = memo.table("cubes.alt")


def alt_cube(cube: ExactCube):
    """Alt of one cube: the cube itself in degree <= 1, else the signed
    sum over the symmetric group, (1/n!) sum sgn(sigma) sigma(cube)."""
    n = cube.n
    if n <= 1:
        return cube
    out = _ALT_CACHE.get(cube)
    if out is None:
        perms = list(permutations(range(1, n + 1)))
        out = _ALT_CACHE[cube] = CubeChain(n, [
            (act_sym(sigma, cube), Fraction(perm_sign(sigma), len(perms)))
            for sigma in perms])
    return out


def alt(chain: CubeChain) -> CubeChain:
    """Alt_n(x) = (1/n!) sum_sigma sgn(sigma) sigma(x)."""
    n = chain.degree
    if n <= 1:
        return chain
    return chain.map_cubes(alt_cube, n)


def phi_homotopy(n: int, m: int, chain: CubeChain) -> CubeChain:
    """Phi_{n,m} = (-1)^{n+1} rho_{n+m, n+1} on chains in bidegree (n, m)."""
    if m < 1:
        raise ValueError("phi needs second-block degree >= 1")
    if chain.degree != n + m:
        raise ValueError("chain degree disagrees with bidegree")
    sgn = -1 if n % 2 == 0 else 1
    return chain.map_cubes(lambda cu: rho(cu, n + 1), n + m + 1).scale(sgn)


def psi_homotopy(n: int, m: int, chain: CubeChain) -> CubeChain:
    """Psi_{n,m} = -rho_{n+m, n} on chains in bidegree (n, m)."""
    if n < 1:
        raise ValueError("psi needs first-block degree >= 1")
    if chain.degree != n + m:
        raise ValueError("chain degree disagrees with bidegree")
    return chain.map_cubes(lambda cu: rho(cu, n), n + m + 1).scale(-1)


def alt_block(chain: CubeChain, k: int) -> CubeChain:
    """Alternation over the symmetric group of the first k axes only."""
    if k <= 1:
        return chain
    perms = list(permutations(range(1, k + 1)))
    coeff = Fraction(1, len(perms))
    n = chain.degree
    rest = tuple(range(k + 1, n + 1))

    def terms():
        for sig in perms:
            full, w = sig + rest, coeff * perm_sign(sig)
            for cu, c in chain.terms.items():
                yield act_sym(full, cu), w * c

    return CubeChain(n, terms())


# -- exact functors ---------------------------------------------------

_FUNCTOR_OBJ_CACHE = memo.table("cubes.functor_obj")
_FUNCTOR_CUBE_CACHE = memo.table("cubes.functor_cube")


class ExactFunctor:
    """An exact functor of the geometry models: the identity (``obj`` is
    None) or tensoring by the fixed object ``obj``.  Both preserve the zero
    object, exactness and metrics."""

    __slots__ = ("obj", "_hash")

    def __init__(self, obj):
        object.__setattr__(self, "obj", obj)
        # the identity hashes as a constant, so the hash is the same in
        # every process (hash(None) is an address)
        object.__setattr__(self, "_hash", hash(0 if obj is None else obj))

    def __setattr__(self, name, value):
        raise AttributeError("ExactFunctor is immutable")

    @staticmethod
    def identity() -> "ExactFunctor":
        return ExactFunctor(None)

    @staticmethod
    def tensor_by(obj: MetObj) -> "ExactFunctor":
        return ExactFunctor(obj)

    def on_obj(self, x: MetObj) -> MetObj:
        if self.obj is None:
            return x
        key = (self, x)
        out = _FUNCTOR_OBJ_CACHE.get(key)
        if out is None:
            out = _FUNCTOR_OBJ_CACHE[key] = tensor_obj(self.obj, x)
        return out

    def on_map(self, mat: RatMatrix) -> RatMatrix:
        # tensoring by a 1-dimensional object leaves every matrix as it is
        if self.obj is None or self.obj.dim == 1:
            return mat
        return RatMatrix.identity(self.obj.dim).kron(mat)

    def on_cube(self, cube: ExactCube) -> ExactCube:
        if self.obj is None:
            return cube
        key = (self, cube)
        out = _FUNCTOR_CUBE_CACHE.get(key)
        if out is None:
            out = _FUNCTOR_CUBE_CACHE[key] = self._image(cube)
        return out

    def _image(self, cube: ExactCube) -> ExactCube:
        return _mk(cube.n, tuple([self.on_obj(o) for o in cube.vertices]),
                   tuple([self.on_map(m) for m in cube.arrows]))

    def __eq__(self, other):
        if not isinstance(other, ExactFunctor):
            return NotImplemented
        return self.obj == other.obj

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "ExactFunctor(%r)" % (self.obj,)


# -- composite pullback cubes ------------------------------------------

class PullbackWord:
    """A word of r composable morphisms, prepared for ``composite_pullback``.

    It keeps the pullback functors of the composites of all contiguous
    groups lo..hi of the word, listed by lo and then by hi; a composite
    pullback cube depends on nothing else, so words with equal functors
    are equal.  Each morphism must provide ``compose(earlier)`` returning
    the composite self o earlier, and ``functor()`` returning its pullback
    ExactFunctor; a composite depends only on its two ends."""

    __slots__ = ("r", "functors", "_hash")

    def __init__(self, morphisms):
        r = len(morphisms)
        if r == 0:
            raise ValueError("empty morphism word")
        functors = []
        for lo in range(r):
            mor = morphisms[lo]
            functors.append(mor.functor())
            for hi in range(lo + 1, r):
                mor = morphisms[hi].compose(mor)
                functors.append(mor.functor())
        self._init(r, tuple(functors))

    def _init(self, r: int, functors: tuple) -> None:
        self.r = r
        self.functors = functors
        self._hash = hash(functors)

    def group(self, lo: int, hi: int) -> ExactFunctor:
        """The functor of the composite of morphisms lo..hi (0-based)."""
        return self.functors[lo * self.r - lo * (lo - 1) // 2 + hi - lo]

    def _regroup(self, spans) -> "PullbackWord":
        # the word whose morphism i is the composite of spans[i] = (lo, hi)
        k = len(spans)
        out = PullbackWord.__new__(PullbackWord)
        out._init(k, tuple([self.group(spans[a][0], spans[b][1])
                           for a in range(k) for b in range(a, k)]))
        return out

    def split(self, j: int):
        """The words of the first j morphisms and of the rest."""
        return (self._regroup([(i, i) for i in range(j)]),
                self._regroup([(i, i) for i in range(j, self.r)]))

    def merge(self, j: int) -> "PullbackWord":
        """The word with morphisms j-1 and j (0-based) composed into one."""
        return self._regroup([(i, i) for i in range(j - 1)] + [(j - 1, j)]
                             + [(i, i) for i in range(j + 1, self.r)])

    def __len__(self):
        return self.r

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PullbackWord):
            return NotImplemented
        return self._hash == other._hash and self.functors == other.functors

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "PullbackWord(r=%d)" % self.r


_PULLBACK_CACHE = memo.table("cubes.pullback")


def composite_pullback(word: PullbackWord, cube: ExactCube) -> ExactCube:
    """The (n+r-1)-cube of a prepared word of r composable morphisms
    applied to an n-cube, with the word axes first.

    Vertices group the word by the positions of -1 as in the defining case
    formula; each group is pulled back through the functor of its composite
    morphism, and all connecting arrows are identity matrices or zero maps:
    the cube is a ``_stack``.  The memo is keyed by the word, that is by
    its group functors, and the cube.
    """
    key = (word, cube)
    out = _PULLBACK_CACHE.get(key)
    if out is None:
        out = _build_pullback(word, cube)
        _PULLBACK_CACHE[key] = out
    return out


def _stars(word: PullbackWord, wpart):
    """The word cut before each position where ``wpart`` holds -1: the
    functor of each group, in the order they act (the last group first)."""
    cuts = [j + 1 for j, x in enumerate(wpart) if x == -1]
    out = []
    lo = 0
    for b in cuts + [len(wpart) + 1]:
        out.append(word.group(lo, b - 1))
        lo = b
    out.reverse()
    return out


def _build_pullback(word: PullbackWord, cube: ExactCube) -> ExactCube:
    """The pullback cube: word parts holding a +1 are zero, the others
    pull the whole of ``cube`` back through the functors of their groups."""
    if word.r == 1:
        # the pullback table keeps this cube already
        f = word.functors[0]
        return cube if f.obj is None else f._image(cube)
    w = word.r - 1
    return _stack(w, cube.n, [None if 1 in wp else (cube, _stars(word, wp))
                              for wp in vertex_indices(w)])


def _stack(w: int, n: int, parts) -> ExactCube:
    """The (w+n)-cube gathered by position from one part per index wp of w
    word axes, in ``vertex_indices(w)`` order: None for a zero part, or
    (cube, functors) for the n-cube ``cube`` pulled back through each of
    ``functors`` in turn.  The vertex (wp, alpha) sits at pos(wp) * 3^n +
    pos(alpha).  Word-axis arrows are identities, base axis j takes each
    part's block of axis-j arrows, and an arrow with a zero-dimensional
    end is the zero map."""
    size = 3 ** n
    verts = []
    for part in parts:
        if part is None:
            verts += [ZERO_OBJ] * size
            continue
        cube, fs = part
        for v in cube.vertices:
            for f in fs:
                v = f.on_obj(v)
            verts.append(v)
    identity, zero = RatMatrix.identity, RatMatrix.zero
    arrows = []
    # word axes: natural isomorphisms between the parts, identity matrices
    for _, ws, wt in arrow_keys(w).values():
        for s, t in zip(range(ws * size, ws * size + size),
                        range(wt * size, wt * size + size)):
            sd, td = verts[s].dim, verts[t].dim
            arrows.append(identity(sd) if sd and td else zero(td, sd))
    # base axis j: the block of each part's axis-j arrows, part by part
    ends = list(arrow_keys(n).values())
    block = len(ends) // n if n else 0
    for j in range(n):
        axis = range(j * block, j * block + block)
        for off, part in zip(range(0, len(verts), size), parts):
            if part is None:
                arrows += [zero(0, 0)] * block
                continue
            cube, fs = part
            for p in axis:
                _, s, t = ends[p]
                sd, td = verts[off + s].dim, verts[off + t].dim
                if sd and td:
                    m = cube.arrows[p]
                    for f in fs:
                        m = f.on_map(m)
                    arrows.append(m)
                else:
                    arrows.append(zero(td, sd))
    return _mk(w + n, tuple(verts), tuple(arrows))


# -- bracket cubes ------------------------------------------------------

def bracket_cube(cubes) -> ExactCube:
    """The (n+l)-cube of an isomorphism chain F_0 ~ F_1 ~ ... ~ F_l of
    n-cubes with equal vertex dimensions, bracket axes first.

    Every isomorphism is the identity matrix.  The bracket index beta
    holds F_{l-j}, j the last position of -1 in beta (0 if there is
    none), or zero if beta holds a +1: the cube is a ``_stack``."""
    l = len(cubes) - 1
    if l < 0:
        raise ValueError("empty isomorphism chain")
    if l == 0:
        return cubes[0]
    n = cubes[0].n
    if any(c.n != n for c in cubes):
        raise ValueError("chain members of unequal degree")
    if len({tuple([o.dim for o in c.vertices]) for c in cubes}) > 1:
        raise ValueError("chain members of unequal vertex dimensions")
    parts = []
    for beta in vertex_indices(l):
        j = max([p + 1 for p, x in enumerate(beta) if x == -1], default=0)
        parts.append(None if 1 in beta else (cubes[l - j], ()))
    return _stack(l, n, parts)
