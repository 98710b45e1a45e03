"""Exact cubes of rational vector spaces and their chain complex.

An exact n-cube is a functor {-1,0,1}^n -> (MetObj, rational matrices)
whose edges are all short exact sequences.  The chain groups are formal
Q-linear combinations of such cubes, normalized by dropping degenerate
summands.  This module carries faces, degeneracies, the boundary, the
symmetric-group action and the Alt projector, the duplication construction
rho with its two contracting homotopies, composite pullback cubes along
words of morphisms, and the bracket cubes of isomorphism chains.

Index conventions: a vertex index alpha is a tuple over {-1,0,1}; axis
numbers are 1-based in the public API, matching the face operators
``face(F, j, i)``.  Arrows are stored one per unit step alpha -> alpha'
with alpha'_j = alpha_j + 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from . import memo
from .exactlin import (MetObj, RatMatrix, ZERO_OBJ, is_invertible,
                       tensor_map, tensor_obj)
from .signs import perm_sign


_VIDX_CACHE = memo.table("cubes.vidx")


def vertex_indices(n: int):
    out = _VIDX_CACHE.get(n)
    if out is None:
        out = list(product((-1, 0, 1), repeat=n))
        _VIDX_CACHE[n] = out
    return out


_ARROW_KEYS_CACHE = memo.table("cubes.arrow_keys")


def arrow_keys(n: int):
    out = _ARROW_KEYS_CACHE.get(n)
    if out is None:
        out = [(j, a) for j in range(1, n + 1) for a in vertex_indices(n)
               if a[j - 1] != 1]
        _ARROW_KEYS_CACHE[n] = out
    return out


_EMPTY = RatMatrix(0, 0)

_INTERN = memo.table("cubes.intern")


def _mk(n, verts, arrows) -> "ExactCube":
    return ExactCube(n, verts, arrows).intern()


class ExactCube:
    """An exact n-cube: vertex objects and one arrow per lattice step.

    ``vertices`` maps alpha -> MetObj; ``arrows`` maps (j, alpha) with
    1 <= j <= n and alpha[j-1] in {-1, 0} to the matrix of the arrow
    alpha -> alpha + e_j.  Equality is structural (all vertices including
    gram data, and all arrow matrices); instances are immutable and
    hashable.
    """

    __slots__ = ("n", "vertices", "arrows", "_hash", "_degen")

    def __init__(self, n: int, vertices, arrows):
        object.__setattr__(self, "n", n)
        verts = dict(vertices)
        arrs = dict(arrows)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "arrows", arrs)
        vkey = tuple(verts[a]._hash for a in vertex_indices(n))
        akey = tuple(hash(arrs[k]) for k in arrow_keys(n))
        object.__setattr__(self, "_hash", hash((n, vkey, akey)))
        object.__setattr__(self, "_degen", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExactCube is immutable")

    def intern(self) -> "ExactCube":
        """The canonical instance structurally equal to this cube.

        All constructions in this module intern their results, so equality
        between library-produced cubes is pointer identity."""
        bucket = _INTERN.setdefault(self._hash, [])
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
        return self.vertices[tuple(alpha)]

    def face(self, j: int, i: int) -> "ExactCube":
        return face(self, j, i)

    def act(self, sigma) -> "ExactCube":
        return act_sym(sigma, self)

    def arrow(self, j: int, alpha) -> RatMatrix:
        return self.arrows[(j, tuple(alpha))]

    # -- structural checks -------------------------------------------

    def validate(self, exactness: bool = True) -> None:
        """Raise ValueError unless the data is a functor on the cube poset
        with (optionally) short exact edges.  Used in tests and on demand;
        constructions in this module always produce valid cubes."""
        from .exactlin import ShortExact, is_short_exact
        n = self.n
        for alpha in vertex_indices(n):
            if alpha not in self.vertices:
                raise ValueError("missing vertex %r" % (alpha,))
        for j in range(1, n + 1):
            for alpha in vertex_indices(n):
                if alpha[j - 1] == 1:
                    continue
                m = self.arrows.get((j, alpha))
                if m is None:
                    raise ValueError("missing arrow %r" % ((j, alpha),))
                src = self.vertices[alpha]
                dst = self.vertices[_step(alpha, j)]
                if m.cols != src.dim or m.rows != dst.dim:
                    raise ValueError("arrow shape mismatch at %r" % ((j, alpha),))
        # commuting squares
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                for alpha in vertex_indices(n):
                    if alpha[j - 1] == 1 or alpha[k - 1] == 1:
                        continue
                    a1 = self.arrows[(k, _step(alpha, j))].mul(self.arrows[(j, alpha)])
                    a2 = self.arrows[(j, _step(alpha, k))].mul(self.arrows[(k, alpha)])
                    if a1 != a2:
                        raise ValueError("non-commuting square at %r, axes %d,%d"
                                         % (alpha, j, k))
        if exactness:
            for j in range(1, n + 1):
                for co in product((-1, 0, 1), repeat=n - 1):
                    lo = co[:j - 1] + (-1,) + co[j - 1:]
                    mid = co[:j - 1] + (0,) + co[j - 1:]
                    s = ShortExact(self.vertices[lo], self.vertices[mid],
                                   self.vertices[co[:j - 1] + (1,) + co[j - 1:]],
                                   self.arrows[(j, lo)], self.arrows[(j, mid)])
                    if not is_short_exact(s):
                        raise ValueError("edge not exact along axis %d at %r" % (j, co))

    def is_zero_cube(self) -> bool:
        """True iff every vertex is the zero object; identified with the zero
        chain element (the distinguished zero object is preserved by every
        functor, so this is forced on the normalized complex)."""
        return all(o.dim == 0 for o in self.vertices.values())

    def is_degenerate(self) -> bool:
        """True iff the cube equals s_j^{+1}G or s_j^{-1}G for some axis j.

        Pattern: an axis along which every edge is X --Id--> X -> 0 (sign +1,
        with equal endpoint objects) or 0 -> X --Id--> X (sign -1)."""
        d = self._degen
        if d is None:
            d = self._degeneracy_scan()
            object.__setattr__(self, "_degen", d)
        return d

    def _degeneracy_scan(self) -> bool:
        n = self.n
        for j in range(1, n + 1):
            ok_plus = True
            ok_minus = True
            for co in product((-1, 0, 1), repeat=n - 1):
                lo = co[:j - 1] + (-1,) + co[j - 1:]
                mid = co[:j - 1] + (0,) + co[j - 1:]
                hi = co[:j - 1] + (1,) + co[j - 1:]
                if ok_plus:
                    if (self.vertices[hi].dim != 0
                            or self.vertices[lo] != self.vertices[mid]
                            or not self.arrows[(j, lo)].is_identity()):
                        ok_plus = False
                if ok_minus:
                    if (self.vertices[lo].dim != 0
                            or self.vertices[mid] != self.vertices[hi]
                            or not self.arrows[(j, mid)].is_identity()):
                        ok_minus = False
                if not ok_plus and not ok_minus:
                    break
            if ok_plus or ok_minus:
                return True
        return False

    def iso_degenerate_witness(self):
        """Axis witnessing that the cube is isometric to a degenerate one.

        Searches for an axis j such that every edge along j is an
        isomorphism followed by zero (or zero followed by an isomorphism),
        with the isomorphism an isometry between the endpoint metrics
        whenever gram data is present.  Returns (j, sign) or None.
        """
        n = self.n
        for j in range(1, n + 1):
            for sign in (1, -1):
                if self._iso_degen_axis(j, sign):
                    return (j, sign)
        return None

    def _iso_degen_axis(self, j: int, sign: int) -> bool:
        for co in product((-1, 0, 1), repeat=self.n - 1):
            lo = co[:j - 1] + (-1,) + co[j - 1:]
            mid = co[:j - 1] + (0,) + co[j - 1:]
            hi = co[:j - 1] + (1,) + co[j - 1:]
            if sign == 1:
                if self.vertices[hi].dim != 0:
                    return False
                if not _is_isometry(self.arrows[(j, lo)], self.vertices[lo],
                                    self.vertices[mid]):
                    return False
            else:
                if self.vertices[lo].dim != 0:
                    return False
                if not _is_isometry(self.arrows[(j, mid)], self.vertices[mid],
                                    self.vertices[hi]):
                    return False
        return True


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
    base = None
    for k, v in src.gram.entries.items():
        base = (k, v)
        break
    if base is None:
        return pulled.is_zero()
    k0, v0 = base
    w0 = pulled[k0]
    if w0 == 0:
        return False
    s = w0 / v0
    if pulled != src.gram.scale(s):
        return False
    return _is_rational_square(s)


def _is_rational_square(s: Fraction) -> bool:
    if s <= 0:
        return False
    from math import isqrt
    p, q = s.numerator, s.denominator
    return isqrt(p) ** 2 == p and isqrt(q) ** 2 == q


def _step(alpha, j: int):
    return alpha[:j - 1] + (alpha[j - 1] + 1,) + alpha[j:]


# -- elementary constructions ----------------------------------------

def zero_cube(n: int) -> ExactCube:
    verts = {a: ZERO_OBJ for a in vertex_indices(n)}
    arrows = {}
    for j in range(1, n + 1):
        for a in vertex_indices(n):
            if a[j - 1] != 1:
                arrows[(j, a)] = _EMPTY
    return _mk(n, verts, arrows)


def object_cube(obj: MetObj) -> ExactCube:
    """The 0-cube on a single object."""
    return _mk(0, {(): obj}, {})


def one_cube(left: MetObj, mid: MetObj, right: MetObj,
             inj: RatMatrix, surj: RatMatrix) -> ExactCube:
    return _mk(1, {(-1,): left, (0,): mid, (1,): right},
                     {(1, (-1,)): inj, (1, (0,)): surj})


def face(cube: ExactCube, j: int, i: int) -> ExactCube:
    """The face cube with i inserted at axis j: (d_j^i F)_a = F_{a[:j-1], i, a[j-1:]}."""
    n = cube.n
    if not 1 <= j <= n:
        raise ValueError("face axis out of range")
    if i not in (-1, 0, 1):
        raise ValueError("face index must be -1, 0 or 1")
    verts = {}
    arrows = {}
    for a in vertex_indices(n - 1):
        big = a[:j - 1] + (i,) + a[j - 1:]
        verts[a] = cube.vertices[big]
        for k in range(1, n):
            if a[k - 1] == 1:
                continue
            kk = k if k < j else k + 1
            arrows[(k, a)] = cube.arrows[(kk, big)]
    return _mk(n - 1, verts, arrows)


def degeneracy(cube: ExactCube, j: int, sign: int) -> ExactCube:
    """s_j^{+1} (edge F -> F -> 0) or s_j^{-1} (edge 0 -> F -> F)."""
    n = cube.n
    if not 1 <= j <= n + 1:
        raise ValueError("degeneracy axis out of range")
    if sign not in (1, -1):
        raise ValueError("degeneracy sign must be +-1")
    verts = {}
    arrows = {}
    for a in vertex_indices(n + 1):
        u = a[j - 1]
        rest = a[:j - 1] + a[j:]
        if (sign == 1 and u == 1) or (sign == -1 and u == -1):
            verts[a] = ZERO_OBJ
        else:
            verts[a] = cube.vertices[rest]
    for a in vertex_indices(n + 1):
        u = a[j - 1]
        rest = a[:j - 1] + a[j:]
        for k in range(1, n + 2):
            if a[k - 1] == 1:
                continue
            src = verts[a]
            dst = verts[_step(a, k)]
            if k == j:
                if src.dim == 0 or dst.dim == 0:
                    arrows[(k, a)] = RatMatrix.zero(dst.dim, src.dim)
                else:
                    arrows[(k, a)] = RatMatrix.identity(src.dim)
            else:
                if src.dim == 0 or dst.dim == 0:
                    arrows[(k, a)] = RatMatrix.zero(dst.dim, src.dim)
                else:
                    kk = k if k < j else k - 1
                    arrows[(k, a)] = cube.arrows[(kk, rest)]
    return _mk(n + 1, verts, arrows)


def cube_to_json(cube: ExactCube) -> dict:
    """JSON form: degree, vertex table keyed by comma-joined indices, and
    one arrow table per axis."""
    verts = {}
    for a, o in cube.vertices.items():
        key = ",".join(str(x) for x in a)
        verts[key] = {"dim": o.dim,
                      "gram": None if o.gram is None else o.gram.to_json_obj()}
    arrows = {}
    for j in range(1, cube.n + 1):
        table = {}
        for a in vertex_indices(cube.n):
            if a[j - 1] == 1:
                continue
            table[",".join(str(x) for x in a)] = \
                cube.arrows[(j, a)].to_json_obj()
        arrows[str(j)] = table
    return {"degree": cube.n, "vertices": verts, "arrows": arrows}


def cube_from_json(obj) -> ExactCube:
    from .exactlin import RatMatrix as _RM
    n = int(obj["degree"])

    def parse_key(key):
        return tuple(int(x) for x in key.split(",")) if key else ()

    verts = {}
    for key, entry in obj["vertices"].items():
        gram = None if entry.get("gram") is None else _RM.from_json_obj(entry["gram"])
        verts[parse_key(key)] = MetObj(int(entry["dim"]), gram, check=False)
    arrows = {}
    for js, table in obj["arrows"].items():
        j = int(js)
        for key, mat in table.items():
            arrows[(j, parse_key(key))] = _RM.from_json_obj(mat)
    return _mk(n, verts, arrows)


_SYM_TABLE_CACHE = memo.table("cubes.sym_table")


def _sym_tables(n: int, sigma: tuple):
    """Precomputed index tables for the axis permutation action."""
    key = (n, sigma)
    tab = _SYM_TABLE_CACHE.get(key)
    if tab is None:
        inv = [0] * n
        for i in range(n):
            inv[sigma[i] - 1] = i + 1
        vtab = []
        atab = []
        for a in vertex_indices(n):
            src = tuple(a[sigma[i] - 1] for i in range(n))
            vtab.append((a, src))
            for k in range(1, n + 1):
                if a[k - 1] != 1:
                    atab.append(((k, a), (inv[k - 1], src)))
        tab = (vtab, atab)
        _SYM_TABLE_CACHE[key] = tab
    return tab


def act_sym(sigma, cube: ExactCube) -> ExactCube:
    """(sigma F)_{a_1..a_n} = F_{a_{sigma(1)},..,a_{sigma(n)}}.

    ``sigma`` is a tuple with sigma[i-1] = sigma(i), 1-based values."""
    n = cube.n
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..%d" % n)
    if all(sigma[i] == i + 1 for i in range(n)):
        return cube
    vtab, atab = _sym_tables(n, sigma)
    cv, ca = cube.vertices, cube.arrows
    verts = {dst: cv[src] for dst, src in vtab}
    arrows = {dst: ca[src] for dst, src in atab}
    return _mk(n, verts, arrows)


def transposition(n: int, p: int):
    """The transposition (p, p+1) as a permutation tuple of 1..n."""
    sigma = list(range(1, n + 1))
    sigma[p - 1], sigma[p] = sigma[p], sigma[p - 1]
    return tuple(sigma)


def tensor_cube(f: ExactCube, g: ExactCube) -> ExactCube:
    """(F (x) G)_{a,b} = F_a (x) G_b, with F's axes first."""
    n, m = f.n, g.n
    verts = {}
    arrows = {}
    for a in vertex_indices(n):
        fa = f.vertices[a]
        ida = RatMatrix.identity(fa.dim)
        for b in vertex_indices(m):
            gb = g.vertices[b]
            ab = a + b
            verts[ab] = tensor_obj(fa, gb)
            for k in range(1, n + 1):
                if a[k - 1] != 1:
                    arrows[(k, ab)] = tensor_map(f.arrows[(k, a)],
                                                 RatMatrix.identity(gb.dim))
            for k in range(1, m + 1):
                if b[k - 1] != 1:
                    arrows[(n + k, ab)] = tensor_map(ida, g.arrows[(k, b)])
    return _mk(n + m, verts, arrows)


# -- rho and the bigraded homotopies ---------------------------------

_RHO_VERT = {(-1, -1): -1, (-1, 0): -1, (0, -1): -1, (0, 0): 0,
             (0, 1): 1, (1, 0): 1, (1, 1): 1, (-1, 1): None, (1, -1): None}


def rho(cube: ExactCube, j: int) -> ExactCube:
    """The (n+1)-cube duplicating axis j; restricted to axes (j, j+1) it is
    the 2-cube rho of the corresponding edge of the input."""
    n = cube.n
    if not 1 <= j <= n:
        raise ValueError("rho axis out of range")
    verts = {}

    def collapse(a):
        uv = (a[j - 1], a[j])
        w = _RHO_VERT[uv]
        if w is None:
            return None
        return a[:j - 1] + (w,) + a[j + 1:]

    for a in vertex_indices(n + 1):
        src = collapse(a)
        verts[a] = ZERO_OBJ if src is None else cube.vertices[src]
    arrows = {}
    for a in vertex_indices(n + 1):
        for k in range(1, n + 2):
            if a[k - 1] == 1:
                continue
            b = _step(a, k)
            sv, dv = verts[a], verts[b]
            if sv.dim == 0 or dv.dim == 0:
                arrows[(k, a)] = RatMatrix.zero(dv.dim, sv.dim)
                continue
            ca, cb = collapse(a), collapse(b)
            if k in (j, j + 1):
                # inside the duplicated pair: identity or the original arrow
                if ca == cb:
                    arrows[(k, a)] = RatMatrix.identity(sv.dim)
                else:
                    arrows[(k, a)] = cube.arrows[(j, ca)]
            else:
                kk = k if k < j else k - 1
                arrows[(k, a)] = cube.arrows[(kk, ca)]
    return _mk(n + 1, verts, arrows)


# -- chains -----------------------------------------------------------

class CubeChain:
    """A formal Q-linear combination of exact n-cubes in normal form:
    degenerate cubes and zero coefficients are dropped at construction."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None, normalize: bool = True):
        self.degree = degree
        clean = {}
        if terms:
            for cube, coeff in (terms.items() if isinstance(terms, dict) else terms):
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                if cube.n != degree:
                    raise ValueError("degree mismatch in chain term")
                if normalize and (cube.is_zero_cube() or cube.is_degenerate()):
                    continue
                s = clean.get(cube, 0) + coeff
                if s == 0:
                    clean.pop(cube, None)
                else:
                    clean[cube] = s
        self.terms = clean

    @staticmethod
    def of(cube: ExactCube, coeff=1) -> "CubeChain":
        return CubeChain(cube.n, [(cube, Fraction(coeff))])

    @staticmethod
    def zero(degree: int) -> "CubeChain":
        return CubeChain(degree)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, CubeChain):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        raise TypeError("CubeChain is not hashable")

    def __add__(self, other: "CubeChain") -> "CubeChain":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.degree != other.degree:
            raise ValueError("degree mismatch in chain sum")
        terms = dict(self.terms)
        for cube, c in other.terms.items():
            s = terms.get(cube, 0) + c
            if s == 0:
                terms.pop(cube, None)
            else:
                terms[cube] = s
        out = CubeChain(self.degree)
        out.terms = terms
        return out

    def __sub__(self, other: "CubeChain") -> "CubeChain":
        return self + other.scale(-1)

    def __neg__(self) -> "CubeChain":
        return self.scale(-1)

    def scale(self, a) -> "CubeChain":
        a = Fraction(a)
        out = CubeChain(self.degree)
        if a != 0:
            out.terms = {cube: a * c for cube, c in self.terms.items()}
        return out

    def map_cubes(self, fn, degree: int) -> "CubeChain":
        """Linear extension of a cube-level map F -> CubeChain (or cube)."""
        acc = CubeChain.zero(degree)
        for cube, c in self.terms.items():
            img = fn(cube)
            if not isinstance(img, CubeChain):
                img = CubeChain.of(img)
            acc = acc + img.scale(c)
        return acc

    def __repr__(self):
        return "CubeChain(deg=%d, %d terms)" % (self.degree, len(self.terms))


_BOUNDARY_CACHE = memo.table("cubes.boundary")


def boundary_cube(cube: ExactCube) -> CubeChain:
    """Alternating sum of faces: sum_{j,i} (-1)^{i+j} d_j^i."""
    n = cube.n
    if n == 0:
        return CubeChain.zero(-1)
    hit = _BOUNDARY_CACHE.get(cube)
    if hit is not None:
        return hit
    acc = {}
    for j in range(1, n + 1):
        for i in (-1, 0, 1):
            f = cube.face(j, i)
            if f.is_zero_cube() or f.is_degenerate():
                continue
            sgn = -1 if (i + j) % 2 else 1
            s = acc.get(f, 0) + sgn
            if s == 0:
                acc.pop(f, None)
            else:
                acc[f] = s
    out = CubeChain(n - 1)
    out.terms = acc
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
    deg = chain.degree - 1
    acc = CubeChain.zero(deg)
    for cube, c in chain.terms.items():
        for pos, j in enumerate(axes, start=1):
            for i in (-1, 0, 1):
                f = cube.face(j, i)
                if f.is_zero_cube() or f.is_degenerate():
                    continue
                sgn = -1 if (i + pos) % 2 else 1
                acc = acc + CubeChain.of(f, c * sgn)
    return acc


_ALT_CACHE = memo.table("cubes.alt")


def _alt_of_cube(cube: ExactCube) -> CubeChain:
    out = _ALT_CACHE.get(cube)
    if out is None:
        n = cube.n
        perms = list(permutations(range(1, n + 1)))
        coeff = Fraction(1, len(perms))
        terms = {}
        for sigma in perms:
            img = cube.act(sigma)
            if img.is_zero_cube() or img.is_degenerate():
                continue
            s = terms.get(img, 0) + coeff * perm_sign(sigma)
            if s == 0:
                terms.pop(img, None)
            else:
                terms[img] = s
        out = CubeChain(n)
        out.terms = terms
        _ALT_CACHE[cube] = out
    return out


def alt(chain: CubeChain) -> CubeChain:
    """Alt_n(x) = (1/n!) sum_sigma sgn(sigma) sigma(x)."""
    n = chain.degree
    if n <= 1:
        return chain
    acc = CubeChain.zero(n)
    for cube, c in chain.terms.items():
        acc = acc + _alt_of_cube(cube).scale(c)
    return acc


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
    acc = CubeChain.zero(n)
    for sig in perms:
        full = tuple(sig) + tuple(range(k + 1, n + 1))
        sgn = perm_sign(sig)
        acc = acc + chain.map_cubes(lambda cu, s=full: act_sym(s, cu), n).scale(coeff * sgn)
    return acc


# -- exact functors ---------------------------------------------------

_FUNCTOR_OBJ_CACHE = memo.table("cubes.functor_obj")


class ExactFunctor:
    """A word of primitive exact functors; primitives are the identity and
    tensor-by-a-fixed-object.  Composition concatenates words; the zero
    object, exactness and metrics are preserved."""

    __slots__ = ("word", "_hash")

    def __init__(self, word=()):
        word = tuple(o for o in word)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "_hash", hash(("functor", word)))

    def __setattr__(self, name, value):
        raise AttributeError("ExactFunctor is immutable")

    @staticmethod
    def identity() -> "ExactFunctor":
        return ExactFunctor(())

    @staticmethod
    def tensor_by(obj: MetObj) -> "ExactFunctor":
        return ExactFunctor((obj,))

    def compose(self, other: "ExactFunctor") -> "ExactFunctor":
        """self after other (word concatenation)."""
        return ExactFunctor(self.word + other.word)

    def on_obj(self, obj: MetObj) -> MetObj:
        if not self.word:
            return obj
        key = (self, obj)
        out = _FUNCTOR_OBJ_CACHE.get(key)
        if out is None:
            out = obj
            for m in reversed(self.word):
                out = tensor_obj(m, out)
            _FUNCTOR_OBJ_CACHE[key] = out
        return out

    def on_map(self, mat: RatMatrix) -> RatMatrix:
        # tensoring by a 1-dimensional object leaves every matrix as it is
        for m in reversed(self.word):
            if m.dim != 1:
                mat = tensor_map(RatMatrix.identity(m.dim), mat)
        return mat

    def on_cube(self, cube: ExactCube) -> ExactCube:
        if not self.word:
            return cube
        verts = {a: self.on_obj(o) for a, o in cube.vertices.items()}
        arrows = {k: self.on_map(m) for k, m in cube.arrows.items()}
        return _mk(cube.n, verts, arrows)

    def __eq__(self, other):
        if not isinstance(other, ExactFunctor):
            return NotImplemented
        return self.word == other.word

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "ExactFunctor(%d primitives)" % len(self.word)


# -- composite pullback cubes ------------------------------------------

_PULLBACK_CACHE = memo.table("cubes.pullback")


def composite_pullback(morphisms, cube: ExactCube) -> ExactCube:
    """The (n+r-1)-cube of a word of r composable morphisms applied to an
    n-cube, with the word axes first.

    Each morphism must provide ``compose(earlier)`` returning the composite
    self o earlier, and ``functor()`` returning its pullback ExactFunctor.
    Vertices group the word by the positions of -1 as in the defining case
    formula; each group is pulled back through the functor of its composite
    morphism, and all connecting arrows are identity matrices or zero maps.
    The result depends only on the cube and on the functors of the
    composites of all contiguous groups, which key the memo.
    """
    r = len(morphisms)
    if r == 0:
        raise ValueError("empty morphism word")
    groups = {}
    for lo in range(r):
        mor = morphisms[lo]
        groups[(lo, lo)] = mor.functor()
        for hi in range(lo + 1, r):
            mor = morphisms[hi].compose(mor)
            groups[(lo, hi)] = mor.functor()
    key = (tuple(groups.values()), cube)
    out = _PULLBACK_CACHE.get(key)
    if out is None:
        out = _build_pullback(r, groups, cube)
        _PULLBACK_CACHE[key] = out
    return out


def _stars(groups, wpart):
    """The word cut before each position where ``wpart`` holds -1: the
    functor of each group, in the order they act (the last group first)."""
    cuts = [j + 1 for j, x in enumerate(wpart) if x == -1]
    out = []
    lo = 0
    for b in cuts + [len(wpart) + 1]:
        out.append(groups[(lo, b - 1)])
        lo = b
    out.reverse()
    return out


def _build_pullback(r: int, groups, cube: ExactCube) -> ExactCube:
    if r == 1:
        return groups[(0, 0)].on_cube(cube)
    w = r - 1
    n = cube.n
    # word parts holding a +1 sit over zero vertices
    star = {wp: _stars(groups, wp) for wp in vertex_indices(w) if 1 not in wp}
    verts = {}
    arrows = {}
    for a in vertex_indices(w + n):
        fs = star.get(a[:w])
        if fs is None:
            verts[a] = ZERO_OBJ
            continue
        v = cube.vertices[a[w:]]
        for f in fs:
            v = f.on_obj(v)
        verts[a] = v
    for a in vertex_indices(w + n):
        for k in range(1, w + n + 1):
            if a[k - 1] == 1:
                continue
            b = _step(a, k)
            sv, dv = verts[a], verts[b]
            if sv.dim == 0 or dv.dim == 0:
                arrows[(k, a)] = RatMatrix.zero(dv.dim, sv.dim)
            elif k <= w:
                # natural isomorphism between regroupings: identity matrix
                arrows[(k, a)] = RatMatrix.identity(sv.dim)
            else:
                m = cube.arrows[(k - w, a[w:])]
                for f in star[a[:w]]:
                    m = f.on_map(m)
                arrows[(k, a)] = m
    return _mk(w + n, verts, arrows)


# -- bracket cubes ------------------------------------------------------

def bracket_cube(cubes, isos=None) -> ExactCube:
    """The (n+l)-cube of an isomorphism chain F_0 ~ F_1 ~ ... ~ F_l of
    n-cubes, bracket axes first.

    ``isos[p]`` maps a vertex index of the n-cubes to the matrix of the
    isomorphism F_{p-1} -> F_p at that vertex; omitted isos are identities
    (the chain members must then have matching vertex dimensions).
    """
    l = len(cubes) - 1
    if l < 0:
        raise ValueError("empty isomorphism chain")
    if l == 0:
        return cubes[0]
    n = cubes[0].n
    for c in cubes:
        if c.n != n:
            raise ValueError("chain members of unequal degree")

    def iso_step(p, a):
        # matrix of F_{p-1} -> F_p at cube vertex a
        if isos is None or isos[p - 1] is None:
            d = cubes[p - 1].vertices[a].dim
            if cubes[p].vertices[a].dim != d:
                raise ValueError("identity iso between unequal dimensions")
            return RatMatrix.identity(d)
        m = isos[p - 1](a) if callable(isos[p - 1]) else isos[p - 1][a]
        if not is_invertible(m):
            raise ValueError("bracket witness is not an isomorphism")
        return m

    def chain_index(beta):
        # which F_{l-j} sits at bracket index beta (None for a zero vertex)
        if any(x == 1 for x in beta):
            return None
        j = 0
        for pos in range(l, 0, -1):
            if beta[pos - 1] == -1:
                j = pos
                break
        return l - j

    verts = {}
    arrows = {}
    for a in vertex_indices(l + n):
        beta, gamma = a[:l], a[l:]
        ci = chain_index(beta)
        verts[a] = ZERO_OBJ if ci is None else cubes[ci].vertices[gamma]
    for a in vertex_indices(l + n):
        beta, gamma = a[:l], a[l:]
        ci = chain_index(beta)
        for k in range(1, l + n + 1):
            if a[k - 1] == 1:
                continue
            b = _step(a, k)
            sv, dv = verts[a], verts[b]
            if sv.dim == 0 or dv.dim == 0:
                arrows[(k, a)] = RatMatrix.zero(dv.dim, sv.dim)
            elif k <= l:
                cj = chain_index(b[:l])
                m = RatMatrix.identity(sv.dim)
                for p in range(ci + 1, cj + 1):
                    m = iso_step(p, gamma).mul(m)
                arrows[(k, a)] = m
            else:
                arrows[(k, a)] = cubes[ci].arrows[(k - l, gamma)]
    return _mk(l + n, verts, arrows)
