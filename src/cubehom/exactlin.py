"""Exact rational linear algebra: sparse matrices, ranks, kernels, homology.

Everything is computed over Q with ``fractions.Fraction``; there is no
floating point anywhere in this package.  Matrices are immutable sparse
maps (row, col) -> Fraction with no stored zeros, hashable so they can sit
inside cube vertices and chain generators.  ``FormalSum`` holds the
arithmetic of formal Q-linear combinations that every chain-like class of
the package shares.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from . import memo

Rat = Fraction


def rat_str(x: Fraction) -> str:
    """Render a rational as ``"p/q"`` (or ``"p"`` when q == 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rat(s) -> Fraction:
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))


_IDENTITY_CACHE = memo.table("exactlin.identity")
_ZERO_CACHE = memo.table("exactlin.zero")


_new = object.__new__
_set = object.__setattr__


class RatMatrix:
    """Immutable sparse matrix over Q.

    Entries are stored in a dict (row, col) -> Fraction holding no explicit
    zeros.  Instances are hashable; the hash is computed on first use.
    """

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows: int, cols: int, entries: Optional[Mapping] = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        clean = {}
        if entries:
            for (r, c), v in entries.items():
                v = Fraction(v)
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError("entry (%d,%d) out of bounds for %dx%d" % (r, c, rows, cols))
                if v != 0:
                    clean[(r, c)] = v
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", clean)
        _set(self, "_hash", None)

    @staticmethod
    def _trusted(rows: int, cols: int, entries: dict) -> "RatMatrix":
        """A matrix owning ``entries`` as given, with no checks.

        Only this module's arithmetic calls it, on a dict it has just built
        whose values are nonzero in-bounds Fractions by construction."""
        m = _new(RatMatrix)
        _set(m, "rows", rows)
        _set(m, "cols", cols)
        _set(m, "entries", entries)
        _set(m, "_hash", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rows(rows_data: Iterable[Iterable]) -> "RatMatrix":
        rows_data = [list(r) for r in rows_data]
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        ent = {}
        for i, row in enumerate(rows_data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                v = Fraction(v)
                if v != 0:
                    ent[(i, j)] = v
        return RatMatrix(rows, cols, ent)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        m = _IDENTITY_CACHE.get(n)
        if m is None:
            m = RatMatrix(n, n, {(i, i): Fraction(1) for i in range(n)})
            _IDENTITY_CACHE[n] = m
        return m

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        """The zero matrix of this shape, one shared instance per shape."""
        key = (rows, cols)
        m = _ZERO_CACHE.get(key)
        if m is None:
            m = RatMatrix(rows, cols)
            _ZERO_CACHE[key] = m
        return m

    @staticmethod
    def column(values: Iterable) -> "RatMatrix":
        vals = [Fraction(v) for v in values]
        return RatMatrix(len(vals), 1, {(i, 0): v for i, v in enumerate(vals) if v != 0})

    # -- basic access ------------------------------------------------

    def __getitem__(self, rc) -> Fraction:
        return self.entries.get(rc, Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def is_identity(self) -> bool:
        if self.rows != self.cols or len(self.entries) != self.rows:
            return False
        return all(self.entries.get((i, i)) == 1 for i in range(self.rows))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, RatMatrix):
            return NotImplemented
        h, k = self._hash, other._hash
        if h is not None and k is not None and h != k:
            return False
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, frozenset(self.entries.items())))
            _set(self, "_hash", h)
        return h

    def __repr__(self):
        return "RatMatrix(%d, %d, %r)" % (self.rows, self.cols, self.entries)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        ent = dict(self.entries)
        for k, v in other.entries.items():
            w = ent.get(k, 0) + v
            if w == 0:
                ent.pop(k, None)
            else:
                ent[k] = w
        return RatMatrix._trusted(self.rows, self.cols, ent)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> "RatMatrix":
        return self.scale(Fraction(-1))

    def scale(self, a) -> "RatMatrix":
        a = Fraction(a)
        if a == 0:
            return RatMatrix.zero(self.rows, self.cols)
        return RatMatrix._trusted(self.rows, self.cols,
                                  {k: a * v for k, v in self.entries.items()})

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        return self.mul(other)

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                s = acc.get(key, 0) + v * w
                if s == 0:
                    acc.pop(key, None)
                else:
                    acc[key] = s
        return RatMatrix._trusted(self.rows, other.cols, acc)

    def transpose(self) -> "RatMatrix":
        return RatMatrix._trusted(self.cols, self.rows,
                                  {(c, r): v for (r, c), v in self.entries.items()})

    def kron(self, other: "RatMatrix") -> "RatMatrix":
        """Kronecker product in lexicographic basis order (strictly associative)."""
        ent = {}
        for (r1, c1), v1 in self.entries.items():
            for (r2, c2), v2 in other.entries.items():
                ent[(r1 * other.rows + r2, c1 * other.cols + c2)] = v1 * v2
        return RatMatrix._trusted(self.rows * other.rows,
                                  self.cols * other.cols, ent)

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ValueError("hstack shape mismatch")
        ent = dict(self.entries)
        for (r, c), v in other.entries.items():
            ent[(r, c + self.cols)] = v
        return RatMatrix._trusted(self.rows, self.cols + other.cols, ent)

    def to_dense(self):
        m = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            m[r][c] = v
        return m

    # -- serialization ----------------------------------------------

    def to_json_obj(self):
        items = sorted(self.entries.items())
        return {"rows": self.rows, "cols": self.cols,
                "entries": [[r, c, rat_str(v)] for (r, c), v in items]}

    @staticmethod
    def from_json_obj(obj) -> "RatMatrix":
        ent = {(int(r), int(c)): parse_rat(v) for r, c, v in obj.get("entries", [])}
        return RatMatrix(int(obj["rows"]), int(obj["cols"]), ent)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @staticmethod
    def from_json(s: str) -> "RatMatrix":
        return RatMatrix.from_json_obj(json.loads(s))


# -- formal sums ----------------------------------------------------

class FormalSum:
    """A formal Q-linear combination of hashable keys in normal form.

    ``terms`` maps keys to nonzero rationals (``Fraction``, or ``int``
    where every contribution was an integer).  The constructor is the one
    collecting accumulator: from a dict or any iterable of (key, coeff)
    pairs it builds one dict, collecting equal keys in first-seen order.
    A subclass fixes its normal form with two hooks: ``_normal(key,
    coeff)`` rewrites one term as a (key, coeff) pair, or returns None to
    drop it, and ``_like(terms)`` makes an element of the same kind owning
    ``terms``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            _collect(clean, terms.items() if isinstance(terms, dict) else terms,
                     self._normal)
        self.terms = clean

    def _normal(self, key, coeff):
        return key, coeff

    def _like(self, terms: dict) -> "FormalSum":
        out = _new(type(self))
        out.terms = terms
        return out

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        return self._like(_collect(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, a):
        if type(a) is not Fraction and type(a) is not int:
            a = Fraction(a)
        if not a:
            return self._like({})
        return self._like({key: times(a, c) for key, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return "%s(%d terms)" % (type(self).__name__, len(self.terms))


def _collect(clean: dict, pairs, normal=None) -> dict:
    """Add each (key, coeff) of ``pairs`` into ``clean`` and return it: a
    new key starts at its coefficient, a key summing to zero is deleted.
    ``normal`` is the ``_normal`` hook, or None for terms already normal."""
    get = clean.get
    for key, c in pairs:
        if type(c) is not Fraction and type(c) is not int:
            c = Fraction(c)
        if not c:
            continue
        if normal is not None:
            kc = normal(key, c)
            if kc is None:
                continue
            key, c = kc
        s = get(key)
        if s is None:
            clean[key] = c
        else:
            s += c
            if s:
                clean[key] = s
            else:
                del clean[key]
    return clean


def times(a, c):
    """The exact product a * c; a factor of +-1 costs no gcd."""
    if a == 1:
        return c
    if a == -1:
        return -c
    return a * c


def linear_terms(pairs, image):
    """The terms of sum_k c * image(k) over the (k, c) of ``pairs``, for
    a FormalSum constructor to collect.  ``image(k)`` is a FormalSum, or a
    single key standing for itself with coefficient 1."""
    for key, c in pairs:
        img = image(key)
        if isinstance(img, FormalSum):
            for k, d in img.terms.items():
                yield k, times(d, c)
        else:
            yield img, c


# -- elimination ----------------------------------------------------

def rank(m: RatMatrix) -> int:
    """Rank over Q, by dense fraction-free (Bareiss) elimination."""
    if m.rows == 0 or m.cols == 0 or not m.entries:
        return 0
    return _rank_bareiss(m)


def _int_rows(m: RatMatrix):
    """Dense rows of m, each scaled by the lcm of its denominators to ints."""
    a = [[0] * m.cols for _ in range(m.rows)]
    by_row = {}
    for (r, c), v in m.entries.items():
        by_row.setdefault(r, []).append((c, v))
    for r, items in by_row.items():
        den = math.lcm(*(v.denominator for _, v in items))
        row = a[r]
        for c, v in items:
            row[c] = v.numerator * (den // v.denominator)
    return a


def _rank_bareiss(m: RatMatrix) -> int:
    # Forward elimination only; rref below has its own loop, so that the
    # exactlin.homology suite can use rref as an independent rank oracle.
    a = _int_rows(m)
    nrows, ncols = len(a), m.cols
    prev = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == nrows:
            break
    return r


_ZERO = Fraction(0)


def rref(m: RatMatrix):
    """Reduced row echelon form (dense, exact). Returns (rows, pivot_cols).

    Fraction-free Gauss-Jordan elimination (Montante's form of Bareiss's
    method): on integer rows, each step updates every other row to
    (p * row - f * pivot_row) // prev, a division that is always exact, so
    all pivot entries stay equal to the latest pivot.  Each pivot row is
    divided by its pivot once, at the end.  The reduced form is unique, so
    the result equals rational Gauss-Jordan elimination.
    """
    a = _int_rows(m)
    nrows, ncols = m.rows, m.cols
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            row = a[i]
            f = row[c]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                a[i] = [x * p // prev for x in row]
        prev = p
        pivots.append(c)
        r += 1
    out = []
    for i, c in enumerate(pivots):
        p = a[i][c]
        out.append([Fraction(x, p) if x else _ZERO for x in a[i]])
    # rows below the rank are zero
    out.extend([_ZERO] * ncols for _ in range(r, nrows))
    return out, pivots


def kernel_basis(m: RatMatrix):
    """Basis of ker(m) as a list of column RatMatrix vectors, exactly."""
    a, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * m.cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -a[r][fc]
        basis.append(RatMatrix.column(vec))
    return basis


def solve(m: RatMatrix, rhs: RatMatrix):
    """One exact solution x of m @ x = rhs, or None if inconsistent.

    rhs may have several columns; the solution then has the same number.
    """
    if m.rows != rhs.rows:
        raise ValueError("solve shape mismatch")
    aug = m.hstack(rhs)
    a, pivots = rref(aug)
    # inconsistent exactly when a pivot lies in an rhs column (rref leaves
    # every row below the rank zero)
    if any(pc >= m.cols for pc in pivots):
        return None
    ent = {}
    for r, pc in enumerate(pivots):
        for k in range(rhs.cols):
            v = a[r][m.cols + k]
            if v != 0:
                ent[(pc, k)] = v
    return RatMatrix._trusted(m.cols, rhs.cols, ent)


def is_invertible(m: RatMatrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def inverse(m: RatMatrix) -> RatMatrix:
    inv = solve(m, RatMatrix.identity(m.rows))
    if inv is None or m.rows != m.cols:
        raise ValueError("matrix is not invertible")
    return inv


# -- MetObj and short exact sequences -------------------------------

class MetObj:
    """A finite-dimensional Q-vector space with an optional rational Gram form.

    The Gram matrix, when present, must be symmetric positive-definite;
    it is the stand-in for a hermitian metric.  Equality is structural
    (dimension and Gram entries).
    """

    __slots__ = ("dim", "gram", "_hash")

    def __init__(self, dim: int, gram: Optional[RatMatrix] = None, check: bool = True):
        if dim < 0:
            raise ValueError("negative dimension")
        if gram is not None:
            if gram.rows != dim or gram.cols != dim:
                raise ValueError("gram shape mismatch")
            if check and not _is_sym_posdef(gram):
                raise ValueError("gram must be symmetric positive-definite")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_hash", hash((dim, gram)))

    def __setattr__(self, name, value):
        raise AttributeError("MetObj is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, MetObj):
            return NotImplemented
        return self.dim == other.dim and self.gram == other.gram

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.gram is None:
            return "MetObj(%d)" % self.dim
        return "MetObj(%d, gram)" % self.dim

    def is_zero(self) -> bool:
        return self.dim == 0


ZERO_OBJ = MetObj(0)


def _is_sym_posdef(g: RatMatrix) -> bool:
    if g != g.transpose():
        return False
    # Sylvester: every leading principal minor is positive.  Without row
    # swaps the forward Bareiss pivots are those minors of the row-scaled
    # integer matrix, whose signs are the same; a zero pivot, where a swap
    # would be needed, is a zero minor (Bareiss, Math. Comp. 22, 1968)
    a = _int_rows(g)
    prev = 1
    for c in range(g.rows):
        piv = a[c][c]
        if piv <= 0:
            return False
        for i in range(c + 1, g.rows):
            for j in range(c + 1, g.rows):
                a[i][j] = (piv * a[i][j] - a[i][c] * a[c][j]) // prev
        prev = piv
    return True


def tensor_obj(a: MetObj, b: MetObj) -> MetObj:
    """Tensor product of objects; strictly associative by the lexicographic
    Kronecker convention.  Gram = Kronecker product when both present."""
    dim = a.dim * b.dim
    if a.gram is not None and b.gram is not None:
        return MetObj(dim, a.gram.kron(b.gram), check=False)
    return MetObj(dim)


def tensor_map(fa: RatMatrix, fb: RatMatrix) -> RatMatrix:
    return fa.kron(fb)


class ShortExact:
    """A short exact sequence left -> mid -> right with explicit matrices."""

    __slots__ = ("left", "mid", "right", "inj", "surj")

    def __init__(self, left: MetObj, mid: MetObj, right: MetObj,
                 inj: RatMatrix, surj: RatMatrix):
        if inj.rows != mid.dim or inj.cols != left.dim:
            raise ValueError("inj shape mismatch")
        if surj.rows != right.dim or surj.cols != mid.dim:
            raise ValueError("surj shape mismatch")
        self.left = left
        self.mid = mid
        self.right = right
        self.inj = inj
        self.surj = surj


def is_short_exact(s: ShortExact) -> bool:
    """True iff inj is injective, surj surjective, and im(inj) = ker(surj)."""
    r_inj = rank(s.inj)
    r_surj = rank(s.surj)
    if r_inj != s.left.dim or r_surj != s.right.dim:
        return False
    if not s.surj.mul(s.inj).is_zero():
        return False
    return r_inj + r_surj == s.mid.dim


def homology_dims(boundaries, n_min: int, n_max: int):
    """Homology dimensions of a chain complex given by boundary matrices.

    ``boundaries[n]`` is the map C_n -> C_{n-1} for n_min < n <= n_max
    (a dict keyed by degree).  Degrees outside carry the zero map.
    Raises ValueError if consecutive boundaries do not compose to zero.
    """
    dims = {}
    for n in range(n_min, n_max + 1):
        up = boundaries.get(n + 1)
        dn = boundaries.get(n)
        if dn is not None:
            cn = dn.cols
        elif up is not None:
            cn = up.rows
        else:
            continue
        if up is not None and dn is not None:
            if dn.cols != up.rows:
                raise ValueError("boundary shapes disagree at degree %d" % n)
            if not dn.mul(up).is_zero():
                raise ValueError("boundaries do not compose to zero at degree %d" % n)
        r_dn = rank(dn) if dn is not None else 0
        r_up = rank(up) if up is not None else 0
        dims[n] = (cn - r_dn) - r_up
    return dims


def induced_homology_rank(f: RatMatrix, dn_src: Optional[RatMatrix],
                          up_src: Optional[RatMatrix],
                          dn_dst: Optional[RatMatrix],
                          up_dst: Optional[RatMatrix]) -> int:
    """Rank of the map induced on homology by a chain map component f.

    dn_*/up_* are the boundary matrices out of / into the degree at hand
    (any may be None for the zero map).
    """
    src_dim = f.cols
    cycles = kernel_basis(dn_src) if dn_src is not None else \
        [RatMatrix.column([1 if i == j else 0 for i in range(src_dim)]) for j in range(src_dim)]
    if not cycles:
        return 0
    img = None
    for v in cycles:
        w = f.mul(v)
        img = w if img is None else img.hstack(w)
    b_dst = up_dst
    if b_dst is None:
        return rank(img)
    return rank(b_dst.hstack(img)) - rank(b_dst)
