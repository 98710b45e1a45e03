"""Exact rational linear algebra: sparse matrices, ranks, kernels, homology.

Everything is computed over Q exactly; there is no floating point anywhere
in this package, and a matrix given a ``float`` entry or scale factor
raises ``TypeError``.  A matrix is immutable and sparse: a dict (row, col)
-> int of nonzero numerators over one positive int denominator, kept in
lowest terms (the layout of FLINT's ``fmpq_mat``), so products, sums and
Kronecker products are integer loops.  ``items()`` and indexing read the
entries back as ``Fraction``s.  Matrices are hashable so they can sit
inside cube vertices and chain generators.  ``FormalSum`` holds the
arithmetic of formal Q-linear combinations that every chain-like class of
the package shares.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional

from . import memo


def rat_str(x: Fraction) -> str:
    """Render a rational as ``"p/q"`` (or ``"p"`` when q == 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def _exact(v):
    """v as an int, or as a Fraction when it is not an integer; a float,
    whose binary value is rarely the rational meant, is refused."""
    if type(v) is not Fraction:
        if isinstance(v, float):
            raise TypeError("exact rational expected, got float %r" % (v,))
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


_IDENTITY_CACHE = memo.table("exactlin.identity")
_ZERO_CACHE = memo.table("exactlin.zero")


_new = object.__new__
_set = object.__setattr__


def _of(rows: int, cols: int, num: dict, den: int) -> "RatMatrix":
    """The matrix owning ``num`` over ``den`` as given, with no checks: the
    numerators are nonzero, in bounds and in lowest terms with den > 0."""
    m = _new(RatMatrix)
    _set(m, "rows", rows)
    _set(m, "cols", cols)
    _set(m, "num", num)
    _set(m, "den", den)
    _set(m, "_hash", None)
    return m


def _reduced(rows: int, cols: int, num: dict, den: int) -> "RatMatrix":
    """num / den in lowest terms with a positive denominator, for a dict of
    nonzero in-bounds int numerators and a nonzero int den: one gcd pass,
    none when den == 1."""
    if den != 1:
        if den < 0:
            den = -den
            num = {k: -v for k, v in num.items()}
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {k: v // g for k, v in num.items()}
    return _of(rows, cols, num, den)


class RatMatrix:
    """Immutable sparse matrix over Q.

    ``num`` maps (row, col) to the nonzero int numerators and ``den`` is
    the one positive int denominator, with gcd(den, *num) == 1 (the zero
    matrix has den == 1).  Instances are hashable; the hash is computed on
    first use.
    """

    __slots__ = ("rows", "cols", "num", "den", "_hash")

    def __init__(self, rows: int, cols: int, entries: Optional[Mapping] = None):
        """The matrix with the given (row, col) -> value entries: ints,
        Fractions or anything ``Fraction`` reads exactly (not floats)."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        num = {}
        den = 1
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError("entry (%d,%d) out of bounds for %dx%d" % (r, c, rows, cols))
                if type(v) is not int:
                    v = _exact(v)
                    if type(v) is Fraction:
                        den = math.lcm(den, v.denominator)
                if v:
                    num[(r, c)] = v
            if den != 1:
                # each value is in lowest terms and den is the lcm of their
                # denominators, so the numerators share no factor with den
                num = {k: v * den if type(v) is int
                       else v.numerator * (den // v.denominator)
                       for k, v in num.items()}
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "num", num)
        _set(self, "den", den)
        _set(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_num(rows: int, cols: int, num: dict, den: int) -> "RatMatrix":
        """num / den for a dict (row, col) -> int of in-bounds integer
        numerators and a nonzero int den; zero numerators are dropped."""
        return _reduced(rows, cols, {k: v for k, v in num.items() if v}, den)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        m = _IDENTITY_CACHE.get(n)
        if m is None:
            m = RatMatrix(n, n, {(i, i): 1 for i in range(n)})
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

    # -- basic access ------------------------------------------------

    def __getitem__(self, rc) -> Fraction:
        return Fraction(self.num.get(rc, 0), self.den)

    def items(self):
        """The nonzero entries as ((row, col), Fraction) pairs."""
        den = self.den
        for k, v in self.num.items():
            yield k, Fraction(v, den)

    def is_zero(self) -> bool:
        return not self.num

    def is_identity(self) -> bool:
        if self.rows != self.cols or self.den != 1 or len(self.num) != self.rows:
            return False
        return all(self.num.get((i, i)) == 1 for i in range(self.rows))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, RatMatrix):
            return NotImplemented
        h, k = self._hash, other._hash
        if h is not None and k is not None and h != k:
            return False
        return (self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.num == other.num)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.den,
                      frozenset(self.num.items())))
            _set(self, "_hash", h)
        return h

    def __repr__(self):
        return "RatMatrix(%d, %d, %r)" % (self.rows, self.cols, dict(self.items()))

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        a, b = self.den, other.den
        if a == b:
            ent, den, add = dict(self.num), a, other.num.items()
        else:
            g = math.gcd(a, b)
            fa, fb = b // g, a // g
            den = a * fa
            ent = {k: v * fa for k, v in self.num.items()}
            add = ((k, v * fb) for k, v in other.num.items())
        get = ent.get
        for k, v in add:
            w = get(k, 0) + v
            if w:
                ent[k] = w
            else:
                del ent[k]
        return _reduced(self.rows, self.cols, ent, den)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + -other

    def __neg__(self) -> "RatMatrix":
        return _of(self.rows, self.cols,
                   {k: -v for k, v in self.num.items()}, self.den)

    def scale(self, a) -> "RatMatrix":
        a = _exact(a)
        if not a:
            return RatMatrix.zero(self.rows, self.cols)
        if a == 1:
            return self
        if a == -1:
            return -self
        if type(a) is int:
            return _reduced(self.rows, self.cols,
                            {k: a * v for k, v in self.num.items()}, self.den)
        n = a.numerator
        return _reduced(self.rows, self.cols,
                        {k: n * v for k, v in self.num.items()},
                        self.den * a.denominator)

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        by_row = {}
        for (r, c), v in other.num.items():
            by_row.setdefault(r, []).append((c, v))
        acc = {}
        get = acc.get
        for (r, k), v in self.num.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                s = get(key, 0) + v * w
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        return _reduced(self.rows, other.cols, acc, self.den * other.den)

    def transpose(self) -> "RatMatrix":
        return _of(self.cols, self.rows,
                   {(c, r): v for (r, c), v in self.num.items()}, self.den)

    def kron(self, other: "RatMatrix") -> "RatMatrix":
        """Kronecker product in lexicographic basis order (strictly associative)."""
        orows, ocols = other.rows, other.cols
        right = list(other.num.items())
        ent = {}
        for (r1, c1), v1 in self.num.items():
            r0, c0 = r1 * orows, c1 * ocols
            for (r2, c2), v2 in right:
                ent[(r0 + r2, c0 + c2)] = v1 * v2
        return _reduced(self.rows * orows, self.cols * ocols, ent,
                        self.den * other.den)

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ValueError("hstack shape mismatch")
        # over the lcm of two lowest-terms denominators the numerators
        # stay in lowest terms: no gcd pass
        a, b = self.den, other.den
        den = a if a == b else math.lcm(a, b)
        fa, fb, off = den // a, den // b, self.cols
        ent = {k: v * fa for k, v in self.num.items()} if fa != 1 else dict(self.num)
        for (r, c), v in other.num.items():
            ent[(r, c + off)] = v * fb
        return _of(self.rows, self.cols + other.cols, ent, den)


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
            a = _exact(a)
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
            c = _exact(c)
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
    if m.rows == 0 or m.cols == 0 or not m.num:
        return 0
    return _rank_bareiss(m)


def _int_rows(m: RatMatrix):
    """Dense rows of the integer matrix m.den * m, its numerators."""
    a = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.num.items():
        a[r][c] = v
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


def rref(m: RatMatrix):
    """Reduced row echelon form, exactly, on the numerators of m.  Returns
    (a, pivots, p): dense integer rows a and a nonzero int p such that a / p
    is the reduced row echelon form of m, with pivot columns ``pivots``.

    Fraction-free Gauss-Jordan elimination (Montante's form of Bareiss's
    method): each step updates every other row to (p * row - f * pivot_row)
    // prev, a division that is always exact, so every earlier pivot entry
    becomes the new pivot; at the end all pivot entries equal the last
    pivot p.  Rows below the rank are zero.  The reduced form is unique, so
    a / p equals rational Gauss-Jordan elimination.
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
    return a, pivots, prev


def kernel_basis(m: RatMatrix):
    """Basis of ker(m) as a list of column RatMatrix vectors, exactly."""
    a, pivots, p = rref(m)
    pivot_set = set(pivots)
    basis = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        # p * x_fc = p, p * x_pc = -a[r][fc] for the pivot of each row r
        vec = [0] * m.cols
        vec[fc] = p
        for r, pc in enumerate(pivots):
            vec[pc] = -a[r][fc]
        basis.append(_reduced(m.cols, 1, {(i, 0): x for i, x in enumerate(vec) if x}, p))
    return basis


def solve(m: RatMatrix, rhs: RatMatrix):
    """One exact solution x of m @ x = rhs, or None if inconsistent.

    rhs may have several columns; the solution then has the same number.
    """
    if m.rows != rhs.rows:
        raise ValueError("solve shape mismatch")
    a, pivots, p = rref(m.hstack(rhs))
    # inconsistent exactly when a pivot lies in an rhs column (rows below
    # the rank are zero)
    if pivots and pivots[-1] >= m.cols:
        return None
    num = {}
    for r, pc in enumerate(pivots):
        row = a[r]
        for k in range(rhs.cols):
            x = row[m.cols + k]
            if x:
                num[(pc, k)] = x
    return _reduced(m.cols, rhs.cols, num, p)


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
        # a missing gram hashes as a constant, so the hash is the same in
        # every process (hash(None) is an address)
        object.__setattr__(self, "_hash",
                           hash((dim, 0 if gram is None else gram)))

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


ZERO_OBJ = MetObj(0)


def _is_sym_posdef(g: RatMatrix) -> bool:
    if g != g.transpose():
        return False
    # Sylvester: every leading principal minor is positive.  Without row
    # swaps the forward Bareiss pivots are those minors of the integer
    # matrix den * g, whose signs are the same; a zero pivot, where a swap
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


def induced_homology_rank(f: RatMatrix, dn_src: RatMatrix,
                          up_dst: RatMatrix) -> int:
    """Rank of the map induced on homology by a chain map component f.

    dn_src is the source boundary out of the degree at hand and up_dst the
    target boundary into it.
    """
    cycles = kernel_basis(dn_src)
    if not cycles:
        return 0
    img = None
    for v in cycles:
        w = f.mul(v)
        img = w if img is None else img.hstack(w)
    return rank(up_dst.hstack(img)) - rank(up_dst)
