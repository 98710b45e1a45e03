"""Sign calculus of subset divisions: division signatures and b-weights.

The signature of a division K ∐ I = J of a sorted set J is the parity of
the permutation arranging the concatenation (K sorted, I sorted) into J.
Multi-divisions (K_1, ..., K_l, I) generalize this, and the b-weight
b(s_1, ..., s_l) is the alternating tail sum of part sizes controlling
signs in the tensor structure on multi-relative complexes.
"""

from __future__ import annotations

from itertools import combinations, product

from . import memo


def perm_sign(seq) -> int:
    """Parity of the permutation sorting ``seq`` (-1 for an odd number of
    inversions); entries must be distinct.  Every sequence here is short
    (a cube's axes or a geometry's marks), so pairs are compared directly."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        raise ValueError("repeated entries have no parity")
    sgn = 1
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            if a > b:
                sgn = -sgn
    return sgn


def _check_division(parts, J) -> None:
    J = sorted(J)
    seen = set()
    total = 0
    for p in parts:
        sp = set(p)
        if len(sp) != len(p):
            raise ValueError("part with repeated elements")
        if sp & seen:
            raise ValueError("overlapping parts in division")
        seen |= sp
        total += len(p)
    if sorted(seen) != J or total != len(J):
        raise ValueError("parts do not divide the ambient set")


_DIVISION_SIGN_CACHE = memo.shape_table("signs.division")


def sgn_division(K, I, J) -> int:
    """Signature of the division K ∐ I = J, worked out once per division."""
    key = (tuple(K), tuple(I), tuple(J))
    if key not in _DIVISION_SIGN_CACHE:
        _check_division([K, I], J)
        _DIVISION_SIGN_CACHE[key] = perm_sign(sorted(K) + sorted(I))
    return _DIVISION_SIGN_CACHE[key]


def sgn_multidivision(parts, J) -> int:
    """Signature of the multi-division (K_1, ..., K_l, I) of J, the parity of
    the full concatenation of the sorted parts."""
    _check_division(parts, J)
    flat = []
    for p in parts:
        flat.extend(sorted(p))
    return perm_sign(flat)


def b_weight(sizes) -> int:
    """b(s_1, ..., s_l) = s_{l-1} + s_{l-3} + ... ending at s_2 (l odd) or
    s_1 (l even)."""
    sizes = list(sizes)
    if not sizes:
        raise ValueError("b-weight of an empty size list")
    l = len(sizes)
    total = 0
    j = l - 1  # index l-1 in 1-based, i.e. sizes[l-2]
    while j >= 1:
        total += sizes[j - 1]
        j -= 2
    return total


def subsets(universe):
    universe = sorted(universe)
    out = []
    for k in range(len(universe) + 1):
        out.extend(combinations(universe, k))
    return out


def divisions_into(J, npieces, allow_empty=False):
    """All ordered divisions of sorted tuple J into ``npieces`` disjoint parts."""
    J = tuple(sorted(J))
    if npieces == 0:
        return [()] if not J else []
    out = []

    def rec(remaining, acc):
        if len(acc) == npieces:
            if not remaining:
                out.append(tuple(acc))
            return
        pool = tuple(remaining)
        lo = 0 if allow_empty else 1
        for k in range(lo, len(pool) + 1):
            for part in combinations(pool, k):
                rest = tuple(x for x in pool if x not in part)
                rec(rest, acc + [part])

    rec(J, [])
    return out


def check_lemma_2_11(r: int):
    """Exhaustively check the division-signature product identity

        sgn(K I; J) sgn(L L'; K) = sgn(L P; J) sgn(L' I; P)

    over all L ∐ L' ∐ I = J ⊆ {1..r}.  Returns a report dict."""
    universe = list(range(1, r + 1))
    checked = 0
    for J in subsets(universe):
        for L, Lp, I in divisions_into(J, 3, allow_empty=True):
            K = tuple(sorted(L + Lp))
            P = tuple(sorted(Lp + I))
            lhs = sgn_division(K, I, J) * sgn_division(L, Lp, K)
            rhs = sgn_division(L, P, J) * sgn_division(Lp, I, P)
            checked += 1
            if lhs != rhs:
                return {"ok": False, "checked": checked,
                        "counterexample": {"L": L, "Lp": Lp, "I": I, "J": J,
                                           "lhs": lhs, "rhs": rhs}}
    return {"ok": True, "checked": checked}


def check_lemma_9_2(max_size: int, max_parts: int):
    """Exhaustively check the three b-weight identities over part sizes
    1..max_size and 2..max_parts parts.  Returns a report dict."""
    checked = 0
    for l in range(2, max_parts + 1):
        for sizes in product(range(1, max_size + 1), repeat=l):
            sizes = list(sizes)
            b_all = b_weight(sizes)
            # merging two adjacent parts changes b by the head sum, mod 2
            for p in range(1, l):
                merged = sizes[:p - 1] + [sizes[p - 1] + sizes[p]] + sizes[p + 1:]
                val = b_all + b_weight(merged) + sum(sizes[:p])
                checked += 1
                if val % 2 != 0:
                    return {"ok": False, "checked": checked,
                            "counterexample": {"sizes": sizes, "p": p, "identity": "merge"}}
            # dropping the last part: b(s_1..s_l) + b(s_1..s_{l-1}) = m - n - s_l mod 2,
            # where n - m = sum of all sizes
            val = b_all + b_weight(sizes[:-1]) + sum(sizes) + sizes[-1]
            checked += 1
            if val % 2 != 0:
                return {"ok": False, "checked": checked,
                        "counterexample": {"sizes": sizes, "identity": "drop-last"}}
            # dropping the first part: exact identity
            #   b(s_1..s_l) + b(s_2..s_l) = 2 b(s_2..s_l) [+ s_1 when l is even]
            tail = b_weight(sizes[1:])
            if l % 2 == 1:
                ok = b_all + tail == 2 * tail
            else:
                ok = b_all + tail == 2 * tail + sizes[0]
            checked += 1
            if not ok:
                return {"ok": False, "checked": checked,
                        "counterexample": {"sizes": sizes, "identity": "drop-first"}}
    return {"ok": True, "checked": checked}
