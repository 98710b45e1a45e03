"""Named verification suites: seeded, deterministic, exact.

Every suite verifies one identity (or one tight bundle of identities) of
the chain-level machinery, at desk scale, over exact rationals.  A suite
run returns a report dict with one entry per check, sorted by a stable
key; reports are reproducible from the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from . import ccx, double, formalchern, rand, signs, wang
from .cubes import (CubeChain, alt, alt_block, boundary, boundary_partial,
                    bracket_cube, degeneracy, face, object_cube, phi_homotopy,
                    psi_homotopy, rho)
from .exactlin import MetObj, RatMatrix, rank, rref
from .multirel import (GeomView, MorphView, Tower, build_ccomplex,
                       build_homotopy, build_pullback, check_alt_absorption,
                       check_ccomplex_relation, check_cmap_relation,
                       check_cor_2_16, check_homotopy_relation,
                       check_identity_cmap, check_identity_pullback_vanishing,
                       check_xi_boundary, check_xi_f1f2f3_boundary,
                       check_xi_f_boundary, check_xi_fg_boundary, lev_add,
                       lev_alt, lev_boundary, lev_eq, lev_scale, op_F,
                       op_homotopy, op_pullback)
from .tensorstruct import (bracket_pair, check_bracket_boundary,
                           check_phi_s_equals_tensor, op_tensor,
                           op_tensor_homotopy, op_tensor_theta, xi_slot, _pi,
                           _station_levels)


class Check:
    __slots__ = ("key", "ok", "detail")

    def __init__(self, key, ok, detail=None):
        self.key = key
        self.ok = bool(ok)
        self.detail = detail


class Suite:
    def __init__(self, name, claim, runner, defaults):
        self.name = name
        self.claim = claim
        self.runner = runner
        self.defaults = dict(defaults)

    def run(self, **params):
        merged = dict(self.defaults)
        for k, v in params.items():
            if v is not None:
                merged[k] = v
        checks = self.runner(**merged)
        checks.sort(key=lambda c: c.key)
        # a run that checked nothing verified nothing
        ok = bool(checks) and all(c.ok for c in checks)
        report = {
            "suite": self.name,
            "claim": self.claim,
            "params": {k: merged[k] for k in sorted(merged)},
            "ok": ok,
            "counts": {"total": len(checks),
                       "failed": sum(1 for c in checks if not c.ok)},
            "checks": [
                {"key": c.key, "ok": c.ok, **({"detail": _stringify(c.detail)}
                                              if c.detail is not None else {})}
                for c in checks],
        }
        bad = [c for c in checks if not c.ok]
        if bad:
            report["counterexample"] = {"key": bad[0].key,
                                        "detail": _stringify(bad[0].detail)}
        return report


def _stringify(x):
    if isinstance(x, Fraction):
        from .exactlin import rat_str
        return rat_str(x)
    if isinstance(x, dict):
        return {str(k): _stringify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_stringify(v) for v in x]
    if isinstance(x, (int, bool, str)) or x is None:
        return x
    return str(x)


_REGISTRY = {}


def register(name, claim, **defaults):
    def deco(fn):
        _REGISTRY[name] = Suite(name, claim, fn, defaults)
        return fn
    return deco


def suite_names():
    return sorted(_REGISTRY)


def get_suite(name) -> Suite:
    return _REGISTRY[name]


# -- exact linear algebra ------------------------------------------------

@register("exactlin.homology",
          "homology dimensions from sparse elimination match an independent "
          "dense reduced-echelon oracle; tensor products are strictly "
          "associative",
          trials=100, dim=24, seed=0)
def _run_exactlin(trials, dim, seed, **_):
    from .exactlin import homology_dims, tensor_obj
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        cx = rand.rnd_chain_complex(rng, degs=(0, 4), maxdim=max(2, dim // 6))
        got = cx.homology()
        want = {}
        degs = cx.degrees()
        for n in range(min(degs), max(degs) + 1) if degs else []:
            rk_dn = len(rref(cx.d(n))[1])
            rk_up = len(rref(cx.d(n + 1))[1])
            want[n] = cx.dim(n) - rk_dn - rk_up
        checks.append(Check("homology.%03d" % t, got == want,
                            None if got == want else {"got": got, "want": want}))
    for t in range(20):
        a = rand.rnd_metobj(rng, 2, with_gram=True)
        b = rand.rnd_metobj(rng, 2, with_gram=True)
        c = rand.rnd_metobj(rng, 2, with_gram=True)
        lhs = tensor_obj(tensor_obj(a, b), c)
        rhs = tensor_obj(a, tensor_obj(b, c))
        checks.append(Check("tensor-assoc.%03d" % t, lhs == rhs))
    return checks


@register("exactlin.shortexact",
          "generated extensions are short exact: full ranks, zero composite, "
          "and additive middle rank",
          trials=50, seed=0)
def _run_shortexact(trials, seed, **_):
    from .exactlin import ShortExact, is_short_exact
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        cube = rand.rnd_one_cube(rng, max_dim=3)
        s = ShortExact(cube.vertices[(-1,)], cube.vertices[(0,)],
                       cube.vertices[(1,)], cube.arrows[(1, (-1,))],
                       cube.arrows[(1, (0,))])
        ok = is_short_exact(s)
        ok = ok and rank(s.inj) + rank(s.surj) == s.mid.dim
        ok = ok and s.surj.mul(s.inj).is_zero()
        checks.append(Check("extension.%03d" % t, ok))
    return checks


# -- cube chains ----------------------------------------------------------

@register("cubes.boundary-squared",
          "the alternating-sum boundary of normalized cube chains squares "
          "to zero",
          trials=200, dim=3, seed=0)
def _run_dd(trials, dim, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        n = rng.randint(1, 3)
        x = CubeChain.of(rand.rnd_cube(rng, n, max_dim=dim))
        if rng.random() < 0.3:
            x = x + CubeChain.of(rand.rnd_cube(rng, n, max_dim=dim), -2)
        checks.append(Check("ddzero.%03d" % t, boundary(boundary(x)).is_zero()))
    return checks


@register("cubes.duplication-faces",
          "the seven face identities of the axis-duplication cube, its "
          "degeneracy transport, and the double-duplication coincidence",
          trials=100, seed=0)
def _run_rho(trials, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        n = rng.randint(1, 3)
        c = rand.rnd_cube(rng, n)
        ok = True
        for j in range(1, n + 1):
            rc = rho(c, j)
            ok = ok and face(rc, j, 0) == c and face(rc, j + 1, 0) == c
            ok = ok and face(rc, j, -1) == degeneracy(face(c, j, -1), j, 1)
            ok = ok and face(rc, j + 1, -1) == degeneracy(face(c, j, -1), j, 1)
            ok = ok and face(rc, j, 1) == degeneracy(face(c, j, 1), j, -1)
            ok = ok and face(rc, j + 1, 1) == degeneracy(face(c, j, 1), j, -1)
            for k in range(1, n + 2):
                if k < j:
                    ok = ok and all(face(rc, k, i) == rho(face(c, k, i), j - 1)
                                    for i in (-1, 0, 1))
                elif k > j + 1:
                    ok = ok and all(face(rc, k, i) == rho(face(c, k - 1, i), j)
                                    for i in (-1, 0, 1))
        for j in range(1, n):
            ok = ok and rho(rho(c, j), j + 1) == rho(rho(c, j), j)
        ok = ok and rho(degeneracy(c, 1, 1), 2).is_degenerate()
        checks.append(Check("duplication.%03d" % t, ok))
    return checks


@register("cubes.alternation",
          "the signed symmetric-group average is an idempotent chain map and "
          "kills transposition-invariant cubes",
          trials=60, seed=0)
def _run_alt(trials, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        n = rng.randint(1, 3)
        x = CubeChain.of(rand.rnd_cube(rng, n)) \
            + CubeChain.of(rand.rnd_cube(rng, n), Fraction(-3, 2))
        ax = alt(x)
        ok = alt(ax) == ax and boundary(ax) == alt(boundary(x))
        checks.append(Check("alt.%03d" % t, ok))
    for t in range(10):
        c = rand.rnd_cube(rng, 1)
        sym = rho(c, 1)  # symmetric under the transposition by construction
        checks.append(Check("alt-symmetric.%03d" % t,
                            alt(CubeChain.of(sym)).is_zero()))
    return checks


@register("cubes.contraction",
          "the two axis-duplication homotopies contract the bigraded "
          "directions; alternation absorbs them; the telescoped composite "
          "reproduces the alternation",
          trials=40, seed=0)
def _run_contraction(trials, seed, **_):
    rng = random.Random(seed)
    checks = []

    def dprime(ch, nn):
        return boundary_partial(ch, list(range(1, nn + 1)))

    def dsecond(ch, nn, mm):
        return boundary_partial(ch, list(range(nn + 1, nn + mm + 1)))

    for t in range(trials):
        n, m = rng.randint(0, 2), rng.randint(1, 2)
        x = CubeChain.of(rand.rnd_cube(rng, n + m))
        lhs = dprime(phi_homotopy(n, m, x), n + 1)
        if n >= 1:
            lhs = lhs + phi_homotopy(n - 1, m, dprime(x, n))
        checks.append(Check("phi-contracts.%03d" % t, lhs == x))
        n2, m2 = rng.randint(1, 2), rng.randint(0, 2)
        y = CubeChain.of(rand.rnd_cube(rng, n2 + m2))
        lhs2 = dsecond(psi_homotopy(n2, m2, y), n2, m2 + 1)
        if m2 >= 1:
            lhs2 = lhs2 + psi_homotopy(n2, m2 - 1, dsecond(y, n2, m2))
        checks.append(Check("psi-contracts.%03d" % t, lhs2 == y))

    def phi_alt(nn, mm, ch):
        return alt_block(phi_homotopy(nn, mm, ch), nn + 1)

    from .cubes import act_sym
    from itertools import permutations as _perms
    for t in range(trials // 2):
        n, m = rng.randint(0, 2), rng.randint(1, 2)
        x = CubeChain.of(rand.rnd_cube(rng, n + m))
        checks.append(Check("alt-absorbs-phi.%03d" % t,
                            phi_alt(n, m, alt_block(x, n)) == phi_alt(n, m, x)))
        # the first-block action commutes with the duplication homotopy
        cube = next(iter(x.terms))
        ok = True
        for sig in _perms(range(1, n + 1)):
            full_in = tuple(sig) + tuple(range(n + 1, n + m + 1))
            full_out = tuple(sig) + tuple(range(n + 1, n + m + 2))
            ok = ok and act_sym(full_out, rho(cube, n + 1)) == \
                rho(act_sym(full_in, cube), n + 1)
        checks.append(Check("block-action-commutes.%03d" % t, ok))
    for m in (1, 2, 3):
        for t in range(3):
            x = CubeChain.of(rand.rnd_cube(rng, m))
            y = x
            for k in range(m):
                y = phi_alt(k, m - k, y)
                y = dsecond(y, k + 1, m - k)
            sgn = Fraction(-1) ** ((m * (m - 1)) // 2 % 2)
            checks.append(Check("telescope.m%d.%02d" % (m, t),
                                y.scale(sgn) == alt(x)))
    return checks


# -- the sign calculus -----------------------------------------------------

@register("signs.division-product",
          "the division signature satisfies the two-sided refinement "
          "product identity, exhaustively",
          r=6, seed=0)
def _run_lem211(r, seed, **_):
    rep = signs.check_lemma_2_11(r)
    return [Check("division-product.r%d" % r, rep["ok"],
                  rep if not rep["ok"] else {"checked": rep["checked"]})]


@register("signs.b-weight",
          "the alternating tail-sum weight satisfies the merge, drop-last "
          "and drop-first identities, exhaustively",
          dim=4, r=5, seed=0)
def _run_lem92(dim, r, seed, **_):
    rep = signs.check_lemma_9_2(dim, r)
    return [Check("b-weight.s%d.l%d" % (dim, r), rep["ok"],
                  rep if not rep["ok"] else {"checked": rep["checked"]})]


@register("signs.multidivision",
          "the multi-division signature is the product of its successive "
          "two-part refinements, exhaustively",
          r=6, seed=0)
def _run_multidiv(r, seed, **_):
    checks = []
    universe = list(range(1, r + 1))
    bad = 0
    total = 0
    for J in signs.subsets(universe):
        for parts in signs.ordered_divisions(J, max_parts=3):
            total += 1
            sgn = signs.sgn_multidivision(list(parts), J)
            acc = 1
            rest = tuple(sorted(J))
            for p in parts[:-1]:
                tail = tuple(x for x in rest if x not in p)
                acc *= signs.sgn_division(p, tail, rest)
                rest = tail
            if sgn != acc:
                bad += 1
    checks.append(Check("multidivision.r%d" % r, bad == 0,
                        {"checked": total, "failed": bad}))
    return checks


# -- C-complexes ------------------------------------------------------------

@register("ccx.relation",
          "random C-complexes satisfy the connecting-map relation, their "
          "total complexes square to zero, and maps compose functorially",
          trials=50, seed=0)
def _run_ccx(trials, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        a = rand.rnd_ccomplex(rng)
        ok = a.validate()["ok"]
        tot = a.tot()
        try:
            tot.validate()
        except ValueError:
            ok = False
        b = rand.rnd_ccomplex(rng)
        f = rand.rnd_cmap(rng, a, b)
        ok = ok and f.validate()["ok"]
        g = rand.rnd_cmap(rng, b, rand.rnd_ccomplex(rng))
        ok = ok and ccx.compose(g, f).validate()["ok"]
        sh = a.shift(rng.choice([-2, -1, 1, 2]))
        ok = ok and sh.validate()["ok"]
        checks.append(Check("relation.%03d" % t, ok))
    return checks


@register("ccx.cone-section",
          "the cone of a retractable map splits: the section composes with "
          "the projection to the identity minus the retraction, with both "
          "witnessing homotopies valid",
          trials=100, seed=0)
def _run_cone_section(trials, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        a, b, f, g, psi = rand.rnd_retraction(rng)
        ok = f.validate()["ok"] and g.validate()["ok"]
        fg = ccx.compose(f, g)
        ok = ok and psi.validate(ccx.identity_cmap(b), fg)["ok"]
        parts = ccx.simple(f)
        ok = ok and parts.ccx.validate()["ok"]
        t_map, psi1, psi2 = ccx.section_t(parts, f, g, psi)
        ok = ok and t_map.validate()["ok"]
        pt = ccx.compose(parts.proj, t_map)
        idgf = ccx.cmap_add(ccx.identity_cmap(a), ccx.compose(g, f), scale_g=-1)
        ok = ok and pt.comps == idgf.comps
        ok = ok and psi1.validate(ccx.identity_cmap(parts.ccx),
                                  ccx.compose(t_map, parts.proj))["ok"]
        ok = ok and psi2.validate(ccx.zero_cmap(b, parts.ccx),
                                  ccx.compose(t_map, g))["ok"]
        checks.append(Check("section.%03d" % t, ok))
    return checks


@register("ccx.cone-map",
          "a square commuting up to homotopy induces a map of cones making "
          "both triangle squares commute strictly",
          trials=50, seed=0)
def _run_cone_map(trials, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        a, b, ap, bp, f, fp, pa, pb, phi = rand.rnd_exchange_square(rng)
        ok = phi.validate(ccx.compose(pb, f), ccx.compose(fp, pa))["ok"]
        parts, parts_p = ccx.simple(f), ccx.simple(fp)
        ps = ccx.phi_s(parts, parts_p, pa, pb, phi)
        ok = ok and ps.validate()["ok"]
        ok = ok and ccx.compose(pa, parts.proj).comps == \
            ccx.compose(parts_p.proj, ps).comps
        ok = ok and ccx.compose(ps, parts.incl).comps == \
            ccx.compose(parts_p.incl, ccx.cmap_shift(pb, -1)).comps
        checks.append(Check("cone-map.%03d" % t, ok))
    return checks


@register("ccx.second-homotopy",
          "the mediating relation between the two composite homotopies of a "
          "retraction square admits an exact solution, and it induces the "
          "displayed homotopy between the section composites",
          trials=40, seed=0)
def _run_second(trials, seed, **_):
    rng = random.Random(seed)
    checks = []
    produced = 0
    for t in range(trials):
        setup = rand.rnd_second_homotopy_setup(rng)
        if setup is None:
            checks.append(Check("theta.%03d" % t, True, {"skipped": "obstructed"}))
            continue
        produced += 1
        th = setup["theta"]
        ok = ccx.check_second_homotopy(th)["ok"]
        f, g, psi = setup["f"], setup["g"], setup["psi"]
        parts = ccx.simple(f)
        t_map, _, _ = ccx.section_t(parts, f, g, psi)
        ps = ccx.phi_s(parts, parts, setup["phi_a"], setup["phi_b"],
                       setup["h_f"])
        pi = ccx.pi_homotopy(parts, f, th, setup["h_f"], psi, g)
        ok = ok and pi.validate(ccx.compose(ps, t_map),
                                ccx.compose(t_map, setup["phi_a"]))["ok"]
        checks.append(Check("theta.%03d" % t, ok))
    checks.append(Check("theta.produced", produced >= max(1, trials // 2),
                        {"produced": produced}))
    return checks


@register("ccx.shift",
          "index shifts round-trip and commute with total complexes at the "
          "level of graded dimensions",
          trials=30, seed=0)
def _run_shift(trials, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        a = rand.rnd_ccomplex(rng)
        r = rng.choice([-2, -1, 1, 2, 3])
        sh = a.shift(r)
        back = sh.shift(-r)
        ok = sh.validate()["ok"]
        ok = ok and back.complexes.keys() == a.complexes.keys()
        for m in a.indices():
            ok = ok and back.cx(m).dims == a.cx(m).dims
            for n in a.cx(m).degrees():
                ok = ok and back.cx(m).d(n) == a.cx(m).d(n)
        t1, t2 = sh.tot(), a.tot().shift(r)
        for p in set(list(t1.dims) + list(t2.dims)):
            ok = ok and t1.dim(p) == t2.dim(p)
        checks.append(Check("shift.%03d" % t, ok))
    return checks


@register("diagram.simple",
          "the four-complex diagram has a simple complex with square-zero "
          "boundary whose homology fits the expected long sequence when the "
          "middle map is a quasi-isomorphism",
          trials=20, seed=0)
def _run_diagram(trials, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        a2 = rand.rnd_chain_complex(rng, degs=(0, 3))
        # g1: an isomorphism from A2 onto B1 (a fortiori a quasi-isomorphism)
        u = {n: rand.rnd_invertible(rng, a2.dim(n)) for n in a2.degrees()}
        from .exactlin import inverse
        b1 = ccx.ChainComplex(dict(a2.dims),
                              {n: u[n - 1].mul(a2.d(n)).mul(inverse(u[n]))
                               for n in a2.degrees() if a2.dim(n) and a2.dim(n - 1)})
        g1 = {n: u[n] for n in a2.degrees() if a2.dim(n)}
        a1 = rand.rnd_chain_complex(rng, degs=(0, 3))
        b2 = rand.rnd_chain_complex(rng, degs=(0, 3))
        f1 = _rnd_chain_map(rng, a1, b1)
        f2 = _rnd_chain_map(rng, a2, b2)
        sd = ccx.diagram_simple(a1, b1, a2, b2, f1, g1, f2)
        try:
            sd.validate()
            ok = True
        except ValueError:
            ok = False
        rep = ccx.diagram_les_check(a1, b1, a2, b2, f1, g1, f2, (1, 2))
        ok = ok and rep["ok"]
        checks.append(Check("diagram.%03d" % t, ok,
                            None if ok else rep))
    return checks


def _rnd_chain_map(rng, src, dst):
    """A random chain map src -> dst through a degree +1 primitive:
    f = d H + H d is always a chain map."""
    degs = set(list(src.dims) + list(dst.dims))
    h = {n: rand.rnd_matrix(rng, dst.dim(n + 1), src.dim(n), density=0.5)
         for n in degs | {n - 1 for n in degs}}
    out = {}
    for n in degs:
        m = dst.d(n + 1).mul(h[n]) + h[n - 1].mul(src.d(n))
        if not m.is_zero():
            out[n] = m
    return out


# -- multi-relative geometry -----------------------------------------------

def _tower_chain(rng, r, schemes, seed):
    tower = Tower(r=r, schemes=schemes, seed=seed, mode="scalar")
    views = [GeomView(tower, s) for s in range(schemes)]
    return tower, views


def _rnd_level(rng, r, maxsize=None):
    size = rng.randint(0, r if maxsize is None else min(maxsize, r))
    return frozenset(rng.sample(range(1, r + 1), size))


@register("multirel.xi-boundary",
          "the signed pullback-sum operators interchange with the boundary "
          "through division-signed composites",
          trials=50, r=3, seed=0)
def _run_xi_boundary(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, (g,) = _tower_chain(rng, rr, 1, seed * 1000 + t)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        others = [k for k in range(1, rr + 1) if k not in I]
        K = tuple(sorted(rng.sample(others, rng.randint(1, len(others)))))
        deg = 0 if len(K) >= 3 else rng.randint(0, 1 if len(K) == 2 else 2)
        x = CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))
        checks.append(Check("xi.%03d" % t, check_xi_boundary(g, K, I, x),
                            {"K": sorted(K), "I": sorted(I), "deg": deg}))
    return checks


@register("multirel.xi-pullback-boundary",
          "the morphism-inserted pullback-sum operators satisfy their "
          "two-sided boundary interchange",
          trials=50, r=3, seed=0)
def _run_xi_f(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, (g0, g1) = _tower_chain(rng, rr, 2, seed * 1000 + t)
        f = MorphView(g0, g1)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        others = [k for k in range(1, rr + 1) if k not in I]
        K = tuple(sorted(rng.sample(others, rng.randint(0, len(others)))))
        deg = 0 if len(K) >= 2 else rng.randint(0, 1)
        x = CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))
        checks.append(Check("xif.%03d" % t, check_xi_f_boundary(f, K, I, x),
                            {"K": sorted(K), "I": sorted(I), "deg": deg}))
    return checks


@register("multirel.xi-exchange-boundary",
          "the doubly inserted operators mediate between composite and "
          "separate pullbacks in their boundary interchange",
          trials=50, r=3, seed=0)
def _run_xi_fg(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, vs = _tower_chain(rng, rr, 3, seed * 1000 + t)
        f, g = MorphView(vs[0], vs[1]), MorphView(vs[1], vs[2])
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        others = [k for k in range(1, rr + 1) if k not in I]
        kmax = min(len(others), 3 if rr < 3 else 3)
        K = tuple(sorted(rng.sample(others, rng.randint(0, kmax))))
        deg = 0 if len(K) >= 2 else rng.randint(0, 1)
        x = CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))
        checks.append(Check("xifg.%03d" % t,
                            check_xi_fg_boundary(f, g, K, I, x),
                            {"K": sorted(K), "I": sorted(I), "deg": deg}))
    return checks


@register("multirel.xi-triple-boundary",
          "the triply inserted operators satisfy the boundary interchange "
          "with both partial-composite corrections",
          trials=30, r=3, seed=0)
def _run_xi_f3(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, vs = _tower_chain(rng, rr, 4, seed * 1000 + t)
        f1, f2, f3 = (MorphView(vs[0], vs[1]), MorphView(vs[1], vs[2]),
                      MorphView(vs[2], vs[3]))
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        others = [k for k in range(1, rr + 1) if k not in I]
        K = tuple(sorted(rng.sample(others, rng.randint(0, min(2, len(others))))))
        deg = 0 if len(K) >= 2 else rng.randint(0, 1)
        x = CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))
        checks.append(Check("xif3.%03d" % t,
                            check_xi_f1f2f3_boundary(f1, f2, f3, K, I, x),
                            {"K": sorted(K), "I": sorted(I), "deg": deg}))
    return checks


@register("multirel.ccomplex",
          "the level family with its division-signed connecting maps is a "
          "C-complex: generator relations hold and the matrix "
          "materialization passes validation",
          trials=50, r=3, seed=0)
def _run_mr_ccomplex(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, (g,) = _tower_chain(rng, rr, 1, seed * 1000 + t)
        I = _rnd_level(rng, rr, maxsize=max(0, rr - 1))
        deg = rng.randint(0, 1)
        x = {I: CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))}
        rep = check_ccomplex_relation(g, x, len(I), rr)
        ok = rep["ok"]
        if t % 5 == 0:
            model, cc = build_ccomplex(
                g, [(frozenset(), rand.rnd_cube(rng, 1, with_gram=True))])
            ok = ok and cc.validate()["ok"]
            try:
                cc.tot().validate()
            except ValueError:
                ok = False
        checks.append(Check("ccomplex.%03d" % t, ok))
    return checks


@register("multirel.pullback-map",
          "the division-signed pullback of a geometry morphism is a map of "
          "C-complexes, generator-wise and as matrices",
          trials=50, r=3, seed=0)
def _run_mr_pullback(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, (g0, g1) = _tower_chain(rng, rr, 2, seed * 1000 + t)
        f = MorphView(g0, g1)
        I = _rnd_level(rng, rr, maxsize=max(0, rr - 1))
        x = {I: CubeChain.of(rand.rnd_cube(rng, rng.randint(0, 1), with_gram=True))}
        ok = check_cmap_relation(f, x, len(I), rr)["ok"]
        if t % 5 == 0:
            _, _, cmap = build_pullback(
                f, [(frozenset(), rand.rnd_cube(rng, 1, with_gram=True))])
            ok = ok and cmap.validate()["ok"]
        checks.append(Check("pullback.%03d" % t, ok))
    return checks


@register("multirel.composite-homotopy",
          "the doubly inserted operators assemble to a homotopy from the "
          "composite pullback to the composition of pullbacks",
          trials=50, r=3, seed=0)
def _run_mr_homotopy(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, min(r, 2)) if t % 3 else rng.randint(1, r)
        tower, vs = _tower_chain(rng, rr, 3, seed * 1000 + t)
        f, g = MorphView(vs[0], vs[1]), MorphView(vs[1], vs[2])
        h = MorphView(vs[0], vs[2])
        I = _rnd_level(rng, rr, maxsize=max(0, rr - 1))
        deg = 0 if rr >= 3 else rng.randint(0, 1)
        x = {I: CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))}
        ok = check_homotopy_relation(f, g, h, x, len(I), rr)["ok"]
        if t % 10 == 0:
            out = build_homotopy(
                f, g, [(frozenset(), rand.rnd_cube(rng, 1, with_gram=True))])
            ok = ok and out["phi"].validate()["ok"]
            ok = ok and out["f"].validate()["ok"] and out["g"].validate()["ok"]
        checks.append(Check("homotopy.%03d" % t, ok))
    return checks


@register("multirel.alternating",
          "the alternated operators form C-complexes, maps and homotopies "
          "on the alternating subcomplexes, validated as matrices on "
          "projected spans",
          trials=12, r=3, seed=0)
def _run_mr_alt(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, (g,) = _tower_chain(rng, rr, 1, seed * 1000 + t)
        model, cc = build_ccomplex(
            g, [(frozenset(), rand.rnd_cube(rng, 1, with_gram=True))],
            use_alt=True)
        checks.append(Check("alt-ccomplex.%03d" % t, cc.validate()["ok"]))
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, (g0, g1) = _tower_chain(rng, rr, 2, seed * 2000 + t)
        f = MorphView(g0, g1)
        deg = 1 if rr <= 2 else 0
        _, _, cmap = build_pullback(
            f, [(frozenset(), rand.rnd_cube(rng, deg, with_gram=True))],
            use_alt=True)
        checks.append(Check("alt-pullback.%03d" % t, cmap.validate()["ok"]))
    for t in range(max(2, trials // 3)):
        rr = rng.randint(1, 2)
        tower, vs = _tower_chain(rng, rr, 3, seed * 3000 + t)
        f, g = MorphView(vs[0], vs[1]), MorphView(vs[1], vs[2])
        out = build_homotopy(
            f, g, [(frozenset(), rand.rnd_cube(rng, 0, with_gram=True))],
            use_alt=True)
        checks.append(Check("alt-homotopy.%03d" % t, out["phi"].validate()["ok"]))
    return checks


@register("multirel.absorption",
          "alternating before and after a pullback-sum operator agrees with "
          "alternating after alone",
          trials=40, r=3, seed=0)
def _run_absorb(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, (g,) = _tower_chain(rng, rr, 1, seed * 1000 + t)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        others = [k for k in range(1, rr + 1) if k not in I]
        K = tuple(sorted(rng.sample(others, rng.randint(1, min(2, len(others))))))
        deg = rng.randint(1, 2)
        x = CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))
        checks.append(Check("absorb.%03d" % t, check_alt_absorption(g, K, I, x)))
    return checks


@register("multirel.cone-identification",
          "the multi-relative complex coincides with the cone of the last "
          "restriction map after the sign twist on the levels containing "
          "the last mark",
          trials=10, r=3, seed=0)
def _run_cor216(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(2, r) if r >= 2 else 1
        tower, (g,) = _tower_chain(rng, rr, 1, seed * 1000 + t)
        rep = check_cor_2_16(g, [(frozenset(),
                                  rand.rnd_cube(rng, 1, with_gram=True))],
                             use_alt=(t % 3 == 0))
        checks.append(Check("cone-id.%03d" % t, rep["ok"],
                            None if rep["ok"] else rep))
    return checks


@register("multirel.identity-pullback",
          "identity-inserted pullback words are degenerate at the outer "
          "insertion positions, transposition-invariant (hence alternation-"
          "killed) but not degenerate inside, and the identity morphism "
          "pulls back to the identity of the alternating complex",
          trials=100, r=3, seed=0)
def _run_prop220(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower = Tower(r=rr, schemes=2, seed=seed * 1000 + t, mode="scalar",
                      alias=[0, 0])
        X0, X1 = GeomView(tower, 0), GeomView(tower, 1)
        gid = MorphView(X0, X1)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        others = [k for k in range(1, rr + 1) if k not in I]
        K = tuple(sorted(rng.sample(others, rng.randint(1, len(others)))))
        x = CubeChain.of(rand.rnd_cube(rng, 0, with_gram=True))
        rep = check_identity_pullback_vanishing(X0, gid, K, I, x)
        ok = rep["ok"]
        if t % 10 == 0:
            xx = {I: CubeChain.of(rand.rnd_cube(rng, rng.randint(0, 1),
                                                with_gram=True))}
            ok = ok and check_identity_cmap(X0, gid, xx, len(I), rr)["ok"]
        checks.append(Check("identity-words.%03d" % t, ok,
                            None if ok else rep))
    return checks


# -- tensor structure -------------------------------------------------------

@register("tensor.bracket-boundary",
          "the boundary of an alternated bracket of slot functors expands "
          "into drop, merge, axis-exchange and inner-boundary terms with "
          "the stated signs",
          trials=25, r=3, seed=0)
def _run_prop91(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, (g,) = _tower_chain(rng, rr, 1, seed * 1000 + t)
        F = _rnd_pos_obj(rng)
        K = tuple(sorted(rng.sample(range(1, rr + 1),
                                    rng.randint(1, min(rr, 3)))))
        l = rng.randint(1, min(3, len(K)))
        parts = rng.choice(signs.divisions_into(K, l))
        lvls = _station_levels(parts, ())
        slots = [xi_slot(g, parts[p], lvls[p + 1]) for p in range(l)]
        pis = [_pi(g, lvls[p]) for p in range(l + 1)]
        deg = 0 if len(K) >= 3 else rng.randint(0, 1)
        x = CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))
        checks.append(Check("bracket.%03d" % t,
                            check_bracket_boundary(F, slots, pis, x),
                            {"parts": [sorted(p) for p in parts], "deg": deg}))
    # plain bracket cubes of object chains: boundary omits one member
    for t in range(10):
        dims = rng.randint(1, 2)
        cubes = [object_cube(MetObj(dims, rand.rnd_gram(rng, dims), check=False))
                 for _ in range(rng.randint(2, 3))]
        br = bracket_cube(cubes)
        lhs = boundary(CubeChain.of(br))
        rhs = CubeChain.zero(br.n - 1)
        ll = len(cubes) - 1
        for j in range(ll + 1):
            rest = [cubes[i] for i in range(ll + 1) if i != ll - j]
            rhs = rhs + CubeChain.of(bracket_cube(rest), (-1) ** j)
        checks.append(Check("bracket-objects.%03d" % t, lhs == rhs))
    return checks


@register("tensor.cmap",
          "tensoring with a fixed object extends to a map of C-complexes "
          "through division-signed, weight-signed bracket operators",
          trials=30, r=3, seed=0)
def _run_prop93(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, (g,) = _tower_chain(rng, rr, 1, seed * 1000 + t)
        F = _rnd_pos_obj(rng)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        deg = 0 if rr >= 3 and len(I) == 0 else rng.randint(0, 1)
        x = {I: CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))}
        ok = _tensor_cmap_relation(F, g, x, len(I), rr)
        checks.append(Check("tensor-map.%03d" % t, ok,
                            {"I": sorted(I), "deg": deg}))
    return checks


def _rnd_pos_obj(rng):
    d = rng.randint(1, 2)
    return MetObj(d, rand.rnd_gram(rng, d), check=False)


def _tensor_cmap_relation(F, g, x, m, n_max):
    dx = lev_boundary(x)
    for n in range(m, n_max + 1):
        lhs = lev_scale(lev_boundary(op_tensor(F, g, m, n, x)), (-1) ** n)
        for l in range(m, n):
            lhs = lev_add(lhs, op_F(g, l, n, op_tensor(F, g, m, l, x)))
        rhs = lev_scale(op_tensor(F, g, m, n, dx), (-1) ** m) if dx else {}
        for l in range(m + 1, n + 1):
            rhs = lev_add(rhs, op_tensor(F, g, l, n, op_F(g, m, l, x)))
        if not lev_eq(lev_alt(lev_add(lhs, lev_scale(rhs, -1))), {}):
            return False
    return True


@register("tensor.homotopy",
          "the mixed-insertion bracket operators form a homotopy exchanging "
          "the tensor map with a pullback",
          trials=20, r=3, seed=0)
def _run_prop94(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, min(2, r)) if t % 3 else rng.randint(1, r)
        tower, (g0, g1) = _tower_chain(rng, rr, 2, seed * 1000 + t)
        f = MorphView(g0, g1)
        F = _rnd_pos_obj(rng)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        deg = 0 if rr >= 3 else rng.randint(0, 1)
        x = {I: CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))}
        ok = _tensor_homotopy_relation(F, f, x, len(I), rr)
        checks.append(Check("tensor-homotopy.%03d" % t, ok,
                            {"I": sorted(I), "deg": deg}))
    return checks


def _tensor_homotopy_relation(F, f, x, m, n_max):
    dx = lev_boundary(x)
    for n in range(max(m - 1, 0), n_max + 1):
        acc = lev_scale(op_tensor_homotopy(F, f, m, n, dx), (-1) ** m) if dx else {}
        for l in range(m + 1, n + 2):
            acc = lev_add(acc, op_tensor_homotopy(F, f, l, n,
                                                  op_F(f.dst, m, l, x)))
        acc = lev_add(acc, lev_scale(
            lev_boundary(op_tensor_homotopy(F, f, m, n, x)), (-1) ** n))
        for l in range(max(m - 1, 0), n):
            acc = lev_add(acc, op_F(f.src, l, n,
                                    op_tensor_homotopy(F, f, m, l, x)))
        tgt = {}
        for l in range(m, n + 1):
            tgt = lev_add(tgt, op_pullback(f, l, n, op_tensor(F, f.dst, m, l, x)))
            tgt = lev_add(tgt, lev_scale(
                op_tensor(F, f.src, l, n, op_pullback(f, m, l, x)), -1))
        if not lev_eq(lev_alt(lev_add(acc, lev_scale(tgt, -1))), {}):
            return False
    return True


@register("tensor.cone-agreement",
          "the cone-induced tensor map through the sign-twisted "
          "identification agrees with the direct tensor map",
          trials=20, r=3, seed=0)
def _run_prop95(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, (g,) = _tower_chain(rng, rr, 1, seed * 1000 + t)
        F = _rnd_pos_obj(rng)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        deg = 0 if rr >= 3 else rng.randint(0, 1)
        x = {I: CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))}
        rep = check_phi_s_equals_tensor(F, g, x, len(I), rr)
        checks.append(Check("cone-agree.%03d" % t, rep["ok"],
                            None if rep["ok"] else rep))
    return checks


@register("tensor.second-homotopy",
          "for a retraction of geometries the two composite homotopies "
          "between the tensor map and its double pullback are mediated by "
          "the explicit two-insertion bracket operator",
          trials=10, r=2, seed=0)
def _run_prop96(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, min(2, r))
        tower = Tower(r=rr, schemes=3, seed=seed * 1000 + t, mode="scalar",
                      alias=[0, 1, 0])
        X0, T1, X2 = (GeomView(tower, 0), GeomView(tower, 1),
                      GeomView(tower, 2))
        f, g = MorphView(X0, T1), MorphView(T1, X2)
        F = _rnd_pos_obj(rng)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        deg = rng.randint(0, 1) if rr == 1 else 0
        x = {I: CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))}
        ok = _theta_relation(F, f, g, x, len(I), rr)
        checks.append(Check("second-homotopy.%03d" % t, ok,
                            {"I": sorted(I), "deg": deg}))
    return checks


def _theta_relation(F, f, g, x, m, n_max):
    X = g.dst
    dx = lev_boundary(x)
    for n in range(max(m - 2, 0), n_max + 1):
        lhs = lev_scale(lev_boundary(op_tensor_theta(F, f, g, m, n, x)), (-1) ** n)
        for l in range(m, n):
            lhs = lev_add(lhs, op_F(X, l, n, op_tensor_theta(F, f, g, m, l, x)))
        if dx:
            lhs = lev_add(lhs, lev_scale(op_tensor_theta(F, f, g, m, n, dx),
                                         -((-1) ** m)))
        for l in range(m + 1, n + 3):
            lhs = lev_add(lhs, lev_scale(
                op_tensor_theta(F, f, g, l, n, op_F(X, m, l, x)), -1))
        rhs = {}
        for l in range(m, n + 1):
            rhs = lev_add(rhs, op_homotopy(f, g, l, n, op_tensor(F, X, m, l, x)))
            rhs = lev_add(rhs, lev_scale(
                op_tensor_homotopy(F, f, l, n, op_pullback(g, m, l, x)), -1))
            rhs = lev_add(rhs, lev_scale(
                op_pullback(f, l, n, op_tensor_homotopy(F, g, m, l, x)), -1))
            rhs = lev_add(rhs, lev_scale(
                op_tensor(F, X, l, n, op_homotopy(f, g, m, l, x)), -1))
        if not lev_eq(lev_alt(lev_add(lhs, lev_scale(rhs, -1))), {}):
            return False
    return True


@register("tensor.pair-associator",
          "the two-step tensor bracket witnesses associativity: its "
          "boundary is the difference of the two bracketings minus the "
          "bracket of the boundary",
          trials=30, seed=0)
def _run_pair(trials, seed, **_):
    rng = random.Random(seed)
    checks = []
    from .cubes import ExactFunctor
    for t in range(trials):
        f1 = _rnd_pos_obj(rng)
        f2 = _rnd_pos_obj(rng)
        deg = rng.randint(0, 1)
        x = CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))
        br = bracket_pair(f1, f2, x)
        lhs = boundary(br)
        t1 = ExactFunctor.tensor_by(f1)
        t2 = ExactFunctor.tensor_by(f2)
        t12 = ExactFunctor.tensor_by(MetObj(
            f1.dim * f2.dim,
            f1.gram.kron(f2.gram) if f1.gram is not None and f2.gram is not None
            else None, check=False))
        rhs = x.map_cubes(lambda cu: t1.on_cube(t2.on_cube(cu)), x.degree) \
            - x.map_cubes(t12.on_cube, x.degree)
        if deg >= 1:
            rhs = rhs - bracket_pair(f1, f2, boundary(x))
        ok = lhs == rhs
        # under the strict convention the connecting arrow is an isometry,
        # so the bracket is flagged
        flagged = all(cu.iso_degenerate_witness() is not None
                      for cu in br.terms) if br.terms else True
        # degenerate inputs give degenerate (hence zero) brackets
        degen_in = bracket_pair(f1, f2, CubeChain.of(
            degeneracy(rand.rnd_cube(rng, deg), 1, 1)))
        checks.append(Check("pair.%03d" % t, ok and flagged and
                            degen_in.is_zero()))
    return checks


# -- the double -------------------------------------------------------------

@register("double.extraction",
          "restriction to a partial double splits the fold pullback, and "
          "the inclusion-exclusion operator vanishes on every extraction "
          "except the empty one, where it alternates the components",
          trials=20, r=4, seed=0)
def _run_double_bundle(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        marks = tuple(range(1, rr + 1))
        dim = rng.randint(1, 2)
        comps = {frozenset(S): MetObj(dim, rand.rnd_gram(rng, dim), check=False)
                 for S in signs.subsets(marks)}
        F = double.GluedBundle(marks, comps)
        ok = True
        for j in marks:
            G = double.iota_j_star(F, j)
            ok = ok and double.iota_j_star(double.p_j_star(G, j), j) == G
            V = double.VirtualGlued.of(F) - double.VirtualGlued.of(
                double.p_j_star(double.iota_j_star(F, j), j))
            for I in signs.subsets(marks):
                if j in I and V.extract(I):
                    ok = False
        QT = double.qt_bundle(F)
        for I in signs.subsets(marks):
            if I and QT.extract(I):
                ok = False
        want = {}
        for I in signs.subsets(marks):
            obj = F.comps[frozenset(I)]
            s = want.get(obj, 0) + (-1) ** len(I)
            if s == 0:
                want.pop(obj, None)
            else:
                want[obj] = s
        ok = ok and QT.extract(()) == want
        checks.append(Check("extraction.%03d" % t, ok))
    return checks


@register("double.splitting",
          "the cone-section splitting of the double validates and its "
          "degree-(0,0) part is the inclusion-exclusion operator",
          trials=6, r=3, seed=0)
def _run_double_split(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    from .cubes import ExactCube
    for t in range(trials):
        rr = rng.randint(1, r)
        geom = double.DoubleGeometry(rr)
        base = rand.rnd_cube(rng, 1, max_dim=2, with_gram=True)
        comps = {}
        for S in signs.subsets(geom.marks):
            verts = {a: MetObj(o.dim, rand.rnd_gram(rng, o.dim) if o.dim else None,
                               check=False)
                     for a, o in base.vertices.items()}
            comps[frozenset(S)] = ExactCube(base.n, verts, base.arrows).intern()
        seed_cube = geom.family_cube((), comps)
        out = double.build_t(geom, [((), seed_cube)], use_alt=True)
        t_map, q = out["t"], out["q"]
        ok = t_map.validate()["ok"] and q.validate()["ok"]
        qt = ccx.compose(q, t_map)
        model0 = out["models"][0]
        nontrivial = 0
        for (lvl, degg), cubes in model0.span.items():
            for pos in range(model0.dim(lvl, degg)):
                chn = model0.basis_chain(lvl, degg, pos)
                want = double.inclusion_exclusion_op(geom, chn)
                if not want.is_zero():
                    nontrivial += 1
                want_coords = model0.coords(lvl, want)
                mat = qt.c(0, 0, degg)
                got = {rr2: mat[(rr2, pos)] for rr2 in range(mat.rows)
                       if mat[(rr2, pos)] != 0}
                if got != want_coords:
                    ok = False
        for (m, n) in t_map.comps:
            if m == 0 and n > 0:
                ok = False
        checks.append(Check("splitting.%03d" % t, ok and nontrivial > 0,
                            {"nontrivial": nontrivial}))
    return checks


# -- formal character target -------------------------------------------------

@register("formalchern.squared",
          "the defined differential on the free character target squares "
          "to zero on generated spans",
          trials=60, r=3, seed=0)
def _run_ds2(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, (g,) = _tower_chain(rng, rr, 1, seed * 1000 + t)
        target = formalchern.FormalTarget(g)
        lvl = _rnd_level(rng, rr)
        ch = CubeChain.of(rand.rnd_cube(rng, rng.randint(0, 2), with_gram=True))
        checks.append(Check("squared.%03d" % t,
                            formalchern.check_ds_squared(target, lvl, ch,
                                                         ch.degree)))
    return checks


@register("formalchern.chain-map",
          "the signed assembly of level symbols is a chain map from the "
          "multi-relative total complex to the character target",
          trials=60, r=3, seed=0)
def _run_chmap(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    for t in range(trials):
        rr = rng.randint(1, r)
        tower, (g,) = _tower_chain(rng, rr, 1, seed * 1000 + t)
        target = formalchern.FormalTarget(g)
        n = rng.randint(1, 2)
        x = {frozenset(): CubeChain.of(rand.rnd_cube(rng, n, with_gram=True))}
        if rr >= 1 and rng.random() < 0.6:
            lvl = frozenset({rng.randint(1, rr)})
            x[lvl] = CubeChain.of(rand.rnd_cube(rng, n + 1, with_gram=True))
        checks.append(Check("chain-map.%03d" % t,
                            formalchern.check_chain_map(target, x, n)))
    rep = formalchern.reindex_check(5)
    checks.append(Check("reindex.r5", rep["ok"], {"checked": rep["checked"]}))
    return checks


@register("formalchern.vanishing",
          "the vanishing rule is consistent: raw differentials of flagged "
          "generators cancel within isometry classes after the rule",
          trials=25, r=2, seed=0)
def _run_vanish(trials, r, seed, **_):
    rng = random.Random(seed)
    checks = []
    tested = 0
    for t in range(trials):
        rr = rng.randint(1, r)
        tower = Tower(r=rr, schemes=2, seed=seed * 1000 + t, mode="scalar")
        g0, g1 = GeomView(tower, 0), GeomView(tower, 1)
        f = MorphView(g0, g1)
        target = formalchern.FormalTarget(g0)
        x = CubeChain.of(rand.rnd_cube(rng, rng.randint(0, 1), with_gram=True))
        from .multirel import xi_Kf
        ok = True
        for cube in xi_Kf(f, (1,), (), x).terms:
            if target.vanishes(cube):
                tested += 1
                ok = ok and formalchern.check_vanishing_consistency(target, cube)
        checks.append(Check("vanishing.%03d" % t, ok))
    checks.append(Check("vanishing.coverage", tested > 0, {"flagged": tested}))
    return checks


# -- logarithmic forms --------------------------------------------------------

@register("wang.conjugation",
          "the symmetrized logarithmic forms flip sign under conjugation "
          "according to the parity of their rank",
          r=5, seed=0)
def _run_wang_conj(r, seed, **_):
    checks = []
    rep = wang.check_conjugation(r)
    checks.append(Check("conjugation.r%d" % r, rep["ok"],
                        None if rep["ok"] else rep))
    w1 = wang.build_W(1)
    checks.append(Check("w1.value",
                        w1.terms == {(1, ()): Fraction(-1, 2)}))
    for rr in range(2, r + 1):
        w = wang.build_W(rr)
        checks.append(Check("involution.r%d" % rr,
                            wang.conjugate(wang.conjugate(w)) == w))
    return checks


@register("wang.degrees",
          "every monomial carries one logarithm and rank-minus-one "
          "one-forms; the bidegree split partitions the form and the "
          "expansion size is the full symmetric group",
          r=5, seed=0)
def _run_wang_deg(r, seed, **_):
    checks = []
    rep = wang.check_degrees(r)
    checks.append(Check("degrees.r%d" % r, rep["ok"],
                        None if rep["ok"] else rep))
    for rr in range(1, r + 1):
        for i in range(1, rr + 1):
            s = wang.build_S(rr, i)
            count_ok = wang.monomial_count_S(rr, i) == \
                sum(1 for _ in permutations(range(rr)))
            distinct = len(s.terms)
            import math
            want = rr * math.comb(rr - 1, i - 1)
            checks.append(Check("count.r%d.i%d" % (rr, i),
                                count_ok and distinct == want,
                                {"distinct": distinct, "want": want}))
    for rr in range(1, r + 1):
        w = wang.build_W(rr)
        parts = wang.bidegree_split(w)
        total = wang.LogForm()
        for p in parts.values():
            total = total + p
        checks.append(Check("bidegree.r%d" % rr, total == w))
    return checks


def run_suite(name, **params):
    if name not in _REGISTRY:
        raise KeyError(name)
    return _REGISTRY[name].run(**params)
