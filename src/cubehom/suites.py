"""Named verification suites: seeded, deterministic, exact.

Every suite verifies one identity (or one tight bundle of identities) of
the chain-level machinery, at desk scale, over exact rationals.  A suite
run returns a report dict with one entry per check, sorted by a stable
key; reports are reproducible from the seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from itertools import permutations

from . import ccx, double, formalchern, memo, rand, signs, wang
from .cubes import (CubeChain, ExactCube, ExactFunctor, act_sym, alt,
                    alt_block, arrow_keys, boundary, boundary_partial,
                    bracket_cube, degeneracy, face, object_cube, phi_homotopy,
                    psi_homotopy, rho, vertex_indices)
from .exactlin import (MetObj, ShortExact, inverse, is_short_exact, rank,
                       rat_str, rref, tensor_obj)
from .multirel import (GeomView, LevelChain, MorphView, Tower, build_ccomplex,
                       build_homotopy, build_pullback, check_alt_absorption,
                       check_ccomplex_relation, check_cmap_relation,
                       check_cor_2_16, check_homotopy_relation, check_relation,
                       check_identity_cmap, check_identity_pullback_vanishing,
                       check_xi_boundary, op_homotopy, op_pullback, xi_Kf)
from .tensorstruct import (bracket_pair, check_bracket_boundary,
                           check_phi_s_equals_tensor, op_tensor,
                           op_tensor_homotopy, op_tensor_theta, xi_slot, _pi,
                           _station_levels)


class ParamError(ValueError):
    """A suite parameter below the least value the suite accepts."""

    def __init__(self, suite, param, least, value):
        super().__init__("%s must be at least %d for %s, got %d"
                         % (param, least, suite, value))


class Suite:
    """A named suite: its body is a generator over ``rng`` and the merged
    parameters that yields ``(key, ok)`` or ``(key, ok, detail)``.
    ``least`` maps a parameter to the least value the body accepts."""

    def __init__(self, name, claim, runner, defaults, least=None):
        self.name = name
        self.claim = claim
        self.runner = runner
        self.defaults = dict(defaults)
        self.least = dict(least or {})

    def merge(self, **params):
        """The defaults overridden by the given non-None ``params``;
        ParamError when one is below its least value."""
        merged = dict(self.defaults)
        for k, v in params.items():
            if v is not None:
                merged[k] = v
        for k, least in self.least.items():
            if merged[k] < least:
                raise ParamError(self.name, k, least, merged[k])
        return merged

    def run(self, **params):
        """The report of one run.  The run-scoped memo tables are emptied
        when it returns or raises."""
        try:
            return self._report(self.merge(**params))
        finally:
            memo.end_run()

    def _report(self, merged):
        rng = random.Random(merged["seed"])
        checks = sorted(((key, bool(ok), detail[0] if detail else None)
                         for key, ok, *detail in self.runner(rng, **merged)),
                        key=lambda c: c[0])
        bad = [c for c in checks if not c[1]]
        report = {
            "suite": self.name,
            "claim": self.claim,
            "params": {k: merged[k] for k in sorted(merged)},
            # a run that checked nothing verified nothing
            "ok": bool(checks) and not bad,
            "counts": {"total": len(checks), "failed": len(bad)},
            "checks": [
                {"key": key, "ok": ok, **({"detail": _stringify(detail)}
                                          if detail is not None else {})}
                for key, ok, detail in checks],
        }
        if bad:
            report["counterexample"] = {"key": bad[0][0],
                                        "detail": _stringify(bad[0][2])}
        return report


def _stringify(x):
    if isinstance(x, Fraction):
        return rat_str(x)
    if isinstance(x, dict):
        return {str(k): _stringify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_stringify(v) for v in x]
    if isinstance(x, (int, bool, str)) or x is None:
        return x
    return str(x)


_REGISTRY = {}


def register(name, claim, least=None, **defaults):
    def deco(fn):
        _REGISTRY[name] = Suite(name, claim, fn, defaults, least)
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
def _run_exactlin(rng, trials, dim, **_):
    for t in range(trials):
        cx = rand.rnd_chain_complex(rng, degs=(0, 4), maxdim=max(2, dim // 6))
        got = cx.homology()
        want = {}
        degs = cx.degrees()
        for n in range(min(degs), max(degs) + 1) if degs else []:
            rk_dn = len(rref(cx.d(n))[1])
            rk_up = len(rref(cx.d(n + 1))[1])
            want[n] = cx.dim(n) - rk_dn - rk_up
        yield ("homology.%03d" % t, got == want,
               None if got == want else {"got": got, "want": want})
    for t in range(20):
        a, b, c = [rand.rnd_metobj(rng) for _ in range(3)]
        lhs = tensor_obj(tensor_obj(a, b), c)
        rhs = tensor_obj(a, tensor_obj(b, c))
        yield "tensor-assoc.%03d" % t, lhs == rhs


@register("exactlin.shortexact",
          "generated extensions are short exact: full ranks, zero composite, "
          "and additive middle rank",
          trials=50, seed=0)
def _run_shortexact(rng, trials, **_):
    for t in range(trials):
        cube = rand.rnd_one_cube(rng, max_dim=3)
        s = ShortExact(cube.vertex((-1,)), cube.vertex((0,)),
                       cube.vertex((1,)), cube.arrow(1, (-1,)),
                       cube.arrow(1, (0,)))
        ok = is_short_exact(s)
        ok = ok and rank(s.inj) + rank(s.surj) == s.mid.dim
        ok = ok and s.surj.mul(s.inj).is_zero()
        yield "extension.%03d" % t, ok


# -- cube chains ----------------------------------------------------------

@register("cubes.boundary-squared",
          "the alternating-sum boundary of normalized cube chains squares "
          "to zero",
          trials=200, dim=3, seed=0, least={"dim": 2})
def _run_dd(rng, trials, dim, **_):
    for t in range(trials):
        n = rng.randint(1, 3)
        x = CubeChain.of(rand.rnd_cube(rng, n, max_dim=dim))
        if rng.random() < 0.3:
            x = x + CubeChain.of(rand.rnd_cube(rng, n, max_dim=dim), -2)
        yield "ddzero.%03d" % t, boundary(boundary(x)).is_zero()


@register("cubes.duplication-faces",
          "the seven face identities of the axis-duplication cube, its "
          "degeneracy transport, and the double-duplication coincidence",
          trials=100, seed=0)
def _run_rho(rng, trials, **_):
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
        yield "duplication.%03d" % t, ok


@register("cubes.alternation",
          "the signed symmetric-group average is an idempotent chain map and "
          "kills transposition-invariant cubes",
          trials=60, seed=0)
def _run_alt(rng, trials, **_):
    for t in range(trials):
        n = rng.randint(1, 3)
        x = CubeChain.of(rand.rnd_cube(rng, n)) \
            + CubeChain.of(rand.rnd_cube(rng, n), Fraction(-3, 2))
        ax = alt(x)
        ok = alt(ax) == ax and boundary(ax) == alt(boundary(x))
        yield "alt.%03d" % t, ok
    for t in range(10):
        c = rand.rnd_cube(rng, 1)
        sym = rho(c, 1)  # symmetric under the transposition by construction
        yield "alt-symmetric.%03d" % t, alt(CubeChain.of(sym)).is_zero()


@register("cubes.contraction",
          "the two axis-duplication homotopies contract the bigraded "
          "directions; alternation absorbs them; the telescoped composite "
          "reproduces the alternation",
          trials=40, seed=0)
def _run_contraction(rng, trials, **_):
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
        yield "phi-contracts.%03d" % t, lhs == x
        n2, m2 = rng.randint(1, 2), rng.randint(0, 2)
        y = CubeChain.of(rand.rnd_cube(rng, n2 + m2))
        lhs2 = dsecond(psi_homotopy(n2, m2, y), n2, m2 + 1)
        if m2 >= 1:
            lhs2 = lhs2 + psi_homotopy(n2, m2 - 1, dsecond(y, n2, m2))
        yield "psi-contracts.%03d" % t, lhs2 == y

    def phi_alt(nn, mm, ch):
        return alt_block(phi_homotopy(nn, mm, ch), nn + 1)

    for t in range(trials // 2):
        n, m = rng.randint(0, 2), rng.randint(1, 2)
        x = CubeChain.of(rand.rnd_cube(rng, n + m))
        yield ("alt-absorbs-phi.%03d" % t,
               phi_alt(n, m, alt_block(x, n)) == phi_alt(n, m, x))
        # the first-block action commutes with the duplication homotopy
        cube = next(iter(x.terms))
        ok = True
        for sig in permutations(range(1, n + 1)):
            full_in = tuple(sig) + tuple(range(n + 1, n + m + 1))
            full_out = tuple(sig) + tuple(range(n + 1, n + m + 2))
            ok = ok and act_sym(full_out, rho(cube, n + 1)) == \
                rho(act_sym(full_in, cube), n + 1)
        yield "block-action-commutes.%03d" % t, ok
    for m in (1, 2, 3):
        for t in range(3):
            x = CubeChain.of(rand.rnd_cube(rng, m))
            y = x
            for k in range(m):
                y = phi_alt(k, m - k, y)
                y = dsecond(y, k + 1, m - k)
            sgn = Fraction(-1) ** ((m * (m - 1)) // 2 % 2)
            yield "telescope.m%d.%02d" % (m, t), y.scale(sgn) == alt(x)


# -- the sign calculus -----------------------------------------------------

@register("signs.division-product",
          "the division signature satisfies the two-sided refinement "
          "product identity, exhaustively",
          r=6, seed=0)
def _run_lem211(rng, r, **_):
    rep = signs.check_lemma_2_11(r)
    yield ("division-product.r%d" % r, rep["ok"],
           rep if not rep["ok"] else {"checked": rep["checked"]})


@register("signs.b-weight",
          "the alternating tail-sum weight satisfies the merge, drop-last "
          "and drop-first identities, exhaustively",
          dim=4, r=5, seed=0, least={"dim": 1, "r": 2})
def _run_lem92(rng, dim, r, **_):
    rep = signs.check_lemma_9_2(dim, r)
    yield ("b-weight.s%d.l%d" % (dim, r), rep["ok"],
           rep if not rep["ok"] else {"checked": rep["checked"]})


@register("signs.multidivision",
          "the multi-division signature is the product of its successive "
          "two-part refinements, exhaustively",
          r=6, seed=0, least={"r": 1})
def _run_multidiv(rng, r, **_):
    universe = list(range(1, r + 1))
    bad = 0
    total = 0
    for J in signs.subsets(universe):
        # divisions into 1, 2 or 3 nonempty parts
        for parts in (p for l in (1, 2, 3) for p in signs.divisions_into(J, l)):
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
    yield "multidivision.r%d" % r, bad == 0, {"checked": total, "failed": bad}


# -- C-complexes ------------------------------------------------------------

@register("ccx.relation",
          "random C-complexes satisfy the connecting-map relation, their "
          "total complexes square to zero, and maps compose functorially",
          trials=50, seed=0)
def _run_ccx(rng, trials, **_):
    for t in range(trials):
        a = rand.rnd_ccomplex(rng)
        ok = a.validate()["ok"] and a.tot().validate()["ok"]
        b = rand.rnd_ccomplex(rng)
        f = rand.rnd_cmap(rng, a, b)
        ok = ok and f.validate()["ok"]
        g = rand.rnd_cmap(rng, b, rand.rnd_ccomplex(rng))
        ok = ok and ccx.compose(g, f).validate()["ok"]
        sh = a.shift(rng.choice([-2, -1, 1, 2]))
        ok = ok and sh.validate()["ok"]
        yield "relation.%03d" % t, ok


@register("ccx.cone-section",
          "the cone of a retractable map splits: the section composes with "
          "the projection to the identity minus the retraction, with both "
          "witnessing homotopies valid",
          trials=100, seed=0)
def _run_cone_section(rng, trials, **_):
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
        yield "section.%03d" % t, ok


@register("ccx.cone-map",
          "a square commuting up to homotopy induces a map of cones making "
          "both triangle squares commute strictly",
          trials=50, seed=0)
def _run_cone_map(rng, trials, **_):
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
        yield "cone-map.%03d" % t, ok


@register("ccx.second-homotopy",
          "the mediating relation between the two composite homotopies of a "
          "retraction square admits an exact solution, and it induces the "
          "displayed homotopy between the section composites",
          trials=40, seed=0)
def _run_second(rng, trials, **_):
    produced = 0
    for t in range(trials):
        setup = rand.rnd_second_homotopy_setup(rng)
        if setup is None:
            yield "theta.%03d" % t, True, {"skipped": "obstructed"}
            continue
        produced += 1
        th = setup["theta"]
        ok = th.compare_defect(setup["target"])["ok"]
        f, g, psi = setup["f"], setup["g"], setup["psi"]
        parts = ccx.simple(f)
        t_map, _, _ = ccx.section_t(parts, f, g, psi)
        ps = ccx.phi_s(parts, parts, setup["phi_a"], setup["phi_b"],
                       setup["h_f"])
        pi = ccx.pi_homotopy(parts, f, th, setup["h_f"], setup["h_g"], psi,
                             g)
        ok = ok and pi.validate(ccx.compose(ps, t_map),
                                ccx.compose(t_map, setup["phi_a"]))["ok"]
        yield "theta.%03d" % t, ok
    yield ("theta.produced", produced >= max(1, trials // 2),
           {"produced": produced})


@register("ccx.shift",
          "index shifts round-trip and commute with total complexes at the "
          "level of graded dimensions",
          trials=30, seed=0)
def _run_shift(rng, trials, **_):
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
        yield "shift.%03d" % t, ok


@register("diagram.simple",
          "the four-complex diagram has a simple complex with square-zero "
          "boundary whose homology fits the expected long sequence when the "
          "middle map is a quasi-isomorphism",
          trials=20, seed=0)
def _run_diagram(rng, trials, **_):
    for t in range(trials):
        a2 = rand.rnd_chain_complex(rng, degs=(0, 3))
        # g1: an isomorphism from A2 onto B1 (a fortiori a quasi-isomorphism)
        u = {n: rand.rnd_invertible(rng, a2.dim(n)) for n in a2.degrees()}
        b1 = ccx.ChainComplex(dict(a2.dims),
                              {n: u[n - 1].mul(a2.d(n)).mul(inverse(u[n]))
                               for n in a2.degrees() if a2.dim(n) and a2.dim(n - 1)})
        g1 = {n: u[n] for n in a2.degrees() if a2.dim(n)}
        a1 = rand.rnd_chain_complex(rng, degs=(0, 3))
        b2 = rand.rnd_chain_complex(rng, degs=(0, 3))
        f1 = _rnd_chain_map(rng, a1, b1)
        f2 = _rnd_chain_map(rng, a2, b2)
        sd = ccx.diagram_simple(a1, b1, a2, b2, f1, g1, f2)
        ok = sd.validate()["ok"]
        rep = ccx.diagram_les_check(a1, b1, a2, b2, f1, g1, f2, (1, 2))
        ok = ok and rep["ok"]
        yield "diagram.%03d" % t, ok, None if ok else rep


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

def _tower_chain(r, schemes, seed):
    tower = Tower(r=r, schemes=schemes, seed=seed)
    return [GeomView(tower, s) for s in range(schemes)]


def _rnd_level(rng, r, maxsize=None):
    size = rng.randint(0, r if maxsize is None else min(maxsize, r))
    return frozenset(rng.sample(range(1, r + 1), size))


def _run_xi_boundary(rng, trials, r, seed, key, t, kmin, kmax, dcap, **_):
    """The boundary identity of Xi_{K; g_0, f_1, ..., f_t, g_t}: |K| is
    drawn from kmin..min(kmax, marks left), and the input degree from
    0..dcap, at most dcap + 1 - |K|, with no draw when |K| > dcap."""
    for trial in range(trials):
        rr = rng.randint(1, r)
        geoms = _tower_chain(rr, t + 1, seed * 1000 + trial)
        views = [geoms[0]]
        for src, dst in zip(geoms, geoms[1:]):
            views += [MorphView(src, dst), dst]
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        others = [k for k in range(1, rr + 1) if k not in I]
        size = rng.randint(kmin, len(others) if kmax is None
                           else min(kmax, len(others)))
        K = tuple(sorted(rng.sample(others, size)))
        deg = 0 if len(K) > dcap else \
            rng.randint(0, min(dcap, dcap + 1 - len(K)))
        x = CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))
        yield ("%s.%03d" % (key, trial), check_xi_boundary(views, K, I, x),
               {"K": sorted(K), "I": sorted(I), "deg": deg})


register("multirel.xi-boundary",
         "the signed pullback-sum operators interchange with the boundary "
         "through division-signed composites",
         trials=50, r=3, seed=0, least={"r": 1})(
    partial(_run_xi_boundary, key="xi", t=0, kmin=1, kmax=None, dcap=2))
register("multirel.xi-pullback-boundary",
         "the morphism-inserted pullback-sum operators satisfy their "
         "two-sided boundary interchange",
         trials=50, r=3, seed=0, least={"r": 1})(
    partial(_run_xi_boundary, key="xif", t=1, kmin=0, kmax=None, dcap=1))
register("multirel.xi-exchange-boundary",
         "the doubly inserted operators mediate between composite and "
         "separate pullbacks in their boundary interchange",
         trials=50, r=3, seed=0, least={"r": 1})(
    partial(_run_xi_boundary, key="xifg", t=2, kmin=0, kmax=3, dcap=1))
register("multirel.xi-triple-boundary",
         "the triply inserted operators satisfy the boundary interchange "
         "with both partial-composite corrections",
         trials=30, r=3, seed=0, least={"r": 1})(
    partial(_run_xi_boundary, key="xif3", t=3, kmin=0, kmax=2, dcap=1))


@register("multirel.ccomplex",
          "the level family with its division-signed connecting maps is a "
          "C-complex: generator relations hold and the matrix "
          "materialization passes validation",
          trials=50, r=3, seed=0, least={"r": 1})
def _run_mr_ccomplex(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(1, r)
        (g,) = _tower_chain(rr, 1, seed * 1000 + t)
        I = _rnd_level(rng, rr, maxsize=max(0, rr - 1))
        deg = rng.randint(0, 1)
        x = LevelChain.of(I, rand.rnd_cube(rng, deg, with_gram=True))
        rep = check_ccomplex_relation(g, x, len(I), rr)
        ok = rep["ok"]
        if t % 5 == 0:
            model, cc = build_ccomplex(
                g, [(frozenset(), rand.rnd_cube(rng, 1, with_gram=True))])
            ok = ok and cc.validate()["ok"] and cc.tot().validate()["ok"]
        yield "ccomplex.%03d" % t, ok


@register("multirel.pullback-map",
          "the division-signed pullback of a geometry morphism is a map of "
          "C-complexes, generator-wise and as matrices",
          trials=50, r=3, seed=0, least={"r": 1})
def _run_mr_pullback(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(1, r)
        g0, g1 = _tower_chain(rr, 2, seed * 1000 + t)
        f = MorphView(g0, g1)
        I = _rnd_level(rng, rr, maxsize=max(0, rr - 1))
        x = LevelChain.of(I, rand.rnd_cube(rng, rng.randint(0, 1), with_gram=True))
        ok = check_cmap_relation(f, x, len(I), rr)["ok"]
        if t % 5 == 0:
            _, _, cmap = build_pullback(
                f, [(frozenset(), rand.rnd_cube(rng, 1, with_gram=True))])
            ok = ok and cmap.validate()["ok"]
        yield "pullback.%03d" % t, ok


@register("multirel.composite-homotopy",
          "the doubly inserted operators assemble to a homotopy from the "
          "composite pullback to the composition of pullbacks",
          trials=50, r=3, seed=0, least={"r": 1})
def _run_mr_homotopy(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(1, min(r, 2)) if t % 3 else rng.randint(1, r)
        vs = _tower_chain(rr, 3, seed * 1000 + t)
        f, g = MorphView(vs[0], vs[1]), MorphView(vs[1], vs[2])
        h = MorphView(vs[0], vs[2])
        I = _rnd_level(rng, rr, maxsize=max(0, rr - 1))
        deg = 0 if rr >= 3 else rng.randint(0, 1)
        x = LevelChain.of(I, rand.rnd_cube(rng, deg, with_gram=True))
        ok = check_homotopy_relation(f, g, h, x, len(I), rr)["ok"]
        if t % 10 == 0:
            out = build_homotopy(
                f, g, [(frozenset(), rand.rnd_cube(rng, 1, with_gram=True))])
            ok = ok and out["phi"].validate(
                out["h"], ccx.compose(out["f"], out["g"]))["ok"]
            ok = ok and out["f"].validate()["ok"] and out["g"].validate()["ok"]
        yield "homotopy.%03d" % t, ok


@register("multirel.alternating",
          "the alternated operators form C-complexes, maps and homotopies "
          "on the alternating subcomplexes, validated as matrices on "
          "projected spans",
          trials=12, r=3, seed=0, least={"r": 1})
def _run_mr_alt(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(1, r)
        (g,) = _tower_chain(rr, 1, seed * 1000 + t)
        model, cc = build_ccomplex(
            g, [(frozenset(), rand.rnd_cube(rng, 1, with_gram=True))],
            use_alt=True)
        yield "alt-ccomplex.%03d" % t, cc.validate()["ok"]
    for t in range(trials):
        rr = rng.randint(1, r)
        g0, g1 = _tower_chain(rr, 2, seed * 2000 + t)
        f = MorphView(g0, g1)
        deg = 1 if rr <= 2 else 0
        _, _, cmap = build_pullback(
            f, [(frozenset(), rand.rnd_cube(rng, deg, with_gram=True))],
            use_alt=True)
        yield "alt-pullback.%03d" % t, cmap.validate()["ok"]
    for t in range(max(2, trials // 3)):
        rr = rng.randint(1, 2)
        vs = _tower_chain(rr, 3, seed * 3000 + t)
        f, g = MorphView(vs[0], vs[1]), MorphView(vs[1], vs[2])
        out = build_homotopy(
            f, g, [(frozenset(), rand.rnd_cube(rng, 0, with_gram=True))],
            use_alt=True)
        yield "alt-homotopy.%03d" % t, out["phi"].validate(
            out["h"], ccx.compose(out["f"], out["g"]))["ok"]


@register("multirel.absorption",
          "alternating before and after a pullback-sum operator agrees with "
          "alternating after alone",
          trials=40, r=3, seed=0, least={"r": 1})
def _run_absorb(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(1, r)
        (g,) = _tower_chain(rr, 1, seed * 1000 + t)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        others = [k for k in range(1, rr + 1) if k not in I]
        K = tuple(sorted(rng.sample(others, rng.randint(1, min(2, len(others))))))
        deg = rng.randint(1, 2)
        x = CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))
        yield "absorb.%03d" % t, check_alt_absorption(g, K, I, x)


@register("multirel.cone-identification",
          "the multi-relative complex coincides with the cone of the last "
          "restriction map after the sign twist on the levels containing "
          "the last mark",
          trials=10, r=3, seed=0, least={"r": 1})
def _run_cor216(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(2, r) if r >= 2 else 1
        (g,) = _tower_chain(rr, 1, seed * 1000 + t)
        rep = check_cor_2_16(g, [(frozenset(),
                                  rand.rnd_cube(rng, 1, with_gram=True))],
                             use_alt=(t % 3 == 0))
        yield "cone-id.%03d" % t, rep["ok"], None if rep["ok"] else rep


@register("multirel.identity-pullback",
          "identity-inserted pullback words are degenerate at the outer "
          "insertion positions, transposition-invariant (hence alternation-"
          "killed) but not degenerate inside, and the identity morphism "
          "pulls back to the identity of the alternating complex",
          trials=100, r=3, seed=0, least={"r": 1})
def _run_prop220(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(1, r)
        tower = Tower(r=rr, schemes=2, seed=seed * 1000 + t, alias=[0, 0])
        X0, X1 = GeomView(tower, 0), GeomView(tower, 1)
        gid = MorphView(X0, X1)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        others = [k for k in range(1, rr + 1) if k not in I]
        K = tuple(sorted(rng.sample(others, rng.randint(1, len(others)))))
        x = CubeChain.of(rand.rnd_cube(rng, 0, with_gram=True))
        rep = check_identity_pullback_vanishing(X0, gid, K, I, x)
        ok = rep["ok"]
        if t % 10 == 0:
            xx = LevelChain.of(I, rand.rnd_cube(rng, rng.randint(0, 1),
                                                with_gram=True))
            ok = ok and check_identity_cmap(gid, xx, len(I), rr)["ok"]
        yield "identity-words.%03d" % t, ok, None if ok else rep


# -- tensor structure -------------------------------------------------------

@register("tensor.bracket-boundary",
          "the boundary of an alternated bracket of slot functors expands "
          "into drop, merge, axis-exchange and inner-boundary terms with "
          "the stated signs",
          trials=25, r=3, seed=0, least={"r": 1})
def _run_prop91(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(1, r)
        (g,) = _tower_chain(rr, 1, seed * 1000 + t)
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
        yield ("bracket.%03d" % t,
               check_bracket_boundary(F, slots, pis, x),
               {"parts": [sorted(p) for p in parts], "deg": deg})
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
        yield "bracket-objects.%03d" % t, lhs == rhs


@register("tensor.cmap",
          "tensoring with a fixed object extends to a map of C-complexes "
          "through division-signed, weight-signed bracket operators",
          trials=30, r=3, seed=0, least={"r": 1})
def _run_prop93(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(1, r)
        (g,) = _tower_chain(rr, 1, seed * 1000 + t)
        F = _rnd_pos_obj(rng)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        deg = 0 if rr >= 3 and len(I) == 0 else rng.randint(0, 1)
        x = LevelChain.of(I, rand.rnd_cube(rng, deg, with_gram=True))
        ok = _tensor_cmap_relation(F, g, x, len(I), rr)
        yield "tensor-map.%03d" % t, ok, {"I": sorted(I), "deg": deg}


def _rnd_pos_obj(rng):
    d = rng.randint(1, 2)
    return MetObj(d, rand.rnd_gram(rng, d), check=False)


def _tensor_cmap_relation(F, g, x, m, n_max):
    return check_relation(partial(op_tensor, F, g), 0, g, g, x, m, n_max,
                          compare_alt=True)["ok"]


@register("tensor.homotopy",
          "the mixed-insertion bracket operators form a homotopy exchanging "
          "the tensor map with a pullback",
          trials=20, r=3, seed=0, least={"r": 1})
def _run_prop94(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(1, min(2, r)) if t % 3 else rng.randint(1, r)
        g0, g1 = _tower_chain(rr, 2, seed * 1000 + t)
        f = MorphView(g0, g1)
        F = _rnd_pos_obj(rng)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        deg = 0 if rr >= 3 else rng.randint(0, 1)
        x = LevelChain.of(I, rand.rnd_cube(rng, deg, with_gram=True))
        ok = _tensor_homotopy_relation(F, f, x, len(I), rr)
        yield "tensor-homotopy.%03d" % t, ok, {"I": sorted(I), "deg": deg}


def _tensor_homotopy_relation(F, f, x, m, n_max):
    # target: f^* (F x -) - (F x -) f^*
    pull = partial(op_pullback, f)
    return check_relation(
        partial(op_tensor_homotopy, F, f), 1, f.dst, f.src, x, m, n_max,
        [(1, pull, partial(op_tensor, F, f.dst)),
         (-1, partial(op_tensor, F, f.src), pull)], compare_alt=True)["ok"]


@register("tensor.cone-agreement",
          "the cone-induced tensor map through the sign-twisted "
          "identification agrees with the direct tensor map",
          trials=20, r=3, seed=0, least={"r": 1})
def _run_prop95(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(1, r)
        (g,) = _tower_chain(rr, 1, seed * 1000 + t)
        F = _rnd_pos_obj(rng)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        deg = 0 if rr >= 3 else rng.randint(0, 1)
        x = LevelChain.of(I, rand.rnd_cube(rng, deg, with_gram=True))
        rep = check_phi_s_equals_tensor(F, g, x, len(I), rr)
        yield "cone-agree.%03d" % t, rep["ok"], None if rep["ok"] else rep


@register("tensor.second-homotopy",
          "for a retraction of geometries the two composite homotopies "
          "between the tensor map and its double pullback are mediated by "
          "the explicit two-insertion bracket operator",
          trials=10, r=2, seed=0, least={"r": 1})
def _run_prop96(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(1, min(2, r))
        tower = Tower(r=rr, schemes=3, seed=seed * 1000 + t, alias=[0, 1, 0])
        X0, T1, X2 = (GeomView(tower, 0), GeomView(tower, 1),
                      GeomView(tower, 2))
        f, g = MorphView(X0, T1), MorphView(T1, X2)
        F = _rnd_pos_obj(rng)
        I = _rnd_level(rng, rr, maxsize=rr - 1)
        deg = rng.randint(0, 1) if rr == 1 else 0
        x = LevelChain.of(I, rand.rnd_cube(rng, deg, with_gram=True))
        ok = _theta_relation(F, f, g, x, len(I), rr)
        yield "second-homotopy.%03d" % t, ok, {"I": sorted(I), "deg": deg}


def _theta_relation(F, f, g, x, m, n_max):
    # target: Phi T - T_f g^* - f^* T_g - T Phi, with T = F (x) - on X,
    # T_f its exchange homotopy along f and Phi the composite homotopy
    X = g.dst
    hom, tensor = partial(op_homotopy, f, g), partial(op_tensor, F, X)
    return check_relation(
        partial(op_tensor_theta, F, f, g), 2, X, X, x, m, n_max,
        [(1, hom, tensor),
         (-1, partial(op_tensor_homotopy, F, f), partial(op_pullback, g)),
         (-1, partial(op_pullback, f), partial(op_tensor_homotopy, F, g)),
         (-1, tensor, hom)], compare_alt=True)["ok"]


@register("tensor.pair-associator",
          "the two-step tensor bracket witnesses associativity: its "
          "boundary is the difference of the two bracketings minus the "
          "bracket of the boundary",
          trials=30, seed=0)
def _run_pair(rng, trials, **_):
    for t in range(trials):
        f1 = _rnd_pos_obj(rng)
        f2 = _rnd_pos_obj(rng)
        deg = rng.randint(0, 1)
        x = CubeChain.of(rand.rnd_cube(rng, deg, with_gram=True))
        br = bracket_pair(f1, f2, x)
        lhs = boundary(br)
        t1 = ExactFunctor.tensor_by(f1)
        t2 = ExactFunctor.tensor_by(f2)
        t12 = ExactFunctor.tensor_by(tensor_obj(f1, f2))
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
        yield "pair.%03d" % t, ok and flagged and degen_in.is_zero()


# -- the double -------------------------------------------------------------

@register("double.extraction",
          "restriction to a partial double splits the fold pullback, and "
          "the inclusion-exclusion operator vanishes on every extraction "
          "except the empty one, where it alternates the components",
          trials=20, r=4, seed=0, least={"r": 1})
def _run_double_bundle(rng, trials, r, **_):
    for t in range(trials):
        geom = double.DoubleGeometry(rng.randint(1, r))
        dim = rng.randint(1, 2)
        F = geom.family_cube((), {
            frozenset(S): object_cube(MetObj(dim, rand.rnd_gram(rng, dim),
                                             check=False))
            for S in signs.subsets(geom.marks)})
        ok = True
        for j in geom.marks:
            G = double.restrict(geom, (), j, F)
            back = geom.fold((), j, G)
            ok = ok and double.restrict(geom, (), j, back) == G
            V = CubeChain.of(F) - CubeChain.of(back)
            for I in signs.subsets(geom.marks):
                if j in I and double.extract(V, I):
                    ok = False
        QT = double.inclusion_exclusion_op(geom, CubeChain.of(F))
        for I in signs.subsets(geom.marks):
            if I and double.extract(QT, I):
                ok = False
        want = {}
        for I in signs.subsets(geom.marks):
            obj = F.comps[frozenset(I)].vertices[0]
            s = want.get(obj, 0) + (-1) ** len(I)
            if s == 0:
                want.pop(obj, None)
            else:
                want[obj] = s
        ok = ok and double.extract(QT, ()) == want
        yield "extraction.%03d" % t, ok


@register("double.splitting",
          "the cone-section splitting of the double validates and its "
          "degree-(0,0) part is the inclusion-exclusion operator",
          trials=6, r=3, seed=0, least={"r": 1})
def _run_double_split(rng, trials, r, **_):
    for t in range(trials):
        rr = rng.randint(1, r)
        geom = double.DoubleGeometry(rr)
        base = rand.rnd_cube(rng, 1, max_dim=2, with_gram=True)
        comps = {}
        arrows = dict(zip(arrow_keys(base.n), base.arrows))
        for S in signs.subsets(geom.marks):
            verts = {a: MetObj(o.dim, rand.rnd_gram(rng, o.dim) if o.dim else None,
                               check=False)
                     for a, o in zip(vertex_indices(base.n), base.vertices)}
            comps[frozenset(S)] = ExactCube(base.n, verts, arrows).intern()
        seed_cube = geom.family_cube((), comps)
        out = double.build_t(geom, [((), seed_cube)])
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
                mat = qt.get(0, 0, degg)
                got = {} if mat is None else {
                    rr2: v for (rr2, cc), v in mat.items() if cc == pos}
                if got != want_coords:
                    ok = False
        for (m, n) in t_map.comps:
            if m == 0 and n > 0:
                ok = False
        yield ("splitting.%03d" % t, ok and nontrivial > 0,
               {"nontrivial": nontrivial})


# -- formal character target -------------------------------------------------

@register("formalchern.squared",
          "the defined differential on the free character target squares "
          "to zero on generated spans",
          trials=60, r=3, seed=0, least={"r": 1})
def _run_ds2(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(1, r)
        (g,) = _tower_chain(rr, 1, seed * 1000 + t)
        target = formalchern.FormalTarget(g)
        lvl = _rnd_level(rng, rr)
        ch = CubeChain.of(rand.rnd_cube(rng, rng.randint(0, 2), with_gram=True))
        yield ("squared.%03d" % t,
               formalchern.check_ds_squared(target, lvl, ch, ch.degree))


@register("formalchern.chain-map",
          "the signed assembly of level symbols is a chain map from the "
          "multi-relative total complex to the character target",
          trials=60, r=3, seed=0, least={"r": 1})
def _run_chmap(rng, trials, r, seed, **_):
    for t in range(trials):
        rr = rng.randint(1, r)
        (g,) = _tower_chain(rr, 1, seed * 1000 + t)
        target = formalchern.FormalTarget(g)
        n = rng.randint(1, 2)
        x = LevelChain.of(frozenset(), rand.rnd_cube(rng, n, with_gram=True))
        if rr >= 1 and rng.random() < 0.6:
            lvl = frozenset({rng.randint(1, rr)})
            x = x + LevelChain.of(
                lvl, rand.rnd_cube(rng, n + 1, with_gram=True))
        yield "chain-map.%03d" % t, formalchern.check_chain_map(target, x, n)
    rep = formalchern.reindex_check(5)
    yield "reindex.r5", rep["ok"], {"checked": rep["checked"]}


@register("formalchern.vanishing",
          "the vanishing rule is consistent: raw differentials of flagged "
          "generators cancel within isometry classes after the rule",
          trials=25, r=2, seed=0, least={"r": 1})
def _run_vanish(rng, trials, r, seed, **_):
    tested = 0
    for t in range(trials):
        rr = rng.randint(1, r)
        g0, g1 = _tower_chain(rr, 2, seed * 1000 + t)
        f = MorphView(g0, g1)
        target = formalchern.FormalTarget(g0)
        x = CubeChain.of(rand.rnd_cube(rng, rng.randint(0, 1), with_gram=True))
        ok = True
        for cube in xi_Kf(f, (1,), (), x).terms:
            if target.vanishes(cube):
                tested += 1
                ok = ok and formalchern.check_vanishing_consistency(target, cube)
        yield "vanishing.%03d" % t, ok
    yield "vanishing.coverage", tested > 0, {"flagged": tested}


# -- logarithmic forms --------------------------------------------------------

@register("wang.conjugation",
          "the symmetrized logarithmic forms flip sign under conjugation "
          "according to the parity of their rank",
          r=5, seed=0)
def _run_wang_conj(rng, r, **_):
    rep = wang.check_conjugation(r)
    yield "conjugation.r%d" % r, rep["ok"], None if rep["ok"] else rep
    w1 = wang.build_W(1)
    yield "w1.value", w1.terms == {(1, ()): Fraction(-1, 2)}
    for rr in range(2, r + 1):
        w = wang.build_W(rr)
        yield "involution.r%d" % rr, wang.conjugate(wang.conjugate(w)) == w


@register("wang.degrees",
          "every monomial carries one logarithm and rank-minus-one "
          "one-forms; the bidegree split partitions the form and the "
          "expansion size is the full symmetric group",
          r=5, seed=0, least={"r": 1})
def _run_wang_deg(rng, r, **_):
    rep = wang.check_degrees(r)
    yield "degrees.r%d" % r, rep["ok"], None if rep["ok"] else rep
    for rr in range(1, r + 1):
        for i in range(1, rr + 1):
            s = wang.build_S(rr, i)
            distinct = len(s.terms)
            want = rr * math.comb(rr - 1, i - 1)
            yield ("count.r%d.i%d" % (rr, i), distinct == want,
                   {"distinct": distinct, "want": want})
    for rr in range(1, r + 1):
        w = wang.build_W(rr)
        parts = wang.bidegree_split(w)
        total = wang.LogForm()
        for p in parts.values():
            total = total + p
        yield "bidegree.r%d" % rr, total == w


def run_suite(name, **params):
    if name not in _REGISTRY:
        raise KeyError(name)
    return _REGISTRY[name].run(**params)
