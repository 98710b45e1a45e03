import random
import sys
from fractions import Fraction

import pytest

from cubehom import ccx, suites
from cubehom.ccx import (CComplex, CFamily, CHomotopy, ChainComplex, CMap,
                         cmap_add, cmap_shift, compose, diagram_les_check,
                         diagram_simple, homotopy_defect, identity_cmap, phi_s,
                         pi_homotopy, second_homotopy_target, section_t,
                         simple, single_complex, zero_cmap)
from cubehom.exactlin import RatMatrix, inverse
from cubehom.rand import (rnd_ccomplex, rnd_chain_complex, rnd_cmap,
                          rnd_exchange_square, rnd_homotopy_comps,
                          rnd_invertible, rnd_matrix, rnd_retraction,
                          rnd_second_homotopy_setup, solve_second_homotopy)
from helpers import (ConeOracle, cmap_add_oracle, compare_defect_oracle,
                     from_rows, homotopy_validate_oracle, phi_s_oracle,
                     pi_homotopy_oracle, section_t_oracle, zero_filled)


def test_validate_single_complex():
    rng = random.Random(0)
    cc = single_complex(rnd_chain_complex(rng))
    assert cc.validate()["ok"]


def test_validate_reports_violation_with_witness():
    c0 = ChainComplex({0: 1, 1: 1}, {1: from_rows([[1]])})
    c1 = ChainComplex({0: 1, 1: 1}, {1: from_rows([[1]])})
    f01 = {1: from_rows([[1]])}  # no degree-0 component: not a map
    cc = CComplex({0: c0, 1: c1}, {(0, 1): f01})
    rep = cc.validate()
    assert not rep["ok"]
    assert rep["at"]["m"] == 0 and rep["at"]["n"] == 1
    assert "entry" in rep["at"]


def test_homology_of_identity_and_zero_complexes():
    ident = ChainComplex({0: 1, 1: 1}, {1: RatMatrix.identity(1)})
    assert ident.validate()["ok"]
    assert ident.homology() == {0: 0, 1: 0}
    zero = ChainComplex({0: 2, 1: 3, 2: 1},
                        {1: RatMatrix.zero(2, 3), 2: RatMatrix.zero(3, 1)})
    assert zero.validate()["ok"]
    assert zero.homology() == {0: 2, 1: 3, 2: 1}


def test_validate_reports_a_nonzero_square_of_d():
    one = from_rows([[1]])
    cx = ChainComplex({0: 1, 1: 1, 2: 1}, {1: one, 2: one})
    rep = cx.validate()
    assert rep == {"ok": False, "checked": 2,
                   "at": {"m": 0, "n": 0, "degree": 2, "entry": [0, 0],
                          "value": "1"}}
    shifted = CComplex({0: ChainComplex({0: 1}, {}), 3: cx}, {})
    assert shifted.validate() == dict(rep, at=dict(rep["at"], m=3, n=3))
    assert CComplex({0: cx}, {}).validate() == rep


def test_tot_of_lone_complex():
    rng = random.Random(1)
    c = rnd_chain_complex(rng)
    t = single_complex(c).tot()
    for n in c.degrees():
        assert t.dim(n) == c.dim(n)
        assert t.d(n) == c.d(n)


def test_tot_squares_to_zero():
    rng = random.Random(2)
    for _ in range(15):
        a = rnd_ccomplex(rng)
        assert a.validate()["ok"]
        assert a.tot().validate()["ok"]


def test_shift_roundtrip_and_tot():
    rng = random.Random(3)
    a = rnd_ccomplex(rng)
    for r in (-2, 1, 3):
        sh = a.shift(r)
        assert sh.validate()["ok"]
        back = sh.shift(-r)
        assert back.complexes.keys() == a.complexes.keys()
        for m in a.indices():
            assert back.cx(m).dims == a.cx(m).dims
            for n in a.cx(m).degrees():
                assert back.cx(m).d(n) == a.cx(m).d(n)
        t1, t2 = sh.tot(), a.tot().shift(r)
        for p in set(list(t1.dims) + list(t2.dims)):
            assert t1.dim(p) == t2.dim(p)


def test_compose_with_identity_and_tot_functoriality():
    rng = random.Random(4)
    a, b = rnd_ccomplex(rng), rnd_ccomplex(rng)
    f = rnd_cmap(rng, a, b)
    assert compose(f, identity_cmap(a)).comps == f.comps
    assert compose(identity_cmap(b), f).comps == f.comps
    g = rnd_cmap(rng, b, rnd_ccomplex(rng))
    gf = compose(g, f)
    assert gf.validate()["ok"]
    tf, tg, tgf = f.tot(), g.tot(), gf.tot()
    for p in tgf:
        if p in tf and p in tg:
            assert tgf[p] == tg[p].mul(tf[p])


def test_compose_associativity():
    rng = random.Random(5)
    a, b, c, d = (rnd_ccomplex(rng) for _ in range(4))
    f = rnd_cmap(rng, a, b)
    g = rnd_cmap(rng, b, c)
    h = rnd_cmap(rng, c, d)
    assert compose(h, compose(g, f)).comps == compose(compose(h, g), f).comps


def test_simple_of_zero_map_is_direct_sum():
    # with f = 0 no connecting map of the cone has a block from the A slot
    # into the B slot
    checked = 0
    for seed in range(6, 10):
        rng = random.Random(seed)
        a = rnd_ccomplex(rng, steps=(1, 2))
        b = rnd_ccomplex(rng, steps=(1, 2))
        parts = simple(zero_cmap(a, b))
        for (m, n), per in parts.ccx.fmaps.items():
            for k, mat in per.items():
                ta = parts.a.cx(n).dim(k + n - m - 1)
                da = parts.a.cx(m).dim(k)
                checked += 1
                assert not any(r >= ta and c < da for r, c in mat.num)
    assert checked


def test_cone_of_identity_is_acyclic():
    rng = random.Random(7)
    for _ in range(6):
        a = rnd_ccomplex(rng)
        parts = simple(identity_cmap(a))
        assert parts.ccx.validate()["ok"]
        h = parts.ccx.tot().homology()
        degs = sorted(h)
        for n in degs[1:-1]:
            assert h[n] == 0


def test_simple_triangle_maps_validate():
    rng = random.Random(8)
    a, b = rnd_ccomplex(rng), rnd_ccomplex(rng)
    f = rnd_cmap(rng, a, b)
    parts = simple(f)
    assert parts.ccx.validate()["ok"]
    assert parts.proj.validate()["ok"]
    assert parts.incl.validate()["ok"]


def test_phi_s_identity_square():
    rng = random.Random(9)
    a, b = rnd_ccomplex(rng), rnd_ccomplex(rng)
    f = rnd_cmap(rng, a, b)
    parts = simple(f)
    ps = phi_s(parts, parts, identity_cmap(a), identity_cmap(b),
               CHomotopy(a, b, {}))
    assert ps.comps == identity_cmap(parts.ccx).comps


def test_phi_s_random_square_and_strict_triangles():
    rng = random.Random(10)
    for _ in range(10):
        a, b, ap, bp, f, fp, pa, pb, phi = rnd_exchange_square(rng)
        assert phi.validate(compose(pb, f), compose(fp, pa))["ok"]
        parts, parts_p = simple(f), simple(fp)
        ps = phi_s(parts, parts_p, pa, pb, phi)
        assert ps.validate()["ok"]
        assert compose(pa, parts.proj).comps == compose(parts_p.proj, ps).comps
        assert compose(ps, parts.incl).comps == \
            compose(parts_p.incl, cmap_shift(pb, -1)).comps


def test_section_exact_inverse_gives_zero_section():
    rng = random.Random(11)
    a = rnd_ccomplex(rng)
    ident = identity_cmap(a)
    parts = simple(ident)
    t, psi1, psi2 = section_t(parts, ident, ident, CHomotopy(a, a, {}))
    # with g an exact two-sided inverse, Id - gf = 0, so t = 0
    assert not t.comps


def test_section_identities_on_random_retractions():
    rng = random.Random(12)
    for _ in range(25):
        a, b, f, g, psi = rnd_retraction(rng)
        assert psi.validate(identity_cmap(b), compose(f, g))["ok"]
        parts = simple(f)
        t, psi1, psi2 = section_t(parts, f, g, psi)
        assert t.validate()["ok"]
        pt = compose(parts.proj, t)
        idgf = cmap_add(identity_cmap(a), compose(g, f), scale_g=-1)
        assert pt.comps == idgf.comps
        assert psi1.validate(identity_cmap(parts.ccx),
                             compose(t, parts.proj))["ok"]
        assert psi2.validate(zero_cmap(b, parts.ccx), compose(t, g))["ok"]


def test_second_homotopy_zero_case():
    rng = random.Random(13)
    a, b, f, g, psi = rnd_retraction(rng)
    target = second_homotopy_target(g, f, identity_cmap(b),
                                    CHomotopy(a, b, {}), CHomotopy(b, a, {}),
                                    psi, psi)
    # with strict squares and zero exchange homotopies the two mediated
    # homotopies are both psi, so the zero second homotopy closes the gap
    assert CFamily(b, b, {}, 2).compare_defect(target)["ok"]


def test_second_homotopy_random_instances():
    rng = random.Random(14)
    produced = 0
    for _ in range(12):
        setup = rnd_second_homotopy_setup(rng)
        if setup is None:
            continue
        produced += 1
        target = second_homotopy_target(
            setup["g"], setup["f"], setup["phi_b"], setup["h_f"],
            setup["h_g"], setup["psi"], setup["psi"])
        assert setup["theta"].compare_defect(target)["ok"]
    assert produced >= 6


def test_solve_of_a_non_cycle_target_is_obstructed():
    # D D = 0, so a reach-1 family whose own defect is nonzero is no
    # D(Theta): the solve must come back empty
    rng = random.Random(22)
    tried = 0
    while tried < 3:
        a, b = rnd_ccomplex(rng), rnd_ccomplex(rng)
        target = CHomotopy(a, b, rnd_homotopy_comps(rng, a, b))
        if target.compare_defect()["ok"]:
            continue
        tried += 1
        assert solve_second_homotopy(target) is None


def test_pi_homotopy_zero_and_random():
    rng = random.Random(15)
    a, b, f, g, psi0 = rnd_retraction(rng)
    # all-zero exchange data with strict squares: pi reduces to the
    # theta-free formula and must still mediate the section squares
    setups = [s for s in (rnd_second_homotopy_setup(rng) for _ in range(10))
              if s is not None]
    assert setups
    for setup in setups[:6]:
        f, g, psi = setup["f"], setup["g"], setup["psi"]
        parts = simple(f)
        t, _, _ = section_t(parts, f, g, psi)
        ps = phi_s(parts, parts, setup["phi_a"], setup["phi_b"], setup["h_f"])
        pi = pi_homotopy(parts, f, setup["theta"], setup["h_f"],
                         setup["h_g"], psi, g)
        assert pi.validate(compose(ps, t), compose(t, setup["phi_a"]))["ok"]


def _same_cone(parts, oracle):
    """The cone, projection and inclusion of ``simple`` against the
    closures of ``ConeOracle``."""
    cone, expect = parts.ccx, oracle.ccx
    assert cone.indices() == expect.indices()
    for m in cone.indices():
        assert cone.cx(m).dims == expect.cx(m).dims
        assert cone.cx(m).boundary == expect.cx(m).boundary
    assert cone.fmaps == expect.fmaps
    assert parts.proj.comps == oracle.proj.comps
    assert parts.incl.comps == oracle.incl.comps


def test_cone_constructions_match_their_closure_oracles_on_squares():
    rng = random.Random(40)
    for _ in range(6):
        a, b, ap, bp, f, fp, pa, pb, phi = rnd_exchange_square(rng)
        parts, parts_p = simple(f), simple(fp)
        oracle, oracle_p = ConeOracle(f), ConeOracle(fp)
        _same_cone(parts, oracle)
        _same_cone(parts_p, oracle_p)
        ps = phi_s(parts, parts_p, pa, pb, phi)
        ps_o = phi_s_oracle(oracle, oracle_p, pa, pb, phi)
        assert ps.comps == ps_o.comps
        # cones over cones: of the induced map and of the triangle maps
        for new, old in ((ps, ps_o), (parts.proj, oracle.proj),
                         (parts.incl, oracle.incl)):
            _same_cone(simple(new), ConeOracle(old))
        for x, y in ((compose(pb, f), compose(fp, pa)), (phi, phi),
                     (ps, ps)):
            for scale in (1, -1, 2):
                assert cmap_add(x, y, scale).comps == \
                    cmap_add_oracle(x, y, scale).comps


def test_section_constructions_match_their_closure_oracles():
    rng = random.Random(41)
    for _ in range(8):
        a, b, f, g, psi = rnd_retraction(rng)
        parts, oracle = simple(f), ConeOracle(f)
        _same_cone(parts, oracle)
        new, old = section_t(parts, f, g, psi), section_t_oracle(oracle, f, g,
                                                                 psi)
        for x, y in zip(new, old):
            assert x.comps == y.comps
        # the cone of t: A -> s(f), a cone over a cone
        _same_cone(simple(new[0]), ConeOracle(old[0]))


def test_pi_homotopy_matches_its_closure_oracle():
    rng = random.Random(42)
    setups = [s for s in (rnd_second_homotopy_setup(rng) for _ in range(8))
              if s is not None]
    assert setups
    nonzero = 0
    for setup in setups:
        f, g, psi = setup["f"], setup["g"], setup["psi"]
        parts, oracle = simple(f), ConeOracle(f)
        _same_cone(parts, oracle)
        ps = phi_s(parts, parts, setup["phi_a"], setup["phi_b"], setup["h_f"])
        ps_o = phi_s_oracle(oracle, oracle, setup["phi_a"], setup["phi_b"],
                            setup["h_f"])
        assert ps.comps == ps_o.comps
        _same_cone(simple(ps), ConeOracle(ps_o))
        pi = pi_homotopy(parts, f, setup["theta"], setup["h_f"],
                         setup["h_g"], psi, g)
        pi_o = pi_homotopy_oracle(oracle, f, setup["theta"], setup["h_f"],
                                  setup["h_g"], psi, g)
        assert pi.comps == pi_o.comps
        nonzero += bool(pi.comps)
    assert nonzero


def test_diagram_simple_zero():
    z = ChainComplex({}, {})
    sd = diagram_simple(z, z, z, z, {}, {}, {})
    assert not sd.dims


def test_diagram_simple_boundary_and_les():
    rng = random.Random(16)
    for _ in range(8):
        a2 = rnd_chain_complex(rng, degs=(0, 3))
        u = {n: rnd_invertible(rng, a2.dim(n)) for n in a2.degrees()}
        b1 = ChainComplex(dict(a2.dims),
                          {n: u[n - 1].mul(a2.d(n)).mul(inverse(u[n]))
                           for n in a2.degrees()
                           if a2.dim(n) and a2.dim(n - 1)})
        g1 = {n: u[n] for n in a2.degrees() if a2.dim(n)}
        a1 = rnd_chain_complex(rng, degs=(0, 3))
        b2 = rnd_chain_complex(rng, degs=(0, 3))
        f1 = _chain_map(rng, a1, b1)
        f2 = _chain_map(rng, a2, b2)
        sd = diagram_simple(a1, b1, a2, b2, f1, g1, f2)
        assert sd.validate()["ok"]
        rep = diagram_les_check(a1, b1, a2, b2, f1, g1, f2, (1, 2))
        assert rep["ok"], rep


def test_diagram_identity_case_dimension_count():
    rng = random.Random(17)
    a = rnd_chain_complex(rng, degs=(0, 3))
    ident = {n: RatMatrix.identity(a.dim(n)) for n in a.degrees()}
    a1 = rnd_chain_complex(rng, degs=(0, 3))
    b2 = rnd_chain_complex(rng, degs=(0, 3))
    sd = diagram_simple(a1, a, a, b2, {}, ident, {})
    assert sd.validate()["ok"]
    # the cone over an identity collapses: homology is H(A1) + H(B2)[-1]
    h = sd.homology()
    ha1 = a1.homology()
    hb2 = b2.shift(-1).homology()
    for n in list(h)[1:-1]:
        assert h[n] == ha1.get(n, 0) + hb2.get(n, 0)


def _chain_map(rng, src, dst):
    degs = set(list(src.dims) + list(dst.dims))
    h = {n: rnd_matrix(rng, dst.dim(n + 1), src.dim(n), density=0.5)
         for n in degs | {n - 1 for n in degs}}
    out = {}
    for n in degs:
        m = dst.d(n + 1).mul(h[n]) + h[n - 1].mul(src.d(n))
        if not m.is_zero():
            out[n] = m
    return out


def test_diagram_rejects_non_chain_map():
    rng = random.Random(18)
    a1 = ChainComplex({0: 1, 1: 1}, {1: from_rows([[1]])})
    b1 = ChainComplex({0: 1, 1: 1}, {})
    bad = {0: from_rows([[1]]), 1: from_rows([[1]])}
    with pytest.raises(ValueError):
        diagram_simple(a1, b1, b1, b1, bad, {}, {})


def _tot_reference(a):
    """Column-by-column Tot differential, as a plain double loop: Tot_p
    lays out the A^m_{m+p} in increasing m, and the column of a basis
    vector of A^m_{m+p} holds (-1)^m d(m + p) in the A^m rows and
    F^{m,n} in the A^n rows, read off the boundaries and connecting maps
    as stored."""
    idxs = sorted(a.complexes)
    dims, basis = {}, {}
    degs = {k - m for m in idxs for k in a.cx(m).dims}
    for p in range(min(degs), max(degs) + 1):
        basis[p], dims[p] = {}, 0
        for m in idxs:
            for i in range(a.cx(m).dim(m + p)):
                basis[p][(m, i)] = dims[p] + i
            dims[p] += a.cx(m).dim(m + p)
    out = {}
    for p in dims:
        if p - 1 not in dims:
            continue
        ent = {}
        for (m, i), col in basis[p].items():
            blocks = [(n, per[m + p]) for (src, n), per in a.fmaps.items()
                      if src == m and m + p in per]
            d = a.cx(m).boundary.get(m + p)
            if d is not None:
                blocks.append((m, d.scale(Fraction(-1) ** (m % 2))))
            for n, mat in blocks:
                for (r, c), v in mat.items():
                    if c == i:
                        key = (basis[p - 1][(n, r)], col)
                        ent[key] = ent.get(key, 0) + v
        out[p] = RatMatrix(dims[p - 1], dims[p], ent)
    return out


def test_tot_matches_reference_and_is_exact_under_shift():
    rng = random.Random(11)
    for _ in range(10):
        a = rnd_ccomplex(rng, steps=(1, 2))
        want = _tot_reference(a)
        t = a.tot()
        for p, mat in want.items():
            assert t.d(p) == mat
        # Tot(A[r])_p = Tot(A)_{p-r} with the differential scaled by (-1)^r;
        # negative indices must keep the entries exact
        for r in (-1, 1, 2):
            ts = a.shift(r).tot()
            for p, mat in want.items():
                assert ts.d(p + r) == mat.scale(Fraction(-1) ** (r % 2))


def _bump_last_visible(fam, rebuild):
    """fam with 1 added to one entry of one component, and that component's
    (m, n, degree).  The source index m is the least one, so no earlier
    (m', n) sees the entry through h F; the entry sits in a row that the
    target boundary does not kill, so the defect changes at that component
    and at none visited before it.  Of those components, the last visited."""
    m = min(fam.src.indices())
    found = None
    for n in fam.dst.indices():
        if m > n + fam.reach:
            continue
        for k in fam.src.cx(m).degrees():
            d = fam.dst.cx(n).d(k + n - m + fam.reach)
            if d.num:
                found = (n, k, min(c for _, c in d.num))
    if found is None:
        return None, None
    n, k, r = found
    comps = {key: dict(per) for key, per in fam.comps.items()}
    comps.setdefault((m, n), {})[k] = zero_filled(fam, m, n, k) + RatMatrix(
        fam.dst.cx(n).dim(k + n - m + fam.reach), fam.src.cx(m).dim(k),
        {(r, 0): 1})
    return rebuild(comps), (m, n, k)


def _assert_witness(rep, fam, at):
    assert not rep["ok"]
    assert (rep["at"]["m"], rep["at"]["n"], rep["at"]["degree"]) == at
    # every component visited before the perturbed one still checks out
    assert rep["checked"] == list(ccx._keys(fam.src, fam.dst, fam.reach)).index(at) + 1


def test_perturbed_map_entry_is_named_by_validate():
    rng = random.Random(19)
    tried = 0
    while tried < 5:
        a, b = rnd_ccomplex(rng), rnd_ccomplex(rng)
        f = rnd_cmap(rng, a, b)
        assert f.validate()["ok"]
        bad, at = _bump_last_visible(f, lambda comps: CMap(a, b, comps))
        if bad is None:
            continue
        tried += 1
        _assert_witness(bad.validate(), f, at)


def test_perturbed_homotopy_entry_is_named_by_validate():
    rng = random.Random(20)
    tried = 0
    while tried < 5:
        a, b, f, g, psi = rnd_retraction(rng)
        ends = (identity_cmap(b), compose(f, g))
        assert psi.validate(*ends)["ok"]
        bad, at = _bump_last_visible(
            psi, lambda comps: CHomotopy(b, b, comps))
        if bad is None:
            continue
        tried += 1
        _assert_witness(bad.validate(*ends), psi, at)


def test_homotopy_defect_is_the_defect_of_each_component():
    rng = random.Random(21)
    a, b = rnd_ccomplex(rng), rnd_ccomplex(rng)
    comps = rnd_homotopy_comps(rng, a, b)
    h = CHomotopy(a, b, comps)
    d = homotopy_defect(a, b, comps)
    assert d.validate()["ok"]
    for m, n, k in ccx._keys(a, b, 0):
        want = h.defect(m, n, k)
        if want is not None and want.is_zero():
            want = None
        assert d.get(m, n, k) == want


def test_indices_are_the_sorted_nonzero_complexes():
    rng = random.Random(4)
    for _ in range(6):
        a = rnd_ccomplex(rng)
        for c in (a, a.shift(2), simple(zero_cmap(a, a)).ccx):
            assert c.indices() == tuple(sorted(c.complexes))
            assert c.indices() is c.indices()
    # an empty complex is dropped from the indices
    c = CComplex({3: rnd_chain_complex(rng), 0: ChainComplex({}, {})}, {})
    assert 0 not in c.indices()
    assert c.indices() == tuple(sorted(c.complexes))


def test_defect_reports_match_the_zero_filled_oracle():
    # absent components are zero: every report, failing ones included, is
    # the one the zero-filled comparison gives, down to its witness
    rng = random.Random(43)
    cases = []
    for _ in range(4):
        a, b, f, g, psi = rnd_retraction(rng)
        fg, ident = compose(f, g), identity_cmap(b)
        cases += [(f.validate(), compare_defect_oracle(f)),
                  (psi.validate(ident, fg),
                   homotopy_validate_oracle(psi, ident, fg)),
                  (psi.validate(fg, ident),
                   homotopy_validate_oracle(psi, fg, ident))]
        zero = CHomotopy(b, b, {})
        cases.append((zero.validate(ident, fg),
                      homotopy_validate_oracle(zero, ident, fg)))
        bad, _ = _bump_last_visible(f, lambda comps: CMap(a, b, comps))
        if bad is not None:
            cases.append((bad.validate(), compare_defect_oracle(bad)))
        bad, _ = _bump_last_visible(psi, lambda comps: CHomotopy(b, b, comps))
        if bad is not None:
            cases.append((bad.validate(ident, fg),
                          homotopy_validate_oracle(bad, ident, fg)))
    for _ in range(4):
        a, b, ap, bp, f, fp, pa, pb, phi = rnd_exchange_square(rng)
        left, right = compose(pb, f), compose(fp, pa)
        zero = CHomotopy(a, bp, {})
        cases += [(pa.validate(), compare_defect_oracle(pa)),
                  (phi.validate(left, right),
                   homotopy_validate_oracle(phi, left, right)),
                  (zero.validate(left, right),
                   homotopy_validate_oracle(zero, left, right))]
    setups = [s for s in (rnd_second_homotopy_setup(rng) for _ in range(6))
              if s is not None]
    assert setups
    for setup in setups:
        target = setup["target"]
        for theta in (setup["theta"],
                      CFamily(target.src, target.dst, {}, 2)):
            cases.append((theta.compare_defect(target),
                          compare_defect_oracle(
                              theta, lambda m, n, k: zero_filled(target, m, n, k))))
    for got, want in cases:
        assert got == want
    assert sum(not want["ok"] for _, want in cases) >= 8


# The ccx.py functions that may ask for a zero matrix, with the reason.
ZERO_ALLOWED = {
    "CMap.tot": "Tot(f) is a matrix in every total degree, the zero matrix "
                "where no block is present",
}


def test_ccx_builds_no_zero_matrix(monkeypatch):
    # absent is zero in ccx: a component, boundary or block that is absent
    # is skipped, never filled in with a zero matrix
    zero = RatMatrix.zero
    callers = {}

    def counted(rows, cols):
        code = sys._getframe(1).f_code
        if code.co_filename == ccx.__file__:
            callers[code.co_qualname] = callers.get(code.co_qualname, 0) + 1
        return zero(rows, cols)

    monkeypatch.setattr(RatMatrix, "zero", staticmethod(counted))
    for name, trials in (("ccx.relation", 3), ("ccx.cone-section", 3),
                         ("ccx.cone-map", 3), ("ccx.second-homotopy", 2)):
        assert suites.run_suite(name, trials=trials, seed=1)["ok"]
    assert {name: n for name, n in callers.items()
            if name not in ZERO_ALLOWED} == {}
