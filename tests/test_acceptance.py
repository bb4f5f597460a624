"""Acceptance sweep: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Everything is exact arithmetic; tolerances below are the stated
ones, not loosened.
"""

import random
import time
from fractions import Fraction

import pytest

from padicgeom import (And, Atom, MonomialPoint, NormValue, RigidPoint, Series,
                       Space, SplitAtom, SplitPoly, apply_shear, certify_unit,
                       complement, decide_exists, distinguished_order, eval_formula,
                       gauss_point, intersect, make_distinguished, membership,
                       pushforward_eval, qe_prepare, to_dnf, union,
                       weierstrass_divide, weierstrass_prepare)
from padicgeom.formulas import dnf_to_formula, eval_conjunct
from conftest import (ONE, ZERO, ceil_frac, nv, poly, rand_constructible,
                      rand_distinguished, rand_formula, rand_monomial,
                      rand_nonzero_series, rand_point_coord, rand_rigid,
                      rand_scalar, rand_unit_scalar, space)


def report(num, label, detail=""):
    print(f"criterion {num:2d}: PASS - {label}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------- 1 and 2 --


def test_criterion_1_and_2_division_contract():
    rng = random.Random(101)
    runs = 0
    t0 = time.time()
    while runs < 500:
        p = rng.choice([2, 3, 5])
        if rng.random() < 0.6:
            sp = space(p, ("T", 0))
        else:
            sp = space(p, ("x", 0), ("T", 0))
        slack = (1, 2) if rng.random() < 0.2 else (3, 5)
        g, cert = rand_distinguished(
            rng, sp, "T", max_order=5, above_slack=slack,
            series_unit=(len(sp.vars) > 1 and rng.random() < 0.5))
        f = rand_nonzero_series(rng, sp, max_terms=4, max_deg=8, vmin=-2)
        if f.degree_in("T") > 8:
            continue
        runs += 1
        nf = f.gauss_norm().value
        eps = nf * NormValue.power(-20)
        out = weierstrass_divide(f, g, cert, eps)
        # exact residual recomputation
        defect = f - (g * out.quotient + out.remainder)
        assert defect.gauss_norm().value <= eps
        assert out.remainder.degree_in("T") < cert.order
        # norm identity (eps < ||f|| always here)
        lhs = max(g.gauss_norm().value * out.quotient.gauss_norm().value,
                  out.remainder.gauss_norm().value)
        assert lhs == nf
        # criterion 2: logged contraction bookkeeping
        bound = nf
        for h_norm in out.iterations:
            bound = bound * out.contraction
            assert h_norm <= bound
    report(1, "500 division contracts exact", f"{time.time() - t0:.1f}s")
    report(2, "per-iteration defects within kappa^i bound on all logged runs")


# ----------------------------------------------------------------------- 3 --


def test_criterion_3_norm_multiplicativity():
    rng = random.Random(103)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        sp = space(p, ("x", 0), ("T", 0)) if rng.random() < 0.5 \
            else space(p, ("T", 0))
        g, _cert = rand_distinguished(rng, sp, "T",
                                      series_unit=(len(sp.vars) > 1))
        q = rand_nonzero_series(rng, sp, max_terms=5, max_deg=4, vmin=-2)
        assert (g * q).gauss_norm().value == \
            g.gauss_norm().value * q.gauss_norm().value
    report(3, "200 distinguished products norm-multiplicative exactly")


# ----------------------------------------------------------------------- 4 --


def test_criterion_4_preparation():
    rng = random.Random(104)
    exact_seen = 0
    for k in range(200):
        p = rng.choice([2, 3, 5])
        sp = space(p, ("T", 0))
        if k % 3 == 0:
            # exact instance: polynomial of degree exactly the order
            g, cert = rand_distinguished(rng, sp, "T", max_order=4)
            low, _ = _truncate(g, "T", cert.order)
            g = low
            cert = distinguished_order(g, "T")
        else:
            g, cert = rand_distinguished(rng, sp, "T", max_order=4)
        eps = cert.norm_witness * NormValue.power(-20)
        out = weierstrass_prepare(g, cert, eps)
        assert certify_unit(out.unit) is not None
        assert out.monic.degree_in("T") == cert.order
        top = [c for n, c in out.monic.coeff_view("T") if n == cert.order]
        assert top and top[0].as_scalar() == 1
        defect = (g - out.unit.drop_tail() * out.monic).gauss_norm().value
        assert max(defect,
                   out.unit.tail * out.monic.gauss_norm().value) <= eps
        if g.degree_in("T") == cert.order:
            exact_seen += 1
            assert out.residual == ZERO
            assert g == out.unit * out.monic
    assert exact_seen >= 50
    report(4, "200 preparations certified", f"{exact_seen} exact instances")


def _truncate(g, pivot, s):
    i = g.space.index(pivot)
    low = {e: c for e, c in g.coeffs.items() if e[i] <= s}
    return Series(g.space, low), None


# ----------------------------------------------------------------------- 5 --


def test_criterion_5_distinguishing_transform():
    rng = random.Random(105)
    for _ in range(200):
        p = rng.choice([2, 3])
        n = rng.randint(1, 3)
        names = [f"T{i + 1}" for i in range(n)]
        sp = space(p, *[(nm, 1) for nm in names])
        f = rand_nonzero_series(rng, sp, max_terms=12, max_deg=4, vmin=-2)
        res = make_distinguished([f], names[-1])
        cert = distinguished_order(res.transformed[0], names[-1])
        assert cert is not None and cert.order == res.orders[0]
        # the claimed order is the base-d encoding of the lex-max
        # norm-maximal index
        d = res.base
        best = None
        best_norm = ZERO
        for expo, c in f.coeffs.items():
            cn = NormValue.of_scalar(c, p)
            if best is None or cn > best_norm or (cn == best_norm and expo > best):
                best, best_norm = expo, cn
        enc = sum(e * d ** (n - 1 - i) for i, e in enumerate(best))
        assert res.orders[0] == enc
        # norm identity on every support monomial
        target = res.transformed[0].space
        for expo in f.coeffs:
            mono = Series.monomial(target, expo)
            e_val = sum(e * d ** (n - 1 - i) for i, e in enumerate(expo))
            assert apply_shear(mono, res.shear).gauss_norm().value == \
                res.s ** e_val
        # forward then inverse is the identity
        rebased = Series(target, f.coeffs)
        assert apply_shear(res.transformed[0], res.shear.inverted()) == rebased
    report(5, "200 distinguishing transforms verified "
              "(orders, norm identity, shear roundtrip)")


# ----------------------------------------------------------------------- 6 --


def test_criterion_6_boolean_calculus():
    rng = random.Random(106)
    t0 = time.time()
    for k in range(100):
        p = rng.choice([2, 3])
        sp = space(p, ("x", 0)) if rng.random() < 0.5 \
            else space(p, ("x", 0), ("y", 0))
        A = rand_constructible(rng, sp)
        B = rand_constructible(rng, sp)
        notA = complement(A)
        AB = intersect(A, B)
        AuB = union(A, B)
        for _ in range(200):
            x = rand_rigid(rng, sp)
            va, vb = membership(A, x), membership(B, x)
            assert va is not None and vb is not None
            assert membership(notA, x) is (not va)
            assert membership(AB, x) is (va and vb)
            assert membership(AuB, x) is (va or vb)
    report(6, "100 random sets x 200 points: boolean calculus exact, "
              "no unknowns", f"{time.time() - t0:.1f}s")


# ----------------------------------------------------------------------- 7 --


def test_criterion_7_dnf_soundness():
    rng = random.Random(107)
    t0 = time.time()
    for _ in range(200):
        p = rng.choice([2, 3])
        sp = space(p, ("x", 0)) if rng.random() < 0.5 \
            else space(p, ("x", 0), ("y", 0))
        phi = rand_formula(rng, sp, rng.randint(1, 8))
        conjuncts = to_dnf(phi)
        for _ in range(50):
            x = rand_rigid(rng, sp) if rng.random() < 0.6 \
                else rand_monomial(rng, sp)
            want = eval_formula(phi, x)
            got = False
            for c in conjuncts:
                if eval_conjunct(c, x) is True:
                    got = True
                    break
            assert got == want
    report(7, "200 formulas x 50 rigid+monomial points: DNF pointwise exact",
           f"{time.time() - t0:.1f}s")


# ----------------------------------------------------------------------- 8 --


def _exactly_preparable_side(rng, sp, pivot):
    """Polynomial shapes whose preparation certifies residual zero."""
    p = sp.prime
    shape = rng.random()
    T = Series.variable(sp, pivot)
    if shape < 0.45:
        # top coefficient dominates in plain coefficient norm, so the
        # sheared order is the degree and w = g / lead exactly
        s = rng.randint(0, 3)
        coeffs = {}
        lead_v = rng.randint(-2, 2)
        coeffs[(s,)] = rand_unit_scalar(rng, p) * Fraction(p) ** lead_v
        for n in range(s):
            v = lead_v + rng.randint(0, 2)
            if rng.random() < 0.5:
                coeffs[(n,)] = rand_unit_scalar(rng, p) * Fraction(p) ** v
        return Series(sp, coeffs)
    if shape < 0.8:
        # unit times a pure pivot power
        s = rng.randint(0, 2)
        k = rng.randint(1, 2)
        v = ceil_frac(k * sp.radius(pivot).exp) + rng.randint(1, 2)
        unit = Series.one(sp) + T.pow(k).scale(
            rand_unit_scalar(rng, p) * Fraction(p) ** v)
        return (unit * T.pow(s)).scale(rand_scalar(rng, p, -2, 2))
    # scalar
    return Series.constant(sp, rand_scalar(rng, p, -2, 2))


def test_criterion_8_qe_preparation_equivalence():
    rng = random.Random(108)
    t0 = time.time()
    for _ in range(100):
        p = rng.choice([2, 3])
        sp = space(p, ("T", 1))
        atoms = []
        for _ in range(rng.randint(1, 3)):
            atoms.append(Atom(
                NormValue.power(rng.randint(-2, 2)),
                _exactly_preparable_side(rng, sp, "T"),
                rng.choice(["<=", "<"]),
                NormValue.power(rng.randint(-2, 2)),
                _exactly_preparable_side(rng, sp, "T")))
        prepared = qe_prepare(atoms, "T")
        unit_sp = space(p, ("T", 0))
        for _ in range(100):
            t = rand_point_coord(rng, p, Fraction(0))
            x = RigidPoint(sp, (t,))
            ux = RigidPoint(unit_sp, (t,))
            for atom, patom in zip(atoms, prepared):
                lv = atom.f.eval_seminorm(x).value * atom.alpha
                rv = atom.g.eval_seminorm(x).value * atom.beta
                want = lv <= rv if atom.op == "<=" else lv < rv
                pl = patom.f.substitute(
                    {"T": Series.variable(unit_sp, "T")}).eval_seminorm(ux)
                pr = patom.g.substitute(
                    {"T": Series.variable(unit_sp, "T")}).eval_seminorm(ux)
                gl = pl.value * patom.alpha
                gr = pr.value * patom.beta
                got = gl <= gr if patom.op == "<=" else gl < gr
                assert got == want
    report(8, "100 conjuncts x 100 unit-disc points: prepared form "
              "pointwise equivalent", f"{time.time() - t0:.1f}s")


# ----------------------------------------------------------------------- 9 --


ROOT_POOL = {
    2: [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(4),
        Fraction(3), Fraction(6)],
    3: [Fraction(0), Fraction(1), Fraction(-1), Fraction(3), Fraction(9),
        Fraction(2), Fraction(6)],
}


def _rand_split_instance(rng, p):
    atoms = []
    for _ in range(rng.randint(1, 4)):
        def side(max_deg):
            if rng.random() < 0.2:
                return SplitPoly(rand_unit_scalar(rng, p)
                                 * Fraction(p) ** rng.randint(-1, 1), ())
            roots = {}
            deg = 0
            for _ in range(rng.randint(1, 2)):
                a = rng.choice(ROOT_POOL[p])
                m = rng.randint(1, 2)
                if deg + m > max_deg:
                    m = max_deg - deg
                if m <= 0:
                    break
                roots[a] = roots.get(a, 0) + m
                deg += m
            if not roots:
                return SplitPoly(Fraction(1), ())
            return SplitPoly(
                rand_unit_scalar(rng, p) * Fraction(p) ** rng.randint(-1, 1),
                tuple(sorted(roots.items())))

        left = side(5)
        right = side(max(1, 5 - left.degree)) if rng.random() < 0.4 \
            else SplitPoly(Fraction(1), ())
        atoms.append(SplitAtom(NormValue.power(rng.randint(-5, 3)), left,
                               rng.choice(["<=", "<"]),
                               NormValue.power(rng.randint(-5, 3)), right))
    return atoms


def _oracle_value(polyside, center, rho, p):
    # |P| at the monomial point eta_{center, rho}, straight from the
    # definition: |lead| * prod max(rho, |center - root|)^mult
    out = NormValue.of_scalar(polyside.lead, p)
    for a, m in polyside.roots:
        out = out * (max(rho, NormValue.of_scalar(center - a, p)) ** m)
    return out


def _oracle_rigid_value(polyside, t, p):
    out = NormValue.of_scalar(polyside.lead, p)
    for a, m in polyside.roots:
        out = out * (NormValue.of_scalar(t - a, p) ** m)
    return out


def _oracle_holds(atom, value_of):
    lv = value_of(atom.left) * atom.scale_left if atom.left else ZERO
    rv = value_of(atom.right) * atom.scale_right if atom.right else ZERO
    return lv <= rv if atom.op == "<=" else lv < rv


def _oracle_decide(atoms, p):
    roots = set()
    degs = {1}
    for atom in atoms:
        for s in (atom.left, atom.right):
            if s is not None:
                roots.update(a for a, _ in s.roots)
                if s.degree:
                    degs.add(s.degree)
    centers = sorted({Fraction(0)} | {a for a in roots
                                      if NormValue.of_scalar(a, p) <= ONE})
    # rigid candidates near each root, valuations 0..10
    for c in centers:
        for k in range(0, 11):
            for u in (1, -1, 2):
                t = c + Fraction(u) * Fraction(p) ** k
                if NormValue.of_scalar(t, p) <= ONE:
                    if all(_oracle_holds(a, lambda s, t=t:
                                         _oracle_rigid_value(s, t, p))
                           for a in atoms):
                        return True
        if all(_oracle_holds(a, lambda s, c=c: _oracle_rigid_value(s, c, p))
               for a in atoms):
            return True
    # monomial candidates: exponent lattice fine enough for every
    # truth flip (denominators are multiplicity-sum differences)
    denom_lcm = 1
    for d in degs:
        denom_lcm = denom_lcm * d // _gcd(denom_lcm, d)
    exps = set()
    max_e = 14
    for j in range(0, max_e * denom_lcm + 1):
        exps.add(Fraction(-j, denom_lcm))
    for c in centers:
        for other in roots:
            d = NormValue.of_scalar(c - other, p)
            if not d.is_zero and d <= ONE:
                exps.add(d.exp)
    grid = sorted(exps)
    mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    all_exps = sorted(set(grid) | set(mids))
    for c in centers:
        for e in all_exps:
            rho = NormValue.power(e)
            if all(_oracle_holds(a, lambda s, c=c, rho=rho:
                                 _oracle_value(s, c, rho, p))
                   for a in atoms):
                return True
    return False


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _expand_split(sp, polyside):
    out = Series.constant(sp, polyside.lead)
    T = Series.variable(sp, sp.vars[0].name)
    for a, m in polyside.roots:
        out = out * (T - Series.constant(sp, a)).pow(m)
    return out


def test_criterion_9_decision_vs_oracle():
    rng = random.Random(109)
    t0 = time.time()
    for _ in range(200):
        p = rng.choice([2, 3])
        atoms = _rand_split_instance(rng, p)
        sp = space(p, ("t", 0))
        decision = decide_exists(And(tuple(atoms)), sp)
        oracle = _oracle_decide(atoms, p)
        assert (decision.status == "SAT") == oracle
        if decision.status == "SAT":
            # the witness verifies through the series evaluation path
            w = decision.witness
            for atom in atoms:
                lv = (_expand_split(sp, atom.left).eval_seminorm(w).value
                      * atom.scale_left) if atom.left else ZERO
                rv = (_expand_split(sp, atom.right).eval_seminorm(w).value
                      * atom.scale_right) if atom.right else ZERO
                assert (lv <= rv if atom.op == "<=" else lv < rv)
    elapsed = time.time() - t0
    assert elapsed < 30
    report(9, "200 split instances: decision agrees with brute-force "
              "oracle; witnesses verify", f"{elapsed:.1f}s")


# ---------------------------------------------------------------------- 10 --


def test_criterion_10_blowup_commutation():
    from padicgeom import Chart, chart_transition, pullback_chart, \
        pushdown_poly
    rng = random.Random(110)
    sp = space(2, ("x", 0), ("y", 0))
    ch1, ch2 = Chart(1, sp), Chart(2, sp)
    for _ in range(100):
        h = rand_nonzero_series(rng, sp, max_terms=4, max_deg=3, vmin=-1)
        x = rng.choice([Fraction(1), Fraction(2), Fraction(3), Fraction(6),
                        Fraction(5)])
        t = rand_point_coord(rng, 2, Fraction(0))
        q = RigidPoint(ch1.space(), (x, t))
        assert pullback_chart(h, ch1).eval_exact(q.coords) == \
            h.eval_exact(ch1.to_base(q).coords)
    xvar = Series.variable(ch1.space(), "x")
    for _ in range(100):
        P = rand_nonzero_series(rng, ch1.space(), max_terms=4, max_deg=4,
                                vmin=-1)
        m, pt = pushdown_poly(P, ch1)
        assert xvar.pow(m) * P == pullback_chart(pt, ch1)
    units = [Fraction(1), Fraction(3), Fraction(5), Fraction(1, 3),
             Fraction(-1)]
    for _ in range(50):
        x = rng.choice([Fraction(0), Fraction(1), Fraction(2), Fraction(4)])
        t = rng.choice(units)
        q = RigidPoint(ch1.space(), (x, t))
        out = chart_transition(q, ch1, ch2)
        assert ch1.to_base(q).coords == ch2.to_base(out).coords
    report(10, "blow-up commutation, pushdown identity and chart "
               "transition all exact")


# ---------------------------------------------------------------------- 11 --


def test_criterion_11_circle_witness():
    rng = random.Random(111)
    sp = space(2, ("T", 0))
    from padicgeom import parse_formula
    circle = parse_formula("|T| <= 2^-1/2*|1| & !(|T| < 2^-1/2*|1|)", sp)
    for _ in range(1000):
        x = rand_rigid(rng, sp)
        assert eval_formula(circle, x) is False
    eta = MonomialPoint(sp, (0,), (nv("-1/2"),))
    assert eval_formula(circle, eta) is True
    report(11, "|T| = 2^-1/2 rejects 1000 rigid rational points and "
               "accepts the monomial point")


# ---------------------------------------------------------------------- 12 --


def test_criterion_12_pushforward_apparatus():
    # p = 2, eps-scaling 2: f(u) = sum_{k>=1} 2^(1-k) u^k has radius of
    # convergence exactly 1/2 and sup norm 1/2 there; pushing forward along
    # u -> (2u, f(2u)) realizes |x| = 1/2, |y| = ||f(2u)|| and a certified
    # bound on the graph equation at the Gauss point.
    sp_u = space(2, ("u", 0))
    u = Series.variable(sp_u, "u")
    truncation = 32
    # f(2u) = sum 2^(1-k) (2u)^k = sum 2 u^k: every coefficient is 2
    y_series = Series(sp_u, {(k,): 2 for k in range(1, truncation + 1)},
                      tail=nv(-1))
    x_series = u.scale(2)
    sp_xy = space(2, ("x", 0), ("y", 0))
    eta = gauss_point(sp_u)

    est_x = pushforward_eval(Series.variable(sp_xy, "x"),
                             [x_series, y_series], eta)
    assert est_x.value == nv(-1)

    est_y = pushforward_eval(Series.variable(sp_xy, "y"),
                             [x_series, y_series], eta)
    assert est_y.value == y_series.drop_tail().gauss_norm().value == nv(-1)

    # the graph equation y - f_trunc(x): f_trunc(x) = sum 2^(1-k) x^k
    sp_big = space(2, ("x", 5), ("y", 0))  # f_trunc needs room: |coeffs| grow
    f_trunc = Series(sp_big, {(k, 0): Fraction(2) ** (1 - k)
                              for k in range(1, truncation + 1)})
    graph = Series.variable(sp_big, "y") - f_trunc
    # substitute the map by hand (x image has norm 1/2 <= 2^5)
    composed = graph.substitute({"x": x_series, "y": y_series})
    est = composed.eval_seminorm(eta)
    assert est.value == ZERO            # exact cancellation on stored parts
    assert est.uncertainty <= nv(-1)    # bounded by the truncation tail
    report(12, "pushforward apparatus: |x| = 2^-1, |y| = ||f|| exact, "
               "graph equation within the truncation tail")
