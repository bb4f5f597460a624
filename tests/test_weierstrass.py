import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padicgeom import weierstrass
from padicgeom.scalars import _valuation
from padicgeom.series import MAX_POWER, ints_add_into, ints_mul, ints_reduce, norm_exp
from padicgeom import (DistinguishedCertificate, NormValue, RigidPoint, Series,
                       certify_unit, distinguished_order, invert_unit,
                       weierstrass_divide, weierstrass_prepare)
from conftest import (ONE, ZERO, nv, poly, rand_distinguished,
                      rand_nonzero_series, rand_rigid, space)


def B1(p=2):
    return space(p, ("T", 0))


def test_certify_unit_examples():
    sp = B1()
    cert = certify_unit(poly(sp, {(0,): 1, (1,): 2}))
    assert cert is not None and cert.scale == 1
    assert cert.rest == poly(sp, {(1,): 2})
    cert3 = certify_unit(Series.constant(sp, 3))
    assert cert3 is not None and cert3.scale == 3 and cert3.rest.is_zero
    assert certify_unit(Series.variable(sp, "T")) is None


def test_invert_unit_examples():
    sp = B1()
    u = poly(sp, {(0,): 1, (1,): 2})
    v = invert_unit(certify_unit(u), nv(-3))
    assert v.coeffs == {(0,): Fraction(1), (1,): Fraction(-2),
                        (2,): Fraction(4)}
    assert v.tail == nv(-3)
    assert (u.drop_tail() * v.drop_tail()
            - Series.one(sp)).gauss_norm().value <= nv(-3)

    three = invert_unit(certify_unit(Series.constant(sp, 3)), nv(-3))
    assert three == Series.constant(sp, Fraction(1, 3))

    one = invert_unit(certify_unit(Series.one(sp)), nv(-10))
    assert one == Series.one(sp)


def test_invert_unit_past_the_degree_limit():
    # 1/(1 + 3y^3) to precision 3^-400 is a geometric series of degree
    # 1,197: library products are not bounded by MAX_POWER
    sp = space(3, ("y", 0))
    u = poly(sp, {(0,): 1, (3,): 3})
    v = invert_unit(certify_unit(u), nv(-400))
    assert v.degree_in("y") == 1197 > MAX_POWER
    assert (u * v.drop_tail() - Series.one(sp)).gauss_norm().value <= nv(-400)


def test_invert_unit_at_the_product_limit():
    # 1/(1 + 2T) at p = 2: ||w|| = 2^-1, so eps = 2^-1001 asks for exactly
    # MAX_POWER products and one step finer for one more, refused before any
    sp = B1()
    u = poly(sp, {(0,): 1, (1,): 2})
    v = invert_unit(certify_unit(u), nv(-(MAX_POWER + 1)))
    assert v.degree_in("T") == MAX_POWER
    assert (u * v.drop_tail() - Series.one(sp)).gauss_norm().value <= nv(-(MAX_POWER + 1))
    with pytest.raises(ValueError, match=f"1001 products, above the limit MAX_POWER = {MAX_POWER}$"):
        invert_unit(certify_unit(u), nv(-(MAX_POWER + 2)))
    with pytest.raises(ValueError, match="MAX_POWER"):
        invert_unit(certify_unit(u), nv(-2000))
    # a division whose series-unit lead (1 + 2y) T sits beside a row of norm
    # 2^-2000 inverts it to 2^-2000 for eps = 2^-2000: refused the same way
    sp2 = space(2, ("y", 0), ("T", 0))
    g = poly(sp2, {(0, 1): 1, (1, 1): 2, (0, 2): Fraction(2) ** 2000})
    f = poly(sp2, {(0, 3): 1, (1, 0): 1})
    with pytest.raises(ValueError, match="1999 products, above the limit MAX_POWER"):
        weierstrass_divide(f, g, distinguished_order(g, "T"), nv(-2000))
    # the refusal names the precision the inverse was asked for: here
    # eps/||f|| = 2^-1995, not the division's eps = 2^-2000
    with pytest.raises(ValueError, match="^the unit inverse to precision 2\\^-1995 "
                                         "needs 1994 products, above the limit"):
        weierstrass_divide(f.scale(32), g, distinguished_order(g, "T"), nv(-2000))


def test_division_refuses_past_the_pass_limit():
    # g = T + 2T^2 at p = 2 contracts the defect by exactly 2^-1 per pass,
    # so eps = ||f|| 2^-P takes the P = _MAX_DIVISION_PASSES passes allowed
    # and one step finer is refused
    sp = space(2, ("T", 0))
    g = poly(sp, {(1,): 1, (2,): 2})
    f = poly(sp, {(1,): 4, (0,): 8})
    cert = distinguished_order(g, "T")
    limit = weierstrass._MAX_DIVISION_PASSES
    out = weierstrass_divide(f, g, cert, f.gauss_norm().value * nv(-limit))
    assert out.contraction == nv(-1)
    assert out.iterations == tuple(nv(-2 - k) for k in range(1, limit + 1))
    with pytest.raises(ValueError, match=f"did not contract below eps after {limit} passes$"):
        weierstrass_divide(f, g, cert, f.gauss_norm().value * nv(-limit - 1))


def test_divide_by_series_unit_lead_with_high_degree_inverse():
    # g = (1 + 3y^3) T + 3^400 T^2: the row above the order is tiny, so
    # the lead's inverse is taken to precision 3^-400, past MAX_POWER
    sp = space(3, ("y", 0), ("T", 0))
    g = poly(sp, {(0, 1): 1, (3, 1): 3, (0, 2): Fraction(3) ** 400})
    cert = distinguished_order(g, "T")
    assert cert.order == 1
    f = poly(sp, {(0, 3): 1, (1, 0): 1})
    eps = nv(-500)
    out = weierstrass_divide(f, g, cert, eps)
    defect = f - (g * out.quotient + out.remainder)
    assert defect.gauss_norm().value <= out.residual <= eps
    assert out.remainder.degree_in("T") < cert.order


def test_divide_inverts_the_lead_only_to_the_target_precision():
    # g = (1 + 3y) T + y^(2^31) T^2 with |y| = 3^-3/2: the row above the
    # order has norm about 3^(-3 * 2^30), so inverting the series-unit
    # lead to precision kappa would take some 10^9 products.  The lead is
    # inverted to eps/||f|| = 3^-20 instead, and one sweep reaches eps.
    sp = space(3, ("y", Fraction(-3, 2)), ("T", 0))
    g = poly(sp, {(0, 1): 1, (1, 1): 3, (2 ** 31, 2): 1})
    cert = distinguished_order(g, "T")
    assert cert.order == 1 and not cert.unit_cert.rest.is_zero
    f = poly(sp, {(0, 3): 1, (1, 0): 1})
    eps = f.gauss_norm().value * nv(-20)
    out = weierstrass_divide(f, g, cert, eps)
    assert len(out.iterations) == 1
    defect = f - (g * out.quotient + out.remainder)
    assert defect.is_exact and defect.gauss_norm().value <= out.residual <= eps
    assert out.remainder.degree_in("T") < cert.order


def test_distinguished_order_examples():
    sp = B1()
    assert distinguished_order(poly(sp, {(2,): 1, (3,): 2}), "T").order == 2
    assert distinguished_order(poly(sp, {(1,): 2}), "T").order == 1
    sp2 = space(2, ("T1", 0), ("T2", 0))
    assert distinguished_order(Series.monomial(sp2, (1, 1)), "T2") is None


def test_distinguished_order_respects_tail():
    sp = B1()
    f = poly(sp, {(1,): 1})
    assert distinguished_order(f.with_tail(ONE), "T") is None
    assert distinguished_order(f.with_tail(nv(-1)), "T").order == 1
    # no term sets a witness for the zero series, so no tail is below it
    assert distinguished_order(Series.zero(sp), "T") is None
    assert distinguished_order(Series.zero(sp).with_tail(nv(-3)), "T") is None


def test_divide_examples():
    sp = B1()
    T = Series.variable(sp, "T")
    f = poly(sp, {(2,): 1, (1,): 2, (0,): 4})
    out = weierstrass_divide(f, T, distinguished_order(T, "T"), ZERO)
    assert out.quotient == poly(sp, {(1,): 1, (0,): 2})
    assert out.remainder == Series.constant(sp, 4)
    assert out.residual == ZERO

    g = poly(sp, {(1,): 1, (0,): 2})
    out2 = weierstrass_divide(T * T, g, distinguished_order(g, "T"), ZERO)
    assert out2.quotient == poly(sp, {(1,): 1, (0,): -2})
    assert out2.remainder == Series.constant(sp, 4)
    assert out2.residual == ZERO

    g3 = poly(sp, {(1,): 1, (2,): 2})
    out3 = weierstrass_divide(T, g3, distinguished_order(g3, "T"), nv(-4))
    assert out3.quotient == poly(sp, {(0,): 1, (1,): -2, (2,): 4, (3,): -8})
    assert out3.remainder.is_zero
    assert out3.residual <= nv(-4)
    defect = T - (g3 * out3.quotient + out3.remainder)
    assert defect.gauss_norm().value <= nv(-4)


def test_divide_rejects_stale_certificate():
    sp = B1()
    T = Series.variable(sp, "T")
    g = poly(sp, {(1,): 1, (2,): 2})
    cert = distinguished_order(g, "T")
    other = poly(sp, {(3,): 1, (0,): 2})
    with pytest.raises(ValueError, match="certificate"):
        weierstrass_divide(T, other, cert, nv(-4))


def test_divide_rejects_forged_witness():
    # a certificate whose order matches but whose witness does not must be
    # refused, not used for the tail floor and the contraction
    sp = B1()
    g = poly(sp, {(1,): 1, (2,): 2}).with_tail(nv(-3))
    f = poly(sp, {(3,): 1, (0,): 1})
    cert = distinguished_order(g, "T")
    with pytest.raises(ValueError, match="tail floor"):
        weierstrass_divide(f, g, cert, nv(-8))
    forged = DistinguishedCertificate(cert.pivot, cert.order, cert.unit_cert, nv(5))
    with pytest.raises(ValueError, match="invalid distinguished certificate"):
        weierstrass_divide(f, g, forged, nv(-8))


def test_prepare_rejects_forged_witness():
    sp = B1()
    g = poly(sp, {(1,): 1, (2,): 2})
    cert = distinguished_order(g, "T")
    forged = DistinguishedCertificate(cert.pivot, cert.order, cert.unit_cert, nv(5))
    with pytest.raises(ValueError, match="invalid distinguished certificate"):
        weierstrass_prepare(g, forged, nv(-8))


def test_prepare_checks_the_certificate_once(monkeypatch):
    # a certificate read off g itself is trusted as is, so the only
    # derivation is the monic factor's, once; a rebuilt equal certificate
    # is derived again from g at entry, once, and the divisions inside do
    # not repeat it
    calls = []
    real = weierstrass.distinguished_order

    def counting(f, pivot):
        calls.append(f)
        return real(f, pivot)

    sp = B1()
    g = poly(sp, {(0,): 2, (1,): 1})
    cert = distinguished_order(g, "T")
    monkeypatch.setattr(weierstrass, "distinguished_order", counting)
    out = weierstrass_prepare(g, cert, ZERO)
    assert out.residual == ZERO
    assert len(calls) == 1 and calls[0] == out.monic

    calls.clear()
    rebuilt = DistinguishedCertificate(cert.pivot, cert.order, cert.unit_cert,
                                       cert.norm_witness)
    assert rebuilt == cert
    again = weierstrass_prepare(g, rebuilt, ZERO)
    assert repr(again) == repr(out)
    assert len(calls) == 2 and calls[0] is g and calls[1] == out.monic


def test_divide_trusts_only_a_certificate_of_the_divisor_object(monkeypatch):
    # a certificate read off g itself is not derived again; one read off an
    # equal g built apart, or rebuilt field by field, is (once), and the
    # division is the same
    calls = []
    real = weierstrass.distinguished_order

    def counting(f, pivot):
        calls.append(f)
        return real(f, pivot)

    sp = B1()
    T = Series.variable(sp, "T")
    g = poly(sp, {(1,): 1, (2,): 2})
    twin = poly(sp, {(1,): 1, (2,): 2})
    cert = distinguished_order(g, "T")
    monkeypatch.setattr(weierstrass, "distinguished_order", counting)
    want = repr(weierstrass_divide(T, g, cert, nv(-4)))
    assert calls == []
    rebuilt = DistinguishedCertificate(cert.pivot, cert.order, cert.unit_cert,
                                       cert.norm_witness)
    for other in (distinguished_order(twin, "T"), rebuilt):
        calls.clear()
        assert repr(weierstrass_divide(T, g, other, nv(-4))) == want
        assert len(calls) == 1 and calls[0] is g


def test_divide_rejects_zero_eps_on_contracting_instance():
    sp = B1()
    T = Series.variable(sp, "T")
    g = poly(sp, {(1,): 1, (2,): 2})
    with pytest.raises(ValueError):
        weierstrass_divide(T, g, distinguished_order(g, "T"), ZERO)


def test_prepare_examples():
    sp = B1()
    g = poly(sp, {(1,): 1, (2,): 2})
    out = weierstrass_prepare(g, distinguished_order(g, "T"), nv(-8))
    assert out.unit == poly(sp, {(0,): 1, (1,): 2})
    assert out.monic == Series.variable(sp, "T")
    assert out.residual == ZERO

    t_only = Series.variable(sp, "T")
    out2 = weierstrass_prepare(t_only, distinguished_order(t_only, "T"), ZERO)
    assert out2.unit == Series.one(sp)
    assert out2.monic == t_only

    g3 = poly(sp, {(0,): 2, (1,): 1})
    out3 = weierstrass_prepare(g3, distinguished_order(g3, "T"), ZERO)
    assert out3.unit == Series.one(sp)
    assert out3.monic == g3
    assert out3.residual == ZERO


def test_prepare_at_the_tail_floor(monkeypatch):
    # g = 4 + T + 2T^2 with tail 2^-3: at eps = 2^-3 the tail lies in
    # (eps p^-1, eps], so the division of T is widened to its tail floor and
    # the preparation certifies with residual = tail, in two divisions (T by
    # g, then g by the monic factor); below the tail no eps is reachable,
    # and the preparation refuses before it divides
    divisions = []
    real = weierstrass.weierstrass_divide

    def counting(f, g, cert, eps):
        divisions.append((f, g))
        return real(f, g, cert, eps)

    sp = B1()
    g = poly(sp, {(0,): 4, (1,): 1, (2,): 2}).with_tail(nv(-3))
    cert = distinguished_order(g, "T")
    monkeypatch.setattr(weierstrass, "weierstrass_divide", counting)
    out = weierstrass_prepare(g, cert, nv(-3))
    assert out.residual == nv(-3)
    assert certify_unit(out.unit) is not None and out.unit.tail == ZERO
    assert out.monic.degree_in("T") == 1
    assert (g.drop_tail() - out.unit * out.monic).gauss_norm().value <= nv(-3)
    assert divisions == [(Series.variable(sp, "T"), g), (g.drop_tail(), out.monic)]
    for eps in (nv(-4), ZERO):
        divisions.clear()
        with pytest.raises(ValueError, match="tail floor of the preparation instance"):
            weierstrass_prepare(g, cert, eps)
        assert divisions == []


def test_norm_multiplicativity_with_distinguished_factor(rng):
    sp = space(3, ("x", 0), ("T", 0))
    for _ in range(60):
        g, _cert = rand_distinguished(rng, sp, "T", series_unit=True)
        q = rand_nonzero_series(rng, sp, vmin=-1)
        assert (g * q).gauss_norm().value == \
            g.gauss_norm().value * q.gauss_norm().value


def test_division_norm_identity_and_stability(rng):
    sp = B1(3)
    for _ in range(40):
        g, cert = rand_distinguished(rng, sp, "T")
        f = rand_nonzero_series(rng, sp, max_deg=6, vmin=-1)
        eps = f.gauss_norm().value * nv(-12)
        out = weierstrass_divide(f, g, cert, eps)
        nf = f.gauss_norm().value
        if out.residual < nf:
            lhs = max(g.gauss_norm().value * out.quotient.gauss_norm().value,
                      out.remainder.gauss_norm().value)
            assert lhs == nf
        # stability under a tighter run
        out2 = weierstrass_divide(f, g, cert, eps * nv(-8))
        dq = (out.quotient - out2.quotient).gauss_norm().value
        dr = (out.remainder - out2.remainder).gauss_norm().value
        assert dq * g.gauss_norm().value <= eps
        assert dr <= eps


def test_contraction_bookkeeping(rng):
    sp = B1()
    for _ in range(30):
        g, cert = rand_distinguished(rng, sp, "T")
        f = rand_nonzero_series(rng, sp, max_deg=6, vmin=-1)
        out = weierstrass_divide(f, g, cert, f.gauss_norm().value * nv(-10))
        bound = f.gauss_norm().value
        for h_norm in out.iterations:
            bound = bound * out.contraction
            assert h_norm <= bound


def test_units_evaluate_to_their_norm(rng):
    sp = space(2, ("x", 0), ("y", 0))
    for _ in range(40):
        c = Fraction(rng.choice([1, 3, 5, -1])) * Fraction(2) ** rng.randint(-2, 2)
        w = rand_nonzero_series(rng, sp, max_terms=3, max_deg=2, vmin=1)
        u = (Series.one(sp) + w).scale(c)
        cert = certify_unit(u)
        if cert is None:
            continue
        x = rand_rigid(rng, sp)
        assert u.eval_seminorm(x).value == cert.norm()


def test_distinguished_survives_rigid_specialization(rng):
    # evaluating the non-pivot coefficients at a rigid base point keeps the
    # certificate: same order, detected again after substitution
    sp = space(2, ("x", 0), ("T", 0))
    t_space = space(2, ("T", 0))
    for _ in range(40):
        g, cert = rand_distinguished(rng, sp, "T", series_unit=True)
        a = rand_rigid(rng, space(2, ("x", 0))).coords[0]
        gx = g.substitute({"x": Series.constant(t_space, a),
                           "T": Series.variable(t_space, "T")})
        cert2 = distinguished_order(gx, "T")
        assert cert2 is not None and cert2.order == cert.order


def test_prepare_random_contract(rng):
    sp = B1(5)
    for _ in range(30):
        g, cert = rand_distinguished(rng, sp, "T")
        eps = cert.norm_witness * nv(-10)
        out = weierstrass_prepare(g, cert, eps)
        assert certify_unit(out.unit) is not None
        assert out.monic.degree_in("T") == cert.order
        assert out.monic.coeff_view("T")[-1][1].as_scalar() == 1
        defect = (g - out.unit.drop_tail() * out.monic).gauss_norm().value
        assert max(defect, out.unit.tail * out.monic.gauss_norm().value) <= eps


@given(st.integers(0, 2 ** 32 - 1))
def test_division_contract_property(seed):
    # rational radius exponents and unit denominators (1/3 at p = 2) make
    # the division rows carry several denominators and non-integral weights
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    radii = ["0", "1/2", "-3/2", "1"]
    specs = [("T", rng.choice(radii))]
    if rng.random() < 0.5:
        specs.insert(0, ("x", rng.choice(radii)))
    sp = space(p, *specs)
    g, cert = rand_distinguished(rng, sp, "T", series_unit=True)
    f = rand_nonzero_series(rng, sp, max_deg=6, vmin=-2)
    nf = f.gauss_norm().value
    eps = nf * nv(-12)
    out = weierstrass_divide(f, g, cert, eps)
    defect = f - (g * out.quotient + out.remainder)
    assert defect.gauss_norm().value <= out.residual <= eps
    assert out.remainder.degree_in("T") < cert.order
    assert max(g.gauss_norm().value * out.quotient.gauss_norm().value,
               out.remainder.gauss_norm().value) == nf


def _row_reference(f, pivot):
    """The row-wise definition: the largest pivot degree n whose row
    attains max ||c_n|| r^n, with a unit lead row and the tail below."""
    rows = f.coeff_view(pivot)
    r = f.space.radius(pivot)
    weighted = [(n, c, c.main_norm() * r ** n) for n, c in rows]
    top = ZERO
    for _, _, w in weighted:
        if top < w:
            top = w
    if top.is_zero or not f.tail < top:
        return None
    s = max(n for n, _, w in weighted if w == top)
    ucert = certify_unit(dict(rows)[s])
    if ucert is None:
        return None
    return s, top, ucert.scale, ucert.rest


@given(st.integers(0, 2 ** 32 - 1))
def test_distinguished_order_matches_row_reference(seed):
    # nonzero and fractional radius weights, and denominators that mix
    # p-powers with units, so that v_p(den) matters
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    unit = {2: 3, 3: 2, 5: 3}[p]
    names = ["x", "y", "T"][:rng.randint(1, 3)]
    sp = space(p, *[(nm, rng.choice(["0", "1", "1/2", "-3/2", "2/3"])) for nm in names])
    pivot = rng.choice(names)
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        expo = tuple(rng.randint(0, 3) for _ in names)
        num = rng.choice([1, -1, unit, -unit * unit]) * p ** rng.randint(0, 2)
        coeffs[expo] = Fraction(num, rng.choice([1, unit]) * p ** rng.randint(0, 2))
    if rng.random() < 0.5:
        # a tie at the top across rows: for the pivot radius p^(a/b), the
        # top term shifted by b in the pivot degree and scaled by p^a
        r, k = sp.radius(pivot).exp, names.index(pivot)
        e, c = max(coeffs.items(),
                   key=lambda t: Series.monomial(sp, *t).main_norm().exp)
        coeffs[e[:k] + (e[k] + r.denominator,) + e[k + 1:]] = -c * Fraction(p) ** r.numerator
    f = Series(sp, coeffs)
    top = f.main_norm()
    f = f.with_tail(rng.choice([ZERO, top * nv(-1), top, top * nv(1)]))
    cert = distinguished_order(f, pivot)
    got = None if cert is None else (cert.order, cert.norm_witness,
                                      cert.unit_cert.scale, cert.unit_cert.rest)
    assert got == _row_reference(f, pivot)


def _series_unit_divisor():
    """g = (1 + 2x) T + 2 T^2 + 4 x T^3 with tail 2^-4: the lead row at the
    order 1 is the series unit 1 + 2x, not a scalar."""
    sp = space(2, ("x", 0), ("T", 0))
    g = poly(sp, {(0, 1): 1, (1, 1): 2, (0, 2): 2, (1, 3): 4}).with_tail(nv(-4))
    return sp, g


def test_divide_by_series_unit_lead_with_tail():
    sp, g = _series_unit_divisor()
    cert = distinguished_order(g, "T")
    assert cert.order == 1 and not cert.unit_cert.rest.drop_tail().is_zero
    f = poly(sp, {(0, 3): 1, (1, 0): 1, (0, 0): 1})
    eps = nv(-4)
    out = weierstrass_divide(f, g, cert, eps)
    defect = f - (g.drop_tail() * out.quotient + out.remainder)
    assert defect.is_exact
    assert defect.gauss_norm().value <= out.residual <= eps
    assert out.remainder.degree_in("T") < cert.order
    assert max(g.gauss_norm().value * out.quotient.gauss_norm().value,
               out.remainder.gauss_norm().value) == f.gauss_norm().value


def test_divide_by_scalar_lead_inverts_it():
    # the lead 2 is not +-1 mod 5, so its inverse 1/2 differs from 2 there
    sp = B1(5)
    g = poly(sp, {(1,): 2, (0,): 1})
    f = poly(sp, {(2,): 1})
    out = weierstrass_divide(f, g, distinguished_order(g, "T"), ZERO)
    assert out.quotient.text() == "1/2*T - 1/4"
    assert out.remainder.text() == "1/4"
    assert out.residual == ZERO and len(out.iterations) == 1


def test_divide_by_series_unit_lead_with_tail_above_tau():
    # g's tail 2^-1/2 over its lead scale 1 lies above the lead inverse's
    # precision tau = 2^-1, so the lead is inverted without g's tail
    sp = space(2, ("x", 0), ("T", 0))
    g = poly(sp, {(0, 1): 1, (1, 1): 2}).with_tail(nv("-1/2"))
    f = poly(sp, {(0, 3): 1, (1, 0): 1, (0, 0): 1})
    out = weierstrass_divide(f, g, distinguished_order(g, "T"), nv("-1/2"))
    assert out.residual == nv("-1/2") and len(out.iterations) == 1
    assert out.remainder.text() == "x + 1"


def test_division_builds_no_coeff_view(monkeypatch):
    calls = []
    real = Series.coeff_view

    def counting(self, pivot):
        calls.append(pivot)
        return real(self, pivot)

    monkeypatch.setattr(Series, "coeff_view", counting)
    sp, g = _series_unit_divisor()
    cert = distinguished_order(g, "T")
    weierstrass_divide(poly(sp, {(0, 3): 1, (1, 0): 1}), g, cert, nv(-4))
    assert calls == []


def _reference_divide(f, g, cert, eps):
    """The division sweep with each row keyed by its rest exponent tuple:
    products by ``ints_mul``, sums by ``ints_add_into`` and row norms term
    by term with ``norm_exp``; no packing, no norm classes."""
    pivot, s = cert.pivot, cert.order
    space, p = f.space, f.space.prime
    f0, g0 = f.drop_tail(), g.drop_tail()
    i = space.index(pivot)
    d, weights = space.scaled_radii()
    rest_scaled = (d, weights[:i] + weights[i + 1:])

    def rows_of(h):
        rows = {}
        for e, c in h.nums.items():
            rows.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
        return {k: ints_reduce((h.den, row)) for k, row in rows.items()}

    def to_series(rows):
        out = (1, {})
        for k, (den, row) in rows.items():
            out = ints_add_into(out, (den, {r[:i] + (k,) + r[i:]: c
                                            for r, c in row.items()}), 1)
        return Series._reduced(space, out, ZERO)

    def rows_norm(rows):
        best = None
        for k, (den, row) in rows.items():
            x = norm_exp(row, p, rest_scaled)
            if x is not None:
                x += k * weights[i] + d * _valuation(den, 1, p)
                best = x if best is None else max(best, x)
        return ZERO if best is None else NormValue.of_scaled(best, d)

    norm_g = cert.norm_witness
    g_rows = sorted(rows_of(g0).items())
    above = rows_norm({m: row for m, row in g_rows if m > s})
    kappa = above / norm_g if not above.is_zero else ZERO
    logged = max(above, g.tail)
    contraction = logged / norm_g if not logged.is_zero else ZERO
    floor = max(f.tail, g.tail * (f0.main_norm() / norm_g))
    lead = Series._raw(space.drop(pivot), *dict(g_rows)[s], ZERO)
    if lead.as_scalar() is not None:
        v, tau = Series.constant(lead.space, 1 / lead.as_scalar()), ZERO
    else:
        tau = min(kappa if not kappa.is_zero else nv(-1), nv(-1))
        if not (eps.is_zero or f0.main_norm().is_zero):
            tau = max(tau, min(eps / f0.main_norm(), nv(-1)))
        v = invert_unit(certify_unit(lead), tau).drop_tail()
    contraction = max(contraction, tau)
    h_rows, q_rows, r_rows, iters = rows_of(f0), {}, {}, []
    defect = rows_norm(h_rows)
    while defect > eps:
        for k in range(max(h_rows, default=0), s - 1, -1):
            row = h_rows.get(k)
            if row is None or not row[1]:
                continue
            q_k = ints_mul(row, (v.den, v.nums))
            q_rows[k - s] = ints_add_into(q_rows.get(k - s), q_k, 1)
            for m, g_row in g_rows:
                h_rows[k - s + m] = ints_add_into(h_rows.get(k - s + m),
                                                  ints_mul(q_k, g_row), -1)
        for k in [k for k in h_rows if k < s]:
            row = h_rows.pop(k)
            if row[1]:
                r_rows[k] = ints_add_into(r_rows.get(k), row, 1)
        h_rows = {k: ints_reduce(row) for k, row in h_rows.items() if row[1]}
        defect = rows_norm(h_rows)
        iters.append(defect)
    return (to_series(q_rows), to_series(r_rows), max(defect, floor), tuple(iters),
            contraction)


def _packing_instance(rng, one_class=False):
    """A division on one to three variables, the pivot T anywhere among
    them, with rest exponents up to 2^31 (radius exponents 0 and -3/2
    only: a huge exponent of a variable of radius > 1 needs a coefficient
    of huge valuation), p-power and unit denominators, and a series-unit
    lead on half the draws of two or three variables, its rest of one or
    two monomials (so that 1 - v g_s, v the lead's inverse, may have
    several terms) and the rows beside it, above the order too, free to
    carry huge exponents.  The radii are mixed; with ``one_class`` every
    rest variable has radius 1, so that each row is one norm class.  g is
    built pivot-distinguished of order s."""
    p = rng.choice([2, 3, 5])
    unit = {2: 3, 3: 2, 5: 3}[p]
    names = ["x", "y", "T"][3 - rng.randint(1, 3):]
    rng.shuffle(names)
    radii = {nm: Fraction(rng.choice(["0", "1/2", "-3/2"])) for nm in names}
    if one_class:
        radii.update((nm, Fraction(0)) for nm in names if nm != "T")
    sp = space(p, *[(nm, radii[nm]) for nm in names])
    rest = [nm for nm in names if nm != "T"]

    def scalar(v):
        num = rng.choice([1, -1, unit, -unit * unit])
        return Fraction(num, rng.choice([1, unit])) * Fraction(p) ** v

    def expo(m):
        # T at m; a rest variable of radius exponent 0 or -3/2 takes a huge
        # exponent on 40% of draws
        e = {"T": m}
        for nm in rest:
            huge = radii[nm] in (0, Fraction(-3, 2)) and rng.random() < 0.4
            e[nm] = rng.choice([2 ** 31 - 1, 2 ** 31]) if huge else rng.randint(0, 3)
        return tuple(e[nm] for nm in names), sum(e[nm] * radii[nm] for nm in names)

    s = rng.randint(0, 3)
    c0 = scalar(rng.randint(-2, 2))
    top = -_valuation(c0.numerator, c0.denominator, p) + s * radii["T"]
    coeffs = {tuple(s if nm == "T" else 0 for nm in names): c0}
    unit_lead = rest and rng.random() < 0.5
    for _ in range(rng.randint(1, 2) if unit_lead else 0):
        # series-unit lead: c0 (1 + u X + ...) with each |u X| < 1, X a
        # monomial
        e, w = expo(s)
        if any(e[j] for j, nm in enumerate(names) if nm != "T"):
            w -= s * radii["T"]
            coeffs[e] = c0 * scalar(max(math.floor(w) + 1, -3) + rng.randint(0, 1))
    for _ in range(rng.randint(1, 4)):
        m = rng.randint(0, s + 3)
        if m == s:
            continue
        # a huge exponent at radius exponent -3/2 above the order of a
        # series-unit lead makes kappa about p^(-3 * 2^30): the division
        # must invert the lead only to its own precision eps/||f||
        e, w = expo(m)
        # rows below s at most the witness, rows above it strictly below
        need = math.ceil(w - top) if m < s else math.floor(w - top) + 1
        coeffs[e] = scalar(max(need, -3) + rng.randint(0, 1))
    g = Series(sp, coeffs)
    # up to six terms on four pivot degrees, so rows share rest weights
    f = Series(sp, {expo(rng.randint(0, 3))[0]: scalar(rng.randint(-2, 2))
                    for _ in range(rng.randint(1, 6))})
    return f, g, s, f.main_norm() * nv(-rng.randint(0, 6))


def _check_packed_division(rng, one_class):
    f, g, s, eps = _packing_instance(rng, one_class)
    cert = distinguished_order(g, "T")
    assert cert is not None and cert.order == s
    out = weierstrass_divide(f, g, cert, eps)
    ref = _reference_divide(f, g, cert, eps)
    assert (out.quotient, out.remainder, out.residual, out.iterations,
            out.contraction) == ref


@given(st.integers(0, 2 ** 32 - 1))
def test_packed_division_matches_tuple_reference_property(seed):
    _check_packed_division(random.Random(seed), one_class=False)


@given(st.integers(0, 2 ** 32 - 1))
def test_packed_division_one_class_rows_matches_reference_property(seed):
    # every rest radius 1: all of a row's terms have one rest weight
    _check_packed_division(random.Random(seed), one_class=True)


def test_division_outputs_are_pinned():
    # quotient, remainder, iteration norms, residual and contraction of 200
    # packing instances, 100 of each kind, hashed; the sweep may change how
    # it computes, not what (the benchmark's corpus digest covers only the
    # inputs)
    digest = hashlib.sha256()
    for seed, one_class in itertools.product(range(100), (False, True)):
        f, g, _, eps = _packing_instance(random.Random(seed), one_class)
        out = weierstrass_divide(f, g, distinguished_order(g, "T"), eps)
        p = f.space.prime
        norms = [n.text(p) for n in (*out.iterations, out.residual, out.contraction)]
        digest.update("|".join([out.quotient.text(), out.remainder.text(), *norms,
                                ""]).encode())
    assert digest.hexdigest()[:16] == "390bc83b2d83e858"
