import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padicgeom import weierstrass
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
    # derivation is the monic factor's, once per attempt (eps = 0 makes
    # exactly one attempt); a rebuilt equal certificate is derived again
    # from g at entry, once, and the divisions inside do not repeat it
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
