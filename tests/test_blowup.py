from fractions import Fraction

import pytest

from padicgeom import (Chart, MonomialUnitForm, RigidPoint, Series,
                       certify_unit, chart_transition, factor_x_power,
                       local_divisibility, pullback_chart, pushdown_poly,
                       translate)
from conftest import ONE, nv, poly, rand_nonzero_series, space


def bidisc(p=2):
    return space(p, ("x", 0), ("y", 0))


def test_pullback_examples():
    sp = bidisc()
    ch1, ch2 = Chart(1, sp), Chart(2, sp)
    h = poly(sp, {(0, 1): 1, (2, 0): -1})  # y - x^2
    out = pullback_chart(h, ch1)
    assert out == poly(ch1.space(), {(1, 1): 1, (2, 0): -1})
    out2 = pullback_chart(Series.variable(sp, "x"), ch2)
    assert out2 == poly(ch2.space(), {(1, 1): 1})


def test_pullback_commutes_with_evaluation(rng):
    sp = bidisc()
    ch = Chart(1, sp)
    for _ in range(60):
        h = rand_nonzero_series(rng, sp, vmin=0)
        x = Fraction(rng.choice([1, 2, 3, 5, 6]))
        t = Fraction(rng.choice([0, 1, 2, 3, 7]))
        q = RigidPoint(ch.space(), (x, t))
        lhs = pullback_chart(h, ch).eval_exact(q.coords)
        rhs = h.eval_exact(ch.to_base(q).coords)
        assert lhs == rhs


def test_factor_x_power_examples():
    sp = space(2, ("x", 0), ("t", 0))
    b, rest = factor_x_power(poly(sp, {(1, 1): 1, (2, 0): -1}), "x")
    assert b == 1 and rest == poly(sp, {(0, 1): 1, (1, 0): -1})
    b2, rest2 = factor_x_power(poly(sp, {(0, 3): 1}), "x")
    assert b2 == 0 and rest2 == poly(sp, {(0, 3): 1})
    b3, rest3 = factor_x_power(poly(sp, {(2, 1): 1, (3, 2): 1}), "x")
    assert b3 == 2 and rest3 == poly(sp, {(0, 1): 1, (1, 2): 1})
    with pytest.raises(ValueError):
        factor_x_power(Series.zero(sp), "x")


def test_factor_x_power_roundtrip(rng):
    sp = space(2, ("x", 0), ("t", 0))
    x = Series.variable(sp, "x")
    for _ in range(40):
        h = rand_nonzero_series(rng, sp, vmin=-1)
        b, rest = factor_x_power(h, "x")
        assert x.pow(b) * rest == h
        assert any(e[0] == 0 for e in rest.coeffs)


def test_pushdown_examples():
    sp = bidisc()
    ch = Chart(1, sp)
    m, pt = pushdown_poly(poly(ch.space(), {(0, 1): 1, (1, 0): -1}), ch)
    assert m == 1 and pt == poly(sp, {(0, 1): 1, (2, 0): -1})  # y - x^2
    m2, pt2 = pushdown_poly(poly(ch.space(), {(0, 2): 1}), ch)
    assert m2 == 2 and pt2 == poly(sp, {(0, 2): 1})  # y^2
    m0, pt0 = pushdown_poly(Series.zero(ch.space()), ch)
    assert m0 == 0 and pt0 == Series.zero(sp)  # no t-degree: M = 0


def test_pushdown_identity(rng):
    sp = bidisc()
    ch = Chart(1, sp)
    x = Series.variable(ch.space(), "x")
    for _ in range(40):
        P = rand_nonzero_series(rng, ch.space(), max_terms=4, max_deg=4,
                                vmin=0)
        m, pt = pushdown_poly(P, ch)
        assert x.pow(m) * P == pullback_chart(pt, ch)


def test_chart_transition_examples():
    sp = bidisc()
    ch1, ch2 = Chart(1, sp), Chart(2, sp)
    q = RigidPoint(ch1.space(), (4, 1))
    out = chart_transition(q, ch1, ch2)
    assert out.coords == (Fraction(4), Fraction(1))

    q2 = RigidPoint(ch1.space(), (2, 3))
    out2 = chart_transition(q2, ch1, ch2)
    assert out2.coords == (Fraction(6), Fraction(1, 3))
    assert ch1.to_base(q2).coords == ch2.to_base(out2).coords == \
        (Fraction(2), Fraction(6))

    with pytest.raises(ValueError):
        chart_transition(RigidPoint(ch1.space(), (2, 0)), ch1, ch2)
    with pytest.raises(ValueError):
        chart_transition(RigidPoint(ch1.space(), (2, 2)), ch1, ch2)


def test_transition_consistency_random(rng):
    sp = bidisc()
    ch1, ch2 = Chart(1, sp), Chart(2, sp)
    units = [Fraction(1), Fraction(3), Fraction(5), Fraction(1, 3),
             Fraction(-1), Fraction(7, 5)]
    for _ in range(40):
        x = Fraction(rng.choice([0, 1, 2, 4, 6]))
        t = rng.choice(units)
        q = RigidPoint(ch1.space(), (x, t))
        out = chart_transition(q, ch1, ch2)
        assert ch1.to_base(q).coords == ch2.to_base(out).coords


def test_translate_recenters():
    sp = bidisc()
    h = poly(sp, {(0, 1): 1, (2, 0): -1})
    center = RigidPoint(sp, (2, 4))
    moved = translate(h, center)
    assert moved.eval_exact((0, 0)) == h.eval_exact((2, 4))


def test_local_divisibility():
    sp = bidisc()
    u = certify_unit(Series.one(sp))
    v = certify_unit(poly(sp, {(0, 0): 1, (1, 0): 2}))
    assert local_divisibility(MonomialUnitForm(u, 2, 0),
                              MonomialUnitForm(u, 3, 1)) == "f_divides_g"
    assert local_divisibility(MonomialUnitForm(u, 1, 0),
                              MonomialUnitForm(u, 0, 1)) == "neither"
    assert local_divisibility(MonomialUnitForm(u, 1, 0),
                              MonomialUnitForm(v, 1, 0)) == "both"
    assert local_divisibility(MonomialUnitForm(v, 2, 1),
                              MonomialUnitForm(u, 1, 1)) == "g_divides_f"
