import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from padicgeom import (Atom, MonomialPoint, NormValue, RigidPoint, Series, Space,
                       VarSpec, gauss_point, pushforward_eval)
from padicgeom.formulas import Seminorms
from padicgeom.series import (MAX_POWER, NormEstimate, compare_le, compare_lt,
                              ints_add_into, ints_addmul_into, ints_mul)
from padicgeom.weierstrass import (certify_unit, distinguished_order, invert_unit,
                                   weierstrass_divide)
from padicgeom.scalars import Value
from conftest import (ONE, ZERO, nv, poly, rand_constructible, rand_nonzero_series,
                      rand_point_coord, rand_rigid, rand_scalar, space)


def B1(p=2, e=0):
    return space(p, ("T", e))


def B2(p=2):
    return space(p, ("T1", 0), ("T2", 0))


def test_ring_arithmetic_examples():
    sp = B1()
    T = Series.variable(sp, "T")
    assert (T * T) == poly(sp, {(2,): 1})
    f = poly(sp, {(0,): 1, (1,): 2}).with_tail(nv(-5))
    g = Series.constant(sp, -1)
    out = f + g
    assert out.coeffs == {(1,): Fraction(2)}
    assert out.tail == nv(-5)
    h = (T + Series.constant(sp, 2)) * (T - Series.constant(sp, 2))
    assert h == poly(sp, {(2,): 1, (0,): -4})


def test_product_tail_propagation():
    sp = B1()
    f = poly(sp, {(1,): 1}).with_tail(nv(-3))       # ||f|| = 1
    g = poly(sp, {(0,): 4}).with_tail(nv(-6))       # ||g|| = 2^-2
    out = f * g
    # max(tail_f ||g||, tail_g ||f||, tail_f tail_g)
    assert out.tail == max(nv(-3) * nv(-2), nv(-6) * ONE, nv(-3) * nv(-6))


def test_space_requires_a_prime():
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3, 5, 7
    for p in (4, 6, 9, 1, 0, -7, 3215031751, 2 ** 61 + 1):
        with pytest.raises(ValueError):
            Space(p, (VarSpec("T", ONE),))
    with pytest.raises(ValueError):
        Space(True, ())
    Space(2 ** 61 - 1, ())
    for n in range(2, 2000):
        is_prime = all(n % d for d in range(2, int(n ** 0.5) + 1))
        try:
            Space(n, ())
        except ValueError:
            assert not is_prime, n
        else:
            assert is_prime, n


# Spaces with rational radius exponents and coefficients whose denominators
# mix powers of p with units (1/3 at p = 2): the integer kernel must scale
# the exponents to a common denominator and rescale numerators to an lcm.
kernel_primes = st.sampled_from([2, 3, 5])
kernel_radii = st.sampled_from(["0", "1", "1/2", "-3/2", "2/3"])


@st.composite
def kernel_space(draw):
    p = draw(kernel_primes)
    n = draw(st.integers(1, 2))
    return space(p, *[(f"x{i}", draw(kernel_radii)) for i in range(n)])


def kernel_series(draw, sp):
    p = sp.prime
    units = [u for u in (1, 3, 5, 7, 9, 15) if u % p]
    coeff = st.builds(lambda n, u, k: Fraction(n, u) * Fraction(p) ** k,
                      st.integers(-10 ** 6, 10 ** 6), st.sampled_from(units),
                      st.integers(-4, 4))
    expo = st.tuples(*[st.integers(0, 3)] * len(sp.vars))
    return Series(sp, draw(st.dictionaries(expo, coeff, max_size=6)))


@st.composite
def kernel_pair(draw):
    sp = draw(kernel_space())
    return kernel_series(draw, sp), kernel_series(draw, sp)


@given(kernel_pair())
def test_product_matches_fraction_double_loop(pair):
    f, g = pair
    ref = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            ref[e] = ref.get(e, Fraction(0)) + c1 * c2
    out = (f * g).coeffs
    assert out == {e: c for e, c in ref.items() if c}
    assert all(type(c) is Fraction for c in out.values())


@given(kernel_pair())
def test_main_norm_matches_termwise_max(pair):
    for f in pair:
        sp = f.space
        ref = ZERO
        for e, c in f.coeffs.items():
            ref = max(ref, NormValue.of_scalar(c, sp.prime) * sp.monomial_weight(e))
        assert f.main_norm() == ref


# The stored form: every operation against a reference written here on
# {expo: Fraction} dicts, and every result in the reduced integer form.

def assert_reduced(s):
    assert type(s.den) is int and s.den > 0
    assert all(type(c) is int and c for c in s.nums.values())
    assert math.gcd(s.den, *s.nums.values()) == 1
    assert all(len(e) == len(s.space.vars) for e in s.nums)


def ref_clean(d):
    return {e: c for e, c in d.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_eval(a, coords):
    return sum((c * math.prod(x ** k for x, k in zip(coords, e))
                for e, c in a.items()), Fraction(0))


def in_disc(draw, p, r):
    """A rational coordinate with |x| <= r."""
    a = Fraction(draw(st.integers(-10 ** 4, 10 ** 4)),
                 draw(st.sampled_from([1, 2, 3, 5, 7, 9])))
    if a and NormValue.of_scalar(a, p) > r:
        a *= Fraction(p) ** math.ceil(NormValue.of_scalar(a, p).exp - r.exp)
    return a


def within_budget(g, r):
    """g scaled by a power of p so that its Gauss norm is at most r."""
    top = g.gauss_norm().upper()
    if top > r:
        g = g.scale(Fraction(g.space.prime) ** math.ceil(top.exp - r.exp))
    return g


@st.composite
def rep_case(draw):
    f, g = draw(kernel_pair())
    sp = f.space
    p = sp.prime
    a = Fraction(draw(st.integers(-50, 50)), draw(st.sampled_from([1, 3, 5, 7]))) \
        * Fraction(p) ** draw(st.integers(-3, 3))
    coords = [in_disc(draw, p, r) for r in sp.radii]
    images = {}
    for v in sp.vars:
        h = kernel_series(draw, sp)
        if draw(st.booleans()):
            h = h.with_tail(nv(draw(st.integers(-6, 0))))
        images[v.name] = within_budget(h, v.radius)
    return f, g, a, coords, images


def substitute_termwise(f, images):
    """f(images) built the long way: one Series product per term, summed."""
    target = next(iter(images.values())).space
    out = Series.zero(target)
    first_order = ZERO
    for e, c in f.coeffs.items():
        term = Series.constant(target, c)
        for v, k in zip(f.space.vars, e):
            if k:
                term = term * images[v.name].pow(k)
        out = out + term
        for i, (v, k) in enumerate(zip(f.space.vars, e)):
            t = images[v.name].tail
            if k and t != ZERO:
                w = NormValue.of_scalar(c, f.space.prime) * t
                for j, (u, kj) in enumerate(zip(f.space.vars, e)):
                    w = w * u.radius ** (kj - 1 if j == i else kj)
                first_order = max(first_order, w)
    return out.coeffs, max(out.tail, f.tail, first_order)


@given(rep_case())
def test_operations_match_fraction_reference(case):
    f, g, a, coords, images = case
    F, G = f.coeffs, g.coeffs
    sp = f.space
    checks = [
        (f + g, ref_add(F, G)),
        (f - g, ref_add(F, G, -1)),
        (-f, {e: -c for e, c in F.items()}),
        (f.scale(a), ref_clean({e: c * a for e, c in F.items()})),
        (f * g, ref_mul(F, G)),
        (f.pow(2), ref_mul(F, F)),
        (f.drop_tail(), F),
        (f.rename_var(sp.names[0], "fresh"), F),
    ]
    wide = sp.extend(VarSpec("w", nv(1)))
    checks.append((f.lift_to(wide), {e + (0,): c for e, c in F.items()}))
    pivot = sp.names[-1]
    view = {}
    for e, c in F.items():
        view.setdefault(e[-1], {})[e[:-1]] = c
    for n, cn in f.coeff_view(pivot):
        checks.append((cn, view.pop(n)))
    assert not view
    multi = dict(f.coeff_view_multi(sp.names))
    assert sorted(multi) == sorted(F)
    checks += [(cn, {(): F[nu]}) for nu, cn in multi.items()]
    composed = f.substitute(images)
    ref_coeffs, ref_tail = substitute_termwise(f, images)
    checks.append((composed, ref_coeffs))
    assert composed.tail == ref_tail
    for s, ref in checks:
        assert_reduced(s)
        assert s.coeffs == ref
        assert all(type(c) is Fraction for c in s.coeffs.values())
        assert s == Series(s.space, ref, s.tail)
    value = f.eval_exact(coords)
    assert type(value) is Fraction and value == ref_eval(F, coords)
    assert f.constant_term() == F.get((0,) * len(sp.vars), 0)
    ref_norm = max((NormValue.of_scalar(c, sp.prime) * sp.monomial_weight(e)
                    for e, c in F.items()), default=ZERO)
    assert f.main_norm() == ref_norm
    assert f.eval_seminorm(RigidPoint(sp, coords)).value == \
        NormValue.of_scalar(value, sp.prime)


@given(kernel_pair())
def test_equal_values_built_two_ways_are_equal(pair):
    f, g = pair
    for s in ((f + g) - g, f.scale(3).scale(Fraction(1, 3)), f * Series.one(f.space),
              Series(f.space, f.coeffs)):
        assert s == f and hash(s) == hash(f)
    sp = space(3, ("x", "1/2"), ("y", 0))
    x, y = Series.variable(sp, "x"), Series.variable(sp, "y")
    half = x.scale(Fraction(1, 2))
    assert half.den == 2 and half.nums == {(1, 0): 1}
    for s in (half * Series.constant(sp, 2), x + y - y, (x * y).coeff_view("y")[0][1].lift_to(sp)):
        assert_reduced(s)
        assert s == x and hash(s) == hash(x)
    assert Series(sp, {(1, 0): Fraction(2, 4), (0, 1): Fraction(-3, 6)}).nums == \
        {(1, 0): 1, (0, 1): -1}


# Monomial points on 1 to 3 variables with radius exponents over 2 and 3,
# centres that are zero or any point of the disc, and series with tails.
monomial_radii = st.sampled_from(["0", "1", "-1/2", "3/2", "2/3", "-4/3"])
monomial_drops = st.sampled_from(["0", "1/2", "1/3", "1", "7/6", "5/2"])


@st.composite
def monomial_case(draw):
    p = draw(kernel_primes)
    n = draw(st.integers(1, 3))
    sp = space(p, *[(f"x{i}", draw(monomial_radii)) for i in range(n)])
    f = kernel_series(draw, sp)
    if draw(st.booleans()):
        f = f.with_tail(nv(draw(st.integers(-4, 4))))
    center, rho = [], []
    for r in sp.radii:
        a = Fraction(draw(st.integers(-10 ** 4, 10 ** 4)),
                     draw(st.sampled_from([1, 2, 3, 5, 7, 9])))
        if a and NormValue.of_scalar(a, p) > r:
            # the smallest power of p that brings a into the disc
            a *= Fraction(p) ** math.ceil(NormValue.of_scalar(a, p).exp - r.exp)
        center.append(a if draw(st.integers(0, 3)) else Fraction(0))
        rho.append(r * nv(draw(monomial_drops)) ** -1)
    return f, MonomialPoint(sp, center, rho)


@given(monomial_case())
def test_monomial_seminorm_matches_recentred_gauss_norm(case):
    f, x = case
    target = Space(f.space.prime, tuple(VarSpec(v.name, r)
                                        for v, r in zip(f.space.vars, x.rho)))
    recentred = f.substitute({
        v.name: Series.variable(target, v.name) + Series.constant(target, a)
        for v, a in zip(f.space.vars, x.center)})
    assert f.eval_seminorm(x) == recentred.gauss_norm()


# Rigid points on 1 to 3 variables with rational radii: coordinates that are
# zero or have powers of p in their denominators (radius above 1), several
# series per point (one Seminorms shares its power rows among them), tails,
# and a series that vanishes at the point.
rigid_radii = st.sampled_from(["0", "1", "-1/2", "3/2", "5/2", "2/3"])


@st.composite
def rigid_case(draw):
    p = draw(kernel_primes)
    n = draw(st.integers(1, 3))
    sp = space(p, *[(f"x{i}", draw(rigid_radii)) for i in range(n)])
    units = [u for u in (1, 3, 5, 7, 9, 15) if u % p]
    coords = []
    for r in sp.radii:
        # v_p(x) >= k >= -r.exp, so |x| <= r
        k = math.ceil(-r.exp) + draw(st.integers(0, 3))
        a = Fraction(draw(st.integers(-10 ** 4, 10 ** 4)),
                     draw(st.sampled_from(units))) * Fraction(p) ** k
        coords.append(a if draw(st.integers(0, 3)) else Fraction(0))
    fs = []
    for _ in range(draw(st.integers(1, 4))):
        f = kernel_series(draw, sp)
        if draw(st.booleans()):
            f = f.with_tail(nv(draw(st.integers(-4, 4))))
        fs.append(f)
    fs.append(fs[0] - Series.constant(sp, ref_eval(fs[0].coeffs, coords)))
    return fs, RigidPoint(sp, coords)


@given(rigid_case())
def test_rigid_seminorms_match_fraction_reference(case):
    fs, x = case
    p = x.space.prime
    ev = Seminorms(x)
    assert ev(fs[-1]).value == ZERO
    for f in fs:
        value = ref_eval(f.coeffs, x.coords)
        assert f.eval_exact(x.coords) == value
        ref = NormEstimate(NormValue.of_scalar(f.eval_exact(x.coords), p), f.tail)
        assert ev(f) == ref
        assert ev.value(f) == value and type(ev.value(f)) is Fraction
        assert f.eval_seminorm(x) == ref


def test_chart_point_on_another_space_is_refused():
    # the chart space must be f's space plus one coordinate, on f's prime
    sp = B2()
    x = RigidPoint(sp, (1, 2))
    f, g = Series.variable(sp, "T1"), Series.one(sp)
    t = VarSpec("t", ONE)
    for wrong in (Space(3, sp.vars + (t,)), sp.drop("T2").extend(t),
                  Space(2, sp.vars[::-1] + (t,))):
        with pytest.raises(ValueError, match="point/space mismatch"):
            Seminorms(x).chart(f, g, wrong)
    assert Seminorms(x).chart(f, g, sp.extend(t)).point.coords == (1, 2, 1)


def test_points_with_the_wrong_coordinate_count_are_refused():
    sp = B2()
    f = Series.variable(sp, "T1")
    for x in (RigidPoint(sp, (2,)), RigidPoint(sp, (2, 2, 2)),
              MonomialPoint(sp, (0,), (ONE, ONE)),
              MonomialPoint(sp, (0, 0), (ONE,))):
        with pytest.raises(ValueError, match="coordinate count mismatch"):
            f.eval_seminorm(x)
        with pytest.raises(ValueError, match="coordinate count mismatch"):
            Seminorms(x)(f)


def test_gauss_norm_examples():
    sp = B1()
    f = poly(sp, {(1,): 1, (2,): 2})
    assert f.gauss_norm().value == ONE
    sp2 = space(2, ("T1", "1/2"), ("T2", "1/4"))  # rho = (s^2, s), s = 2^(1/4)
    g = Series.monomial(sp2, (1, 1))
    assert g.gauss_norm().value == nv("3/4")
    assert Series.zero(sp).gauss_norm().value == ZERO


def test_substitute_examples():
    sp = B2()
    f = Series.monomial(sp, (1, 1))
    t1, t2 = Series.variable(sp, "T1"), Series.variable(sp, "T2")
    out = f.substitute({"T1": t1 + t2.pow(2), "T2": t2})
    assert out == poly(sp, {(1, 1): 1, (0, 3): 1})

    sxy = space(2, ("x", 0), ("y", 0))
    sxt = space(2, ("x", 0), ("t", 0))
    h = poly(sxy, {(0, 1): 1, (2, 0): -1})  # y - x^2
    out2 = h.substitute({
        "x": Series.variable(sxt, "x"),
        "y": Series.variable(sxt, "t") * Series.variable(sxt, "x"),
    })
    assert out2 == poly(sxt, {(1, 1): 1, (2, 0): -1})

    f3 = rand_nonzero_series_fixture()
    identity = {v.name: Series.variable(f3.space, v.name) for v in f3.space.vars}
    assert f3.substitute(identity) == f3


def rand_nonzero_series_fixture():
    return poly(B2(), {(1, 0): 3, (0, 2): "1/5"})


def test_substitute_first_order_tail():
    sp = B2()
    t1 = Series.variable(sp, "T1").with_tail(nv(-3))
    t2 = Series.variable(sp, "T2")
    f = Series.monomial(sp, (1, 1))
    out = f.substitute({"T1": t1, "T2": t2})
    # |c| * tail_1 * r^nu / r_1 = 1 * 2^-3 * 1
    assert out.tail == nv(-3)
    assert out.coeffs == f.coeffs


def test_substitute_norm_budget():
    sp = B1()
    big = poly(sp, {(0,): Fraction(1, 2)})  # |1/2| = 2 > radius 1
    with pytest.raises(ValueError, match="norm budget"):
        Series.variable(sp, "T").substitute({"T": big})


def test_substitute_is_ring_morphism(rng):
    sp = B2()
    assignment = {
        "T1": poly(sp, {(1, 0): 1, (0, 2): 2}),
        "T2": poly(sp, {(0, 1): 3}),
    }
    for _ in range(40):
        f = rand_nonzero_series(rng, sp, max_terms=3, max_deg=2, vmin=0)
        g = rand_nonzero_series(rng, sp, max_terms=3, max_deg=2, vmin=0)
        sf, sg = f.substitute(assignment), g.substitute(assignment)
        assert (f + g).substitute(assignment) == sf + sg
        assert (f * g).substitute(assignment) == sf * sg


def test_coeff_view_examples():
    sp = B2()
    f = poly(sp, {(0, 3): 1, (1, 1): 1})
    view = f.coeff_view("T2")
    assert [(n, c.coeffs) for n, c in view] == [
        (1, {(1,): Fraction(1)}), (3, {(0,): Fraction(1)})]
    g = Series.constant(B1(), 4)
    assert [(n, c.coeffs) for n, c in g.coeff_view("T")] == [
        (0, {(): Fraction(4)})]
    h = poly(B1(), {(1,): 1, (2,): 2})
    assert [(n, c.coeffs) for n, c in h.coeff_view("T")] == [
        (1, {(): Fraction(1)}), (2, {(): Fraction(2)})]


def test_eval_seminorm_examples():
    sp = B1()
    T = Series.variable(sp, "T")
    eta = MonomialPoint(sp, (0,), (nv("-1/2"),))
    assert T.eval_seminorm(eta).value == nv("-1/2")

    f = poly(sp, {(2,): 1, (0,): -4})
    assert f.eval_seminorm(RigidPoint(sp, (2,))).value == ZERO

    g = poly(sp, {(2,): 1, (1,): -2})  # T(T-2)
    assert g.eval_seminorm(RigidPoint(sp, (4,))).value == nv(-3)

    with pytest.raises(ValueError):
        T.eval_seminorm(RigidPoint(sp, (Fraction(1, 2),)))


def test_eval_bounded_by_gauss_norm(rng):
    sp = B2()
    for _ in range(60):
        f = rand_nonzero_series(rng, sp, vmin=-1)
        x = rand_rigid(rng, sp)
        assert f.eval_seminorm(x).value <= f.gauss_norm().upper()


def test_gauss_norm_submultiplicative(rng):
    sp = B2(3)
    for _ in range(60):
        f = rand_nonzero_series(rng, sp, vmin=-2)
        g = rand_nonzero_series(rng, sp, vmin=-2)
        assert (f * g).gauss_norm().value <= \
            f.gauss_norm().value * g.gauss_norm().value


def test_gauss_point_evaluation_matches_gauss_norm(rng):
    sp = space(3, ("x", 0), ("y", -1))
    g = gauss_point(sp)
    for _ in range(40):
        f = rand_nonzero_series(rng, sp, vmin=0)
        assert f.eval_seminorm(g).value == f.gauss_norm().value


def test_pushforward_examples():
    su = space(2, ("u", 0))
    u = Series.variable(su, "u")
    sxy = space(2, ("x", 0), ("y", 0))
    phi = [u.scale(2), u.scale(4)]
    g = gauss_point(su)
    assert pushforward_eval(Series.variable(sxy, "x"), phi, g).value == nv(-1)
    assert pushforward_eval(Series.variable(sxy, "y"), phi, g).value == nv(-2)
    diff = Series.variable(sxy, "y") - Series.variable(sxy, "x").scale(2)
    assert pushforward_eval(diff, phi, g).value == ZERO


def test_tail_makes_comparisons_uncertain():
    sp = B1()
    f = poly(sp, {(1,): 2}).with_tail(nv(-1))
    est = f.eval_seminorm(RigidPoint(sp, (1,)))
    # |2| = 2^-1 equals the tail bound: nothing is certain
    assert not est.is_exact
    assert est.upper() == nv(-1)
    assert est.lower() == ZERO


# -- comparisons of estimates against the NormValue order ----------------------
#
# The reference below decides on bare (value, uncertainty) pairs through
# NormValue's own <= and <, working out exactness at every call: an estimate
# is exact when its uncertainty is zero or strictly below its value, exact
# sides compare their values, and other sides compare the interval
# [lower, upper].  NormEstimate works out exactness once, when it is built.


def ref_exact(value, unc):
    return unc.is_zero or unc < value


def ref_compare(a, b, strict):
    """Three-valued a <= b (strict: a < b) on (value, uncertainty) pairs."""
    if ref_exact(*a) and ref_exact(*b):
        return a[0] < b[0] if strict else a[0] <= b[0]
    lower_a = a[0] if ref_exact(*a) else ZERO
    lower_b = b[0] if ref_exact(*b) else ZERO
    upper_a = a[0] if a[1] <= a[0] else a[1]
    upper_b = b[0] if b[1] <= b[0] else b[1]
    if strict:
        if upper_a < lower_b:
            return True
        if upper_b <= lower_a:
            return False
    else:
        if upper_a <= lower_b:
            return True
        if upper_b < lower_a:
            return False
    return None


def ref_scaled(pair, a):
    return pair[0] * a, pair[1] * a


# exponents with denominators 1, 2 and 3, all reachable at the Gauss point
# of |T| <= 2^(1/6) as |2^-q T^k|; one value in five is the zero norm, and
# the scales include a unit that is not the shared one() instance
compare_exps = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
compare_values = st.tuples(st.integers(0, 4), compare_exps).map(
    lambda d: NormValue.power(d[1]) if d[0] else ZERO)
compare_scales = st.one_of(st.sampled_from([ONE, NormValue(Fraction(0))]),
                           compare_values)


@st.composite
def estimate_pairs(draw):
    """(value, uncertainty) with the uncertainty zero, below, equal to or
    above the value, or drawn apart."""
    value = draw(compare_values)
    where = draw(st.sampled_from(["zero", "below", "equal", "above", "apart"]))
    step = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
    if where == "zero" or (where == "below" and value.is_zero):
        return value, ZERO
    if where == "equal":
        return value, value
    if where == "apart" or value.is_zero:
        return value, draw(compare_values)
    return value, NormValue.power(value.exp + (step if where == "above" else -step))


@given(estimate_pairs(), estimate_pairs())
@example((nv(1), ZERO), (nv(1), ZERO))
@example((ZERO, ZERO), (nv(-3), ZERO))
@example((nv(-1), nv(-1)), (nv(-2), ZERO))
@example((nv("1/2"), nv("1/3")), (nv("1/2"), nv("2/3")))
def test_comparisons_match_the_norm_value_order_property(a, b):
    ea, eb = NormEstimate(*a), NormEstimate(*b)
    assert ea.is_exact is ref_exact(*a)
    assert ea.lower() == (a[0] if ref_exact(*a) else ZERO)
    assert compare_le(ea, eb) is ref_compare(a, b, False)
    assert compare_lt(ea, eb) is ref_compare(a, b, True)


def series_with_estimate(sp, value, unc):
    """A series whose estimate at the Gauss point of sp = {|T| <= 2^(1/6)}
    is (value, unc): 2^-q T^k with q + k/6 the value's exponent."""
    if value.is_zero:
        return Series.zero(sp).with_tail(unc)
    q, k = divmod(value.exp * 6, 6)
    return Series.monomial(sp, (int(k),)).scale(Fraction(2) ** -int(q)).with_tail(unc)


@given(estimate_pairs(), estimate_pairs(), compare_scales, compare_scales,
       st.sampled_from(["<=", "<"]))
@example((nv(-1), ZERO), (nv(-1), ZERO), nv(1), ONE, "<=")
@example((nv(-1), ZERO), (nv(-2), ZERO), ONE, nv(-1), "<")
def test_atoms_hold_by_the_norm_value_order_property(a, b, alpha, beta, op):
    if alpha.is_zero and beta.is_zero:
        beta = ONE
    sp = space(2, ("T", "1/6"))
    f, g = series_with_estimate(sp, *a), series_with_estimate(sp, *b)
    x = gauss_point(sp)
    assert (f.eval_seminorm(x), g.eval_seminorm(x)) == (NormEstimate(*a), NormEstimate(*b))
    got = Seminorms(x).holds(Atom(alpha, f, op, beta, g))
    assert got is ref_compare(ref_scaled(a, alpha), ref_scaled(b, beta), op == "<")


def test_lift_to_an_equal_space_keeps_the_object():
    sp = B2()
    f = poly(sp, {(1, 0): 3, (0, 2): 1}).with_tail(nv(-2))
    twin = B2()
    assert twin == sp and twin is not sp
    assert f.lift_to(sp) is f and f.lift_to(twin) is f
    wide = sp.extend(VarSpec("w", nv(1)))
    assert f.lift_to(wide) is not f and f.lift_to(wide).space is wide
    with pytest.raises(ValueError, match="radius mismatch"):
        f.lift_to(space(2, ("T1", 1), ("T2", 0)))


def test_drop_keeps_one_space_per_name():
    sp = space(3, ("x", 0), ("y", "1/2"), ("z", 1))
    assert sp.drop("y") is sp.drop("y")
    assert sp.drop("y") == space(3, ("x", 0), ("z", 1))
    assert sp.drop("x") is not sp.drop("y")
    assert sp == space(3, ("x", 0), ("y", "1/2"), ("z", 1))
    with pytest.raises(KeyError):
        sp.drop("w")


def test_zero_and_one_survive_every_operation(rng):
    # the kernels update some term maps in place (ints_add_into,
    # ints_reduce): no operation may hand them an operand's own map, or a
    # constant's kept estimate (constant_seminorm) would go stale
    sp = space(3, ("x", 0), ("y", 0))
    zero, one = Series.zero(sp), Series.one(sp)
    wide = sp.extend(VarSpec("t", nv(1)))
    g = poly(sp, {(0, 1): 1, (1, 2): 3})
    cert = distinguished_order(g, "y")
    for _ in range(20):
        f = rand_nonzero_series(rng, sp, max_deg=2)
        small = f.scale(Fraction(3) ** 4).drop_tail()
        small = small if small.gauss_norm().value <= ONE else zero
        eps = nv(-12)
        for a in (zero, one, f):
            for b in (zero, one, f):
                a + b, a - b, a * b, -a, a.scale(3), a.pow(2)
                a.substitute({"x": b if b is not f else small, "y": one})
            a.lift_to(wide), a.lift_to(sp), a.drop_tail(), a.with_tail(nv(-2))
            weierstrass_divide(a, g, cert, eps)
            weierstrass_divide(a, one, distinguished_order(one, "y"), eps)
        invert_unit(certify_unit(one + small.scale(3)), eps)
        assert one.den == 1 and one.nums == {(0, 0): 1} and one.tail == ZERO
        assert zero.den == 1 and zero.nums == {} and zero.tail == ZERO


@given(st.integers(0, 2 ** 32 - 1))
def test_constant_seminorm_is_the_seminorm_at_every_point_property(seed):
    # zero, one, random rationals, with and without a tail, at rigid and
    # monomial points of one to three variables with rational radii
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    sp = space(p, *[(f"x{i}", rng.choice(["0", "1", "1/2", "-3/2"]))
                    for i in range(rng.randint(1, 3))])
    tail = nv(rng.randint(-4, 4))
    consts = [Series.zero(sp), Series.one(sp)]
    for _ in range(3):
        c = rand_scalar(rng, p) if rng.random() < 0.9 else Fraction(0)
        consts.append(Series.constant(sp, c))
    consts += [c.with_tail(tail) for c in consts]
    points = []
    for _ in range(3):
        points.append(rand_rigid(rng, sp))
        center = [rand_point_coord(rng, p, r.exp, depth=2) for r in sp.radii]
        rho = [r * nv(Fraction(-rng.randint(0, 4), rng.choice([1, 2]))) for r in sp.radii]
        points.append(MonomialPoint(sp, center, rho))
    for f in consts:
        est, pair = f.constant_seminorm()
        assert f.constant_seminorm()[0] is est  # kept on the series
        assert est.uncertainty == f.tail
        for x in points:
            assert est == f.seminorm_at(x) == f.eval_seminorm(x)
            assert Seminorms(x)(f) == est
            if isinstance(x, RigidPoint):
                assert pair == f.eval_ints(x.coords, {})
                assert Seminorms(x).value(f) == f.eval_exact(x.coords)
    assert (Series.variable(sp, "x0") + Series.one(sp)).constant_seminorm() is None


def test_library_products_are_unbounded():
    # MAX_POWER bounds Series.pow, the formula DSL (tests/test_formulas.py)
    # and the number of products invert_unit makes, not Series.__mul__ itself
    sp = B1()
    top = Series.monomial(sp, (MAX_POWER,))
    assert (top * top * Series.variable(sp, "T")).degree_in("T") == 2 * MAX_POWER + 1


def test_pow_at_the_degree_limit():
    # k * deg <= MAX_POWER is built (a degree-0 series counts as degree 1),
    # one more is refused before the first product
    sp = B1()
    T = Series.variable(sp, "T")
    assert T.pow(MAX_POWER) == Series.monomial(sp, (MAX_POWER,))
    assert Series.constant(sp, 2).pow(MAX_POWER) == Series.constant(sp, 2 ** MAX_POWER)
    for f, k in ((T, MAX_POWER + 1), (T * T + Series.one(sp), MAX_POWER // 2 + 1),
                 (Series.one(sp), MAX_POWER + 1)):
        with pytest.raises(ValueError, match=f"exceeds the degree limit {MAX_POWER}$"):
            f.pow(k)
    with pytest.raises(ValueError, match="negative power"):
        T.pow(-1)


_packed_terms = st.tuples(
    st.integers(1, 12),
    st.dictionaries(st.integers(0, 30), st.integers(-5, 5).filter(bool), max_size=6))


def _copy(t):
    return None if t is None else (t[0], dict(t[1]))


@given(st.one_of(st.none(), _packed_terms), _packed_terms, _packed_terms,
       st.sampled_from([1, -1]), st.booleans())
def test_fused_multiply_add_matches_add_into_property(acc, a, b, sign, cancel):
    # acc + sign * a * b on int keys equals adding the built product (here
    # the tuple kernel on one-field keys); with cancel, acc holds -sign * a * b
    # so the product's terms cancel exactly; no zero numerator is stored
    den, tuples = ints_mul((a[0], {(e,): c for e, c in a[1].items()}),
                           (b[0], {(e,): c for e, c in b[1].items()}))
    product = (den, {e: c for (e,), c in tuples.items()})
    if cancel:
        alone = acc is None
        acc = ints_add_into(_copy(acc), product, -sign)
    want = ints_add_into(_copy(acc), product, sign)
    start = _copy(acc)
    got = ints_addmul_into(start, _copy(a), _copy(b), sign)
    assert got == want
    assert 0 not in got[1].values()
    if start is not None:
        assert got[1] is start[1]
    if cancel and alone:
        assert got[1] == {}


def series_in(x):
    """Every Series inside x, through Value fields and tuples."""
    if isinstance(x, Series):
        return [x]
    if isinstance(x, tuple):
        return [s for y in x for s in series_in(y)]
    if isinstance(x, Value):
        return [s for name in x._fields for s in series_in(getattr(x, name))]
    return []


def test_series_copy_and_pickle_round_trips(rng):
    # a copy is an equal series on a term map of its own; its hash and its
    # constant seminorm are computed again, not carried over
    sp = space(3, ("x", 0), ("y", 0))
    g = poly(sp, {(0, 1): 1, (1, 2): 3})
    for _ in range(5):
        f = rand_nonzero_series(rng, sp).with_tail(nv(rng.randint(-6, 0)))
        one = Series.one(sp)
        objects = [f, one, Series.zero(sp), Series.constant(sp, Fraction(2, 9)),
                   Atom(ONE, f, "<=", nv(-1), one), rand_constructible(rng, sp),
                   weierstrass_divide(f.drop_tail(), g, distinguished_order(g, "y"),
                                      nv(-12))]
        for x in objects:
            hash(x)
            for s in series_in(x):
                s.constant_seminorm()
            copies = [copy.deepcopy(x)] + [pickle.loads(pickle.dumps(x, proto))
                                           for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
            if isinstance(x, Series):
                copies.append(copy.copy(x))
            for y in copies:
                assert type(y) is type(x) and y == x and hash(y) == hash(x)
                ours, theirs = series_in(y), series_in(x)
                assert len(ours) == len(theirs) > 0
                assert not {id(s.nums) for s in ours} & {id(s.nums) for s in theirs}
                for a, b in zip(ours, theirs):
                    assert a.constant_seminorm() == b.constant_seminorm()
