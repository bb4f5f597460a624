import math
import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import padicgeom
from padicgeom import (MonomialPoint, NormValue, RigidPoint, Series, parse_norm,
                       parse_scalar, valuation, weierstrass_divide)
from padicgeom.scalars import nv_max, nv_min
from padicgeom.series import NormEstimate
from conftest import (nv, ZERO, ONE, rand_distinguished, rand_monomial,
                      rand_nonzero_series, rand_scalar, space)


def test_valuation_examples():
    assert valuation(4, 2) == 2
    assert valuation(0, 3) == math.inf
    assert valuation(Fraction(6, 5), 3) == 1
    assert valuation(Fraction(1, 2), 2) == -1


def reference_valuation(a, p):
    v, n, d = 0, a.numerator, a.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


# signed rationals of a few hundred bits, times p^k so that large
# valuations of either sign occur
primes = st.sampled_from([2, 3, 5, 7])
big = st.integers(-2 ** 300, 2 ** 300).filter(bool)
shifts = st.integers(-300, 300)


def shifted(n, d, p, k):
    return Fraction(n, d) * Fraction(p) ** k


@given(big, big, primes, shifts)
def test_valuation_matches_reference(n, d, p, k):
    a = shifted(n, abs(d), p, k)
    assert valuation(a, p) == reference_valuation(a, p)
    if a.denominator == 1:
        assert valuation(a.numerator, p) == reference_valuation(a, p)


@given(big, big, primes, shifts)
def test_of_scalar_matches_valuation(n, d, p, k):
    a = shifted(n, abs(d), p, k)
    assert NormValue.of_scalar(a, p) == NormValue(Fraction(-valuation(a, p)))


@given(big, big, primes, shifts, big)
def test_of_ratio_reads_unreduced_pairs(n, d, p, k, m):
    a = shifted(n, abs(d), p, k)
    m = abs(m) * p ** (k % 7)  # a common factor, with p in it, left in both
    assert NormValue.of_ratio(a.numerator * m, a.denominator * m, p) == \
        NormValue.of_scalar(a, p)
    assert NormValue.of_ratio(0, m, p) == ZERO


# The zero norm, integer exponents on both sides of the shared table's
# edges, and non-integer exponents, with exponent-0 values that are not the
# shared one() instance.
norm_values = st.one_of(
    st.just(ZERO),
    st.integers(-70, 70).map(lambda e: NormValue(Fraction(e))),
    st.builds(lambda n, d: NormValue(Fraction(n, d)),
              st.integers(-9, 9), st.integers(1, 6)))


@given(norm_values, norm_values)
def test_norm_value_fast_paths(a, b):
    assert (a <= b) == (a == b or a < b)
    for unit in (ONE, NormValue(Fraction(0)), NormValue.power(0)):
        assert a * unit == a and unit * a == a
        est = NormEstimate(a, b)
        assert est.scaled(unit) == est
    if a.exp is not None and b.exp is not None:
        assert (a * b).exp == a.exp + b.exp
        assert NormEstimate(a, b).scaled(b) == NormEstimate(a * b, b * b)
    else:
        assert a * b == ZERO


def test_scalar_norms():
    assert NormValue.of_scalar(4, 2) == nv(-2)
    assert NormValue.of_scalar(Fraction(1, 2), 2) == nv(1)
    assert NormValue.of_scalar(7, 5) == ONE
    assert NormValue.of_scalar(0, 5) == ZERO
    # across both edges of the shared small-exponent table
    for p in (2, 3):
        for e in range(-80, 81):
            assert NormValue.of_scalar(Fraction(p) ** -e, p) == nv(e)


def test_value_group_arithmetic():
    assert nv(-1) * nv("-1/2") == nv("-3/2")
    assert nv("-1/2") > nv(-1)
    assert nv(-1) ** 3 == nv(-3)
    assert ZERO < nv(-100)
    assert (nv(2) / nv("1/2")) == nv("3/2")
    with pytest.raises(ZeroDivisionError):
        nv(0) / ZERO


def test_ultrametric_laws(rng):
    p = 3
    for _ in range(200):
        a = rand_scalar(rng, p)
        b = rand_scalar(rng, p)
        na, nb = NormValue.of_scalar(a, p), NormValue.of_scalar(b, p)
        assert NormValue.of_scalar(a * b, p) == na * nb
        ns = NormValue.of_scalar(a + b, p)
        assert ns <= max(na, nb)
        if na != nb:
            assert ns == max(na, nb)


def test_order_respects_multiplication(rng):
    for _ in range(100):
        a = nv(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        b = nv(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        c = nv(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        if a < b:
            assert a * c < b * c


def test_literals():
    assert parse_norm("2^-3/2", 2) == nv("-3/2")
    assert parse_norm("0", 7) == ZERO
    assert parse_norm(" 1 ", 7) == NormValue.one()
    assert nv("-3/2").text(2) == "2^-3/2"
    assert nv(2).text(3) == "3^2"
    assert ZERO.text(5) == "0"
    with pytest.raises(ValueError):
        parse_norm("3^1", 2)
    with pytest.raises(ValueError):
        parse_norm("junk", 2)


def test_text_is_not_an_exact_rational():
    # text enters through parse_scalar; a coefficient, a coordinate or a
    # valued scalar is an int or a Fraction
    sp = space(2, ("x", 0))
    for build in (lambda: Series(sp, {(1,): "1/2"}),
                  lambda: RigidPoint(sp, ("1/2",)),
                  lambda: MonomialPoint(sp, ("1/2",), (ONE,)),
                  lambda: valuation("4", 2)):
        with pytest.raises(TypeError, match="^not an exact rational: '"):
            build()
    assert parse_scalar(" 1/2 ") == Fraction(1, 2)
    for text in ("x", "1/0", "1;2"):
        with pytest.raises(ValueError, match=f"^bad scalar literal: '{text}'$"):
            parse_scalar(text)


def test_compare_against_rational_constants():
    # p^(-3/2) vs 1/2 at p = 2: 2^(-3/2) < 2^(-1)
    assert nv("-3/2").compare_fraction(Fraction(1, 2), 2) == -1
    assert nv(-1).compare_fraction(Fraction(1, 2), 2) == 0
    assert nv("-1/2").compare_fraction(Fraction(1, 2), 2) == 1
    assert ZERO.compare_fraction(Fraction(1, 1000), 2) == -1


# -- canonical exponents: None, an int, or a Fraction with denominator > 1 ----

def assert_canonical(v):
    e = v.exp
    assert e is None or type(e) is int or (
        type(e) is Fraction and e.denominator > 1), repr(e)


# ints (bools too) and Fractions with denominators 1-6, integral ones such
# as 4/2 included
exponents = st.one_of(st.integers(-80, 80), st.booleans(),
                      st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6)))
canonical_norms = st.one_of(st.just(ZERO), exponents.map(NormValue.power))
powers = st.one_of(st.integers(-6, 6),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


def fraction_text(e, p):
    """The text of p^e rendered from e as a Fraction."""
    e = Fraction(e)
    return f"{p}^{e.numerator}" + ("" if e.denominator == 1 else f"/{e.denominator}")


@given(exponents, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 12), big, primes)
def test_constructors_give_canonical_exponents(e, n, d, c, p):
    a = NormValue.power(e)
    assert_canonical(a)
    # equal to, and hashed as, the same exponent stored as a Fraction
    assert a.exp == e and a == NormValue(Fraction(e)) == NormValue.power(Fraction(e))
    assert hash(a) == hash(NormValue(Fraction(e)))
    assert a.text(p) == fraction_text(e, p)
    assert repr(a) == f"NormValue(p^{Fraction(e)})"
    b = NormValue.of_scaled(n, d)
    assert_canonical(b)
    assert b == NormValue.power(Fraction(n, d))
    for v in (NormValue.of_ratio(c, d, p), NormValue.of_scalar(Fraction(c, d), p)):
        assert_canonical(v)
        assert v.exp == valuation(Fraction(d, c), p)


@given(canonical_norms, canonical_norms, powers, primes)
def test_value_group_results_are_canonical(a, b, k, p):
    back = parse_norm(a.text(p), p)
    assert back == a
    out = [back, a * b, nv_max(a, b), nv_min(a, b)]
    if not b.is_zero:
        out.append(a / b)
    if not a.is_zero or k > 0:
        out += [a ** k, a ** int(k)] if k == int(k) else [a ** k]
    if not a.is_zero:
        c = NormValue.power(k - a.exp)  # a * c = p^k: integral for int k
        out += [a * c, c * a, NormValue.power(k) / c]
    for v in out:
        assert_canonical(v)


def test_integral_fraction_exponents_are_ints():
    a, b = NormValue.power(Fraction(4, 2)), NormValue.power(2)
    assert a == b and hash(a) == hash(b) and type(a.exp) is int
    assert type((nv("1/2") * nv("3/2")).exp) is int
    assert type((nv("1/3") ** 3).exp) is int
    assert type(parse_norm("2^4/2", 2).exp) is int


@given(st.integers(0, 2 ** 32), st.sampled_from([0, 1, -1, "1/2", "-2/3"]), primes)
def test_series_norms_are_canonical(seed, r, p):
    rng = random.Random(seed)
    sp = space(p, ("T", r), ("x", "-1/2"))
    f = rand_nonzero_series(rng, sp)
    assert_canonical(f.main_norm())
    assert_canonical(f.seminorm_at(rand_monomial(rng, sp)).value)
    g, cert = rand_distinguished(rng, sp, "T")
    assert_canonical(cert.norm_witness)
    div = weierstrass_divide(f, g, cert, f.main_norm() * nv(-6))
    for v in (div.residual, div.contraction) + div.iterations:
        assert_canonical(v)


def test_norm_values_are_built_only_in_scalars():
    # every other module goes through the canonical constructors, so no
    # exponent is built by hand in a non-canonical form
    package = pathlib.Path(padicgeom.__file__).parent
    offenders = [f"{path.name}:{n}"
                 for path in sorted(package.glob("*.py")) if path.name != "scalars.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"\bNormValue\(", line)]
    assert offenders == []


# -- the Value contract: field-wise ==, hash of the field tuple, read-only --


def value_examples():
    """Two instances, with different fields, of every exported Value class."""
    p = padicgeom
    sp = space(2, ("x", 1), ("T", 1))
    line = space(2, ("T", 0))
    x, T, one = p.Series.variable(sp, "x"), p.Series.variable(sp, "T"), p.Series.one(sp)
    cert = p.distinguished_order(T + one, "T")
    ucert = cert.unit_cert
    shear = p.Shear("T", {"x": 2})
    atom = p.Atom(ONE, x, "<=", nv(-1), one)
    atom2 = p.Atom(ONE, T, "<", ONE, one)
    datum = p.ElementaryDatum("t", x, one, ONE, nv(-1), p.formulas.tautology(
        sp.extend(p.VarSpec("t", ONE))))
    chain = p.DatumChain(sp, atom, (datum,))
    split = p.SplitPoly(Fraction(1), ((Fraction(0), 2),))
    dist = p.DistinguishResult(shear, 3, nv(1), (nv(1), nv(2)), (1,), (cert,), (T,))
    return {
        p.NormValue: (nv(3), nv("1/2")),
        p.VarSpec: (p.VarSpec("x", ONE), p.VarSpec("x", nv(1))),
        p.Space: (sp, line),
        p.NormEstimate: (p.NormEstimate(ONE, ZERO), p.NormEstimate(ONE, nv(-2))),
        p.RigidPoint: (p.RigidPoint(sp, (1, 2)), p.RigidPoint(sp, (1, 4))),
        p.MonomialPoint: (p.MonomialPoint(sp, (0, 0), (ONE, ONE)),
                          p.MonomialPoint(sp, (0, 1), (ONE, ONE))),
        p.UnitCertificate: (ucert, p.UnitCertificate(Fraction(3), ucert.rest)),
        p.DistinguishedCertificate: (cert, p.DistinguishedCertificate(
            "T", 2, ucert, cert.norm_witness)),
        p.DivisionResult: (p.DivisionResult(T, one, ZERO, (ONE, nv(-1)), nv(-1)),
                           p.DivisionResult(T, one, ZERO, (ONE,), nv(-1))),
        p.PreparationResult: (p.PreparationResult(one, ucert, T, ZERO),
                              p.PreparationResult(one, ucert, T, nv(-5))),
        p.Shear: (shear, p.Shear("T", {"x": 3})),
        p.DistinguishResult: (dist, p.DistinguishResult(
            shear, 4, nv(1), (nv(1), nv(2)), (1,), (cert,), (T,))),
        p.Atom: (atom, atom2),
        p.And: (p.And((atom, atom2)), p.And((atom2, atom))),
        p.Or: (p.Or((atom, atom2)), p.Or((atom,))),
        p.Not: (p.Not(atom), p.Not(atom2)),
        p.BasicConjunct: (p.BasicConjunct((atom,)), p.BasicConjunct((atom2,))),
        p.ElementaryDatum: (datum, p.ElementaryDatum(
            "s", x, one, ONE, nv(-1), datum.region)),
        p.DatumChain: (chain, p.DatumChain(sp, atom2, (datum,))),
        p.ConstructibleSet: (p.ConstructibleSet(sp, (chain,)),
                             p.ConstructibleSet(sp, ())),
        p.CoveringPiece: (p.CoveringPiece(chain, (1, 0), x),
                          p.CoveringPiece(chain, None, None)),
        p.SplitPoly: (split, p.SplitPoly(Fraction(2), ((Fraction(0), 2),))),
        p.Disc: (p.Disc(Fraction(1), ONE), p.Disc(Fraction(1), ONE, False)),
        p.SplitAtom: (p.SplitAtom(ONE, split, "<=", ONE, None),
                      p.SplitAtom(ONE, None, "<=", ONE, split)),
        p.Decision: (p.Decision("SAT", p.RigidPoint(line, (0,))),
                     p.Decision("UNSAT")),
        p.Chart: (p.Chart(1, sp), p.Chart(2, sp)),
        p.MonomialUnitForm: (p.MonomialUnitForm(ucert, 1, 2),
                             p.MonomialUnitForm(ucert, 2, 1)),
    }


def test_value_examples_cover_every_exported_value_class():
    exported = {obj for obj in vars(padicgeom).values()
                if isinstance(obj, type) and issubclass(obj, padicgeom.scalars.Value)}
    assert exported == set(value_examples())


def test_values_follow_the_frozen_record_contract():
    for cls, (x, y) in value_examples().items():
        fields = tuple(cls.__annotations__)
        values = tuple(getattr(x, f) for f in fields)
        # keyword construction from the fields gives an equal, distinct value
        twin = cls(**dict(zip(fields, values)))
        assert twin is not x and twin == x and not twin != x, cls
        assert x != y and not x == y, cls
        try:
            expected = hash(values)
        except TypeError:  # a dict field, as in Shear: unhashable either way
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(twin) == expected, cls
        if "__repr__" not in cls.__dict__:
            args = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
            assert repr(x) == f"{cls.__name__}({args})"
        for f in fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(x, f, None)
            with pytest.raises(AttributeError):
                delattr(x, f)
        assert tuple(getattr(x, f) for f in fields) == values


def test_values_of_different_classes_never_compare_equal():
    atom = value_examples()[padicgeom.Atom][0]
    assert padicgeom.And((atom,)) != padicgeom.Or((atom,))
    assert padicgeom.Not(atom) != padicgeom.And((atom,))
    assert len({padicgeom.And((atom,)), padicgeom.Or((atom,))}) == 2
    sp = space(2, ("x", 0))
    assert padicgeom.RigidPoint(sp, (0,)) != padicgeom.MonomialPoint(sp, (0,), (ONE,))


def test_value_defaults_and_keywords():
    p = padicgeom
    sp = space(2, ("x", 0), ("y", 0))
    assert p.Shear("T", {}).inverse is False
    assert p.Shear("T", {}, inverse=True).inverse is True
    assert p.Shear("T", {}).inverted() == p.Shear(pivot="T", exponents={}, inverse=True)
    assert p.Chart(1, sp).t_name == "t"
    assert p.Chart(index=2, base=sp, t_name="u").t_name == "u"
    assert p.Disc(Fraction(0), ONE).closed is True
    assert p.Disc(Fraction(0), ONE, closed=False).closed is False
    assert p.Decision("UNSAT").witness is None


def test_space_cache_is_outside_eq_and_hash():
    a, b = space(2, ("x", "1/2"), ("y", 1)), space(2, ("x", "1/2"), ("y", 1))
    assert a.scaled_radii() == (2, (1, 2))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "_scaled_radii" in vars(a) and "_scaled_radii" not in vars(b)


def test_value_constructors_validate():
    p = padicgeom
    sp = space(2, ("x", 0), ("y", 0))
    line = space(2, ("T", 0))
    x, one = p.Series.variable(sp, "x"), p.Series.one(sp)
    atom = p.Atom(ONE, x, "<=", ONE, one)
    with pytest.raises(ValueError, match="variable 'x' needs a positive radius"):
        p.VarSpec("x", ZERO)
    with pytest.raises(ValueError, match="4 is not a prime"):
        p.Space(4, ())
    with pytest.raises(ValueError, match=re.escape("duplicate variable names in ['x', 'x']")):
        p.Space(2, (p.VarSpec("x", ONE), p.VarSpec("x", ONE)))
    with pytest.raises(ValueError, match="bad comparison '>'"):
        p.Atom(ONE, x, ">", ONE, one)
    with pytest.raises(ValueError, match="at least one scale must be nonzero"):
        p.Atom(ZERO, x, "<=", ZERO, one)
    with pytest.raises(ValueError, match="atom sides live on different spaces"):
        p.Atom(ONE, x, "<=", ONE, p.Series.one(line))
    with pytest.raises(ValueError, match="datum functions live on different spaces"):
        p.ElementaryDatum("t", x, p.Series.one(line), ONE, nv(-1), atom)
    with pytest.raises(ValueError, match="datum needs 0 < s < r"):
        p.ElementaryDatum("t", x, one, ONE, ONE, atom)
    datum = p.ElementaryDatum("t", x, one, ONE, nv(-1), atom)
    with pytest.raises(ValueError, match="does not match the expected domain"):
        p.DatumChain(line, atom, (datum,))
    with pytest.raises(ValueError, match="chain base does not match the set's space"):
        p.ConstructibleSet(line, (p.DatumChain(sp, atom, ()),))
    with pytest.raises(ValueError, match="a split polynomial has a nonzero leading"):
        p.SplitPoly(Fraction(0), ())
    with pytest.raises(ValueError, match="chart index must be 1 or 2"):
        p.Chart(3, sp)
    with pytest.raises(ValueError, match="blow-up charts live over a two-variable space"):
        p.Chart(1, line)
    ucert = p.certify_unit(one)
    with pytest.raises(ValueError, match="exponents must be natural numbers"):
        p.MonomialUnitForm(ucert, -1, 0)
