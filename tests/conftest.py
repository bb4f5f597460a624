"""Shared builders and seeded random generators for the test suite."""

import math
import random
import signal
import threading
from fractions import Fraction

import pytest
from hypothesis import settings

from padicgeom import (And, Atom, ConstructibleSet, DatumChain,
                       ElementaryDatum, MonomialPoint, Not, NormValue, Or,
                       RigidPoint, Series, Space, VarSpec, distinguished_order)
from padicgeom.formulas import tautology


# Property tests run derandomized with a bounded example count, so the suite
# is reproducible and its run time bounded; no example database is kept.
# ``--hypothesis-profile padicgeom-deep`` runs chosen properties on 20 times
# as many examples, still derandomized (a step of the CI workflow).
settings.register_profile("padicgeom", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.register_profile("padicgeom-deep", settings.get_profile("padicgeom"),
                          max_examples=2000)
settings.load_profile("padicgeom")


# Every test runs under a wall-clock bound, so that a fault which makes a
# computation grow (division rows that never shrink, say) fails its test
# instead of hanging the suite.  On a 2-core host the slowest test takes
# about 4 s, and the slowest property on the deep profile's 2,000 examples
# about 15 s, so the bound is far above either.  It is armed with
# setitimer(ITIMER_REAL), so only on POSIX and in the main thread.  The
# signal is handled between bytecodes: one long big-int operation (a single
# huge product, say) runs to its end before the test is stopped.
TEST_TIME_BOUND_S = 120


class TimeBoundExceeded(BaseException):
    """Raised in a test that ran past TEST_TIME_BOUND_S.  Not an Exception,
    so hypothesis does not catch it and shrink (which would run the slow
    example again with no timer armed): the test fails at once."""


@pytest.fixture(autouse=True)
def time_bound():
    if (not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def expired(signum, frame):
        raise TimeBoundExceeded(f"the test ran past its {TEST_TIME_BOUND_S} s "
                                f"bound (tests/conftest.py)")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def space(p, *specs):
    """space(2, ('x', 0), ('y', 1)) -> polydisc with radii p^0, p^1."""
    return Space(p, tuple(VarSpec(n, NormValue.power(Fraction(str(e))))
                          for n, e in specs))


def poly(sp, terms):
    """poly(sp, {(1, 0): '3/4', ...}) -> exact series."""
    return Series(sp, {e: Fraction(str(c)) for e, c in terms.items()})


def nv(e):
    return NormValue.power(Fraction(str(e)))


ZERO = NormValue.zero()
ONE = NormValue.one()


def ceil_frac(x) -> int:
    return math.ceil(Fraction(x))


def rand_unit_scalar(rng, p, size=6):
    """A rational with zero valuation: unit numerator and denominator."""
    while True:
        a = rng.randint(-size, size)
        if a != 0 and a % p != 0:
            break
    while True:
        b = rng.randint(1, size)
        if b % p != 0:
            break
    return Fraction(a, b)


def rand_scalar(rng, p, vmin=-2, vmax=4):
    """A nonzero rational with valuation in [vmin, vmax]."""
    v = rng.randint(vmin, vmax)
    return rand_unit_scalar(rng, p) * Fraction(p) ** v


def rand_series(rng, sp, max_terms=4, max_deg=3, vmin=-2, vmax=4):
    """A random exact series; terms may collide, so it can have fewer."""
    n = len(sp.vars)
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = tuple(rng.randint(0, max_deg) for _ in range(n))
        coeffs[expo] = rand_scalar(rng, sp.prime, vmin, vmax)
    return Series(sp, coeffs)


def rand_nonzero_series(rng, sp, **kw):
    while True:
        f = rand_series(rng, sp, **kw)
        if f.coeffs:
            return f


def rand_point_coord(rng, p, radius_exp, depth=4):
    """A rational with |x| <= p^radius_exp."""
    if rng.random() < 0.1:
        return Fraction(0)
    vmin = ceil_frac(-radius_exp)  # v >= -e makes |x| = p^-v <= p^e
    v = rng.randint(vmin, vmin + depth)
    return rand_unit_scalar(rng, p) * Fraction(p) ** v


def rand_rigid(rng, sp):
    coords = [rand_point_coord(rng, sp.prime, v.radius.exp)
              for v in sp.vars]
    return RigidPoint(sp, coords)


def rand_monomial(rng, sp):
    """A monomial point: centre in the polydisc, radii p^(-4..0, halves)."""
    center = [rand_point_coord(rng, sp.prime, v.radius.exp, depth=2)
              for v in sp.vars]
    rho = [NormValue.power(Fraction(rng.randint(-4, 0), rng.choice([1, 2])))
           for _ in sp.vars]
    return MonomialPoint(sp, center, rho)


def rand_formula(rng, sp, budget):
    """A random formula (the criterion-7 generator) of at most ``budget``
    atoms under Not, And and Or."""
    def atom():
        return Atom(ONE, rand_nonzero_series(rng, sp, max_terms=3, max_deg=2,
                                             vmin=-1),
                    rng.choice(["<=", "<"]), ONE,
                    rand_nonzero_series(rng, sp, max_terms=3, max_deg=2,
                                        vmin=-1))

    def build(b):
        if b <= 1 or rng.random() < 0.3:
            return atom(), 1
        kind = rng.random()
        if kind < 0.25:
            sub, used = build(b - 1)
            return Not(sub), used
        args, used = [], 0
        for _ in range(rng.randint(2, 3)):
            if used >= b:
                break
            sub, u = build(b - used)
            args.append(sub)
            used += u
        if len(args) == 1:
            return args[0], used
        cls = And if kind < 0.65 else Or
        return cls(tuple(args)), used

    phi, _ = build(budget)
    return phi


def rand_constructible(rng, sp, max_links=2):
    """A random constructible set (the criterion-6 generator): one or two
    chains of up to ``max_links`` chart links each, exact data."""
    chains = []
    for _ in range(rng.randint(1, 2)):
        links = []
        domain = sp
        for k in range(rng.randint(0, max_links)):
            f = rand_nonzero_series(rng, domain, max_terms=2, max_deg=1,
                                    vmin=0, vmax=2)
            g = rand_nonzero_series(rng, domain, max_terms=2, max_deg=1,
                                    vmin=0, vmax=1)
            ext = domain.extend(VarSpec(f"t{k + 1}", nv(1)))
            if rng.random() < 0.5:
                region = tautology(ext)
            else:
                region = Atom(ONE,
                              rand_nonzero_series(rng, ext, max_terms=2,
                                                  max_deg=1, vmin=0),
                              rng.choice(["<=", "<"]), ONE,
                              rand_nonzero_series(rng, ext, max_terms=2,
                                                  max_deg=1, vmin=0))
            links.append(ElementaryDatum(f"t{k + 1}", f, g, nv(1), ONE,
                                         region))
            domain = ext
        if rng.random() < 0.4:
            base_region = Atom(
                ONE, rand_nonzero_series(rng, sp, max_terms=2, max_deg=1,
                                         vmin=0),
                "<=", ONE, rand_nonzero_series(rng, sp, max_terms=2,
                                               max_deg=1, vmin=0))
        else:
            base_region = tautology(sp)
        chains.append(DatumChain(sp, base_region, tuple(links)))
    return ConstructibleSet(sp, tuple(chains))


def rand_distinguished(rng, sp, pivot, max_order=4, series_unit=False,
                       above_slack=(1, 3)):
    """A series certified pivot-distinguished, by construction and checked.

    Row norms |c_n| r^n tie or trail the witness below the order and trail
    it strictly above (by a margin drawn from ``above_slack``, which also
    sets the division contraction rate); with ``series_unit`` the order
    coefficient becomes scalar * (1 + small) in another variable.
    """
    p = sp.prime
    r_exp = sp.radius(pivot).exp
    s = rng.randint(0, max_order)
    deg = s + rng.randint(0, 3)
    pivot_idx = sp.index(pivot)
    rest = [v for v in sp.vars if v.name != pivot]

    lead = rand_scalar(rng, p, -2, 2)
    v_lead = -NormValue.of_scalar(lead, p).exp

    coeffs = {}

    def expo_of(n, other=None, k=0):
        e = [0] * len(sp.vars)
        e[pivot_idx] = n
        if other is not None:
            e[sp.index(other.name)] = k
        return tuple(e)

    coeffs[expo_of(s)] = lead
    if rest and series_unit:
        var = rng.choice(rest)
        k = rng.randint(1, 2)
        # |small| r_var^k < |lead|
        v_small = ceil_frac(v_lead + k * var.radius.exp) + rng.randint(1, 2)
        coeffs[expo_of(s, var, k)] = \
            rand_unit_scalar(rng, p) * Fraction(p) ** v_small

    for n in range(0, deg + 1):
        if n == s or rng.random() < 0.35:
            continue
        k = 0
        var = None
        if rest and rng.random() < 0.4:
            var = rng.choice(rest)
            k = rng.randint(1, 2)
        extra = k * var.radius.exp if var is not None else 0
        bound = v_lead + (n - s) * r_exp + extra
        slack = rng.randint(*above_slack) if n > s else rng.randint(0, 2)
        v_n = ceil_frac(bound) + slack
        coeffs[expo_of(n, var, k)] = \
            rand_unit_scalar(rng, p) * Fraction(p) ** v_n

    g = Series(sp, coeffs)
    cert = distinguished_order(g, pivot)
    assert cert is not None and cert.order == s, "generator invariant"
    return g, cert


@pytest.fixture
def rng():
    return random.Random(20260810)
