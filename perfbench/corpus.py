"""Seeded input generators for the benchmark workloads.

These are the benchmark's own copies of the acceptance-suite generators, so
that a change to the test suite cannot silently change the benchmark corpus.
Every instance is drawn from its own ``random.Random`` keyed by
(workload, seed, index): instance i is the same whatever else the run does,
and the stream can be extended until the time budget is used up.
"""

import hashlib
import math
import random
from fractions import Fraction

from padicgeom import NormValue, RigidPoint, Series, Space, VarSpec, distinguished_order


def instance_rng(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


def space(p, *specs):
    """space(2, ('x', 0), ('y', 1)) -> polydisc with radii p^0, p^1."""
    return Space(p, tuple(VarSpec(n, NormValue.power(Fraction(e))) for n, e in specs))


def nv(e):
    return NormValue.power(Fraction(e))


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
    return rand_unit_scalar(rng, p) * Fraction(p) ** rng.randint(vmin, vmax)


def rand_nonzero_series(rng, sp, max_terms=4, max_deg=3, vmin=-2, vmax=4):
    """A random exact nonzero series; colliding terms may leave fewer."""
    n = len(sp.vars)
    while True:
        coeffs = {}
        for _ in range(rng.randint(1, max_terms)):
            expo = tuple(rng.randint(0, max_deg) for _ in range(n))
            coeffs[expo] = rand_scalar(rng, sp.prime, vmin, vmax)
        f = Series(sp, coeffs)
        if f.coeffs:
            return f


def rand_point_coord(rng, p, radius_exp, depth=4):
    """A rational with |x| <= p^radius_exp."""
    if rng.random() < 0.1:
        return Fraction(0)
    vmin = math.ceil(Fraction(-radius_exp))
    return rand_unit_scalar(rng, p) * Fraction(p) ** rng.randint(vmin, vmin + depth)


def rand_rigid(rng, sp):
    return RigidPoint(sp, [rand_point_coord(rng, sp.prime, v.radius.exp) for v in sp.vars])


def rand_distinguished(rng, sp, pivot, max_order=4, series_unit=False, above_slack=(1, 3),
                       order=None, extra_degree=None):
    """A series certified pivot-distinguished by construction.

    Row norms tie or trail the witness below the order and trail it strictly
    above, by a margin drawn from ``above_slack``; that margin sets the
    contraction rate of a division by the result, so a small slack gives the
    slow, heavy-tail divisions.  ``order`` and ``extra_degree`` (degree
    above the order) are drawn unless given.
    """
    p = sp.prime
    r_exp = sp.radius(pivot).exp
    s = rng.randint(0, max_order) if order is None else order
    deg = s + (rng.randint(0, 3) if extra_degree is None else extra_degree)
    pivot_idx = sp.index(pivot)
    rest = [v for v in sp.vars if v.name != pivot]
    lead = rand_scalar(rng, p, -2, 2)
    v_lead = -NormValue.of_scalar(lead, p).exp

    def expo_of(n, other=None, k=0):
        e = [0] * len(sp.vars)
        e[pivot_idx] = n
        if other is not None:
            e[sp.index(other.name)] = k
        return tuple(e)

    coeffs = {expo_of(s): lead}
    if rest and series_unit:
        var = rng.choice(rest)
        k = rng.randint(1, 2)
        v_small = math.ceil(v_lead + k * var.radius.exp) + rng.randint(1, 2)
        coeffs[expo_of(s, var, k)] = rand_unit_scalar(rng, p) * Fraction(p) ** v_small
    for n in range(deg + 1):
        if n == s or rng.random() < 0.35:
            continue
        var, k = None, 0
        if rest and rng.random() < 0.4:
            var = rng.choice(rest)
            k = rng.randint(1, 2)
        extra = k * var.radius.exp if var is not None else 0
        bound = v_lead + (n - s) * r_exp + extra
        slack = rng.randint(*above_slack) if n > s else rng.randint(0, 2)
        coeffs[expo_of(n, var, k)] = (rand_unit_scalar(rng, p)
                                      * Fraction(p) ** (math.ceil(bound) + slack))
    g = Series(sp, coeffs)
    cert = distinguished_order(g, pivot)
    if cert is None or cert.order != s:
        raise AssertionError("generator invariant: g is not distinguished of order s")
    return g, cert


def series_key(f):
    """Canonical text of a series with its space, for corpus digests."""
    sp = f.space
    names = ",".join(f"{v.name}:{v.radius.exp}" for v in sp.vars)
    terms = ";".join(f"{e}={c}" for e, c in sorted(f.coeffs.items()))
    return f"p{sp.prime}[{names}]{{{terms}}}~{f.tail.exp}"


def digest(keys):
    """sha256 over the canonical texts of a corpus, in order."""
    h = hashlib.sha256()
    for k in keys:
        h.update(k.encode())
        h.update(b"\n")
    return h.hexdigest()
