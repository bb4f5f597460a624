"""Multiplicative units, distinguished series, Weierstrass division/preparation.

The distinguished order of a series is read off one integer pass over its
numerators: the largest pivot degree at the top weighted exponent.

Division follows the classical contraction scheme: truncate the divisor at
its distinguished order s, do Euclidean division by that truncation (whose
leading coefficient is an invertible unit), and iterate on the defect, which
shrinks by a fixed factor each round.  All intermediate arithmetic is exact:
each pivot row is kept as integer numerators over one denominator, its terms
keyed by packed exponent vectors (one int per term, so exponents add as one
integer addition; Monagan-Pearce, CASC 2007), and multiplied and subtracted
as integers in one fused kernel.  Eliminating row k of the defect takes
q_k = h_k v, v the inverse of g's lead row g_s, subtracts q_k g_m from every
row m != s of g in one call, and leaves h_k E in row k itself, where
E = 1 - v g_s is formed once per division: zero for a scalar lead, whose
rows are then dropped, and a short series for a series-unit lead (v is g_s's
inverse to a precision), so row k is never multiplied by g_s.  The loop
keeps f = g q + R + h exactly, and the Gauss norm of the defect h is
computed once per pass, on integer exponents, with one valuation per class
of terms of one row and one rest weight, in the scan that also divides out
each row's content; it decides whether to go on, is logged as that pass's
iteration norm, and after the last pass, with the tail floor of the inputs,
is the reported residual.  The certificate is thus the exact norm of
f - (g q + R), never a forward error bound.

Preparation is one pass of two divisions: one of t^s by g gives the monic
factor w = t^s - R, and one exact division of g by w gives the unit and the
defect; neither is retried (the argument is in ``weierstrass_prepare``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Dict, List, Optional, Tuple

from .scalars import NormValue, Value, _valuation, nv_max, nv_min
from .series import (MAX_POWER, Exponents, PackedTerms, Series, Space, ints_add_into,
                     ints_addmul_into, ints_addmul_rows, ints_reduce, norm_exp)

_MAX_DIVISION_PASSES = 400


class UnitCertificate(Value):
    """Certifies u = scale * (1 + rest) with |scale| != 0 and ||rest|| < 1.

    Such a u is a multiplicative unit: ||u a|| = ||u|| ||a|| for every a,
    ||u|| = |scale|, and ||1/u|| = 1/||u||.  This sufficient shape is the
    one every construction in this package produces, so the pipeline is
    closed under it.
    """

    scale: Fraction
    rest: Series

    def __init__(self, scale: Fraction, rest: Series):
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "rest", rest)

    def norm(self) -> NormValue:
        return NormValue.of_scalar(self.scale, self.rest.space.prime)


def certify_unit(u: Series) -> Optional[UnitCertificate]:
    """Certificate for u = c(1 + w) with nonzero constant c and ||w|| < 1.

    Returns None when the shape test fails; this is a sufficient criterion
    only, not a decision of semantic invertibility.
    """
    c = u.constant_term()
    if c == 0:
        return None
    rest = u.scale(Fraction(1) / c) - Series.one(u.space)
    if nv_max(rest.main_norm(), rest.tail) >= NormValue.one():
        return None
    return UnitCertificate(c, rest)


def invert_unit(cert: UnitCertificate, eps: NormValue) -> Series:
    """Approximate inverse v of u = c(1+w) with ||u v - 1|| <= eps.

    Uses the geometric series sum (-w)^n truncated at the smallest N with
    ||w||^(N+1) <= eps.  Exact (tail-free) when w = 0.  The returned tail
    eps/|c| bounds ||1/u - v||.  An eps that needs N > ``MAX_POWER``
    products is refused before the first one.
    """
    c, w = cert.scale, cert.rest
    space = w.space
    if w.is_zero:
        return Series.constant(space, Fraction(1) / c)
    if eps.is_zero:
        raise ValueError("exact inversion is only available for constant units")
    if w.tail > eps:
        raise ValueError("eps is below the tail floor of the unit certificate")
    omega = nv_max(w.main_norm(), w.tail)
    if omega <= eps:
        n_terms = 0
    else:
        a = -omega.exp  # > 0 since ||w|| < 1
        b = -eps.exp
        n_terms = max(0, -(-b.numerator * a.denominator // (b.denominator * a.numerator)) - 1)
    if n_terms > MAX_POWER:
        raise ValueError(f"the unit inverse to precision {eps.text(space.prime)} "
                         f"needs {n_terms} products, above the limit MAX_POWER = {MAX_POWER}")
    acc = Series.one(space)
    power = Series.one(space)
    w0 = w.drop_tail()
    for _ in range(n_terms):
        power = power * (-w0)
        acc = acc + power
    v = acc.scale(Fraction(1) / c)
    slack = eps / NormValue.of_scalar(c, space.prime)
    return v.drop_tail().with_tail(slack)


class DistinguishedCertificate(Value):
    """Witness that a series is pivot-distinguished of the given order.

    ``norm_witness`` is ||g_s|| r^s, which equals ||g||; every stored
    coefficient above the order is strictly below it in weighted norm, and
    the tail is strictly below it too, so the property survives the
    unrepresented remainder.
    """

    pivot: str
    order: int
    unit_cert: UnitCertificate
    norm_witness: NormValue

    def __init__(self, pivot: str, order: int, unit_cert: UnitCertificate,
                 norm_witness: NormValue):
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "unit_cert", unit_cert)
        object.__setattr__(self, "norm_witness", norm_witness)


def distinguished_order(f: Series, pivot: str) -> Optional[DistinguishedCertificate]:
    """The unique order at which f is pivot-distinguished, or None.

    One integer pass over ``f.nums``: the order is the largest pivot degree
    at the top weighted exponent (as in ``norm_exp``), its row must be a
    certified unit, and the tail must sit strictly below the witness ||f||.
    The certificate keeps f itself outside its fields (``==`` and ``hash``
    ignore it), so division and preparation by this f object trust it
    without deriving it again (``_own_certificate``).
    """
    space, p = f.space, f.space.prime
    i = space.index(pivot)
    d, weights = space.scaled_radii()
    top = s = None
    for e, c in f.nums.items():
        x = sum(map(mul, e, weights)) - d * _valuation(c, 1, p)
        if top is None or x > top or (x == top and e[i] > s):
            top, s = x, e[i]
    if top is None:
        return None
    witness = NormValue.of_scaled(top + d * _valuation(f.den, 1, p), d)
    if not f.tail < witness:
        return None
    lead = {e[:i] + e[i + 1:]: c for e, c in f.nums.items() if e[i] == s}
    ucert = certify_unit(Series._reduced(space.drop(pivot), (f.den, lead), f.tail))
    if ucert is None:
        return None
    cert = DistinguishedCertificate(pivot, s, ucert, witness)
    object.__setattr__(cert, "_source", f)
    return cert


def _own_certificate(g: Series, cert: DistinguishedCertificate
                     ) -> DistinguishedCertificate:
    """cert if ``distinguished_order`` read it off this very g object;
    otherwise g's certificate, derived again, which must equal cert in
    full (a stale, forged or rebuilt certificate is never trusted as is)."""
    if getattr(cert, "_source", None) is g:
        return cert
    own = distinguished_order(g, cert.pivot)
    if own != cert:
        raise ValueError("invalid distinguished certificate for the divisor")
    return own


class DivisionResult(Value):
    quotient: Series
    remainder: Series
    residual: NormValue
    iterations: Tuple[NormValue, ...]
    contraction: NormValue  # the factor bounding each defect drop

    def __init__(self, quotient: Series, remainder: Series, residual: NormValue,
                 iterations: Tuple[NormValue, ...], contraction: NormValue):
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "remainder", remainder)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "contraction", contraction)


class PreparationResult(Value):
    unit: Series
    unit_cert: UnitCertificate
    monic: Series
    residual: NormValue

    def __init__(self, unit: Series, unit_cert: UnitCertificate, monic: Series,
                 residual: NormValue):
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "unit_cert", unit_cert)
        object.__setattr__(self, "monic", monic)
        object.__setattr__(self, "residual", residual)


# -- pivot-coefficient plumbing ------------------------------------------------
#
# The division loop works on row maps {pivot degree: (den, {packed key: int})}:
# each row is a term map in the remaining variables in the integer form a
# ``Series`` stores (the kernel of ``series``), so the inner products and
# subtractions are integer arithmetic with no per-operation gcd.  A row's
# terms are keyed by packed exponent vectors, sum_j e_j << (width * j) over
# the rest variables, so exponents add as one int (``ints_addmul_into``).
# The width is the bit length of an a priori bound on every rest exponent
# the division can reach (the argument is in ``weierstrass_divide``), so no
# field carries.  Rows are packed once, split off a series' numerators
# (``_rows_of``), and unpacked once, merged back into a series
# (``_rows_to_series``), with no Fraction in between.  A row's norm takes one
# valuation per class of terms of equal rest weight: the smallest v_p(c) in
# a class is v_p of the class's gcd.  Each sweep ends with one scan per
# defect row that gives its norm and divides out its content, the gcd of
# den and the class gcds.


def _rest_degree(nums: Dict[Exponents, int], pivot_index: Optional[int]) -> int:
    """The largest exponent of a variable other than the pivot (0 for none);
    a pivot_index of None counts every variable."""
    return max((x for e in nums for i, x in enumerate(e) if i != pivot_index), default=0)


def _rows_of(h: Series, pivot_index: int, units: List[int]) -> Dict[int, PackedTerms]:
    """h's rows, each rest exponent vector packed with the field units
    ``units`` (1 << (width * j) for rest variable j)."""
    mults = units[:pivot_index] + [0] + units[pivot_index:]
    rows: Dict[int, Dict[int, int]] = {}
    for expo, c in h.nums.items():
        rows.setdefault(expo[pivot_index], {})[sum(map(mul, expo, mults))] = c
    return {k: ints_reduce((h.den, row)) for k, row in rows.items()}


def _rows_to_series(rows: Dict[int, PackedTerms], space: Space, pivot_index: int,
                    width: int) -> Series:
    shifts = [width * j for j in range(len(space.vars) - 1)]
    mask = (1 << width) - 1

    def expo(key: int, k: int) -> Exponents:
        rest = [key >> sh & mask for sh in shifts]
        rest.insert(pivot_index, k)
        return tuple(rest)

    # rows never share a term, so each row is scaled once, to the lcm
    den = lcm(*(row[0] for row in rows.values()))
    out = {expo(key, k): c * (den // rden)
           for k, (rden, row) in rows.items() for key, c in row.items()}
    return Series._reduced(space, (den, out), NormValue.zero())


def weierstrass_divide(f: Series, g: Series, cert: DistinguishedCertificate,
                       eps: NormValue) -> DivisionResult:
    """Divide f by a certified pivot-distinguished g: f = g q + R + h,
    deg_pivot R < order, ||h|| <= residual <= eps.

    Each outer round divides the running defect by the order-truncation of
    g and recomputes the new defect exactly, so the logged iteration norms
    obey ||h_i|| <= contraction^i ||f||; the loop stops once the defect is
    within eps.  Instances with nonzero tails have a floor
    max(tail_f, tail_g ||f||/||g||) below which no eps is reachable.

    The certificate, witness included, must be the one g has; it is
    derived again unless it was read off this g object (``_own_certificate``).

    A lead row that is a series unit, not a scalar, is inverted to
    precision tau = min(kappa, p^-1), kappa the norm of g's rows above the
    order over ||g||, and for eps > 0 tau is raised to at least
    min(eps/||f||, p^-1): each sweep then contracts the defect by
    max(kappa, tau), and the inverse is never more precise than the target
    (a tiny row above the order would otherwise ask ``invert_unit`` for an
    unbounded number of products).  A target that still needs more than
    ``MAX_POWER`` products of the inverse is refused by ``invert_unit``.

    Rows key each term by sum_j e_j << (width * j) over the exponents e_j of
    the variables other than the pivot, so a product's key is the sum of its
    factors' keys as long as no field carries.  None can: each elimination
    step (one row k of one sweep) forms q_k = row * v, subtracts q_k times
    the rows of g other than the lead row g_s, and replaces row k by
    row * E with E = 1 - v g_s (the same value as row - q_k g_s); each of
    these raises the largest rest exponent by at most deg v + deg_rest g,
    since deg_rest E <= deg v + deg_rest g_s.  A sweep visits at most
    top_f + 1 + P * max(0, top_g - s) rows, since each sweep raises the top
    pivot degree by at most top_g - s, and there are at most
    P = ``_MAX_DIVISION_PASSES`` sweeps, so at most
    N = P * (top_f + 1 + P * max(0, top_g - s)) steps.  Every
    exponent therefore stays within bound = deg_rest f + N * (deg v +
    deg_rest g), and width = bound.bit_length() fields hold it.  Here
    top_f and top_g are the largest pivot degrees of f and g, and deg is the
    largest exponent of any one rest variable.  One-variable rows pack to
    key 0.
    """
    if f.space != g.space:
        raise ValueError("dividend and divisor live on different spaces")
    cert = _own_certificate(g, cert)
    pivot, s = cert.pivot, cert.order
    space = f.space
    p = space.prime

    if f.is_zero:
        return DivisionResult(Series.zero(space), Series.zero(space),
                              NormValue.zero(), (), NormValue.zero())

    f0, g0 = f.drop_tail(), g.drop_tail()
    i = space.index(pivot)
    d, weights = space.scaled_radii()
    pivot_weight = weights[i]
    rest_weights = weights[:i] + weights[i + 1:]

    norm_g = cert.norm_witness
    above = norm_exp({e: c for e, c in g0.nums.items() if e[i] > s}, p, (d, weights))
    above = NormValue.zero() if above is None else NormValue.of_scaled(
        above + d * _valuation(g0.den, 1, p), d)
    kappa_stored = above / norm_g
    kappa_logged = nv_max(above, g.tail) / norm_g

    norm_f = f0.main_norm()
    floor = nv_max(f.tail, g.tail * (norm_f / norm_g))
    if floor > eps:
        raise ValueError("eps is below the tail floor of the division instance")

    # g's lead row is certified as scale * (1 + rest), rest carrying g's tail
    unit = cert.unit_cert
    if not unit.rest.nums:
        v = Series.constant(unit.rest.space, 1 / unit.scale)
        tau = NormValue.zero()
    else:
        tau = kappa_stored if not kappa_stored.is_zero else NormValue.power(-1)
        tau = nv_min(tau, NormValue.power(-1))
        if not (eps.is_zero or norm_f.is_zero):
            tau = nv_max(tau, nv_min(eps / norm_f, NormValue.power(-1)))
        # invert the stored row: invert_unit refuses g's tail above tau
        v = invert_unit(UnitCertificate(unit.scale, unit.rest.drop_tail()), tau).drop_tail()

    contraction = nv_max(kappa_logged, tau)

    # the packing width: see the docstring
    top_f = max((e[i] for e in f0.nums), default=0)
    top_g = max(e[i] for e in g0.nums)
    passes = _MAX_DIVISION_PASSES
    steps = passes * (top_f + 1 + passes * max(0, top_g - s))
    width = (_rest_degree(f0.nums, i) + steps * (_rest_degree(v.nums, None)
                                                  + _rest_degree(g0.nums, i))).bit_length()
    shifts = [width * j for j in range(len(rest_weights))]
    units = [1 << sh for sh in shifts]
    mask = (1 << width) - 1
    key_weight: Dict[int, int] = {}

    def rows_norm(rows: Dict[int, PackedTerms]) -> NormValue:
        """Exact Gauss norm of a row map, on integer exponents over d, in
        one scan per row that also divides out the row's content in place:
        the smallest v_p(c) among a row's terms of one rest weight is v_p of
        their gcd, so each (row, weight) class takes one valuation, and the
        content is the gcd of den and the class gcds."""
        best = None
        for k, (den, row) in rows.items():
            classes: Dict[int, int] = {}
            content = classes.get
            for key, c in row.items():
                w = key_weight.get(key)
                if w is None:
                    w = key_weight[key] = sum((key >> sh & mask) * x
                                              for sh, x in zip(shifts, rest_weights))
                classes[w] = gcd(content(w, 0), c)
            common = gcd(den, *classes.values())
            if common > 1:
                for key in row:
                    row[key] //= common
                rows[k] = den // common, row
            base = k * pivot_weight + d * _valuation(den, 1, p)
            for w, c in classes.items():
                x = base + w - d * _valuation(c, 1, p)
                if best is None or x > best:
                    best = x
        return NormValue.zero() if best is None else NormValue.of_scaled(best, d)

    v_row = (v.den, {sum(map(mul, e, units)): c for e, c in v.nums.items()})
    g_rows = _rows_of(g0, i, units)
    # an eliminated row k is h_k (1 - v g_s): e_row, None when v inverts
    # the lead exactly (a scalar lead), so that the row is dropped
    lead = g_rows.pop(s)
    e_row = ints_reduce(ints_addmul_into((lead[0] * v.den, {0: lead[0] * v.den}),
                                         v_row, lead, -1))
    e_row = e_row if e_row[1] else None
    g_rows = sorted(g_rows.items())
    h_rows = _rows_of(f0, i, units)
    q_rows: Dict[int, PackedTerms] = {}
    r_rows: Dict[int, PackedTerms] = {}
    iters: List[NormValue] = []
    defect = rows_norm(h_rows)
    while defect > eps:
        if len(iters) >= _MAX_DIVISION_PASSES:
            if eps.is_zero:
                raise ValueError("eps = 0 requested on a non-exact division instance")
            raise ValueError("division did not contract below eps "
                             f"after {len(iters)} passes")
        # one sweep: reduce by the order-truncation, subtracting the full g
        # so the remaining rows are exactly the next defect; row k itself
        # becomes h_k - q_k g_s = h_k e_row
        for k in range(max(h_rows, default=0), s - 1, -1):
            row = h_rows.pop(k, None)
            if row is None or not row[1]:
                continue
            q_k = ints_addmul_into(None, row, v_row, 1)
            ints_addmul_rows(h_rows, k - s, q_k, g_rows, -1)
            if e_row is not None:
                h_rows[k] = ints_addmul_into(None, row, e_row, 1)
            acc = q_rows.get(k - s)
            q_rows[k - s] = q_k if acc is None else ints_add_into(acc, q_k, 1)
        # rows below the order move to the remainder
        for k in [k for k in h_rows if k < s]:
            row = h_rows.pop(k)
            if row[1]:
                acc = r_rows.get(k)
                r_rows[k] = row if acc is None else ints_add_into(acc, row, 1)
        h_rows = {k: row for k, row in h_rows.items() if row[1]}
        defect = rows_norm(h_rows)
        iters.append(defect)

    q = _rows_to_series(q_rows, space, i, width)
    r_part = _rows_to_series(r_rows, space, i, width)
    return DivisionResult(q, r_part, nv_max(defect, floor), tuple(iters), contraction)


def weierstrass_prepare(g: Series, cert: DistinguishedCertificate,
                        eps: NormValue) -> PreparationResult:
    """Factor a certified distinguished g as e * w with w monic of the
    certified order and e a certified multiplicative unit, in one pass.

    w = t^s - R, R the remainder of one division of t^s by g (t the pivot,
    s the order, r its radius); the unit e is the exact Euclidean quotient
    of g by w, whose remainder is the whole preparation defect: its norm is
    at most (||g||/r^s) times the division tolerance by the ultrametric
    norm identity.  The reported residual is the larger of that
    remainder's exact norm and g's tail (zero exactly when g = e w
    reconstructs, e.g. when g is a polynomial of degree s).

    The exact division by w cannot fail.  The division contract
    max(||g|| ||q||, ||R||) = ||t^s|| gives deg_t R < s and ||R|| <= r^s,
    so the tail-free w has distinguished order s with lead row 1, and its
    certificate exists.  Dividing the tail-free g by w (a scalar lead,
    E = 0) eliminates every row >= s in one sweep, so the exact target
    eps = 0 is reached.  g's tail bounds the residual from below, so
    g.tail > eps is refused before any division; for eps p^-1 < g.tail <=
    eps the division of t^s is widened to its tail floor
    g.tail r^s/||g||.
    """
    cert = _own_certificate(g, cert)
    if g.tail > eps:
        raise ValueError("eps is below the tail floor of the preparation instance")
    pivot, s = cert.pivot, cert.order
    space = g.space
    t_s = Series.monomial(space, tuple(s if v.name == pivot else 0
                                       for v in space.vars))
    # the target eps p^-1 for the preparation defect, scaled by r^s/||g||,
    # or the division's tail floor when g's tail is above that target
    eps_div = (nv_max(eps * NormValue.power(-1), g.tail)
               * space.radius(pivot) ** s / cert.norm_witness)
    w = t_s - weierstrass_divide(t_s, g, cert, eps_div).remainder
    exact = weierstrass_divide(g.drop_tail(), w, distinguished_order(w, pivot),
                               NormValue.zero())
    ucert = certify_unit(exact.quotient)
    if ucert is None:
        raise ValueError("preparation failed: the quotient failed the unit shape")
    residual = nv_max(exact.remainder.main_norm(), g.tail)
    if residual > eps:
        raise ValueError("preparation failed: residual did not certify below eps")
    return PreparationResult(exact.quotient, ucert, w, residual)
