"""Multiplicative units, distinguished series, Weierstrass division/preparation.

Division follows the classical contraction scheme: truncate the divisor at
its distinguished order s, do Euclidean division by that truncation (whose
leading coefficient is an invertible unit), and iterate on the defect, which
shrinks by a fixed factor each round.  All intermediate arithmetic is exact
polynomial arithmetic over Q; the residual reported at the end is recomputed
a posteriori as the exact Gauss norm of f - (g q + R) plus the tail floor of
the inputs, so the certificate never relies on forward error propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .scalars import NormValue, nv_max, nv_min, valuation
from .series import Series, Space

_MAX_DIVISION_PASSES = 400


@dataclass(frozen=True)
class UnitCertificate:
    """Certifies u = scale * (1 + rest) with |scale| != 0 and ||rest|| < 1.

    Such a u is a multiplicative unit: ||u a|| = ||u|| ||a|| for every a,
    ||u|| = |scale|, and ||1/u|| = 1/||u||.  This sufficient shape is the
    one every construction in this package produces, so the pipeline is
    closed under it.
    """

    scale: Fraction
    rest: Series

    def series(self) -> Series:
        return (Series.one(self.rest.space) + self.rest).scale(self.scale)

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
    if rest.gauss_norm().upper() >= NormValue.one():
        return None
    return UnitCertificate(c, rest)


def invert_unit(cert: UnitCertificate, eps: NormValue) -> Series:
    """Approximate inverse v of u = c(1+w) with ||u v - 1|| <= eps.

    Uses the geometric series sum (-w)^n truncated at the smallest N with
    ||w||^(N+1) <= eps.  Exact (tail-free) when w = 0.  The returned tail
    eps/|c| bounds ||1/u - v||.
    """
    c, w = cert.scale, cert.rest
    space = w.space
    if w.is_zero:
        return Series.constant(space, Fraction(1) / c)
    if eps.is_zero:
        raise ValueError("exact inversion is only available for constant units")
    if w.tail > eps:
        raise ValueError("eps is below the tail floor of the unit certificate")
    omega = w.gauss_norm().upper()
    if omega <= eps:
        n_terms = 0
    else:
        a = -omega.exp  # > 0 since ||w|| < 1
        b = -eps.exp
        n_terms = max(0, -(-b.numerator * a.denominator // (b.denominator * a.numerator)) - 1)
    acc = Series.one(space)
    power = Series.one(space)
    w0 = w.drop_tail()
    for _ in range(n_terms):
        power = power * (-w0)
        acc = acc + power
    v = acc.scale(Fraction(1) / c)
    slack = eps / NormValue.of_scalar(c, space.prime)
    return v.drop_tail().with_tail(slack)


@dataclass(frozen=True)
class DistinguishedCertificate:
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


def distinguished_order(f: Series, pivot: str) -> Optional[DistinguishedCertificate]:
    """The unique order at which f is pivot-distinguished, or None.

    The order is the largest pivot degree whose coefficient attains the
    Gauss norm of f; it must carry a certified unit coefficient, and the
    tail must sit strictly below the witness norm.
    """
    rows = f.coeff_view(pivot)
    if not rows:
        return None
    r = f.space.radius(pivot)
    weighted = [(n, c, c.main_norm() * (r ** n)) for n, c in rows]
    top = NormValue.zero()
    for _, _, w in weighted:
        if top < w:
            top = w
    if top.is_zero:
        return None
    if not f.tail < top:
        return None
    s = max(n for n, _, w in weighted if w == top)
    lead = next(c for n, c, _ in weighted if n == s)
    ucert = certify_unit(lead)
    if ucert is None:
        return None
    return DistinguishedCertificate(pivot, s, ucert, top)


@dataclass(frozen=True)
class DivisionResult:
    quotient: Series
    remainder: Series
    residual: NormValue
    iterations: Tuple[NormValue, ...]
    contraction: NormValue  # the factor bounding each defect drop


@dataclass(frozen=True)
class PreparationResult:
    unit: Series
    unit_cert: UnitCertificate
    monic: Series
    residual: NormValue


# -- pivot-coefficient plumbing ------------------------------------------------
#
# The division loop works on raw row maps {pivot degree: {rest expo: c}} to
# keep the inner arithmetic cheap; Series objects are built only at the
# boundary.


def _rows_of(h: Series, pivot_index: int) -> Dict[int, Dict[tuple, Fraction]]:
    rows: Dict[int, Dict[tuple, Fraction]] = {}
    for expo, c in h.coeffs.items():
        k = expo[pivot_index]
        rest = expo[:pivot_index] + expo[pivot_index + 1:]
        rows.setdefault(k, {})[rest] = c
    return rows


def _rows_to_series(rows, space: Space, pivot_index: int) -> Series:
    out = {}
    for k, row in rows.items():
        for rest, c in row.items():
            if c:
                out[rest[:pivot_index] + (k,) + rest[pivot_index:]] = c
    return Series._raw(space, out, NormValue.zero())


def _mul_rest(a: Dict[tuple, Fraction], b: Dict[tuple, Fraction]
              ) -> Dict[tuple, Fraction]:
    out: Dict[tuple, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(sum, zip(e1, e2)))
            acc = out.get(e)
            out[e] = c1 * c2 if acc is None else acc + c1 * c2
    return {e: c for e, c in out.items() if c}


def _sub_into(target: Dict[tuple, Fraction], term: Dict[tuple, Fraction]):
    for e, c in term.items():
        acc = target.get(e)
        if acc is None:
            target[e] = -c
        else:
            acc = acc - c
            if acc:
                target[e] = acc
            else:
                del target[e]


def _rows_norm(rows, pivot_exp, rest_exp, p) -> NormValue:
    """Gauss norm of a row map, computed on bare exponents."""
    best = None
    for k, row in rows.items():
        ek = pivot_exp(k)
        for rest, c in row.items():
            e = ek + rest_exp(rest) - valuation(c, p)
            if best is None or e > best:
                best = e
    return NormValue.zero() if best is None else NormValue(best)


def _truncate_at_order(g: Series, pivot: str, s: int) -> Tuple[Series, NormValue]:
    """Split off the part of g with pivot degree <= s; also return the
    weighted norm of the stored part above s."""
    i = g.space.index(pivot)
    low = {}
    above = NormValue.zero()
    p = g.space.prime
    for expo, c in g.coeffs.items():
        if expo[i] <= s:
            low[expo] = c
        else:
            w = NormValue.of_scalar(c, p) * g.space.monomial_weight(expo)
            above = nv_max(above, w)
    return Series._raw(g.space, low, NormValue.zero()), above


def weierstrass_divide(f: Series, g: Series, cert: DistinguishedCertificate,
                       eps: NormValue) -> DivisionResult:
    """Divide f by a certified pivot-distinguished g: f = g q + R + h,
    deg_pivot R < order, ||h|| <= residual <= eps.

    Each outer round divides the running defect by the order-truncation of
    g and recomputes the new defect exactly, so the logged iteration norms
    obey ||h_i|| <= contraction^i ||f||; the loop stops once the defect is
    within eps.  Instances with nonzero tails have a floor
    max(tail_f, tail_g ||f||/||g||) below which no eps is reachable.
    """
    if f.space != g.space:
        raise ValueError("dividend and divisor live on different spaces")
    check = distinguished_order(g, cert.pivot)
    if check is None or check.order != cert.order:
        raise ValueError("invalid distinguished certificate for the divisor")
    pivot, s = cert.pivot, cert.order
    space = f.space
    p = space.prime

    if f.is_zero:
        return DivisionResult(Series.zero(space), Series.zero(space),
                              NormValue.zero(), (), NormValue.zero())

    f0, g0 = f.drop_tail(), g.drop_tail()
    norm_g = cert.norm_witness
    g_trunc, above = _truncate_at_order(g0, pivot, s)
    kappa_stored = above / norm_g if not above.is_zero else NormValue.zero()
    kappa_logged = nv_max(above, g.tail) / norm_g if not nv_max(above, g.tail).is_zero \
        else NormValue.zero()

    floor = nv_max(f.tail, g.tail * (f0.main_norm() / norm_g))
    if floor > eps:
        raise ValueError("eps is below the tail floor of the division instance")

    lead = dict(g0.coeff_view(pivot))[s].drop_tail()
    lead_scalar = lead.as_scalar()
    rest_space = lead.space
    if lead_scalar is not None:
        v = Series.constant(rest_space, Fraction(1) / lead_scalar)
        tau = NormValue.zero()
    else:
        lcert = certify_unit(lead)
        if lcert is None:
            raise ValueError("invalid certificate: leading coefficient is not a unit")
        tau = kappa_stored if not kappa_stored.is_zero else NormValue.power(-1)
        tau = nv_min(tau, NormValue.power(-1))
        v = invert_unit(lcert, tau).drop_tail()

    contraction = nv_max(kappa_logged, tau)
    pivot_index = space.index(pivot)
    rest_space = lead.space

    # exponent caches for fast norm bookkeeping on raw rows
    r_pivot_exp = space.radius(pivot).exp
    pivot_exps: Dict[int, Fraction] = {}

    def pw(k: int) -> Fraction:
        e = pivot_exps.get(k)
        if e is None:
            e = r_pivot_exp * k
            pivot_exps[k] = e
        return e

    rest_exps: Dict[tuple, Fraction] = {}

    def rw(rest: tuple) -> Fraction:
        e = rest_exps.get(rest)
        if e is None:
            w = rest_space.monomial_weight(rest)
            e = w.exp
            rest_exps[rest] = e
        return e

    g_rows = [(m, row) for m, row in sorted(_rows_of(g0, pivot_index).items())]
    v_row = dict(v.coeffs)
    h_rows = _rows_of(f0, pivot_index)
    q_rows: Dict[int, Dict[tuple, Fraction]] = {}
    r_rows: Dict[int, Dict[tuple, Fraction]] = {}
    iters: List[NormValue] = []
    passes = 0
    while _rows_norm(h_rows, pw, rw, p) > eps:
        if passes >= _MAX_DIVISION_PASSES:
            if eps.is_zero:
                raise ValueError("eps = 0 requested on a non-exact division instance")
            raise ValueError("division did not contract below eps "
                             f"after {passes} passes")
        # one sweep: reduce by the order-truncation, subtracting the full g
        # so the remaining rows are exactly the next defect
        for k in range(max(h_rows, default=0), s - 1, -1):
            row = h_rows.get(k)
            if not row:
                continue
            q_k = _mul_rest(row, v_row)
            if not q_k:
                continue
            qk_acc = q_rows.setdefault(k - s, {})
            for e, c in q_k.items():
                acc = qk_acc.get(e)
                if acc is None:
                    qk_acc[e] = c
                else:
                    acc = acc + c
                    if acc:
                        qk_acc[e] = acc
                    else:
                        del qk_acc[e]
            for m, g_row in g_rows:
                _sub_into(h_rows.setdefault(k - s + m, {}), _mul_rest(q_k, g_row))
        # rows below the order move to the remainder
        for k in [k for k in h_rows if k < s]:
            row = h_rows.pop(k)
            if not row:
                continue
            r_acc = r_rows.setdefault(k, {})
            for e, c in row.items():
                acc = r_acc.get(e)
                if acc is None:
                    r_acc[e] = c
                else:
                    acc = acc + c
                    if acc:
                        r_acc[e] = acc
                    else:
                        del r_acc[e]
        h_rows = {k: row for k, row in h_rows.items() if row}
        iters.append(_rows_norm(h_rows, pw, rw, p))
        passes += 1

    q = _rows_to_series(q_rows, space, pivot_index)
    r_part = _rows_to_series(r_rows, space, pivot_index)
    residual = nv_max(_rows_norm(h_rows, pw, rw, p), floor)
    return DivisionResult(q, r_part, residual, tuple(iters), contraction)


def _exact_division_by_monic(f: Series, w: Series, pivot: str
                             ) -> Optional[Tuple[Series, Series]]:
    """Exact Euclidean division by a monic polynomial in the pivot, or None
    when the monic certificate does not hold."""
    cert = distinguished_order(w, pivot)
    if cert is None:
        return None
    try:
        div = weierstrass_divide(f, w, cert, NormValue.zero())
    except ValueError:
        return None
    return div.quotient, div.remainder


def weierstrass_prepare(g: Series, cert: DistinguishedCertificate,
                        eps: NormValue) -> PreparationResult:
    """Factor a certified distinguished g as e * w with w monic of the
    certified order and e a certified multiplicative unit.

    w is pivot^s - R from the division of pivot^s by g; the unit is then
    the exact Euclidean quotient of g by the monic w, whose remainder is
    the whole preparation defect: ||R2|| <= (||g||/r^s) * division
    tolerance by the ultrametric norm identity, and the reported residual
    is the exact norm of that remainder (zero exactly when g = e w
    reconstructs, e.g. when g is a polynomial of degree s).
    """
    pivot, s = cert.pivot, cert.order
    space = g.space
    r = space.radius(pivot)
    norm_g = cert.norm_witness
    t_s = Series.monomial(space, tuple(s if v.name == pivot else 0
                                       for v in space.vars))

    if eps.is_zero:
        eps_div = NormValue.zero()
    else:
        eps_div = eps * (r ** s) / norm_g * NormValue.power(-1)
        if not g.tail.is_zero:
            eps_div = nv_max(eps_div, g.tail * (r ** s) / norm_g)

    last_error = "no attempt converged"
    for _ in range(8):
        div = weierstrass_divide(t_s, g, cert, eps_div)
        w = t_s - div.remainder
        exact = _exact_division_by_monic(g.drop_tail(), w, pivot)
        if exact is None:
            last_error = "the monic factor lost its certificate"
        else:
            quotient, remainder = exact
            residual = nv_max(remainder.gauss_norm().value, g.tail)
            ucert = certify_unit(quotient)
            if ucert is None:
                last_error = "the quotient failed the unit shape"
            elif residual <= eps:
                return PreparationResult(quotient, ucert, w, residual)
            else:
                last_error = "residual did not certify below eps"
        if eps_div.is_zero:
            break
        eps_div = eps_div * NormValue.power(-4)
    raise ValueError(f"preparation failed: {last_error}")
