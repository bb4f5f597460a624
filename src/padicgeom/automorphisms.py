"""Weierstrass shears and the scalar-base distinguishing transform.

A shear sends every non-pivot coordinate T_i to T_i + pivot^(d_i) and fixes
the pivot; it is a ring automorphism of the polydisc algebra whenever
r_pivot^(d_i) <= r_i.  Shearing a finite series with exponents d, d^2, ...
turns the weighted norm of a monomial into a single power of the pivot
radius whose exponent is the base-d encoding of the exponent vector; with a
pivot radius s > 1 slightly above 1 this makes the lexicographically
largest norm-maximal monomial dominate, so the sheared series becomes
pivot-distinguished of a predictable order.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .scalars import NormValue, Value, _valuation, nv_max
from .series import Series
from .weierstrass import DistinguishedCertificate, distinguished_order

SCHEDULE_CUTOFF = 16  # try s = p^(1/2^j) for j = 0 .. cutoff


class Shear(Value):
    """T_i -> T_i +/- pivot^(exponents[i]) for non-pivot vars; pivot fixed."""

    pivot: str
    exponents: dict[str, int]
    inverse: bool

    def __init__(self, pivot: str, exponents: dict[str, int], inverse: bool = False):
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "inverse", inverse)

    def inverted(self) -> "Shear":
        return Shear(self.pivot, self.exponents, not self.inverse)


def apply_shear(f: Series, shear: Shear) -> Series:
    """Apply the shear as an exact substitution on f's own space.

    Checks the radius condition r_pivot^d <= r_i, which makes the
    substitution an automorphism of the polydisc.
    """
    space = f.space
    rp = space.radius(shear.pivot)
    assignment = {}
    sign = -1 if shear.inverse else 1
    for v in space.vars:
        if v.name == shear.pivot:
            assignment[v.name] = Series.variable(space, v.name)
            continue
        d = shear.exponents.get(v.name)
        if d is None:
            raise ValueError(f"shear has no exponent for {v.name}")
        if rp ** d > v.radius:
            raise ValueError(f"radius condition fails: r_pivot^{d} > r_{v.name}")
        img = Series.variable(space, v.name) + Series.monomial(
            space, tuple(d if u.name == shear.pivot else 0 for u in space.vars),
            sign)
        assignment[v.name] = img
    return f.substitute(assignment)


class DistinguishResult(Value):
    """Outcome of the distinguishing transform for a list of series.

    One shear works for the whole list; ``rho`` is the graded polyradius
    (powers of the chosen s) on which every sheared series certifies
    distinguished, and ``orders`` are the base-d encodings of each series'
    lex-greatest norm-maximal exponent vector.
    """

    shear: Shear
    base: int                  # the digit bound d
    s: NormValue               # pivot radius, > 1
    rho: tuple[NormValue, ...]
    orders: tuple[int, ...]
    certs: tuple[DistinguishedCertificate, ...]
    transformed: tuple[Series, ...]

    def __init__(self, shear: Shear, base: int, s: NormValue,
                 rho: tuple[NormValue, ...], orders: tuple[int, ...],
                 certs: tuple[DistinguishedCertificate, ...],
                 transformed: tuple[Series, ...]):
        object.__setattr__(self, "shear", shear)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "certs", certs)
        object.__setattr__(self, "transformed", transformed)


def _lex_key(expo: tuple[int, ...], nonpivot_idx: Sequence[int], pivot_idx: int):
    return tuple(expo[j] for j in nonpivot_idx) + (expo[pivot_idx],)


def _encode(expo: tuple[int, ...], nonpivot_idx: Sequence[int], pivot_idx: int,
            d: int) -> int:
    m = len(nonpivot_idx)
    total = expo[pivot_idx]
    for pos, j in enumerate(nonpivot_idx):
        total += expo[j] * d ** (m - pos)
    return total


def make_distinguished(fs: Sequence[Series], pivot: str) -> DistinguishResult:
    """One shear that makes every series in fs pivot-distinguished.

    Inputs are nonzero series with rational coefficients over a common
    space.  The digit bound d is one more than the largest exponent digit
    over the union of supports; non-pivot variables get shear exponents
    d^m, ..., d in order.  The pivot radius s descends through p^(1/2^j)
    until the distinguished-order detector confirms the predicted order for
    every series on the graded polyradius.

    When the input radii are all > 1, s is also forced small enough that
    the graded polyradius fits inside them (so tail bounds stay valid);
    otherwise the inputs must be exact and are re-based onto the graded
    polydisc, on which a polynomial converges regardless.
    """
    if not fs:
        raise ValueError("need at least one series")
    space = fs[0].space
    for f in fs:
        if f.space != space:
            raise ValueError("all series must share one space")
        if not f.nums:
            raise ValueError("cannot distinguish the zero series")
    p = space.prime
    pivot_idx = space.index(pivot)
    nonpivot_idx = [j for j in range(len(space.vars)) if j != pivot_idx]
    one = NormValue.one()
    inside = all(r > one for r in space.radii)
    if not inside:
        for f in fs:
            if not f.tail.is_zero:
                raise ValueError("inexact series need radii > 1 to re-base")

    max_digit = 0
    for f in fs:
        for expo in f.nums:
            max_digit = max(max_digit, max(expo))
    d = 1 + max_digit

    exponents = {}
    m = len(nonpivot_idx)
    for pos, j in enumerate(nonpivot_idx):
        exponents[space.vars[j].name] = d ** (m - pos)
    shear = Shear(pivot, exponents)

    # lex-greatest norm-maximal index of each series (coefficient norms;
    # the numerators share one denominator, so their valuations rank them)
    mus: list[tuple[int, ...]] = [
        max(f.nums, key=lambda e: (-_valuation(f.nums[e], 1, p),
                                   _lex_key(e, nonpivot_idx, pivot_idx)))
        for f in fs]
    expected = [_encode(mu, nonpivot_idx, pivot_idx, d) for mu in mus]

    for j in range(SCHEDULE_CUTOFF + 1):
        s_exp = Fraction(1, 2 ** j)
        s = NormValue.power(s_exp)
        rho = []
        for i, v in enumerate(space.vars):
            e = 1 if i == pivot_idx else exponents[v.name]
            rho.append(NormValue.power(s_exp * e))
        if inside and any(q > r for q, r in zip(rho, space.radii)):
            continue
        target = space.with_radii(rho)
        certs = []
        transformed = []
        ok = True
        for f, want in zip(fs, expected):
            fr = Series._raw(target, f.den, f.nums, f.tail if inside else NormValue.zero())
            sf = apply_shear(fr, shear)
            cert = distinguished_order(sf, pivot)
            if cert is None or cert.order != want:
                ok = False
                break
            certs.append(cert)
            transformed.append(sf)
        if ok:
            return DistinguishResult(shear, d, s, tuple(rho), tuple(expected),
                                     tuple(certs), tuple(transformed))
    raise ValueError("no admissible pivot radius in the schedule "
                     "(pathological tails or radii)")


def carrier_decompose(f: Series, eps: NormValue,
                      forced: tuple[int, ...] | None = None
                      ) -> tuple[set[tuple[int, ...]], dict[tuple[int, ...], Series]]:
    """Write f = sum over J of f_nu (T^nu + phi_nu) with small companions.

    J keeps the exponent vectors whose terms cannot be folded under the
    Gauss-norm-maximal carrier within eps; everything else is divided by the
    carrier coefficient and attached to its phi.  No monomial of any phi
    lies in J, each ||phi_nu|| < eps, and a forced exponent vector is kept
    in J when supplied.
    """
    if eps.is_zero:
        raise ValueError("eps must be positive")
    if not f.tail.is_zero:
        raise ValueError("decomposition needs an exact series")
    if not f.nums:
        if forced is not None:
            raise ValueError("cannot force an index into the decomposition "
                             "of the zero series")
        return set(), {}
    p = f.space.prime
    # |c_nu| r^nu up to the common factor |1/den|, which ranks alike
    weight = {expo: NormValue.of_ratio(c, 1, p) * f.space.monomial_weight(expo)
              for expo, c in f.nums.items()}
    top = nv_max(*weight.values())
    carrier = max(e for e, w in weight.items() if w == top)
    members: set[tuple[int, ...]] = {carrier}
    if forced is not None:
        forced = tuple(forced)
        if len(forced) != len(f.space.vars) or any(e < 0 for e in forced):
            raise ValueError("forced exponent vector does not fit the space")
        members.add(forced)
    # phi_carrier = sum c/fc T^expo: the numerators over fc (den cancels)
    fc = f.nums[carrier]
    sign = 1 if fc > 0 else -1
    phi_nums: dict[tuple[int, ...], int] = {}
    for expo, c in f.nums.items():
        if expo in members:
            continue
        # ||(c/fc) T^expo|| = |c/fc| r^expo
        folded = NormValue.of_ratio(c, fc, p) * f.space.monomial_weight(expo)
        if folded < eps:
            phi_nums[expo] = sign * c
        else:
            members.add(expo)
    phis = {nu: Series.zero(f.space) for nu in members}
    phis[carrier] = Series._reduced(f.space, (abs(fc), phi_nums), NormValue.zero())
    return members, phis


def decomposition_identity_holds(f: Series, members, phis) -> bool:
    """Check f = sum f_nu (T^nu + phi_nu) exactly (stored parts)."""
    total = Series.zero(f.space)
    for nu in members:
        term = Series.monomial(f.space, tuple(nu)) + phis[tuple(nu)]
        total = total + term.scale(f.nums.get(tuple(nu), 0))
    # both sides times the common denominator
    return total == f.drop_tail().scale(f.den)
