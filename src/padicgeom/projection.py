"""One-variable existential decisions over the closed unit disc.

The pipeline: a conjunction of norm atoms over a polydisc with radii > 1 is
sheared and Weierstrass-prepared so every atom compares scaled monic
polynomials in the pivot variable (the unit factors contribute constant
scales because their seminorm is constant on the polydisc).  For split
polynomials (all roots rational) the existential question "is there a point
of the closed unit disc satisfying every atom" is decided exactly: the
value of |P| at any disc-tree point is a piecewise monomial function of the
distance to the nearest root, so atom truth is constant on the cells cut
out by the root-distance grid and the per-atom crossing radii, and scanning
one sample per cell (rigid points at radius zero, monomial points
elsewhere) is a complete decision procedure over the Berkovich disc.

Ultrametric lemniscates {|P| <= c} are finite unions of discs centered at
roots; they are computed exactly as the per-root sublevel radii of the
increasing piecewise-monomial functions N_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .scalars import NormValue, nv_max
from .series import (MonomialPoint, Point, RigidPoint, Series, Space, VarSpec,
                     compare_le, compare_lt, ints_of)
from .formulas import Atom, LE, LT
from .weierstrass import weierstrass_prepare
from .automorphisms import DistinguishResult, Shear, make_distinguished


# -- split polynomials ---------------------------------------------------------


@dataclass(frozen=True)
class SplitPoly:
    """lead * prod (T - root)^mult with rational roots."""

    lead: Fraction
    roots: Tuple[Tuple[Fraction, int], ...]

    def __post_init__(self):
        if self.lead == 0:
            raise ValueError("a split polynomial has a nonzero leading coefficient")

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.roots)

    def value_at_rigid(self, t: Fraction, p: int) -> NormValue:
        out = NormValue.of_scalar(self.lead, p)
        for a, m in self.roots:
            out = out * (NormValue.of_scalar(t - a, p) ** m)
        return out

    def value_at_disc(self, center: Fraction, rho: NormValue, p: int) -> NormValue:
        """Seminorm at the monomial point with the given center and radius."""
        out = NormValue.of_scalar(self.lead, p)
        for a, m in self.roots:
            out = out * (nv_max(rho, NormValue.of_scalar(center - a, p)) ** m)
        return out


def split_series(f: Series) -> Optional[SplitPoly]:
    """Factor a one-variable polynomial into rational linear factors.

    Returns None iff f is zero, has a tail, or does not split over Q.  The
    root search is complete: every rational root of the squarefree part is
    found q-adically (roots mod a small prime q, Newton-Hensel lifted and
    read back by rational reconstruction), then checked exactly.
    """
    if len(f.space.vars) != 1:
        raise ValueError("split_series expects a one-variable series")
    if not f.tail.is_zero or not f.coeffs:
        return None
    den, terms = ints_of(f.coeffs)
    poly = [0] * (max(e for e, in terms) + 1)
    for (e,), c in terms.items():
        poly[e] = c
    lead = Fraction(poly[-1], den)
    zeros = next(k for k, c in enumerate(poly) if c)
    poly = poly[zeros:]
    mults = {Fraction(0): zeros} if zeros else {}
    for a, b in _rational_root_candidates(poly):
        m = 0
        while len(poly) > 1:
            quotient = _divide_linear(poly, a, b)
            if quotient is None:
                break
            poly = quotient
            m += 1
        if m:
            mults[Fraction(a, b)] = m
    if len(poly) > 1:
        return None
    return SplitPoly(lead, tuple(sorted(mults.items())))


# Integer polynomials below are coefficient lists, constant term first, with
# a nonzero last entry.


def _divide_linear(poly: List[int], a: int, b: int) -> Optional[List[int]]:
    """poly / (b T - a) for b > 0, or None when b T - a does not divide
    poly over Q (by Gauss's lemma the quotient is then integral)."""
    out = [0] * (len(poly) - 1)
    acc = 0
    for k in range(len(poly) - 1, 0, -1):
        q, r = divmod(poly[k] + a * acc, b)
        if r:
            return None
        out[k - 1] = acc = q
    return out if poly[0] + a * acc == 0 else None


def _primitive(poly: List[int]) -> List[int]:
    g = gcd(*poly)
    if poly[-1] < 0:
        g = -g
    return [c // g for c in poly]


def _pseudo_divmod(a: List[int], b: List[int]) -> Tuple[List[int], List[int]]:
    """(q, r) with lead(b)^k a = q b + r and deg r < deg b (pseudo-division
    over the integers); r has no trailing zeros."""
    q, r, lb = [0] * max(len(a) - len(b) + 1, 0), a[:], b[-1]
    while len(r) >= len(b):
        c, shift = r[-1], len(r) - len(b)
        q = [x * lb for x in q]
        q[shift] += c
        r = [x * lb for x in r]
        for i, x in enumerate(b):
            r[i + shift] -= c * x
        while r and not r[-1]:
            r.pop()
    return q, r


def _squarefree_part(poly: List[int]) -> List[int]:
    """The primitive squarefree part poly / gcd(poly, poly')."""
    g, b = poly, [k * c for k, c in enumerate(poly)][1:]
    while b:
        b = _primitive(b)
        g, b = b, _pseudo_divmod(g, b)[1]
    return _primitive(_pseudo_divmod(poly, g)[0])


def _small_primes():
    n = 2
    while True:
        if all(n % d for d in range(2, int(n ** 0.5) + 1)):
            yield n
        n += 1


def _eval_mod(poly: List[int], t: int, m: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * t + c) % m
    return acc


def _rational_root_candidates(poly: List[int]) -> List[Tuple[int, int]]:
    """(a, b) with b > 0 and gcd(a, b) = 1, including every rational root
    a / b of poly (a nonzero constant term; candidates need not be roots).

    With Q the squarefree part and q the first prime not dividing lead(Q)
    at which every root of Q mod q is simple, each rational root of Q is
    the unique q-adic lift of a root mod q.  Lifting until
    q^k > 2 (|lead| + max |c_i|) bounds lead * root (an integer, by the
    Cauchy bound) so its symmetric residue is exact.
    """
    sq = _squarefree_part(poly)
    if len(sq) == 1:
        return []
    lead = sq[-1]
    deriv = [k * c for k, c in enumerate(sq)][1:]
    for q in _small_primes():
        if lead % q == 0:
            continue
        roots = [t for t in range(q) if _eval_mod(sq, t, q) == 0]
        if all(_eval_mod(deriv, t, q) for t in roots):
            break
    bound = 2 * (abs(lead) + max(abs(c) for c in sq))
    out = []
    for r in roots:
        m = q
        while m <= bound:
            m *= m
            r = (r - _eval_mod(sq, r, m) * pow(_eval_mod(deriv, r, m), -1, m)) % m
        s = lead * r % m
        if 2 * s > m:
            s -= m
        root = Fraction(s, lead)
        out.append((root.numerator, root.denominator))
    return out


# -- disc regions ----------------------------------------------------------------


@dataclass(frozen=True)
class Disc:
    """A subdisc of the unit disc: {|t - center| <= radius} or < for open."""

    center: Fraction
    radius: NormValue
    closed: bool = True

    def contains_rigid(self, t: Fraction, p: int) -> bool:
        d = NormValue.of_scalar(t - self.center, p)
        return d <= self.radius if self.closed else d < self.radius

    def contains_disc(self, center: Fraction, rho: NormValue, p: int) -> bool:
        d = nv_max(rho, NormValue.of_scalar(center - self.center, p))
        return d <= self.radius if self.closed else d < self.radius


@dataclass(frozen=True)
class SwissPiece:
    """A disc minus finitely many subdiscs."""

    outer: Disc
    holes: Tuple[Disc, ...] = ()

    def contains_rigid(self, t: Fraction, p: int) -> bool:
        if not self.outer.contains_rigid(t, p):
            return False
        return not any(h.contains_rigid(t, p) for h in self.holes)

    def contains_disc(self, center: Fraction, rho: NormValue, p: int) -> bool:
        if not self.outer.contains_disc(center, rho, p):
            return False
        # a disc avoids a hole iff it is not contained in it and does not
        # contain it ... for cell sampling it suffices that the sample disc
        # is disjoint from or not inside each hole; disc-vs-disc in an
        # ultrametric field: either nested or disjoint.
        for h in self.holes:
            if h.contains_disc(center, rho, p):
                return False
        return True


DiscRegion = Tuple[SwissPiece, ...]


def region_contains(region: DiscRegion, point: Point) -> bool:
    p = point.space.prime
    if isinstance(point, RigidPoint):
        (t,) = point.coords
        return any(piece.contains_rigid(t, p) for piece in region)
    (c,) = point.center
    (rho,) = point.rho
    return any(piece.contains_disc(c, rho, p) for piece in region)


# -- lemniscates -------------------------------------------------------------------


def _distance_profile(poly: SplitPoly, center: Fraction, p: int
                      ) -> List[Tuple[NormValue, int]]:
    """Multiset of (distance from center, multiplicity) over the roots."""
    return sorted(((NormValue.of_scalar(center - a, p), m)
                   for a, m in poly.roots), key=lambda t: t[0])


def _sublevel_radius(poly: SplitPoly, center: Fraction, cmp: str, c: NormValue,
                     p: int) -> Optional[Tuple[NormValue, bool]]:
    """Largest rho in [0, 1] with N(rho) cmp c, N(rho) = |P| on the sphere
    of radius rho around the center.  Returns (radius, closed) or None."""
    profile = _distance_profile(poly, center, p)
    lead = NormValue.of_scalar(poly.lead, p)

    def value(rho: NormValue) -> NormValue:
        out = lead
        for d, m in profile:
            out = out * (nv_max(rho, d) ** m)
        return out

    one = NormValue.one()
    breaks = sorted({d for d, _ in profile if not d.is_zero and d < one})
    tops = breaks + [one]
    # scan segments (lo, hi] from the top down
    for idx in range(len(tops) - 1, -1, -1):
        hi = tops[idx]
        lo = tops[idx - 1] if idx > 0 else NormValue.zero()
        v_hi = value(hi)
        ok_hi = v_hi <= c if cmp == LE else v_hi < c
        if ok_hi:
            return hi, True
        M = sum(m for d, m in profile if d <= lo)
        if M == 0:
            continue
        K = value(hi) / (hi ** M)
        if c.is_zero:
            continue
        sol = (c / K) ** Fraction(1, M)
        if sol > lo and sol <= hi:
            if cmp == LE:
                return sol, True
            return sol, False  # strict: the sup radius is not attained
        # otherwise the crossing happens below this segment
    # bottom: the center itself
    v0 = value(NormValue.zero())
    ok0 = v0 <= c if cmp == LE else v0 < c
    if ok0:
        return NormValue.zero(), True
    return None


def lemniscate_region(poly: SplitPoly, cmp: str, c: NormValue, p: int
                      ) -> DiscRegion:
    """{t in B : |P(t)| cmp c} as a union of discs centered at the roots.

    For every point the product formula |P(t)| = N_i(|t - a_i|) holds with
    a_i the nearest root, and N_i is increasing, so the sublevel set is the
    union over roots of the per-root solved discs.  c = 0 with <= yields
    the root set as radius-zero discs.
    """
    if cmp not in (LE, LT):
        raise ValueError(f"bad comparison {cmp!r}")
    pieces = []
    one = NormValue.one()
    inside = [a for a, _ in poly.roots if NormValue.of_scalar(a, p) <= one]
    for a in inside:
        solved = _sublevel_radius(poly, a, cmp, c, p)
        if solved is None:
            continue
        radius, closed = solved
        if radius.is_zero and not closed:
            continue
        pieces.append(SwissPiece(Disc(a, radius, closed)))
    if not inside:
        # no root in the unit disc: |P| is constant on B
        v = poly.value_at_disc(Fraction(0), one, p)
        ok = v <= c if cmp == LE else v < c
        if ok:
            pieces.append(SwissPiece(Disc(Fraction(0), one, True)))
    return tuple(pieces)


# -- prepared atoms and the existential decision -------------------------------------


@dataclass(frozen=True)
class PreparedAtom:
    """scale_left * |left(x)| op scale_right * |right(x)| with both sides
    polynomial in the pivot variable."""

    scale_left: NormValue
    left: Series
    op: str
    scale_right: NormValue
    right: Series


@dataclass(frozen=True)
class QEPreparation:
    shear: Shear
    rho: Tuple[NormValue, ...]
    space: Space
    atoms: Tuple[PreparedAtom, ...]
    distinguish: DistinguishResult


def qe_prepare(conjunct: Sequence[Atom], pivot: str) -> QEPreparation:
    """Rewrite a conjunction of atoms with constant scales and monic
    polynomial parts in the pivot, pointwise equivalent on the closed unit
    polydisc (through the shear, which restricts to an automorphism of it).

    Requires every atom series nonzero with radii > 1 (overconvergence) and
    raises when a preparation does not certify residual zero.
    """
    if not conjunct:
        raise ValueError("empty conjunct")
    space = conjunct[0].space
    one = NormValue.one()
    for r in space.radii:
        if not r > one:
            raise ValueError("quantifier elimination needs radii > 1")
    sides: List[Series] = []
    for atom in conjunct:
        if atom.space != space:
            raise ValueError("atoms live on different spaces")
        for side in (atom.f, atom.g):
            if not side.coeffs:
                raise ValueError("atom series must be nonzero")
            sides.append(side)
    dist = make_distinguished(sides, pivot)
    prepared_sides = []
    for sheared, cert in zip(dist.transformed, dist.certs):
        eps = cert.norm_witness * NormValue.power(-30)
        prep = weierstrass_prepare(sheared, cert, eps)
        if not prep.residual.is_zero:
            raise ValueError("preparation did not certify exactness "
                             "for an atom series")
        prepared_sides.append(prep)
    atoms_out = []
    for j, atom in enumerate(conjunct):
        pf = prepared_sides[2 * j]
        pg = prepared_sides[2 * j + 1]
        atoms_out.append(PreparedAtom(
            atom.alpha * pf.unit_cert.norm(), pf.monic, atom.op,
            atom.beta * pg.unit_cert.norm(), pg.monic))
    target = dist.transformed[0].space if dist.transformed else space
    return QEPreparation(dist.shear, dist.rho, target, tuple(atoms_out), dist)


@dataclass(frozen=True)
class SplitAtom:
    """A prepared atom with both polynomial sides split (None = the zero
    polynomial)."""

    scale_left: NormValue
    left: Optional[SplitPoly]
    op: str
    scale_right: NormValue
    right: Optional[SplitPoly]

    def holds_at_rigid(self, t: Fraction, p: int) -> bool:
        lv = (self.left.value_at_rigid(t, p) if self.left else NormValue.zero())
        rv = (self.right.value_at_rigid(t, p) if self.right else NormValue.zero())
        lv, rv = lv * self.scale_left, rv * self.scale_right
        return lv <= rv if self.op == LE else lv < rv

    def holds_at_disc(self, center: Fraction, rho: NormValue, p: int) -> bool:
        lv = (self.left.value_at_disc(center, rho, p) if self.left
              else NormValue.zero())
        rv = (self.right.value_at_disc(center, rho, p) if self.right
              else NormValue.zero())
        lv, rv = lv * self.scale_left, rv * self.scale_right
        return lv <= rv if self.op == LE else lv < rv


@dataclass(frozen=True)
class Decision:
    status: str  # "SAT" | "UNSAT"
    witness: Optional[Point] = None


def _atom_crossing_radii(atom: SplitAtom, center: Fraction, p: int
                         ) -> List[NormValue]:
    """Radii where the two scaled side values can change order at the
    monomial points over this center."""
    sides = []
    for poly, scale in ((atom.left, atom.scale_left),
                        (atom.right, atom.scale_right)):
        if poly is None or scale.is_zero:
            sides.append(None)
        else:
            sides.append((_distance_profile(poly, center, p),
                          NormValue.of_scalar(poly.lead, p) * scale))
    if sides[0] is None or sides[1] is None:
        return []
    one = NormValue.one()
    breaks = sorted({d for prof, _ in sides for d, _ in prof
                     if not d.is_zero and d < one})
    tops = breaks + [one]
    out = []

    def seg_data(side, lo, hi):
        prof, lead = side
        M = sum(m for d, m in prof if d <= lo)
        val_hi = lead
        for d, m in prof:
            val_hi = val_hi * (nv_max(hi, d) ** m)
        K = val_hi / (hi ** M)
        return M, K

    for idx in range(len(tops)):
        hi = tops[idx]
        lo = tops[idx - 1] if idx > 0 else NormValue.zero()
        m1, k1 = seg_data(sides[0], lo, hi)
        m2, k2 = seg_data(sides[1], lo, hi)
        if m1 == m2:
            continue
        # k1 rho^m1 = k2 rho^m2  =>  rho = (k2/k1)^(1/(m1-m2))
        sol = (k2 / k1) ** Fraction(1, m1 - m2)
        if sol > lo and sol <= hi:
            out.append(sol)
    return out


def decide_exists(atoms: Sequence[SplitAtom], prime: int,
                  extra: Optional[DiscRegion] = None) -> Decision:
    """Exact SAT/UNSAT for "some point of the closed unit disc satisfies
    every atom (and lies in the extra region)".

    Complete over the Berkovich disc: every point shares its root-distance
    vector with a monomial point centered at the nearest grid center, and
    atom truth over a fixed center is piecewise constant in the radius with
    discontinuities only at root distances and crossing radii, all of which
    (plus geometric midpoints) are scanned.  A SAT answer always carries a
    verified witness, rigid whenever a sampled rigid refinement of the cell
    checks out.
    """
    p = prime
    one = NormValue.one()
    centers: Set[Fraction] = {Fraction(0)}
    for atom in atoms:
        for poly in (atom.left, atom.right):
            if poly:
                centers.update(a for a, _ in poly.roots)
    if extra:
        for piece in extra:
            centers.add(piece.outer.center)
            centers.update(h.center for h in piece.holes)
    all_centers = sorted(centers)
    unit_centers = [a for a in all_centers if NormValue.of_scalar(a, p) <= one]

    space = Space(p, (VarSpec("t", one),))

    def passes(point: Point) -> bool:
        if extra is not None and not region_contains(extra, point):
            return False
        if isinstance(point, RigidPoint):
            (t,) = point.coords
            return all(a.holds_at_rigid(t, p) for a in atoms)
        return all(a.holds_at_disc(point.center[0], point.rho[0], p)
                   for a in atoms)

    def rigid_refinement(center: Fraction, rho: NormValue) -> Optional[RigidPoint]:
        if rho.exp is None or rho.exp.denominator != 1:
            return None
        offset = Fraction(p) ** int(-rho.exp)
        for u in range(1, min(p, 6)):
            t = center + u * offset
            if NormValue.of_scalar(t, p) > one:
                continue
            cand = RigidPoint(space, (t,))
            if passes(cand):
                return cand
        return None

    for center in unit_centers:
        radii: Set[NormValue] = {NormValue.zero(), one}
        for other in all_centers:
            if other != center:
                d = NormValue.of_scalar(center - other, p)
                if d <= one:
                    radii.add(d)
        for atom in atoms:
            for sol in _atom_crossing_radii(atom, center, p):
                if sol <= one:
                    radii.add(sol)
        if extra:
            for piece in extra:
                for disc in (piece.outer,) + piece.holes:
                    if disc.radius <= one and not disc.radius.is_zero:
                        radii.add(disc.radius)
        ordered = sorted(radii)
        # geometric midpoints of consecutive grid radii sample the open cells
        samples: List[NormValue] = list(ordered)
        for lo, hi in zip(ordered, ordered[1:]):
            if lo.is_zero:
                samples.append(hi * NormValue.power(-1))
            else:
                samples.append(NormValue.power((lo.exp + hi.exp) / 2))
        for rho in sorted(set(samples)):
            if rho.is_zero:
                cand: Point = RigidPoint(space, (center,))
            else:
                cand = MonomialPoint(space, (center,), (rho,))
            if passes(cand):
                if isinstance(cand, RigidPoint):
                    return Decision("SAT", cand)
                rigid = rigid_refinement(center, rho)
                return Decision("SAT", rigid if rigid is not None else cand)
    return Decision("UNSAT")


# -- pointwise projection ----------------------------------------------------------


def _specialize_1var(side: Series, x: RigidPoint, pivot: str,
                     target: Space) -> Series:
    assignment: Dict[str, Series] = {}
    for v in side.space.vars:
        if v.name == pivot:
            assignment[v.name] = Series.variable(target, pivot)
        else:
            assignment[v.name] = Series.constant(target, x.coord(v.name))
    return side.substitute(assignment)


def project_decision(conjunct: Sequence[Atom], x: RigidPoint, pivot: str,
                     hints: Sequence[Fraction] = ()
                     ) -> Tuple[str, Optional[Point]]:
    """Decide whether the fiber of the conjunct over the base point x meets
    the closed unit disc: ('SAT', witness) / ('UNSAT', None) /
    ('UNKNOWN', None).

    Atoms specialize at x to one-variable polynomials; when every side
    splits over Q the decision is exact, otherwise a sampling fallback
    (0, +-p^-k and the ``hints``) can still certify SAT, and UNKNOWN is
    returned when it fails.  A witness is a point of the pivot's unit disc,
    the one-variable space named after the pivot.
    """
    p = x.space.prime
    target = Space(p, (VarSpec(pivot, NormValue.one()),))
    split_atoms: List[SplitAtom] = []
    specialized: List[Tuple[NormValue, Series, str, NormValue, Series]] = []
    all_split = True
    for atom in conjunct:
        f1 = _specialize_1var(atom.f, x, pivot, target)
        g1 = _specialize_1var(atom.g, x, pivot, target)
        specialized.append((atom.alpha, f1, atom.op, atom.beta, g1))
        sides = []
        for s in (f1, g1):
            if s.is_zero:
                sides.append(None)
            else:
                sp = split_series(s)
                if sp is None:
                    all_split = False
                sides.append(sp)
        if all_split:
            split_atoms.append(SplitAtom(atom.alpha, sides[0], atom.op,
                                         atom.beta, sides[1]))
    if all_split:
        decision = decide_exists(split_atoms, p)
        # the witness moves from decide_exists's own space to the target
        w = decision.witness
        if isinstance(w, RigidPoint):
            w = RigidPoint(target, w.coords)
        elif w is not None:
            w = MonomialPoint(target, w.center, w.rho)
        return decision.status, w
    # sampling fallback: a verified witness proves SAT; nothing proves UNSAT
    candidates: List[Fraction] = [Fraction(0)]
    candidates.extend(hints)
    for k in range(0, 6):
        candidates.append(Fraction(1, p ** k))
        candidates.append(Fraction(-1, p ** k))
    for t in candidates:
        if NormValue.of_scalar(t, p) > NormValue.one():
            continue
        pt = RigidPoint(target, (t,))
        ok = True
        for alpha, f1, op, beta, g1 in specialized:
            lv = f1.eval_seminorm(pt).scaled(alpha)
            rv = g1.eval_seminorm(pt).scaled(beta)
            res = compare_le(lv, rv) if op == LE else compare_lt(lv, rv)
            if res is not True:
                ok = False
                break
        if ok:
            return "SAT", pt
    return "UNKNOWN", None


def project_pointwise(conjunct: Sequence[Atom], x: RigidPoint, pivot: str,
                      hints: Sequence[Fraction] = ()) -> Optional[bool]:
    """Three-valued membership of x in the projection along the pivot."""
    status, _ = project_decision(conjunct, x, pivot, hints)
    if status == "SAT":
        return True
    if status == "UNSAT":
        return False
    return None
