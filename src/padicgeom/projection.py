"""One-variable existential decisions over the declared closed disc.

``qe_prepare`` shears a conjunction of norm atoms over a polydisc with
radii > 1 and Weierstrass-prepares every side: the ``Atom``s it returns
compare monic polynomials in the pivot variable, scaled by the constant
seminorms of the unit factors.  The decision does not use it:
``project_decision`` specializes every atom at a rigid base point, splits
the one-variable sides over Q (``split_series``) and hands the split
formula to ``decide_exists``.  For split polynomials (all roots rational)
the existential question "is there a point of the closed disc |t| <= r
satisfying the formula", r the radius the space declares for its variable,
is decided exactly.  A point of the Berkovich disc is a pair (center, rho)
with rho >= 0: rho = 0 is the rigid point t = center, rho > 0 the monomial
point.  The value of |P| there is a piecewise monomial function of rho
over a fixed center, so atom truth is constant on the cells cut out by the
root-distance grid and the per-atom crossing radii.  On the common
refinement of every atom's cells (the sign-invariant cells of a
one-variable cylindrical decomposition) any Boolean combination of the
atoms is constant too, so scanning one sample per cell decides a whole
formula, with no disjunctive normal form, and is a complete decision
procedure over the Berkovich disc.  The split pass and the scan both walk
the formula with ``formulas.truth``.

Every value of a split polynomial is lead * prod max(rho, d)^m over the root
distances d from the center (``_norm_product``).  The helpers that order
these values work on scaled exponents: a norm p^e is the int D e over a
denominator D that each caller picks so that every value it forms is an
int, and the zero norm is one sentinel below every int.  A product of norms
is then a sum, a power a multiple, and the order that of ints; a root
distance is read off integer cross-products with one valuation, and no
``Fraction`` exponent and no ``NormValue`` is built on the way.
``SplitPoly.value_at`` and ``SplitAtom.holds`` are the reference evaluation
at one point: they value the lead and every distance again on each call and
convert their answer at the end.  The scan takes one D per call and values
each root's distance once per center, in one table that the grid, the
crossing radii and every sample read; only its witness radius becomes a
``NormValue``.

Ultrametric lemniscates {|P| <= c} are finite unions of discs centered at
roots; each disc's radius is where the increasing piecewise-monomial
function N_i of its root meets the level c, solved by the scan's own
crossing rule (``_crossing_radii``) against the constant side c.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import gcd, isqrt, lcm

from .scalars import NormValue, Value, _valuation
from .series import MonomialPoint, Point, RigidPoint, Series, Space, VarSpec
from .formulas import (And, Atom, Formula, LE, LT, Not, Or, compare,
                       eval_formula, formula_atoms, map_atoms, nnf, truth)
from .weierstrass import weierstrass_prepare
from .automorphisms import make_distinguished


# -- split polynomials ---------------------------------------------------------


class SplitPoly(Value):
    """lead * prod (T - root)^mult with rational roots."""

    lead: Fraction
    roots: tuple[tuple[Fraction, int], ...]

    def __init__(self, lead: Fraction, roots: tuple[tuple[Fraction, int], ...]):
        if lead == 0:
            raise ValueError("a split polynomial has a nonzero leading coefficient")
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "roots", roots)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.roots)

    def value_at(self, center: Fraction, rho: NormValue, p: int) -> NormValue:
        """|P| at the disc-tree point (center, rho): |P(center)| at rho = 0,
        the seminorm of the monomial point otherwise."""
        D = _denominator(rho)
        return _norm(_norm_product(*_side(_ONE, self, center, p, D), _scaled(rho, D)), D)


def split_series(f: Series) -> SplitPoly | None:
    """Factor a one-variable polynomial into rational linear factors.

    Returns None iff f is zero, has a tail, or does not split over Q.  The
    root search is complete: every rational root of the squarefree part is
    found q-adically (roots mod a small prime q, Newton-Hensel lifted and
    read back by rational reconstruction), then checked exactly.
    """
    if len(f.space.vars) != 1:
        raise ValueError("split_series expects a one-variable series")
    if not f.tail.is_zero or not f.nums:
        return None
    poly = [0] * (max(e for e, in f.nums) + 1)
    for (e,), c in f.nums.items():
        poly[e] = c
    lead = Fraction(poly[-1], f.den)
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


def _divide_linear(poly: list[int], a: int, b: int) -> list[int] | None:
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


def _primitive(poly: list[int]) -> list[int]:
    g = gcd(*poly)
    if poly[-1] < 0:
        g = -g
    return [c // g for c in poly]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
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


def _squarefree_part(poly: list[int]) -> list[int]:
    """The primitive squarefree part poly / gcd(poly, poly')."""
    g, b = poly, [k * c for k, c in enumerate(poly)][1:]
    while b:
        b = _primitive(b)
        g, b = b, _pseudo_divmod(g, b)[1]
    return _primitive(_pseudo_divmod(poly, g)[0])


def _small_primes():
    n = 2
    while True:
        if all(n % d for d in range(2, isqrt(n) + 1)):
            yield n
        n += 1


def _eval_mod(poly: list[int], t: int, m: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * t + c) % m
    return acc


def _rational_root_candidates(poly: list[int]) -> list[tuple[int, int]]:
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


class Disc(Value):
    """The disc {|t - center| <= radius}, or < when open."""

    center: Fraction
    radius: NormValue
    closed: bool

    def __init__(self, center: Fraction, radius: NormValue, closed: bool = True):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "closed", closed)

    def contains(self, center: Fraction, rho: NormValue, p: int) -> bool:
        """Whether the disc-tree point (center, rho) lies in the disc."""
        d = NormValue.of_scalar(center - self.center, p)
        d = rho if d < rho else d
        return compare(d, LE if self.closed else LT, self.radius)


DiscRegion = tuple[Disc, ...]


def _center_rho(point: Point) -> tuple[Fraction, NormValue]:
    """A point of a one-variable space as (center, rho), rigid at rho = 0."""
    if isinstance(point, RigidPoint):
        return point.coords[0], NormValue.zero()
    return point.center[0], point.rho[0]


def region_contains(region: DiscRegion, point: Point) -> bool:
    center, rho = _center_rho(point)
    p = point.space.prime
    return any(disc.contains(center, rho, p) for disc in region)


# -- piecewise-monomial radius functions ---------------------------------------------
#
# Over a fixed center, N(rho) = lead * prod max(rho, d)^m over the root
# distances d (with multiplicities m) is |P| at (center, rho).  On each
# segment (lo, hi] between consecutive distances it is a monomial K rho^M,
# with M the multiplicity of the roots within lo of the center.
#
# The helpers below read scaled exponents (``Exp``): the norm p^e is the int
# D e, over a denominator D > 0 that the caller picks so that every value it
# forms is an int, and the zero norm is NULL, below every int.  NULL is a
# float, and an int above 2^1024 (D reaches that from degree 710 on) cannot
# be converted to one, so NULL only takes part in comparisons: a helper
# that would add or scale a zero norm returns NULL instead.  Each caller
# converts at its own boundary: ``_scaled`` on the way in, ``_norm`` on the
# way out.

Exp = int | float  # an int, or NULL
NULL = float("-inf")
_ONE = NormValue.one()


def _denominator(*norms: NormValue) -> int:
    """The lcm of the exponent denominators of the nonzero norms (1 for none)."""
    return lcm(*(v.exp.denominator for v in norms if v.exp is not None))


def _exact(a: int, b: int) -> int:
    """a / b for integers with b | a.  The common denominator of the caller
    is chosen to make each such quotient an int, so a remainder is an
    internal error, raised rather than rounded into a wrong answer."""
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError(f"internal error: {a} / {b} is not an integer "
                              f"over the common denominator")
    return q


def _scaled(v: NormValue, D: int) -> Exp:
    """D times the exponent of v; NULL for the zero norm."""
    return NULL if v.exp is None else _exact(v.exp.numerator * D, v.exp.denominator)


def _norm(x: Exp, D: int) -> NormValue:
    """The norm p^(x/D) of a scaled exponent; the zero norm for NULL."""
    return NormValue.zero() if x == NULL else NormValue.of_scaled(x, D)


def _log_norm(num: int, den: int, p: int, D: int) -> Exp:
    """D times the exponent of |num/den| (den > 0); NULL for num = 0."""
    return -D * _valuation(num, den, p) if num else NULL


def _log_distance(c1: int, c2: int, a1: int, a2: int, p: int, D: int) -> Exp:
    """The scaled exponent of |c1/c2 - a1/a2| (c2, a2 > 0), valued on the
    integers as |c1 a2 - a1 c2| / |c2 a2|; NULL when the two are equal."""
    return _log_norm(c1 * a2 - a1 * c2, c2 * a2, p, D)


def _lead(scale: NormValue, poly: SplitPoly, p: int, D: int) -> Exp:
    """The scaled exponent of scale * |lead of poly|."""
    if scale.exp is None:
        return NULL
    lead = poly.lead
    return _scaled(scale, D) + _log_norm(lead.numerator, lead.denominator, p, D)


# A side of a split atom over one center: (scale * |lead|, [(d, m)]) with the
# root distances d from the center, all scaled, so that its scaled value at
# (center, rho) is _norm_product(*side, rho).  A zero side has lead NULL.
SideTable = tuple[Exp, list[tuple[Exp, int]]]


def _side(scale: NormValue, poly: SplitPoly | None, center: Fraction, p: int,
          D: int) -> SideTable:
    """The table of scale * |poly| over the center (None: the zero side)."""
    if poly is None:
        return NULL, []
    c1, c2 = center.numerator, center.denominator
    return _lead(scale, poly, p, D), [
        (_log_distance(c1, c2, a.numerator, a.denominator, p, D), m) for a, m in poly.roots]


def _norm_product(lead: Exp, dists: Sequence[tuple[Exp, int]], rho: Exp) -> Exp:
    """N(rho) = lead * prod max(rho, d)^m, scaled: lead + sum m max(rho, d),
    and NULL when a factor is zero.  The one evaluation rule of a split
    polynomial, from its lead norm and root distances."""
    if lead == NULL:
        return NULL
    out = lead
    for d, m in dists:
        x = rho if d < rho else d
        if x == NULL:
            return NULL
        out += m * x
    return out


def _grid(dists: Sequence[tuple[Exp, int]], r: Exp) -> list[Exp]:
    """Segment tops up to r: the nonzero distances below r, then r."""
    return sorted({d for d, _ in dists if NULL < d < r}) + [r]


def _segments(lead: Exp, dists: Sequence[tuple[Exp, int]], tops: Sequence[Exp]
              ) -> Iterator[tuple[Exp, Exp, int, Exp]]:
    """(lo, hi, M, K) with N(rho) = K rho^M, i.e. K + M rho scaled, on each
    segment (lo, hi] of the increasing tops, the first with lo = NULL; the
    lead is nonzero."""
    lo = NULL
    for hi in tops:
        M = sum(m for d, m in dists if d <= lo)
        yield lo, hi, M, _norm_product(lead, dists, hi) - M * hi
        lo = hi


def _crossing_radii(left: SideTable, right: SideTable, r: Exp) -> list[Exp]:
    """Radii in (0, r] where the two scaled side values can change order
    at the monomial points over the center of the two tables."""
    (lead_left, dists_left), (lead_right, dists_right) = left, right
    if lead_left == NULL or lead_right == NULL:
        return []
    tops = _grid(dists_left + dists_right, r)
    out = []
    for (lo, hi, m1, k1), (_, _, m2, k2) in zip(
            _segments(lead_left, dists_left, tops),
            _segments(lead_right, dists_right, tops)):
        if m1 == m2:
            continue
        # k1 + m1 rho = k2 + m2 rho
        sol = _exact(k2 - k1, m1 - m2)
        if lo < sol <= hi:
            out.append(sol)
    return out


# -- lemniscates -------------------------------------------------------------------


def _sublevel_radius(poly: SplitPoly, center: Fraction, cmp: str, c: NormValue,
                     r: NormValue, p: int) -> tuple[NormValue, bool] | None:
    """Largest rho in [0, r] with N(rho) cmp c, N(rho) = |P| on the sphere
    of radius rho around the center.  Returns (radius, closed) or None.

    N is increasing; at a root center every segment has M >= 1, so N is
    strictly increasing and meets the level c at most once, at the one
    radius ``_crossing_radii`` finds against the constant side c (closed
    for <=; for < the sup radius is not attained).  Without a root within
    r of the center, N is constant on [0, r] and there is no crossing.
    Over D = B lcm(1..deg P), B the lcm of the exponent denominators of c
    and r, the distances and the lead are multiples of D and c, r and every
    segment constant K multiples of D/B, so that radius (c - K)/M is an
    int (M <= deg P)."""
    D = _denominator(c, r) * lcm(*range(1, poly.degree + 1))
    side = _side(_ONE, poly, center, p, D)
    cs, R = _scaled(c, D), _scaled(r, D)
    if compare(_norm_product(*side, R), cmp, cs):
        return r, True
    crossing = _crossing_radii(side, (cs, []), R)
    if crossing:
        return _norm(crossing[0], D), cmp == LE
    # bottom: the center itself
    if compare(_norm_product(*side, NULL), cmp, cs):
        return NormValue.zero(), True
    return None


def lemniscate_region(poly: SplitPoly, cmp: str, c: NormValue, space: Space
                      ) -> DiscRegion:
    """{t : |t| <= r, |P(t)| cmp c} as a union of discs centered at the
    roots, r the radius of the one variable of the space.

    For every point the product formula |P(t)| = N_i(|t - a_i|) holds with
    a_i the nearest root, and N_i is increasing, so the sublevel set is the
    union over roots of the per-root solved discs.  With no root in the
    disc, |P| is constant on it and the one solve at center 0 gives the
    whole disc or nothing.  c = 0 with <= yields the root set as
    radius-zero discs.
    """
    if cmp not in (LE, LT):
        raise ValueError(f"bad comparison {cmp!r}")
    p = space.prime
    (r,) = space.radii
    inside = [a for a, _ in poly.roots if NormValue.of_scalar(a, p) <= r]
    discs = []
    for a in inside or [Fraction(0)]:
        solved = _sublevel_radius(poly, a, cmp, c, r, p)
        if solved is not None:
            discs.append(Disc(a, *solved))
    return tuple(discs)


# -- prepared atoms and the existential decision -------------------------------------


def qe_prepare(conjunct: Sequence[Atom], pivot: str) -> tuple[Atom, ...]:
    """Rewrite a conjunction of atoms with constant scales and monic
    polynomial parts in the pivot, pointwise equivalent on the closed unit
    polydisc (through the shear, which restricts to an automorphism of it).
    Each returned ``Atom`` lives on the sheared space: a side e w becomes
    its monic factor w, and its unit e a factor |e| of that side's scale.

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
    sides: list[Series] = []
    for atom in conjunct:
        if atom.space != space:
            raise ValueError("atoms live on different spaces")
        for side in (atom.f, atom.g):
            if not side.nums:
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
        atoms_out.append(Atom(
            atom.alpha * pf.unit_cert.norm(), pf.monic, atom.op,
            atom.beta * pg.unit_cert.norm(), pg.monic))
    return tuple(atoms_out)


class SplitAtom(Value):
    """A prepared atom with both polynomial sides split (None = the zero
    polynomial)."""

    scale_left: NormValue
    left: SplitPoly | None
    op: str
    scale_right: NormValue
    right: SplitPoly | None

    def __init__(self, scale_left: NormValue, left: SplitPoly | None, op: str,
                 scale_right: NormValue, right: SplitPoly | None):
        object.__setattr__(self, "scale_left", scale_left)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "scale_right", scale_right)
        object.__setattr__(self, "right", right)

    def holds(self, center: Fraction, rho: NormValue, p: int) -> bool:
        """Truth at the disc-tree point (center, rho), rigid at rho = 0."""
        D = _denominator(rho, self.scale_left, self.scale_right)
        x = _scaled(rho, D)
        return compare(_norm_product(*_side(self.scale_left, self.left, center, p, D), x),
                       self.op,
                       _norm_product(*_side(self.scale_right, self.right, center, p, D), x))


class Decision(Value):
    status: str  # "SAT" | "UNSAT"
    witness: Point | None

    def __init__(self, status: str, witness: Point | None = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)


SplitTree = SplitAtom | And | Or | None  # None: an atom that did not split


def decide_exists(tree: SplitTree, space: Space) -> Decision:
    """Exact SAT/UNSAT for "some point of the closed disc |t| <= r satisfies
    the tree", r the radius of the one variable of the space: an And/Or
    tree of split atoms is any positive Boolean combination of them (a None
    leaf, or a bare None, is false).  A witness is a point of the space.

    Complete over the Berkovich disc: every point shares its root-distance
    vector with a point (center, rho) at the nearest grid center, and atom
    truth over a fixed center is piecewise constant in rho with
    discontinuities only at root distances and crossing radii.  The scan
    takes the centers and crossing radii of every atom of the tree (plus
    geometric midpoints), so every atom, and with it any Boolean
    combination of them, is constant on each cell between the samples.
    Each sample evaluates the tree with ``formulas.truth``.  A SAT answer
    always carries a verified witness: the first sample that satisfies the
    tree, centers in increasing order and rho increasing over each.  Only
    that sample's cell is refined to a rigid point (rho = 0 is one; a
    value-group radius tries a few rational points on its sphere), so the
    witness can be monomial although a later cell holds a rigid point.

    The scan orders values on exponents scaled by one common denominator
    D = 2 B lcm(1..n), B the lcm of the exponent denominators of r and of
    every atom scale, n the largest side degree.  Every value it forms is
    then an int:

    - a root distance or |lead| is p^v with v an integer: a multiple of D;
    - r, a scale, a side's lead table (scale * |lead|) and every segment
      constant K (lead + sum m max(hi, d) - M hi) are multiples of D/B;
    - a crossing radius (K2 - K1)/(m1 - m2) divides a multiple of D/B =
      2 lcm(1..n) by |m1 - m2| <= n, leaving an even int;
    - so every radius of the grid is even, and each midpoint (lo + hi)/2,
      or hi - D below the smallest nonzero radius, is an int.

    ``_exact`` makes each division and raises if one leaves a remainder.
    Per center, the distance |center - a| to every root a (and to 0) is
    valued once, from integer cross-products, into a table that gives each
    side of each atom as (scale * |lead|, [(d, m)]); the lead norms are
    valued once per call.  The grid, the crossing radii and the leaf rule
    at every sample read that table and agree with ``SplitAtom.holds`` (the
    reference, which values everything again); the rigid refinement checks
    its candidates, points off the table, with ``holds``.  Only the radius
    of a monomial witness becomes a ``NormValue``.
    """
    leaves = [a for a in formula_atoms(tree) if a is not None]
    p = space.prime
    (r,) = space.radii
    zero = NormValue.zero()
    n = max((poly.degree for a in leaves for poly in (a.left, a.right) if poly),
            default=0)
    D = 2 * lcm(*range(1, n + 1)) * _denominator(
        r, *(s for a in leaves for s in (a.scale_left, a.scale_right)))
    R = _scaled(r, D)
    centers: set[Fraction] = {Fraction(0)}
    for atom in leaves:
        for poly in (atom.left, atom.right):
            if poly:
                centers.update(a for a, _ in poly.roots)
    all_centers = sorted(centers)
    pairs = [(a.numerator, a.denominator) for a in all_centers]
    inside = [k for k, (a1, a2) in enumerate(pairs) if _log_norm(a1, a2, p, D) <= R]
    # each side as (scale * |lead|, ((root index in all_centers, mult), ...)):
    # the lead norms are taken once, and no Fraction is hashed in the loops
    index = {a: i for i, a in enumerate(all_centers)}

    def side(scale: NormValue, poly: SplitPoly | None):
        if poly is None:
            return NULL, ()
        return _lead(scale, poly, p, D), tuple((index[a], m) for a, m in poly.roots)

    sides = {id(a): (side(a.scale_left, a.left), a.op, side(a.scale_right, a.right))
             for a in leaves}

    def rigid_refinement(center: Fraction, rho: int) -> RigidPoint | None:
        # |center + u p^-e| <= max(|center|, rho) <= r for rho = p^e and
        # u a unit, so every candidate lies in the disc
        if rho % D:
            return None
        offset = Fraction(p) ** -(rho // D)
        for u in range(1, min(p, 6)):
            t = center + u * offset
            if truth(tree, lambda a: a is not None and a.holds(t, zero, p)):
                return RigidPoint(space, (t,))
        return None

    for k in inside:
        # the distance table of this center: every root valued once
        c1, c2 = pairs[k]
        dist = [_log_distance(c1, c2, a1, a2, p, D) for a1, a2 in pairs]
        tables: dict[int, tuple[SideTable, str, SideTable]] = {
            key: ((lead_left, [(dist[i], m) for i, m in left]), op,
                  (lead_right, [(dist[i], m) for i, m in right]))
            for key, ((lead_left, left), op, (lead_right, right)) in sides.items()}

        # reads the current sample rho of the loop below
        def leaf(a: SplitAtom | None) -> bool:
            if a is None:
                return False
            left, op, right = tables[id(a)]
            return compare(_norm_product(*left, rho), op, _norm_product(*right, rho))

        # the center's own distance is NULL
        radii: set[Exp] = {d for d in dist if d <= R}
        radii.add(R)
        for left, _, right in tables.values():
            radii.update(_crossing_radii(left, right, R))
        ordered = sorted(radii)
        # geometric midpoints of consecutive grid radii sample the open cells
        samples: list[Exp] = list(ordered)
        for lo, hi in zip(ordered, ordered[1:]):
            samples.append(hi - D if lo == NULL else _exact(lo + hi, 2))
        for rho in sorted(set(samples)):
            if not truth(tree, leaf):
                continue
            center = all_centers[k]
            if rho == NULL:
                return Decision("SAT", RigidPoint(space, (center,)))
            rigid = rigid_refinement(center, rho)
            return Decision("SAT", rigid if rigid is not None
                            else MonomialPoint(space, (center,), (_norm(rho, D),)))
    return Decision("UNSAT")


# -- pointwise projection ----------------------------------------------------------


def _specialize_1var(side: Series, x: RigidPoint, pivot: str,
                     target: Space) -> Series:
    if side.space == target:
        # at an empty base point the pivot goes to itself: nothing changes
        return side
    assignment: dict[str, Series] = {}
    for v in side.space.vars:
        if v.name == pivot:
            assignment[v.name] = Series.variable(target, pivot)
        else:
            assignment[v.name] = Series.constant(target, x.coord(v.name))
    return side.substitute(assignment)


def project_decision(phi: Formula | Sequence[Atom], x: RigidPoint,
                     pivot: str, hints: Sequence[Fraction] = ()
                     ) -> tuple[str, Point | None]:
    """Decide whether the fiber of phi (a formula, or a sequence of atoms
    meaning their conjunction) over the base point x meets the pivot's
    declared disc |pivot| <= r: ('SAT', witness) / ('UNSAT', None) /
    ('UNKNOWN', None).

    phi goes to NNF and its atoms specialize at x to one-variable
    polynomials.  The split pass walks the formula with ``formulas.truth``:
    an atom is false at its first side that does not split over Q, so an
    And that is false splits nothing more.  Unless the whole formula is
    false so, one ``decide_exists`` scan decides it, with every atom not
    split taken as false; since an NNF formula is monotone in its atoms, a
    SAT found so is SAT, and an UNSAT is exact when every atom split.
    Otherwise a sampling fallback (0, the ``hints`` and +-p^-k, those with
    |t| <= r) evaluates the specialized formula and can still certify SAT;
    UNKNOWN is returned when it fails.  A witness is a point of the
    one-variable space of the pivot with its declared radius (the unit
    disc for an empty conjunct, which is SAT at 0 over any disc).
    """
    if not isinstance(phi, (Atom, And, Or, Not)):
        phi = And(tuple(phi))
    atoms = formula_atoms(phi)
    p = x.space.prime
    r = atoms[0].space.radius(pivot) if atoms else NormValue.one()
    target = Space(p, (VarSpec(pivot, r),))
    specialized = map_atoms(nnf(phi), lambda a: Atom(
        a.alpha, _specialize_1var(a.f, x, pivot, target), a.op,
        a.beta, _specialize_1var(a.g, x, pivot, target)))
    split: dict[int, SplitAtom] = {}
    unsplit: list[Atom] = []

    def split_atom(a: Atom) -> bool | None:
        # unknown once both sides split (the scan decides it); false at the
        # first side that does not, and nothing more of it is split
        sides = []
        for s in (a.f, a.g):
            sp = None if s.is_zero else split_series(s)
            if sp is None and not s.is_zero:
                unsplit.append(a)
                return False
            sides.append(sp)
        split[id(a)] = SplitAtom(a.alpha, sides[0], a.op, a.beta, sides[1])
        return None

    if truth(specialized, split_atom) is not False:
        decision = decide_exists(map_atoms(specialized, lambda a: split.get(id(a))),
                                 target)
        if decision.status == "SAT" or not unsplit:
            return decision.status, decision.witness
    # sampling fallback: a verified witness proves SAT; nothing proves UNSAT
    candidates: list[Fraction] = [Fraction(0)]
    candidates.extend(hints)
    for k in range(0, 6):
        candidates.append(Fraction(1, p ** k))
        candidates.append(Fraction(-1, p ** k))
    for t in candidates:
        if NormValue.of_scalar(t, p) > r:
            continue
        pt = RigidPoint(target, (t,))
        if eval_formula(specialized, pt) is True:
            return "SAT", pt
    return "UNKNOWN", None
