"""Constructible data: chart extensions t = f/g with norm constraints.

An elementary datum adjoins one chart variable t with |t| <= r and the
relation f = t g; its distinguished subset asks g != 0, |f| <= s |g| for a
threshold s < r, plus a semianalytic region over the extended space.  Datum
chains stack such extensions; a constructible set is a finite union of
chains over one base polydisc.  Membership at a rigid point is decided by
walking the chain outermost-in: each chart value t = f(x)/g(x) is uniquely
determined, so the walk is deterministic and exact on tail-free data.

The calculus implemented here: complement (by structural recursion on the
chain, each negated region kept whole), intersection (fibered product =
chain concatenation), union, the divisibility rewrite that trades a datum
for a Weierstrass or Laurent domain, affinoid-neighbourhood data, and the
covering attached to a coefficient decomposition whose members generate
the unit ideal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .scalars import NormValue, Value
from .series import RigidPoint, Series, Space, VarSpec, compare_le
from .formulas import (And, Atom, Formula, LE, LT, Seminorms, lift_formula,
                       negate, rename_formula_var, tautology, truth)


class ElementaryDatum(Value):
    """One chart extension over its domain space (f, g live there).

    ``extended``, the domain plus the chart coordinate, is built once here
    and kept on the instance (not a field, so equality and hashing ignore
    it): chains, complements and membership walks all read the same object.
    """

    t_name: str
    f: Series
    g: Series
    r: NormValue
    s: NormValue
    region: Formula  # over domain + {t_name: r}

    def __init__(self, t_name: str, f: Series, g: Series, r: NormValue,
                 s: NormValue, region: Formula):
        if f.space != g.space:
            raise ValueError("datum functions live on different spaces")
        if s.is_zero or not s < r:
            raise ValueError("datum needs 0 < s < r")
        object.__setattr__(self, "t_name", t_name)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "extended", f.space.extend(VarSpec(t_name, r)))

    @property
    def domain(self) -> Space:
        return self.f.space


class DatumChain(Value):
    """A composite of elementary data over a base space.

    ``complexity`` is the stored number of links; it is part of the data
    and not recoverable from the composite map alone.
    """

    base: Space
    base_region: Formula
    links: Tuple[ElementaryDatum, ...]

    def __init__(self, base: Space, base_region: Formula,
                 links: Tuple[ElementaryDatum, ...]):
        space = base
        for link in links:
            if link.domain != space:
                raise ValueError(
                    f"link over {link.domain.names} does not match the "
                    f"expected domain {space.names}")
            space = link.extended
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "base_region", base_region)
        object.__setattr__(self, "links", links)

    @property
    def complexity(self) -> int:
        return len(self.links)

    def chart_names(self) -> List[str]:
        return [l.t_name for l in self.links]


class ConstructibleSet(Value):
    space: Space
    chains: Tuple[DatumChain, ...]

    def __init__(self, space: Space, chains: Tuple[DatumChain, ...]):
        for ch in chains:
            if ch.base != space:
                raise ValueError("chain base does not match the set's space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "chains", chains)

    @property
    def complexity(self) -> int:
        return max((ch.complexity for ch in self.chains), default=0)


def formula_set(space: Space, phi: Formula) -> ConstructibleSet:
    """The semianalytic set of phi as a complexity-0 constructible set."""
    return ConstructibleSet(space, (DatumChain(space, phi, ()),))


def _const_atom_truth(atom: Atom) -> Optional[bool]:
    """Truth of an atom whose sides are exact constants, else None: the
    sides' norms are their kept ``Series.constant_seminorm``."""
    cf, cg = atom.f.constant_seminorm(), atom.g.constant_seminorm()
    if cf is None or cg is None or not (atom.f.tail.is_zero and atom.g.tail.is_zero):
        return None
    lhs = atom.alpha * cf[0].value
    rhs = atom.beta * cg[0].value
    return lhs <= rhs if atom.op == LE else lhs < rhs


def _chain_obviously_empty(chain: DatumChain) -> bool:
    """Conservative syntactic emptiness: a region that is false with only
    its constant atoms decided (``_const_atom_truth``, the rest unknown)."""
    if truth(chain.base_region, _const_atom_truth) is False:
        return True
    return any(truth(link.region, _const_atom_truth) is False
               for link in chain.links)


def _pruned(space: Space, chains) -> ConstructibleSet:
    kept = tuple(ch for ch in chains if not _chain_obviously_empty(ch))
    return ConstructibleSet(space, kept)


def full_set(space: Space) -> ConstructibleSet:
    return formula_set(space, tautology(space))


# -- membership -----------------------------------------------------------------


def _chain_membership(chain: DatumChain, base: Seminorms) -> Optional[bool]:
    """Kleene truth of one chain, walked outermost-in from the base point.

    Each chart constraint (g != 0, |f| <= s|g|) and each region is read
    from the Seminorms of the point it lives over.  The extended point
    (x, t) lies on the link's own ``extended`` space and gets its Seminorms
    from ``Seminorms.chart``: only t is checked there, since the prefix
    coordinates already were, and a chart prefix another chain (of this
    call or an earlier one at the same point) has walked is not walked
    again.  The g = 0 and tail tests read exponents (None is the zero
    norm), and s|g| is built only for s != 1, as ``Seminorms.holds`` does
    for an atom's scales.
    """
    out = truth(chain.base_region, base.holds)
    if out is False:
        return False
    ev = base
    for link in chain.links:
        f, g = link.f, link.g
        lhs, rhs = ev(f), ev(g)
        g_exact = g.tail.exp is None
        if g_exact and rhs.value.exp is None:
            return False
        if link.s.exp != 0:
            rhs = rhs.scaled(link.s)
        if compare_le(lhs, rhs) is False:
            return False
        if not (g_exact and f.tail.exp is None):
            # the chart value is uncertain: nothing deeper is decidable
            return None
        ev = ev.chart(f, g, link.extended)
        rv = truth(link.region, ev.holds)
        if rv is False:
            return False
        if rv is None:
            out = None
    return out


def membership(cs: ConstructibleSet, x: RigidPoint) -> Optional[bool]:
    """Kleene membership of a rigid point: OR over the chains.

    Unknown arises only from tail uncertainty; tail-free data evaluate
    two-valued.  Non-rigid points are out of scope: chart values live in
    the residue field of the point and are not materialized.

    x is checked against the base polydisc once per point object, and
    each chart value t once, against its radius.  A series on another
    space object then passes iff that space ``==`` the point's (see
    ``Seminorms``).  Chains that share a chart prefix (same f and g
    objects, name and radius, as in ``union`` or the pieces of
    ``complement``) share the extended point, and each series object is
    evaluated once per point, chart constraints and regions alike.  The
    memo lives on the point, so later calls at the same point object (in
    other sets sharing series objects, or in ``eval_formula``) reuse it.
    A constant side (the tautologies, the ``g = 0`` pieces of
    ``complement``) is not evaluated at all: its estimate is kept on the
    series, the same at every point (``Series.constant_seminorm``).
    """
    if not isinstance(x, RigidPoint):
        raise ValueError("constructible membership is defined at rigid "
                         "points only")
    base = Seminorms(x)
    base.check(cs.space)
    out: Optional[bool] = False
    for chain in cs.chains:
        v = _chain_membership(chain, base)
        if v is True:
            return True
        if v is None:
            out = None
    return out


# -- boolean calculus --------------------------------------------------------------


def union(a: ConstructibleSet, b: ConstructibleSet) -> ConstructibleSet:
    if a.space != b.space:
        raise ValueError("union needs a common base space")
    return ConstructibleSet(a.space, a.chains + b.chains)


def _fresh_name(used: Set[str], stem: str) -> str:
    """The first of stem_2, stem_3, ... not in used."""
    k = 2
    while f"{stem}_{k}" in used:
        k += 1
    return f"{stem}_{k}"


def _chain_intersect(c1: DatumChain, c2: DatumChain) -> DatumChain:
    base = c1.base
    used = set(base.names) | set(c1.chart_names())
    region = And((c1.base_region, c2.base_region))
    links = list(c1.links)
    space = base
    for link in c1.links:
        space = link.extended
    renames: Dict[str, str] = {}
    for link in c2.links:
        f, g, reg = link.f, link.g, link.region
        for old, new in renames.items():
            if old in f.space.names:
                f = f.rename_var(old, new)
                g = g.rename_var(old, new)
            reg = rename_formula_var(reg, old, new)
        t_new = link.t_name
        if t_new in used:
            # the renames above run one at a time, so a new name must not
            # be a chart name of c2 that a later rename still reads
            t_new = _fresh_name(used | set(c2.chart_names()), t_new)
        if t_new != link.t_name:
            reg = rename_formula_var(reg, link.t_name, t_new)
            renames[link.t_name] = t_new
        used.add(t_new)
        f = f.lift_to(space)
        g = g.lift_to(space)
        ext = space.extend(VarSpec(t_new, link.r))
        reg = lift_formula(reg, ext)
        links.append(ElementaryDatum(t_new, f, g, link.r, link.s, reg))
        space = ext
    return DatumChain(base, region, tuple(links))


def intersect(a: ConstructibleSet, b: ConstructibleSet) -> ConstructibleSet:
    """Fibered product: pairwise chain concatenation; membership is the
    pointwise conjunction."""
    if a.space != b.space:
        raise ValueError("intersection needs a common base space")
    chains = [_chain_intersect(c1, c2) for c1 in a.chains for c2 in b.chains]
    return _pruned(a.space, chains)


def _chain_complement(chain: DatumChain) -> ConstructibleSet:
    """Structural recursion on the complexity of the chain."""
    base = chain.base
    # the base region can fail outright: its negation stays one region,
    # since membership ORs the chains under distributive Kleene logic
    pieces = [DatumChain(base, negate(chain.base_region), ())]
    if not chain.links:
        return ConstructibleSet(base, tuple(pieces))
    head, rest = chain.links[0], chain.links[1:]
    f, g, s = head.f, head.g, head.s
    # |f| > s|g|  and  g = 0, both over the base
    pieces.append(DatumChain(base, Atom(s, g, LT, NormValue.one(), f), ()))
    pieces.append(DatumChain(
        base, Atom(NormValue.one(), g, LE, NormValue.zero(),
                   Series.one(base)), ()))
    # the chart satisfied but the region failed
    pieces.append(DatumChain(base, tautology(base), (
        ElementaryDatum(head.t_name, f, g, head.r, head.s,
                        negate(head.region)),)))
    if rest:
        # region held but the deeper part of the chain missed
        ext = head.extended
        sub = DatumChain(ext, tautology(ext), rest)
        sub_c = complement(ConstructibleSet(ext, (sub,)))
        for ch in sub_c.chains:
            pieces.append(DatumChain(base, tautology(base), (
                ElementaryDatum(head.t_name, f, g, head.r, head.s,
                                And((head.region, ch.base_region))),)
                + ch.links))
    return _pruned(base, pieces)


def complement(cs: ConstructibleSet) -> ConstructibleSet:
    """Pointwise complement within the base polydisc."""
    if not cs.chains:
        return full_set(cs.space)
    out: Optional[ConstructibleSet] = None
    for chain in cs.chains:
        piece = _chain_complement(chain)
        out = piece if out is None else intersect(out, piece)
    return out


# -- divisibility simplification ------------------------------------------------------


def simplify_divisible(d: ElementaryDatum, h: Series, case: str
                       ) -> Tuple[str, ElementaryDatum]:
    """Rewrite a datum whose chart functions divide each other.

    ``g_divides_f`` (f = g h): the chart collapses onto the Weierstrass
    domain |h| <= r, with region |h| <= s and g != 0.  ``f_divides_g``
    (g = f h): onto the Laurent domain |h| >= 1/r with |h| >= 1/s and
    g != 0.  The chart value is unchanged (t = h, resp. t = 1/h), so the
    region transfers verbatim, and the rewritten image set is
    membership-equal to the original.  The image sits in the s-sublevel of
    the r-chart, which is the separation a wide covering needs.
    """
    domain = d.domain
    if h.space != domain:
        raise ValueError("h must live on the datum's domain")
    if not (d.f.tail.is_zero and d.g.tail.is_zero and h.tail.is_zero):
        raise ValueError("divisibility rewriting needs exact series")
    # g != 0 encoded as 0*|1| < |g|
    g_nonzero = Atom(NormValue.zero(), Series.one(domain), LT,
                     NormValue.one(), d.g)
    if case == "g_divides_f":
        if d.g * h != d.f:
            raise ValueError("the identity f = g h does not hold")
        new = ElementaryDatum(
            d.t_name, h, Series.one(domain), d.r, d.s,
            And((d.region, lift_formula(g_nonzero, d.extended))))
        return "weierstrass", new
    if case == "f_divides_g":
        if d.f * h != d.g:
            raise ValueError("the identity g = f h does not hold")
        new = ElementaryDatum(
            d.t_name, Series.one(domain), h, d.r, d.s,
            And((d.region, lift_formula(g_nonzero, d.extended))))
        return "laurent", new
    raise ValueError(f"unknown case {case!r}")


# -- affinoid neighbourhood data ---------------------------------------------------


def neighborhood_datum(space: Space, fs: Sequence[Series], g: Series,
                       rs: Sequence[NormValue], ss: Sequence[NormValue]
                       ) -> DatumChain:
    """The fibered product of the elementary data t_i = f_i/g with
    |f_i| <= s_i |g| != 0, realizing the s-rational domain inside the
    r-rational one.  Requires r_i/2 < s_i < r_i (s_i in the value group)."""
    if len(fs) != len(rs) or len(fs) != len(ss):
        raise ValueError("fs, rs, ss must align")
    p = space.prime
    links = []
    domain = space
    for k, (f, r, s) in enumerate(zip(fs, rs, ss)):
        if s.is_zero or not s < r:
            raise ValueError("need 0 < s_i < r_i")
        if (s / r).compare_fraction(Fraction(1, 2), p) <= 0:
            raise ValueError("need r_i/2 < s_i")
        fl = f.lift_to(domain)
        gl = g.lift_to(domain)
        ext = domain.extend(VarSpec(f"t{k + 1}", r))
        links.append(ElementaryDatum(f"t{k + 1}", fl, gl, r, s,
                                     tautology(ext)))
        domain = ext
    return DatumChain(space, tautology(space), tuple(links))


# -- coverings from coefficient decompositions ----------------------------------------


class CoveringPiece(Value):
    chain: DatumChain
    index: Optional[Tuple[int, ...]]  # None for the residual vanishing piece
    cofactor: Optional[Series]        # pullback factor with unit coefficient

    def __init__(self, chain: DatumChain, index: Optional[Tuple[int, ...]],
                 cofactor: Optional[Series]):
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "cofactor", cofactor)


def unit_coefficient_covering(f: Series, fiber: Sequence[str],
                              members: Sequence[Tuple[int, ...]],
                              phis: Dict[Tuple[int, ...], Series]
                              ) -> List[CoveringPiece]:
    """Covering of the base on whose pieces f pulls back to f_nu * g_nu
    with g_nu carrying coefficient 1 at nu.

    The caller supplies the carrier decomposition f = sum over members of
    f_nu (T^nu + phi_nu); on each piece the other coefficients become chart
    multiples t_mu f_nu, yielding the factorization, which is verified here
    as an exact series identity.  A residual piece where every f_nu
    vanishes completes the covering (omitted when some f_nu is a nonzero
    scalar, in which case its piece already covers everything).
    """
    space = f.space
    chart_radius = NormValue.power(1)
    members = [tuple(nu) for nu in members]
    base = space
    for name in fiber:
        base = base.drop(name)
    rows = dict(f.coeff_view_multi(list(fiber)))
    coeffs = {nu: rows.get(nu, Series.zero(base)).drop_tail() for nu in members}

    # consistency: f = sum f_nu (T^nu + phi_nu) exactly
    fiber_expo = {}
    for nu in members:
        expo = [0] * len(space.vars)
        for name, e in zip(fiber, nu):
            expo[space.index(name)] = e
        fiber_expo[nu] = tuple(expo)
    total = Series.zero(space)
    for nu in members:
        term = Series.monomial(space, fiber_expo[nu]) + phis[nu]
        total = total + term * coeffs[nu].lift_to(space)
    if total != f.drop_tail():
        raise ValueError("decomposition is inconsistent with f")

    def nonzero_region(series: Series, sp: Space) -> Formula:
        return Atom(NormValue.zero(), Series.one(sp), LT,
                    NormValue.one(), series)

    pieces: List[CoveringPiece] = []
    degenerate = False
    for nu in sorted(members):
        f_nu = coeffs[nu]
        others = [mu for mu in sorted(members) if mu != nu]
        links = []
        domain = base
        t_names = {}
        for mu in others:
            t_name = "t" + "_".join(str(e) for e in mu)
            t_names[mu] = t_name
            ext = domain.extend(VarSpec(t_name, chart_radius))
            links.append(ElementaryDatum(
                t_name, coeffs[mu].lift_to(domain), f_nu.lift_to(domain),
                chart_radius, NormValue.one(), tautology(ext)))
            domain = ext
        chain = DatumChain(base, nonzero_region(f_nu, base), tuple(links))
        # cofactor over the full space extended by the chart variables
        ext_space = space
        for mu in others:
            ext_space = ext_space.extend(VarSpec(t_names[mu], chart_radius))
        # the carriers T^mu + phi_mu over ext_space
        pad = (0,) * len(others)
        carrier = {mu: Series.monomial(ext_space, fiber_expo[mu] + pad)
                   + phis[mu].lift_to(ext_space) for mu in members}
        t_vars = {mu: Series.variable(ext_space, t_names[mu]) for mu in others}
        g_nu = carrier[nu]
        for mu in others:
            g_nu = g_nu + t_vars[mu] * carrier[mu]
        # exact identity: f_nu g_nu = f + sum (t_mu f_nu - f_mu)(T^mu + phi_mu)
        f_nu_ext = coeffs[nu].lift_to(ext_space)
        lhs = f_nu_ext * g_nu
        rhs = f.drop_tail().lift_to(ext_space)
        for mu in others:
            diff = t_vars[mu] * f_nu_ext - coeffs[mu].lift_to(ext_space)
            rhs = rhs + diff * carrier[mu]
        if lhs != rhs:
            raise ValueError("pullback factorization failed to verify")
        if g_nu.nums.get(fiber_expo[nu] + pad) != g_nu.den:
            raise ValueError("cofactor does not carry coefficient 1 at nu")
        sc = f_nu.as_scalar()
        if sc is not None and sc != 0:
            degenerate = True
        pieces.append(CoveringPiece(chain, nu, g_nu))

    if not degenerate:
        if members:
            zero_atoms = tuple(
                Atom(NormValue.one(), coeffs[nu], LE, NormValue.zero(),
                     Series.one(base))
                for nu in sorted(members))
            region = zero_atoms[0] if len(zero_atoms) == 1 else And(zero_atoms)
        else:
            region = tautology(base)
        pieces.append(CoveringPiece(DatumChain(base, region, ()), None, None))
    return pieces
