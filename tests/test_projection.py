import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padicgeom import (And, Atom, Decision, Disc, MonomialPoint, NormValue, Or,
                       RigidPoint, Series, Space, SplitAtom, SplitPoly, decide_exists,
                       lemniscate_region, project_decision, projection, qe_prepare,
                       region_contains, scalars, split_series)
from padicgeom.formulas import (eval_conjunct, eval_formula, formula_atoms,
                                parse_formula, to_dnf, truth)
from padicgeom.projection import _specialize_1var
from padicgeom.series import MAX_POWER
from conftest import (ONE, ZERO, nv, poly, rand_formula, rand_rigid, rand_series,
                      space)


def unit_line(p=2):
    return space(p, ("T", 0))


CONST1 = SplitPoly(Fraction(1), ())


def test_split_series_basics():
    sp = unit_line()
    f = poly(sp, {(2,): 1, (1,): -2})  # T(T-2)
    sf = split_series(f)
    assert sf.lead == 1 and sf.roots == ((Fraction(0), 1), (Fraction(2), 1))
    sq = split_series(poly(sp, {(2,): 1, (1,): -4, (0,): 4}))  # (T-2)^2
    assert sq.roots == ((Fraction(2), 2),)
    assert split_series(poly(sp, {(2,): 1, (0,): 1})) is None  # T^2 + 1 (p=2)
    assert split_series(poly(sp, {(2,): 3, (0,): -3})) == SplitPoly(
        Fraction(3), ((Fraction(-1), 1), (Fraction(1), 1)))  # 3(T+1)(T-1)
    assert split_series(poly(sp, {(0,): "-2/7"})) == SplitPoly(Fraction(-2, 7), ())
    assert split_series(poly(sp, {})) is None
    assert split_series(poly(sp, {(1,): 1}).with_tail(nv(-5))) is None


def from_roots(sp, lead, roots):
    """lead * prod (T - r)^m over a one-variable space."""
    f = Series.constant(sp, lead)
    T = Series.variable(sp, "T")
    for r, m in roots.items():
        f = f * (T - Series.constant(sp, r)).pow(m)
    return f


BIG_PARTS = [1, 2, 3, 1081, 720720, 4849845]
split_root = st.builds(
    lambda n, d: Fraction(n, d),
    st.one_of(st.sampled_from([0, 1, -1, 720720, -4849845]),
              st.integers(-10 ** 9, 10 ** 9)),
    st.one_of(st.sampled_from(BIG_PARTS), st.integers(1, 10 ** 6)))
split_lead = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool),
                       st.sampled_from(BIG_PARTS))
# irreducible over Q: no rational root, so the product does not split
IRREDUCIBLE = [{(2,): 1, (0,): 1}, {(2,): 1, (0,): -2}, {(2,): 1, (1,): 1, (0,): 1},
               {(2,): 3, (0,): "-5/7"}, {(2,): 720720, (0,): -1081}]


@given(st.sampled_from([2, 3, 5]), split_lead,
       st.dictionaries(split_root, st.integers(1, 3), max_size=4))
def test_split_series_recovers_built_roots(p, lead, roots):
    sp = unit_line(p)
    f = from_roots(sp, lead, roots)
    assert split_series(f) == SplitPoly(lead, tuple(sorted(roots.items())))


@given(st.sampled_from([2, 3, 5]), split_lead,
       st.dictionaries(split_root, st.integers(1, 2), max_size=3),
       st.sampled_from(IRREDUCIBLE))
def test_split_series_refuses_an_irreducible_quadratic(p, lead, roots, quad):
    sp = unit_line(p)
    assert split_series(from_roots(sp, lead, roots) * poly(sp, quad)) is None


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=7).filter(any),
       st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)), max_size=4))
def test_split_series_agrees_with_sympy(extra, linear):
    sympy = pytest.importorskip("sympy")
    sp = unit_line(3)
    f = poly(sp, dict(((k,), c) for k, c in enumerate(extra) if c))
    for a, b in linear:
        f = f * poly(sp, {(1,): b, (0,): -a})
    T = sympy.Symbol("T")
    expr = sum(sympy.Integer(c.numerator) / c.denominator * T ** e
               for (e,), c in f.coeffs.items())
    _, factors = sympy.Poly(expr, T).factor_list()
    if any(g.degree() > 1 for g, _ in factors):
        assert split_series(f) is None
        return
    roots = {}
    for g, m in factors:
        c1, c0 = g.all_coeffs()
        root = Fraction(-int(c0), int(c1))
        roots[root] = roots.get(root, 0) + m
    want = SplitPoly(f.coeffs[(max(e for e, in f.coeffs),)],
                     tuple(sorted(roots.items())))
    assert split_series(f) == want


@pytest.mark.parametrize("lead, roots", [
    (1, {Fraction(720720, 1081): 1, Fraction(2, 3): 1}),
    (1, {Fraction(2145): 1, Fraction(-4849845): 1}),
    (1, {Fraction(1, 720): 2}),
    (Fraction(-7, 4), {Fraction(31415926535897932): 1}),
    (Fraction(1), {Fraction(10 ** 39 + 7, 3): 1}),
], ids=["two-roots-720720", "two-roots-4849845", "double-root-1/720",
        "17-digit-root", "40-digit-root"])
def test_split_series_complete_and_fast(lead, roots):
    # the divisor search missed the first three (64-divisor cap) and took
    # 20 s on the 17-digit root (trial division up to its square root)
    f = from_roots(unit_line(), Fraction(lead), roots)
    start = time.perf_counter()
    got = split_series(f)
    assert time.perf_counter() - start < 5.0
    assert got == SplitPoly(Fraction(lead), tuple(sorted(roots.items())))


ROOT_POOL = [0, 1, -1, 2, 3, 4, 6, 9, Fraction(1, 2), Fraction(1, 3),
             Fraction(-3, 4), Fraction(5, 9)]
split_poly = st.builds(
    lambda lead, roots: SplitPoly(Fraction(lead), tuple(sorted(roots.items()))),
    st.sampled_from([1, -1, 2, 3, 6, Fraction(1, 2), Fraction(2, 9)]),
    st.dictionaries(st.sampled_from(ROOT_POOL).map(Fraction), st.integers(1, 3),
                    max_size=3))
norm = st.builds(lambda n, d: NormValue.power(Fraction(n, d)),
                 st.integers(-8, 4), st.sampled_from([1, 2, 3]))
# a disc-tree point of |T| <= p^3: rho = 0 is the rigid point
tree_point = st.tuples(
    st.sampled_from(ROOT_POOL + [5, Fraction(7, 2), Fraction(2, 27)]).map(Fraction),
    st.one_of(st.just(ZERO),
              st.builds(lambda n, d: NormValue.power(Fraction(n, d)),
                        st.integers(-8, 3), st.sampled_from([1, 2, 3]))))


def series_value(poly, point):
    """|P| at the point through the Series evaluator: P expanded first."""
    return from_roots(point.space, poly.lead, dict(poly.roots)) \
        .eval_seminorm(point).value


def as_point(sp, center, rho):
    if rho.is_zero:
        return RigidPoint(sp, (center,))
    return MonomialPoint(sp, (center,), (rho,))


@given(st.sampled_from([2, 3]), split_poly, split_poly, norm, norm,
       st.sampled_from(["<=", "<"]), tree_point)
def test_value_at_and_holds_match_series_evaluation(p, left, right, sl, sr,
                                                    op, at):
    center, rho = at
    point = as_point(space(p, ("T", 3)), center, rho)
    lv, rv = series_value(left, point), series_value(right, point)
    assert left.value_at(center, rho, p) == lv
    assert right.value_at(center, rho, p) == rv
    atom = SplitAtom(sl, left, op, sr, right)
    lv, rv = lv * sl, rv * sr
    assert atom.holds(center, rho, p) == (lv <= rv if op == "<=" else lv < rv)


def rescaled(atom, p, e):
    """The atom in s for t = p^-e s: the roots a become a p^e and each
    side's scale picks up |p^-e|^deg."""
    sides = []
    for poly, scale in ((atom.left, atom.scale_left),
                        (atom.right, atom.scale_right)):
        if poly is None:
            sides += [scale, None]
        else:
            roots = tuple((a * Fraction(p) ** e, m) for a, m in poly.roots)
            sides += [scale * NormValue.of_scalar(Fraction(p) ** -e, p) ** poly.degree,
                      SplitPoly(poly.lead, roots)]
    return SplitAtom(sides[0], sides[1], atom.op, sides[2], sides[3])


split_atom = st.builds(SplitAtom, norm, st.one_of(st.none(), split_poly),
                       st.sampled_from(["<=", "<"]), norm,
                       st.one_of(st.none(), split_poly))


@given(st.sampled_from([2, 3]),
       st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 3, 4])),
       st.lists(split_atom, min_size=1, max_size=3))
def test_decide_exists_over_a_disc_matches_the_rescaled_unit_decision(p, e, atoms):
    # t = p^-k s maps |t| <= p^e onto |s| <= p^(e - k), k = floor(e): the
    # unit disc for an integral e, a disc of radius p^(e - k) < p otherwise
    k = e.numerator // e.denominator
    disc = space(p, ("t", e))
    d = decide_exists(And(tuple(atoms)), disc)
    unit = decide_exists(And(tuple(rescaled(a, p, k) for a in atoms)),
                         space(p, ("s", e - k)))
    assert d.status == unit.status
    if d.status == "SAT":
        d.witness.check_in(disc)
        center, rho = ((d.witness.coords[0], ZERO)
                       if isinstance(d.witness, RigidPoint)
                       else (d.witness.center[0], d.witness.rho[0]))
        assert all(a.holds(center, rho, p) for a in atoms)


# -- the scan against its reference ------------------------------------------------


def reference_crossings(atom, center, r, p):
    """The crossing radii of one atom over the center, every distance and
    side value recomputed through ``SplitPoly.value_at``."""
    if (atom.left is None or atom.right is None
            or atom.scale_left.is_zero or atom.scale_right.is_zero):
        return []
    polys = (atom.left, atom.right)
    dists = {NormValue.of_scalar(center - a, p) for poly in polys for a, _ in poly.roots}
    tops = sorted(d for d in dists if not d.is_zero and d < r) + [r]
    out, lo = [], ZERO
    for hi in tops:
        # on (lo, hi] each side is K rho^M, M the multiplicity within lo
        ml, mr = (sum(m for a, m in poly.roots
                      if NormValue.of_scalar(center - a, p) <= lo) for poly in polys)
        if ml != mr:
            kl = atom.left.value_at(center, hi, p) * atom.scale_left / hi ** ml
            kr = atom.right.value_at(center, hi, p) * atom.scale_right / hi ** mr
            sol = (kr / kl) ** Fraction(1, ml - mr)
            if lo < sol <= hi:
                out.append(sol)
        lo = hi
    return out


def reference_decide(tree, sp):
    """The decision scan with ``SplitAtom.holds`` at every sample: the
    same centers, grid, samples and witness order as ``decide_exists``."""
    leaves = [a for a in formula_atoms(tree) if a is not None]
    p, (r,) = sp.prime, sp.radii
    centers = sorted({Fraction(0)} | {a for atom in leaves
                                      for poly in (atom.left, atom.right) if poly
                                      for a, _ in poly.roots})
    for center in (a for a in centers if NormValue.of_scalar(a, p) <= r):
        radii = {ZERO, r} | {d for d in (NormValue.of_scalar(center - o, p)
                                         for o in centers) if d <= r}
        for atom in leaves:
            radii.update(reference_crossings(atom, center, r, p))
        ordered = sorted(radii)
        samples = set(ordered)
        for lo, hi in zip(ordered, ordered[1:]):
            samples.add(hi * NormValue.power(-1) if lo.is_zero
                        else NormValue.power(Fraction(lo.exp + hi.exp, 2)))
        for rho in sorted(samples):
            if not truth(tree, lambda a: a is not None and a.holds(center, rho, p)):
                continue
            if rho.is_zero:
                return Decision("SAT", RigidPoint(sp, (center,)))
            if rho.exp.denominator == 1:
                for u in range(1, min(p, 6)):
                    t = center + u * Fraction(p) ** int(-rho.exp)
                    if truth(tree, lambda a: a is not None and a.holds(t, ZERO, p)):
                        return Decision("SAT", RigidPoint(sp, (t,)))
            return Decision("SAT", MonomialPoint(sp, (center,), (rho,)))
    return Decision("UNSAT")


# zero scales, zero sides (None), roots outside the disc (|1/2| = 2 at p = 2)
# and leaves that did not split (None); scales near 1, exponents with
# denominators up to 4 included, so that both answers and both kinds of
# witness occur
scale = st.one_of(st.just(ZERO), st.builds(lambda n, d: NormValue.power(Fraction(n, d)),
                                           st.integers(-3, 2), st.sampled_from([1, 2, 3, 4])))
split_side = st.one_of(st.none(), split_poly, split_poly)
split_atom_leaf = st.builds(SplitAtom, scale, split_side, st.sampled_from(["<=", "<"]),
                            scale, split_side)
# true at monomial points only: at the Gauss point of |t| <= 1 (p = 2), and
# on the sphere |t| = p^1/2 of the wider disc; true only near 1, which is
# not the first center the scan visits
T_T1 = SplitPoly(Fraction(1), ((Fraction(0), 1), (Fraction(1), 1)))
T_ONLY = SplitPoly(Fraction(1), ((Fraction(0), 1),))
T_1 = SplitPoly(Fraction(1), ((Fraction(1), 1),))
# p^-1 < |t|^3: the sides cross at rho = p^-1/3, a radius in thirds
T_CUBE = SplitPoly(Fraction(1), ((Fraction(0), 3),))
fixed_leaf = st.sampled_from([SplitAtom(ONE, CONST1, "<=", ONE, T_T1),
                              SplitAtom(ONE, CONST1, "<", ONE, T_ONLY),
                              SplitAtom(ONE, T_1, "<=", nv(-2), CONST1),
                              SplitAtom(nv(-1), CONST1, "<", ONE, T_CUBE)])
split_leaf = st.one_of(st.none(), fixed_leaf, split_atom_leaf, split_atom_leaf)


def split_node(sub):
    return st.builds(lambda kind, args: kind(tuple(args)), st.sampled_from([And, Or]),
                     st.lists(sub, min_size=1, max_size=3))


split_tree = split_node(st.recursive(split_leaf, split_node, max_leaves=5))
# radius exponents 0 and 1/2: the disc |t| <= 1 and |t| <= p^1/2
split_disc = st.builds(lambda p, e: space(p, ("t", e)), st.sampled_from([2, 3]),
                       st.sampled_from([0, "1/2"]))


@given(split_disc, split_tree)
def test_decide_exists_matches_the_reference_scan_property(sp, tree):
    assert decide_exists(tree, sp) == reference_decide(tree, sp)


@given(split_disc, split_tree)
def test_decide_exists_values_each_distance_once_per_center(sp, tree):
    # one valuation per (center inside the disc, root or 0), one per side's
    # lead and one per center for the inside filter, and no norm built but
    # the radius of a monomial witness; a rigid refinement checks its
    # candidates with SplitAtom.holds, counted apart
    p, (r,) = sp.prime, sp.radii
    leaves = [a for a in formula_atoms(tree) if a is not None]
    sides = [poly for atom in leaves for poly in (atom.left, atom.right) if poly]
    centers = {Fraction(0)} | {a for poly in sides for a, _ in poly.roots}
    inside = [a for a in centers if NormValue.of_scalar(a, p) <= r]
    calls, norms, depth = [], [], [0]
    valuation, power, holds = projection._valuation, scalars._power, SplitAtom.holds

    def counting(n, d, q):
        if not depth[0]:
            calls.append(n)
        return valuation(n, d, q)

    def building(e):
        if not depth[0]:
            norms.append(e)
        return power(e)

    def reference(atom, center, rho, q):
        depth[0] += 1
        try:
            return holds(atom, center, rho, q)
        finally:
            depth[0] -= 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_valuation", counting)
        mp.setattr(scalars, "_power", building)
        mp.setattr(SplitAtom, "holds", reference)
        d = decide_exists(tree, sp)
    assert len(calls) <= len(centers) + len(sides) + len(inside) * len(centers)
    assert len(norms) == isinstance(d.witness, MonomialPoint)


def test_specialize_1var_returns_the_side_itself_only_on_the_target_space(rng):
    for p in (2, 3):
        target = space(p, ("T", 0))
        empty = RigidPoint(Space(p, ()), ())
        for _ in range(10):
            f = rand_series(rng, target).with_tail(nv(rng.randint(-6, 0)))
            assert _specialize_1var(f, empty, "T", target) is f
            assert f.substitute({"T": Series.variable(target, "T")}) == f
            # a wider disc for T, and a base variable x at a point
            for sp, x, fixed in ((space(p, ("T", 1)), empty, {}),
                                 (space(p, ("x", 0), ("T", 0)),
                                  RigidPoint(space(p, ("x", 0)), (Fraction(p, 5),)),
                                  {"x": Series.constant(target, Fraction(p, 5))})):
                g = rand_series(rng, sp).with_tail(nv(rng.randint(-6, 0)))
                got = _specialize_1var(g, x, "T", target)
                assert got is not g and got.space == target
                assert got == g.substitute({**fixed, "T": Series.variable(target, "T")})


def test_lemniscate_examples():
    P = SplitPoly(Fraction(1), ((Fraction(0), 1), (Fraction(2), 1)))
    region = lemniscate_region(P, "<=", nv(-3), unit_line())
    discs = sorted((d.center, d.radius, d.closed) for d in region)
    assert discs == [(Fraction(0), nv(-2), True), (Fraction(2), nv(-2), True)]

    T = SplitPoly(Fraction(1), ((Fraction(0), 1),))
    whole = lemniscate_region(T, "<=", ONE, unit_line())
    assert len(whole) == 1 and whole[0].radius == ONE

    roots_only = lemniscate_region(T, "<=", ZERO, unit_line())
    assert len(roots_only) == 1 and roots_only[0].radius == ZERO


def test_lemniscate_over_the_declared_disc():
    T = SplitPoly(Fraction(1), ((Fraction(0), 1),))
    wide = lemniscate_region(T, "<=", nv(1), space(2, ("T", 1)))
    assert [(d.center, d.radius) for d in wide] == [(Fraction(0), nv(1))]
    # |T - 1| = 1 on |T| <= 2^-1: no root inside, the whole disc
    T1 = SplitPoly(Fraction(1), ((Fraction(1), 1),))
    narrow = lemniscate_region(T1, "<=", ONE, space(2, ("T", -1)))
    assert narrow == (Disc(Fraction(0), nv(-1)),)
    assert lemniscate_region(T1, "<", ONE, space(2, ("T", -1))) == ()


def test_lemniscate_matches_direct_evaluation(rng):
    for _ in range(200):
        p = rng.choice([2, 3])
        n_roots = rng.randint(1, 3)
        roots = {}
        deg = 0
        for _ in range(n_roots):
            a = Fraction(rng.choice([0, 1, -1, p, 2 * p, p * p]))
            m = rng.randint(1, 2)
            if deg + m > 5:
                break
            roots[a] = roots.get(a, 0) + m
            deg += m
        if not roots:
            roots = {Fraction(0): 1}
        lead = Fraction(rng.choice([1, 2, 3])) * Fraction(p) ** rng.randint(-1, 1)
        P = SplitPoly(lead, tuple(sorted(roots.items())))
        cmp = rng.choice(["<=", "<"])
        c = NormValue.power(Fraction(rng.randint(-8, 4), rng.choice([1, 2])))
        sp = unit_line(p)
        region = lemniscate_region(P, cmp, c, sp)
        for _ in range(100):
            if rng.random() < 0.5:
                t = Fraction(rng.randint(-8, 8))
                if NormValue.of_scalar(t, p) > ONE:
                    continue
                point = RigidPoint(sp, (t,))
                val = P.value_at(t, ZERO, p)
            else:
                center = Fraction(rng.choice([0, 1, p]))
                rho = NormValue.power(Fraction(rng.randint(-6, 0),
                                               rng.choice([1, 2])))
                point = MonomialPoint(sp, (center,), (rho,))
                val = P.value_at(center, rho, p)
            want = val <= c if cmp == "<=" else val < c
            assert region_contains(region, point) == want


# roots u/w p^k of every size (0 among them), so that over radii p^e with
# -4 <= e <= 4 some lie inside the disc and some outside
lemniscate_roots = st.lists(st.tuples(st.sampled_from([1, -1, 2, 3, 7, 0]),
                                      st.sampled_from([1, 2, 3, 5]),
                                      st.integers(-3, 3), st.integers(1, 3)),
                            min_size=1, max_size=4)
# the level c: zero, a norm p^x, or p^k times |P| on the sphere |t| = r
# (which with no root inside is |P| on the whole disc)
lemniscate_level = st.one_of(
    st.just(("zero", 0)),
    st.tuples(st.just("norm"), st.builds(Fraction, st.integers(-9, 6),
                                         st.sampled_from([1, 2, 3]))),
    st.tuples(st.just("sphere"), st.integers(-1, 1)))


@given(st.sampled_from([2, 3, 5]),
       st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3])),
       st.sampled_from([1, -2, 3, Fraction(1, 2), Fraction(2, 9)]),
       lemniscate_level, lemniscate_roots, st.sampled_from(["<=", "<"]))
def test_lemniscate_discs_sit_on_the_level_property(p, e, lead, level, roots, cmp):
    # checked through the reference evaluation SplitPoly.value_at: each
    # disc is closed iff |P| cmp c holds on its boundary sphere; a root in
    # the disc with no disc of its own fails the comparison at the root
    # itself; with no root in the disc, the region is all of it or nothing
    sp, r = space(p, ("T", e)), nv(e)
    mults = {}
    for u, w, k, m in roots:
        a = Fraction(u, w) * Fraction(p) ** k
        mults[a] = mults.get(a, 0) + m
    P = SplitPoly(Fraction(lead), tuple(sorted(mults.items())))
    kind, x = level
    c = {"zero": ZERO, "norm": nv(x),
         "sphere": P.value_at(Fraction(0), r, p) * nv(x)}[kind]
    region = lemniscate_region(P, cmp, c, sp)

    def holds(center, rho):
        value = P.value_at(center, rho, p)
        return value <= c if cmp == "<=" else value < c

    inside = [a for a in mults if NormValue.of_scalar(a, p) <= r]
    if not inside:
        assert region == ((Disc(Fraction(0), r),) if holds(Fraction(0), r) else ())
        return
    for d in region:
        assert d.center in inside and d.radius <= r
        assert d.closed == holds(d.center, d.radius)
    centers = {d.center for d in region}
    for a in inside:
        if a not in centers:
            assert not holds(a, ZERO)


def test_decide_exists_examples():
    P = SplitPoly(Fraction(1), ((Fraction(0), 1), (Fraction(2), 1)))
    atom = SplitAtom(ONE, P, "<=", nv(-3), CONST1)
    d = decide_exists(And((atom,)), unit_line())
    assert d.status == "SAT"
    # pinned near 1: |t - 1| <= 2^-10
    pin = SplitAtom(ONE, SplitPoly(Fraction(1), ((Fraction(1), 1),)), "<=",
                    nv(-10), CONST1)
    assert decide_exists(And((atom, pin)), unit_line()).status == "UNSAT"

    t_only = SplitAtom(ONE, SplitPoly(Fraction(1), ((Fraction(0), 1),)),
                       "<=", ONE, CONST1)
    d3 = decide_exists(And((t_only,)), unit_line())
    assert d3.status == "SAT"
    assert isinstance(d3.witness, RigidPoint)


def test_decide_exists_of_a_bare_none_is_unsat():
    # an atom that did not split is false, also as the whole tree
    assert decide_exists(None, unit_line()) == Decision("UNSAT")
    assert decide_exists(Or((None,)), unit_line()) == Decision("UNSAT")


def test_decide_exists_at_the_degree_limit():
    # at degree MAX_POWER the scan's denominator 2 lcm(1..n) has about
    # 1,440 bits, more than a float holds, so the zero norm (a float) may
    # only be compared with the scaled exponents, never added to them
    sp3 = space(3, ("t", "1/2"))
    top = SplitPoly(Fraction(1), ((Fraction(0), MAX_POWER),))
    big = SplitPoly(Fraction(1, 3), ((Fraction(0), 500), (Fraction(1), 499),
                                     (Fraction(1, 3), 1)))
    tree = Or((And((SplitAtom(nv("-7/4"), big, "<", ONE,
                              SplitPoly(Fraction(1), ((Fraction(2), 997),))),
                    SplitAtom(ONE, T_1, "<=", nv("-2/3"), None))),
               SplitAtom(ZERO, big, "<", nv("-1/3"), top)))
    assert decide_exists(tree, sp3) == reference_decide(tree, sp3)
    # p^-1 < |t|^1000 < 1 holds only at monomial points, on the open
    # annulus p^-1/1000 < |t| < 1: the witness is its geometric midpoint
    unit = unit_line(3)
    assert decide_exists(And((SplitAtom(nv(-1), CONST1, "<", ONE, top),
                              SplitAtom(ONE, top, "<", ONE, CONST1))), unit) == Decision(
        "SAT", MonomialPoint(unit, (Fraction(0),), (nv("-1/2000"),)))
    assert lemniscate_region(top, "<=", nv(-1), unit) == (Disc(Fraction(0), nv("-1/1000")),)
    assert lemniscate_region(top, "<", ZERO, unit) == ()


def test_decide_exists_witnesses_verify(rng):
    for _ in range(40):
        p = rng.choice([2, 3])
        atoms = []
        for _ in range(rng.randint(1, 3)):
            roots = {}
            for _ in range(rng.randint(1, 2)):
                a = Fraction(rng.choice([0, 1, p]))
                roots[a] = roots.get(a, 0) + 1
            P = SplitPoly(Fraction(rng.choice([1, 2, 3])),
                          tuple(sorted(roots.items())))
            c = NormValue.power(rng.randint(-5, 2))
            op = rng.choice(["<=", "<"])
            if rng.random() < 0.5:
                atoms.append(SplitAtom(ONE, P, op, c, CONST1))
            else:
                atoms.append(SplitAtom(c, CONST1, op, ONE, P))
        d = decide_exists(And(tuple(atoms)), unit_line(p))
        if d.status == "SAT":
            w = d.witness
            if isinstance(w, RigidPoint):
                assert all(a.holds(w.coords[0], ZERO, p) for a in atoms)
            else:
                assert all(a.holds(w.center[0], w.rho[0], p) for a in atoms)


def test_decide_exists_threshold_monotone(rng):
    for _ in range(30):
        p = 2
        roots = {Fraction(rng.choice([0, 1, 2])): rng.randint(1, 2)}
        P = SplitPoly(Fraction(1), tuple(sorted(roots.items())))
        e = rng.randint(-6, 0)
        a1 = SplitAtom(ONE, P, "<=", NormValue.power(e), CONST1)
        a2 = SplitAtom(ONE, P, "<=", NormValue.power(e + 1), CONST1)
        d1 = decide_exists(And((a1,)), unit_line(p))
        d2 = decide_exists(And((a2,)), unit_line(p))
        if d1.status == "SAT":
            assert d2.status == "SAT"


def test_rigid_witness_preferred_on_value_group_radii():
    # the sphere |T| = 2^-1 contains rational points; the witness search
    # must surface one rather than fall back to a monomial point
    T = SplitPoly(Fraction(1), ((Fraction(0), 1),))
    sphere = And((SplitAtom(ONE, T, "<=", nv(-1), CONST1),
                  SplitAtom(nv(-1), CONST1, "<=", ONE, T)))
    d = decide_exists(sphere, unit_line())
    assert d.status == "SAT"
    assert isinstance(d.witness, RigidPoint)
    assert NormValue.of_scalar(d.witness.coords[0], 2) == nv(-1)


def test_gauss_circle_needs_monomial_witness():
    # |T| = 2^(-1/2) has no rigid points; the witness must be monomial
    band = And((
        SplitAtom(ONE, SplitPoly(Fraction(1), ((Fraction(0), 1),)), "<=",
                  nv("-1/2"), CONST1),
        SplitAtom(nv("-1/2"), CONST1, "<=", ONE,
                  SplitPoly(Fraction(1), ((Fraction(0), 1),))),
    ))
    d = decide_exists(band, unit_line())
    assert d.status == "SAT"
    assert isinstance(d.witness, MonomialPoint)
    assert d.witness.rho[0] == nv("-1/2")


def test_open_annulus_witness_radius_is_exact():
    # 1 < |T| < 2 holds at no rigid point, so the witness is the Gauss
    # point at the geometric midpoint 2^(1/2): an exact exponent, not 0.5
    sp = space(2, ("T", 1))
    (conj,) = to_dnf(parse_formula("1*|1| < |T| & |T| < 2^1*|1|", sp))
    status, witness = project_decision(conj.atoms, RigidPoint(Space(2, ()), ()), "T")
    assert status == "SAT" and isinstance(witness, MonomialPoint)
    (rho,) = witness.rho
    assert type(rho.exp) is Fraction and rho.exp == Fraction(1, 2)
    assert witness.text() == "gauss(0; 2^1/2)"


def test_qe_prepare_worked_example():
    sp = space(2, ("T", 1))
    f = poly(sp, {(1,): 1, (2,): 2})
    atom = Atom(ONE, f, "<=", nv(-1), Series.one(sp))
    (a,) = qe_prepare([atom], "T")
    assert a.alpha == ONE
    assert a.f.coeffs == {(1,): Fraction(1)}
    assert a.beta == nv(-1)

    monic = poly(sp, {(3,): 1})
    atom2 = Atom(ONE, monic, "<=", ONE, Series.one(sp))
    (a2,) = qe_prepare([atom2], "T")
    assert a2.f.coeffs == {(3,): Fraction(1)}
    assert a2.alpha == ONE


def test_qe_prepare_pointwise_equivalence(rng):
    sp = space(2, ("T", 1))
    unit_space = unit_line()
    f = poly(sp, {(1,): 1, (2,): 2})
    g = poly(sp, {(0,): 4, (1,): 2})
    atoms = [Atom(ONE, f, "<=", nv(-1), Series.one(sp)),
             Atom(nv(1), g, "<", ONE, f)]
    prepared = qe_prepare(atoms, "T")
    for _ in range(60):
        t = rand_rigid(rng, unit_space).coords[0]
        orig_pt = RigidPoint(sp, (t,))
        for atom, patom in zip(atoms, prepared):
            lhs = atom.f.eval_seminorm(orig_pt).value * atom.alpha
            rhs = atom.g.eval_seminorm(orig_pt).value * atom.beta
            want = lhs <= rhs if atom.op == "<=" else lhs < rhs
            pl = patom.f.substitute(
                {"T": Series.variable(unit_space, "T")}) \
                .eval_seminorm(RigidPoint(unit_space, (t,))).value
            pr = patom.g.substitute(
                {"T": Series.variable(unit_space, "T")}) \
                .eval_seminorm(RigidPoint(unit_space, (t,))).value
            got_l, got_r = patom.alpha * pl, patom.beta * pr
            got = got_l <= got_r if patom.op == "<=" else got_l < got_r
            assert got == want


def test_qe_prepare_rejects_unit_radii():
    sp = unit_line()
    atom = Atom(ONE, Series.variable(sp, "T"), "<=", ONE, Series.one(sp))
    with pytest.raises(ValueError, match="radii > 1"):
        qe_prepare([atom], "T")


def test_project_pointwise_examples():
    base = space(2, ("x", 0))
    sp = space(2, ("x", 0), ("t", 0))
    graph = Atom(ONE, poly(sp, {(1, 1): 1, (2, 0): -1}), "<=",
                 ZERO, Series.one(sp))  # t x - x^2 = 0
    at2 = RigidPoint(base, (2,))
    assert project_decision([graph], at2, "t")[0] == "SAT"

    bound = Atom(ONE, Series.constant(sp, 2), "<", ONE,
                 poly(sp, {(1, 0): 1}))  # |2| < |x| fails on the unit disc
    assert project_decision([graph, bound], at2, "t")[0] == "UNSAT"

    status, witness = project_decision([], at2, "t")
    assert status == "SAT" and witness.coords == (Fraction(0),)


def side_text(lead, roots):
    return "*".join([str(lead)] + [f"(T - {a})" for a in roots])


def fibre_atom_at(p):
    return st.builds(
        lambda a, left, op, b, right, neg: ("!" if neg else "") + (
            f"({p}^{a}*|{side_text(*left)}| {op} {p}^{b}*|{side_text(*right)}|)"),
        st.integers(-3, 2),
        st.tuples(st.sampled_from([1, 3, -1, 6]),
                  st.lists(st.sampled_from(["0", "1", "2", "1/3", "4"]),
                           max_size=2)),
        st.sampled_from(["<=", "<"]), st.integers(-3, 2),
        st.tuples(st.sampled_from([1, 2]),
                  st.lists(st.sampled_from(["0", "3", "6"]), max_size=1)),
        st.booleans())


fibre_atom = fibre_atom_at(2)


def fibre_formula_at(p):
    """DSL text: fibre atoms under (possibly negated) & and | nodes, or a
    disjunction of conjunctions, whose branches are often UNSAT."""
    def joined(parts, joiner):
        return st.lists(parts, min_size=2, max_size=3).map(
            lambda xs: "(" + joiner.join(xs) + ")")

    atom = fibre_atom_at(p)
    return st.one_of(
        st.recursive(atom, lambda sub: st.builds(
            lambda neg, text: ("!" if neg else "") + text, st.booleans(),
            joined(sub, " & ") | joined(sub, " | ")), max_leaves=5),
        joined(atom | joined(atom, " & "), " | "))


@given(st.lists(fibre_atom, min_size=1, max_size=3), st.sampled_from([" & ", " | "]))
def test_sat_witness_satisfies_the_formula(atoms, joiner):
    # a radius-1 pivot over an empty base: the witness lies on the
    # formula's own space, so eval_formula accepts it
    sp = unit_line()
    phi = parse_formula(joiner.join(atoms), sp)
    base = RigidPoint(Space(2, ()), ())
    for conj in to_dnf(phi):
        status, witness = project_decision(conj.atoms, base, "T")
        assert status in ("SAT", "UNSAT")
        if status == "SAT":
            assert witness.space == sp
            assert eval_conjunct(conj, witness) is True
            assert eval_formula(phi, witness) is True


def dnf_merged_status(phi, base, pivot):
    """The per-conjunct decisions over to_dnf(phi), merged: SAT if any is
    SAT, else UNKNOWN if any is UNKNOWN, else UNSAT."""
    found = {project_decision(c.atoms, base, pivot)[0] for c in to_dnf(phi)}
    if "SAT" in found:
        return "SAT"
    return "UNKNOWN" if "UNKNOWN" in found else "UNSAT"


@given(st.data())
def test_one_scan_decides_as_the_dnf_merge(data):
    # the whole formula in one call; random series atoms need not split,
    # which reaches UNKNOWN conjuncts and the sampling fallback
    p = data.draw(st.sampled_from([2, 3]))
    sp = unit_line(p)
    if data.draw(st.booleans()):
        seed, budget = data.draw(st.integers(0, 2 ** 32)), data.draw(st.integers(1, 5))
        phi = rand_formula(random.Random(seed), sp, budget)
    else:
        phi = parse_formula(data.draw(fibre_formula_at(p)), sp)
    base = RigidPoint(Space(p, ()), ())
    status, witness = project_decision(phi, base, "T")
    assert status == dnf_merged_status(phi, base, "T")
    if status == "SAT":
        assert eval_formula(phi, witness) is True


def test_project_pointwise_unsplittable_returns_unknown():
    base = space(2, ("x", 0))
    sp = space(2, ("x", 0), ("t", 0))
    # t^2 + 1 = 0 has no 2-adic rational roots and never vanishes on B
    irr = Atom(ONE, poly(sp, {(0, 2): 1, (0, 0): 1}), "<=",
               ZERO, Series.one(sp))
    status, witness = project_decision([irr], RigidPoint(base, (0,)), "t")
    assert status == "UNKNOWN" and witness is None


def test_no_split_after_a_side_fails_to_split(monkeypatch):
    import padicgeom.projection as projection
    calls = []
    real = projection.split_series

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(projection, "split_series", counting)
    base = space(2, ("x", 0))
    sp = space(2, ("x", 0), ("T", 0))
    (conj,) = to_dnf(parse_formula(
        "|T^2 + 1| <= |1| & |T - 1| <= |1| & |T - 3| <= |1|", sp))
    status, witness = project_decision(conj.atoms, RigidPoint(base, (0,)), "T")
    assert (status, witness.text()) == ("SAT", "(0)")
    assert len(calls) == 1  # T^2 + 1 does not split over Q
    # an Or none of whose atoms split is false, so the And around it
    # splits nothing more: one call for each side that fails, none for
    # |T - 1| <= |1|; the sampling fallback still finds the witness
    calls.clear()
    phi = parse_formula(
        "(|T^2 + 1| <= |1| | |T^2 + 3| <= |1|) & |T - 1| <= |1|", sp)
    status, witness = project_decision(phi, RigidPoint(base, (0,)), "T")
    assert (status, witness.text()) == ("SAT", "(0)")
    assert len(calls) == 2
