import gc
import hashlib
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from padicgeom import (And, Atom, ConstructibleSet, DatumChain,
                       ElementaryDatum, Not, NormValue, Or, RigidPoint,
                       Series, Space, VarSpec, complement, eval_formula,
                       formula_set, intersect, membership, neighborhood_datum,
                       parse_formula, simplify_divisible, to_dnf, union,
                       unit_coefficient_covering)
from padicgeom.constructible import _const_atom_truth
from padicgeom.formulas import (Seminorms, eval_conjunct, formula_atoms, map_atoms,
                                rename_formula_var, tautology, truth)
from padicgeom.series import compare_le
from conftest import (ONE, ZERO, nv, poly, rand_constructible, rand_formula,
                      rand_monomial, rand_rigid, space)


def B2(p=2):
    return space(p, ("x", 0), ("y", 0))


def worked_datum(region_text=None):
    sp = B2()
    ext = sp.extend(VarSpec("t", nv(1)))
    region = parse_formula(region_text, ext) if region_text else tautology(ext)
    d = ElementaryDatum("t", Series.variable(sp, "y"),
                        Series.variable(sp, "x"), nv(1), ONE, region)
    return ConstructibleSet(sp, (DatumChain(sp, tautology(sp), (d,)),))


def test_membership_examples():
    S = worked_datum()
    sp = S.space
    assert membership(S, RigidPoint(sp, (2, 4))) is True
    assert membership(S, RigidPoint(sp, (0, 0))) is False
    S2 = worked_datum("|t| <= 2^-1*|1|")
    assert membership(S2, RigidPoint(sp, (2, 8))) is True


def test_membership_chart_region():
    # t = y/x; the region |t| <= 2^-1 keeps (2,8) (t=4) and drops (2,2) (t=1)
    S2 = worked_datum("|t| <= 2^-1*|1|")
    sp = S2.space
    assert membership(S2, RigidPoint(sp, (2, 8))) is True
    assert membership(S2, RigidPoint(sp, (2, 2))) is False


def test_membership_reads_a_shared_region_at_each_chart_value():
    # both chains use one region object; their chart values differ at (2, 2)
    sp = B2()
    ext = sp.extend(VarSpec("t", nv(1)))
    region = parse_formula("|t| <= 2^-1*|1|", ext)
    x, y = Series.variable(sp, "x"), Series.variable(sp, "y")
    d1 = ElementaryDatum("t", y, x, nv(1), ONE, region)           # t = 1
    d2 = ElementaryDatum("t", y.scale(2), x, nv(1), ONE, region)  # t = 2
    chains = tuple(DatumChain(sp, tautology(sp), (d,)) for d in (d1, d2))
    pt = RigidPoint(sp, (2, 2))
    assert membership(ConstructibleSet(sp, chains[:1]), pt) is False
    assert membership(ConstructibleSet(sp, chains), pt) is True


def test_membership_is_unknown_when_a_tailed_region_atom_is_unknown():
    # the link t = y/x is exact; at (2, 8), t = 4 and |t| = 2^-2 against
    # 2^-2: a tail 2^-3 on the side keeps that value, a tail 2^-1 hides it
    sp = B2()
    ext = sp.extend(VarSpec("t", nv(1)))
    t = Series.variable(ext, "t")
    answers = []
    for tail in (nv(-3), nv(-1)):
        region = Atom(ONE, t.with_tail(tail), "<=", nv(-2), Series.one(ext))
        d = ElementaryDatum("t", Series.variable(sp, "y"),
                            Series.variable(sp, "x"), nv(1), ONE, region)
        S = ConstructibleSet(sp, (DatumChain(sp, tautology(sp), (d,)),))
        answers.append(membership(S, RigidPoint(sp, (2, 8))))
    assert answers == [True, None]


def other_space_atom(sp):
    """An atom over a space that differs from sp only in a radius."""
    other = space(sp.prime, *((v.name, 1) for v in sp.vars))
    return tautology(other)


def test_membership_rejects_base_region_on_another_space():
    sp = B2()
    S = formula_set(sp, other_space_atom(sp))
    with pytest.raises(ValueError, match="point/space mismatch"):
        membership(S, RigidPoint(sp, (2, 4)))


def test_membership_rejects_chart_region_on_another_space():
    S = worked_datum()
    sp = S.space
    link = S.chains[0].links[0]
    bad = ElementaryDatum(link.t_name, link.f, link.g, link.r, link.s,
                          other_space_atom(link.extended))
    S_bad = ConstructibleSet(sp, (DatumChain(sp, tautology(sp), (bad,)),))
    with pytest.raises(ValueError, match="point/space mismatch"):
        membership(S_bad, RigidPoint(sp, (2, 4)))
    # the region is read only where the chart holds: at (0, 0), g = 0
    assert membership(S_bad, RigidPoint(sp, (0, 0))) is False


def test_membership_rejects_point_outside_polydisc():
    S = worked_datum()
    with pytest.raises(ValueError, match="outside"):
        membership(S, RigidPoint(S.space, (Fraction(1, 2), 0)))


def test_membership_accepts_chart_domain_built_separately():
    # the chart's f and g live on a space equal to the base, built apart
    S = worked_datum("|t| <= 2^-1*|1|")
    sp = S.space
    twin = B2()
    assert twin == sp and twin is not sp
    link = S.chains[0].links[0]
    moved = ElementaryDatum(link.t_name, Series.variable(twin, "y"),
                            Series.variable(twin, "x"), link.r, link.s,
                            link.region)
    S_twin = ConstructibleSet(sp, (DatumChain(sp, tautology(sp), (moved,)),))
    for xy in ((2, 8), (2, 2), (0, 0), (4, 4), (2, 4), (0, 2)):
        x = RigidPoint(sp, xy)
        assert membership(S_twin, x) is membership(S, x)


# -- the membership walk against a naive one ------------------------------------


def naive_membership(cs, x):
    """Membership walked with an explicit extended point per link, checked
    whole against the link's space, and one eval_formula per region."""
    x.check_in(cs.space)
    out = False
    for chain in cs.chains:
        v = eval_formula(chain.base_region, x)
        pt = x
        for link in chain.links:
            if v is False:
                break
            lhs = link.f.eval_seminorm(pt)
            rhs = link.g.eval_seminorm(pt)
            if link.g.tail.is_zero and rhs.value.is_zero:
                v = False
                break
            if compare_le(lhs, rhs.scaled(link.s)) is False:
                v = False
                break
            if not (link.f.tail.is_zero and link.g.tail.is_zero):
                v = None
                break
            t = link.f.eval_exact(pt.coords) / link.g.eval_exact(pt.coords)
            pt = RigidPoint(link.extended, pt.coords + (t,))
            pt.check_in(link.extended)
            rv = eval_formula(link.region, pt)
            if rv is False:
                v = False
            elif rv is None and v is True:
                v = None
        if v is True:
            return True
        if v is None:
            out = None
    return out


def sharing_set(A, B):
    """Chains that reuse A's link objects under B's base regions, a second
    link grafted onto each first link of A, and first links that keep f
    but change g, or keep f and g but rename the chart."""
    sp = A.space
    chains = []
    for ch in A.chains:
        for other in B.chains:
            chains.append(DatumChain(sp, other.base_region, ch.links))
            if ch.links:
                head = ch.links[0]
                chains.append(DatumChain(sp, other.base_region, (
                    ElementaryDatum(head.t_name, head.f,
                                    head.g.scale(sp.prime), head.r, head.s,
                                    head.region),)))
                chains.append(DatumChain(sp, other.base_region, (
                    ElementaryDatum("v", head.f, head.g, head.r, head.s,
                                    rename_formula_var(head.region,
                                                       head.t_name, "v")),)))
                ext = head.extended
                for tail_chain in B.chains:
                    for link in tail_chain.links[:1]:
                        second = ElementaryDatum(
                            "u", link.f.lift_to(ext), link.g.lift_to(ext),
                            link.r, link.s,
                            tautology(ext.extend(VarSpec("u", link.r))))
                        chains.append(DatumChain(sp, ch.base_region,
                                                 (head, second)))
    return ConstructibleSet(sp, tuple(chains))


@given(st.integers(0, 2 ** 32 - 1))
def test_membership_matches_naive_walk_property(seed):
    A, B, points = rand_pair_and_points(seed, count=6)
    sets = [A, B, complement(A), intersect(A, B), union(A, B), union(A, A),
            intersect(A, A), sharing_set(A, B)]
    for cs in sets:
        for x in points:
            assert membership(cs, x) is naive_membership(cs, x)


# -- pinned read answers ------------------------------------------------------------

READ_SCALES = (ONE, ONE, nv(1), nv(-1), nv("1/2"))


def tailed(rng, f):
    """f, or one time in four f with a tail 2^-3 .. 2^0."""
    return f.with_tail(nv(-rng.randint(0, 3))) if rng.random() < 0.25 else f


def tailed_atoms(rng, phi):
    """phi with tails on some atom sides and scales drawn for every atom."""
    return map_atoms(phi, lambda a: Atom(rng.choice(READ_SCALES), tailed(rng, a.f), a.op,
                                         rng.choice(READ_SCALES), tailed(rng, a.g)))


def tailed_set(rng, cs):
    """cs with tails on some series, chart thresholds s in {1, p^-1, p^(1/2)}
    and scaled region atoms."""
    chains = []
    for ch in cs.chains:
        links = tuple(ElementaryDatum(link.t_name, tailed(rng, link.f), tailed(rng, link.g),
                                      link.r, rng.choice((ONE, nv(-1), nv("1/2"))),
                                      tailed_atoms(rng, link.region))
                      for link in ch.links)
        chains.append(DatumChain(cs.space, tailed_atoms(rng, ch.base_region), links))
    return ConstructibleSet(cs.space, tuple(chains))


def test_read_answers_are_pinned():
    # membership, eval_formula and eval_conjunct answers of 150 seeded
    # instances (six sets, a formula and its DNF, rigid and monomial points),
    # hashed: reads may change how they decide, not what
    digest = hashlib.sha256()
    seen = set()
    for seed in range(150):
        rng = random.Random(seed)
        p = rng.choice([2, 3])
        sp = space(p, ("x", 0)) if rng.random() < 0.5 else space(p, ("x", 0), ("y", 0))
        A = rand_constructible(rng, sp)
        B = tailed_set(rng, rand_constructible(rng, sp))
        A_tailed = tailed_set(rng, A)
        sets = [A, complement(A), A_tailed, B, union(A_tailed, B), intersect(A_tailed, B)]
        phi = tailed_atoms(rng, rand_formula(rng, sp, 4))
        rigid = [rand_rigid(rng, sp) for _ in range(4)]
        points = rigid + [rand_monomial(rng, sp) for _ in range(2)]
        answers = [membership(cs, x) for cs in sets for x in rigid]
        answers += [eval_formula(phi, x) for x in points]
        answers += [eval_conjunct(c, x) for c in to_dnf(phi) for x in points]
        seen.update(answers)
        digest.update(repr(answers).encode())
    assert seen == {True, False, None}
    assert digest.hexdigest()[:16] == "98a5a18d33dcc647"


# -- allocation and sharing guards: call counts, not timings ----------------------


def counting(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def charted_pairs(rng, count):
    """(set, points) pairs whose sets carry chart links."""
    out = []
    while len(out) < count:
        sp = space(rng.choice([2, 3]), ("x", 0), ("y", 0))
        A = rand_constructible(rng, sp)
        if A.complexity:
            out.append((A, [rand_rigid(rng, sp) for _ in range(10)]))
    return out


def test_membership_builds_no_space(rng, monkeypatch):
    pairs = charted_pairs(rng, 6)
    built = [(S, points) for A, points in pairs
             for S in (A, complement(A), union(A, A), intersect(A, A))]
    spaces = counting(monkeypatch, Space, "__init__")
    for S, points in built:
        for x in points:
            membership(S, x)
    assert not spaces


def test_union_with_itself_evaluates_no_series_twice(rng, monkeypatch):
    pairs = charted_pairs(rng, 6)
    doubled = [(A, union(A, A), points) for A, points in pairs]
    calls = counting(monkeypatch, Series, "eval_ints")
    walked = 0
    for A, AA, points in doubled:
        for x in points:
            del calls[:]
            want = membership(A, x)
            single = len(calls)
            del calls[:]
            assert membership(AA, x) is want
            assert len(calls) <= single
            walked += want is False
    assert walked  # some points walk every chain of A twice in A u A


# -- the point memo: one set of tables per point, across calls --------------------


def five_sets(A, B):
    return [A, B, complement(A), intersect(A, B), union(A, B)]


def test_five_sets_check_a_point_once_and_evaluate_each_series_once(rng, monkeypatch):
    cases = [(five_sets(A, rand_constructible(rng, A.space)), points)
             for A, points in charted_pairs(rng, 6)]
    checks = counting(monkeypatch, RigidPoint, "check_in")
    evals = []
    original = Series.eval_ints

    def recording(f, coords, rows):
        evals.append((coords, f))  # the coords tuple is the point's own
        return original(f, coords, rows)

    monkeypatch.setattr(Series, "eval_ints", recording)
    for sets, points in cases:
        for x in points:
            del checks[:], evals[:]
            for cs in sets:
                membership(cs, x)
            assert len(checks) == 1
            assert evals
            assert len({(id(c), id(f)) for c, f in evals}) == len(evals)


def test_five_sets_value_each_constant_once_across_points(rng, monkeypatch):
    # a constant's seminorm is the same at every point: it is kept on the
    # series, so no constant goes through eval_ints once per point
    cases = [(five_sets(A, rand_constructible(rng, A.space)), points)
             for A, points in charted_pairs(rng, 6)]
    evals = []
    original = Series.eval_ints

    def recording(f, coords, rows):
        evals.append(f)
        return original(f, coords, rows)

    monkeypatch.setattr(Series, "eval_ints", recording)
    for sets, points in cases:
        constants = [f for cs in sets for ch in cs.chains
                     for phi in [ch.base_region] + [l.region for l in ch.links]
                     for atom in formula_atoms(phi) for f in (atom.f, atom.g)
                     if f.constant_seminorm() is not None]
        assert constants
        del evals[:]
        for x in points:
            for cs in sets:
                assert membership(cs, x) is not None
        valued = [f for f in evals if f.constant_seminorm() is not None]
        assert len({id(f) for f in valued}) == len(valued)


@given(st.integers(0, 2 ** 32 - 1))
def test_constant_atom_truth_decides_only_exact_constants_property(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    sp = space(p, ("x", 0))
    sides = [Series.zero(sp), Series.one(sp), Series.variable(sp, "x"),
             Series.constant(sp, Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             * Fraction(p) ** rng.randint(-2, 2))]
    sides += [f.with_tail(nv(rng.randint(-3, 1))) for f in sides]
    scales = [ZERO, ONE, nv(rng.randint(-2, 2))]
    for _ in range(20):
        alpha, beta = rng.choice(scales), rng.choice(scales)
        if alpha.is_zero and beta.is_zero:
            continue
        atom = Atom(alpha, rng.choice(sides), rng.choice(["<=", "<"]), beta,
                    rng.choice(sides))
        cf, cg = atom.f.as_scalar(), atom.g.as_scalar()
        want = None
        if cf is not None and cg is not None:
            lhs = alpha * NormValue.of_scalar(cf, p)
            rhs = beta * NormValue.of_scalar(cg, p)
            want = lhs <= rhs if atom.op == "<=" else lhs < rhs
        assert _const_atom_truth(atom) is want


def test_intersect_keeps_the_series_objects_of_a_chartless_first_chain(rng):
    for A, _ in charted_pairs(rng, 6):
        first = DatumChain(A.space, tautology(A.space), ())
        AB = intersect(ConstructibleSet(A.space, (first,)), A)
        for mine, theirs in zip(AB.chains, A.chains):
            assert all(a.f is b.f and a.g is b.g
                       for a, b in zip(mine.links, theirs.links))


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValueError as e:
        return "error", str(e)


@given(st.integers(0, 2 ** 32 - 1))
def test_used_point_answers_as_a_fresh_one_property(seed):
    # the five sets, the same pair rebuilt on an equal space built apart,
    # one set and one formula on a space with other radii (which must
    # raise at every call), and the base regions read by eval_formula
    A, B, points = rand_pair_and_points(seed, count=4)
    A2, B2_, _ = rand_pair_and_points(seed, count=0)
    assert A2 == A and A2.space is not A.space
    sp = A.space
    odd = other_space_atom(sp)
    sets = five_sets(A, B) + five_sets(A2, B2_) + [formula_set(odd.space, odd)]
    queries = [lambda x, cs=cs: membership(cs, x) for cs in sets]
    queries += [lambda x, phi=ch.base_region: eval_formula(phi, x)
                for cs in (A, B2_) for ch in cs.chains]
    queries.append(lambda x: eval_formula(odd, x))
    rng = random.Random(seed)
    for x in points:
        rng.shuffle(queries)
        for q in queries + queries:
            assert outcome(q, x) == outcome(q, RigidPoint(sp, x.coords))


def test_errors_repeat_at_a_used_point():
    S = worked_datum("|t| <= 2^-1*|1|")
    sp = S.space
    x = RigidPoint(sp, (2, 8))
    assert membership(S, x) is True
    bad = formula_set(sp, other_space_atom(sp))
    link = S.chains[0].links[0]
    bad_chart = ConstructibleSet(sp, (DatumChain(sp, tautology(sp), (
        ElementaryDatum(link.t_name, link.f, link.g, link.r, link.s,
                        other_space_atom(link.extended)),)),))
    for _ in range(2):
        for cs in (bad, bad_chart):
            with pytest.raises(ValueError, match="point/space mismatch"):
                membership(cs, x)
        with pytest.raises(ValueError, match="point/space mismatch"):
            eval_formula(other_space_atom(sp), x)
    assert membership(S, x) is True
    outside = RigidPoint(sp, (Fraction(1, 2), 0))
    for _ in range(2):
        with pytest.raises(ValueError, match="outside"):
            membership(S, outside)
    # t = y/x = 1/4 lies outside |t| <= 2 (the chart constraint, |y| <= |x|,
    # fails first, so membership never asks; the chart itself must refuse)
    y = RigidPoint(sp, (4, 1))
    assert membership(S, y) is False
    for _ in range(2):
        with pytest.raises(ValueError, match="outside"):
            Seminorms(y).chart(link.f, link.g, link.extended)


def test_used_point_is_freed_by_refcount():
    S = worked_datum("|t| <= 2^-1*|1|")
    sp = S.space
    x, twin = RigidPoint(sp, (2, 8)), RigidPoint(sp, (2, 8))
    before = (hash(x), repr(x))
    gc.disable()
    try:
        assert membership(S, x) is True
        assert membership(complement(S), x) is False
        assert membership(union(S, S), x) is True
        assert eval_formula(S.chains[0].base_region, x) is True
        assert (hash(x), repr(x)) == before
        assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
        link = S.chains[0].links[0]
        child = Seminorms(x).chart(link.f, link.g, link.extended).point
        refs = weakref.ref(x), weakref.ref(child)
        del x, child
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_complement_formula_base_case():
    sp = B2()
    S = formula_set(sp, parse_formula("|x| <= 2^-1*|1|", sp))
    C = complement(S)
    assert all(not ch.links for ch in C.chains)
    assert membership(C, RigidPoint(sp, (1, 0))) is True
    assert membership(C, RigidPoint(sp, (2, 0))) is False


def test_complement_catches_vanishing_denominator():
    S = worked_datum()
    C = complement(S)
    sp = S.space
    assert membership(C, RigidPoint(sp, (0, 0))) is True
    assert membership(C, RigidPoint(sp, (2, 4))) is False


def kleene_not(v):
    return None if v is None else (not v)


def test_boolean_calculus_pointwise(rng):
    for p in (2, 3):
        sp = space(p, ("x", 0), ("y", 0))
        for _ in range(8):
            A = rand_constructible(rng, sp)
            B = rand_constructible(rng, sp)
            notA = complement(A)
            AB = intersect(A, B)
            AuB = union(A, B)
            for _ in range(25):
                x = rand_rigid(rng, sp)
                va, vb = membership(A, x), membership(B, x)
                assert va is not None and vb is not None
                assert membership(notA, x) is kleene_not(va)
                assert membership(AB, x) is (va and vb)
                assert membership(AuB, x) is (va or vb)


@given(st.integers(0, 2 ** 32 - 1))
def test_kleene_identities_property(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    sp = space(p, ("x", 0)) if rng.random() < 0.5 \
        else space(p, ("x", 0), ("y", 0))
    A = rand_constructible(rng, sp)
    B = rand_constructible(rng, sp)
    notA, AB, AuB = complement(A), intersect(A, B), union(A, B)
    for _ in range(10):
        x = rand_rigid(rng, sp)
        va, vb = membership(A, x), membership(B, x)
        assert va is not None and vb is not None
        assert membership(notA, x) is (not va)
        assert membership(AB, x) is (va and vb)
        assert membership(AuB, x) is (va or vb)


def rand_pair_and_points(seed, max_links=2, count=10):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    sp = space(p, ("x", 0)) if rng.random() < 0.5 \
        else space(p, ("x", 0), ("y", 0))
    A = rand_constructible(rng, sp, max_links)
    B = rand_constructible(rng, sp, max_links)
    return A, B, [rand_rigid(rng, sp) for _ in range(count)]


@given(st.integers(0, 2 ** 32 - 1))
def test_complement_involution_property(seed):
    # complement multiplies out chains: a first complement of 8 chains gives
    # a second of up to 1024, and of 12 chains one of 393,216 (minutes of
    # membership), so larger cases are left out to bound the run time
    A, _, points = rand_pair_and_points(seed, max_links=1)
    C = complement(A)
    assume(len(C.chains) <= 8)
    CC = complement(C)
    for x in points:
        assert membership(CC, x) is membership(A, x)


@given(st.integers(0, 2 ** 32 - 1))
def test_de_morgan_property(seed):
    A, B, points = rand_pair_and_points(seed)
    left = complement(union(A, B))
    right = intersect(complement(A), complement(B))
    for x in points:
        assert membership(left, x) is membership(right, x)


def const_truth_reference(phi):
    """Emptiness pruning's rule written as two mutually recursive
    functions: False when phi is false whatever its non-constant atoms
    are, True when it is true whatever they are, else None."""
    def always_false(phi):
        if isinstance(phi, Atom):
            return _const_atom_truth(phi) is False
        if isinstance(phi, Not):
            return always_true(phi.arg)
        if isinstance(phi, And):
            return any(always_false(a) for a in phi.args)
        return all(always_false(a) for a in phi.args)

    def always_true(phi):
        if isinstance(phi, Atom):
            return _const_atom_truth(phi) is True
        if isinstance(phi, Not):
            return always_false(phi.arg)
        if isinstance(phi, And):
            return all(always_true(a) for a in phi.args)
        return any(always_true(a) for a in phi.args)

    if always_false(phi):
        return False
    return True if always_true(phi) else None


def const_mixed_formula(sp):
    """Not/And/Or trees over constant atoms (true |2| <= |1|, false
    |1| < 0*|1|) and random criterion-7 formulas."""
    const = st.sampled_from([parse_formula("|2| <= |1|", sp),
                             parse_formula("|1| < 0*|1|", sp)])
    rand = st.builds(lambda seed, budget: rand_formula(random.Random(seed), sp, budget),
                     st.integers(0, 2 ** 32 - 1), st.integers(1, 2))
    return st.recursive(const | rand, lambda sub: st.one_of(
        sub.map(Not),
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: And(tuple(xs))),
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: Or(tuple(xs)))),
        max_leaves=8)


@given(st.data())
def test_emptiness_pruning_matches_its_reference_property(data):
    # chains are pruned where truth(region, _const_atom_truth) is False;
    # the Kleene walk must give the reference's answer, and a decided
    # answer must be the region's value at every point
    p = data.draw(st.sampled_from([2, 3]))
    sp = space(p, ("x", 0), ("y", 0))
    phi = data.draw(const_mixed_formula(sp))
    v = truth(phi, _const_atom_truth)
    assert v is const_truth_reference(phi)
    if v is not None:
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        for _ in range(3):
            assert eval_formula(phi, rand_rigid(rng, sp)) is v


def test_double_complement(rng):
    sp = B2()
    for _ in range(4):
        A = rand_constructible(rng, sp, max_links=1)
        CC = complement(complement(A))
        for _ in range(20):
            x = rand_rigid(rng, sp)
            assert membership(CC, x) is membership(A, x)


def test_intersect_with_full_space_is_identity(rng):
    sp = B2()
    from padicgeom.constructible import full_set
    A = rand_constructible(rng, sp)
    F = full_set(sp)
    AF = intersect(A, F)
    for _ in range(30):
        x = rand_rigid(rng, sp)
        assert membership(AF, x) is membership(A, x)


def test_intersect_concatenates_complexity(rng):
    sp = B2()
    A = random_set_with_links(rng, sp, 1)
    B = random_set_with_links(rng, sp, 1)
    AB = intersect(A, B)
    assert AB.complexity == 2


def test_intersect_renames_charts_that_collide():
    S = worked_datum("|t| <= 2^-1*|1|")
    SS = intersect(S, S)
    assert SS.chains[0].chart_names() == ["t", "t_2"]
    # the second factor's charts t and t_2: t must not become t_2
    SSS = intersect(S, SS)
    assert SSS.chains[0].chart_names() == ["t", "t_3", "t_2"]
    sp = S.space
    for xy in ((2, 8), (2, 2), (0, 0), (4, 4)):
        x = RigidPoint(sp, xy)
        assert membership(SSS, x) is membership(S, x)


def random_set_with_links(rng, sp, n_links):
    while True:
        s = rand_constructible(rng, sp, max_links=n_links)
        if s.complexity == n_links:
            return s


def test_intersection_associative_pointwise(rng):
    sp = B2()
    A, B, C = (rand_constructible(rng, sp, max_links=1) for _ in range(3))
    left = intersect(intersect(A, B), C)
    right = intersect(A, intersect(B, C))
    for _ in range(25):
        x = rand_rigid(rng, sp)
        assert membership(left, x) is membership(right, x)


def test_simplify_divisible_weierstrass_case():
    sp = B2()
    x, y = Series.variable(sp, "x"), Series.variable(sp, "y")
    ext = sp.extend(VarSpec("t", nv(1)))
    d = ElementaryDatum("t", x.pow(2) * y, x.pow(2), nv(1), ONE, tautology(ext))
    kind, d2 = simplify_divisible(d, y, "g_divides_f")
    assert kind == "weierstrass"
    assert d2.f == y and d2.g == Series.one(sp)
    # membership equality against the original datum
    S1 = ConstructibleSet(sp, (DatumChain(sp, tautology(sp), (d,)),))
    S2 = ConstructibleSet(sp, (DatumChain(sp, tautology(sp), (d2,)),))
    for coords in [(1, 2), (2, 4), (0, 1), (3, 1), (1, 0), (2, 3)]:
        pt = RigidPoint(sp, coords)
        assert membership(S1, pt) is membership(S2, pt)


def test_simplify_divisible_trivial_and_laurent():
    sp = B2()
    x = Series.variable(sp, "x")
    ext = sp.extend(VarSpec("t", nv(1)))
    d = ElementaryDatum("t", x, x, nv(1), ONE, tautology(ext))
    kind, d2 = simplify_divisible(d, Series.one(sp), "g_divides_f")
    assert kind == "weierstrass"
    S1 = ConstructibleSet(sp, (DatumChain(sp, tautology(sp), (d,)),))
    S2 = ConstructibleSet(sp, (DatumChain(sp, tautology(sp), (d2,)),))
    for coords in [(1, 0), (0, 0), (2, 1)]:
        pt = RigidPoint(sp, coords)
        assert membership(S1, pt) is membership(S2, pt)

    dL = ElementaryDatum("t", x, x * x, nv(1), ONE, tautology(ext))
    kindL, dL2 = simplify_divisible(dL, x, "f_divides_g")
    assert kindL == "laurent"
    assert dL2.f == Series.one(sp) and dL2.g == x
    S3 = ConstructibleSet(sp, (DatumChain(sp, tautology(sp), (dL,)),))
    S4 = ConstructibleSet(sp, (DatumChain(sp, tautology(sp), (dL2,)),))
    for coords in [(1, 0), (0, 0), (2, 1), (3, 2)]:
        pt = RigidPoint(sp, coords)
        assert membership(S3, pt) is membership(S4, pt)


def test_simplify_divisible_carries_chart_region():
    sp = B2()
    x, y = Series.variable(sp, "x"), Series.variable(sp, "y")
    ext = sp.extend(VarSpec("t", nv(1)))
    region = parse_formula("|t| <= 2^-1*|1|", ext)
    d = ElementaryDatum("t", x.pow(2) * y, x.pow(2), nv(1), ONE, region)
    _, d2 = simplify_divisible(d, y, "g_divides_f")
    S1 = ConstructibleSet(sp, (DatumChain(sp, tautology(sp), (d,)),))
    S2 = ConstructibleSet(sp, (DatumChain(sp, tautology(sp), (d2,)),))
    for a in range(-4, 5):
        for b in range(-4, 5):
            pt = RigidPoint(sp, (Fraction(a), Fraction(b)))
            assert membership(S1, pt) is membership(S2, pt)


def test_membership_rejects_monomial_points():
    from padicgeom import MonomialPoint
    S = worked_datum()
    eta = MonomialPoint(S.space, (0, 0), (ONE, ONE))
    with pytest.raises(ValueError, match="rigid"):
        membership(S, eta)


def test_simplify_divisible_rejects_bad_identity():
    sp = B2()
    x, y = Series.variable(sp, "x"), Series.variable(sp, "y")
    ext = sp.extend(VarSpec("t", nv(1)))
    d = ElementaryDatum("t", x * y, x, nv(1), ONE, tautology(ext))
    with pytest.raises(ValueError):
        simplify_divisible(d, x, "g_divides_f")


def test_neighborhood_datum():
    sp = space(2, ("T", 0))
    T = Series.variable(sp, "T")
    chain = neighborhood_datum(sp, [T], Series.one(sp),
                               [nv(-1)], [nv("-3/2")])
    S = ConstructibleSet(sp, (chain,))
    # |4| = 2^-2 <= 2^-3/2
    assert membership(S, RigidPoint(sp, (4,))) is True
    assert membership(S, RigidPoint(sp, (1,))) is False
    g0 = T  # vanishing denominator at the test point
    chain2 = neighborhood_datum(sp, [Series.one(sp).scale(Fraction(1, 8))],
                                g0, [nv(-1)], [nv("-3/2")])
    S2 = ConstructibleSet(sp, (chain2,))
    assert membership(S2, RigidPoint(sp, (0,))) is False


def test_neighborhood_datum_radius_checks():
    sp = space(2, ("T", 0))
    with pytest.raises(ValueError):
        neighborhood_datum(sp, [Series.variable(sp, "T")], Series.one(sp),
                           [nv(-1)], [nv(-3)])  # s < r/2


def test_unit_coefficient_covering_worked_example():
    # base B^1 with coordinate a; f = a T + a^2 T^2
    sp = space(2, ("a", 0), ("T", 0))
    f = poly(sp, {(1, 1): 1, (2, 2): 1})
    members = [(1,), (2,)]
    phis = {(1,): Series.zero(sp), (2,): Series.zero(sp)}
    pieces = unit_coefficient_covering(f, ["T"], members, phis)
    by_index = {p.index: p for p in pieces}
    piece1 = by_index[(1,)]
    assert piece1.chain.complexity == 1
    link = piece1.chain.links[0]
    assert link.f == poly(space(2, ("a", 0)), {(2,): 1})
    assert link.g == poly(space(2, ("a", 0)), {(1,): 1})
    # cofactor T + t T^2 with coefficient 1 at nu = (1,)
    cof = piece1.cofactor
    assert cof.coeffs.get((0, 1, 0)) == 1
    base = space(2, ("a", 0))
    assert membership(ConstructibleSet(base, (piece1.chain,)),
                      RigidPoint(base, (2,))) is True
    assert membership(ConstructibleSet(base, (piece1.chain,)),
                      RigidPoint(base, (0,))) is False
    # the residual piece covers the vanishing locus
    residual = by_index[None]
    assert membership(ConstructibleSet(base, (residual.chain,)),
                      RigidPoint(base, (0,))) is True


def test_unit_coefficient_covering_degenerate_and_zero():
    sp = space(2, ("a", 0), ("T", 0))
    # scalar unit coefficient: f = 3 T + a T^2 with J = {(1,)}
    f = poly(sp, {(0, 1): 3, (1, 2): 1})
    phis = {(1,): poly(sp, {(1, 2): "1/3"})}
    pieces = unit_coefficient_covering(f, ["T"], [(1,)], phis)
    assert len(pieces) == 1 and pieces[0].index == (1,)
    assert not pieces[0].chain.links

    zero = Series.zero(sp)
    pieces0 = unit_coefficient_covering(zero, ["T"], [], {})
    assert len(pieces0) == 1 and pieces0[0].index is None
    base = space(2, ("a", 0))
    assert membership(ConstructibleSet(base, (pieces0[0].chain,)),
                      RigidPoint(base, (5,))) is True


def test_unit_coefficient_covering_rejects_inconsistency():
    sp = space(2, ("a", 0), ("T", 0))
    f = poly(sp, {(1, 1): 1})
    with pytest.raises(ValueError):
        unit_coefficient_covering(f, ["T"], [(1,)],
                                  {(1,): Series.one(sp)})
