import copy
import gc
import pickle
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicgeom import (And, Atom, MonomialPoint, Not, NormValue, Or,
                       RigidPoint, Series, eval_formula, formula_text, formulas,
                       negate, parse_formula, to_dnf)
from padicgeom.formulas import (FormulaSyntaxError, _tokenize, dnf_to_formula,
                                eval_conjunct, map_atoms, parse_poly)
from padicgeom.series import MAX_POWER
from conftest import (ONE, ZERO, nv, poly, rand_formula, rand_monomial,
                      rand_nonzero_series, rand_rigid, space)


def XY(p=2):
    return space(p, ("x", 0), ("y", 0))


def test_parse_atom_with_scales():
    sp = XY()
    phi = parse_formula("|x^2 - 2*y| <= 2^-1 * |y|", sp)
    assert isinstance(phi, Atom)
    assert phi.alpha == ONE and phi.beta == nv(-1)
    assert phi.f == poly(sp, {(2, 0): 1, (0, 1): -2})
    assert phi.g == Series.variable(sp, "y")
    assert phi.op == "<="


def test_parse_connectives_and_equality_encoding():
    sp = XY()
    phi = parse_formula("!(|x| < |y|) & |y| <= |1|", sp)
    assert isinstance(phi, And) and isinstance(phi.args[0], Not)
    zero_atom = parse_formula("|x| <= 0 * |1|", sp)
    assert zero_atom.beta == ZERO
    x0 = RigidPoint(sp, (0, 2))
    x1 = RigidPoint(sp, (1, 2))
    assert eval_formula(zero_atom, x0) is True
    assert eval_formula(zero_atom, x1) is False


def test_eval_rejects_point_outside_polydisc():
    sp = XY()
    phi = parse_formula("|x| <= |1| & |y| <= |x|", sp)
    outside = RigidPoint(sp, (0, Fraction(1, 4)))
    with pytest.raises(ValueError, match="outside"):
        eval_formula(phi, outside)
    with pytest.raises(ValueError, match="outside"):
        eval_conjunct(to_dnf(phi)[0], outside)


def test_eval_rejects_atom_on_another_space():
    sp = XY()
    other = space(2, ("x", 0), ("y", 1))
    phi = And((parse_formula("|x| <= 0*|1|", sp),
               parse_formula("|y| <= |x|", other)))
    with pytest.raises(ValueError, match="point/space mismatch"):
        eval_formula(phi, RigidPoint(sp, (0, 1)))
    # a false conjunct decides before the other space is reached
    assert eval_formula(phi, RigidPoint(sp, (1, 1))) is False


def test_parse_errors():
    sp = XY()
    with pytest.raises(FormulaSyntaxError):
        parse_formula("|x| <=", sp)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("|z| <= |1|", sp)


def test_negate_examples():
    sp = XY()
    a = parse_formula("|x| <= |y|", sp)
    na = negate(a)
    assert isinstance(na, Atom) and na.op == "<" and na.f == a.g and na.g == a.f
    eq = parse_formula("|x| <= 0*|1|", sp)
    neq = negate(eq)
    assert neq.op == "<" and neq.alpha == ZERO
    assert negate(Not(a)) == a


def test_dnf_distribution():
    sp = XY()
    phi = parse_formula("(|x| <= |1| | |y| <= |1|) & |x - y| < |1|", sp)
    conjuncts = to_dnf(phi)
    assert len(conjuncts) == 2
    assert all(len(c.atoms) == 2 for c in conjuncts)
    single = to_dnf(parse_formula("|x| < |y|", sp))
    assert len(single) == 1 and len(single[0].atoms) == 1


def test_dnf_of_contradiction_evaluates_false(rng):
    sp = XY()
    a = parse_formula("|x| <= 2^-1*|1|", sp)
    phi = And((a, Not(a)))
    conjuncts = to_dnf(phi)
    for _ in range(30):
        x = rand_rigid(rng, sp)
        assert eval_formula(dnf_to_formula(conjuncts), x) is False


def test_eval_examples():
    sp = space(2, ("T", 0))
    phi = parse_formula("|T| <= 2^-1*|1|", sp)
    assert eval_formula(phi, RigidPoint(sp, (2,))) is True
    eta = MonomialPoint(sp, (0,), (nv("-1/2"),))
    assert eval_formula(phi, eta) is False
    circle = parse_formula("|T| <= 2^-1/2*|1| & !(|T| < 2^-1/2*|1|)", sp)
    assert eval_formula(circle, eta) is True
    for c in (0, 1, 2, 3, Fraction(1, 3), 6):
        assert eval_formula(circle, RigidPoint(sp, (c,))) is False


def test_negation_is_kleene_involution(rng):
    sp = XY()
    for _ in range(50):
        atoms = []
        for _ in range(rng.randint(1, 3)):
            atoms.append(Atom(ONE, rand_nonzero_series(rng, sp, vmin=-1),
                              rng.choice(["<=", "<"]), ONE,
                              rand_nonzero_series(rng, sp, vmin=-1)))
        phi = And(tuple(atoms)) if len(atoms) > 1 else atoms[0]
        x = rand_rigid(rng, sp)
        v, nv_ = eval_formula(phi, x), eval_formula(negate(phi), x)
        assert nv_ is (None if v is None else (not v))


def test_dnf_pointwise_equivalent(rng):
    sp = XY()
    for _ in range(40):
        def atom():
            return Atom(ONE, rand_nonzero_series(rng, sp, max_deg=2, vmin=-1),
                        rng.choice(["<=", "<"]), ONE,
                        rand_nonzero_series(rng, sp, max_deg=2, vmin=-1))
        phi = Or((And((atom(), Not(atom()))), atom()))
        conjuncts = to_dnf(phi)
        for _ in range(10):
            x = rand_rigid(rng, sp)
            want = eval_formula(phi, x)
            got = False
            for c in conjuncts:
                v = eval_conjunct(c, x)
                if v is True:
                    got = True
                    break
            else:
                got = False
            assert got == want


@given(st.integers(0, 2 ** 32 - 1))
def test_dnf_equivalence_property(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    sp = space(p, ("x", 0)) if rng.random() < 0.5 else XY(p)
    phi = rand_formula(rng, sp, rng.randint(1, 6))
    psi = dnf_to_formula(to_dnf(phi))
    for _ in range(10):
        x = rand_rigid(rng, sp) if rng.random() < 0.5 else rand_monomial(rng, sp)
        assert eval_formula(phi, x) == eval_formula(psi, x)


def test_print_parse_round_trip(rng):
    sp = XY()
    texts = [
        "|x| <= 2^-1*|1|",
        "!(|x| < |y|) & |y| <= |1|",
        "|x| <= 0*|1| | |y^2 - x| < 2^3*|x|",
        "2^-1/2*|x*y| < |x + y - 1|",
    ]
    for t in texts:
        phi = parse_formula(t, sp)
        assert parse_formula(formula_text(phi), sp) == phi


def test_poly_parser_implicit_multiplication():
    sp = space(2, ("T", 0))
    assert parse_poly("T^2+2T+4", sp) == poly(sp, {(2,): 1, (1,): 2, (0,): 4})
    assert parse_poly("3/4*T", sp) == poly(sp, {(1,): "3/4"})
    assert parse_poly("-(T - 1)^2", sp) == poly(sp, {(2,): -1, (1,): 2, (0,): -1})


def test_poly_degree_limit_refuses_before_multiplying(monkeypatch):
    # every product and power the DSL writes is bounded by MAX_POWER on a
    # degree bound taken while parsing: degree exactly MAX_POWER is built,
    # and a side above it is refused before anything in it is multiplied
    # out, a parenthesised inner power included
    sp = space(3, ("T", 0), ("x", 0))
    half = MAX_POWER // 2
    assert parse_poly(f"T^{half}*x^{half}", sp).nums == {(half, half): 1}
    with pytest.raises(ValueError, match=f"^power 3 of a polynomial of degree {half} "
                                         f"exceeds the degree limit {MAX_POWER}$"):
        parse_poly(f"((T+1)^{half})^3", sp)
    # the parser multiplies with this kernel only
    calls = []
    real = formulas.ints_mul
    monkeypatch.setattr(formulas, "ints_mul", lambda a, b: calls.append(1) or real(a, b))
    for text, what in [(f"(T+1)^{MAX_POWER}*(T+3)^{MAX_POWER}", "a product of degree 2000"),
                       (f"1 - 3T^{half}*x^{half}*T", "a product of degree 1001"),
                       ("2^1001", "power 1001 of a polynomial of degree 0"),
                       (f"((T+1)^{MAX_POWER})^2",
                        f"power 2 of a polynomial of degree {MAX_POWER}")]:
        with pytest.raises(ValueError, match=f"^{re.escape(what)} exceeds the degree "
                                             f"limit {MAX_POWER}$"):
            parse_poly(text, sp)
    with pytest.raises(ValueError, match="product of degree 2000"):
        parse_formula(f"|x| < |(T+1)^{MAX_POWER}*(T+3)^{MAX_POWER}|", sp)
    assert calls == []
    # the spy sees the products of a side that passes its checks
    assert parse_poly("(T+1)^2", sp) == poly(sp, {(2, 0): 1, (1, 0): 2, (0, 0): 1})
    assert calls


def test_scale_errors_are_parse_norms():
    # a scale p^q/d is read off its tokens; a base that is not p or a zero
    # denominator gives parse_norm's error for the literal as written
    sp = XY()
    for text, message in [("3^1*|x| <= |1|", "norm literal base 3 does not match prime 2"),
                          ("|x| < 5^-2/3*|1|", "norm literal base 5 does not match prime 2"),
                          ("2^1/0*|x| <= |1|", "bad norm literal: '2^1/0'"),
                          ("|x| < 02^-3/0*|1|", "bad norm literal: '02^-3/0'"),
                          ("3^1/0*|x| <= |1|", "norm literal base 3 does not match prime 2")]:
        with pytest.raises(ValueError) as info:
            parse_formula(text, sp)
        assert str(info.value) == message
    phi = parse_formula("02^-3/6*|x| < 2^4/2*|y|", sp)
    assert (phi.alpha, phi.beta) == (nv("-1/2"), nv(2))


# Random polynomial expression trees: int and fraction literals (0
# included), x and y, unary minus, + and -, explicit and implicit *, small
# powers and parentheses.  A tree is rendered to DSL text with parentheses
# only where the grammar needs them, and its value is computed with Series
# arithmetic, which the parser must equal.
def expr_trees(depth):
    leaf = st.one_of(st.tuples(st.just("lit"), st.integers(0, 12),
                               st.sampled_from([1, 1, 2, 3, 4])),
                     st.tuples(st.just("var"), st.sampled_from(["x", "y"])))
    if depth == 0:
        return leaf
    sub = expr_trees(depth - 1)
    return st.one_of(leaf, st.tuples(st.just("neg"), sub),
                     st.tuples(st.sampled_from(["add", "sub", "mul", "imul"]), sub, sub),
                     st.tuples(st.just("pow"), sub, st.integers(0, 3)))


def expr_value(t, sp):
    kind = t[0]
    if kind == "lit":
        return Series.constant(sp, Fraction(t[1], t[2]))
    if kind == "var":
        return Series.variable(sp, t[1])
    if kind == "neg":
        return -expr_value(t[1], sp)
    if kind == "pow":
        return expr_value(t[1], sp).pow(t[2])
    a, b = expr_value(t[1], sp), expr_value(t[2], sp)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    return a * b


def expr_sum_text(t):
    if t[0] in ("add", "sub"):
        op = " + " if t[0] == "add" else " - "
        return expr_sum_text(t[1]) + op + expr_term_text(t[2])
    if t[0] == "neg":
        # a sum may open with a minus that negates its first term
        return "-" + expr_term_text(t[1])
    return expr_term_text(t)


def expr_term_text(t):
    if t[0] not in ("mul", "imul"):
        return expr_factor_text(t)
    left, right = expr_term_text(t[1]), expr_factor_text(t[2])
    if t[0] == "mul" or not (right[0].isalpha() or right[0] == "("):
        return left + "*" + right
    # implicit: a factor that opens with a variable or a parenthesis; no
    # space where the left side cannot run into it
    glue = "" if left[-1].isdigit() or left[-1] == ")" else " "
    return left + glue + right


def expr_factor_text(t):
    if t[0] == "pow":
        return expr_primary_text(t[1]) + f"^{t[2]}"
    return expr_primary_text(t)


def expr_primary_text(t):
    if t[0] == "lit":
        return str(t[1]) if t[2] == 1 else f"{t[1]}/{t[2]}"
    if t[0] == "var":
        return t[1]
    return "(" + expr_sum_text(t) + ")"


@settings(max_examples=300)
@given(expr_trees(4))
def test_parse_poly_equals_series_arithmetic_property(tree):
    sp = XY(3)
    assert parse_poly(expr_sum_text(tree), sp) == expr_value(tree, sp)


# Random token strings over the formula alphabet: the parser either returns
# a formula or raises ValueError (FormulaSyntaxError is one), nothing else.
# Norm bars hold random polynomials built from the polynomial grammar's
# pieces (rational literals, variables, +, -, *, ^, parentheses), so the
# strings reach deep into it; connectives, scales and stray tokens of the
# whole alphabet sit between them.
fuzz_num = st.sampled_from(["0", "1", "2", "3", "12"])
fuzz_primary = st.one_of(fuzz_num, st.tuples(fuzz_num, fuzz_num).map("/".join),
                         st.sampled_from(["x", "y", "z"]))
fuzz_poly = st.recursive(fuzz_primary, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(["+", "-", "*", "^", ""]), inner).map(" ".join),
    inner.map(lambda body: "(" + body + ")")), max_leaves=6)
fuzz_text = st.lists(st.one_of(
    fuzz_poly.map(lambda body: "|" + body + "|"),
    st.sampled_from(["&", "|", "!", "(", ")", "<=", "<", "*", "+", "-", "/",
                     "^", "2^-1*", "0*", "1*", "3", "x"])), max_size=8).map(" ".join)


@settings(max_examples=500)
@given(fuzz_text)
def test_parser_fuzz_returns_or_raises_value_error(text):
    sp = XY()
    try:
        phi = parse_formula(text, sp)
    except ValueError:
        return
    assert isinstance(phi, (Atom, And, Or, Not))
    assert parse_formula(formula_text(phi), sp) == phi


# The tokenizer as a loop that matches at every position, with the token
# pattern of the grammar (no catch-all): the reference for the one-pass scan.
REFERENCE_TOKEN_RE = re.compile(r"""
    (?P<le><=) | (?P<lt><) | (?P<amp>&) | (?P<bang>!) | (?P<bar>\|)
  | (?P<lpar>\() | (?P<rpar>\)) | (?P<star>\*) | (?P<plus>\+)
  | (?P<minus>-) | (?P<caret>\^) | (?P<slash>/)
  | (?P<num>\d+) | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<ws>\s+)
""", re.VERBOSE)


def reference_tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except FormulaSyntaxError as e:
        return str(e), e.pos


# the DSL alphabet, whitespace of several kinds, and stray characters: a
# newline (which `.` alone does not match), a non-ASCII digit (which \d does)
# and punctuation outside the grammar
token_text = st.text(st.sampled_from("<=&!|()*+-^/0123456789Txy_ \t\n\x0b\r"
                                    "@.>\u00e9\u0663\x00"), max_size=30)


@given(token_text)
def test_tokenize_matches_the_per_position_reference(text):
    assert tokens_or_error(_tokenize, text) == tokens_or_error(reference_tokenize, text)


def test_zero_denominator_is_a_syntax_error():
    with pytest.raises(FormulaSyntaxError, match=r"zero denominator \(at position 6\)"):
        parse_formula("|x - 1/0| <= |1|", XY())


# -- the point memo: seminorms kept on the point across calls ---------------------


def recording(monkeypatch, cls, name):
    """Wrap cls.name; each call appends its positional arguments."""
    seen = []
    original = getattr(cls, name)

    def wrapper(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return seen


def fresh(x):
    """An equal point that has never been evaluated at."""
    if isinstance(x, RigidPoint):
        return RigidPoint(x.space, x.coords)
    return MonomialPoint(x.space, x.center, x.rho)


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValueError as e:
        return "error", str(e)


def tailed(rng, phi):
    """phi with some atom sides given a tail, so that unknown answers occur."""
    def side(f):
        if rng.random() < 0.4:
            return f.with_tail(NormValue.power(rng.randint(-4, 1)))
        return f
    return map_atoms(phi, lambda a: Atom(a.alpha, side(a.f), a.op, a.beta,
                                         side(a.g)))


def test_formula_then_its_dnf_evaluate_each_series_once(rng, monkeypatch):
    sp = XY()
    cases = []
    for _ in range(40):
        phi = tailed(rng, rand_formula(rng, sp, rng.randint(1, 6)))
        x = rand_rigid(rng, sp) if rng.random() < 0.5 else rand_monomial(rng, sp)
        cases.append((phi, to_dnf(phi), x))
    rigid = recording(monkeypatch, Series, "eval_ints")
    gauss = recording(monkeypatch, Series, "seminorm_at")
    for phi, dnf, x in cases:
        del rigid[:], gauss[:]
        eval_formula(phi, x)
        for conj in dnf:
            eval_conjunct(conj, x)
        evaluated = [args[0] for args in rigid + gauss]
        assert evaluated
        assert len({id(f) for f in evaluated}) == len(evaluated)


@given(st.integers(0, 2 ** 32 - 1))
def test_used_point_answers_as_a_fresh_one_property(seed):
    # formulas on the point's space, on an equal space built apart, and on
    # a space with other radii (which must raise at every call)
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    names = ("x",) if rng.random() < 0.5 else ("x", "y")
    sp = space(p, *((n, 0) for n in names))
    spaces = [sp, sp, space(p, *((n, 0) for n in names)),
              space(p, *((n, 1) for n in names))]
    queries = []
    for s in spaces:
        phi = tailed(rng, rand_formula(rng, s, rng.randint(1, 5)))
        dnf = to_dnf(phi)
        queries.append(lambda x, phi=phi: eval_formula(phi, x))
        queries.append(lambda x, dnf=dnf: [eval_conjunct(c, x) for c in dnf])
    for _ in range(3):
        x = rand_rigid(rng, sp) if rng.random() < 0.5 else rand_monomial(rng, sp)
        rng.shuffle(queries)
        for q in queries + queries:
            assert outcome(q, x) == outcome(q, fresh(x))


def test_errors_repeat_at_a_used_point():
    sp = XY()
    phi = parse_formula("|x| <= |1| & |y| <= |x|", sp)
    other = parse_formula("|y| <= |x|", space(2, ("x", 0), ("y", 1)))
    for x in (RigidPoint(sp, (2, 4)), MonomialPoint(sp, (0, 2), (ONE, nv(-1)))):
        assert eval_formula(phi, x) is not None
        for _ in range(2):
            with pytest.raises(ValueError, match="point/space mismatch"):
                eval_formula(other, x)
            with pytest.raises(ValueError, match="point/space mismatch"):
                eval_conjunct(to_dnf(other)[0], x)
        assert eval_formula(phi, x) == eval_formula(phi, fresh(x))
    outside = RigidPoint(sp, (0, Fraction(1, 4)))
    for _ in range(2):
        with pytest.raises(ValueError, match="outside"):
            eval_formula(phi, outside)


def test_used_point_is_freed_by_refcount_and_keeps_its_value():
    sp = XY()
    phi = parse_formula("|x| <= |1| & !(|y - x| < 2^-1*|x|)", sp)
    makers = (lambda: RigidPoint(sp, (2, 4)),
              lambda: MonomialPoint(sp, (0, 2), (ONE, nv(-1))))
    for make in makers:
        x, twin = make(), make()
        before = (hash(x), repr(x))
        gc.disable()
        try:
            want = eval_formula(phi, x)
            [eval_conjunct(c, x) for c in to_dnf(phi)]
            assert (hash(x), repr(x)) == before
            assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
            # a copy starts without the memo and answers the same
            for dup in (copy.copy(x), copy.deepcopy(x),
                        pickle.loads(pickle.dumps(x))):
                assert "_seminorms" not in vars(dup) and dup == x
                assert eval_formula(phi, dup) is want
            ref = weakref.ref(x)
            del x
            assert ref() is None
        finally:
            gc.enable()
