"""Semianalytic formulas: norm-inequality atoms, boolean algebra, DNF,
three-valued evaluation, and the surface-syntax parser.

An atom states alpha*|f(x)| <= beta*|g(x)| (or <) with exact scale factors
from the value group; equalities f = 0 are encoded as |f| <= 0*|1|.  Scales
on both sides keep the class closed under negation with no special cases.
``vanishes(g)`` and ``nonzero(g)`` build the atoms g = 0 and g != 0 (that
is, 0*|1| < |g|), and ``compare(lhs, op, rhs)`` applies an atom's
comparison to two values; the other modules state these rules through them.
Evaluation is Kleene three-valued: `None` stands for unknown and can only
arise from tail uncertainty of inexact series.
``truth(phi, leaf)`` is the one walker of And/Or/Not trees in the library:
point evaluation, constructible emptiness pruning and projection's split
pass and cell scan each supply only a leaf rule.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from fractions import Fraction

from .scalars import NormValue, Value, parse_norm, scalar_text
from .series import (MAX_POWER, IntTerms, NormEstimate, Point, RigidPoint, Series,
                     Space, compare_le, compare_lt, ints_add_into, ints_mul)

LE = "<="
LT = "<"


class Atom(Value):
    alpha: NormValue
    f: Series
    op: str  # LE or LT
    beta: NormValue
    g: Series

    def __init__(self, alpha: NormValue, f: Series, op: str, beta: NormValue,
                 g: Series):
        if op not in (LE, LT):
            raise ValueError(f"bad comparison {op!r}")
        if alpha.is_zero and beta.is_zero:
            raise ValueError("at least one scale must be nonzero")
        if f.space != g.space:
            raise ValueError("atom sides live on different spaces")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "g", g)

    @property
    def space(self) -> Space:
        return self.f.space


class And(Value):
    args: tuple["Formula", ...]

    def __init__(self, args: tuple["Formula", ...]):
        object.__setattr__(self, "args", args)


class Or(Value):
    args: tuple["Formula", ...]

    def __init__(self, args: tuple["Formula", ...]):
        object.__setattr__(self, "args", args)


class Not(Value):
    arg: "Formula"

    def __init__(self, arg: "Formula"):
        object.__setattr__(self, "arg", arg)


Formula = Atom | And | Or | Not


class BasicConjunct(Value):
    """A negation-free conjunction of atoms."""

    atoms: tuple[Atom, ...]

    def __init__(self, atoms: tuple[Atom, ...]):
        object.__setattr__(self, "atoms", atoms)


def tautology(space: Space) -> Atom:
    return Atom(NormValue.one(), Series.zero(space), LE,
                NormValue.one(), Series.one(space))


def vanishes(g: Series) -> Atom:
    """g = 0, as the atom |g| <= 0*|1|."""
    return Atom(NormValue.one(), g, LE, NormValue.zero(), Series.one(g.space))


def nonzero(g: Series) -> Atom:
    """g != 0, as the atom 0*|1| < |g|."""
    return Atom(NormValue.zero(), Series.one(g.space), LT, NormValue.one(), g)


def compare(lhs, op: str, rhs) -> bool:
    """lhs op rhs for op LE or LT, on any two values that order (norms,
    scaled exponents)."""
    return lhs <= rhs if op == LE else lhs < rhs


def formula_atoms(phi: Formula) -> list[Atom]:
    """The leaves of phi, left to right: every node that is not And, Or or
    Not (the atoms of a formula, or projection's split atoms)."""
    t = type(phi)
    if t is Not:
        return formula_atoms(phi.arg)
    if t is not And and t is not Or:
        return [phi]
    out = []
    for a in phi.args:
        out.extend(formula_atoms(a))
    return out


def map_atoms(phi: Formula, fn) -> Formula:
    """phi with every atom a replaced by fn(a), connectives kept."""
    if isinstance(phi, Atom):
        return fn(phi)
    if isinstance(phi, Not):
        return Not(map_atoms(phi.arg, fn))
    return type(phi)(tuple(map_atoms(a, fn) for a in phi.args))


def lift_formula(phi: Formula, space: Space) -> Formula:
    """Reinterpret every atom over a superset space."""
    return map_atoms(phi, lambda a: Atom(a.alpha, a.f.lift_to(space), a.op,
                                         a.beta, a.g.lift_to(space)))


def rename_formula_var(phi: Formula, old: str, new: str) -> Formula:
    return map_atoms(phi, lambda a: Atom(a.alpha, a.f.rename_var(old, new), a.op,
                                         a.beta, a.g.rename_var(old, new)))


# -- boolean algebra -----------------------------------------------------------


def negate(phi: Formula) -> Formula:
    """Negation-free complement: atoms flip their comparison and sides,
    connectives go through De Morgan."""
    if isinstance(phi, Atom):
        flipped = LT if phi.op == LE else LE
        return Atom(phi.beta, phi.g, flipped, phi.alpha, phi.f)
    if isinstance(phi, Not):
        return nnf(phi.arg)
    if isinstance(phi, And):
        return Or(tuple(negate(a) for a in phi.args))
    return And(tuple(negate(a) for a in phi.args))


def nnf(phi: Formula) -> Formula:
    """Push negations to the atoms and absorb them there."""
    if isinstance(phi, Atom):
        return phi
    if isinstance(phi, Not):
        return negate(phi.arg)
    cls = type(phi)
    return cls(tuple(nnf(a) for a in phi.args))


def to_dnf(phi: Formula) -> list[BasicConjunct]:
    """Disjunction of negation-free conjuncts, pointwise equivalent to phi.

    Pure distribution; no semantic pruning, so the size can be exponential
    in the number of alternations.
    """
    phi = nnf(phi)

    def walk(node) -> list[tuple[Atom, ...]]:
        if isinstance(node, Atom):
            return [(node,)]
        if isinstance(node, Or):
            out = []
            for a in node.args:
                out.extend(walk(a))
            return out
        # And: distribute
        combos: list[tuple[Atom, ...]] = [()]
        for a in node.args:
            branches = walk(a)
            combos = [c + b for c in combos for b in branches]
        return combos

    return [BasicConjunct(c) for c in walk(phi)]


def dnf_to_formula(conjuncts: Sequence[BasicConjunct]) -> Formula:
    parts = []
    for c in conjuncts:
        if len(c.atoms) == 1:
            parts.append(c.atoms[0])
        else:
            parts.append(And(c.atoms))
    if not parts:
        raise ValueError("empty disjunction has no formula form")
    if len(parts) == 1:
        return parts[0]
    return Or(tuple(parts))


# -- evaluation -----------------------------------------------------------------


class Seminorms:
    """Certified seminorms |f(x)| at one point x, for the life of the point.

    In Berkovich's sense the point is the seminorm f -> |f(x)|, so its
    memo tables are kept on the point, outside its fields (``==``,
    ``hash`` and ``repr`` ignore them), and every Seminorms built at that
    point object shares them, across ``eval_formula``, ``eval_conjunct``
    and ``membership`` calls.  Retention rule: a point holds every series
    object evaluated at it, and every space object it was checked against,
    until the point is dropped.  The tables never refer back to the point,
    so reference counting frees it.

    A seminorm extends the absolute value of Q, so a series with no
    non-constant term has the same estimate at every point.  That
    estimate lives on the series (``Series.constant_seminorm``, computed
    once per series object), and the point's memo entry for a constant
    only refers to it: no evaluation, no valuation.

    The point is checked against a space once, on the first series asked
    about or by ``check``.  Every other space object then passes iff it
    ``==`` the point's space, which is exactly what ``check_in`` would
    accept; a series on a different space raises ``point/space mismatch``.
    A check that raises records nothing, so it raises again on the next
    call.  Each series object is evaluated once: the memo is keyed by
    object identity (it holds the series, so an identity cannot be reused
    while it lives).  At a rigid point every non-constant evaluation runs
    on integers, with the power rows a_i^j b_i^(K-j) built once per
    (coordinate, degree K) and shared (``Series.eval_ints``), and |f(x)|
    is read off the unreduced (num, den); ``value(f)`` builds the Fraction
    only on demand.

    ``chart`` gives the Seminorms at the extended point (x, f(x)/g(x)),
    one child per chart prefix: charts with the same f and g objects, name
    and radius share it, and with it t, the extended point and every
    evaluation there.

    ``holds`` decides an atom on the memoised estimates through
    ``compare_le``/``compare_lt``; each estimate knows whether it is exact
    from its construction, so once both sides are in the memo an exact
    atom with unit scales costs one comparison of two exponents.
    """

    __slots__ = ("point", "_rows", "_spaces", "_memo", "_children")

    def __init__(self, x: Point):
        self.point = x
        try:
            tables = x._seminorms
        except AttributeError:
            tables = ({} if isinstance(x, RigidPoint) else None, {}, {}, {})
            object.__setattr__(x, "_seminorms", tables)
        self._rows, self._spaces, self._memo, self._children = tables

    def check(self, sp: Space):
        """Check the point against the space object ``sp``, once per point."""
        if id(sp) not in self._spaces:
            if not self._spaces:
                self.point.check_in(sp)
            elif sp != self.point.space:
                raise ValueError("point/space mismatch")
            self._spaces[id(sp)] = sp

    def _evaluate(self, f: Series):
        """Check f's space, then memoise (f, estimate, (num, den) at a
        rigid point or None at a monomial point) for f at the point; a
        constant's estimate and pair are its own
        ``Series.constant_seminorm``."""
        sp = f.space
        if id(sp) not in self._spaces:
            self.check(sp)
        const = f.constant_seminorm()
        if const is not None:
            hit = (f, const[0], None if self._rows is None else const[1])
        elif self._rows is None:
            hit = (f, f.seminorm_at(self.point), None)
        else:
            num, den = f.eval_ints(self.point.coords, self._rows)
            hit = (f, NormEstimate(NormValue.of_ratio(num, den, sp.prime), f.tail),
                   (num, den))
        self._memo[id(f)] = hit
        return hit

    def __call__(self, f: Series) -> NormEstimate:
        return (self._memo.get(id(f)) or self._evaluate(f))[1]

    def holds(self, atom: Atom) -> bool | None:
        """Kleene truth of the atom at the point: the leaf rule that
        ``truth`` takes for evaluation.  A side whose scale is 1 is
        compared as memoised, with no scaled copy."""
        memo = self._memo
        lhs = (memo.get(id(atom.f)) or self._evaluate(atom.f))[1]
        rhs = (memo.get(id(atom.g)) or self._evaluate(atom.g))[1]
        if atom.alpha.exp != 0:
            lhs = lhs.scaled(atom.alpha)
        if atom.beta.exp != 0:
            rhs = rhs.scaled(atom.beta)
        if atom.op == LE:
            return compare_le(lhs, rhs)
        return compare_lt(lhs, rhs)

    def value(self, f: Series) -> Fraction:
        return Fraction(*(self._memo.get(id(f)) or self._evaluate(f))[2])

    def chart(self, f: Series, g: Series, space: Space) -> "Seminorms":
        """The Seminorms at (x, t) with t = f(x)/g(x), on ``space``: x's
        space extended by the chart coordinate t, |t| <= r.

        x must be rigid, f and g exact on x's space with g(x) != 0, and
        ``space`` that space plus one coordinate (as ``ElementaryDatum``
        builds it).  Only the new coordinate is checked, from the norms in
        hand: |f(x)| <= r |g(x)|.  The child point starts from a copy of
        the power rows built at x, and is kept in x's tables; it holds no
        reference to x.
        """
        var = space.vars[-1]
        key = (id(f), id(g), var.name, var.radius)
        child = self._children.get(key)
        if child is None:
            if space.vars[:-1] != f.space.vars or space.prime != f.space.prime:
                raise ValueError("point/space mismatch")
            _, norm_f, (nf, df) = self._memo.get(id(f)) or self._evaluate(f)
            _, norm_g, (ng, dg) = self._memo.get(id(g)) or self._evaluate(g)
            t = Fraction(nf * dg, df * ng)
            if not norm_f.value <= var.radius * norm_g.value:
                p = space.prime
                raise ValueError(f"coordinate {scalar_text(t)} outside "
                                 f"|{var.name}| <= {var.radius.text(p)}")
            child = Seminorms(RigidPoint(space, self.point.coords + (t,)))
            child._spaces[id(space)] = space
            child._rows.update(self._rows)
            self._children[key] = child
        return child


def truth(phi: Formula, leaf) -> bool | None:
    """Strong Kleene truth of the And/Or/Not tree phi: every other node is
    a leaf, and ``leaf(node)`` gives its truth, True, False or None
    (unknown).  Not swaps True and False and keeps None; And is False if
    some argument is, else None if some argument is, else True; Or is the
    dual.  And/Or stop at the first deciding argument, so ``leaf`` sees
    the leaves left to right up to that point and no further."""
    t = type(phi)
    if t is And:
        return truth_all(phi.args, leaf)
    if t is Or:
        out = False
        for a in phi.args:
            v = truth(a, leaf)
            if v is True:
                return True
            if v is None:
                out = None
        return out
    if t is Not:
        v = truth(phi.arg, leaf)
        return None if v is None else (not v)
    return leaf(phi)


def truth_all(args: Sequence[Formula], leaf) -> bool | None:
    """Kleene conjunction of ``truth`` over args."""
    out: bool | None = True
    for a in args:
        v = truth(a, leaf)
        if v is False:
            return False
        if v is None:
            out = None
    return out


def eval_formula(phi: Formula, x: Point) -> bool | None:
    """Kleene three-valued truth of phi at a rigid or monomial point.

    Exact (never None) whenever every atom series has a zero tail.  x is
    checked once per distinct space object its atoms live on, and each
    series object is evaluated once per point: later calls at the same
    point object, of any function here or of ``membership``, reuse what
    this one computed (see ``Seminorms``).
    """
    return truth(phi, Seminorms(x).holds)


def eval_conjunct(conj: BasicConjunct, x: Point) -> bool | None:
    return truth_all(conj.atoms, Seminorms(x).holds)


# -- printing --------------------------------------------------------------------


def _scale_text(nv: NormValue, p: int) -> str:
    if nv == NormValue.one():
        return ""
    return nv.text(p) + "*"


def atom_text(atom: Atom) -> str:
    p = atom.space.prime
    return (f"{_scale_text(atom.alpha, p)}|{atom.f.text()}| {atom.op} "
            f"{_scale_text(atom.beta, p)}|{atom.g.text()}|")


def formula_text(phi: Formula) -> str:
    if isinstance(phi, Atom):
        return atom_text(phi)
    if isinstance(phi, Not):
        return f"!({formula_text(phi.arg)})"
    if isinstance(phi, And):
        parts = []
        for a in phi.args:
            t = formula_text(a)
            parts.append(f"({t})" if isinstance(a, Or) else t)
        return " & ".join(parts)
    return " | ".join(formula_text(a) for a in phi.args)


# -- parser -----------------------------------------------------------------------

# one scan: each match skips whitespace and takes one token, and a character
# that starts no longer token is taken alone and read off _CHAR_KINDS
_TOKEN_RE = re.compile(r"\s*(?:(<=)|(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\S))")
_GROUP_KINDS = (None, "le", "num", "ident")
_CHAR_KINDS = {"<": "lt", "&": "amp", "!": "bang", "|": "bar", "(": "lpar",
               ")": "rpar", "*": "star", "+": "plus", "-": "minus", "^": "caret",
               "/": "slash"}


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str):
    # no character is skipped: a match fails only on whitespace that runs
    # to the end of the text
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        tok, pos = m[group], m.start(group)
        if group == 4:
            kind = _CHAR_KINDS.get(tok)
            if kind is None:
                raise FormulaSyntaxError(f"unexpected character {tok!r}", pos)
        else:
            kind = _GROUP_KINDS[group]
        tokens.append((kind, tok, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent for the formula DSL.

    A '|' read where a literal is expected opens a norm bar; a '|' read
    after a complete conjunction is the OR connective, so the grammar
    disambiguates the two uses by position.
    """

    def __init__(self, text: str, space: Space):
        self.tokens = _tokenize(text)
        self.i = 0
        self.space = space
        self.origin = (0,) * len(space.vars)

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> Formula:
        phi = self.disjunction()
        tok = self.peek()
        if tok[0] != "end":
            raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return phi

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek()[0] == "bar":
            self.take("bar")
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.literal()]
        while self.peek()[0] == "amp":
            self.take("amp")
            parts.append(self.literal())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def literal(self) -> Formula:
        tok = self.peek()
        if tok[0] == "bang":
            self.take("bang")
            return Not(self.literal())
        if tok[0] == "lpar":
            self.take("lpar")
            phi = self.disjunction()
            self.take("rpar")
            return phi
        return self.atom()

    def atom(self) -> Atom:
        alpha = self.scale()
        self.take("bar")
        f = self.poly()
        self.take("bar")
        tok = self.take()
        if tok[0] == "le":
            op = LE
        elif tok[0] == "lt":
            op = LT
        else:
            raise FormulaSyntaxError(f"expected comparison, found {tok[1]!r}", tok[2])
        beta = self.scale()
        self.take("bar")
        g = self.poly()
        self.take("bar")
        return Atom(alpha, f, op, beta, g)

    def scale(self) -> NormValue:
        """Optional norm literal followed by '*': `p^q *`, `0 *`, `1 *`."""
        if self.peek()[0] != "num":
            return NormValue.one()
        base_tok = self.take("num")
        if self.peek()[0] == "caret":
            self.take("caret")
            sign = 1
            if self.peek()[0] == "minus":
                self.take("minus")
                sign = -1
            num = int(self.take("num")[1])
            den = 1
            if self.peek()[0] == "slash":
                self.take("slash")
                den = int(self.take("num")[1])
            if den and int(base_tok[1]) == self.space.prime:
                nv = NormValue.power(Fraction(sign * num, den) if den != 1
                                     else sign * num)
            else:
                # parse_norm's errors for a base that is not p or a zero
                # denominator
                nv = parse_norm(f"{base_tok[1]}^{sign * num}"
                                + (f"/{den}" if den != 1 else ""),
                                self.space.prime)
        elif base_tok[1] == "0":
            nv = NormValue.zero()
        elif base_tok[1] == "1":
            nv = NormValue.one()
        else:
            raise FormulaSyntaxError(
                f"expected a scale or a norm bar, found {base_tok[1]!r}",
                base_tok[2])
        self.take("star")
        return nv

    # polynomial expressions inside norm bars.  Each rule returns a bound on
    # the degree of its polynomial and the polynomial as an unbuilt node: a
    # leaf (den, {expo: int}) (``series.IntTerms``), ("+", [(sign, node),
    # ...]), ("*", [node, ...]) or ("^", node, k).  Every power and product is
    # checked against MAX_POWER on the bounds as it is parsed, and ``poly``
    # builds the whole side once it is read, so a huge power, a nested one
    # such as ((T+1)^1000)^2 or a long product such as
    # (T+1)^1000*(T+3)^1000 is refused before anything is multiplied out.
    # The bound of a sum is its terms' largest, of a product the sum of its
    # factors', of f^k k * max(bound of f, 1) (the rule of Series.pow); it is
    # never below the degree built.

    def poly(self) -> Series:
        return Series._reduced(self.space, _build(self.poly_sum()[1]),
                               NormValue.zero())

    def poly_sum(self) -> tuple[int, tuple]:
        sign = 1
        if self.peek()[0] == "minus":
            self.take("minus")
            sign = -1
        degree, node = self.poly_term()
        if sign == 1 and self.peek()[0] not in ("plus", "minus"):
            return degree, node
        terms = [(sign, node)]
        while self.peek()[0] in ("plus", "minus"):
            sign = 1 if self.take()[0] == "plus" else -1
            d, node = self.poly_term()
            degree = max(degree, d)
            terms.append((sign, node))
        return degree, ("+", terms)

    def poly_term(self) -> tuple[int, tuple]:
        degree, node = self.poly_factor()
        factors = [node]
        while True:
            tok = self.peek()
            if tok[0] == "star":
                self.take("star")
            elif tok[0] not in ("ident", "lpar"):
                break
            # (ident or lpar: implicit multiplication, 2T, 3(x+1))
            d, node = self.poly_factor()
            factors.append(node)
            degree += d
            if degree > MAX_POWER:
                raise ValueError(f"a product of degree {degree} exceeds the "
                                 f"degree limit {MAX_POWER}")
        return degree, factors[0] if len(factors) == 1 else ("*", factors)

    def poly_factor(self) -> tuple[int, tuple]:
        """A primary and its exponent: the node ("^", base, k) for ``^k``."""
        degree, base = self.poly_primary()
        if self.peek()[0] != "caret":
            return degree, base
        self.take("caret")
        k = int(self.take("num")[1])
        if k * max(degree, 1) > MAX_POWER:
            raise ValueError(f"power {k} of a polynomial of degree {degree} "
                             f"exceeds the degree limit {MAX_POWER}")
        # f^0 is 1, as in Series.pow
        return k * max(degree, 1), ("^", base, k) if k else (1, {self.origin: 1})

    def poly_primary(self) -> tuple[int, tuple]:
        tok = self.take()
        if tok[0] == "num":
            num, den = int(tok[1]), 1
            if self.peek()[0] == "slash":
                slash = self.take("slash")
                den = int(self.take("num")[1])
                if not den:
                    raise FormulaSyntaxError("zero denominator", slash[2])
            return 0, (den, {self.origin: num} if num else {})
        if tok[0] == "ident":
            try:
                i = self.space.index(tok[1])
            except KeyError:
                raise FormulaSyntaxError(f"undeclared variable {tok[1]!r}", tok[2])
            expo = self.origin[:i] + (1,) + self.origin[i + 1:]
            return 1, (1, {expo: 1})
        if tok[0] == "lpar":
            inner = self.poly_sum()
            self.take("rpar")
            return inner
        raise FormulaSyntaxError(f"unexpected token {tok[1]!r} in polynomial",
                                 tok[2])


def _build(node) -> IntTerms:
    """The terms of a parsed node (see ``_Parser.poly``), in a new pair the
    caller owns, by the same sequence of kernel calls as the ``Series``
    arithmetic it stands for (``-``, ``+``, ``*`` and ``Series.pow``)."""
    kind = node[0]
    if kind == "+":
        out = None
        for sign, sub in node[1]:
            out = ints_add_into(out, _build(sub), sign)
        return out
    if kind == "*":
        out = _build(node[1][0])
        for sub in node[1][1:]:
            out = ints_mul(out, _build(sub))
        return out
    if kind == "^":
        # square-and-multiply as in Series.pow, whose one * square is square:
        # out takes base^(2^i) for each set bit i of k (k >= 1: the parser
        # reads f^0 as the leaf 1)
        square, k = _build(node[1]), node[2]
        out = None
        while k:
            if k & 1:
                out = square if out is None else ints_mul(out, square)
            k >>= 1
            if k:
                square = ints_mul(square, square)
        return out
    return node


def parse_formula(text: str, space: Space) -> Formula:
    """Parse the DSL over declared variables.  Precedence: ! > & > |."""
    return _Parser(text, space).parse()


def parse_poly(text: str, space: Space) -> Series:
    """Parse a bare polynomial expression over the space."""
    parser = _Parser(text, space)
    out = parser.poly()
    tok = parser.peek()
    if tok[0] != "end":
        raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return out
