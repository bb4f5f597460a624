"""Restricted power series with exact Gauss norms and certified tails.

A ``Series`` is a finite polynomial over Q together with a certified bound
(``tail``) on the sup norm of whatever remainder it stands for: the object
represents the class of all analytic functions f on the polydisc with
``|f - stored| <= tail``.  All arithmetic is exact on the stored part and
propagates tails pessimistically, so every norm equality or inequality the
package reports is a sound certificate.

The stored part is kept in one form, integer numerators over one common
denominator (as FLINT's ``fmpq_poly``): ``den > 0`` and ``nums`` =
{exponent vector: nonzero int} with gcd(den, *nums) = 1, so the form is
unique and ``==`` is structural.  Every operation runs on these integers;
``Fraction`` appears only at the edge: constructor input, the read-only
``coeffs`` view, printing, ``constant_term``/``as_scalar`` and the value
``eval_exact`` returns.  Rigid seminorms build none: ``eval_ints`` gives the
value at rational coordinates as an unreduced integer pair (num, den), and
|f(x)| = p^(v_p(den) - v_p(num)) is read off it (``NormValue.of_ratio``).

Points of the polydisc come in two kinds: ``RigidPoint`` (exact rational
coordinates) and ``MonomialPoint`` (a center plus per-variable radii; the
multiplicative seminorm of f there is the Gauss norm of f recentered at the
center).  The point with center 0 and radii equal to the polydisc radii is
the Gauss point.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, mul

from .scalars import (NormValue, Rational, Value, _as_fraction, _valuation,
                      nv_max, require_prime, scalar_text)

Exponents = tuple[int, ...]

# Largest degree a Series.pow result may have: f^k is refused before any
# multiplication when k * max(degree of f, 1) exceeds it.  The formula DSL
# (``formulas``) bounds every power and product it reads by the same limit,
# on degree bounds checked while a norm bar is parsed, and builds the bar's
# polynomial only once all of its checks pass, so neither a huge exponent,
# nested powers such as ((T+1)^1000)^2 nor long products such as
# (T+1)^1000*(T+3)^1000 multiply anything out before they are refused.
# Products inside the library (``Series.__mul__``) are not bounded, but
# ``weierstrass.invert_unit`` refuses an eps that would ask its geometric
# series for more than MAX_POWER products.
MAX_POWER = 1000


class VarSpec(Value):
    """A named coordinate with its polydisc radius (> 0)."""

    name: str
    radius: NormValue

    def __init__(self, name: str, radius: NormValue):
        if radius.is_zero:
            raise ValueError(f"variable {name!r} needs a positive radius")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "radius", radius)


class Space(Value):
    """A polydisc: the prime of the ground field plus ordered coordinates."""

    prime: int
    vars: tuple[VarSpec, ...]

    def __init__(self, prime: int, vars: tuple[VarSpec, ...]):
        require_prime(prime)
        names = [v.name for v in vars]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "vars", vars)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vars)

    @property
    def radii(self) -> tuple[NormValue, ...]:
        return tuple(v.radius for v in self.vars)

    def index(self, name: str) -> int:
        for i, v in enumerate(self.vars):
            if v.name == name:
                return i
        raise KeyError(f"no variable {name!r} in space {self.names}")

    def radius(self, name: str) -> NormValue:
        return self.vars[self.index(name)].radius

    def extend(self, *extra: VarSpec) -> "Space":
        return Space(self.prime, self.vars + tuple(extra))

    def drop(self, name: str) -> "Space":
        """The space without coordinate ``name``, kept per name on the
        instance (as ``scaled_radii`` is)."""
        drops = getattr(self, "_drops", None)
        if drops is None:
            drops = {}
            object.__setattr__(self, "_drops", drops)
        out = drops.get(name)
        if out is None:
            i = self.index(name)
            out = drops[name] = Space(self.prime, self.vars[:i] + self.vars[i + 1:])
        return out

    def with_radii(self, radii: Sequence[NormValue]) -> "Space":
        if len(radii) != len(self.vars):
            raise ValueError("radius count mismatch")
        return Space(self.prime, tuple(VarSpec(v.name, r) for v, r in zip(self.vars, radii)))

    def monomial_weight(self, expo: Exponents) -> NormValue:
        """r^nu, the Gauss weight of the monomial with exponent vector nu."""
        w = NormValue.one()
        for e, v in zip(expo, self.vars):
            if e:
                w = w * (v.radius ** e)
        return w

    def scaled_radii(self) -> tuple[int, tuple[int, ...]]:
        """(D, (D e_1, ..., D e_n)) for radii p^e_i, with D the lcm of the
        denominators of the e_i: the radius exponents as integers over D.

        Computed on first use and kept on the instance (not a field, so
        equality and hashing ignore it); spaces built on hot paths that
        never take a norm pay nothing.
        """
        scaled = getattr(self, "_scaled_radii", None)
        if scaled is None:
            scaled = scaled_exponents(self.radii)
            object.__setattr__(self, "_scaled_radii", scaled)
        return scaled


def scaled_exponents(radii: Sequence[NormValue]) -> tuple[int, tuple[int, ...]]:
    """(D, (D e_1, ..., D e_n)) for nonzero norms p^e_i, D the lcm of the
    denominators of the e_i."""
    exps = [r.exp for r in radii]
    d = lcm(*(e.denominator for e in exps))
    return d, tuple(e.numerator * (d // e.denominator) for e in exps)


# -- exact kernel: integer numerators over one denominator ---------------------
#
# A term map is a pair ``(den, {expo: int})``: one positive common
# denominator and integer numerators, zeros never stored.  ``Series`` stores
# its polynomial this way (reduced: gcd(den, *numerators) = 1), and the
# Weierstrass division sweep keeps its rows this way, keyed by packed ints
# instead of exponent tuples (``PackedTerms``, ``ints_addmul_into``,
# ``ints_addmul_rows``; ``ints_add_into`` and ``ints_reduce`` take either
# key).  Integer products and sums skip the gcd that every Fraction
# operation pays; the caller divides out the content (``ints_reduce``) when
# it chooses.

IntTerms = tuple[int, dict[Exponents, int]]
# the same pair keyed by packed exponent vectors (ints)
PackedTerms = tuple[int, dict[int, int]]

# (coordinate index i, degree K) -> ([a^j b^(K-j) for j <= K], b^K) at x_i = a/b
PowerRows = dict[tuple[int, int], tuple[list[int], int]]


def ints_of(coeffs: Mapping[Exponents, Fraction]) -> IntTerms:
    """The reduced pair of a map of nonzero Fractions: den is the lcm of
    their denominators, which leaves no common content."""
    den = 1
    for c in coeffs.values():
        d = c.denominator
        if den % d:
            den = den // gcd(den, d) * d
    return den, {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}


def ints_mul(a: IntTerms, b: IntTerms) -> IntTerms:
    """The product of two term maps (exponent vectors add)."""
    if len(a[1]) == 1:
        a, b = b, a
    if len(b[1]) == 1:
        # times a monomial: exponents shift injectively, nothing cancels
        (e2, c2), = b[1].items()
        return a[0] * b[0], {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in a[1].items()}
    out: dict[Exponents, int] = {}
    get = out.get
    for e1, c1 in a[1].items():
        for e2, c2 in b[1].items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return a[0] * b[0], {e: c for e, c in out.items() if c}


def ints_add_into(a: IntTerms | None, b: IntTerms, sign: int) -> IntTerms:
    """a + sign * b, updating a's numerator map in place (a None stands for
    the zero map).  Rescales to the lcm only when the denominators differ."""
    db, tb = b
    if a is None:
        return db, {e: sign * c for e, c in tb.items()}
    da, ta = a
    if da != db:
        den = da // gcd(da, db) * db
        if den != da:
            m = den // da
            for e in ta:
                ta[e] *= m
        if den != db:
            sign *= den // db
        da = den
    get = ta.get
    for e, c in tb.items():
        acc = get(e, 0) + sign * c
        if acc:
            ta[e] = acc
        else:
            del ta[e]
    return da, ta


def ints_addmul_into(acc: PackedTerms | None, a: PackedTerms, b: PackedTerms,
                     sign: int) -> PackedTerms:
    """acc + sign * a * b on packed keys, updating acc's numerator map in
    place (a None stands for the zero map) without building the product.

    Keys are packed exponent vectors (see ``weierstrass``): the key of a
    product term is the sum of its factors' keys, which is right as long as
    no field of the sum carries.  The result's denominator is that of
    ``ints_add_into(acc, a * b, sign)``, and no zero numerator is stored."""
    rows = {} if acc is None else {0: acc}
    ints_addmul_rows(rows, 0, a, ((0, b),), sign)
    return rows[0]


def ints_addmul_rows(rows: dict[int, PackedTerms], shift: int, a: PackedTerms,
                     bs: Sequence[tuple[int, PackedTerms]], sign: int) -> None:
    """rows[shift + m] += sign * a * b for every (m, b) in bs, each target
    row's numerator map updated in place (a missing row stands for the zero
    map) without building the products.  Each target row is rescaled on
    its own to the lcm of its denominator and a's times b's, as in
    ``ints_addmul_into``; a row whose terms all cancel stays, with no
    terms."""
    da, ta = a
    get_row = rows.get
    for m, (db, tb) in bs:
        j = shift + m
        den = da * db
        scale = sign
        acc = get_row(j)
        if acc is None:
            dc, tc = den, {}
        else:
            dc, tc = acc
            if dc != den:
                lcd = dc // gcd(dc, den) * den
                if lcd != dc:
                    up = lcd // dc
                    for e in tc:
                        tc[e] *= up
                if lcd != den:
                    scale *= lcd // den
                dc = lcd
        small, big = (ta, tb) if len(ta) <= len(tb) else (tb, ta)
        big = big.items()
        get = tc.get
        for e1, c1 in small.items():
            c1 *= scale
            for e2, c2 in big:
                e = e1 + e2
                c = get(e, 0) + c1 * c2
                if c:
                    tc[e] = c
                else:
                    del tc[e]
        rows[j] = dc, tc


def ints_reduce(a: IntTerms) -> IntTerms:
    """Divide out the content gcd(den, numerators), in place."""
    den, terms = a
    g = gcd(den, *terms.values())
    if g > 1:
        for e in terms:
            terms[e] //= g
        den //= g
    return den, terms


def taylor_shift(terms: dict[Exponents, int], i: int, u: int, w: int
                 ) -> tuple[dict[Exponents, int], int]:
    """(w^K f(X + u/w e_i), K) for integer terms f, K the degree in X_i:
    each c X^k spreads to c C(k, j) u^(k-j) w^(K-k+j) X^j, j <= k."""
    big = max(e[i] for e in terms) if terms else 0
    upow, wpow = [1], [1]
    for _ in range(big):
        upow.append(upow[-1] * u)
        wpow.append(wpow[-1] * w)
    out: dict[Exponents, int] = {}
    get = out.get
    for e, c in terms.items():
        k = e[i]
        head, tail = e[:i], e[i + 1:]
        c *= wpow[big - k]
        for j in range(k + 1):
            e2 = head + (j,) + tail
            out[e2] = get(e2, 0) + c * comb(k, j) * upow[k - j] * wpow[j]
    return {e: c for e, c in out.items() if c}, big


def norm_exp(terms: Mapping[Exponents, int], p: int,
             scaled: tuple[int, tuple[int, ...]]) -> int | None:
    """D times the Gauss-norm exponent max_nu (-v_p(c_nu) + sum nu_i e_i)
    of integer numerators, None for the empty map; ``scaled`` is the
    space's ``scaled_radii()`` = (D, (D e_i)).  For an ``IntTerms`` pair
    add D v_p(den)."""
    d, weights = scaled
    best = None
    for e, c in terms.items():
        x = sum(map(mul, e, weights)) - d * _valuation(c, 1, p)
        if best is None or x > best:
            best = x
    return best


class NormEstimate(Value):
    """A certified seminorm: exact value of the stored part plus slack.

    The true seminorm equals ``value`` whenever ``uncertainty`` is zero or
    strictly below ``value``; otherwise all that is known is that it lies
    in [0, max(value, uncertainty)].  Which of the two holds is worked out
    once here and kept on the instance as ``is_exact`` (not a field, so
    equality and hashing ignore it): every comparison reads it.
    """

    value: NormValue
    uncertainty: NormValue

    def __init__(self, value: NormValue, uncertainty: NormValue):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "uncertainty", uncertainty)
        u = uncertainty.exp
        object.__setattr__(self, "is_exact",
                           u is None or (value.exp is not None and u < value.exp))

    def lower(self) -> NormValue:
        return self.value if self.is_exact else NormValue.zero()

    def upper(self) -> NormValue:
        return nv_max(self.value, self.uncertainty)

    def scaled(self, a: NormValue) -> "NormEstimate":
        """The estimate of a|f| for a positive scale a or the zero norm;
        its callers skip it for a = 1."""
        return NormEstimate(self.value * a, self.uncertainty * a)


def compare_le(a: NormEstimate, b: NormEstimate) -> bool | None:
    """Three-valued `a <= b` on certified seminorms (None = unknown).

    When both sides are exact this is one comparison of their exponents,
    with None (the zero norm) below every exponent: the order that
    ``NormValue.__le__`` defines, without its call.  Otherwise `a <= b`
    is certain when upper(a) <= lower(b), refuted when upper(b) <
    lower(a), and unknown in between."""
    if a.is_exact and b.is_exact:
        x, y = a.value.exp, b.value.exp
        return x is None or (y is not None and x <= y)
    if a.upper() <= b.lower():
        return True
    if b.upper() < a.lower():
        return False
    return None


def compare_lt(a: NormEstimate, b: NormEstimate) -> bool | None:
    """Three-valued `a < b` on certified seminorms (None = unknown), with
    the exponent rule of ``compare_le`` on exact sides."""
    if a.is_exact and b.is_exact:
        x, y = a.value.exp, b.value.exp
        return y is not None and (x is None or x < y)
    if a.upper() < b.lower():
        return True
    if b.upper() <= a.lower():
        return False
    return None


class Series:
    """A finite-support series over a ``Space`` plus a certified tail bound.

    The stored polynomial is ``nums`` over ``den`` (see the module
    docstring); ``coeffs`` reads it out as Fractions.  Immutable by
    convention: no method mutates; all operations return new instances,
    which makes values safe to share across threads.
    """

    # _degrees (see eval_ints) and _const (see constant_seminorm) are set on
    # first use only: the constructors leave them unset, so building a
    # series pays nothing for them
    __slots__ = ("space", "den", "nums", "tail", "_hash", "_degrees", "_const")

    def __init__(self, space: Space, coeffs: Mapping[Exponents, Rational],
                 tail: NormValue = NormValue.zero()):
        clean: dict[Exponents, Fraction] = {}
        n = len(space.vars)
        for expo, c in coeffs.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != n:
                raise ValueError(f"exponent vector {expo} has wrong length for {space.names}")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            c = _as_fraction(c)
            if c != 0:
                clean[expo] = c
        den, nums = ints_of(clean)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Series is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through _raw on a dict of their
        # own; the lazy slots stay unset, as on a new series
        return Series._raw, (self.space, self.den, dict(self.nums), self.tail)

    @staticmethod
    def _raw(space: Space, den: int, nums: dict[Exponents, int],
             tail: NormValue) -> "Series":
        """Internal fast path: (den, nums) must already be reduced (correct
        arity, no zero numerator, gcd(den, *nums) = 1, den > 0)."""
        out = object.__new__(Series)
        object.__setattr__(out, "space", space)
        object.__setattr__(out, "den", den)
        object.__setattr__(out, "nums", nums)
        object.__setattr__(out, "tail", tail)
        object.__setattr__(out, "_hash", None)
        return out

    @staticmethod
    def _reduced(space: Space, a: IntTerms, tail: NormValue) -> "Series":
        """``_raw`` after dividing out the content of a (in place)."""
        return Series._raw(space, *ints_reduce(a), tail)

    @property
    def coeffs(self) -> dict[Exponents, Fraction]:
        """The stored coefficients as Fractions, in a new dict on each call."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.nums.items()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(space: Space) -> "Series":
        return Series._raw(space, 1, {}, NormValue.zero())

    @staticmethod
    def constant(space: Space, c: Rational) -> "Series":
        c = _as_fraction(c)
        nums = {(0,) * len(space.vars): c.numerator} if c else {}
        return Series._raw(space, c.denominator, nums, NormValue.zero())

    @staticmethod
    def one(space: Space) -> "Series":
        return Series._raw(space, 1, {(0,) * len(space.vars): 1}, NormValue.zero())

    @staticmethod
    def variable(space: Space, name: str) -> "Series":
        i = space.index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(space.vars)))
        return Series._raw(space, 1, {expo: 1}, NormValue.zero())

    @staticmethod
    def monomial(space: Space, expo: Exponents, c: Rational = 1) -> "Series":
        return Series(space, {tuple(expo): c})

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.nums and self.tail.is_zero

    @property
    def is_exact(self) -> bool:
        return self.tail.is_zero

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0,) * len(self.space.vars), 0), self.den)

    def as_scalar(self) -> Fraction | None:
        """The value of an exact constant series, else None."""
        if not self.tail.is_zero or any(any(expo) for expo in self.nums):
            return None
        return self.constant_term()

    def constant_seminorm(self) -> tuple[NormEstimate, tuple[int, int]] | None:
        """For a series with no non-constant term, stored part c = num/den:
        (NormEstimate(|c|, tail), (num, den)), its seminorm at every point
        of the polydisc (a point's seminorm extends the absolute value of
        Q) and its value at every rigid point, the pair ``eval_ints``
        gives.  None for a series with a non-constant term.  Computed on
        the first call and kept on the series."""
        try:
            return self._const
        except AttributeError:
            pass
        out = None
        if not any(map(any, self.nums)):
            num = next(iter(self.nums.values()), 0)
            out = (NormEstimate(NormValue.of_ratio(num, self.den, self.space.prime),
                                self.tail), (num, self.den))
        object.__setattr__(self, "_const", out)
        return out

    def degree_in(self, name: str) -> int:
        """Largest stored exponent of the named variable (-1 for no terms)."""
        i = self.space.index(name)
        return max((expo[i] for expo in self.nums), default=-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series) and self.space == other.space
                and self.den == other.den and self.nums == other.nums
                and self.tail == other.tail)

    def __hash__(self):
        # computed on first use and kept: the value is immutable
        h = self._hash
        if h is None:
            h = hash((self.space, self.den, frozenset(self.nums.items()), self.tail))
            object.__setattr__(self, "_hash", h)
        return h

    # -- ring operations with tail propagation ------------------------------

    def _check_same_space(self, other: "Series"):
        if self.space != other.space:
            raise ValueError(f"space mismatch: {self.space.names} vs {other.space.names}")

    def __add__(self, other: "Series") -> "Series":
        self._check_same_space(other)
        out = ints_add_into((self.den, dict(self.nums)), (other.den, other.nums), 1)
        return Series._reduced(self.space, out, nv_max(self.tail, other.tail))

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __neg__(self) -> "Series":
        return Series._raw(self.space, self.den,
                           {e: -c for e, c in self.nums.items()}, self.tail)

    def scale(self, a: Rational) -> "Series":
        a = _as_fraction(a)
        if a == 0:
            return Series.zero(self.space)
        out = (self.den * a.denominator, {e: c * a.numerator for e, c in self.nums.items()})
        return Series._reduced(self.space, out,
                               self.tail * NormValue.of_scalar(a, self.space.prime))

    def __mul__(self, other: "Series") -> "Series":
        self._check_same_space(other)
        out = ints_mul((self.den, self.nums), (other.den, other.nums))
        if self.tail.is_zero and other.tail.is_zero:
            tail = NormValue.zero()
        else:
            tail = nv_max(self.tail * other.main_norm(),
                          other.tail * self.main_norm(),
                          self.tail * other.tail)
        return Series._reduced(self.space, out, tail)

    def pow(self, k: int) -> "Series":
        if k < 0:
            raise ValueError("negative power of a series")
        degree = max(map(sum, self.nums), default=0)
        if k * max(degree, 1) > MAX_POWER:
            raise ValueError(f"power {k} of a series of degree {degree} exceeds "
                             f"the degree limit {MAX_POWER}")
        # square-and-multiply: out takes self^(2^i) for each set bit i of k,
        # about 2 log2(k) products instead of k
        out, square = Series.one(self.space), self
        while k:
            if k & 1:
                out = out * square
            k >>= 1
            if k:
                square = square * square
        return out

    def drop_tail(self) -> "Series":
        return self.with_tail(NormValue.zero())

    def with_tail(self, tail: NormValue) -> "Series":
        return Series._raw(self.space, self.den, self.nums, tail)

    # -- norms ---------------------------------------------------------------

    def main_norm(self) -> NormValue:
        """Exact Gauss norm of the stored polynomial: max |c_nu| r^nu."""
        scaled = self.space.scaled_radii()
        best = norm_exp(self.nums, self.space.prime, scaled)
        return NormValue.zero() if best is None else NormValue.of_scaled(
            best + scaled[0] * _valuation(self.den, 1, self.space.prime), scaled[0])

    def gauss_norm(self) -> NormEstimate:
        return NormEstimate(self.main_norm(), self.tail)

    # -- space plumbing ------------------------------------------------------

    def rename_var(self, old: str, new: str) -> "Series":
        i = self.space.index(old)
        vars2 = list(self.space.vars)
        vars2[i] = VarSpec(new, vars2[i].radius)
        return Series._raw(Space(self.space.prime, tuple(vars2)), self.den, self.nums, self.tail)

    def lift_to(self, space: Space) -> "Series":
        """Reinterpret over a superset space (matching names keep radii).
        On an equal space this is f itself, so identity-keyed memos (see
        ``formulas.Seminorms``) see one object."""
        if space == self.space:
            return self
        pos = {}
        for i, v in enumerate(self.space.vars):
            j = space.index(v.name)
            if space.vars[j].radius != v.radius:
                raise ValueError(f"radius mismatch lifting {v.name}")
            pos[i] = j
        n = len(space.vars)
        out = {}
        for expo, c in self.nums.items():
            e2 = [0] * n
            for i, e in enumerate(expo):
                e2[pos[i]] = e
            out[tuple(e2)] = c
        return Series._raw(space, self.den, out, self.tail)

    # -- coefficient view along one variable ----------------------------------

    def coeff_view(self, pivot: str) -> list[tuple[int, "Series"]]:
        """Present f as sum_n c_n * pivot^n with c_n over the remaining vars
        (``coeff_view_multi`` along the pivot alone)."""
        return [(nu[0], c) for nu, c in self.coeff_view_multi([pivot])]

    def coeff_view_multi(self, fiber: Sequence[str]) -> list[tuple[Exponents, "Series"]]:
        """Present f as sum_nu c_nu * fiber^nu with c_nu over the remaining
        vars, sorted by nu.

        The tail is attached to every coefficient as a shared bound.
        """
        idx = [self.space.index(v) for v in fiber]
        rest = self.space
        for v in fiber:
            rest = rest.drop(v)
        keep = [j for j in range(len(self.space.vars)) if j not in idx]
        buckets: dict[Exponents, dict[Exponents, int]] = {}
        for expo, c in self.nums.items():
            nu = tuple(expo[j] for j in idx)
            e2 = tuple(expo[j] for j in keep)
            buckets.setdefault(nu, {})[e2] = c
        return [(nu, Series._reduced(rest, (self.den, buckets[nu]), self.tail))
                for nu in sorted(buckets)]

    # -- substitution ----------------------------------------------------------

    def substitute(self, assignment: Mapping[str, "Series"]) -> "Series":
        """Compose f with a full assignment var -> series over one target space.

        Requires the norm budget |image| <= radius(var) for each variable, so
        the composite converges on the target polydisc.  The stored parts
        compose exactly; the tail of f passes through unchanged (composition
        is a sup-norm contraction) and the tails of the images enter through
        the exact first-order ultrametric bound max_i tail_i * |f_i| / r_i,
        f_i the terms c_nu X^nu of f with nu_i >= 1 and |f_i| their Gauss
        norm max |c_nu| r^nu (``main_norm``).  Under the norm budget this
        bound dominates every tail the products c_nu g^nu would carry under
        ``*``, so the composite is summed on integer numerators.
        """
        if set(assignment) != set(self.space.names):
            missing = set(self.space.names) - set(assignment)
            extra = set(assignment) - set(self.space.names)
            raise ValueError(f"assignment must cover the variables exactly "
                             f"(missing {sorted(missing)}, extra {sorted(extra)})")
        images = [assignment[v.name] for v in self.space.vars]
        target = images[0].space if images else None
        if target is None:
            raise ValueError("substitution needs at least one variable")
        for g in images:
            if g.space != target:
                raise ValueError("all substituted series must share one space")
        for v, g in zip(self.space.vars, images):
            if nv_max(g.main_norm(), g.tail) > v.radius:
                raise ValueError(
                    f"norm budget violated: |image of {v.name}| exceeds radius "
                    f"{v.radius.text(self.space.prime)}")

        unit = (0,) * len(target.vars)
        # cache powers of each image's stored part
        max_exp = [max(col) for col in zip(*self.nums)] or [0] * len(images)
        powers: list[list[IntTerms]] = []
        for g, m in zip(images, max_exp):
            row = [(1, {unit: 1})]
            for _ in range(m):
                row.append(ints_reduce(ints_mul(row[-1], (g.den, g.nums))))
            powers.append(row)

        out: IntTerms = (1, {})
        for expo, c in self.nums.items():
            term: IntTerms = (self.den, {unit: c})
            for i, e in enumerate(expo):
                if e:
                    term = ints_mul(term, powers[i][e])
            out = ints_add_into(out, term, 1)
        # first-order contribution of the image tails: tail_i / r_i times
        # the Gauss norm of the terms of f that contain variable i
        tail = self.tail
        for i, (v, g) in enumerate(zip(self.space.vars, images)):
            if not g.tail.is_zero:
                part = Series._reduced(self.space, (self.den, {
                    e: c for e, c in self.nums.items() if e[i]}), NormValue.zero())
                tail = nv_max(tail, g.tail * part.main_norm() / v.radius)
        return Series._reduced(target, out, tail)

    # -- evaluation --------------------------------------------------------------

    def eval_exact(self, coords: Sequence[Rational]) -> Fraction:
        """Exact value of the stored polynomial at rational coordinates."""
        coords = [_as_fraction(c) for c in coords]
        if len(coords) != len(self.space.vars):
            raise ValueError("coordinate count mismatch")
        return Fraction(*self.eval_ints(coords, {}))

    def eval_ints(self, coords: Sequence[Fraction], rows: PowerRows
                  ) -> tuple[int, int]:
        """The value at Fraction coordinates x_i = a_i/b_i as an unreduced
        (num, den): with K_i the degree in x_i, num = sum_nu c_nu prod
        a_i^nu_i b_i^(K_i - nu_i) over den = self.den * prod b_i^K_i.  Pass
        ``rows`` = {}, or one dict shared by evaluations at the same x.

        The degree vector, as the pairs (i, K_i) with K_i > 0, is computed
        on the first evaluation and kept on the series."""
        try:
            degrees = self._degrees
        except AttributeError:
            degrees = tuple((i, k) for i, k in enumerate(map(max, zip(*self.nums)))
                            if k)
            object.__setattr__(self, "_degrees", degrees)
        den, tables = self.den, []
        for i, k in degrees:
            hit = rows.get((i, k))
            if hit is None:
                a, b = coords[i].numerator, coords[i].denominator
                hit = rows[i, k] = ([a ** j * b ** (k - j) for j in range(k + 1)],
                                    b ** k)
            tables.append((i, hit[0]))
            den *= hit[1]
        num = 0
        for expo, c in self.nums.items():
            for i, row in tables:
                c *= row[expo[i]]
            num += c
        return num, den

    def eval_seminorm(self, point: "Point") -> NormEstimate:
        """Certified |f(x)| at a rigid or monomial point of the polydisc."""
        point.check_in(self.space)
        return self.seminorm_at(point)

    def seminorm_at(self, point: "Point") -> NormEstimate:
        """``eval_seminorm`` without the point check: the caller has
        already run ``point.check_in(self.space)``.

        At a monomial point (a, rho) this is the Gauss norm with radii rho
        of f(X + a), taken on integer numerators after one Taylor shift per
        nonzero centre coordinate; the tail is f's own, because the images
        X + a are exact and |a| <= radius holds inside the polydisc."""
        if isinstance(point, RigidPoint):
            num, den = self.eval_ints(point.coords, {})
            return NormEstimate(NormValue.of_ratio(num, den, self.space.prime),
                                self.tail)
        p = self.space.prime
        terms = self.nums
        vden = _valuation(self.den, 1, p)
        for i, a in enumerate(point.center):
            if a:
                terms, k = taylor_shift(terms, i, a.numerator, a.denominator)
                vden += k * _valuation(a.denominator, 1, p)
        scaled = scaled_exponents(point.rho)
        best = norm_exp(terms, p, scaled)
        value = (NormValue.zero() if best is None
                 else NormValue.of_scaled(best + scaled[0] * vden, scaled[0]))
        return NormEstimate(value, self.tail)

    # -- printing -------------------------------------------------------------

    def text(self) -> str:
        """Canonical polynomial form, highest monomial first (lex).

        An inexact series renders only its stored part; the tail is reported
        separately by callers that need it.
        """
        if not self.nums:
            return "0"
        parts = []
        for expo in sorted(self.nums, reverse=True):
            c = Fraction(self.nums[expo], self.den)
            factors = []
            for v, e in zip(self.space.vars, expo):
                if e == 1:
                    factors.append(v.name)
                elif e > 1:
                    factors.append(f"{v.name}^{e}")
            if not factors:
                body = scalar_text(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = scalar_text(abs(c)) + "*" + "*".join(factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        t = "" if self.tail.is_zero else f" + O({self.tail.text(self.space.prime)})"
        return f"<Series {self.text()}{t} on {self.space.names}>"


# -- points -----------------------------------------------------------------


def _state_without_memo(point) -> dict:
    """A point's state for copy and pickle, without ``_seminorms``: the memo
    of ``formulas.Seminorms`` is keyed by object identity, which a copy
    does not keep."""
    state = dict(point.__dict__)
    state.pop("_seminorms", None)
    return state


class RigidPoint(Value):
    """A point with exact rational coordinates."""

    space: Space
    coords: tuple[Fraction, ...]

    def __init__(self, space: Space, coords: Sequence[Rational]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", tuple(_as_fraction(c) for c in coords))

    __getstate__ = _state_without_memo

    def check_in(self, space: Space):
        if space != self.space:
            raise ValueError("point/space mismatch")
        if len(self.coords) != len(space.vars):
            raise ValueError("coordinate count mismatch")
        p = space.prime
        for a, v in zip(self.coords, space.vars):
            if NormValue.of_scalar(a, p) > v.radius:
                raise ValueError(f"coordinate {scalar_text(a)} outside |{v.name}| <= "
                                 f"{v.radius.text(p)}")

    def coord(self, name: str) -> Fraction:
        return self.coords[self.space.index(name)]

    def text(self) -> str:
        return "(" + ", ".join(scalar_text(c) for c in self.coords) + ")"


class MonomialPoint(Value):
    """A monomial (Gauss-type) point: center a, radii rho, 0 < rho <= radius.

    The seminorm of f is the Gauss norm of f recentered at a with polyradius
    rho.  With center 0 and rho equal to the ambient radii this is the Gauss
    point of the polydisc.
    """

    space: Space
    center: tuple[Fraction, ...]
    rho: tuple[NormValue, ...]

    def __init__(self, space: Space, center: Sequence[Rational], rho: Sequence[NormValue]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "center", tuple(_as_fraction(c) for c in center))
        object.__setattr__(self, "rho", tuple(rho))

    __getstate__ = _state_without_memo

    def check_in(self, space: Space):
        if space != self.space:
            raise ValueError("point/space mismatch")
        if not len(self.center) == len(self.rho) == len(space.vars):
            raise ValueError("coordinate count mismatch")
        p = space.prime
        for a, r, v in zip(self.center, self.rho, space.vars):
            if NormValue.of_scalar(a, p) > v.radius:
                raise ValueError(f"center coordinate outside the polydisc at {v.name}")
            if r.is_zero or r > v.radius:
                raise ValueError(f"monomial radius at {v.name} must satisfy 0 < rho <= radius")

    def text(self) -> str:
        p = self.space.prime
        c = ", ".join(scalar_text(a) for a in self.center)
        r = ", ".join(x.text(p) for x in self.rho)
        return f"gauss({c}; {r})"


Point = RigidPoint | MonomialPoint


def gauss_point(space: Space) -> MonomialPoint:
    return MonomialPoint(space, (0,) * len(space.vars), space.radii)


def pushforward_eval(h: Series, phi: Sequence[Series], x: Point) -> NormEstimate:
    """Certified seminorm of h at the image of x under the map phi.

    phi lists one series per variable of h's space, all over x's space; the
    value is eval_seminorm(h o phi, x).
    """
    if len(phi) != len(h.space.vars):
        raise ValueError("phi must supply one series per variable")
    assignment = {v.name: g for v, g in zip(h.space.vars, phi)}
    return h.substitute(assignment).eval_seminorm(x)
