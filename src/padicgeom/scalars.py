"""Exact scalars and the multiplicative value group p^Q u {0}.

Scalars are plain ``fractions.Fraction`` values; the prime p of the ambient
valued field is passed explicitly (it is fixed per document / computation).
Norms, radii and thresholds are ``NormValue`` instances: either the zero
norm or an exact power p^e with rational exponent e, stored as an ``int``
when e is integral (almost always) and as a ``Fraction`` otherwise.  Every
comparison is exact and there is no float arithmetic: the floats +-inf
appear only as order sentinels (``INFINITY`` below, the valuation of 0,
and ``projection.NULL``, the scaled exponent of the zero norm), never in a
sum or product.

The package's immutable value types (norms, spaces, points, certificates,
formulas, results) derive from ``Value`` below instead of being generated
by the standard library's PEP 557 decorator.  That decorator writes and
``exec``s the methods of every class at import, and its module pulls in
``inspect`` and ``ast``; together they were most of the start-up of the
short-lived ``padicgeom`` CLI process.  ``Value`` keeps the same contract
(see its docstring) with one shared definition and no generated code.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter
from typing import Optional, Tuple, Union

Rational = Union[int, Fraction]

INFINITY = float("inf")  # valuation of 0


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def valuation(a: Rational, p: int):
    """p-adic valuation v_p(a) of a rational number; inf for a = 0.

    >>> valuation(4, 2)
    2
    >>> valuation(Fraction(6, 5), 3)
    1
    >>> valuation(Fraction(1, 2), 2)
    -1
    """
    if p < 2:
        raise ValueError("prime must be >= 2")
    a = _as_fraction(a)
    if a == 0:
        return INFINITY
    return _valuation(a.numerator, a.denominator, p)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the bases above decides primality for n below this
# bound (Sorenson-Webster 2015); larger moduli are refused, not guessed.
_MR_LIMIT = 3317044064679887385961981
_PRIMES = set()  # integers already shown prime by require_prime


def require_prime(p) -> None:
    """Raise ValueError unless p is a prime int (memoised per integer)."""
    if type(p) is not int:
        raise ValueError(f"prime must be an integer, not {p!r}")
    if p in _PRIMES:
        return
    if p < 2:
        raise ValueError("prime must be >= 2")
    if p >= _MR_LIMIT:
        raise ValueError(f"prime {p} is too large to certify")
    if p not in _MR_BASES:
        for a in _MR_BASES:
            if p % a == 0:
                raise ValueError(f"{p} is not a prime")
        d, r = p - 1, 0
        while d % 2 == 0:
            d //= 2
            r += 1
        for a in _MR_BASES:
            x = pow(a, d, p)
            if x in (1, p - 1):
                continue
            for _ in range(r - 1):
                x = x * x % p
                if x == p - 1:
                    break
            else:
                raise ValueError(f"{p} is not a prime")
    _PRIMES.add(p)


def _valuation(n: int, d: int, p: int) -> int:
    """v_p(n/d) for n != 0, d > 0 and p >= 2."""
    if p == 2:
        # n & -n is the lowest set bit of n, which is 2^v_2(n)
        return (n & -n).bit_length() - (d & -d).bit_length()
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


class Value:
    """Base of the immutable value types: fields listed as class annotations.

    Each subclass writes its own ``__init__``, which validates its arguments
    and stores each field with ``object.__setattr__``; afterwards assigning
    or deleting an attribute raises ``AttributeError``.  (Touching
    ``self.__dict__`` instead would turn the instance's inline attribute
    storage into a real dict, and CPython 3.11 then reads every attribute
    of that instance about a fifth slower.)  With
    f1, ..., fn the annotated fields in order, the contract is that of a
    frozen PEP 557 record, so set and dict orders (and hence every output)
    are the ones such records give:

    - x == y iff y has exactly x's class and (x.f1, ..., x.fn) ==
      (y.f1, ..., y.fn); instances of different classes never compare equal;
    - hash(x) == hash((x.f1, ..., x.fn)), a 1-tuple for one field;
    - repr(x) is ``Name(f1=..., ..., fn=...)`` unless the class overrides it.

    Attributes stored outside the fields (a cache, say) take no part in
    ``==`` or ``hash``.  A class builds its ``==`` and ``hash`` once, from an
    ``operator.attrgetter`` over its fields, when it is defined.
    """

    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*fields)
        # The two variants differ only in the tuple: attrgetter of one name
        # returns the bare value.  Both stay inline, as a shared key helper
        # would add a Python call to every == and hash.
        if len(fields) == 1:
            def __eq__(self, other):
                if self is other:
                    return True
                if other.__class__ is not self.__class__:
                    return NotImplemented
                return (get(self),) == (get(other),)

            def __hash__(self):
                return hash((get(self),))
        else:
            def __eq__(self, other):
                if self is other:
                    return True
                if other.__class__ is not self.__class__:
                    return NotImplemented
                return get(self) == get(other)

            def __hash__(self):
                return hash(get(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class NormValue(Value):
    """An element of the value group p^Q u {0}, stored as the exponent.

    ``exp is None`` encodes the zero norm.  Otherwise ``exp`` is canonical:
    an ``int`` when the exponent is integral, else a ``Fraction`` with
    denominator > 1.  Every constructor below and every group operation
    builds its result through ``_power``, which enforces that form; equal
    exponents compare and hash equal in either type.  The total order and
    the group law never need to know p (p >= 2 makes p^e strictly
    increasing in e), so instances are prime-agnostic; only text rendering
    takes p.
    """

    exp: Optional[Rational]

    def __init__(self, exp: Optional[Rational]):
        object.__setattr__(self, "exp", exp)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "NormValue":
        return _ZERO

    @staticmethod
    def one() -> "NormValue":
        return _ONE

    @staticmethod
    def power(exp: Rational) -> "NormValue":
        return _power(exp if type(exp) is int else _as_fraction(exp))

    @staticmethod
    def of_scaled(n: int, d: int) -> "NormValue":
        """p^(n/d) for integers n and d > 0, such as a ``norm_exp`` result
        over the space's common denominator d."""
        q, r = divmod(n, d)
        return _power(Fraction(n, d) if r else q)

    @staticmethod
    def of_scalar(a: Rational, p: int) -> "NormValue":
        """|a| = p^(-v_p(a)); the norm of a rational scalar."""
        a = _as_fraction(a)
        return NormValue.of_ratio(a.numerator, a.denominator, p)

    @staticmethod
    def of_ratio(num: int, den: int, p: int) -> "NormValue":
        """|num/den| = p^(v_p(den) - v_p(num)) for integers (den != 0),
        read off without building or reducing the Fraction num/den."""
        if not num:
            return _ZERO
        if p < 2:
            raise ValueError("prime must be >= 2")
        return _power(-_valuation(num, den, p))

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.exp is None

    # -- group law ---------------------------------------------------------

    def __mul__(self, other: "NormValue") -> "NormValue":
        a, b = self.exp, other.exp
        if a is None or b is None:
            return _ZERO
        if not a:
            return other
        if not b:
            return self
        return _power(a + b)

    def __truediv__(self, other: "NormValue") -> "NormValue":
        if other.exp is None:
            raise ZeroDivisionError("division by the zero norm")
        if self.exp is None:
            return _ZERO
        return _power(self.exp - other.exp)

    def __pow__(self, k: Rational) -> "NormValue":
        if type(k) is not int:
            k = _as_fraction(k)
        if self.exp is None:
            if k <= 0:
                raise ZeroDivisionError("0 raised to a non-positive power")
            return _ZERO
        return _power(self.exp * k)

    # -- total order: zero < every power; powers ordered by exponent --------

    def __lt__(self, other: "NormValue") -> bool:
        if self.exp is None:
            return other.exp is not None
        if other.exp is None:
            return False
        return self.exp < other.exp

    def __le__(self, other: "NormValue") -> bool:
        return self.exp is None or (other.exp is not None and self.exp <= other.exp)

    def __gt__(self, other: "NormValue") -> bool:
        return other < self

    def __ge__(self, other: "NormValue") -> bool:
        return other <= self

    def compare_fraction(self, c: Rational, p: int) -> int:
        """Exact three-way comparison of this norm against a positive
        rational constant c (as a real number): -1, 0 or +1.

        p^(u/v) vs c is decided as the integer comparison p^u vs c^v.
        """
        c = _as_fraction(c)
        if c <= 0:
            raise ValueError("comparison constant must be positive")
        if self.exp is None:
            return -1
        u, v = self.exp.numerator, self.exp.denominator
        lhs = Fraction(p) ** u
        rhs = c ** v
        return (lhs > rhs) - (lhs < rhs)

    # -- text form: `p^<rational>` or `0` -----------------------------------

    def text(self, p: int) -> str:
        if self.exp is None:
            return "0"
        e = self.exp
        if e.denominator == 1:
            return f"{p}^{e.numerator}"
        return f"{p}^{e.numerator}/{e.denominator}"

    def __repr__(self) -> str:
        if self.exp is None:
            return "NormValue(0)"
        return f"NormValue(p^{self.exp})"


def _power(e: Rational) -> NormValue:
    """p^e for an int or Fraction e, with ``exp`` in the canonical form:
    an int when e is integral, the shared instance for small e."""
    if type(e) is not int:
        if e.denominator != 1:
            return NormValue(e)
        e = e.numerator
    nv = _SMALL_POWERS.get(e)
    return NormValue(e) if nv is None else nv


_ZERO = NormValue(None)
_ONE = NormValue(0)

# Shared instances p^e for small integer e, so that scalar norms (almost
# all of them have a small exponent) cost no allocation.  Fixed at import;
# exponents outside the table are built on demand.
_SMALL_POWERS = {e: NormValue(e) for e in range(-64, 65)}
_SMALL_POWERS[0] = _ONE

_NORM_RE = re.compile(r"^(\d+)\^(-?\d+)(?:/(\d+))?$")


def parse_norm(text: str, p: int) -> NormValue:
    """Parse a norm literal: `0` or `p^q` with q a rational (e.g. `2^-3/2`)."""
    if not isinstance(text, str):
        raise ValueError(f"bad norm literal: {text!r}")
    text = text.strip()
    if text == "0":
        return _ZERO
    if text == "1":
        return _ONE
    m = _NORM_RE.match(text)
    if not m:
        raise ValueError(f"bad norm literal: {text!r}")
    base = int(m.group(1))
    if base != p:
        raise ValueError(f"norm literal base {base} does not match prime {p}")
    num = int(m.group(2))
    den = int(m.group(3)) if m.group(3) else 1
    if den == 0:
        raise ValueError(f"bad norm literal: {text!r}")
    return _power(Fraction(num, den))


def parse_scalar(text: str) -> Fraction:
    """Parse a scalar literal: `<int>` or `<int>/<int>`."""
    if not isinstance(text, str):
        raise ValueError(f"bad scalar literal: {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"bad scalar literal: {text!r}") from None


def scalar_text(a: Rational) -> str:
    a = _as_fraction(a)
    if a.denominator == 1:
        return str(a.numerator)
    return f"{a.numerator}/{a.denominator}"


def nv_max(*vals: NormValue) -> NormValue:
    out = _ZERO
    for v in vals:
        if out < v:
            out = v
    return out


def nv_min(*vals: NormValue) -> NormValue:
    if not vals:
        raise ValueError("nv_min of nothing")
    out = vals[0]
    for v in vals[1:]:
        if v < out:
            out = v
    return out
