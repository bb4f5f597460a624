"""Blow-up of a rigid point of a two-dimensional polydisc: the two standard
charts, pullback and pushdown of functions, the chart transition, and the
local divisibility test for already-monomialized germs.

Chart 1 maps (x, t) to (x, t x); chart 2 maps (y, t) to (t y, y).  Centers
other than the origin are handled by a translation pre-pass.  The chart
variable has radius 1.
"""

from __future__ import annotations

from .scalars import NormValue, Value
from .series import RigidPoint, Series, Space, VarSpec
from .weierstrass import UnitCertificate


class Chart(Value):
    """One of the two blow-up charts at a rigid center of a bidisc.

    ``index`` 1 keeps the first base coordinate; index 2 keeps the second.
    The source space fixes the names/radii of the base coordinates; the
    center must be translated to the origin before applying the chart.
    """

    index: int
    base: Space
    t_name: str

    def __init__(self, index: int, base: Space, t_name: str = "t"):
        if index not in (1, 2):
            raise ValueError("chart index must be 1 or 2")
        if len(base.vars) != 2:
            raise ValueError("blow-up charts live over a two-variable space")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "t_name", t_name)

    @property
    def kept(self) -> VarSpec:
        return self.base.vars[self.index - 1]

    @property
    def replaced(self) -> VarSpec:
        return self.base.vars[2 - self.index]

    def space(self) -> Space:
        return Space(self.base.prime,
                     (VarSpec(self.kept.name, self.kept.radius),
                      VarSpec(self.t_name, NormValue.one())))

    def to_base(self, q: RigidPoint) -> RigidPoint:
        """The image of a chart point in the base coordinates."""
        kept_val = q.coord(self.kept.name)
        image = {self.kept.name: kept_val,
                 self.replaced.name: q.coord(self.t_name) * kept_val}
        return RigidPoint(self.base, tuple(image[v.name] for v in self.base.vars))


def pullback_chart(h: Series, chart: Chart) -> Series:
    """h composed with the chart map, as an exact substitution.

    Chart 1 sends the second coordinate to t * x; chart 2 sends the first
    to t * y.  Requires the norm budget radius(kept) * 1 <= radius(replaced).
    """
    if h.space != chart.base:
        raise ValueError("series does not live on the chart's base")
    target = chart.space()
    kept = Series.variable(target, chart.kept.name)
    t = Series.variable(target, chart.t_name)
    return h.substitute({chart.kept.name: kept, chart.replaced.name: t * kept})


def translate(h: Series, center: RigidPoint) -> Series:
    """Recenter h at a rigid point: h(x + a) on the same polydisc."""
    if h.space != center.space:
        raise ValueError("point does not live on the series' space")
    assignment = {}
    for v, a in zip(h.space.vars, center.coords):
        assignment[v.name] = (Series.variable(h.space, v.name)
                              + Series.constant(h.space, a))
    return h.substitute(assignment)


def factor_x_power(h: Series, name: str) -> tuple[int, Series]:
    """Exact factorization h = x^b * h~ with h~ not divisible by x.

    The cofactor has some monomial free of x, so its restriction to x = 0
    is a nonzero series in the other variables.
    """
    if h.is_zero:
        raise ValueError("cannot factor the zero series")
    if not h.tail.is_zero:
        raise ValueError("x-power factoring needs an exact series")
    i = h.space.index(name)
    b = min(expo[i] for expo in h.nums)
    out = {expo[:i] + (expo[i] - b,) + expo[i + 1:]: c
           for expo, c in h.nums.items()}
    return b, Series._raw(h.space, h.den, out, NormValue.zero())


def pushdown_poly(poly: Series, chart: Chart) -> tuple[int, Series]:
    """Clear the chart denominator of a polynomial in the chart variable.

    For P polynomial in t over the kept coordinate x, returns (M, P~) with
    M = deg_t P and x^M P(x, t) equal to the chart pullback of P~(x, y)
    exactly: each c_k(x) t^k becomes c_k(x) x^(M-k) y^k.
    """
    if not poly.tail.is_zero:
        raise ValueError("pushdown needs an exact polynomial")
    source = chart.space()
    if poly.space != source:
        raise ValueError("polynomial does not live on the chart space")
    t_idx = poly.space.index(chart.t_name)
    kept_idx = 1 - t_idx
    m = poly.degree_in(chart.t_name)
    if m < 0:
        m = 0
    target = chart.base
    kept_pos = target.index(chart.kept.name)
    repl_pos = target.index(chart.replaced.name)
    out = {}
    for expo, c in poly.nums.items():
        k = expo[t_idx]
        a = expo[kept_idx]
        e = [0, 0]
        e[kept_pos] = a + (m - k)
        e[repl_pos] = k
        out[tuple(e)] = c  # (k, a) -> e is injective: no two terms meet
    return m, Series._raw(target, poly.den, out, NormValue.zero())


def chart_transition(q: RigidPoint, chart1: Chart, chart2: Chart) -> RigidPoint:
    """Move a chart-1 point with |t| = 1 to chart-2 coordinates:
    (x, t) -> (x t, 1/t).  Both chart maps agree on the image."""
    t_val = q.coord(chart1.t_name)
    if t_val == 0:
        raise ValueError("the transition needs t != 0")
    p = q.space.prime
    if NormValue.of_scalar(t_val, p) != NormValue.one():
        raise ValueError("the transition overlap needs |t| = 1")
    x_val = q.coord(chart1.kept.name)
    return RigidPoint(chart2.space(), (x_val * t_val, 1 / t_val))


class MonomialUnitForm(Value):
    """A germ presented as unit * xi1^a * xi2^b in local parameters."""

    unit: UnitCertificate
    a: int
    b: int

    def __init__(self, unit: UnitCertificate, a: int, b: int):
        if a < 0 or b < 0:
            raise ValueError("exponents must be natural numbers")
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def local_divisibility(f: MonomialUnitForm, g: MonomialUnitForm) -> str:
    """Divisibility between monomialized germs over the same parameters:
    one of 'f_divides_g', 'g_divides_f', 'both', 'neither'.

    Units are invertible, so only the exponents matter: f | g iff both
    exponents of f are <= those of g.
    """
    fg = f.a <= g.a and f.b <= g.b
    gf = g.a <= f.a and g.b <= f.b
    if fg and gf:
        return "both"
    if fg:
        return "f_divides_g"
    if gf:
        return "g_divides_f"
    return "neither"
