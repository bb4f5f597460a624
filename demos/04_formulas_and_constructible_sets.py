"""The formula DSL and the calculus of constructible sets.

Semianalytic sets are boolean combinations of norm inequalities between
series; constructible sets add chart extensions t = f/g with norm bounds,
which is what projections of semianalytic sets look like.  Membership at
rigid points is exact, and the class is closed under union, intersection
and complement by explicit constructions.
"""

from fractions import Fraction

from padicgeom import (ConstructibleSet, DatumChain, ElementaryDatum,
                       MonomialPoint, NormValue, RigidPoint, Series, Space,
                       VarSpec, complement, eval_formula, formula_set,
                       formula_text, intersect, membership, negate,
                       parse_formula, to_dnf)
from padicgeom.formulas import tautology

p = 2
line = Space(p, (VarSpec("T", NormValue.one()),))

print("== parsing and evaluation ==")
phi = parse_formula("|T| <= 2^-1/2*|1| & !(|T| < 2^-1/2*|1|)", line)
print(f"  formula: {formula_text(phi)}")
eta = MonomialPoint(line, (0,), (NormValue.power(Fraction(-1, 2)),))
print(f"  at the radius-2^-1/2 monomial point: {eval_formula(phi, eta)}")
print(f"  at the rigid points 0, 1, 2, 6: "
      f"{[eval_formula(phi, RigidPoint(line, (c,))) for c in (0, 1, 2, 6)]}")
print("  (the circle |T| = 2^-1/2 holds no rational point at all)")

print("\n== negation and DNF ==")
psi = parse_formula("(|T| <= 2^-1*|1| | |T - 1| < |1|) & |T^2| < |1|", line)
print(f"  formula: {formula_text(psi)}")
print(f"  negation: {formula_text(negate(psi))}")
print(f"  DNF: {len(to_dnf(psi))} basic conjuncts")

print("\n== a chart datum and its complement ==")
plane = Space(p, (VarSpec("x", NormValue.one()), VarSpec("y", NormValue.one())))
ext = plane.extend(VarSpec("t", NormValue.power(1)))
datum = ElementaryDatum("t", Series.variable(plane, "y"),
                        Series.variable(plane, "x"),
                        NormValue.power(1), NormValue.one(), tautology(ext))
S = ConstructibleSet(plane, (DatumChain(plane, tautology(plane), (datum,)),))
print("  S = image of the chart y = t x with |y| <= |x|, x != 0")
for coords in [(2, 4), (0, 0), (4, 2)]:
    x = RigidPoint(plane, coords)
    print(f"  {coords} in S: {membership(S, x)}")

C = complement(S)
print(f"  complement has {len(C.chains)} chains "
      f"(formula pieces, the vanishing denominator, the failed region)")
for coords in [(2, 4), (0, 0), (4, 2)]:
    x = RigidPoint(plane, coords)
    print(f"  {coords} in the complement: {membership(C, x)}")

H = formula_set(plane, parse_formula("|x| <= 2^-1*|1|", plane))
M = intersect(S, C)  # always empty
print(f"  S meets its complement at (2,4): "
      f"{membership(M, RigidPoint(plane, (2, 4)))}")
print(f"  S meets the half-disc |x| <= 1/2 at (2,4): "
      f"{membership(intersect(S, H), RigidPoint(plane, (2, 4)))}")
