"""One-variable quantifier elimination over the closed unit disc.

Ultrametric sublevel sets {|P(t)| <= c} of split polynomials are finite
unions of discs around the roots; comparing two such polynomials is
decided exactly by scanning the disc-tree cells cut out by root distances
and crossing radii.  Conjunctions of prepared atoms are decided with a
verified witness from the first cell of the scan that satisfies them, in
increasing radius: a rational point when the scan finds one in that
cell, a Gauss-type (monomial) point otherwise, even if a later cell holds
a rational one.
"""

from fractions import Fraction

from padicgeom import (And, Atom, NormValue, RigidPoint, Series, Space,
                       SplitAtom, SplitPoly, VarSpec, decide_exists,
                       lemniscate_region, project_decision, qe_prepare,
                       split_series)

p = 2
ONE = NormValue.one()
CONST1 = SplitPoly(Fraction(1), ())
line = Space(p, (VarSpec("t", ONE),))  # the closed unit disc B

print("== lemniscates ==")
P = SplitPoly(Fraction(1), ((Fraction(0), 1), (Fraction(2), 1)))  # T(T-2)
for d in lemniscate_region(P, "<=", NormValue.power(-3), line):
    print(f"  |T(T-2)| <= 2^-3 contains the disc around {d.center} "
          f"of radius {d.radius.text(p)}")

print("\n== existential decisions ==")
atom = SplitAtom(ONE, P, "<=", NormValue.power(-3), CONST1)
d = decide_exists(atom, line)
print(f"  exists t in B with |t(t-2)| <= 2^-3:  {d.status}, "
      f"witness {d.witness.text()}")

pin = SplitAtom(ONE, SplitPoly(Fraction(1), ((Fraction(1), 1),)), "<=",
                NormValue.power(-10), CONST1)  # |t - 1| <= 2^-10
d2 = decide_exists(And((atom, pin)), line)
print(f"  same, but t must be within 2^-10 of 1:  {d2.status}")

band = And((SplitAtom(ONE, SplitPoly(Fraction(1), ((Fraction(0), 1),)), "<=",
                       NormValue.power(Fraction(-1, 2)), CONST1),
             SplitAtom(NormValue.power(Fraction(-1, 2)), CONST1, "<=", ONE,
                       SplitPoly(Fraction(1), ((Fraction(0), 1),)))))
d3 = decide_exists(band, line)
print(f"  the circle |t| = 2^-1/2:  {d3.status}, witness {d3.witness.text()} "
      f"(no rigid point qualifies)")

print("\n== preparing atoms first ==")
wide = Space(p, (VarSpec("T", NormValue.power(1)),))
f = Series(wide, {(1,): 1, (2,): 2})  # T + 2T^2 = (1 + 2T) T on the disc
atom_w = Atom(ONE, f, "<=", NormValue.power(-1), Series.one(wide))
(pa,) = qe_prepare([atom_w], "T")
print(f"  |T + 2T^2| <= 2^-1 becomes "
      f"{pa.alpha.text(p)}*|{pa.f.text()}| {pa.op} "
      f"{pa.beta.text(p)}*|{pa.g.text()}|")

print("\n== pointwise projection over a base ==")
base = Space(p, (VarSpec("x", ONE),))
total = Space(p, (VarSpec("x", ONE), VarSpec("t", ONE)))
graph = Atom(ONE, Series(total, {(1, 1): 1, (2, 0): -1}), "<=",
             NormValue.zero(), Series.one(total))  # t x = x^2
for a in (2, 4):
    status, _ = project_decision([graph], RigidPoint(base, (a,)), "t")
    val = {"SAT": True, "UNSAT": False}.get(status)
    print(f"  exists t in B with t*{a} = {a}^2:  {val}")

print("\n== splitting helper ==")
g = Series(line, {(2,): 1, (1,): -4, (0,): 4})
print(f"  t^2 - 4t + 4 splits as {split_series(g).roots}")
