"""Workload `qe`: one-variable existential decisions from DSL text.

Each instance is a random formula over one variable T (radius 1, the disc
the decision procedure decides over) whose atoms compare scaled products of
rational linear factors, written as DSL text.  One op decides it
(parse_formula -> to_dnf -> project_decision per conjunct, stopping at the
first SAT); SAMPLES further ops evaluate the formula and its DNF at one
seeded sample point each, MONOMIAL of them monomial points.  Roots come from
the acceptance root pool; every LARGE_EVERY-th formula also has a large
integer root (6 to 12 digits, in turn), whose trial-division root search is the
workload's tail.

Answers are checked against an oracle that shares no code with the decision
procedure: the generated factorisations are evaluated directly, with this
module's own valuation, at the points of the criterion-9 brute-force grid.
"""

import math
from fractions import Fraction

from padicgeom import MonomialPoint, NormValue, RigidPoint, Space, formulas, projection

from corpus import instance_rng, rand_point_coord, rand_unit_scalar, space
from spans import coeff_bits

NAME = "qe"
CORPUS_SIZE = 280
SAMPLES = 5
MONOMIAL = 2
LARGE_EVERY = 30
ROOT_POOL = {2: (0, 1, -1, 2, 4, 3, 6), 3: (0, 1, -1, 3, 9, 2, 6)}
NEG = float("-inf")  # exponent of the zero norm


def eval_formula(phi, x):
    """The benchmark's own calls of eval_formula (one span each when traced)."""
    return formulas.eval_formula(phi, x)


# -- generated formulas: trees over factored sides -----------------------------------
#
# side: (lead, ((root, mult), ...)); atom: ("atom", a, left, op, b, right) for
# p^a |left| op p^b |right|; and ("not", x), ("and", xs), ("or", xs).


def rand_side(rng, p, max_deg=3):
    lead = rand_unit_scalar(rng, p) * Fraction(p) ** rng.randint(-1, 1)
    if rng.random() < 0.2:
        return lead, ()
    roots, deg = {}, 0
    for _ in range(rng.randint(1, 2)):
        m = min(rng.randint(1, 2), max_deg - deg)
        if m <= 0:
            break
        a = rng.choice(ROOT_POOL[p])
        roots[a] = roots.get(a, 0) + m
        deg += m
    return lead, tuple(sorted(roots.items()))


def rand_atom(rng, p):
    left = rand_side(rng, p)
    right = rand_side(rng, p) if rng.random() < 0.4 else (Fraction(1), ())
    return ("atom", rng.randint(-4, 2), left, rng.choice(["<=", "<"]), rng.randint(-4, 2), right)


def rand_tree(rng, p, budget):
    if budget <= 1 or rng.random() < 0.3:
        return rand_atom(rng, p), 1
    kind = rng.random()
    if kind < 0.2:
        sub, used = rand_tree(rng, p, budget - 1)
        return ("not", sub), used
    args, used = [], 0
    for _ in range(rng.randint(2, 3)):
        if used >= budget:
            break
        sub, u = rand_tree(rng, p, budget - used)
        args.append(sub)
        used += u
    if len(args) == 1:
        return args[0], used
    return ("and" if kind < 0.6 else "or", tuple(args)), used


def with_large_root(tree, root):
    """Put the large root into the first atom's left side."""
    if tree[0] == "atom":
        _, a, (lead, roots), op, b, right = tree
        return ("atom", a, (lead, tuple(sorted(roots + ((root, 1),)))), op, b, right)
    if tree[0] == "not":
        return ("not", with_large_root(tree[1], root))
    return (tree[0], (with_large_root(tree[1][0], root),) + tree[1][1:])


def side_text(side):
    lead, roots = side
    factors = []
    for a, m in roots:
        base = "T" if a == 0 else f"(T {'-' if a > 0 else '+'} {abs(a)})"
        factors.append(base if m == 1 else f"{base}^{m}")
    return "*".join([str(lead)] + factors)


def tree_text(t, p):
    if t[0] == "atom":
        _, a, left, op, b, right = t
        return f"{p}^{a}*|{side_text(left)}| {op} {p}^{b}*|{side_text(right)}|"
    if t[0] == "not":
        return f"!({tree_text(t[1], p)})"
    joiner = " & " if t[0] == "and" else " | "
    return joiner.join(f"({tree_text(x, p)})" for x in t[1])


def tree_sides(t):
    if t[0] == "atom":
        return [t[2], t[5]]
    if t[0] == "not":
        return tree_sides(t[1])
    return [s for x in t[1] for s in tree_sides(x)]


# -- the independent oracle -------------------------------------------------------


def vp(x, p):
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def norm_exp(x, p):
    """e with |x| = p^e; NEG for x = 0."""
    return NEG if x == 0 else -vp(x, p)


def side_exp(side, p, center, rho_exp, norms, unit=1):
    """unit * log_p |side| at the point (center, rho), for rho = p^(rho_exp
    / unit); rho_exp NEG is the rigid point `center` itself.  ``norms``
    caches scaled norm exponents for one center and unit: of the lead
    (keyed by the side) and of center - root (keyed by the root)."""
    lead, roots = side
    if side not in norms:
        norms[side] = unit * norm_exp(lead, p)
    out = norms[side]
    for a, m in roots:
        if a not in norms:
            norms[a] = unit * norm_exp(center - a, p)
        out += m * max(rho_exp, norms[a])
    return out


def tree_holds(t, p, center, rho_exp, norms=None, unit=1):
    norms = {} if norms is None else norms
    if t[0] == "atom":
        _, a, left, op, b, right = t
        lv = unit * a + side_exp(left, p, center, rho_exp, norms, unit)
        rv = unit * b + side_exp(right, p, center, rho_exp, norms, unit)
        return lv <= rv if op == "<=" else lv < rv
    if t[0] == "not":
        return not tree_holds(t[1], p, center, rho_exp, norms, unit)
    if t[0] == "and":
        return all(tree_holds(x, p, center, rho_exp, norms, unit) for x in t[1])
    return any(tree_holds(x, p, center, rho_exp, norms, unit) for x in t[1])


def oracle_sat(t, p, max_e=20):
    """Brute force over the criterion-9 grid: rigid points near every root
    center, and monomial points on an exponent lattice fine enough for
    every truth change (denominators divide lcm(1..degree)), plus the
    midpoints between lattice points.  Exponents of monomial points are
    kept as integers in units of 1 / (2 lcm)."""
    sides = tree_sides(t)
    roots = {a for _, rs in sides for a, _ in rs}
    max_deg = max([1] + [sum(m for _, m in rs) for _, rs in sides])
    centers = sorted({Fraction(0)} | {Fraction(a) for a in roots if norm_exp(a, p) <= 0})
    for c in centers:
        if tree_holds(t, p, c, NEG):
            return True
        for k in range(11):
            for u in (1, -1, 2):
                x = c + u * Fraction(p) ** k
                if norm_exp(x, p) <= 0 and tree_holds(t, p, x, NEG):
                    return True
    den = math.lcm(*range(1, max_deg + 1))
    unit = 2 * den
    grid = {-2 * j for j in range(max_e * den + 1)}
    for c in centers:
        for other in roots:
            e = norm_exp(c - other, p)
            if e != NEG and e <= 0:
                grid.add(unit * e)
    grid = sorted(grid)
    exps = sorted(set(grid) | {(a + b) // 2 for a, b in zip(grid, grid[1:])})
    for c in centers:
        norms = {}
        if any(tree_holds(t, p, c, e, norms, unit) for e in exps):
            return True
    return False


# -- instances -------------------------------------------------------------------------


class Instance:
    def __init__(self, seed, index):
        rng = instance_rng(NAME, seed, index)
        self.p = p = rng.choice([2, 3])
        self.space = space(p, ("T", 0))
        tree, _ = rand_tree(rng, p, rng.randint(1, 5))
        self.large = index % LARGE_EVERY == 0
        if self.large:
            digits = 6 + (index // LARGE_EVERY) % 7
            tree = with_large_root(tree, rng.choice([1, -1])
                                   * rng.randint(10 ** (digits - 1), 10 ** digits - 1))
        self.tree = tree
        self.text = tree_text(tree, p)
        roots = [Fraction(a) for _, rs in tree_sides(tree) for a, _ in rs
                 if norm_exp(a, p) <= 0]
        self.points = []
        for j in range(SAMPLES):
            near = rng.choice(roots) if roots and rng.random() < 0.5 else Fraction(0)
            if j < MONOMIAL:
                rho = NormValue.power(Fraction(-rng.randint(0, 8), 2))
                self.points.append(MonomialPoint(self.space, (near,), (rho,)))
            else:
                offset = rand_point_coord(rng, p, Fraction(0))
                self.points.append(RigidPoint(self.space, (near + offset,)))
        self.parsed = None

    def key(self):
        return self.text + "@" + ";".join(x.text() for x in self.points)

    def ops(self):
        kind = "decide-largeroot" if self.large else "decide"
        out = [(kind, self._decide)]
        for j, x in enumerate(self.points):
            out.append(("eval-monomial" if j < MONOMIAL else "eval-rigid",
                        lambda x=x: self._evaluate(x)))
        return out

    def _decide(self):
        phi = formulas.parse_formula(self.text, self.space)
        dnf = formulas.to_dnf(phi)
        self.parsed = phi, dnf
        base = RigidPoint(Space(self.p, ()), ())
        status = "UNSAT"
        for conj in dnf:
            st, witness = projection.project_decision(conj.atoms, base, "T")
            if st == "SAT":
                return "SAT", witness
            if st == "UNKNOWN":
                status = "UNKNOWN"
        return status, None

    def _evaluate(self, x):
        phi, dnf = self.parsed
        return eval_formula(phi, x), [formulas.eval_conjunct(c, x) for c in dnf]

    def on_space(self, w):
        """The witness rebuilt on the formula's own space.

        project_decision returns its witness on a space of its own (a
        variable named t), so eval_formula(phi, witness) raises a
        point/space mismatch; the coordinates are what the answer claims.
        """
        if isinstance(w, RigidPoint):
            return RigidPoint(self.space, w.coords)
        return MonomialPoint(self.space, w.center, w.rho)

    def check(self, outputs):
        errors = {}
        decided = outputs[0]
        if decided is not None:
            status, witness = decided
            if status == "SAT":
                w = self.on_space(witness)
                center, rho = ((w.coords[0], NEG) if isinstance(w, RigidPoint)
                               else (w.center[0], w.rho[0].exp))
                if formulas.eval_formula(self.parsed[0], w) is not True:
                    errors[0] = f"SAT witness {w.text()} fails eval_formula"
                elif not tree_holds(self.tree, self.p, center, rho):
                    errors[0] = f"SAT witness {w.text()} fails the oracle"
            elif status == "UNSAT":
                if oracle_sat(self.tree, self.p):
                    errors[0] = "UNSAT, but the oracle finds a point"
            else:
                errors[0] = f"{status} on an instance the oracle decides"
        for j, (x, out) in enumerate(zip(self.points, outputs[1:]), start=1):
            if out is None:
                continue
            value, conj_values = out
            center, rho = ((x.coords[0], NEG) if isinstance(x, RigidPoint)
                           else (x.center[0], x.rho[0].exp))
            if value is None:
                errors[j] = "unknown on exact data"
            elif any(v is True for v in conj_values) != value:
                errors[j] = "DNF and direct evaluation disagree"
            elif tree_holds(self.tree, self.p, center, rho) != value:
                errors[j] = "eval_formula disagrees with the oracle"
        return errors

    def scalars(self, outputs):
        out = []
        if self.parsed:
            for atom in formulas.formula_atoms(self.parsed[0]):
                out += [(c, self.p) for s in (atom.f, atom.g) for c in s.coeffs.values()]
        if outputs[0] is not None and outputs[0][1] is not None:
            w = outputs[0][1]
            out += [(c, self.p) for c in (w.coords if isinstance(w, RigidPoint) else w.center)]
        return out


def _after_decision(tracer, res, args):
    tracer.add(f"projection.project_decision.{res[0].lower()}")


def _after_split(tracer, res, args):
    if res is None:
        tracer.add("projection.split_series.unsplit")
        return
    tracer.maximum("projection.split_series.root_bits_max",
                   coeff_bits([a for a, _ in res.roots]))


def instrument(inst, module):
    inst.wrap(formulas, "parse_formula", "formulas.parse_formula")
    inst.wrap(formulas, "to_dnf", "formulas.to_dnf",
              lambda tr, res, args: tr.add("formulas.to_dnf.conjuncts", len(res)))
    inst.wrap(module, "eval_formula", "formulas.eval_formula")
    inst.wrap(projection, "project_decision", "projection.project_decision", _after_decision)
    inst.wrap(projection, "split_series", "projection.split_series", _after_split)
    inst.wrap(projection, "decide_exists", "projection.decide_exists")
