"""Workload `sets`: constructible-set writes and membership reads.

Each instance is a pair A, B from the acceptance criterion-6 generator.
Three writes build complement(A), intersect(A, B) and union(A, B); then
each of POINTS seeded rigid points is queried in all five sets, one read
per set.  Rigid seminorm evaluation and valuations dominate; Weierstrass
division, monomial points and projection are never touched.  Writes are a
fixed share of the ops, so a change that moves cost between building a set
and querying it shows in the mix.
"""

from padicgeom import Atom, NormValue, VarSpec, constructible
from padicgeom.constructible import ConstructibleSet, DatumChain, ElementaryDatum
from padicgeom.formulas import formula_atoms, tautology

from corpus import instance_rng, nv, rand_nonzero_series, rand_rigid, series_key, space

NAME = "sets"
CORPUS_SIZE = 400
POINTS = 8
ONE = NormValue.one()


def random_constructible(rng, sp):
    """Criterion 6: one or two chains of up to two chart links each."""
    chains = []
    for _ in range(rng.randint(1, 2)):
        links = []
        domain = sp
        for k in range(rng.randint(0, 2)):
            f = rand_nonzero_series(rng, domain, max_terms=2, max_deg=1, vmin=0, vmax=2)
            g = rand_nonzero_series(rng, domain, max_terms=2, max_deg=1, vmin=0, vmax=1)
            ext = domain.extend(VarSpec(f"t{k + 1}", nv(1)))
            if rng.random() < 0.5:
                region = tautology(ext)
            else:
                region = Atom(ONE, rand_nonzero_series(rng, ext, max_terms=2, max_deg=1, vmin=0),
                              rng.choice(["<=", "<"]), ONE,
                              rand_nonzero_series(rng, ext, max_terms=2, max_deg=1, vmin=0))
            links.append(ElementaryDatum(f"t{k + 1}", f, g, nv(1), ONE, region))
            domain = ext
        if rng.random() < 0.4:
            base_region = Atom(ONE, rand_nonzero_series(rng, sp, max_terms=2, max_deg=1, vmin=0),
                               "<=", ONE,
                               rand_nonzero_series(rng, sp, max_terms=2, max_deg=1, vmin=0))
        else:
            base_region = tautology(sp)
        chains.append(DatumChain(sp, base_region, tuple(links)))
    return ConstructibleSet(sp, tuple(chains))


def set_series(cs):
    """Every series reference in a set: link f and g, and both sides of
    every atom of every region."""
    refs = []
    for chain in cs.chains:
        regions = [chain.base_region]
        for link in chain.links:
            refs += [link.f, link.g]
            regions.append(link.region)
        for region in regions:
            for atom in formula_atoms(region):
                refs += [atom.f, atom.g]
    return refs


class Instance:
    def __init__(self, seed, index):
        rng = instance_rng(NAME, seed, index)
        p = rng.choice([2, 3])
        sp = space(p, ("x", 0)) if rng.random() < 0.5 else space(p, ("x", 0), ("y", 0))
        self.A = random_constructible(rng, sp)
        self.B = random_constructible(rng, sp)
        self.points = [rand_rigid(rng, sp) for _ in range(POINTS)]
        self.built = {}

    def key(self):
        parts = [series_key(s) for cs in (self.A, self.B) for s in set_series(cs)]
        parts += [repr(x.coords) for x in self.points]
        return "|".join(parts)

    def _build(self, name, fn, *args):
        self.built[name] = fn(*args)
        return self.built[name]

    def ops(self):
        c = constructible
        out = [("write", lambda: self._build("notA", c.complement, self.A)),
               ("write", lambda: self._build("AB", c.intersect, self.A, self.B)),
               ("write", lambda: self._build("AuB", c.union, self.A, self.B))]
        sets = {"A": self.A, "B": self.B}
        for x in self.points:
            for name in ("A", "B", "notA", "AB", "AuB"):
                out.append(("read", lambda x=x, name=name: c.membership(
                    sets[name] if name in sets else self.built[name], x)))
        return out

    def check(self, outputs):
        """Kleene identities per point; no unknown anywhere (tail-free data)."""
        errors = {}
        for k in range(POINTS):
            j = 3 + 5 * k
            va, vb, vn, vab, vu = outputs[j:j + 5]
            if va is None or vb is None:
                errors.update({j + i: "unknown membership on tail-free data" for i in (0, 1)
                               if outputs[j + i] is None})
                continue
            for i, got, want in ((2, vn, not va), (3, vab, va and vb), (4, vu, va or vb)):
                if got is not want:
                    errors[j + i] = f"Kleene identity fails: got {got}, want {want}"
        return errors

    def scalars(self, outputs):
        sets = [self.A, self.B] + list(self.built.values())
        out = [(c, s.space.prime) for cs in sets for s in set_series(cs) for c in s.coeffs.values()]
        out += [(c, x.space.prime) for x in self.points for c in x.coords]
        return out

    def traced_extra(self, tracer, outputs):
        for cs in [self.A, self.B] + list(self.built.values()):
            refs = set_series(cs)
            tracer.add("constructible.series_refs", len(refs))
            tracer.add("constructible.series_distinct", len(set(refs)))


def _chains_out(span):
    def after(tracer, res, args):
        tracer.add(f"{span}.chains_out", len(res.chains))
    return after


def instrument(inst, module):
    inst.wrap(constructible, "complement", "constructible.complement",
              _chains_out("constructible.complement"))
    inst.wrap(constructible, "intersect", "constructible.intersect",
              _chains_out("constructible.intersect"))
    inst.wrap(constructible, "membership", "constructible.membership")
