"""Workload `divide`: Weierstrass division, preparation and distinguishing.

Instances are drawn like acceptance criteria 1, 4 and 5.  Every instance is
a division (distinguished_order -> weierstrass_divide -> exact residual
f - (g q + R)); every third instance adds a preparation and every second a
distinguishing transform, each its own op.  One division in five gets the
small slack that makes contraction slow; those are the heavy tail (a few
hundred ms, quotients of ~2k terms) and are kept on purpose.
"""

from padicgeom import NormValue, Series, automorphisms, weierstrass

from spans import coeff_bits
from corpus import (instance_rng, rand_distinguished, rand_nonzero_series,
                    series_key, space)

NAME = "divide"
CORPUS_SIZE = 300  # instances in the fixed corpus of a traced run


def mul(a, b):
    """The residual recomputation's product, a span of its own when traced."""
    return a * b


class Instance:
    def __init__(self, seed, index):
        rng = instance_rng(NAME, seed, index)
        # the properties that set a division's cost cycle with the index, so
        # that every seed has the same mix of them: p, one or two variables,
        # slow slack, a unit leading coefficient, the divisor's order and
        # degree.  The rest (terms, coefficients) is drawn.
        self.slow = index % 5 == 0
        p = (2, 3, 5)[index % 3]
        two_vars = (index // 5) % 5 in (1, 3)
        sp = space(p, ("x", 0), ("T", 0)) if two_vars else space(p, ("T", 0))
        # -- division, as criterion 1
        while True:
            g, _ = rand_distinguished(
                rng, sp, "T", max_order=5, above_slack=(1, 2) if self.slow else (3, 5),
                series_unit=two_vars and (index // 25) % 2 == 0,
                order=(index // 3) % 6, extra_degree=(index // 2) % 4)
            f = rand_nonzero_series(rng, sp, max_terms=4, max_deg=8, vmin=-2)
            if f.degree_in("T") <= 8:
                break
        self.f, self.g = f, g
        self.eps = f.gauss_norm().value * NormValue.power(-20)
        # -- preparation, as criterion 4 (every third instance; a third of
        # those are exact: a polynomial of degree exactly the order)
        self.prep = None
        if index % 3 == 0:
            sp = space(rng.choice([2, 3, 5]), ("T", 0))
            h, cert = rand_distinguished(rng, sp, "T", max_order=4)
            if (index // 3) % 3 == 0:
                h = Series(sp, {e: c for e, c in h.coeffs.items() if e[0] <= cert.order})
                cert = weierstrass.distinguished_order(h, "T")
            self.prep = (h, cert, cert.norm_witness * NormValue.power(-20))
        # -- distinguishing transform, as criterion 5 (every second instance)
        self.mdist = None
        if index % 2 == 0:
            n = rng.randint(1, 3)
            names = [f"T{i + 1}" for i in range(n)]
            sp = space(rng.choice([2, 3]), *[(nm, 1) for nm in names])
            self.mdist = (rand_nonzero_series(rng, sp, max_terms=12, max_deg=4, vmin=-2),
                          names[-1])

    def key(self):
        parts = [series_key(self.f), series_key(self.g)]
        if self.prep:
            parts.append(series_key(self.prep[0]))
        if self.mdist:
            parts.append(series_key(self.mdist[0]) + self.mdist[1])
        return "|".join(parts)

    def ops(self):
        out = [("division-slow" if self.slow else "division", self._divide)]
        if self.prep:
            out.append(("prepare", self._prepare))
        if self.mdist:
            out.append(("make_distinguished", self._distinguish))
        return out

    def _divide(self):
        f, g = self.f, self.g
        cert = weierstrass.distinguished_order(g, "T")
        res = weierstrass.weierstrass_divide(f, g, cert, self.eps)
        defect = f - (mul(g, res.quotient) + res.remainder)
        return cert, res, defect

    def _prepare(self):
        h, cert, eps = self.prep
        res = weierstrass.weierstrass_prepare(h, cert, eps)
        defect = h - mul(res.unit.drop_tail(), res.monic)
        return res, defect

    def _distinguish(self):
        f, pivot = self.mdist
        res = automorphisms.make_distinguished([f], pivot)
        return res, weierstrass.distinguished_order(res.transformed[0], pivot)

    def check(self, outputs):
        """One message per failing op index (outputs[i] None: op raised)."""
        errors = {}
        for i, ((kind, _), out) in enumerate(zip(self.ops(), outputs)):
            if out is None:
                continue
            msg = getattr(self, "_check_" + kind.split("-")[0])(out)
            if msg:
                errors[i] = msg
        return errors

    def _check_division(self, out):
        cert, res, defect = out
        nf = self.f.gauss_norm().value
        if not defect.gauss_norm().value <= self.eps:
            return "division defect above eps"
        if not res.remainder.degree_in("T") < cert.order:
            return "remainder degree not below the order"
        lhs = max(self.g.gauss_norm().value * res.quotient.gauss_norm().value,
                  res.remainder.gauss_norm().value)
        if lhs != nf:
            return "norm identity max(|g||q|, |R|) = |f| fails"
        return None

    def _check_prepare(self, out):
        res, defect = out
        h, cert, eps = self.prep
        if weierstrass.certify_unit(res.unit) is None:
            return "preparation unit not certified"
        if res.monic.degree_in("T") != cert.order:
            return "monic factor has the wrong degree"
        top = [c for n, c in res.monic.coeff_view("T") if n == cert.order]
        if not top or top[0].as_scalar() != 1:
            return "monic factor is not monic"
        if not max(defect.gauss_norm().value,
                   res.unit.tail * res.monic.gauss_norm().value) <= eps:
            return "preparation defect above eps"
        if h.degree_in("T") == cert.order and not (res.residual.is_zero and h == res.unit * res.monic):
            return "exact preparation did not reconstruct"
        return None

    def _check_make_distinguished(self, out):
        res, cert = out
        f, _ = self.mdist
        if cert is None or cert.order != res.orders[0]:
            return "transformed series does not certify the claimed order"
        n, d, p = len(f.space.vars), res.base, f.space.prime
        best, best_norm = None, NormValue.zero()
        for expo, c in f.coeffs.items():
            cn = NormValue.of_scalar(c, p)
            if best is None or cn > best_norm or (cn == best_norm and expo > best):
                best, best_norm = expo, cn
        if res.orders[0] != sum(e * d ** (n - 1 - i) for i, e in enumerate(best)):
            return "order is not the encoding of the lex-max norm-maximal index"
        return None

    def scalars(self, outputs):
        """(coefficient, prime) of every series in the inputs and outputs."""
        series = [self.f, self.g]
        if self.prep:
            series.append(self.prep[0])
        if self.mdist:
            series.append(self.mdist[0])
        for (kind, _), out in zip(self.ops(), outputs):
            if out is None:
                continue
            if kind.startswith("division"):
                series += [out[1].quotient, out[1].remainder]
            elif kind == "prepare":
                series += [out[0].unit, out[0].monic]
            else:
                series += list(out[0].transformed)
        return [(c, s.space.prime) for s in series for c in s.coeffs.values()]


def _after_divide(tracer, res, args):
    tracer.add("weierstrass.divide.passes", len(res.iterations))
    tracer.add("weierstrass.divide.quotient_terms", len(res.quotient.coeffs))
    tracer.maximum("weierstrass.divide.coeff_bits_max",
                   coeff_bits(list(res.quotient.coeffs.values())
                              + list(res.remainder.coeffs.values())))


def _after_mul(tracer, res, args):
    tracer.add("series.mul.terms_out", len(res.coeffs))


def _after_mdist(tracer, res, args):
    # s = p^(1/2^j): j is the number of radius halvings the schedule took
    tracer.add("automorphisms.make_distinguished.radius_halvings",
               res.s.exp.denominator.bit_length() - 1)


def instrument(inst, module):
    inst.wrap(weierstrass, "weierstrass_divide", "weierstrass.divide", _after_divide)
    inst.wrap(weierstrass, "weierstrass_prepare", "weierstrass.prepare")
    inst.wrap(weierstrass, "distinguished_order", "weierstrass.distinguished_order")
    inst.wrap(automorphisms, "make_distinguished", "automorphisms.make_distinguished",
              _after_mdist)
    inst.wrap(module, "mul", "series.mul", _after_mul)
