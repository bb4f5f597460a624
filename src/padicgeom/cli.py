"""Batch command-line front end.

Loads a JSON document of named objects, dispatches one operation, prints an
exact textual report (all norms in `p^q` form, never decimals).  Exit codes:
0 success, 2 for an `unknown`/UNKNOWN result, 1 for parse/validation/math
errors with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .scalars import parse_norm, parse_scalar
from .series import MonomialPoint, Point, RigidPoint, Series, Space
from .formulas import eval_formula, formula_atoms, parse_poly
from .weierstrass import distinguished_order, weierstrass_divide, weierstrass_prepare
from .automorphisms import make_distinguished
from .constructible import complement, intersect, membership
from .projection import project_decision
from .blowup import Chart, pullback_chart, pushdown_poly
from .document import Document, load_document, save_set


class CommandError(Exception):
    pass


def _named(section: dict, kind: str, name: str):
    if name not in section:
        raise CommandError(f"no {kind} named {name!r}")
    return section[name]


def _space_for(doc: Document, name: Optional[str]) -> Space:
    return doc.sole_space() if name is None else _named(doc.spaces, "space", name)


def _resolve_series(doc: Document, text: str, space_name: Optional[str]) -> Series:
    if text in doc.series:
        return doc.series[text]
    space = _space_for(doc, space_name)
    return parse_poly(text, space)


def _resolve_point(doc: Document, text: str, space_name: Optional[str]) -> Point:
    if text in doc.points:
        return doc.points[text]
    space = _space_for(doc, space_name)
    text = text.strip()
    if text.startswith("gauss(") and text.endswith(")"):
        inner = text[len("gauss("):-1]
        if ";" in inner:
            c_part, r_part = inner.split(";")
        else:
            parts = inner.split(",")
            if len(parts) != 2 or len(space.vars) != 1:
                raise CommandError(f"cannot read monomial point {text!r}")
            c_part, r_part = parts
        center = [parse_scalar(c) for c in c_part.split(",") if c.strip()]
        rho = [parse_norm(r, doc.prime) for r in r_part.split(",") if r.strip()]
        return MonomialPoint(space, center, rho)
    if text.startswith("(") and text.endswith(")"):
        coords = [parse_scalar(c) for c in text[1:-1].split(",") if c.strip()]
        return RigidPoint(space, coords)
    raise CommandError(f"no point named {text!r} and the literal form "
                       "is not recognized")


def _three_valued(value: Optional[bool]) -> str:
    if value is None:
        return "unknown"
    return "true" if value else "false"


def cmd_norm(doc: Document, args) -> int:
    s = _resolve_series(doc, args.series, args.space)
    est = s.gauss_norm()
    p = doc.prime
    if est.uncertainty.is_zero:
        print(est.value.text(p))
    else:
        print(f"value = {est.value.text(p)}, uncertainty <= "
              f"{est.uncertainty.text(p)}")
    return 0


def cmd_divide(doc: Document, args) -> int:
    f = _resolve_series(doc, args.f, args.space)
    g = _resolve_series(doc, args.g, args.space)
    eps = parse_norm(args.eps, doc.prime)
    cert = distinguished_order(g, args.pivot)
    if cert is None:
        raise CommandError("the divisor is not pivot-distinguished")
    out = weierstrass_divide(f, g, cert, eps)
    p = doc.prime
    print(f"q = {out.quotient.text()}, R = {out.remainder.text()}, "
          f"residual = {out.residual.text(p)}")
    return 0


def cmd_prepare(doc: Document, args) -> int:
    g = _resolve_series(doc, args.g, args.space)
    eps = parse_norm(args.eps, doc.prime)
    cert = distinguished_order(g, args.pivot)
    if cert is None:
        raise CommandError("the series is not pivot-distinguished")
    out = weierstrass_prepare(g, cert, eps)
    p = doc.prime
    print(f"e = {out.unit.text()}, w = {out.monic.text()}, "
          f"residual = {out.residual.text(p)}")
    return 0


def cmd_distinguish(doc: Document, args) -> int:
    f = _resolve_series(doc, args.f, args.space)
    cert = distinguished_order(f, args.pivot)
    if cert is None:
        print("none")
    else:
        print(f"order = {cert.order}")
    return 0


def cmd_sigma(doc: Document, args) -> int:
    names = [s.strip() for s in args.series.split(",") if s.strip()]
    fs = [_resolve_series(doc, n, args.space) for n in names]
    result = make_distinguished(fs, args.pivot)
    p = doc.prime
    orders = ",".join(str(o) for o in result.orders)
    print(f"d = {result.base}, s = {result.s.text(p)}, orders = {orders}")
    return 0


def cmd_eval(doc: Document, args) -> int:
    phi = _named(doc.formulas, "formula", args.formula)
    x = _resolve_point(doc, args.point, args.space)
    value = eval_formula(phi, x)
    print(_three_valued(value))
    return 2 if value is None else 0


def cmd_member(doc: Document, args) -> int:
    cs = _named(doc.sets, "set", args.set)
    x = _resolve_point(doc, args.point, args.space)
    if not isinstance(x, RigidPoint):
        raise CommandError("membership is defined at rigid points only")
    value = membership(cs, x)
    print(_three_valued(value))
    return 2 if value is None else 0


def cmd_complement(doc: Document, args) -> int:
    out = complement(_named(doc.sets, "set", args.set))
    save_set(args.output, out)
    print(f"wrote {len(out.chains)} chain(s) to {args.output}")
    return 0


def cmd_intersect(doc: Document, args) -> int:
    names = [s.strip() for s in args.sets.split(",") if s.strip()]
    if len(names) < 2:
        raise CommandError("intersect needs at least two set names")
    sets = [_named(doc.sets, "set", n) for n in names]
    out = sets[0]
    for other in sets[1:]:
        out = intersect(out, other)
    save_set(args.output, out)
    print(f"wrote {len(out.chains)} chain(s) to {args.output}")
    return 0


def cmd_qe1(doc: Document, args) -> int:
    phi = _named(doc.formulas, "formula", args.conjunct)
    hints = []
    if args.roots:
        hints = [parse_scalar(r) for r in args.roots.split(",") if r.strip()]
    space = formula_atoms(phi)[0].space
    if len(space.vars) != 1:
        raise CommandError("qe1 decides one-variable formulas; fix a base "
                           "point first for relative instances")
    pivot = args.pivot
    if pivot != space.vars[0].name:
        raise CommandError(f"pivot {pivot!r} is not the formula's variable")
    base = RigidPoint(Space(doc.prime, ()), ())
    status, witness = project_decision(phi, base, pivot, hints)
    print(f"SAT witness = {witness.text()}" if status == "SAT" else status)
    return 2 if status == "UNKNOWN" else 0


def cmd_blowup(doc: Document, args) -> int:
    h = _resolve_series(doc, args.series, args.space)
    chart = Chart(args.chart, h.space)
    out = pullback_chart(h, chart)
    print(f"pullback = {out.text()}")
    return 0


def cmd_pushdown(doc: Document, args) -> int:
    base = _space_for(doc, args.base_space or args.space)
    chart = Chart(args.chart, base)
    if args.poly in doc.series:
        poly = doc.series[args.poly]
    else:
        poly = parse_poly(args.poly, chart.space())
    m, out = pushdown_poly(poly, chart)
    print(f"M = {m}, pushdown = {out.text()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicgeom",
        description="exact non-archimedean analytic geometry, batch mode")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-i", "--input", required=True, help="JSON document")
        p.add_argument("--space", help="space name for inline literals")

    p = sub.add_parser("norm", help="Gauss norm of a series")
    common(p)
    p.add_argument("--series", required=True)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("divide", help="Weierstrass division")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--pivot", required=True)
    p.add_argument("--eps", required=True)
    p.set_defaults(func=cmd_divide)

    p = sub.add_parser("prepare", help="Weierstrass preparation")
    common(p)
    p.add_argument("--g", required=True)
    p.add_argument("--pivot", required=True)
    p.add_argument("--eps", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("distinguish", help="distinguished order of a series")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--pivot", required=True)
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("sigma", help="one shear distinguishing several series")
    common(p)
    p.add_argument("--series", required=True, help="comma-separated names")
    p.add_argument("--pivot", required=True)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("eval", help="three-valued formula evaluation")
    common(p)
    p.add_argument("--formula", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("member", help="constructible-set membership")
    common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("complement", help="complement of a constructible set")
    common(p)
    p.add_argument("--set", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_complement)

    p = sub.add_parser("intersect", help="intersection of constructible sets")
    common(p)
    p.add_argument("--sets", required=True, help="comma-separated names")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("qe1", help="one-variable existential decision")
    common(p)
    p.add_argument("--conjunct", required=True,
                   help="name of a formula: any Boolean combination of atoms")
    p.add_argument("--pivot", required=True)
    p.add_argument("--roots", help="comma-separated rational sample points, "
                   "tried when a fibre polynomial does not split")
    p.set_defaults(func=cmd_qe1)

    p = sub.add_parser("blowup", help="pull a series back through a chart")
    common(p)
    p.add_argument("--chart", type=int, required=True)
    p.add_argument("--series", required=True)
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("pushdown", help="clear the chart denominator of a "
                                        "polynomial in the chart variable")
    common(p)
    p.add_argument("--chart", type=int, default=1)
    p.add_argument("--poly", required=True)
    p.add_argument("--base-space", help="space of the blow-up base")
    p.set_defaults(func=cmd_pushdown)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = load_document(args.input)
        return args.func(doc, args)
    except (CommandError, ValueError, KeyError, OSError) as exc:
        # str(KeyError) is the repr of its argument; print the message itself
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
