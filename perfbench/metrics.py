"""The per-layer metrics of the traced run: names, units, and how they are read.

Each name is ``<module>.<function>.<quantity>``.  ``busy_s`` is the summed
self time of the function's spans and ``calls`` their count; the other
quantities are counters read from inputs and outputs, which depend on
nothing but the corpus and so must repeat exactly.  perfbench/README.md
says which end-to-end metric each should move, on which workload.
"""

from padicgeom import RigidPoint, Series

CLI_SUBCOMMANDS = ("norm", "divide", "prepare", "distinguish", "sigma", "eval", "member",
                   "complement", "intersect", "qe1", "blowup", "pushdown")


def _timed(span, *counts):
    return [(f"{span}.busy_s", "s")] + [(f"{span}.{c}", "count") for c in counts]


PER_LAYER = (
    _timed("scalars.valuation", "calls") + [("scalars.valuation.bits_max", "bits")]
    + _timed("series.mul", "calls", "terms_out")
    + _timed("series.eval_seminorm.rigid", "calls")
    + _timed("series.eval_seminorm.monomial", "calls")
    + _timed("weierstrass.divide", "calls", "passes", "quotient_terms")
    + [("weierstrass.divide.coeff_bits_max", "bits")]
    + _timed("weierstrass.prepare", "calls")
    + _timed("weierstrass.distinguished_order", "calls")
    + _timed("automorphisms.make_distinguished", "calls", "radius_halvings")
    + _timed("formulas.parse_formula")
    + _timed("formulas.to_dnf", "conjuncts")
    + _timed("formulas.eval_formula", "calls")
    + _timed("constructible.complement", "calls", "chains_out")
    + _timed("constructible.intersect", "calls", "chains_out")
    + _timed("constructible.membership", "calls")
    + [("constructible.series_refs", "count"), ("constructible.series_distinct", "count")]
    + _timed("projection.project_decision", "calls", "sat", "unsat", "unknown")
    + _timed("projection.split_series", "calls", "unsplit")
    + [("projection.split_series.root_bits_max", "bits")]
    + _timed("projection.decide_exists", "calls")
    + _timed("document.load_document")
    + [(f"cli.{c}.latency_p50_ms", "ms") for c in CLI_SUBCOMMANDS]
    + [("cli.import_s", "s"), ("trace.overhead_s", "s")]
)


def counter_names():
    """Per-layer metrics that are not timings: they must repeat exactly."""
    return [name for name, unit in PER_LAYER if unit not in ("s", "ms")]


def _eval_seminorm_span(series, point):
    kind = "rigid" if isinstance(point, RigidPoint) else "monomial"
    return f"series.eval_seminorm.{kind}"


def instrument_common(inst):
    """Spans every workload records: seminorm evaluation, whoever calls it."""
    inst.wrap(Series, "eval_seminorm", _eval_seminorm_span)


def collect(tracer):
    values = dict(tracer.counters)
    for span, busy in tracer.busy.items():
        values[f"{span}.busy_s"] = busy
        values[f"{span}.calls"] = tracer.calls[span]
    return values
