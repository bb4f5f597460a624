"""Exact non-archimedean analytic geometry over Q with a p-adic valuation.

Everything is exact: scalars are rationals, norms and radii are elements of
the value group p^Q u {0} stored as rational exponents, and every reported
equality, inequality or residual bound is a certificate checked by exact
arithmetic.
"""

from .scalars import NormValue, parse_norm, parse_scalar, scalar_text, valuation
from .series import (MonomialPoint, NormEstimate, Point, RigidPoint, Series,
                     Space, VarSpec, compare_le, compare_lt, gauss_point,
                     pushforward_eval)
from .weierstrass import (DistinguishedCertificate, DivisionResult,
                          PreparationResult, UnitCertificate, certify_unit,
                          distinguished_order, invert_unit, weierstrass_divide,
                          weierstrass_prepare)
from .automorphisms import (DistinguishResult, Shear, apply_shear,
                            carrier_decompose, make_distinguished)
from .formulas import (And, Atom, BasicConjunct, Formula, Not, Or,
                       eval_formula, formula_text, negate, parse_formula,
                       parse_poly, to_dnf)
from .constructible import (ConstructibleSet, CoveringPiece, DatumChain,
                            ElementaryDatum, complement, formula_set,
                            intersect, membership, neighborhood_datum,
                            simplify_divisible, union,
                            unit_coefficient_covering)
from .projection import (Decision, Disc, DiscRegion, SplitAtom, SplitPoly,
                         decide_exists, lemniscate_region, project_decision,
                         qe_prepare, region_contains, split_series)
from .blowup import (Chart, MonomialUnitForm, chart_transition, factor_x_power,
                     local_divisibility, pullback_chart, pushdown_poly,
                     translate)
from .document import Document, load_document, save_set

__all__ = [name for name in dir() if not name.startswith("_")]
