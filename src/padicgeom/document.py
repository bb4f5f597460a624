"""JSON documents: named spaces, series, formulas, points and sets.

One prime per document; every norm and scalar literal in the file uses the
exact text forms (`p^q` / `0`, `<int>` or `<int>/<int>`).  Loading resolves
all references; saving is deterministic (sorted keys, canonical texts), so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .scalars import parse_norm, parse_scalar, require_prime, scalar_text
from .series import (MonomialPoint, Point, RigidPoint, Series, Space, VarSpec)
from .formulas import Formula, formula_text, parse_formula, tautology
from .constructible import ConstructibleSet, DatumChain, ElementaryDatum


@dataclass
class Document:
    prime: int
    spaces: Dict[str, Space] = field(default_factory=dict)
    series: Dict[str, Series] = field(default_factory=dict)
    formulas: Dict[str, Formula] = field(default_factory=dict)
    points: Dict[str, Point] = field(default_factory=dict)
    sets: Dict[str, ConstructibleSet] = field(default_factory=dict)

    def sole_space(self) -> Space:
        if len(self.spaces) == 1:
            return next(iter(self.spaces.values()))
        raise ValueError("document has several spaces; name one explicitly")


def _load_varspecs(items, p: int) -> Tuple[VarSpec, ...]:
    out = []
    for item in items:
        out.append(VarSpec(item["name"], parse_norm(item["radius"], p)))
    return tuple(out)


def _load_series(obj, p: int) -> Series:
    space = Space(p, _load_varspecs(obj["vars"], p))
    coeffs = {}
    for entry in obj.get("coeffs", []):
        mono = entry["mono"]
        if not isinstance(mono, list) or any(type(e) is not int for e in mono):
            raise ValueError(f"field 'mono' must be a list of integers, not {mono!r}")
        coeffs[tuple(mono)] = parse_scalar(entry["c"])
    tail = parse_norm(obj.get("tail", "0"), p)
    return Series(space, coeffs, tail)


def _dump_series(s: Series) -> dict:
    p = s.space.prime
    return {
        "vars": [{"name": v.name, "radius": v.radius.text(p)}
                 for v in s.space.vars],
        "coeffs": [{"mono": list(e), "c": scalar_text(c)}
                   for e, c in sorted(s.coeffs.items())],
        "tail": s.tail.text(p),
    }


def _load_point(obj, p: int, spaces: Dict[str, Space]) -> Point:
    space = spaces[obj["space"]]
    if "rigid" in obj:
        return RigidPoint(space, [parse_scalar(c) for c in obj["rigid"]])
    center = [parse_scalar(c) for c in obj["center"]]
    rho = [parse_norm(r, p) for r in obj["rho"]]
    return MonomialPoint(space, center, rho)


def _load_chain(obj, p: int, base: Space, series: Dict[str, Series]) -> DatumChain:
    region_text = obj.get("region", "")
    region = (parse_formula(region_text, base) if region_text
              else tautology(base))
    links = []
    domain = base
    for link in obj.get("links", []):
        t_name = link["t"]
        r = parse_norm(link["r"], p)
        s = parse_norm(link["s"], p)
        f = series[link["f"]].lift_to(domain)
        g = series[link["g"]].lift_to(domain)
        ext = domain.extend(VarSpec(t_name, r))
        reg_text = link.get("R", "")
        reg = parse_formula(reg_text, ext) if reg_text else tautology(ext)
        links.append(ElementaryDatum(t_name, f, g, r, s, reg))
        domain = ext
    return DatumChain(base, region, tuple(links))


def load_document(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    p = raw["prime"]
    try:
        require_prime(p)
    except ValueError as exc:
        raise ValueError(f"field 'prime': {exc}") from None
    doc = Document(prime=p)
    for name, items in raw.get("spaces", {}).items():
        doc.spaces[name] = Space(p, _load_varspecs(items, p))
    for name, obj in raw.get("series", {}).items():
        doc.series[name] = _load_series(obj, p)
    for name, obj in raw.get("formulas", {}).items():
        if isinstance(obj, str):
            space = doc.sole_space()
            text = obj
        else:
            space = doc.spaces[obj["space"]]
            text = obj["text"]
        doc.formulas[name] = parse_formula(text, space)
    for name, obj in raw.get("points", {}).items():
        doc.points[name] = _load_point(obj, p, doc.spaces)
    for name, obj in raw.get("sets", {}).items():
        base = doc.spaces[obj["space"]]
        chains = tuple(_load_chain(c, p, base, doc.series)
                       for c in obj.get("chains", []))
        doc.sets[name] = ConstructibleSet(base, chains)
    return doc


def save_set(path: str, cs: ConstructibleSet, set_name: str = "out") -> None:
    """Write a one-set document; link series get synthetic names."""
    p = cs.space.prime
    series_entries: Dict[str, dict] = {}
    blobs: Dict[str, str] = {}
    counter = [0]

    def series_name(s: Series) -> str:
        dumped = _dump_series(s)
        blob = json.dumps(dumped, sort_keys=True)
        for name, existing in blobs.items():
            if existing == blob:
                return name
        name = f"s{counter[0]}"
        counter[0] += 1
        series_entries[name] = dumped
        blobs[name] = blob
        return name

    chains_out = []
    for chain in cs.chains:
        links_out = []
        for link in chain.links:
            links_out.append({
                "t": link.t_name,
                "f": series_name(link.f),
                "g": series_name(link.g),
                "r": link.r.text(p),
                "s": link.s.text(p),
                "R": formula_text(link.region),
            })
        chains_out.append({
            "region": formula_text(chain.base_region),
            "links": links_out,
        })
    payload = {
        "prime": p,
        "spaces": {"base": [{"name": v.name, "radius": v.radius.text(p)}
                            for v in cs.space.vars]},
        "series": series_entries,
        "sets": {set_name: {"space": "base", "chains": chains_out}},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
