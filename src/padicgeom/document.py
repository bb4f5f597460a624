"""JSON documents: named spaces, series, formulas, points and sets.

One prime per document; every norm and scalar literal in the file uses the
exact text forms (`p^q` / `0`, `<int>` or `<int>/<int>`).  Loading resolves
all references; saving is deterministic (sorted keys, canonical texts), so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from .scalars import parse_norm, parse_scalar, require_prime, scalar_text
from .series import (MonomialPoint, Point, RigidPoint, Series, Space, VarSpec)
from .formulas import Formula, formula_text, parse_formula, tautology
from .constructible import ConstructibleSet, DatumChain, ElementaryDatum


class Document:
    """The named objects of one document over one prime, by section;
    ``load_document`` fills them in."""

    def __init__(self, prime: int):
        self.prime = prime
        self.spaces: Dict[str, Space] = {}
        self.series: Dict[str, Series] = {}
        self.formulas: Dict[str, Formula] = {}
        self.points: Dict[str, Point] = {}
        self.sets: Dict[str, ConstructibleSet] = {}

    def sole_space(self) -> Space:
        if len(self.spaces) == 1:
            return next(iter(self.spaces.values()))
        raise ValueError("document has several spaces; name one explicitly")


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               bool: "a boolean", int: "a number", float: "a number",
               type(None): "null"}


def _expect(value, kind: type, field: str, entry=None):
    """value, or a ValueError naming the field when it is not of the JSON
    type ``kind`` (dict, list or str)."""
    if not isinstance(value, kind):
        where = f"field {field!r}" + ("" if entry is None else f" entry {entry!r}")
        raise ValueError(f"{where} must be {_JSON_TYPES[kind]}, "
                         f"not {_JSON_TYPES[type(value)]}")
    return value


def _section(raw: dict, field: str, kind: type = dict):
    """An optional member of a JSON object, type-checked; empty if absent."""
    return _expect(raw.get(field, kind()), kind, field)


def _entries(raw: dict, field: str):
    """(name, object) pairs of a section of named objects."""
    return [(name, _expect(obj, dict, field, name))
            for name, obj in _section(raw, field).items()]


def _load_varspecs(items, p: int) -> Tuple[VarSpec, ...]:
    out = []
    for item in _expect(items, list, "vars"):
        item = _expect(item, dict, "vars")
        out.append(VarSpec(_expect(item["name"], str, "name"),
                           parse_norm(item["radius"], p)))
    return tuple(out)


def _load_series(obj, p: int) -> Series:
    space = Space(p, _load_varspecs(obj["vars"], p))
    coeffs = {}
    for entry in _section(obj, "coeffs", list):
        mono = _expect(entry, dict, "coeffs")["mono"]
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
    space = spaces[_expect(obj["space"], str, "space")]
    if "rigid" in obj:
        return RigidPoint(space, [parse_scalar(c)
                                  for c in _expect(obj["rigid"], list, "rigid")])
    center = [parse_scalar(c) for c in _expect(obj["center"], list, "center")]
    rho = [parse_norm(r, p) for r in _expect(obj["rho"], list, "rho")]
    return MonomialPoint(space, center, rho)


def _load_chain(obj, p: int, base: Space, series: Dict[str, Series]) -> DatumChain:
    region_text = _section(obj, "region", str)
    region = (parse_formula(region_text, base) if region_text
              else tautology(base))
    links = []
    domain = base
    for link in _section(obj, "links", list):
        link = _expect(link, dict, "links")
        t_name = _expect(link["t"], str, "t")
        r = parse_norm(link["r"], p)
        s = parse_norm(link["s"], p)
        f = series[_expect(link["f"], str, "f")].lift_to(domain)
        g = series[_expect(link["g"], str, "g")].lift_to(domain)
        ext = domain.extend(VarSpec(t_name, r))
        reg_text = _section(link, "R", str)
        reg = parse_formula(reg_text, ext) if reg_text else tautology(ext)
        links.append(ElementaryDatum(t_name, f, g, r, s, reg))
        domain = ext
    return DatumChain(base, region, tuple(links))


def load_document(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        raw = _expect(json.load(fh), dict, "document")
    p = raw["prime"]
    try:
        require_prime(p)
    except ValueError as exc:
        raise ValueError(f"field 'prime': {exc}") from None
    doc = Document(prime=p)
    for name, items in _section(raw, "spaces").items():
        items = _expect(items, list, "spaces", name)
        doc.spaces[name] = Space(p, _load_varspecs(items, p))
    for name, obj in _entries(raw, "series"):
        doc.series[name] = _load_series(obj, p)
    for name, obj in _section(raw, "formulas").items():
        if isinstance(obj, str):
            space = doc.sole_space()
            text = obj
        else:
            obj = _expect(obj, dict, "formulas", name)
            space = doc.spaces[_expect(obj["space"], str, "space")]
            text = _expect(obj["text"], str, "text")
        doc.formulas[name] = parse_formula(text, space)
    for name, obj in _entries(raw, "points"):
        doc.points[name] = _load_point(obj, p, doc.spaces)
    for name, obj in _entries(raw, "sets"):
        base = doc.spaces[_expect(obj["space"], str, "space")]
        chains = tuple(_load_chain(_expect(c, dict, "chains"), p, base, doc.series)
                       for c in _section(obj, "chains", list))
        doc.sets[name] = ConstructibleSet(base, chains)
    return doc


def save_set(path: str, cs: ConstructibleSet) -> None:
    """Write a one-set document, the set named "out"; link series get
    synthetic names."""
    p = cs.space.prime
    series_entries: Dict[str, dict] = {}
    names: Dict[str, str] = {}  # JSON text of a series -> its name

    def series_name(s: Series) -> str:
        dumped = _dump_series(s)
        blob = json.dumps(dumped, sort_keys=True)
        name = names.get(blob)
        if name is None:
            name = names[blob] = f"s{len(names)}"
            series_entries[name] = dumped
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
        "sets": {"out": {"space": "base", "chains": chains_out}},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
