import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import padicgeom
from padicgeom import RigidPoint, membership
from padicgeom.cli import main
from padicgeom.document import load_document
from padicgeom.series import MAX_POWER


DOC = {
    "prime": 2,
    "spaces": {
        "line": [{"name": "T", "radius": "2^0"}],
        "plane": [{"name": "x", "radius": "2^0"},
                  {"name": "y", "radius": "2^0"}],
    },
    "series": {
        "f": {"vars": [{"name": "T", "radius": "2^0"}],
              "coeffs": [{"mono": [2], "c": "1"}, {"mono": [1], "c": "2"},
                         {"mono": [0], "c": "4"}],
              "tail": "0"},
        "g": {"vars": [{"name": "T", "radius": "2^0"}],
              "coeffs": [{"mono": [1], "c": "1"}], "tail": "0"},
        "gx": {"vars": [{"name": "x", "radius": "2^0"},
                        {"name": "y", "radius": "2^0"}],
               "coeffs": [{"mono": [1, 0], "c": "1"}], "tail": "0"},
        "fz": {"vars": [{"name": "x", "radius": "2^0"},
                        {"name": "y", "radius": "2^0"}],
               "coeffs": [{"mono": [0, 1], "c": "1"}], "tail": "2^-5"},
        "fy": {"vars": [{"name": "x", "radius": "2^0"},
                        {"name": "y", "radius": "2^0"}],
               "coeffs": [{"mono": [0, 1], "c": "1"}], "tail": "0"},
        "curve": {"vars": [{"name": "x", "radius": "2^0"},
                           {"name": "y", "radius": "2^0"}],
                  "coeffs": [{"mono": [0, 1], "c": "1"},
                             {"mono": [2, 0], "c": "-1"}],
                  "tail": "0"},
    },
    "formulas": {
        "eta_r": {"space": "line",
                  "text": "|T| <= 2^-1/2*|1| & !(|T| < 2^-1/2*|1|)"},
        "small": {"space": "line", "text": "|T| <= 2^-3*|1|"},
        "lens": {"space": "line", "text": "|T^2 - 2*T| <= 2^-3*|1|"},
    },
    "points": {
        "origin": {"space": "plane", "rigid": ["0", "0"]},
        "p24": {"space": "plane", "rigid": ["2", "4"]},
    },
    "sets": {
        "S": {"space": "plane",
              "chains": [{"region": "",
                          "links": [{"t": "t1", "f": "fy", "g": "gx",
                                     "r": "2^1", "s": "2^0", "R": ""}]}]},
        "H": {"space": "plane",
              "chains": [{"region": "|x| <= 2^-1*|1|", "links": []}]},
        "F": {"space": "plane",
              "chains": [{"region": "",
                          "links": [{"t": "t1", "f": "fz", "g": "gx",
                                     "r": "2^1", "s": "2^0", "R": ""}]}]},
    },
}


@pytest.fixture
def doc_path(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(DOC))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def run_subprocess(argv, timeout):
    """The CLI in a fresh interpreter, importing this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(padicgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "padicgeom.cli"] + argv,
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def run_without_site(code):
    """The stripped stdout of ``code`` in a fresh ``python -S``: site hooks
    (``.pth`` files) stay out, so only the package's own imports count."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(padicgeom.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_no_dataclasses():
    # start-up guard: the CLI runs as a fresh process per command, and the
    # dataclasses module (with inspect, ast, ...) dominated its import time
    assert run_without_site(
        "import sys, padicgeom.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))") == "[]"


def test_cli_import_loads_no_typing():
    # the standard modules the CLI needs (argparse, json, fractions, re,
    # math, operator) leave typing out, so annotations and type aliases
    # must not load it either
    assert run_without_site(
        "import argparse, json, fractions, re, math, operator, sys; "
        "print('typing' in sys.modules)") == "False"
    assert run_without_site(
        "import padicgeom.cli, sys; print('typing' in sys.modules)") == "False"


def ring_doc(tmp_path, radius, text="|T| <= 2^1*|1| & 1*|1| < |T|"):
    """1 < |T| <= 2 (or another ring ``text``) over the disc |T| <= radius."""
    doc = {"prime": 2,
           "spaces": {"disc": [{"name": "T", "radius": radius}]},
           "formulas": {"ring": {"space": "disc", "text": text}}}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_norm(doc_path, capsys):
    code, out, _ = run(capsys, ["norm", "-i", doc_path, "--series", "f"])
    assert code == 0 and out == "2^0"


def test_divide_matches_expected_report(doc_path, capsys):
    code, out, _ = run(capsys, [
        "divide", "-i", doc_path, "--f", "T^2+2T+4", "--g", "T",
        "--pivot", "T", "--eps", "2^-20", "--space", "line"])
    assert code == 0
    assert out == "q = T + 2, R = 4, residual = 0"


def test_prepare_and_distinguish(doc_path, capsys):
    code, out, _ = run(capsys, [
        "prepare", "-i", doc_path, "--g", "T + 2T^2", "--pivot", "T",
        "--eps", "2^-8", "--space", "line"])
    assert code == 0 and out == "e = 2*T + 1, w = T, residual = 0"
    code2, out2, _ = run(capsys, [
        "distinguish", "-i", doc_path, "--f", "T^2 + 2T^3", "--pivot", "T",
        "--space", "line"])
    assert code2 == 0 and out2 == "order = 2"
    code3, out3, _ = run(capsys, [
        "distinguish", "-i", doc_path, "--f", "x*y", "--pivot", "y",
        "--space", "plane"])
    assert code3 == 0 and out3 == "none"


def test_prepare_of_a_tailed_series_reports_the_tail_as_residual(tmp_path, capsys):
    # g = 4 + T + 2T^2 with tail 2^-3: the unit is the exact quotient of
    # g's stored part by the monic factor, so the tail shows only in the
    # residual; an eps below the tail is refused before any division
    doc = {"prime": 2, "spaces": {"line": [{"name": "T", "radius": "2^0"}]},
           "series": {"g": {"vars": [{"name": "T", "radius": "2^0"}],
                            "coeffs": [{"mono": [0], "c": "4"}, {"mono": [1], "c": "1"},
                                       {"mono": [2], "c": "2"}],
                            "tail": "2^-3"}}}
    path = tmp_path / "tailed.json"
    path.write_text(json.dumps(doc))
    argv = ["prepare", "-i", str(path), "--g", "g", "--pivot", "T", "--eps"]
    assert run(capsys, argv + ["2^-3"]) == \
        (0, "e = 2*T - 1095, w = T + 548, residual = 2^-3", "")
    assert run(capsys, argv + ["2^-4"]) == \
        (1, "", "error: eps is below the tail floor of the preparation instance")


def test_sigma(doc_path, capsys):
    code, out, _ = run(capsys, [
        "sigma", "-i", doc_path, "--series", "f,g", "--pivot", "T"])
    assert code == 0
    assert out.startswith("d = ") and "orders = " in out


def test_eval_gauss_point_literal(doc_path, capsys):
    code, out, _ = run(capsys, [
        "eval", "-i", doc_path, "--formula", "eta_r",
        "--point", "gauss(0,2^-1/2)", "--space", "line"])
    assert code == 0 and out == "true"
    code2, out2, _ = run(capsys, [
        "eval", "-i", doc_path, "--formula", "eta_r", "--point", "(2)",
        "--space", "line"])
    assert code2 == 0 and out2 == "false"


def test_norm_with_tail(doc_path, capsys):
    code, out, _ = run(capsys, ["norm", "-i", doc_path, "--series", "fz"])
    assert code == 0 and out == "value = 2^0, uncertainty <= 2^-5"


def test_member_unknown_exit_code(doc_path, capsys):
    code, out, _ = run(capsys, [
        "member", "-i", doc_path, "--set", "F", "--point", "(1,0)",
        "--space", "plane"])
    assert code == 2 and out == "unknown"


def test_member(doc_path, capsys):
    code, out, _ = run(capsys, [
        "member", "-i", doc_path, "--set", "S", "--point", "(0,0)",
        "--space", "plane"])
    assert code == 0 and out == "false"
    code2, out2, _ = run(capsys, [
        "member", "-i", doc_path, "--set", "S", "--point", "p24"])
    assert code2 == 0 and out2 == "true"


def test_complement_roundtrip(doc_path, capsys, tmp_path):
    out_path = str(tmp_path / "out.json")
    code, out, _ = run(capsys, [
        "complement", "-i", doc_path, "--set", "S", "-o", out_path])
    assert code == 0 and out.endswith(out_path)
    doc2 = load_document(out_path)
    comp = doc2.sets["out"]
    doc = load_document(doc_path)
    S = doc.sets["S"]
    sp = S.space
    for coords in [(0, 0), (2, 4), (1, 1), (2, 2), (4, 2), (0, 2), (3, 6)]:
        x = RigidPoint(sp, [Fraction(c) for c in coords])
        assert membership(comp, x) is (not membership(S, x))


def test_complement_output_is_deterministic(doc_path, capsys, tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(capsys, ["complement", "-i", doc_path, "--set", "S", "-o", p1])
    run(capsys, ["complement", "-i", doc_path, "--set", "S", "-o", p2])
    assert open(p1).read() == open(p2).read()


def test_intersect(doc_path, capsys, tmp_path):
    out_path = str(tmp_path / "meet.json")
    code, out, _ = run(capsys, [
        "intersect", "-i", doc_path, "--sets", "S,H", "-o", out_path])
    assert code == 0
    doc = load_document(doc_path)
    met = load_document(out_path).sets["out"]
    S, H = doc.sets["S"], doc.sets["H"]
    for coords in [(0, 0), (2, 4), (1, 1), (2, 2), (4, 8)]:
        x = RigidPoint(S.space, [Fraction(c) for c in coords])
        assert membership(met, x) is (membership(S, x) and membership(H, x))


def test_qe1(doc_path, capsys):
    code, out, _ = run(capsys, [
        "qe1", "-i", doc_path, "--conjunct", "lens", "--pivot", "T"])
    assert code == 0 and out.startswith("SAT witness = ")
    code2, out2, _ = run(capsys, [
        "qe1", "-i", doc_path, "--conjunct", "small", "--pivot", "T"])
    assert code2 == 0 and out2.startswith("SAT")


SQRT2_AT_7 = "|T^2 - 2| <= 7^-1*|1| & |T - 3| < |1|"


def sqrt2_doc(tmp_path, spaces=("line",)):
    """|T^2 - 2| <= 1/7 and |T - 3| < 1 at p = 7 as a bare-string formula,
    in a document with one unit disc per name in ``spaces``."""
    doc = {"prime": 7,
           "spaces": {name: [{"name": "T", "radius": "7^0"}] for name in spaces},
           "formulas": {"phi": SQRT2_AT_7}}
    path = tmp_path / "sqrt2.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_qe1_root_hints(tmp_path, capsys):
    # sqrt(2) lies in Z_7 (3^2 = 2 mod 7) but not in Q: with no hint the
    # fibre does not split and qe1 gives up; the hint 3 (alone, or after a
    # hint that is no witness) is a rational point of the set
    argv = ["qe1", "-i", sqrt2_doc(tmp_path), "--conjunct", "phi", "--pivot", "T"]
    assert run(capsys, argv) == (2, "UNKNOWN", "")
    for roots in ("3", "1/2,3"):
        assert run(capsys, argv + ["--roots", roots]) == (0, "SAT witness = (3)", "")


def test_bare_string_formula_reads_the_sole_space(tmp_path, capsys):
    argv = ["eval", "-i", sqrt2_doc(tmp_path), "--formula", "phi", "--point", "(3)"]
    assert run(capsys, argv) == (0, "true", "")
    argv[2] = sqrt2_doc(tmp_path, ("line", "wide"))
    assert run(capsys, argv) == \
        (1, "", "error: document has several spaces; name one explicitly")


def test_qe1_decides_over_a_wider_declared_disc(tmp_path, capsys):
    # the ring 1 < |T| <= 2 has points once the disc has radius 2
    path = ring_doc(tmp_path, "2^1")
    code, out, _ = run(capsys, ["eval", "-i", path, "--formula", "ring",
                                "--point", "(1/2)", "--space", "disc"])
    assert code == 0 and out == "true"
    code, out, _ = run(capsys, [
        "qe1", "-i", path, "--conjunct", "ring", "--pivot", "T"])
    assert code == 0 and out.startswith("SAT witness = ")
    witness = out[len("SAT witness = "):]
    code, out, _ = run(capsys, ["eval", "-i", path, "--formula", "ring",
                                "--point", witness, "--space", "disc"])
    assert code == 0 and out == "true"


def test_qe1_decides_over_a_narrower_declared_disc(tmp_path, capsys):
    # no point of |T| <= 2^-1 has 1 < |T|
    code, out, err = run(capsys, [
        "qe1", "-i", ring_doc(tmp_path, "2^-1"), "--conjunct", "ring",
        "--pivot", "T"])
    assert (code, out, err) == (0, "UNSAT", "")


def test_qe1_open_annulus_witness_is_exact(tmp_path, capsys):
    # 1 < |T| < 2 has no rigid point: the witness radius is the exact
    # midpoint 2^(1/2) of the annulus, never a float
    path = ring_doc(tmp_path, "2^1", "1*|1| < |T| & |T| < 2^1*|1|")
    assert run(capsys, ["qe1", "-i", path, "--conjunct", "ring", "--pivot", "T"]) \
        == (0, "SAT witness = gauss(0; 2^1/2)", "")


def test_qe1_decides_a_long_and_of_ors_in_one_scan(tmp_path):
    # 40 two-way disjunctions: 2^40 conjuncts in disjunctive normal form
    text = " & ".join(["(|T - 1| < |1| | |T - 2| < |1|)"] * 40
                      + ["|T| < 3^-1*|1|"])
    doc = {"prime": 3, "spaces": {"line": [{"name": "T", "radius": "3^0"}]},
           "formulas": {"phi": {"space": "line", "text": text}}}
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(doc))
    proc = run_subprocess(["qe1", "-i", str(path), "--conjunct", "phi",
                           "--pivot", "T"], timeout=600)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "UNSAT\n", "")


def test_huge_power_is_a_one_line_error(tmp_path):
    doc = {"prime": 2, "spaces": {"line": [{"name": "T", "radius": "2^0"}]},
           "formulas": {"big": {"space": "line", "text": "|T^99999999| <= |1|"}}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    proc = run_subprocess(["qe1", "-i", str(path), "--conjunct", "big",
                           "--pivot", "T"], timeout=10)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(MAX_POWER) in lines[0]


def test_nested_power_is_a_one_line_error(tmp_path):
    # each ^ is within MAX_POWER, but the outer one would build a
    # degree-10,000 series: it is refused before any multiplication
    doc = {"prime": 3, "spaces": {"line": [{"name": "T", "radius": "3^0"}]},
           "formulas": {"big": {"space": "line",
                                "text": "|((T+1)^100)^100| <= |1|"}},
           "points": {"o": {"space": "line", "rigid": ["0"]}}}
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    proc = run_subprocess(["eval", "-i", str(path), "--formula", "big",
                           "--point", "o"], timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(MAX_POWER) in lines[0]


def test_long_product_is_a_one_line_error(tmp_path):
    # each power is within MAX_POWER, but their product has degree 2,000:
    # it is refused before the multiplication
    doc = {"prime": 3, "spaces": {"line": [{"name": "T", "radius": "3^0"}]},
           "formulas": {"big": {"space": "line",
                                "text": "|(T+1)^1000*(T+3)^1000| <= |1|"}},
           "points": {"o": {"space": "line", "rigid": ["0"]}}}
    path = tmp_path / "product.json"
    path.write_text(json.dumps(doc))
    proc = run_subprocess(["eval", "-i", str(path), "--formula", "big",
                           "--point", "o"], timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "product" in lines[0] and str(MAX_POWER) in lines[0]


def test_blowup_and_pushdown(doc_path, capsys):
    code, out, _ = run(capsys, [
        "blowup", "-i", doc_path, "--chart", "1", "--series", "curve"])
    assert code == 0 and out == "pullback = -x^2 + x*t"
    code2, out2, _ = run(capsys, [
        "pushdown", "-i", doc_path, "--chart", "1", "--poly", "t - x",
        "--base-space", "plane"])
    assert code2 == 0 and out2 == "M = 1, pushdown = -x^2 + y"


def test_pushdown_of_a_document_series(tmp_path, capsys):
    # --poly may name a series of the document on the chart space (x, t):
    # the same polynomial as inline text pushes down to the same output
    doc = json.loads(json.dumps(DOC))
    doc["series"]["tx"] = {"vars": [{"name": "x", "radius": "2^0"},
                                    {"name": "t", "radius": "2^0"}],
                           "coeffs": [{"mono": [0, 1], "c": "1"},
                                      {"mono": [1, 0], "c": "-1"}],
                           "tail": "0"}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    outs = [run(capsys, ["pushdown", "-i", str(path), "--chart", "1",
                         "--poly", poly, "--base-space", "plane"])
            for poly in ("tx", "t - x")]
    assert outs[0] == outs[1] == (0, "M = 1, pushdown = -x^2 + y", "")


def test_error_reporting(doc_path, capsys):
    code, out, err = run(capsys, [
        "norm", "-i", doc_path, "--series", "nosuch", "--space", "line"])
    assert code == 1 and err.startswith("error:")


def test_unknown_pivot_error_prints_the_message(doc_path, capsys):
    code, out, err = run(capsys, [
        "distinguish", "-i", doc_path, "--f", "T^2", "--pivot", "Z",
        "--space", "line"])
    assert code == 1 and out == ""
    assert err == "error: no variable 'Z' in space ('T',)"


@pytest.mark.parametrize("argv, message", [
    (["norm", "--series", "T", "--space", "Z"], "no space named 'Z'"),
    (["eval", "--formula", "Z", "--point", "origin"], "no formula named 'Z'"),
    (["member", "--set", "Z", "--point", "origin"], "no set named 'Z'"),
    (["complement", "--set", "Z", "-o", "out.json"], "no set named 'Z'"),
    (["intersect", "--sets", "S,Z", "-o", "out.json"], "no set named 'Z'"),
    (["qe1", "--conjunct", "Z", "--pivot", "T"], "no formula named 'Z'"),
])
def test_unknown_name_is_a_one_line_error(doc_path, capsys, argv, message):
    code, out, err = run(capsys, argv[:1] + ["-i", doc_path] + argv[1:])
    assert (code, out, err) == (1, "", f"error: {message}")


def _composite_prime():
    # prime 4 with matching literals: once printed |2| = 4^0 and |4| = 4^-1
    return {"prime": 4,
            "spaces": {"line": [{"name": "T", "radius": "4^0"}]},
            "series": {"f": {"vars": [{"name": "T", "radius": "4^0"}],
                             "coeffs": [{"mono": [0], "c": "2"}]}}}


def _with(path, value):
    """DOC with the entry at ``path`` (a key sequence) replaced by value."""
    doc = json.loads(json.dumps(DOC))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


F_TERM = ("series", "f", "coeffs", 0)


@pytest.mark.parametrize("doc, field", [
    (_with(("prime",), None), "'prime'"),
    (_with(("prime",), "2"), "'prime'"),
    (_composite_prime(), "'prime'"),
    (_with(F_TERM + ("mono",), 1), "'mono'"),
    (_with(F_TERM + ("c",), 1), "scalar literal"),
    (_with(F_TERM + ("c",), "1/0"), "scalar literal"),
    (_with(("series", "f", "tail"), "2^1/0"), "norm literal"),
    (_with(("spaces",), []), "'spaces'"),
    (_with(("spaces", "line"), {}), "'spaces' entry 'line'"),
    (_with(("series",), []), "'series'"),
    (_with(("series", "f"), 3), "'series' entry 'f'"),
    (_with(("series", "f", "vars"), {}), "'vars'"),
    (_with(("series", "f", "coeffs"), {}), "'coeffs'"),
    (_with(F_TERM, "x"), "'coeffs'"),
    (_with(("formulas",), "|T| <= |1|"), "'formulas'"),
    (_with(("formulas", "small"), 1), "'formulas' entry 'small'"),
    (_with(("formulas", "small", "text"), "|T - 1/0| <= |1|"), "zero denominator"),
    (_with(("points", "origin"), ["0", "0"]), "'points' entry 'origin'"),
    (_with(("points", "origin", "rigid"), "0"), "'rigid'"),
    (_with(("sets",), None), "'sets'"),
    (_with(("sets", "S", "space"), ["plane"]), "'space'"),
    (_with(("sets", "S", "chains"), {}), "'chains'"),
    (_with(("sets", "S", "chains", 0), []), "'chains'"),
    (_with(("sets", "S", "chains", 0, "links"), {}), "'links'"),
    (_with(("sets", "S", "chains", 0, "links", 0, "f"), 1), "'f'"),
], ids=["prime-null", "prime-string", "prime-composite", "mono-int",
        "scalar-int", "scalar-zero-denominator", "norm-zero-denominator",
        "spaces-list", "space-entry-object", "series-list", "series-entry-number",
        "vars-object", "coeffs-object", "coeff-string", "formulas-string",
        "formula-entry-number", "formula-zero-denominator", "point-entry-list", "rigid-string", "sets-null",
        "set-space-list", "chains-object", "chain-list", "links-object",
        "link-series-number"])
def test_malformed_document_is_a_one_line_error(tmp_path, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_subprocess(["norm", "-i", str(path), "--series", "f"], timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and field in lines[0]
    with pytest.raises(ValueError, match=field):
        load_document(str(path))


# Document-level fuzz: small valid documents with random literals, then up to
# three edits, each replacing some member (or the whole document) by a JSON
# value of the wrong type or a bad or borderline literal, or deleting it.
# Every subcommand that reads one exits 0, 1 or 2, with a one-line error for
# 1, and raises nothing.
FUZZ_DOC = {
    "prime": 3,
    "spaces": {"line": [{"name": "T", "radius": "3^0"}]},
    "series": {
        "f": {"vars": [{"name": "T", "radius": "3^0"}],
              "coeffs": [{"mono": [1], "c": "3"}, {"mono": [0], "c": "-1/2"}],
              "tail": "0"},
        "g": {"vars": [{"name": "T", "radius": "3^0"}],
              "coeffs": [{"mono": [1], "c": "1"}], "tail": "3^-2"},
    },
    "formulas": {"phi": {"space": "line", "text": "|T - 1| <= 3^-1*|1| | !(|T| < |1|)"}},
    "points": {"x": {"space": "line", "rigid": ["6"]},
               "eta": {"space": "line", "center": ["1"], "rho": ["3^-1/2"]}},
    "sets": {"S": {"space": "line",
                   "chains": [{"region": "|T| <= |1|",
                               "links": [{"t": "t", "f": "f", "g": "g",
                                          "r": "3^1", "s": "3^0",
                                          "R": "|t| <= |T|"}]}]}},
}
fuzz_literal = st.sampled_from([
    "1", "0", "-1", "3", "2/3", "3^0", "3^-1/2", "1/0", "0/0", "3^1/0", "",
    "2^1", "3^x", "T", "t", "f", "line", "x", "S", "(0)", "(1, 2)",
    "gauss(0; 3^0)", "|T| <= |1|", "|T - 1/0| <= |1|", "|T^2| < 3^2*|T|",
    "|t| <=", "|q| <= |1|", "junk"])
fuzz_json = st.recursive(
    st.one_of(fuzz_literal, st.integers(-3, 3), st.none(), st.booleans(),
              st.floats(allow_nan=True, allow_infinity=True)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(fuzz_literal, inner, max_size=3)),
    max_leaves=6)


def json_members(node, out):
    """Every (container, key) pair below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            json_members(value, out)
    return out


fuzz_scalar = st.builds(lambda n, d, k: str(Fraction(n, d) * Fraction(3) ** k),
                        st.integers(-9, 9), st.sampled_from([1, 2, 4, 5]),
                        st.integers(-2, 2))
fuzz_norm = st.one_of(st.builds(lambda n, d: f"3^{n}" + (f"/{d}" if d > 1 else ""),
                                st.integers(-3, 3), st.integers(1, 3)),
                      st.just("0"))
# formulas over the degree limit (MAX_POWER): long products and powers,
# nested ones included, refused while the document is read, before
# anything is multiplied out
OVER_LIMIT = ["|(T+1)^600*(T+3)^600| <= |1|", "|T^1001| <= |1|",
              "|T| <= |T^500*T^501 + 1| | |T| < |1|", "|((T+1)^1000)^2| <= |1|"]
fuzz_formula = st.sampled_from([
    "|T - 1| <= 3^-1*|1| | !(|T| < |1|)", "|T| <= 0*|1|", "|T^2 - 1| < |T|",
    "3^1/2*|T + 1| <= |T - 2| & |T| < |1|", "!(|3*T| <= 3^-2*|1|)"] + OVER_LIMIT)


@st.composite
def fuzz_document(draw):
    """FUZZ_DOC with fresh valid literals, then up to three junk edits.

    Hypothesis favours the first choice of each draw, so that choice is the
    mildest: no edit, deep members first, replace rather than delete."""
    doc = json.loads(json.dumps(FUZZ_DOC))
    for f in doc["series"].values():
        for term in f["coeffs"]:
            term["c"] = draw(fuzz_scalar)
        f["tail"] = draw(fuzz_norm)
    doc["formulas"]["phi"]["text"] = draw(fuzz_formula)
    # one coordinate per point as a rule, sometimes two or none
    arity = st.sampled_from([1, 2, 0])
    doc["points"]["x"]["rigid"] = [draw(fuzz_scalar) for _ in range(draw(arity))]
    doc["points"]["eta"]["center"] = [draw(fuzz_scalar) for _ in range(draw(arity))]
    doc["points"]["eta"]["rho"] = [draw(fuzz_norm) for _ in range(draw(arity))]
    link = doc["sets"]["S"]["chains"][0]["links"][0]
    r, drop = draw(st.integers(-1, 2)), draw(st.integers(1, 3))
    link["r"], link["s"] = f"3^{r}", f"3^{r - drop}"
    for _ in range(draw(st.integers(0, 3))):
        members = json_members(doc, [])[::-1]
        if not members or draw(st.integers(0, 15)) == 15:
            return draw(fuzz_json)
        node, key = draw(st.sampled_from(members))
        if isinstance(node, dict) and draw(st.integers(0, 3)) == 3:
            del node[key]
        else:
            node[key] = draw(fuzz_json)
    return doc


FUZZ_COMMANDS = (["norm", "--series", "f"],
                 ["eval", "--formula", "phi", "--point", "x"],
                 ["eval", "--formula", "phi", "--point", "eta"],
                 ["member", "--set", "S", "--point", "x"])


@settings(max_examples=200)
@given(fuzz_document())
def test_document_fuzz_exits_cleanly(doc):
    # a formula over the degree limit that the edits left in place makes
    # the document unreadable: every command exits 1
    try:
        over = doc["formulas"]["phi"]["text"] in OVER_LIMIT
    except (KeyError, TypeError, IndexError):
        over = False
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in FUZZ_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], "-i", path] + command[1:])
            assert code in ((1,) if over else (0, 1, 2)), (command, code)
            if code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:"), lines
            else:
                assert out.getvalue() and not err.getvalue()


REPO = Path(__file__).resolve().parent.parent
STORED_CASES = json.loads(
    (REPO / "perfbench" / "cli" / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", STORED_CASES, ids=[
    f"{c['argv'][0]}-{Path(c['argv'][c['argv'].index('-i') + 1]).stem}"
    for c in STORED_CASES])
def test_stored_benchmark_case(case, monkeypatch, capsys, tmp_path):
    # the byte-compared cases of the benchmark's cli workload, in process,
    # from the repository root; an -o file goes to tmp_path instead
    monkeypatch.chdir(REPO)
    argv, stdout = list(case["argv"]), case["stdout"]
    if case["ofile"]:
        ofile = tmp_path / Path(case["ofile"]).name
        argv[argv.index(case["ofile"])] = str(ofile)
        stdout = stdout.replace(case["ofile"], str(ofile))
    assert main(argv) == case["exit"]
    assert capsys.readouterr().out == stdout
    if case["ofile"]:
        assert ofile.read_text(encoding="utf-8") == case["ofile_text"]


DOC2 = str(REPO / "perfbench" / "cli" / "doc2.json")
XY_PIVOT = ["--pivot", "y", "--eps", "2^-5", "--space", "plane"]
# a document whose one formula has two variables
XY_DOC = {"prime": 2,
          "spaces": {"plane": [{"name": "x", "radius": "2^0"},
                               {"name": "y", "radius": "2^0"}]},
          "formulas": {"xy": {"space": "plane", "text": "|x| <= |y|"}}}


@pytest.mark.parametrize("doc, argv, message", [
    (None, ["member", "--set", "F", "--point", "gauss(0,1,2)", "--space", "plane"],
     "cannot read monomial point 'gauss(0,1,2)'"),
    (None, ["eval", "--formula", "small", "--point", "gauss(0;1;2)", "--space", "line"],
     "cannot read monomial point 'gauss(0;1;2)'"),
    (None, ["eval", "--formula", "small", "--point", "gauss(x;2^1)", "--space", "line"],
     "bad scalar literal: 'x'"),
    (None, ["member", "--set", "F", "--point", "zzz", "--space", "plane"],
     "no point named 'zzz' and the literal form is not recognized"),
    (None, ["divide", "--f", "x*y", "--g", "x*y"] + XY_PIVOT,
     "the divisor is not pivot-distinguished"),
    (None, ["prepare", "--g", "x*y"] + XY_PIVOT,
     "the series is not pivot-distinguished"),
    (None, ["member", "--set", "F", "--point", "gauss(0,0;1,1)", "--space", "plane"],
     "membership is defined at rigid points only"),
    (None, ["intersect", "--sets", "S", "-o", "out.json"],
     "intersect needs at least two set names"),
    (XY_DOC, ["qe1", "--conjunct", "xy", "--pivot", "y"],
     "qe1 decides one-variable formulas; fix a base point first for relative "
     "instances"),
    (None, ["qe1", "--conjunct", "small", "--pivot", "X"],
     "pivot 'X' is not the formula's variable"),
], ids=["gauss-arity", "gauss-parts", "gauss-centre", "point-literal", "divide-undistinguished",
        "prepare-undistinguished", "member-monomial", "intersect-one-set",
        "qe1-two-variables", "qe1-wrong-pivot"])
def test_command_refusal_is_a_one_line_error(tmp_path, doc, argv, message):
    # each refusal a command raises itself, on doc2 or on the given
    # document: exit 1, no output and exactly one error line (so no
    # traceback), in a fresh interpreter
    source = DOC2
    if doc is not None:
        source = str(tmp_path / "doc.json")
        Path(source).write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(tmp_path / a) if a == "out.json" else a for a in argv]
    proc = run_subprocess(argv[:1] + ["-i", source] + argv[1:], timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


def test_repeated_complements_stay_small(tmp_path):
    # each negated base region stays one region: complement after
    # complement of doc2's C keeps 4 chains, where splitting those regions
    # into DNF chains gave 32 at the second step and no answer in minutes
    # at the third
    source, name = DOC2, "C"
    outs = []
    for k in range(3):
        out = str(tmp_path / f"c{k + 1}.json")
        proc = run_subprocess(["complement", "-i", source, "--set", name,
                               "-o", out], timeout=30)
        assert proc.returncode == 0 and not proc.stderr
        assert proc.stdout == f"wrote 4 chain(s) to {out}\n"
        outs.append(load_document(out).sets["out"])
        source, name = out, "out"
    C = load_document(DOC2).sets["C"]
    answers = set()
    for x0 in range(8):
        for y0 in (0, 1, 2, 3, 4, 6, Fraction(1, 3), Fraction(2, 5)):
            x = RigidPoint(C.space, (Fraction(x0), Fraction(y0)))
            inside = membership(C, x)
            assert membership(outs[0], x) is membership(outs[2], x) is (not inside)
            assert membership(outs[1], x) is inside
            answers.add(inside)
    assert answers == {True, False}
