"""Workload `cli`: the `padicgeom` command as a user runs it.

Each op starts a fresh interpreter running the console-script entry point
(`padicgeom.cli:main`) on one stored case: every one of the 12 subcommands
on each of two fixed documents (cli/doc2.json, cli/doc3.json).  Stdout, the
exit code and any `-o` file must equal the bytes in cli/expected.json.
Interpreter start, `import padicgeom`, `document.load_document` and the
`blowup` module are measured by no other workload.  The seed fixes the
order in which the cases are run, a fresh shuffle per round.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

from padicgeom import document

from checkout import ROOT, library_env
from corpus import instance_rng

NAME = "cli"
CORPUS_SIZE = 48
TIMEOUT_S = 60
ENTRY = "import sys; from padicgeom.cli import main; sys.exit(main())"
CASES = json.loads((Path(__file__).resolve().parent / "cli" / "expected.json").read_text())


def run_case(case):
    """Run one stored case; returns (exit code, stdout bytes, -o file bytes)."""
    ofile = ROOT / case["ofile"] if case["ofile"] else None
    if ofile is not None:
        ofile.parent.mkdir(parents=True, exist_ok=True)
        ofile.unlink(missing_ok=True)
    done = subprocess.run([sys.executable, "-c", ENTRY, *case["argv"]], cwd=ROOT,
                          env=library_env(), capture_output=True, timeout=TIMEOUT_S)
    written = ofile.read_bytes() if ofile is not None and ofile.exists() else None
    return done.returncode, done.stdout, written


class Instance:
    def __init__(self, seed, index):
        rnd, pos = divmod(index, len(CASES))
        order = list(range(len(CASES)))
        instance_rng(NAME, seed, rnd).shuffle(order)
        self.case = CASES[order[pos]]

    def key(self):
        return json.dumps(self.case["argv"])

    def ops(self):
        return [(self.case["argv"][0], lambda: run_case(self.case))]

    def check(self, outputs):
        if outputs[0] is None:
            return {}
        code, stdout, written = outputs[0]
        case = self.case
        if code != case["exit"]:
            return {0: f"exit code {code}, expected {case['exit']}"}
        if stdout.decode() != case["stdout"]:
            return {0: f"stdout {stdout!r} differs from the stored bytes"}
        if case["ofile"] and (written is None or written.decode() != case["ofile_text"]):
            return {0: f"{case['ofile']} differs from the stored bytes"}
        return {}

    def _document(self):
        return self.case["argv"][self.case["argv"].index("-i") + 1]

    def scalars(self, outputs):
        doc = document.load_document(str(ROOT / self._document()))
        return [(c, doc.prime) for s in doc.series.values() for c in s.coeffs.values()]

    def traced_extra(self, tracer, outputs):
        tracer.call("document.load_document", document.load_document,
                    str(ROOT / self._document()))


def layer_latencies(plain):
    """cli.<subcommand>.latency_p50_ms from an untraced pass."""
    by_kind = {}
    for kind, lat in zip(plain["op_kinds"], plain["latencies"]):
        by_kind.setdefault(kind, []).append(lat)
    return {f"cli.{k}.latency_p50_ms": statistics.median(v) * 1e3 for k, v in by_kind.items()}


def instrument(inst, module):
    """Nothing runs in this process but the subprocess calls and the
    document loads timed by traced_extra."""
