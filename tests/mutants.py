"""Recorded mutations, checked again: each must still be caught by its test.

``mutants.json`` lists mutations of the library: a file under ``src``, an
exact text that occurs there once, the text that replaces it, and the test
node that must fail once it is replaced.  For each entry this script copies
``src`` to a temporary directory, applies the one mutation there and runs
the node with pytest on the copy (the property tests run derandomized, by
the profile in ``conftest.py``).  It exits 1 if a mutant survives (its node
passes), if an old text is not found exactly once (the entry needs updating
to the code, not deleting), or if a node fails on the unmutated copy.  A
node that runs past the entry's ``timeout`` (seconds, default 300) counts
as failing: the mutant made it hang.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

It is not a test module (no ``test_`` prefix), so the suite does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ENTRIES = Path(__file__).with_name("mutants.json")


def run_node(src: Path, node: str, timeout: float) -> str:
    """'pass', 'fail' or 'timeout' for one test node on the library in src."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", node]
    try:
        proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if proc.returncode == 0 else "fail"


def main() -> int:
    entries = json.loads(ENTRIES.read_text(encoding="utf-8"))
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean" / "src"
        shutil.copytree(REPO / "src", clean)
        for node in sorted({e["test"] for e in entries}):
            outcome = run_node(clean, node, 300)
            if outcome != "pass":
                print(f"BROKEN  {node} does not pass unmutated ({outcome})")
                bad += 1
        for k, e in enumerate(entries):
            src = Path(tmp) / f"m{k}" / "src"
            shutil.copytree(clean, src)
            path = src / e["file"]
            text = path.read_text(encoding="utf-8")
            found = text.count(e["old"])
            if found != 1:
                print(f"STALE   {e['name']}: old text found {found} times in {e['file']}")
                bad += 1
                continue
            path.write_text(text.replace(e["old"], e["new"]), encoding="utf-8")
            outcome = run_node(src, e["test"], e.get("timeout", 300))
            if outcome == "pass":
                print(f"SURVIVED {e['name']}: {e['test']} passes")
                bad += 1
            else:
                print(f"killed  {e['name']} ({outcome})")
            shutil.rmtree(src.parent)
    print(f"{len(entries)} mutants, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
