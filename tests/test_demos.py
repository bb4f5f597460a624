import glob
import os
import subprocess
import sys

import pytest

import padicgeom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
GOLDEN = os.path.join(ROOT, "tests", "golden")


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo):
    """Each demo exits 0 and prints exactly its stored output
    (tests/golden/<demo>.out)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(padicgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, demo], capture_output=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    name = os.path.splitext(os.path.basename(demo))[0] + ".out"
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert proc.stdout == fh.read()
