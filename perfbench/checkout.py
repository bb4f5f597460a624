"""The source checkout the benchmark measures, and child interpreters on it."""

import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# Times `import {mod}` in a fresh interpreter, then the machine-speed
# reference in the same process (after the import, so that the reference's
# own imports are not mistaken for the library's), and prints the import
# time scaled to the nominal speed.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import {mod}; "
                "took = time.perf_counter() - t; import sys; sys.path.append({bench!r}); "
                "import benchstats; "
                "speed = benchstats.Speed(); [speed.sample() for _ in range(5)]; "
                "print(repr(took * speed.factor()))")


def library_env():
    """Environment for child interpreters: the checkout's library, with the
    bytecode cache allowed, as a user's interpreter would have it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def pin_to_one_cpu():
    """Keep this process and the children it starts on one CPU, so that the
    machine-speed reference runs on the core where the work it scales runs."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:
            pass


def fresh_import_s(module, samples):
    """Median time a fresh interpreter spends in `import module`, at the
    nominal machine speed, after one untimed import that warms the
    bytecode cache."""
    probe = IMPORT_PROBE.format(mod=module, bench=str(ROOT / "perfbench"))
    times = []
    for i in range(samples + 1):
        done = subprocess.run([sys.executable, "-c", probe],
                              cwd=ROOT, env=library_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        if i:
            times.append(float(done.stdout.strip()))
    return statistics.median(times)
