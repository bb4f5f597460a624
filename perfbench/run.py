#!/usr/bin/env python3
"""padicgeom benchmark: seeded workloads, checked answers, named metrics.

    python3 perfbench/run.py                       # all workloads, seed 1
    python3 perfbench/run.py --workload divide --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck --seed 3  # traced twice, must agree

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy.  See perfbench/README.md
for the workloads and for every metric's name, unit and meaning.
"""

import argparse
import sys
from pathlib import Path

from checkout import SRC

WORKLOADS = ("divide", "sets", "qe", "cli")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="run the traced workload twice and compare digests and counters")
    args = ap.parse_args(argv)
    if not (SRC / "padicgeom" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}/padicgeom; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import padicgeom
    if Path(padicgeom.__file__).resolve().parent != SRC / "padicgeom":
        print("error: padicgeom was not imported from the checkout", file=sys.stderr)
        return 2
    import harness
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.selfcheck:
        return harness.selfcheck(names, args.seed, args.seconds)
    if args.workload == "all":
        return harness.run_all(names, args.seed, args.seconds)
    return harness.run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
