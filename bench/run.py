"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload extract-crf --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
./src. With --trace 0 the result carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, whose spans
are also written to .bench_work/traces/. Workloads are listed in
bench/workloads.py and described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path.cwd()
# One thread everywhere: a single-threaded baseline is the steadiest on a
# shared two-core machine, and it must be fixed before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "EVCSEG_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "evcseg" / "__init__.py").is_file():
        print(f"no evcseg sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".bench_work"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
