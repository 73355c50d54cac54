"""Run the benchmark in alternating pairs on two checkouts and summarise it.

    python3 tools/bench_pairs.py PARENT CHANGE [--pairs 10] [--seconds 10] [--workload W ...]

Pair i (1 to --pairs) runs

    python3 bench/run.py --workload W --seed i --seconds T --trace 0

from the root of each checkout, the parent first on odd i and the change
first on even i, for every workload (all of BENCHMARK.json's by default).
Both checkouts must sit at paths of the same length: the length of a
process's path and arguments shifts its memory layout, and a pair run that
way has read a timing difference that the code did not make.

Each run's result line goes to standard error as it arrives. Then, per
workload and per end-to-end metric of the change's BENCHMARK.json, the
summary gives every pair's two values, each side's median and quartiles,
the ties (pairs whose values differ by at most TIE of the parent's) and
the change's wins out of the pairs (by the metric's `better`, ties
counting for neither), and the change of the median against the metric's
`bound`, or "unresolved" where the parent's quartiles lie further apart
than the bound (unless every change run reads better than every parent
run). Last comes whether a gain is shown: at least 10 pairs have both
values, the change wins at least 9 in 10 of them and its median beats
the parent's by more than the distance between the parent's quartiles.
It names every run that exited non-zero, printed no result, read
`correct: false` or had a failed operation, and then exits 1. Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TIE = 1e-12  # relative to the parent's value


def order(pair: int) -> tuple[str, str]:
    """The sides in the order pair number `pair` (from 1) runs them."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench run in checkout root: its exit code and parsed result (or None)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"returncode": proc.returncode, "result": result, "stderr": proc.stderr[-2000:]}


def fault(run: dict) -> str | None:
    """Why a run cannot be counted, or None."""
    result = run["result"]
    if run["returncode"] != 0:
        return f"exit {run['returncode']}"
    if not isinstance(result, dict):
        return "no result"
    if result.get("correct") is not True:
        return "correct: false"
    if result.get("failed"):
        return f"{result['failed']} failed operations"
    return None


def value(run: dict, name: str) -> float | None:
    """The run's value of metric name, or None if it has none."""
    result = run["result"]
    if not isinstance(result, dict):
        return None
    return result.get("metrics", {}).get(name, {}).get("value")


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(pairs: dict, metrics: list) -> tuple[list, list]:
    """Summary lines and fault lines for pairs[workload] = [{side: run}, ...],
    pair i at index i - 1, against BENCHMARK.json's end-to-end metrics."""
    lines, faults = [], []
    for workload, runs in pairs.items():
        for i, pair in enumerate(runs, 1):
            for side in order(i):
                why = fault(pair[side])
                if why:
                    faults.append(f"{workload} pair {i} {side}: {why}")
        for m in metrics:
            name, better = m["name"], m["better"]
            got = [(i, value(pair["parent"], name), value(pair["change"], name))
                   for i, pair in enumerate(runs, 1)]
            got = [v for v in got if None not in v]
            if not got:
                lines.append(f"{workload} {name}: no pair has both values")
                continue
            sign = 1 if better == "lower" else -1  # sign * value: lower is better
            ps, cs = [p for _, p, _ in got], [c for _, _, c in got]
            parent, change = quartiles(ps), quartiles(cs)
            # a pair within TIE of the parent's value is a tie, neither a win nor a
            # loss: a mean over a different number of rounds moves the last bits
            ties = sum(abs(c - p) <= TIE * abs(p) for _, p, c in got)
            wins = sum(sign * (c - p) < -TIE * abs(p) for _, p, c in got)
            delta = (change[1] - parent[1]) / abs(parent[1]) if parent[1] else 0.0
            spread = (parent[2] - parent[0]) / abs(parent[1]) if parent[1] else 0.0
            all_better = max(sign * c for c in cs) < min(sign * p for p in ps)
            if spread > m["bound"] and not all_better:
                verdict = f"unresolved, the parent's quartiles span {spread:.1%} of its median"
            else:
                verdict = "worse beyond bound" if sign * delta > m["bound"] else "within bound"
            gain = (len(got) >= 10 and 10 * wins >= 9 * len(got)
                    and sign * (parent[1] - change[1]) > parent[2] - parent[0])
            lines.append(
                f"{workload} {name} ({m['unit']}, {better} is better, bound {m['bound']:g}): "
                f"parent median {parent[1]:.6g} [{parent[0]:.6g}, {parent[2]:.6g}], "
                f"change median {change[1]:.6g} [{change[0]:.6g}, {change[2]:.6g}], "
                f"ties {ties}/{len(got)}, change wins {wins}/{len(got)}, "
                f"median {delta:+.1%}: {verdict}; {'gain shown' if gain else 'no gain shown'}"
            )
            lines.append("  pairs parent/change, p or c ran first: " + ", ".join(
                f"{i}{order(i)[0][0]} {p:.6g}/{c:.6g}" for i, p, c in got
            ))
    return lines, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workload", action="append", dest="workloads")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        parser.error(f"checkout paths differ in length: {parent} and {change}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    roots = {"parent": parent, "change": change}
    pairs = {w: [] for w in workloads}
    for i in range(1, args.pairs + 1):
        for w in workloads:
            pair = {}
            for side in order(i):
                pair[side] = run_once(roots[side], w, i, args.seconds)
                print(f"pair {i} {w} {side}: exit {pair[side]['returncode']} "
                      f"{json.dumps(pair[side]['result'])}", file=sys.stderr, flush=True)
                if pair[side]["returncode"]:
                    print(pair[side]["stderr"], file=sys.stderr, flush=True)
            pairs[w].append(pair)
    lines, faults = summarise(pairs, spec["end_to_end"])
    print("\n".join(lines))
    for f in faults:
        print(f"FAULT: {f}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
