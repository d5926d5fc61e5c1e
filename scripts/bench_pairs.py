#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, judged for a gain and for a regression.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload demo30 --seeds 1 2 11 --pairs 10

Each pair runs `bench/run.py --workload W --seed S --seconds 20 --trace 0` in
the PARENT checkout and in the CHANGE checkout, one after the other. The side
that runs first alternates from pair to pair, and pair i uses seed
seeds[i % len(seeds)]. Only the last line of each run's output, its JSON
summary, is read.

For each end-to-end metric that CHANGE's BENCHMARK.json declares, it prints
every pair, each side's median and quartiles, and the number of pairs the
change won (ties count for neither side). The gain holds when the change won
at least nine tenths of the pairs and its median is better than the parent's
by more than the parent's interquartile range (IQR). Each metric also gets a
regression verdict from its `bound`, a fraction of the parent's median: it
"regressed" when the change's median is worse than the parent's by more than
that; it is "unresolved" when the parent's IQR exceeds it, unless every run
of the change is better than every run of the parent; otherwise it shows
"no regression". The exit status is 1 when a run fails or reports failed
operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 20  # bench/run.py's run length, the same on both sides


def last_json(output: str) -> dict:
    """The JSON object on the last non-empty line of a run's standard output."""
    lines = [line for line in output.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def run_bench(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One bench/run.py run in `checkout`; its JSON summary."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} exited with {done.returncode}: "
                           + " | ".join(done.stderr.splitlines()[-3:]))
    return last_json(done.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Wins of the change, both sides' quartiles, whether the gain holds, and whether every
    run of the change is better than every run of the parent."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change, strict=True) if sign * (p - c) > 0)
    before, after = quartiles(parent), quartiles(change)
    gap, iqr = sign * (before[1] - after[1]), before[2] - before[0]
    return {"wins": wins, "pairs": len(parent), "parent": before, "change": after,
            "gap": gap, "parent_iqr": iqr, "holds": wins >= 0.9 * len(parent) and gap > iqr,
            "every_run_better": all(sign * (p - c) > 0 for p in parent for c in change)}


def regression(v: dict, bound: float) -> str:
    """A verdict's regression check: the bound is a fraction of the parent's median."""
    allowed = bound * abs(v["parent"][1])
    if -v["gap"] > allowed:
        return "regressed"
    if v["parent_iqr"] > allowed and not v["every_run_better"]:
        return "unresolved"
    return "no regression"


def collect(parent: Path, change: Path, workload: str, seeds: list[int], pairs: int,
            run=run_bench) -> list[tuple[int, dict, dict]]:
    """(seed, parent summary, change summary) per pair, alternating which side runs first."""
    results = []
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        sides = [("parent", parent), ("change", change)]
        out = {name: run(checkout, workload, seed) for name, checkout in sides[:: 1 if i % 2 == 0 else -1]}
        results.append((seed, out["parent"], out["change"]))
    return results


def report(results: list[tuple[int, dict, dict]], metrics: list[dict]) -> tuple[list[str], bool]:
    """Printable lines and whether every run reported no failed operations."""
    lines, clean = [], True
    for i, (seed, before, after) in enumerate(results):
        for side, summary in (("parent", before), ("change", after)):
            if summary.get("failed", 0) or not summary.get("correct", False):
                clean = False
                lines.append(f"pair {i} seed {seed}: {side} failed {summary.get('failed')} "
                             f"of {summary.get('attempted')} operations")
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        parent = [before["metrics"][name]["value"] for _, before, _ in results]
        change = [after["metrics"][name]["value"] for _, _, after in results]
        lines.append(f"{name} [{unit}], {metric['better']} is better")
        for i, ((seed, _, _), p, c) in enumerate(zip(results, parent, change)):
            lines.append(f"  pair {i} seed {seed}: parent {p:.4g} change {c:.4g}")
        v = verdict(parent, change, metric["better"])
        for side in ("parent", "change"):
            q1, median, q3 = v[side]
            lines.append(f"  {side}: median {median:.4g} quartiles {q1:.4g} .. {q3:.4g}")
        lines.append(f"  bound {metric['bound']:g} of the parent median: {regression(v, metric['bound'])}")
        lines.append(f"  change won {v['wins']}/{v['pairs']}; median gap {v['gap']:.4g}, "
                     f"parent IQR {v['parent_iqr']:.4g}; gain {'holds' if v['holds'] else 'not shown'}")
    return lines, clean


def main(argv: list[str] | None = None, run=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with open(args.change / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    try:
        results = collect(args.parent, args.change, args.workload, args.seeds, args.pairs, run)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines, clean = report(results, metrics)
    print("\n".join(lines))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
