#!/usr/bin/env python3
"""Record this checkout's benchmark numbers in BENCH_<pr>.json.

    python3 scripts/record_bench.py --pr N

Runs `bench/run.py` three times in the checkout that holds this script, each
at fleet seed 1 and the benchmark's fixed run length: demo30 and paths60
untraced (`--trace 0`), then one traced demo30 pass (`--trace 1`). From each run it reads the JSON summary on the
last line of its output and the record it leaves in
`.bench_work/<workload>/result.json`, and it writes one JSON file with each
run's metrics and output digests, `src.lines` (from the traced run), the
commit checked out (HEAD, and whether tracked files differ from it) and the
environment. The exit status is 1, and no file is written, when a run fails
or reports failed operations.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import bench_pairs

ROOT = Path(__file__).resolve().parents[1]
SEED = 1  # the fleet seed every record uses, so records compare across changes
RUNS = (("demo30", 0), ("paths60", 0), ("demo30", 1))  # (workload, trace)


def run_bench(checkout: Path, workload: str, trace: int) -> tuple[dict, dict]:
    """One bench/run.py run in `checkout`: its JSON summary and its result.json record."""
    summary = bench_pairs.run_bench(checkout, workload, SEED, trace)
    record = json.loads((checkout / ".bench_work" / workload / "result.json").read_text(encoding="utf-8"))
    return summary, record


def git_head(checkout: Path) -> tuple[str | None, bool | None]:
    """The commit checked out and whether tracked files differ from it; None outside git."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                              text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=checkout, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return head, bool(status.strip())


def record(pr: int, runs: list[tuple[dict, dict]],
           head: tuple[str | None, bool | None]) -> dict:
    """The BENCH_<pr>.json document for the runs, in RUNS order."""
    entries = [{"workload": rec["workload"], "seed": rec["seed"], "trace": rec["trace"],
                "samples": rec["samples"], "correct": summary["correct"],
                "attempted": summary["attempted"], "failed": summary["failed"],
                "metrics": summary["metrics"], "digests": rec["digests"]}
               for summary, rec in runs]
    traced = next(entry for entry in entries if entry["trace"])
    return {
        "pr": pr,
        "head": head[0],
        "tracked_files_changed": head[1],
        "environment": {**runs[0][1]["env"], "platform": platform.platform()},
        "seconds": bench_pairs.SECONDS,
        "src.lines": traced["metrics"]["src.lines"]["value"],
        "runs": entries,
    }


def main(argv: list[str] | None = None, run=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json in the checkout")
    args = parser.parse_args(argv)
    try:
        runs = [run(ROOT, workload, trace) for workload, trace in RUNS]
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = record(args.pr, runs, git_head(ROOT))
    bad = [f"{e['workload']} trace {e['trace']}: failed {e['failed']} of {e['attempted']} operations"
           for e in doc["runs"] if e["failed"] or not e["correct"]]
    if bad:
        print("error: " + "; ".join(bad), file=sys.stderr)
        return 1
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
