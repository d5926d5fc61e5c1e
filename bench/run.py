"""voyagekit benchmark: one workload, one seed, one closed-loop pipeline.

    python3 bench/run.py --workload demo30 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; it imports voyagekit from src/ and
writes only under .bench_work/. The seed is the seed of the synthetic demo
fleet. Set-up (that fleet, and for paths60 the voyage store) runs SETUP_REPS
times, each in its own process timed from start to exit; setup_s is their
median. Another process
repeats the workload's timed CLI stages for --seconds (at least one full
pass); run_s is the median pass, and the process reports its own peak
memory. Every stage call is checked (bench/pipeline.py), and output digests
must agree across passes and with earlier runs of the same fleet and sources
(kept under .bench_work/digests/).

--trace 0 prints the end-to-end metrics: setup_s, run_s, peak_rss_mb.
--trace 1 runs set-up once and the timed stages twice, untraced then with
spans around voyagekit's public functions (bench/tracer.py), and prints the
per-layer metrics listed in BENCHMARK.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pipeline import ROOT, WORKLOADS
from tracer import layer_metrics, load_dump, src_lines

SETUP_REPS = 2
# One BLAS thread: the pipeline is a single closed loop, so this keeps the
# load off the second core, and any later parallel stage shows up in
# proc.cpu_s against run_s.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORK_DIR = ".bench_work"


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    # The workload fixes the run configuration; VOYAGEKIT_* overrides from
    # the caller's environment would change it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("VOYAGEKIT_")}
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(BLAS_ENV)
    return env


def run_child(mode: str, args: argparse.Namespace, work: Path, trace: bool) -> tuple[dict, float]:
    """Run one pipeline.py process; returns its result file and wall time."""
    cmd = [sys.executable, str(ROOT / "bench" / "pipeline.py"), mode, args.workload, str(work),
           "1" if trace else "0", str(args.seed if mode == "setup" else args.seconds)]
    log = work / f"{mode}.log"
    start = time.perf_counter()
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, env=child_env())
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8").splitlines()[-5:]
        raise BenchError(f"{mode} exited with {proc.returncode}: " + " | ".join(tail))
    with open(work / f"{mode}.json", encoding="utf-8") as fh:
        return json.load(fh), elapsed


def tally(results: list[dict], seen: dict[str, dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed. `seen` maps each operation to the
    digests it wrote before, in this run or an earlier one; an operation
    whose digests differ from those fails too. New entries are added."""
    attempted = failed = 0
    notes: list[str] = []
    for result in results:
        for iteration in result["iterations"]:
            for index, op in enumerate(iteration):
                attempted += 1
                key = f"{index} {op['op']}"
                problems = list(op["problems"])
                if key in seen and seen[key] != op["digests"]:
                    problems.append(f"{op['op']}: output digests differ from an earlier pass")
                seen.setdefault(key, op["digests"])
                if problems:
                    failed += 1
                    notes += problems
    return attempted, failed, notes


def pass_seconds(result: dict, field: str = "seconds") -> list[float]:
    return [sum(op[field] for op in iteration) for iteration in result["iterations"]]


def digest_file(workload: str, seed: int) -> Path:
    """Where the output digests of this fleet under these sources are kept."""
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [ROOT / "bench" / "pipeline.py"]:
        sources.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return ROOT / WORK_DIR / "digests" / f"{workload}-{seed}-{sources.hexdigest()[:16]}.json"


def measure(args: argparse.Namespace, work: Path) -> tuple[dict, list[dict]]:
    if args.trace:
        setup, _ = run_child("setup", args, work, True)
        plain, _ = run_child("timed", args, work, False)
        traced, _ = run_child("timed", args, work, True)
        layer = layer_metrics([load_dump(work / "setup_trace.json"),
                               load_dump(work / "timed_trace.json")])
        run_s = statistics.median(pass_seconds(plain))
        layer["proc.cpu_s"] = statistics.median(pass_seconds(plain, "cpu_s"))
        layer["proc.trace_overhead_s"] = pass_seconds(traced)[0] - run_s
        layer["src.lines"] = src_lines(ROOT / "src")
        return {m["name"]: layer[m["name"]] for m in declared("per_layer")}, [setup, plain, traced]
    setups = [run_child("setup", args, work, False) for _ in range(SETUP_REPS)]
    timed, _ = run_child("timed", args, work, False)
    metrics = {
        "setup_s": statistics.median(elapsed for _, elapsed in setups),
        "run_s": statistics.median(pass_seconds(timed)),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    return metrics, [*(result for result, _ in setups), timed]


def declared(kind: str) -> list[dict]:
    """The end_to_end or per_layer metrics that BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # On SIGTERM, unwind so that subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "voyagekit" / "__init__.py").is_file():
        print(f"error: no voyagekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, results = measure(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    known = digest_file(args.workload, args.seed)
    seen = json.loads(known.read_text(encoding="utf-8")) if known.exists() else {}
    attempted, failed, notes = tally(results, seen)
    if failed == 0:
        known.parent.mkdir(exist_ok=True)
        known.write_text(json.dumps(seen, indent=2), encoding="utf-8")
    env = results[-1]["env"]
    samples = results[0]["samples"]
    print(f"workload {args.workload} seed {args.seed}: {WORKLOADS[args.workload].voyages} voyages, "
          f"{samples} samples; one pipeline at a time (closed loop of one)")
    print(f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} blas {env['blas_threads']}")
    for note in notes:
        print(f"FAILED: {note}")
    units = {m["name"]: m["unit"] for m in declared("end_to_end") + declared("per_layer")}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    digests = {f"{op['op']} {name}": digest
               for op in results[-1]["iterations"][0] for name, digest in op["digests"].items()}
    for key, digest in digests.items():
        print(f"sha256 {key} {digest}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "samples": samples,
              "env": env, "failures": notes, "digests": digests, **summary}
    (work / "result.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
