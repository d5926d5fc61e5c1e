"""Workloads, their CLI stages, and the output checks run on every stage call.

Run as a child process of bench/run.py, in one of two modes:

    python3 bench/pipeline.py setup WORKLOAD WORKDIR TRACE SEED
    python3 bench/pipeline.py timed WORKLOAD WORKDIR TRACE SECONDS

`setup` builds the inputs under WORKDIR/out: the demo fleet generated with
fleet seed SEED at the workload's voyage count, and for paths60 the voyage
store. `timed` repeats the workload's timed stages on those inputs until
SECONDS have passed (at least once; exactly once when TRACE is 1). Each mode
writes WORKDIR/<mode>.json, for setup and timed with one record per stage
call ("operation"); TRACE=1 also writes WORKDIR/<mode>_trace.json.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Files ROADMAP item 1 asks to fingerprint; a stage records those it wrote.
DIGEST_FILES = ("summaries.csv", "gains.csv", "state_gains.csv", "labeling.csv", "metrics.csv")
HAVERSINE_CONFIG = "haversine.json"
BRANCHES = 3  # the demo fleet's direct, north and south branches
# The pipeline's own --seed (train/test split, EM and k-means starts) is
# fixed, as in the README's demo, so every benchmark seed splits the fleet
# the same way; the benchmark seed is the fleet seed. A fleet's sample count
# moves with its simulated weather; bench/interactions.json records how much.
PROGRAM_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    voyages: int
    setup: tuple[tuple[str, ...], ...]  # CLI argv run after `synth` in set-up
    stages: tuple[tuple[str, ...], ...]  # CLI argv timed as run_s


# Why each workload exists is recorded in BENCHMARK.json; its input sizes,
# and what each layer metric should move on it, in bench/interactions.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo30", 30, (),
                 (("ingest",), ("score",), ("optimize", "--plots"),
                  ("pathid", "--method", "hierarchical"), ("report",))),
        # Hierarchical runs with euclidean only: haversine distances are in
        # metres, so at the default cutoff (0.07) every path stays its own
        # cluster and label alignment fails.
        Workload("paths60", 60, (("ingest",),),
                 (("pathid", "--method", "hierarchical"),
                  ("pathid", "--method", "segment-gmm"),
                  ("pathid", "--method", "kmeans", "--config", HAVERSINE_CONFIG))),
    )
}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# Output checks: properties every correct implementation has on a synthetic
# fleet, without pinning values that a legitimate fix may change. Each
# returns a list of problems; empty means the stage call passed.

def check_synth(out: Path, workload: Workload, argv) -> list[str]:
    manifest = _load_json(out / "fleet" / "manifest.json")
    problems = []
    if manifest["voyage_count"] != workload.voyages:
        problems.append(f"synth wrote {manifest['voyage_count']} voyages, expected {workload.voyages}")
    if manifest["sample_count"] <= 0:
        problems.append("synth wrote no samples")
    return problems


def check_ingest(out: Path, workload: Workload, argv) -> list[str]:
    fleet = _load_json(out / "fleet" / "manifest.json")
    stored = _load_json(out / "store" / "manifest.json")
    problems = []
    if len(stored["voyages"]) != fleet["voyage_count"]:
        problems.append(f"store holds {len(stored['voyages'])} voyages, synth wrote {fleet['voyage_count']}")
    for key in ("dropped_samples", "dropped_voyages", "dropped_singletons", "skipped_rows"):
        if stored.get(key, 0) != 0:
            problems.append(f"ingest reports {key}={stored[key]}")
    if sum(v["n_samples"] for v in stored["voyages"]) <= 0:
        problems.append("store holds no samples")
    return problems


def check_score(out: Path, workload: Workload, argv) -> list[str]:
    stored = {v["voyage_id"] for v in _load_json(out / "store" / "manifest.json")["voyages"]}
    rows = _rows(out / "summaries.csv")
    problems = []
    if {r["voyage_id"] for r in rows} != stored or len(rows) != len(stored):
        problems.append("summaries.csv does not list each stored voyage once")
    if not all(0.0 <= float(r["eff_score"]) <= 1.0 for r in rows):
        problems.append("an efficiency score lies outside [0, 1]")
    return problems


def check_optimize(out: Path, workload: Workload, argv) -> list[str]:
    rows = _rows(out / "gains.csv")
    problems = []
    if len(rows) != 12:
        problems.append(f"gains.csv has {len(rows)} rows, expected 4 clusters x 3 models")
    for r in rows:
        if r["status"] not in ("ok", "insufficient"):
            problems.append(f"{r['cluster']}/{r['model']}: status {r['status']!r}")
        elif r["status"] == "ok" and not (r["eff_gain_pct"] and math.isfinite(float(r["eff_gain_pct"]))):
            problems.append(f"{r['cluster']}/{r['model']}: ok gain {r['eff_gain_pct']!r} is not finite")
    if not _rows(out / "state_gains.csv"):
        problems.append("state_gains.csv is empty")
    return problems


def check_pathid(out: Path, workload: Workload, argv) -> list[str]:
    rows = _rows(out / "metrics.csv")
    problems = []
    if len(rows) != BRANCHES:
        problems.append(f"metrics.csv has {len(rows)} classes, expected {BRANCHES}")
    for r in rows:
        if float(r["f1"]) != 1.0:
            problems.append(f"{' '.join(argv)}: class {r['class']} F1 {r['f1']}")
    if not _rows(out / "labeling.csv"):
        problems.append("labeling.csv is empty")
    return problems


def check_report(out: Path, workload: Workload, argv) -> list[str]:
    report = _load_json(out / "report.json")
    if not isinstance(report, dict) or "efficiency" not in report:
        return ["report.json lacks the efficiency section"]
    return []


CHECKS = {
    "synth": check_synth,
    "ingest": check_ingest,
    "score": check_score,
    "optimize": check_optimize,
    "pathid": check_pathid,
    "report": check_report,
}


def _mtimes(out: Path) -> dict[str, int]:
    return {name: (out / name).stat().st_mtime_ns for name in DIGEST_FILES if (out / name).exists()}


def digests(out: Path, before: dict[str, int]) -> dict[str, str]:
    """SHA-256 of each fingerprinted output (re)written since `before` was taken."""
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name, mtime in _mtimes(out).items()
        if before.get(name) != mtime
    }


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_stage(argv: tuple[str, ...], workload: Workload, work: Path) -> dict:
    """One operation: a CLI call, timed, then checked outside the timing."""
    from voyagekit.cli import main as cli_main

    out = work / "out"
    args = [work / a if a == HAVERSINE_CONFIG else a for a in argv]
    args = [str(a) for a in args] + ["--out", str(out), "--seed", str(PROGRAM_SEED)]
    if argv[0] == "synth":
        args += ["--spec", str(work / "fleet_spec.json")]
    label = " ".join(argv[:1] + argv[2:3]) if argv[0] == "pathid" else argv[0]
    record = {"op": label, "seconds": 0.0, "cpu_s": 0.0, "problems": [], "digests": {}}
    before = _mtimes(out)
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        code = cli_main(args)
    except Exception:  # the operation failed; keep running the others
        record["seconds"] = time.perf_counter() - t0
        record["problems"].append(traceback.format_exc(limit=3))
        return record
    record["seconds"] = time.perf_counter() - t0
    record["cpu_s"] = _cpu_s() - cpu0
    if code != 0:
        record["problems"].append(f"exit code {code}")
        return record
    try:
        record["problems"] += CHECKS[argv[0]](out, workload, argv)
    except (OSError, KeyError, ValueError) as exc:
        record["problems"].append(f"output check could not read outputs: {exc!r}")
    record["digests"] = digests(out, before)
    return record


def setup(workload: Workload, work: Path, seed: int) -> list[dict]:
    from voyagekit import synth

    spec = synth.default_fleet_spec(seed=seed)
    spec.voyages_per_branch = workload.voyages // BRANCHES
    (work / "fleet_spec.json").write_text(json.dumps(dataclasses.asdict(spec)), encoding="utf-8")
    (work / HAVERSINE_CONFIG).write_text(json.dumps({"pathid_metric": "haversine"}), encoding="utf-8")
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = [run_stage(argv, workload, work) for argv in (("synth",), *workload.setup)]
    # Remember the set-up state so each timed iteration starts from it.
    (work / "setup_entries.json").write_text(json.dumps(sorted(p.name for p in out.iterdir())))
    log = out / "run_log.jsonl"
    (work / "setup_run_log.jsonl").write_bytes(log.read_bytes() if log.exists() else b"")
    return ops


def reset(work: Path) -> None:
    """Delete everything the timed stages wrote; restore the set-up run log."""
    out = work / "out"
    keep = set(json.loads((work / "setup_entries.json").read_text()))
    for path in out.iterdir():
        if path.name in keep:
            continue
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    (out / "run_log.jsonl").write_bytes((work / "setup_run_log.jsonl").read_bytes())


def timed(workload: Workload, work: Path, seconds: float, once: bool) -> list[list[dict]]:
    iterations = []
    start = time.perf_counter()
    while True:
        reset(work)
        iterations.append([run_stage(argv, workload, work) for argv in workload.stages])
        if once or time.perf_counter() - start >= seconds:
            return iterations


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    mode, workload = argv[0], WORKLOADS[argv[1]]
    import voyagekit

    if Path(voyagekit.__file__).resolve().parent != ROOT / "src" / "voyagekit":
        print(f"voyagekit imported from {voyagekit.__file__}, not this checkout", file=sys.stderr)
        return 2
    work, trace = Path(argv[2]), argv[3] == "1"
    tracer = None
    if trace:
        from tracer import Tracer, instrument

        import voyagekit.cli  # noqa: F401  (loads every module to instrument)

        tracer = Tracer()
        instrument(tracer)
    if mode == "setup":
        result = {"iterations": [setup(workload, work, int(argv[4]))]}
        manifest = work / "out" / "fleet" / "manifest.json"
        result["samples"] = _load_json(manifest)["sample_count"] if manifest.exists() else 0
    else:
        result = {"iterations": timed(workload, work, float(argv[4]), once=trace)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    if tracer is not None:
        tracer.dump(work / f"{mode}_trace.json")
    (work / f"{mode}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
