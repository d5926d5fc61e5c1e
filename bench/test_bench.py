"""Self-checks for the benchmark: python3 -m pytest bench -q (about a minute).

They run a 12-voyage fleet through every stage the workloads use, so each
wrapper in tracer.py is exercised without the cost of a real workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pipeline import ROOT, WORKLOADS
from run import child_env, tally
from tracer import COUNTS, SPAN_CALLS, SPAN_TOTALS, layer_metrics, self_times

SMALL_RUN = """
import sys
from pathlib import Path
import pipeline
work, trace = Path(sys.argv[1]), sys.argv[2] == "1"
stages = tuple(dict.fromkeys(a for w in pipeline.WORKLOADS.values() for a in w.setup + w.stages))
small = pipeline.Workload("small", 12, (), stages)
if trace:
    import voyagekit.cli
    from tracer import Tracer, instrument
    tracer = Tracer()
    instrument(tracer)
pipeline.setup(small, work, 5)
pipeline.timed(small, work, 0.0, once=True)
if trace:
    tracer.dump(work / "trace.json")
"""


def _small_run(work: Path, trace: bool) -> Path:
    work.mkdir()
    subprocess.run(
        [sys.executable, "-c", SMALL_RUN, str(work), "1" if trace else "0"],
        cwd=ROOT / "bench", env={**child_env(), "PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'bench'}"},
        check=True, capture_output=True, timeout=600,
    )
    return work


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("small")
    return {
        "plain": _small_run(base / "plain", trace=False),
        "traced_a": _small_run(base / "traced_a", trace=True),
        "traced_b": _small_run(base / "traced_b", trace=True),
    }


def _files(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_wrappers_leave_outputs_byte_identical(runs):
    plain = _files(runs["plain"] / "out")
    assert "gains.csv" in plain and "metrics.csv" in plain
    for name in ("traced_a", "traced_b"):
        assert _files(runs[name] / "out") == plain


def test_counts_repeat_exactly(runs):
    dumps = [json.loads((runs[n] / "trace.json").read_text()) for n in ("traced_a", "traced_b")]
    a, b = (layer_metrics([d]) for d in dumps)
    exact = [*SPAN_CALLS, *COUNTS, "efficiency.knn_block_bytes", "speed_opt.dtw_useful_ratio",
             "hmm.fit_useful_ratio"]
    assert {k: a[k] for k in exact} == {k: b[k] for k in exact}
    for key in ("efficiency.knn_queries", "speed_opt.dtw_calls", "hmm.fit_calls",
                "path_id.annd_pairs", "geo.point_in_polygon_calls", "store.reads"):
        assert a[key] > 0, key
    assert [s[0] for s in dumps[0]["spans"]] == [s[0] for s in dumps[1]["spans"]]
    for metric, span in SPAN_TOTALS.items():
        assert any(s[0] == span for s in dumps[0]["spans"]), metric


def test_self_time_and_knn_split():
    spans = [
        ["speed_opt.benchmark", 0.0, 10.0, -1],
        ["efficiency.price", 1.0, 4.0, 0],
        ["efficiency.knn", 1.5, 3.5, 1],
        ["speed_opt.knn", 5.0, 9.0, 0],
        ["efficiency.knn", 6.0, 7.0, 3],
    ]
    assert self_times(spans) == [3.0, 1.0, 2.0, 3.0, 1.0]
    spans += [["speed_opt.dtw", 9.0, 9.1, 0]] * 4
    metrics = layer_metrics([{"spans": spans, "counts": {}, "maxima": {},
                              "distinct": {"speed_opt.dtw_pairs": 3}}])
    assert metrics["efficiency.knn_s"] == 3.0
    assert metrics["efficiency.knn_price_s"] == 2.0
    assert metrics["efficiency.knn_speed_s"] == 1.0
    assert metrics["speed_opt.benchmark_s"] == 10.0
    assert metrics["speed_opt.dtw_useful_ratio"] == 0.75


def test_tally_fails_digests_that_differ_from_an_earlier_run():
    op = {"op": "score", "problems": [], "digests": {"summaries.csv": "a"}}
    seen: dict = {}
    assert tally([{"iterations": [[op], [op]]}], seen)[:2] == (2, 0)
    changed = {**op, "digests": {"summaries.csv": "b"}}
    attempted, failed, notes = tally([{"iterations": [[changed]]}], seen)
    assert (attempted, failed) == (1, 1) and "digests differ" in notes[0]


def test_interaction_map_covers_declared_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = json.loads((ROOT / "bench" / "interactions.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS) == list(declared["workloads"])
    assert [m["name"] for m in bench["per_layer"]] == list(declared["per_layer"])
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for spec in declared["per_layer"].values():
        for metric, workloads in spec["moves"].items():
            assert metric in end_to_end
            assert set(workloads) <= set(WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "demo30", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
