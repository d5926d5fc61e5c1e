"""scripts/record_bench.py: BENCH_<pr>.json from benchmark runs, on canned outputs."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))  # record_bench imports bench_pairs as a sibling script
_spec = importlib.util.spec_from_file_location("record_bench", SCRIPTS / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

ENV = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2, "blas_threads": {}}


def canned(workload, trace, failed=0):
    """The JSON line bench/run.py prints last, and the result.json it leaves."""
    metrics = ({"cli.pathid_s": {"value": 0.2, "unit": "s"}, "src.lines": {"value": 3590, "unit": "lines"}}
               if trace else {"run_s": {"value": 2.5 if workload == "demo30" else 1.8, "unit": "s"},
                              "setup_s": {"value": 0.4, "unit": "s"}})
    summary = {"correct": failed == 0, "attempted": 9, "failed": failed, "metrics": metrics}
    result = {"workload": workload, "seed": 1, "trace": trace, "samples": 6000, "env": ENV,
              "failures": [], "digests": {"pathid hierarchical labeling.csv": f"{workload}-{trace}"},
              **summary}
    return summary, result


def test_writes_every_run_with_head_and_environment(tmp_path, monkeypatch, capsys):
    calls = []

    def run(checkout, workload, trace):
        calls.append((workload, trace))
        return canned(workload, trace)

    monkeypatch.setattr(record_bench, "git_head", lambda checkout: ("abc123", False))
    out = tmp_path / "BENCH_42.json"
    assert record_bench.main(["--pr", "42", "--out", str(out)], run=run) == 0
    assert calls == [("demo30", 0), ("paths60", 0), ("demo30", 1)]
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert (doc["pr"], doc["head"], doc["tracked_files_changed"]) == (42, "abc123", False)
    assert doc["src.lines"] == 3590
    assert doc["environment"]["numpy"] == "2.4.6" and doc["environment"]["platform"]
    assert doc["seconds"] == record_bench.bench_pairs.SECONDS
    assert [(r["workload"], r["trace"], r["seed"]) for r in doc["runs"]] == [
        ("demo30", 0, 1), ("paths60", 0, 1), ("demo30", 1, 1)]
    assert doc["runs"][1]["metrics"]["run_s"] == {"value": 1.8, "unit": "s"}
    assert doc["runs"][2]["digests"] == {"pathid hierarchical labeling.csv": "demo30-1"}
    assert capsys.readouterr().out == f"wrote {out}\n"


def test_failed_operations_write_nothing(tmp_path, monkeypatch, capsys):
    def run(checkout, workload, trace):
        return canned(workload, trace, failed=int(workload == "paths60"))

    monkeypatch.setattr(record_bench, "git_head", lambda checkout: ("abc123", True))
    out = tmp_path / "BENCH_42.json"
    assert record_bench.main(["--pr", "42", "--out", str(out)], run=run) == 1
    assert not out.exists()
    assert "paths60 trace 0: failed 1 of 9 operations" in capsys.readouterr().err


def test_a_run_that_exits_non_zero_writes_nothing(tmp_path, capsys):
    def run(checkout, workload, trace):
        raise RuntimeError("bench/run.py exited with 1: boom")

    out = tmp_path / "BENCH_42.json"
    assert record_bench.main(["--pr", "42", "--out", str(out)], run=run) == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: bench/run.py exited with 1: boom\n"


def test_last_json_is_read_from_the_run_output(tmp_path, monkeypatch):
    work = tmp_path / ".bench_work" / "demo30"
    work.mkdir(parents=True)
    summary, result = canned("demo30", 1)
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")

    class Done:
        returncode, stderr = 0, ""
        stdout = "workload demo30 seed 1\nrun_s = 2.5 s\n" + json.dumps(summary) + "\n"

    seen = []
    monkeypatch.setattr(record_bench.bench_pairs.subprocess, "run",
                        lambda cmd, **kw: seen.append(cmd) or Done)
    assert record_bench.run_bench(tmp_path, "demo30", 1) == (summary, result)
    assert seen[0][1:] == ["bench/run.py", "--workload", "demo30", "--seed", "1", "--seconds", "20",
                           "--trace", "1"]
