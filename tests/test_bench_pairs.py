"""scripts/bench_pairs.py: paired runs of two checkouts, the gain rule and the regression check, on canned outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2}]


def summary(run_s, rss=100.0, failed=0):
    """The JSON line bench/run.py prints last."""
    return {"correct": failed == 0, "attempted": 7, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def canned_run(values):
    """A stand-in for run_bench: each side's next canned summary, and the call order."""
    calls, queues = [], {side: list(v) for side, v in values.items()}

    def run(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        return queues[checkout.name].pop(0)

    return run, calls


def test_last_json_reads_only_the_last_line():
    output = 'workload demo30 seed 1\nrun_s = 2.5 s\n{"not": "this"}\n' + json.dumps(summary(2.5)) + "\n\n"
    assert bench_pairs.last_json(output) == summary(2.5)
    with pytest.raises(ValueError):
        bench_pairs.last_json("\n")


def test_quartiles_inclusive_and_single_value():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize(
    "parent, change, holds",
    [
        ([2.6, 2.7, 2.5, 2.65, 2.6, 2.62, 2.58, 2.7, 2.55, 2.6], [2.2] * 10, True),
        # Wins 9 of 10, but the gap is inside the parent's spread.
        ([2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 2.0, 3.0], [1.9, 2.9, 1.9, 2.9, 1.9, 2.9, 1.9, 2.9,
                                                              1.9, 3.1], False),
        # A wide gap, but only 8 wins of 10; ties count for neither side.
        ([3.0] * 10, [2.0] * 8 + [3.0, 3.5], False),
    ],
)
def test_verdict_needs_wins_and_a_gap_beyond_the_parent_iqr(parent, change, holds):
    v = bench_pairs.verdict(parent, change, "lower")
    assert v["holds"] is holds
    assert v["pairs"] == 10


def test_verdict_for_higher_is_better():
    v = bench_pairs.verdict([1.0] * 10, [2.0] * 10, "higher")
    assert (v["wins"], v["gap"], v["holds"]) == (10, 1.0, True)


def test_main_alternates_sides_and_prints_each_metric(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}), encoding="utf-8")
    run, calls = canned_run({"parent": [summary(v) for v in (2.0, 2.5, 3.0, 3.5)],
                             "change": [summary(1.5, rss=104.0) for _ in range(4)]})
    code = bench_pairs.main([str(parent), str(change), "--workload", "demo30", "--seeds", "1", "11",
                             "--pairs", "4"], run=run)
    assert code == 0
    assert calls == [("parent", "demo30", 1), ("change", "demo30", 1),
                     ("change", "demo30", 11), ("parent", "demo30", 11),
                     ("parent", "demo30", 1), ("change", "demo30", 1),
                     ("change", "demo30", 11), ("parent", "demo30", 11)]
    out = capsys.readouterr().out.splitlines()
    assert "run_s [s], lower is better" in out
    assert "  pair 1 seed 11: parent 2.5 change 1.5" in out
    assert "  parent: median 2.75 quartiles 2.375 .. 3.125" in out
    assert out[out.index("peak_rss_mb [MB], lower is better") - 1] == (
        "  change won 4/4; median gap 1.25, parent IQR 0.75; gain holds")
    assert "  change won 0/4; median gap -4, parent IQR 0; gain not shown" in out


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        # The change's median is 1.3 s against 1.0 s: worse by more than 25%.
        ([1.0] * 4, [1.3] * 4, "regressed"),
        # The parent's IQR (1.0) exceeds 25% of its median (1.5)...
        ([1.0, 2.0, 1.0, 2.0], [1.4, 1.6, 1.4, 1.6], "unresolved"),
        # ...which winning every pair does not resolve...
        ([1.0, 2.0, 1.0, 2.0], [0.9, 1.9, 0.9, 1.9], "unresolved"),
        # ...but every run of the change below every run of the parent does.
        ([1.0, 2.0, 1.0, 2.0], [0.5] * 4, "no regression"),
        # Worse, but within the bound.
        ([1.0] * 4, [1.2] * 4, "no regression"),
    ],
)
def test_regression_verdict_from_the_bound(tmp_path, capsys, parent, change, expected):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    run, _ = canned_run({"parent": [summary(v) for v in parent], "change": [summary(v) for v in change]})
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
                             "paths60", "--seeds", "1", "--pairs", "4"], run=run) == 0
    out = capsys.readouterr().out.splitlines()
    assert f"  bound 0.25 of the parent median: {expected}" in out
    assert "  bound 0.2 of the parent median: no regression" in out  # peak_rss_mb unchanged


def test_failed_operations_set_the_exit_status(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    run, _ = canned_run({"parent": [summary(2.0)], "change": [summary(1.0, failed=1)]})
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
                             "demo30", "--seeds", "3", "--pairs", "1"], run=run) == 1
    assert "pair 0 seed 3: change failed 1 of 7 operations" in capsys.readouterr().out
