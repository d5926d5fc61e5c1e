"""scripts/compare_outputs.py: the cell-by-cell parity check between two --out trees."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

TREE = {
    "gains.csv": "cluster,model,eff_gain_pct,status\nTop10,kNN,1.25,ok\nTop25,HMM,nan,insufficient\n",
    "report.json": '{"voyages": 30, "gain": 0.5, "name": "demo"}\n',
    "run_log.jsonl": '{"stage": "score", "seconds": 2.0}\n',
    "plots/profile.svg": "<svg/>\n",
}


def write_tree(root, **changes):
    """TREE under root, with files replaced (text) or left out (None)."""
    for rel, text in {**TREE, **changes}.items():
        if text is not None:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    return root


def run(monkeypatch, tmp_path, *options, a=None, **changes):
    """Exit status comparing TREE (with `a`'s changes) against TREE with `changes`."""
    tree_a = write_tree(tmp_path / "a", **(a or {}))
    tree_b = write_tree(tmp_path / "b", **changes)
    monkeypatch.setattr(sys, "argv", ["compare_outputs.py", str(tree_a), str(tree_b), *options])
    return compare_outputs.main()


def test_identical_trees(monkeypatch, tmp_path):
    assert run(monkeypatch, tmp_path) == 0


@pytest.mark.parametrize(
    "cell, options, status",
    [
        ("1.2500000000001", (), 0),
        ("1.2500001", (), 1),
        ("1.2500001", ("--tol", "1e-6"), 0),
        ("1.26", ("--tol", "1e-6"), 1),
    ],
)
def test_numeric_csv_cell_against_tol(monkeypatch, tmp_path, cell, options, status):
    gains = TREE["gains.csv"].replace("1.25", cell)
    assert run(monkeypatch, tmp_path, *options, **{"gains.csv": gains}) == status


@pytest.mark.parametrize("gain, status", [("0.5000000000001", 0), ("0.51", 1)])
def test_numeric_json_value_against_tol(monkeypatch, tmp_path, gain, status):
    report = TREE["report.json"].replace("0.5", gain)
    assert run(monkeypatch, tmp_path, **{"report.json": report}) == status


@pytest.mark.parametrize("cell, status", [("NaN", 0), ("0.0", 1)])
def test_nan_equals_only_nan(monkeypatch, tmp_path, cell, status):
    gains = TREE["gains.csv"].replace("nan", cell)
    assert run(monkeypatch, tmp_path, **{"gains.csv": gains}) == status


def test_changed_text_cell(monkeypatch, tmp_path, capsys):
    gains = TREE["gains.csv"].replace("insufficient", "ok")
    assert run(monkeypatch, tmp_path, **{"gains.csv": gains}) == 1
    assert "FAIL gains.csv" in capsys.readouterr().out


@pytest.mark.parametrize("lat, names, status", [
    (0.5000000000001, ("Timestamp", "Latitude"), 0),
    (0.51, ("Timestamp", "Latitude"), 1),
    (0.5, ("Timestamp", "Longitude"), 1),
])
def test_store_table_cells_against_tol(monkeypatch, tmp_path, lat, names, status):
    # Table cells compare within tol; column names live in the manifest, so a renamed column differs there.
    for side, rows, columns in (("a", (60.0, 0.5), ("Timestamp", "Latitude")), ("b", (60.0, lat), names)):
        store = tmp_path / side / "store"
        (store / "voyages").mkdir(parents=True)
        np.save(store / "voyages" / "V0001.npy", np.array(rows)[:, None], allow_pickle=False)
        manifest = {"voyages": [{"voyage_id": "V0001", "n_samples": 1, "columns": columns}]}
        (store / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert run(monkeypatch, tmp_path) == status


def test_changed_other_file_bytes(monkeypatch, tmp_path):
    assert run(monkeypatch, tmp_path, **{"plots/profile.svg": "<svg></svg>\n"}) == 1


@pytest.mark.parametrize("a_cell, b_cell, status", [
    ("inf", "Infinity", 0), ("inf", "1.25", 1), ("1.25", "inf", 1), ("inf", "-inf", 1),
])
def test_infinite_cells(monkeypatch, tmp_path, a_cell, b_cell, status):
    def gains(cell):
        return {"gains.csv": TREE["gains.csv"].replace("1.25", cell)}

    assert run(monkeypatch, tmp_path, a=gains(a_cell), **gains(b_cell)) == status


@pytest.mark.parametrize("side", ["a", "b"])
def test_file_missing_from_one_tree(monkeypatch, tmp_path, capsys, side):
    missing = {"plots/profile.svg": None}
    changes = {"a": missing} if side == "a" else missing
    assert run(monkeypatch, tmp_path, **changes) == 1
    assert "only in" in capsys.readouterr().out
