import csv
import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voyagekit
from conftest import tiny_fleet_spec
from voyagekit import path_id, speed_opt, store
from voyagekit.cli import main, split_train_test
from voyagekit.synth import default_regimes, generate_fleet, write_fleet


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One fully-run pipeline over the tiny fleet, shared by read-only tests."""
    out = tmp_path_factory.mktemp("pipeline")
    write_fleet(generate_fleet(tiny_fleet_spec(seed=11)), out / "fleet")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps({"dendrogram_cutoff": 0.02, "kmeans_k": 3}), encoding="utf-8")
    base = ["--config", str(cfg), "--out", str(out), "--seed", "11"]
    for step in (["ingest"], ["score"], ["optimize", "--plots"], ["pathid"], ["report"]):
        assert main([*step, *base]) == 0, step
    return out


def with_cell(text, row, column, value):
    """CSV text with one data row's cell in ``column`` replaced."""
    lines = text.splitlines(keepends=True)
    cells = lines[row].rstrip("\r\n").split(",")
    cells[lines[0].rstrip("\r\n").split(",").index(column)] = value
    lines[row] = ",".join(cells) + lines[row][len(lines[row].rstrip("\r\n")):]
    return "".join(lines)


def file_bytes(path):
    """{relative name: bytes} of every file under a directory, or of the one file."""
    files = sorted(path.rglob("*")) if path.is_dir() else [path]
    return {str(f.relative_to(path)): f.read_bytes() for f in files if f.is_file()}


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSplitTrainTest:
    def test_deterministic_and_disjoint(self):
        ids = [f"V{i:04d}" for i in range(20)]
        a = split_train_test(ids, 0.7, seed=5)
        b = split_train_test(ids, 0.7, seed=5)
        assert a == b
        train, test = a
        assert len(train) == 14 and len(test) == 6
        assert not set(train) & set(test)
        assert sorted(train + test) == ids

    def test_seed_changes_split(self):
        ids = [f"V{i:04d}" for i in range(20)]
        assert split_train_test(ids, 0.7, 1) != split_train_test(ids, 0.7, 2)


class TestSynthCommand:
    def test_default_spec(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--seed", "3"]) == 0
        manifest = json.loads((tmp_path / "fleet" / "manifest.json").read_text())
        assert manifest["voyage_count"] == 30
        assert manifest["seed"] == 3

    def test_custom_spec_file(self, tmp_path):
        spec = {
            "branches": [
                {"name": "a", "centerline": [[0.0, 0.0], [0.0, 0.1]]},
                {"name": "b", "centerline": [[0.05, 0.0], [0.05, 0.1]]},
            ],
            "voyages_per_branch": 2,
            "noise_std_deg": 0.005,
            "seed": 4,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "fleet" / "manifest.json").read_text())
        assert manifest["voyage_count"] == 4

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, source):
        args = ["synth", "--out", str(tmp_path)]
        if source == "flag":
            args += ["--seed", "-1"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"seed": -1}), encoding="utf-8")
            args += ["--config", str(tmp_path / "cfg.json")]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("seed", [-2, 1.5, True])
    def test_spec_seed_not_a_non_negative_int_exits_2(self, tmp_path, capsys, seed):
        spec = {
            "branches": [
                {"name": "a", "centerline": [[0.0, 0.0], [0.0, 0.1]]},
                {"name": "b", "centerline": [[0.05, 0.0], [0.05, 0.1]]},
            ],
            "seed": seed,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        rule = ">= 0" if seed == -2 else "an integer"
        assert capsys.readouterr().err == f"error: seed must be {rule}, got {seed!r}\n"

    @pytest.mark.parametrize("text", [None, "{bad"], ids=["missing", "not-json"])
    def test_unreadable_spec_file_exits_2(self, tmp_path, capsys, text):
        spec_path = tmp_path / "spec.json"
        if text is not None:
            spec_path.write_text(text, encoding="utf-8")
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec_path}: cannot read fleet spec (")
        assert "Traceback" not in err

    @pytest.mark.parametrize("count", [2.5, True, "3", 0])
    def test_spec_voyages_per_branch_not_a_positive_int_exits_2(self, tmp_path, capsys, count):
        spec = {
            "branches": [
                {"name": "a", "centerline": [[0.0, 0.0], [0.0, 0.1]]},
                {"name": "b", "centerline": [[0.05, 0.0], [0.05, 0.1]]},
            ],
            "voyages_per_branch": count,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        rule = ">= 1" if count == 0 else "an integer"
        assert capsys.readouterr().err == f"error: voyages_per_branch must be {rule}, got {count!r}\n"

    @pytest.mark.parametrize("field, value, message", [
        ("sog_noise", -1, "sog_noise must be >= 0, got -1"),
        ("grid_step_deg", 0, "grid_step_deg must be > 0, got 0"),
        ("sample_period_s", float("nan"), "sample_period_s must be finite, got nan"),
        ("grid_margin_deg", float("nan"), "grid_margin_deg must be finite, got nan"),
        ("skill_range", [0.9, float("inf")], "skill_range must be finite, got (0.9, inf)"),
        ("dwell_hours", 0, "regime 'calm': dwell_hours must be > 0, got 0"),
        ("base_sog", 0, "regime 'calm': base_sog must be > 0, got 0"),
        ("wind_std", -0.5, "regime 'calm': wind_std must be >= 0, got -0.5"),
        ("wave_std", -0.1, "regime 'calm': wave_std must be >= 0, got -0.1"),
        ("wave_mean", float("-inf"), "regime 'calm': wave_mean must be finite, got -inf"),
        ("fuel_a", True, "fuel_a must be a number, got True"),
        ("sog_noise", False, "sog_noise must be a number, got False"),
        ("start_time", "x", "start_time must be a number, got 'x'"),
        ("skill_range", [0.9, True], "skill_range must be a number, got (0.9, True)"),
        ("base_sog", True, "regime 'calm': base_sog must be a number, got True"),
        ("skill_range", [0.9], "skill_range must be two numbers, got (0.9,)"),
        ("skill_range", [0.9, 1.0, 1.1], "skill_range must be two numbers, got (0.9, 1.0, 1.1)"),
        *(pytest.param(field, 10**400, f"{field} must be finite, got {10**400!r}", id=f"{field}-10**400")
          for field in ("start_time", "fuel_a", "noise_std_deg")),
        # Adding a 60 s sample period to 1e18 rounds away; adding an hour to 1e300 too.
        *(pytest.param("start_time", value, "start_time must leave the hourly grid and sample times strictly "
                       f"increasing, got {value!r}", id=f"start_time-{name}")
          for value, name in ((1e18, "1e18"), (1e300, "1e300"))),
    ])
    def test_spec_bad_value_exits_2(self, tmp_path, capsys, field, value, message):
        spec = {
            "branches": [
                {"name": "a", "centerline": [[0.0, 0.0], [0.0, 0.1]]},
                {"name": "b", "centerline": [[0.05, 0.0], [0.05, 0.1]]},
            ],
            "voyages_per_branch": 1,
            "regimes": [dataclasses.asdict(r) for r in default_regimes()],
        }
        if field in spec["regimes"][0]:  # every regime gets the value: the first one is named
            for regime in spec["regimes"]:
                regime[field] = value
        else:
            spec[field] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("source, float_field", [("config", "gap_threshold_s"), ("spec", "gap_s")])
    @pytest.mark.parametrize("field, value, rule", [
        ("seed", -1, ">= 0"), (None, float("nan"), "finite"), (None, 10**400, "finite"),
    ], ids=["seed", "nan", "int-too-large"])
    def test_config_and_spec_values_get_one_message(self, tmp_path, capsys, source, float_field, field, value, rule):
        field = field or float_field
        if source == "config":
            path, text = tmp_path / "cfg.json", json.dumps({field: value})
        else:
            path, text = tmp_path / "spec.json", json.dumps({
                "branches": [
                    {"name": "a", "centerline": [[0.0, 0.0], [0.0, 0.1]]},
                    {"name": "b", "centerline": [[0.05, 0.0], [0.05, 0.1]]},
                ],
                field: value,
            })
        path.write_text(text, encoding="utf-8")
        assert main(["synth", f"--{source}", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {field} must be {rule}, got {value!r}\n"

    def test_spec_lattice_past_a_pole_exits_2(self, tmp_path, capsys):
        spec = {
            "branches": [
                {"name": "a", "centerline": [[0.0, 0.0], [0.0, 0.1]]},
                {"name": "b", "centerline": [[0.05, 0.0], [0.05, 0.1]]},
            ],
            "noise_std_deg": 20.0,
            "grid_step_deg": 10.0,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: centerline latitudes padded by grid_margin_deg + 5 * noise_std_deg (100.5) span -100.5 to "
            "100.55, outside [-90, 90]\n")

    @pytest.mark.parametrize("branch, message", [
        ({"centerline": [[0.0, 0.0], [float("nan"), 0.1]]}, "branch 'b': centerline point (nan, 0.1)"),
        ({"centerline": [[0.0, 0.0], [0.0, float("inf")]]}, "branch 'b': centerline point (0.0, inf)"),
        ({"centerline": [[0.0, 0.0], [0.05, 0.1, 0.0]]}, "branch 'b': centerline point (0.05, 0.1, 0.0)"),
        ({"centerline": [[0.0, 0.0], [0.05]]}, "branch 'b': centerline point (0.05,)"),
        ({"centerline": [[0.0, 0.0], [True, 0.1]]}, "branch 'b': centerline point (True, 0.1)"),
        ({"centerline": [[0.0, 0.0], ["0.05", 0.1]]}, "branch 'b': centerline point ('0.05', 0.1)"),
        ({"name": 5}, "branch names must be distinct non-empty strings, got 5"),
        ({"name": ""}, "branch names must be distinct non-empty strings, got ''"),
        ({"name": "a"}, "branch names must be distinct non-empty strings, got 'a'"),
        ({"centerline": [[0.0, 0.0], [0.05, 10**400]]}, f"branch 'b': centerline point (0.05, {10**400!r})"),
    ], ids=["nan", "inf", "three-coordinates", "one-coordinate", "bool", "string", "int-name", "empty-name",
            "same-name", "int-too-large"])
    def test_spec_bad_branch_exits_2(self, tmp_path, capsys, branch, message):
        spec = {
            "branches": [
                {"name": "a", "centerline": [[0.0, 0.0], [0.0, 0.1]]},
                {"name": "b", "centerline": [[0.05, 0.0], [0.05, 0.1]], **branch},
            ],
            "voyages_per_branch": 1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestPipelineOutputs:
    def test_store_written(self, pipeline_dir):
        manifest = json.loads((pipeline_dir / "store" / "manifest.json").read_text())
        assert len(manifest["voyages"]) == 12

    def test_summaries_columns(self, pipeline_dir):
        rows = read_rows(pipeline_dir / "summaries.csv")
        assert len(rows) == 12
        assert set(rows[0]) == {
            "voyage_id", "fuel_total", "time_total", "fuel_norm", "time_norm",
            "eff_score", "top75", "top50", "top25", "top10",
        }
        assert sum(int(r["top10"]) for r in rows) == 2  # ceil(0.1 * 12)

    def test_gains_table_shape(self, pipeline_dir):
        rows = read_rows(pipeline_dir / "gains.csv")
        assert [(r["cluster"], r["model"]) for r in rows] == [
            (c, m)
            for c in ("Top10Pr", "Top25Pr", "Top50Pr", "Top75Pr")
            for m in ("kNN", "1NN-DTW", "HMM")
        ]
        for r in rows:
            assert r["status"] in ("ok", "insufficient")
            if r["status"] == "insufficient":
                assert r["eff_gain_pct"] == ""

    def test_state_gains_shape(self, pipeline_dir):
        rows = read_rows(pipeline_dir / "state_gains.csv")
        assert {(r["model"], r["weather_state"]) for r in rows} == {
            (m, s)
            for m in ("kNN", "1NN-DTW", "HMM")
            for s in ("Calm", "Moderate", "Rough")
        }

    def test_profiles_and_plots(self, pipeline_dir):
        rows = read_rows(pipeline_dir / "profiles.csv")
        assert rows
        assert list(rows[0]) == ["cluster", "model", "voyage_id", "step", "sog_meas", "sog_pred"]
        assert not (pipeline_dir / "profiles").exists()
        assert list((pipeline_dir / "plots").glob("profile_*.svg"))

    def test_pathid_outputs(self, pipeline_dir):
        matrix_rows = (pipeline_dir / "distance_matrix.csv").read_text().splitlines()
        assert len(matrix_rows) == 13  # header + 12
        metrics = read_rows(pipeline_dir / "metrics.csv")
        assert {r["class"] for r in metrics} == {"mid", "north", "south"}
        for r in metrics:
            assert float(r["f1"]) == 1.0

    @pytest.mark.parametrize("method", ["hierarchical", "kmeans", "gmm"])
    def test_pathid_haversine(self, pipeline_dir, tmp_path, method):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        cfg = tmp_path / "haversine.json"
        cfg.write_text(json.dumps({"pathid_metric": "haversine", "dendrogram_cutoff": 0.02, "kmeans_k": 3}),
                       encoding="utf-8")
        assert main(["pathid", "--method", method, "--config", str(cfg), "--out", str(out), "--seed", "11"]) == 0
        assert [float(r["f1"]) for r in read_rows(out / "metrics.csv")] == [1.0, 1.0, 1.0]
        paths = [path_id.Path.from_voyage(v) for v in store.read_store(out / "store")]
        expected = path_id.build_distance_matrix(paths, "haversine")
        rows = read_rows(out / "distance_matrix.csv")
        assert tuple(r.pop("voyage_id") for r in rows) == expected.voyage_ids
        values = np.array([[float(x) for x in r.values()] for r in rows])
        assert np.array_equal(values, expected.values)
        assert values.max() > 1000.0  # metres: the branches are kilometres apart

    def test_report_json_and_svg(self, pipeline_dir):
        report = json.loads((pipeline_dir / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["efficiency"]["voyage_count"] == 12
        assert (pipeline_dir / "eff_vs_fuel.svg").exists()
        assert (pipeline_dir / "sorted_gains.svg").exists()

    def test_report_validates_against_schema(self, pipeline_dir):
        jsonschema = pytest.importorskip("jsonschema")
        from voyagekit.report import REPORT_SCHEMA

        report = json.loads((pipeline_dir / "report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_report_json_is_strict_when_no_steps_pooled(self, pipeline_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        rows = read_rows(out / "state_gains.csv")
        with open(out / "state_gains.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "weather_state", "avg", "std"])
            writer.writerows([r["model"], r["weather_state"], "nan", "nan"] for r in rows)
        assert main(["report", "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        state_rows = report["optimization"]["state_rows"]
        assert len(state_rows) == len(rows)
        assert all(r["avg"] is None and r["std"] is None for r in state_rows)

    def test_sorted_gain_series_non_increasing(self, pipeline_dir):
        rows = read_rows(pipeline_dir / "voyage_gains.csv")
        first_cluster = rows[0]["cluster"]
        by_model: dict[str, list[float]] = {}
        for r in rows:
            if r["cluster"] == first_cluster:
                by_model.setdefault(r["model"], []).append(float(r["gain_pct"]))
        for gains in by_model.values():
            ordered = sorted(gains, reverse=True)
            assert ordered == sorted(ordered, reverse=True)

    def test_run_log_is_json_lines(self, pipeline_dir):
        lines = (pipeline_dir / "run_log.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert {"command", "event", "detail"} <= set(record)

    def test_run_log_scores_every_cell(self, pipeline_dir):
        records = read_log(pipeline_dir)
        scored = [r["detail"] for r in records if r["event"] == "cell_scored"]
        gains = read_rows(pipeline_dir / "gains.csv")
        assert [(d["cluster"], d["model"], d["status"]) for d in scored] == [
            (g["cluster"], g["model"], g["status"]) for g in gains
        ]
        voyage_rows = read_rows(pipeline_dir / "voyage_gains.csv")
        for d in scored:
            cell = (d["cluster"], d["model"])
            assert d["evaluated"] == sum(1 for r in voyage_rows if (r["cluster"], r["model"]) == cell)
            assert d["excluded"] == 0

    def test_one_hmm_fit_per_run(self, tmp_path):
        # 36 voyages: Top10Pr alone has fewer observations than a weather fit needs, but
        # the run fits once, on every training voyage, so every HMM cell is scored.
        write_fleet(generate_fleet(tiny_fleet_spec(seed=11, voyages_per_branch=12)), tmp_path / "fleet")
        for step in ("ingest", "optimize"):
            assert main([step, "--out", str(tmp_path), "--seed", "11"]) == 0
        records = read_log(tmp_path)
        fits = [r["detail"] for r in records if r["event"] == "hmm_fit"]
        assert not [r for r in records if r["event"] == "state_gains_unpooled"]
        assert len(fits) == 1
        (fit,) = fits
        assert set(fit) == {"voyages", "observations", "em_iterations", "converged", "loglik"}
        assert fit["observations"] >= 300 and fit["voyages"] >= 1
        assert fit["converged"] is True and 1 <= fit["em_iterations"] <= 200
        assert isinstance(fit["loglik"], float)
        hmm = [r["status"] for r in read_rows(tmp_path / "gains.csv") if r["model"] == "HMM"]
        assert hmm == ["ok"] * 4
        # Deterministic: a second run logs the same event.
        assert main(["optimize", "--out", str(tmp_path), "--seed", "11"]) == 0
        assert [r["detail"] for r in read_log(tmp_path) if r["event"] == "hmm_fit"] == fits * 2

    def test_failed_state_fit_is_logged(self, pipeline_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir / "store", out / "store")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hmm_features": ["NoSuchChannel"]}), encoding="utf-8")
        assert main(["optimize", "--config", str(cfg), "--out", str(out), "--seed", "11"]) == 0
        unpooled = [r["detail"] for r in read_log(out) if r["event"] == "state_gains_unpooled"]
        assert len(unpooled) == 1 and set(unpooled[0]) == {"reason"}
        assert "NoSuchChannel" in unpooled[0]["reason"]
        assert not [r for r in read_log(out) if r["event"] == "hmm_fit"]
        state_rows = read_rows(out / "state_gains.csv")
        assert all(r["avg"] == "nan" for r in state_rows)
        hmm = [r["status"] for r in read_rows(out / "gains.csv") if r["model"] == "HMM"]
        assert hmm == ["insufficient"] * 4


class TestProfilesTable:
    def test_rebuilds_every_per_voyage_table(self, tmp_path, monkeypatch):
        # The seed-7 demo: one table of (step, sog_meas, sog_pred) per (cluster, model, test
        # voyage), as separate files held them, in the cells' order and then voyage id order.
        reports, write = [], speed_opt.write_gain_report

        def kept(report, *args):
            reports.append(report)
            write(report, *args)

        monkeypatch.setattr(speed_opt, "write_gain_report", kept)
        for step in ("synth", "ingest", "optimize"):
            assert main([step, "--out", str(tmp_path), "--seed", "7"]) == 0
        (report,) = reports
        sog = {v.voyage_id: v.sog.tolist() for v in store.read_store(tmp_path / "store")}
        tables: dict[tuple[str, str, str], list] = {}
        for r in read_rows(tmp_path / "profiles.csv"):
            tables.setdefault((r["cluster"], r["model"], r["voyage_id"]), []).append(
                (int(r["step"]), float(r["sog_meas"]), float(r["sog_pred"]))
            )
        want = {
            (row.cluster, row.model, vid): list(
                zip(itertools.count(), sog[vid], np.asarray(row.profiles[vid], dtype=float).tolist())
            )
            for row in report.rows
            for vid in sorted(row.profiles)
        }
        assert list(tables) == list(want)
        assert tables == want
        ok_cells = sum(row.status == "ok" for row in report.rows)
        assert len(tables) == ok_cells * report.test_size == 108


def read_log(out):
    return [json.loads(line) for line in (out / "run_log.jsonl").read_text().splitlines()]


class TestPathidRunLog:
    def run_pathid(self, pipeline_dir, out, *args):
        shutil.copytree(pipeline_dir / "store", out / "store")
        shutil.copytree(pipeline_dir / "fleet", out / "fleet")
        assert main(["pathid", *map(str, args), "--out", str(out), "--seed", "11"]) == 0
        return [r["detail"] for r in read_log(out) if r["event"] in ("segment_fit", "gmm_fit")]

    def test_segment_fit_per_segment(self, pipeline_dir, tmp_path):
        fits = self.run_pathid(pipeline_dir, tmp_path / "a", "--method", "segment-gmm")
        spec = json.loads((pipeline_dir / "fleet" / "segments.json").read_text())
        assert [d["segment"] for d in fits] == [seg["name"] for seg in spec]
        for d in fits:
            assert set(d) == {"segment", "points", "components", "label_points"}
            assert d["points"] >= 10 and d["components"] == len(d["label_points"]) >= 1
            assert sum(d["label_points"].values()) == d["points"]
            assert set(d["label_points"]) <= {"mid", "north", "south"}
        # Deterministic: a second run logs the same events.
        assert self.run_pathid(pipeline_dir, tmp_path / "b", "--method", "segment-gmm") == fits

    def test_gmm_fit_logged(self, pipeline_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kmeans_k": 3}), encoding="utf-8")
        fits = self.run_pathid(pipeline_dir, tmp_path / "a", "--method", "gmm", "--config", cfg)
        assert len(fits) == 1
        assert fits[0]["points"] == 12 and fits[0]["components"] == 3
        assert isinstance(fits[0]["converged"], bool) and fits[0]["em_iterations"] >= 1


class TestIngestEdgeCases:
    ONBOARD_HEADER = (
        "Timestamp,Latitude,Longitude,SpeedOverGround,HeadingMagnetic,EngineFuelRate"
    )

    def write_inputs(self, root, onboard_rows, weather_t_max=10_000.0):
        (root / "fleet" / "onboard").mkdir(parents=True)
        (root / "fleet" / "weather").mkdir(parents=True)
        (root / "fleet" / "onboard" / "log.csv").write_text(
            "\n".join([self.ONBOARD_HEADER, *onboard_rows]) + "\n", encoding="utf-8"
        )
        lines = ["time,lat,lon,value"]
        for t in (0.0, weather_t_max):
            for lat in (-1.0, 1.0):
                for lon in (-1.0, 1.0):
                    lines.append(f"{t},{lat},{lon},2.5")
        (root / "fleet" / "weather" / "WaveHeight.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )

    def test_partial_weather_coverage_drops_samples(self, tmp_path):
        rows = [f"{i * 60},0.0,0.0,5.0,90.0,50.0" for i in range(10)]
        self.write_inputs(tmp_path, rows, weather_t_max=300.0)
        assert main(["ingest", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["dropped_samples"] == 4  # t = 360..540 beyond the grid
        assert manifest["voyages"][0]["n_samples"] == 6
        log = (tmp_path / "run_log.jsonl").read_text()
        assert "samples_dropped" in log

    def test_samples_dropped_by_reason(self, tmp_path):
        # A 3x3 lattice over two times with the (t=0, lat=1, lon=1) cell absent:
        # the sample at (0.5, 0.5) needs it, the one at t = 540 s is past the grid.
        rows = [f"{i * 60},-0.5,-0.5,5.0,90.0,50.0" for i in range(8)]
        rows += ["480,0.5,0.5,5.0,90.0,50.0", "540,-0.5,-0.5,5.0,90.0,50.0"]
        self.write_inputs(tmp_path, rows)
        lines = ["time,lat,lon,value"] + [
            f"{t},{lat},{lon},2.5" for t in (0.0, 500.0) for lat in (-1.0, 0.0, 1.0)
            for lon in (-1.0, 0.0, 1.0) if (t, lat, lon) != (0.0, 1.0, 1.0)]
        (tmp_path / "fleet" / "weather" / "WaveHeight.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8")
        assert main(["ingest", "--out", str(tmp_path)]) == 0
        events = [json.loads(line) for line in (tmp_path / "run_log.jsonl").read_text().splitlines()]
        dropped = [e for e in events if e["event"] == "samples_dropped"]
        assert len(dropped) == 1
        detail = dropped[0]["detail"]
        assert (detail["count"], detail["out_of_domain"], detail["missing_corner"]) == (2, 1, 1)

    def test_port_dwell_rule_via_config(self, tmp_path):
        rows = [f"{i * 30},0.5,0.0,5.0,90.0,50.0" for i in range(5)]
        rows += [f"{150 + i * 30},0.0,0.0,0.1,90.0,50.0" for i in range(6)]
        rows += [f"{330 + i * 30},-0.5,0.0,5.0,90.0,50.0" for i in range(5)]
        self.write_inputs(tmp_path, rows)
        port = [{"name": "port", "polygon": [[-0.05, -0.05], [-0.05, 0.05], [0.05, 0.05], [0.05, -0.05]]}]
        (tmp_path / "port.json").write_text(json.dumps(port), encoding="utf-8")
        cfg = {
            "port_regions": str(tmp_path / "port.json"),
            "resample_period_s": 30.0,
            "gap_threshold_s": 3600.0,
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["ingest", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert len(manifest["voyages"]) == 2

    def test_voyages_dropped_by_resampling_and_weather(self, tmp_path):
        # V0001 fits the grid; V0002's two samples share one 60 s bin; V0003 lies north of the grid.
        rows = [f"{i * 60},0.5,0.5,5.0,90.0,50.0" for i in range(10)]
        rows += ["10000,0.5,0.5,5.0,90.0,50.0", "10010,0.5,0.5,5.0,90.0,50.0"]
        rows += [f"{20000 + i * 60},5.0,0.5,5.0,90.0,50.0" for i in range(5)]
        self.write_inputs(tmp_path, rows)
        (tmp_path / "fleet" / "weather" / "WaveHeight.csv").unlink()
        lines = ["time,lat,lon,value"] + [
            f"{t},{lat},{lon},2.5" for t in (0.0, 30000.0) for lat in (0.0, 1.0) for lon in (0.0, 1.0)]
        (tmp_path / "fleet" / "weather" / "WindSpeed_cps.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8")
        assert main(["ingest", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert len(manifest["voyages"]) == 1
        assert manifest["dropped_voyages"] == 2
        events = [json.loads(line) for line in (tmp_path / "run_log.jsonl").read_text().splitlines()]
        assert [e["detail"] for e in events if e["event"] == "voyage_dropped"] == [
            {"voyage_id": "V0002", "reason": "resampling left < 2 samples"},
            {"voyage_id": "V0003", "reason": "weather alignment left < 2 samples"},
        ]

    @pytest.mark.parametrize("period, status", [(1e-300, 2), (1e-14, 0)])
    def test_resample_period_too_small_for_voyage(self, tmp_path, capsys, period, status):
        # 240 s / 1e-300 s is far past int64's bin indices; 240 s / 1e-14 s fits.
        self.write_inputs(tmp_path, [f"{i * 60},0.0,0.0,5.0,90.0,50.0" for i in range(5)])
        (tmp_path / "cfg.json").write_text(json.dumps({"resample_period_s": period}), encoding="utf-8")
        assert main(["ingest", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == status
        err = capsys.readouterr().err
        if status:
            assert err == "error: resample_period_s 1e-300 must be > 0 and give voyage 'V0001' < 2**63 bins\n"

    def test_antimeridian_crossing_exits_1(self, tmp_path, capsys):
        lons = [179.8, -179.8, -179.6, -179.4, -179.2, -179.0]
        self.write_inputs(tmp_path, [f"{i * 30},0.0,{lon},5.0,90.0,50.0" for i, lon in enumerate(lons)])
        assert main(["ingest", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: voyage 'V0001' crosses ±180° longitude: samples 0 and 1 have longitudes 179.8 and -179.8\n")
        assert not (tmp_path / "store").exists()

    def test_channel_with_missing_sample_is_logged(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path), "--seed", "7"]) == 0
        onboard = tmp_path / "fleet" / "onboard" / "fleet.csv"
        lines = onboard.read_text(encoding="utf-8").splitlines()
        column = lines[0].split(",").index("WindSpeed_onb")
        cells = lines[1000].split(",")
        cells[column] = "n/a"
        lines[1000] = ",".join(cells)
        onboard.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["ingest", "--out", str(tmp_path)]) == 0
        events = [json.loads(line) for line in (tmp_path / "run_log.jsonl").read_text().splitlines()]
        dropped = [e["detail"] for e in events if e["event"] == "channel_dropped"]
        assert dropped == [{"voyage_id": "V0006", "channel": "WindSpeed_onb", "missing": 1}]
        # The store leaves the channel out, so optimize leaves that one voyage out and logs it.
        assert main(["score", "--out", str(tmp_path)]) == 0
        assert main(["optimize", "--out", str(tmp_path), "--seed", "7"]) == 0
        events = [json.loads(line) for line in (tmp_path / "run_log.jsonl").read_text().splitlines()]
        excluded = [e["detail"] for e in events if e["event"] == "voyage_excluded"]
        assert excluded == [{"voyage_id": "V0006", "missing": ["WindSpeed_onb"]}]
        assert len(read_rows(tmp_path / "gains.csv")) == 12


class TestErrorPaths:
    def test_score_without_store(self, tmp_path, capsys):
        assert main(["score", "--out", str(tmp_path)]) == 1
        assert "store" in capsys.readouterr().err

    def test_unknown_pathid_method(self, pipeline_dir, capsys):
        code = main(["pathid", "--method", "dbscan", "--out", str(pipeline_dir)])
        assert code == 2
        err = capsys.readouterr().err
        for name in ("kmeans", "gmm", "hierarchical", "segment-gmm"):
            assert name in err

    def test_missing_segment_spec(self, tmp_path, capsys):
        # A store exists but no fleet/segments.json anywhere.
        out = tmp_path / "run"
        write_fleet(generate_fleet(tiny_fleet_spec(seed=12)), out / "fleet")
        assert main(["ingest", "--out", str(out)]) == 0
        (out / "fleet" / "segments.json").unlink()
        code = main(["pathid", "--method", "segment-gmm", "--out", str(out)])
        assert code == 2
        assert "segments.json" in capsys.readouterr().err

    def test_segment_gmm_labelling_nothing_exits_1(self, pipeline_dir, tmp_path, capsys):
        # One polygon around the north branch's arc: one label, so no segment
        # discriminates and no test voyage can be labelled.
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir / "store", out / "store")
        shutil.copytree(pipeline_dir / "fleet", out / "fleet")
        north = [[0.08, 0.05], [0.08, 0.15], [0.2, 0.15], [0.2, 0.05]]
        (out / "fleet" / "segments.json").write_text(
            json.dumps([{"name": "north_arc", "polygon": north}]), encoding="utf-8"
        )
        assert main(["pathid", "--method", "segment-gmm", "--out", str(out), "--seed", "11"]) == 1
        assert "none of the 4 test voyages" in capsys.readouterr().err
        assert not (out / "labeling.csv").exists()
        records = read_log(out)
        [fit] = [r["detail"] for r in records if r["event"] == "segment_fit"]
        assert fit["segment"] == "north_arc" and list(fit["label_points"]) == ["north"]
        assert len([r for r in records if r["event"] == "unclassifiable"]) == 4

    @pytest.mark.parametrize("method", ["kmeans", "gmm", "hierarchical"])
    def test_pathid_without_labels_removes_stale_metrics(self, pipeline_dir, tmp_path, method):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        assert (out / "metrics.csv").exists() and (out / "confusion_matrix.csv").exists()
        (out / "fleet" / "labels.csv").unlink()
        base = ["--config", str(out / "cfg.json"), "--out", str(out), "--seed", "11"]
        assert main(["pathid", "--method", method, *base]) == 0
        assert not (out / "metrics.csv").exists() and not (out / "confusion_matrix.csv").exists()
        assert len(read_rows(out / "labeling.csv")) == 12
        [skipped] = [r["detail"] for r in read_log(out) if r["event"] == "metrics_skipped"]
        assert skipped == {"reason": "no labels file"}
        assert main(["report", *base]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["path_identification"]["metrics"] is None

    def test_truth_missing_voyage(self, tmp_path, capsys):
        out = tmp_path / "run"
        write_fleet(generate_fleet(tiny_fleet_spec(seed=13)), out / "fleet")
        assert main(["ingest", "--out", str(out)]) == 0
        labels_path = out / "fleet" / "labels.csv"
        lines = labels_path.read_text().splitlines()
        labels_path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        dropped_id = lines[-1].split(",")[0]
        code = main(["pathid", "--out", str(out)])
        assert code == 1
        assert dropped_id in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method,edit,message",
        [
            ("hierarchical", {"V0003": "V0003"}, "data row 3: voyage 'V0003' has no label"),
            ("segment-gmm", {"V0003": "V0003"}, "data row 3: voyage 'V0003' has no label"),
            ("hierarchical", {"V0003": "V0003,"}, "data row 3: voyage 'V0003' has no label"),
            (
                "hierarchical",
                {"V0012": "V0012,north\nV0012,south"},
                "data row 13: voyage 'V0012' labelled 'south', but 'north' before",
            ),
        ],
        ids=["no-label-cell", "no-label-cell-segment-gmm", "empty-label", "conflicting-duplicate"],
    )
    def test_malformed_labels(self, pipeline_dir, tmp_path, capsys, method, edit, message):
        lines = (pipeline_dir / "fleet" / "labels.csv").read_text(encoding="utf-8").splitlines()
        lines = [edit.get(line.split(",")[0], line) for line in lines]
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"labels": str(labels)}), encoding="utf-8")
        code = main(["pathid", "--method", method, "--config", str(cfg), "--out", str(pipeline_dir)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {labels}: {message}\n"

    @pytest.mark.parametrize("command", ["score", "optimize"])
    @pytest.mark.parametrize("column, field", [("EngineFuelRate", "fuel"), ("HeadingMagnetic", "heading")])
    def test_nan_store_cell_names_voyage_and_sample(
        self, pipeline_dir, tmp_path, capsys, command, column, field
    ):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir / "store", out / "store")
        voyage = out / "store" / "voyages" / "V0002.npy"
        [entry] = [e for e in json.loads((out / "store" / "manifest.json").read_text())["voyages"]
                   if e["voyage_id"] == "V0002"]
        table = np.load(voyage, allow_pickle=False)
        table[entry["columns"].index(column), 3] = np.nan
        np.save(voyage, table, allow_pickle=False)
        assert main([command, "--out", str(out), "--seed", "11"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: voyage 'V0002' sample 3: invalid sample (")
        assert f"{field}=nan" in err

    @pytest.mark.parametrize("command", ["score", "pathid"])
    def test_voyage_listed_twice_in_manifest(self, pipeline_dir, tmp_path, capsys, command):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir / "store", out / "store")
        manifest_path = out / "store" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["voyages"].append(manifest["voyages"][0])
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main([command, "--out", str(out), "--seed", "11"]) == 1
        assert capsys.readouterr().err == (
            f"error: {manifest_path}: voyage V0001 is listed more than once\n")

    def test_report_missing_gains(self, tmp_path, capsys):
        out = tmp_path / "run"
        write_fleet(generate_fleet(tiny_fleet_spec(seed=14)), out / "fleet")
        assert main(["ingest", "--out", str(out)]) == 0
        assert main(["score", "--out", str(out)]) == 0
        code = main(["report", "--out", str(out)])
        assert code == 1
        assert "gains.csv" in capsys.readouterr().err

    def test_report_missing_voyage_gains_writes_nothing(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        (out / "voyage_gains.csv").unlink()
        before = file_bytes(out)
        assert main(["report", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: missing report inputs in {out}: voyage_gains.csv\n"
        assert file_bytes(out) == before

    def test_ingest_missing_onboard(self, tmp_path, capsys):
        assert main(["ingest", "--out", str(tmp_path)]) == 2
        assert "onboard" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["score", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("case", ["config-not-utf8", "config-is-directory", "config-nested-too-deep",
                                      "port-regions-not-json", "segment-spec-not-json"])
    def test_unreadable_json_input_exits_2(self, pipeline_dir, tmp_path, capsys, case):
        out, bad = tmp_path / "run", tmp_path / "bad.json"
        shutil.copytree(pipeline_dir / "store", out / "store")
        shutil.copytree(pipeline_dir / "fleet", out / "fleet")
        bad.write_text("{bad", encoding="utf-8")
        cfg, command, what = tmp_path / "cfg.json", "ingest", "config file"
        if case == "config-not-utf8":
            cfg.write_bytes(b"\xff\xfe{}")
        elif case == "config-is-directory":
            cfg.mkdir()
        elif case == "config-nested-too-deep":
            cfg.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        elif case == "port-regions-not-json":
            cfg.write_text(json.dumps({"port_regions": str(bad)}), encoding="utf-8")
            what = "segment spec"
        else:
            cfg.write_text(json.dumps({"segment_spec": str(bad), "pathid_method": "segment-gmm"}),
                           encoding="utf-8")
            command, what = "pathid", "segment spec"
        assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "11"]) == 2
        err = capsys.readouterr().err
        failed = bad if case.endswith("not-json") else cfg
        assert err.startswith(f"error: {failed}: cannot read {what} (") and err.count("\n") == 1

    @pytest.mark.parametrize("command, name", [("ingest", "onboard/fleet.csv"), ("pathid", "labels.csv"),
                                               ("report", "summaries.csv")])
    def test_csv_input_not_utf8_exits_1(self, pipeline_dir, tmp_path, capsys, command, name):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        # In the last row: in the onboard file, np.loadtxt is the first to read it.
        path = out / name if command == "report" else out / "fleet" / name
        path.write_bytes(path.read_bytes()[:-1] + b"\xe9\n")
        assert main([command, "--out", str(out), "--seed", "11"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text (") and err.count("\n") == 1

    @pytest.mark.parametrize("name, edit, message", [
        ("summaries.csv", lambda text: text.replace("eff_score", "score"), "missing column 'eff_score'"),
        ("summaries.csv", lambda text: text.splitlines(keepends=True)[0], "no data rows"),
        ("summaries.csv", lambda text: text.replace(text.splitlines()[1], "V0001,x,1,1,1,1,0,0,0,0"),
         "data row 1: could not convert string to float: 'x'"),
        ("labeling.csv", lambda text: text.replace(text.splitlines()[3], "V0003,"),
         "data row 3: voyage 'V0003' has no label"),
        ("summaries.csv", lambda text: with_cell(text, 1, "eff_score", "nan"), "data row 1: 'nan' is not a finite number"),
        ("voyage_gains.csv", lambda text: with_cell(text, 2, "gain_pct", "inf"),
         "data row 2: 'inf' is not a finite number"),
    ], ids=["no-eff-score-column", "header-only-summaries", "unparseable-cell", "blank-label", "nan-cell",
            "infinite-voyage-gain"])
    def test_malformed_report_input_exits_1(self, pipeline_dir, tmp_path, capsys, name, edit, message):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        (out / "report.json").write_text("earlier\n", encoding="utf-8")
        path = out / name
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8", newline="")
        assert main(["report", "--out", str(out), "--seed", "11"]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert (out / "report.json").read_text(encoding="utf-8") == "earlier\n"

    @pytest.mark.parametrize("command, name, output", [
        ("ingest", "onboard/fleet.csv", "store"),
        ("ingest", "weather/WaveHeight.csv", "store"),
        ("pathid", "labels.csv", "labeling.csv"),
    ])
    def test_byte_order_mark_ignored(self, pipeline_dir, tmp_path, command, name, output):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir / "fleet", out / "fleet")
        if command == "pathid":
            shutil.copytree(pipeline_dir / "store", out / "store")
        path = out / "fleet" / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main([command, "--config", str(pipeline_dir / "cfg.json"), "--out", str(out), "--seed", "11"]) == 0
        assert file_bytes(out / output) == file_bytes(pipeline_dir / output)

    @pytest.mark.parametrize("command, name", [("pathid", "fleet/labels.csv"), ("score", "store/manifest.json"),
                                               ("ingest", "fleet/onboard/zz.csv")])
    def test_directory_for_input_file_exits_1(self, pipeline_dir, tmp_path, capsys, command, name):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir / "store", out / "store")
        shutil.copytree(pipeline_dir / "fleet", out / "fleet")
        path = out / name
        path.unlink(missing_ok=True)
        path.mkdir()
        assert main([command, "--out", str(out), "--seed", "11"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Is a directory" in err and err.count("\n") == 1

    def test_failed_alignment_leaves_no_stale_metrics(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        assert main(["pathid", "--method", "kmeans", "--config", str(out / "cfg.json"), "--out", str(out),
                     "--seed", "11"]) == 0
        assert (out / "metrics.csv").exists() and (out / "confusion_matrix.csv").exists()
        cfg = tmp_path / "cutoff0.json"
        cfg.write_text(json.dumps({"dendrogram_cutoff": 0}), encoding="utf-8")
        assert main(["pathid", "--method", "hierarchical", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: 12 predicted labels exceed 3 truth labels\n"
        assert len(read_rows(out / "labeling.csv")) == 12
        assert not (out / "metrics.csv").exists() and not (out / "confusion_matrix.csv").exists()


@pytest.mark.parametrize("inside", [False, True], ids=["file", "under-file"])
def test_out_not_a_directory_exits_2(tmp_path, capsys, inside):
    target = tmp_path / "F"
    target.write_text("x", encoding="utf-8")
    out = target / "sub" if inside else target
    assert main(["score", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: out_dir {out}: cannot create directory (") and err.count("\n") == 1
    assert "Traceback" not in err and sorted(tmp_path.iterdir()) == [target]
    assert target.read_text(encoding="utf-8") == "x"


IMPORT_GUARD = """
import sys
import voyagekit
assert not [name for name in sys.modules if name.startswith("voyagekit.")], "the package loads its submodules"
import voyagekit.cli

spec, out = sys.argv[1:]
base = ["--out", out, "--seed", "11"]
for argv in (["synth", "--spec", spec], ["ingest"], ["score"], ["report"]):
    assert voyagekit.cli.main([*argv, *base]) == 0, argv
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded[:3]
assert voyagekit.cli.main(["pathid", "--method", "kmeans", *base]) == 0
assert "scipy.spatial" in sys.modules
"""


def test_scipy_loads_only_for_the_commands_that_use_it(pipeline_dir, tmp_path):
    # A fresh interpreter, as the test process has imported SciPy long ago.
    # report also reads optimize's and pathid's outputs: they come from pipeline_dir.
    shutil.copytree(pipeline_dir, tmp_path / "out")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dataclasses.asdict(tiny_fleet_spec(seed=11))), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(voyagekit.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(spec), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
