import csv
import json
import shutil

import pytest

from conftest import tiny_fleet_spec
from voyagekit.cli import main, split_train_test
from voyagekit.synth import generate_fleet, write_fleet


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
        profiles = list((pipeline_dir / "profiles").glob("*.csv"))
        assert profiles
        rows = read_rows(profiles[0])
        assert set(rows[0]) == {"step", "sog_meas", "sog_pred"}
        assert list((pipeline_dir / "plots").glob("profile_*.svg"))

    def test_pathid_outputs(self, pipeline_dir):
        matrix_rows = (pipeline_dir / "distance_matrix.csv").read_text().splitlines()
        assert len(matrix_rows) == 13  # header + 12
        metrics = read_rows(pipeline_dir / "metrics.csv")
        assert {r["class"] for r in metrics} == {"mid", "north", "south"}
        for r in metrics:
            assert float(r["f1"]) == 1.0

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

    def test_report_missing_gains(self, tmp_path, capsys):
        out = tmp_path / "run"
        write_fleet(generate_fleet(tiny_fleet_spec(seed=14)), out / "fleet")
        assert main(["ingest", "--out", str(out)]) == 0
        assert main(["score", "--out", str(out)]) == 0
        code = main(["report", "--out", str(out)])
        assert code == 1
        assert "gains.csv" in capsys.readouterr().err

    def test_ingest_missing_onboard(self, tmp_path, capsys):
        assert main(["ingest", "--out", str(tmp_path)]) == 2
        assert "onboard" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["score", "--config", str(cfg), "--out", str(tmp_path)]) == 2
