import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import voyagekit
from voyagekit.cli import main
from voyagekit.config import _JSON_TYPES, RunConfig, load_config
from voyagekit.errors import ConfigurationError, InvalidInputError
from voyagekit.geo import CORE_FIELDS
from voyagekit.store import read_store, write_store, write_table


class TestConfig:
    def test_defaults(self):
        config = load_config(env={})
        assert config.feature_case == "IV"
        assert config.seed == 0

    def test_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "knn_k": 3}), encoding="utf-8")
        config = load_config(path, env={})
        assert config.seed == 7 and config.knn_k == 3

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"knn": 3}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="knn"):
            load_config(path, env={})

    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7}), encoding="utf-8")
        config = load_config(path, env={"VOYAGEKIT_SEED": "9"})
        assert config.seed == 9

    def test_cli_overrides_env(self, tmp_path):
        config = load_config(None, env={"VOYAGEKIT_SEED": "9"}, overrides={"seed": 11})
        assert config.seed == 11

    def test_env_typed_values(self):
        config = load_config(
            None,
            env={
                "VOYAGEKIT_TRAIN_FRACTION": "0.8",
                "VOYAGEKIT_HMM_FEATURES": "WindSpeed_onb, WaveHeight",
                "VOYAGEKIT_COMPONENTS_PER_SEGMENT": "4",
            },
        )
        assert config.train_fraction == 0.8
        assert config.hmm_features == ("WindSpeed_onb", "WaveHeight")
        assert config.components_per_segment == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.json", env={})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("train_fraction", 1.5),
            ("feature_case", "Z"),
            ("pathid_method", "dbscan"),
            ("resample_period_s", 0.0),
            ("dendrogram_cutoff", -1.0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            RunConfig(**{field: value}).validate()

    @pytest.mark.parametrize(
        "command,raw",
        [("optimize", {"hmm_features": "WaveHeight"}), ("score", {"train_fraction": "0.8"})],
    )
    def test_json_value_of_wrong_type_exits_2(self, tmp_path, capsys, command, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        [name] = raw
        assert f"cfg.json: {name} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("knn_k", True),  # int field
            ("knn_k", 3.0),
            ("dendrogram_cutoff", "0.1"),  # float field
            ("dendrogram_cutoff", False),
            ("feature_case", 4),  # str field
            ("feature_case", None),
            ("labels", 1),  # str field defaulting to None
            ("hmm_features", ["WaveHeight", 1]),
            ("hmm_features", "WaveHeight"),
            ("components_per_segment", "4"),
            ("components_per_segment", 4.0),
        ],
    )
    def test_json_type_checked(self, tmp_path, field, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match=f"cfg.json: {field} must be"):
            load_config(path, env={})

    def test_json_types_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        raw = {"dendrogram_cutoff": 1, "train_fraction": 0.8, "labels": None,
               "components_per_segment": None, "hmm_features": ["WaveHeight"]}
        path.write_text(json.dumps(raw), encoding="utf-8")
        config = load_config(path, env={})
        assert config.dendrogram_cutoff == 1 and config.hmm_features == ("WaveHeight",)
        path.write_text(json.dumps({"components_per_segment": 4}), encoding="utf-8")
        assert load_config(path, env={}).components_per_segment == 4

    def test_every_field_type_has_json_types(self):
        assert {f.type for f in dataclasses.fields(RunConfig)} <= set(_JSON_TYPES)

    def test_json_not_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_config(path, env={})

    @pytest.mark.parametrize("source", ["file", "env"])
    def test_empty_hmm_features_rejected(self, tmp_path, monkeypatch, capsys, source):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hmm_features": []} if source == "file" else {}), encoding="utf-8")
        if source == "env":
            monkeypatch.setenv("VOYAGEKIT_HMM_FEATURES", "")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "error: hmm_features must name at least one" in capsys.readouterr().err


# The hand-rolled writers write_table replaced: the voyage-store block and
# the gains-table block, which formatted each cell itself.
def store_block_writer(path, header, columns):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(map(repr, values.tolist()) for values in columns)))


def gains_block_writer(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "model", "eff_gain_pct", "improved_count", "status"])
        for cluster, model, gain, improved, status in rows:
            writer.writerow(
                [
                    cluster,
                    model,
                    "" if gain is None else repr(float(gain)),
                    "" if improved is None else improved,
                    status,
                ]
            )


EDGE_FLOATS = [0.1, float("nan"), -0.0, 5e-324, 1e16, -1e-300, float("inf"), np.float64(2.5), 3]


class TestWriteTable:
    def test_float_columns_match_store_block(self, tmp_path):
        columns = [np.array(EDGE_FLOATS, dtype=float), np.arange(len(EDGE_FLOATS), dtype=float)]
        store_block_writer(tmp_path / "a.csv", ["x", "y"], columns)
        write_table(tmp_path / "b.csv", ["x", "y"], columns)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert b"5e-324" in (tmp_path / "b.csv").read_bytes()

    def test_mixed_columns_match_gains_block(self, tmp_path):
        gains = [None, *EDGE_FLOATS]
        improved = [None, *range(len(EDGE_FLOATS))]
        rows = [(f"c{i}", "kNN", g, n, "ok") for i, (g, n) in enumerate(zip(gains, improved))]
        gains_block_writer(tmp_path / "a.csv", rows)
        write_table(
            tmp_path / "b.csv",
            ["cluster", "model", "eff_gain_pct", "improved_count", "status"],
            [
                [r[0] for r in rows],
                [r[1] for r in rows],
                [None if g is None else float(g) for g in gains],
                [np.int64(n) if n is not None else None for n in improved],
                [r[4] for r in rows],
            ],
        )
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert b"c0,kNN,,,ok\r\n" in (tmp_path / "b.csv").read_bytes()

    @given(st.lists(st.floats(width=64), min_size=0, max_size=20))
    def test_floats_round_trip(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("table") / "t.csv"
        write_table(path, ["v"], [np.array(values, dtype=float)])
        with open(path, newline="", encoding="utf-8") as fh:
            cells = [float(row[0]) for row in list(csv.reader(fh))[1:]]
        # repr round-trips every float except a NaN's sign bit.
        assert list(map(repr, cells)) == [repr(float(v)) for v in values]

    def test_columns_of_different_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), ["x", "y"]])

    def test_only_store_writes_csv(self):
        # One module owns the CSV text format; the others call write_table.
        package = Path(voyagekit.__file__).parent
        writers = sorted(p.name for p in package.glob("*.py") if "csv.writer" in p.read_text(encoding="utf-8"))
        assert writers == ["store.py"]


class TestStore:
    def test_round_trip(self, tiny_fleet, tmp_path):
        voyages = tiny_fleet.voyages[:3]
        write_store(voyages, tmp_path / "store", extra_meta={"note": 1})
        loaded = read_store(tmp_path / "store")
        assert [v.voyage_id for v in loaded] == [v.voyage_id for v in voyages]
        for a, b in zip(voyages, loaded):
            for name in CORE_FIELDS:
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert sorted(a.channels) == sorted(b.channels)
            for name, values in a.channels.items():
                assert np.array_equal(values, b.channels[name]), name

    def test_missing_store(self, tmp_path):
        with pytest.raises(InvalidInputError):
            read_store(tmp_path / "absent")

    @pytest.fixture
    def store(self, tiny_fleet, tmp_path):
        write_store(tiny_fleet.voyages[:2], tmp_path / "store")
        return tmp_path / "store"

    def corrupt(self, store, edit):
        path = store / "voyages" / "V0002.csv"
        lines = edit(path.read_text(encoding="utf-8").splitlines())
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def test_empty_voyage_file(self, store):
        self.corrupt(store, lambda lines: [])
        with pytest.raises(InvalidInputError, match=r"V0002\.csv: file is empty"):
            read_store(store)

    def test_short_row(self, store):
        self.corrupt(store, lambda lines: [*lines[:3], lines[3].rsplit(",", 1)[0], *lines[4:]])
        with pytest.raises(InvalidInputError, match=r"V0002\.csv: data row 3 has"):
            read_store(store)

    def test_non_numeric_cell(self, store):
        self.corrupt(store, lambda lines: [*lines[:5], "x" + lines[5], *lines[6:]])
        with pytest.raises(InvalidInputError, match=r"V0002\.csv: data row 5: .*'x"):
            read_store(store)

    def test_manifest_without_voyages(self, store):
        (store / "manifest.json").write_text(json.dumps({"note": 1}), encoding="utf-8")
        with pytest.raises(InvalidInputError, match="manifest"):
            read_store(store)

    @pytest.mark.parametrize(
        "edit",
        [lambda lines: [], lambda lines: [*lines[:2], "?" + lines[2], *lines[3:]]],
        ids=["empty", "non-numeric"],
    )
    def test_cli_reports_malformed_store(self, store, edit, capsys):
        self.corrupt(store, edit)
        assert main(["score", "--out", str(store.parent)]) == 1
        assert "error:" in capsys.readouterr().err
