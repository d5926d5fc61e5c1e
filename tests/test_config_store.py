import json

import numpy as np
import pytest

from voyagekit.cli import main
from voyagekit.config import RunConfig, load_config
from voyagekit.errors import ConfigurationError, InvalidInputError
from voyagekit.geo import CORE_FIELDS
from voyagekit.store import read_store, write_store


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
