import ast
import csv
import dataclasses
import io
import json
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import voyagekit
from voyagekit.cli import main
from voyagekit.config import _FIELD_TYPES, RunConfig, load_config
from voyagekit.errors import ConfigurationError, InvalidInputError
from voyagekit.geo import CORE_FIELDS, Voyage
from voyagekit.store import (
    CORE_COLUMNS, ONBOARD_CHANNELS, WEATHER_VARIABLES, WRITE_BLOCK_ROWS, read_store, write_store,
    write_table,
)

FLOAT_FIELDS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]


class TestConfig:
    def test_defaults(self):
        config = load_config()
        assert config.feature_case == "IV"
        assert config.seed == 0

    def test_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "knn_k": 3}), encoding="utf-8")
        config = load_config(path)
        assert config.seed == 7 and config.knn_k == 3

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"knn": 3}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="knn"):
            load_config(path)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "out_dir": "a", "pathid_method": "gmm"}), encoding="utf-8")
        config = load_config(path, overrides={"seed": 11, "out_dir": None, "pathid_method": "kmeans"})
        assert (config.seed, config.out_dir, config.pathid_method) == (11, "a", "kmeans")

    def test_environment_is_not_read(self, tmp_path, monkeypatch):
        # Settings come from the file and the flags only: variables that
        # look like settings change nothing, and a run writes the same table.
        summaries = {}
        for name in ("plain", "env"):
            if name == "env":
                monkeypatch.setenv("VOYAGEKIT_SEED", "-1")
                monkeypatch.setenv("VOYAGEKIT_KNNK", "3")
                assert load_config() == RunConfig()
            out = tmp_path / name
            for command in ("synth", "ingest", "score"):
                assert main([command, "--out", str(out)]) == 0, command
            summaries[name] = (out / "summaries.csv").read_bytes()
        assert summaries["env"] == summaries["plain"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("train_fraction", 1.5),
            ("feature_case", "Z"),
            ("pathid_method", "dbscan"),
            ("resample_period_s", 0.0),
            ("dendrogram_cutoff", -1.0),
            ("seed", -1),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            RunConfig(**{field: value}).validate()

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, tmp_path, field, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: float(raw)}), encoding="utf-8")  # NaN, Infinity
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
            load_config(path)

    @pytest.mark.parametrize(
        "field,value,message",
        [("port_dwell_s", -1.0, ">= 0"), ("port_max_sog", 0.0, "> 0"), ("port_max_sog", -0.5, "> 0")],
    )
    def test_port_dwell_rule_range(self, tmp_path, field, value, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match=f"^{field} must be {message}"):
            load_config(path)
        path.write_text(json.dumps({"port_dwell_s": 0}), encoding="utf-8")
        assert load_config(path).port_dwell_s == 0.0

    def test_non_finite_file_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"resample_period_s": NaN}', encoding="utf-8")
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: resample_period_s must be finite, got nan\n"

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
        ],
    )
    def test_json_type_checked(self, tmp_path, field, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match=f"cfg.json: {field} must be"):
            load_config(path)

    def test_json_types_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        raw = {"dendrogram_cutoff": 1, "train_fraction": 0.8, "labels": None,
               "hmm_features": ["WaveHeight"]}
        path.write_text(json.dumps(raw), encoding="utf-8")
        config = load_config(path)
        assert config.dendrogram_cutoff == 1 and config.hmm_features == ("WaveHeight",)

    def test_every_field_type_has_json_types(self):
        assert {f.type for f in dataclasses.fields(RunConfig)} <= set(_FIELD_TYPES)

    def test_json_not_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_config(path)

    def test_empty_hmm_features_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hmm_features": []}), encoding="utf-8")
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


def csv_writer_table(path, header, columns):
    """Reference: write_table as csv.writer wrote it, cell by cell."""
    cells = [
        map(repr, col.tolist()) if isinstance(col, np.ndarray) and col.dtype.kind == "f" else col
        for col in columns
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))


edge_floats = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, -2.2e-308, 1e16]),
    st.floats(width=64),
)
text_cells = st.one_of(
    st.text(st.sampled_from(["a", "7", " ", ",", '"', "\r", "\n"]), max_size=4),
    st.sampled_from([",\r\n", "a,\r\nb", "\r\n,,"]),
)
other_cells = st.one_of(
    text_cells, st.none(), st.integers(-10**20, 10**20), st.booleans(), edge_floats,
    edge_floats.map(np.float64),
)


@st.composite
def tables(draw, min_rows=0, max_rows=6):
    rows = draw(st.integers(min_rows, max_rows))
    columns = [
        np.array(draw(st.lists(edge_floats, min_size=rows, max_size=rows)), dtype=float)
        if draw(st.booleans())
        else draw(st.lists(other_cells, min_size=rows, max_size=rows))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return draw(st.lists(text_cells, min_size=len(columns), max_size=len(columns))), columns


@st.composite
def balanced_tables(draw):
    """Tables with one cell holding k line breaks and k * (width - 1) commas.

    The text then has as many commas, CRs and LFs as a table with k more
    rows, so only a row count taken from the columns sees the quoting need.
    """
    header, columns = draw(tables(min_rows=1))
    width, breaks = len(columns), draw(st.integers(1, 3))
    column = draw(st.integers(0, width - 1))
    cells = list(columns[column])
    cells[draw(st.integers(0, len(cells) - 1))] = "x" + ("," * (width - 1) + "\r\n") * breaks
    columns[column] = cells
    return header, columns


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

    @settings(max_examples=300)
    @given(st.one_of(tables(), tables(min_rows=1, max_rows=1), balanced_tables()))
    def test_bytes_match_csv_writer(self, tmp_path_factory, table):
        header, columns = table
        out = tmp_path_factory.mktemp("table")
        csv_writer_table(out / "a.csv", header, columns)
        write_table(out / "b.csv", header, columns)
        assert (out / "a.csv").read_bytes() == (out / "b.csv").read_bytes()

    def test_blocks_match_csv_writer(self, tmp_path):
        # Three full blocks and a short one; only the third block has a cell to quote.
        n = 3 * WRITE_BLOCK_ROWS + 5
        text = [f"r{i}" for i in range(n)]
        text[2 * WRITE_BLOCK_ROWS + 7] = 'a,"b"\r\n'
        columns = [np.arange(n) / 7.0, text, list(range(n))]
        csv_writer_table(tmp_path / "a.csv", ["x", "y", "z"], columns)
        write_table(tmp_path / "b.csv", ["x", "y", "z"], columns)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_columns_of_different_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), ["x", "y"]])
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ["a", "b"], [["x", '"y"'], [None]])

    def test_only_store_writes_csv(self):
        # One module owns the CSV text format; the others call write_table.
        package = Path(voyagekit.__file__).parent
        writers = sorted(p.name for p in package.glob("*.py") if "csv.writer" in p.read_text(encoding="utf-8"))
        assert writers == ["store.py"]
        # Only the CSV readers import csv, only errors.write_json formats a JSON file (json.dump, or
        # json.dumps with an indent, as against a run-log line or a message), and the labels file's
        # writer and reader live in store, so report and synth do not load path_id.
        imports, dumps = {}, []
        for path in package.glob("*.py"):
            nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
            imports[path.name] = {name for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                                  for name in [getattr(node, "module", None), *(a.name for a in node.names)]}
            dumps += [path.name for node in nodes if isinstance(node, ast.Call)
                      and isinstance(f := node.func, ast.Attribute) and isinstance(f.value, ast.Name)
                      and f.value.id == "json" and (f.attr == "dump" or f.attr == "dumps"
                                                   and any(k.arg == "indent" for k in node.keywords))]
        assert sorted(name for name, names in imports.items() if "csv" in names) == ["ingestion.py", "store.py"]
        assert dumps == ["errors.py"]
        assert not {"path_id"} & (imports["report.py"] | imports["synth.py"])

    def test_no_module_reads_the_environment(self):
        # Run settings come from the config file and the flags only.
        package = Path(voyagekit.__file__).parent
        readers = sorted(p.name for p in package.glob("*.py")
                         if re.search(r"\bos\.(environ|getenv)\b|\bfrom os import\b", p.read_text(encoding="utf-8")))
        assert readers == []


def _npy_bytes(table):
    buffer = io.BytesIO()
    np.save(buffer, table, allow_pickle=False)
    return buffer.getvalue()


NOT_FLOAT64 = r"not a voyage table \(expected one float64 row per column"

# Edge values that must survive the store bit for bit, within each column's sample rule.
UNSIGNED_EDGES = [0.0, -0.0, 5e-324, 1.5, 1e308]
SIGNED_EDGES = [*UNSIGNED_EDGES, -5e-324, -1e308]


@st.composite
def stored_voyages(draw):
    """A Voyage with edge values in every column and its own set of channels, one maybe NaN."""
    n = draw(st.integers(2, 5))
    column = lambda values, **kw: np.array(draw(st.lists(st.one_of(st.sampled_from(values), st.floats(**kw)),
                                                         min_size=n, max_size=n)))
    channels = {name: column(SIGNED_EDGES, allow_nan=False)
                for name in draw(st.sets(st.sampled_from([*ONBOARD_CHANNELS, *WEATHER_VARIABLES])))}
    if channels and draw(st.booleans()):
        channels[min(channels)][draw(st.integers(0, n - 1))] = np.nan  # not stored
    return Voyage(
        np.sort(column([0.0, -0.0, 5e-324, 60.0], min_value=-1e9, max_value=1e9)),
        column([-0.0, 5e-324, 90.0, -90.0], min_value=-90, max_value=90),
        column([-0.0, 5e-324, 180.0, -180.0], min_value=-180, max_value=180),
        column(UNSIGNED_EDGES, min_value=0, allow_infinity=False),
        column(SIGNED_EDGES, allow_nan=False, allow_infinity=False),
        column(UNSIGNED_EDGES, min_value=0, allow_infinity=False),
        channels=channels,
        voyage_id=draw(st.sampled_from(["V0001", "V0002", "V0003", "A.b"])),
    )


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
        """Replace V0002's table by edit(table): bytes as they are, an array np.save'd."""
        path = store / "voyages" / "V0002.npy"
        with open(path, "rb") as fh:
            content = edit(np.load(fh))
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            np.save(path, content, allow_pickle=True)

    def test_empty_voyage_file(self, store):
        self.corrupt(store, lambda table: b"")
        with pytest.raises(InvalidInputError, match=r"V0002\.npy: not a voyage table \(not an \.npy file\)"):
            read_store(store)

    def test_short_row(self, store):
        # A truncated file: the last row's final cell is cut off.
        self.corrupt(store, lambda table: _npy_bytes(table)[:-8])
        with pytest.raises(InvalidInputError, match=r"V0002\.npy: not a voyage table \(Failed to read all"):
            read_store(store)

    def test_non_numeric_cell(self, store):
        self.corrupt(store, lambda table: table.astype("U32"))
        with pytest.raises(InvalidInputError, match=r"V0002\.npy: not a voyage table \(expected one float64"):
            read_store(store)

    @pytest.mark.parametrize("edit, message", [
        (lambda table: b"Timestamp,Latitude\n0.0,1.0\n", r"not a voyage table \(not an \.npy file\)"),
        (lambda table: _npy_bytes(table)[:20], r"not a voyage table \(EOF: reading array header"),
        (lambda table: np.array([{"Timestamp": 0.0}], dtype=object), r"not a voyage table \(Object arrays"),
        (lambda table: pickle.dumps(table), r"not a voyage table \(not an \.npy file\)"),
        (lambda table: table.astype(">f8"), NOT_FLOAT64),
        (lambda table: table.astype("<f4"), NOT_FLOAT64),
        (lambda table: table.ravel(), NOT_FLOAT64),
        (lambda table: table.T.copy(), NOT_FLOAT64),
        (lambda table: table[:-1], NOT_FLOAT64),
        (lambda table: table[:, :-1], NOT_FLOAT64),
    ], ids=["csv-text", "truncated-header", "object-array", "pickle", "big-endian", "float32", "one-dimensional",
            "transposed", "row-count", "sample-count"])
    def test_malformed_voyage_file(self, store, edit, message, capsys):
        self.corrupt(store, edit)
        with pytest.raises(InvalidInputError, match=r"voyages/V0002\.npy: " + message):
            read_store(store)
        assert main(["score", "--out", str(store.parent)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {store / 'voyages' / 'V0002.npy'}: not a voyage table")

    def edit_manifest(self, store, edit):
        """Apply edit to each voyage entry of the store's manifest."""
        path = store / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        for entry in manifest["voyages"]:
            edit(entry)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return path

    @pytest.mark.parametrize("edit", [
        lambda entry: entry["columns"].append(entry["columns"][-1]),
        lambda entry: entry["columns"].append(1.5),
        lambda entry: entry.update(columns=",".join(entry["columns"])),
        lambda entry: entry["columns"].reverse(),
        lambda entry: entry["columns"].remove("EngineFuelRate"),
    ], ids=["repeated-name", "non-string", "not-a-list", "core-not-first", "core-missing"])
    def test_malformed_manifest_columns(self, store, edit, capsys):
        manifest_path = self.edit_manifest(store, edit)
        message = f"{manifest_path}: voyage V0001: columns must be distinct names, core ones first"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            read_store(store)
        assert main(["score", "--out", str(store.parent)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("with_columns", [True, False], ids=["structured-table", "entry-without-columns"])
    def test_parent_layout_store(self, store, with_columns, capsys):
        # An older version's store: 1-D structured tables and manifest entries without "columns".
        manifest_path = store / "manifest.json"
        for entry in json.loads(manifest_path.read_text(encoding="utf-8"))["voyages"]:
            path = store / "voyages" / f"{entry['voyage_id']}.npy"
            table = np.load(path).T.copy().view([(name, "<f8") for name in entry["columns"]])[:, 0]
            np.save(path, table, allow_pickle=False)
        if not with_columns:
            self.edit_manifest(store, lambda entry: entry.pop("columns"))
        named = store / "voyages" / "V0001.npy" if with_columns else manifest_path
        with pytest.raises(InvalidInputError, match=re.escape(str(named))):
            read_store(store)
        assert main(["score", "--out", str(store.parent)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {named}: ")

    def test_missing_voyage_file(self, store):
        (store / "voyages" / "V0002.npy").unlink()
        with pytest.raises(InvalidInputError, match=r"store manifest lists V0002 but .*V0002\.npy is missing"):
            read_store(store)

    def test_rewrite_removes_stale_voyage_files(self, tiny_fleet, tmp_path):
        store, voyages = tmp_path / "store", tiny_fleet.voyages
        write_store(voyages[:3], store)
        (store / "voyages" / "notes.txt").write_text("kept\n", encoding="utf-8")
        write_store(voyages[:2], store)
        ids = [e["voyage_id"] for e in json.loads((store / "manifest.json").read_text())["voyages"]]
        assert ids == [v.voyage_id for v in voyages[:2]]
        assert sorted(p.name for p in (store / "voyages").iterdir()) == sorted(
            [*(f"{vid}.npy" for vid in ids), "notes.txt"])
        assert [v.voyage_id for v in read_store(store)] == ids

    def test_table_layout(self, store):
        [_, entry] = json.loads((store / "manifest.json").read_text(encoding="utf-8"))["voyages"]
        with open(store / "voyages" / "V0002.npy", "rb") as fh:
            table = np.load(fh, allow_pickle=False)
        voyage = read_store(store)[1]
        assert entry["columns"] == [*CORE_COLUMNS, *sorted(voyage.channels)]
        assert (table.dtype.str, table.shape, table.flags.c_contiguous) == (
            "<f8", (len(entry["columns"]), entry["n_samples"]), True)
        channels = entry["columns"][len(CORE_COLUMNS):]
        rows = [*(getattr(voyage, name) for name in CORE_FIELDS), *map(voyage.channels.get, channels)]
        assert np.array_equal(table, np.stack(rows))
        assert all(row.base is voyage.t.base for row in rows)  # the reader's columns are rows of one loaded table

    @settings(max_examples=60, deadline=None)
    @given(voyages=st.lists(stored_voyages(), min_size=1, max_size=3, unique_by=lambda v: v.voyage_id))
    def test_binary_round_trip_is_bit_exact(self, tmp_path_factory, voyages):
        out = tmp_path_factory.mktemp("store")
        write_store(voyages, out)
        loaded = read_store(out)
        assert [v.voyage_id for v in loaded] == [v.voyage_id for v in voyages]
        for a, b in zip(voyages, loaded):
            kept = {name: values for name, values in a.channels.items() if not np.isnan(values).any()}
            assert list(b.channels) == sorted(kept)
            for name, values in [*((n, getattr(a, n)) for n in CORE_FIELDS), *kept.items()]:
                got = getattr(b, name) if name in CORE_FIELDS else b.channels[name]
                assert (got.dtype.str, got.strides, got.tobytes()) == (
                    values.dtype.str, values.strides, values.tobytes()), name

    def test_manifest_entry_keys(self, store):
        manifest_path = store / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert [sorted(e) for e in manifest["voyages"]] == [["columns", "n_samples", "voyage_id"]] * 2
        for entry in manifest["voyages"]:  # as an older version wrote them
            entry.update(origin="", destination="")
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert [v.voyage_id for v in read_store(store)] == [e["voyage_id"] for e in manifest["voyages"]]

    def test_manifest_without_voyages(self, store):
        (store / "manifest.json").write_text(json.dumps({"note": 1}), encoding="utf-8")
        with pytest.raises(InvalidInputError, match="manifest"):
            read_store(store)

    @pytest.mark.parametrize(
        "edit",
        [lambda table: b"", lambda table: table.astype("U32")],
        ids=["empty", "non-numeric"],
    )
    def test_cli_reports_malformed_store(self, store, edit, capsys):
        self.corrupt(store, edit)
        assert main(["score", "--out", str(store.parent)]) == 1
        assert "error:" in capsys.readouterr().err
