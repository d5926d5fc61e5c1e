import dataclasses
import filecmp
import math

import numpy as np
import pytest

from conftest import tiny_fleet_spec
from voyagekit.errors import ConfigurationError
from voyagekit.ingestion import parse_weather_grid
from voyagekit.store import write_table
from voyagekit.synth import (
    Branch,
    SyntheticFleetSpec,
    WEATHER_VARIABLES,
    default_fleet_spec,
    generate_fleet,
    spec_from_json,
    write_fleet,
)


def point_to_polyline_distance(pt, polyline):
    best = math.inf
    for a, b in zip(polyline, polyline[1:]):
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        span = b - a
        t = np.clip(np.dot(pt - a, span) / np.dot(span, span), 0.0, 1.0)
        best = min(best, float(np.linalg.norm(a + t * span - pt)))
    return best


class TestSpecValidation:
    def test_single_branch_rejected(self):
        with pytest.raises(ConfigurationError):
            SyntheticFleetSpec(branches=[Branch("only", [(0, 0), (0, 1)])])

    def test_degenerate_centerline(self):
        with pytest.raises(ConfigurationError):
            SyntheticFleetSpec(
                branches=[Branch("a", [(0, 0)]), Branch("b", [(0, 0), (0, 1)])]
            )

    def test_negative_noise(self):
        # noise must be >= 0 (zero is allowed for exact-centerline fleets)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(tiny_fleet_spec(), noise_std_deg=-0.1)

    def test_negative_fuel_coefficient(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(tiny_fleet_spec(), fuel_b=-1.0)


class TestGenerateFleet:
    def test_counts_and_labels(self, tiny_fleet):
        assert len(tiny_fleet.voyages) == 12
        counts = {}
        for label in tiny_fleet.labels.values():
            counts[label] = counts.get(label, 0) + 1
        assert counts == {"mid": 4, "north": 4, "south": 4}

    def test_voyage_ids_chronological(self, tiny_fleet):
        starts = [v.t[0] for v in tiny_fleet.voyages]
        assert starts == sorted(starts)
        assert [v.voyage_id for v in tiny_fleet.voyages] == [
            f"V{i + 1:04d}" for i in range(12)
        ]

    def test_all_weather_channels_present(self, tiny_fleet):
        channels = tiny_fleet.voyages[0].channels
        for name in WEATHER_VARIABLES:
            assert not np.isnan(channels[name]).any()
        assert not np.isnan(channels["WindSpeed_onb"]).any()

    def test_fuel_physics(self, tiny_fleet):
        spec = tiny_fleet.spec
        for v in tiny_fleet.voyages[:3]:
            expected = spec.fuel_a + spec.fuel_b * v.sog**2 + spec.fuel_c * v.channels["WindSpeed_cps"]
            assert v.fuel[::7] == pytest.approx(expected[::7], rel=1e-12)

    def test_zero_noise_on_centerline(self):
        spec = dataclasses.replace(tiny_fleet_spec(), noise_std_deg=0.0, voyages_per_branch=2)
        fleet = generate_fleet(spec)
        lines = {b.name: b.centerline for b in spec.branches}
        for v in fleet.voyages:
            line = lines[fleet.labels[v.voyage_id]]
            for p in v.columns("lat", "lon")[:: max(1, len(v) // 10)]:
                assert point_to_polyline_distance(p, line) < 1e-9

    def test_deterministic_generation(self):
        a = generate_fleet(tiny_fleet_spec(seed=4))
        b = generate_fleet(tiny_fleet_spec(seed=4))
        assert [v.voyage_id for v in a.voyages] == [v.voyage_id for v in b.voyages]
        for va, vb in zip(a.voyages, b.voyages):
            assert va.t.tolist() == vb.t.tolist()
            assert va.sog.tolist() == vb.sog.tolist()
            assert va.fuel.tolist() == vb.fuel.tolist()

    def test_seed_changes_output(self):
        a = generate_fleet(tiny_fleet_spec(seed=4))
        b = generate_fleet(tiny_fleet_spec(seed=5))
        assert a.voyages[0].sog[:10].tolist() != b.voyages[0].sog[:10].tolist()


def meshgrid_grid_writer(grid, path):
    """Reference: every cell's coordinates from meshgrid columns."""
    columns = (*np.meshgrid(grid.times, grid.lats, grid.lons, indexing="ij"), grid.values)
    write_table(path, ["time", "lat", "lon", "value"], [c.ravel() for c in columns])


class TestWriteFleet:
    def test_layout_and_manifest(self, tiny_fleet, tmp_path):
        manifest = write_fleet(tiny_fleet, tmp_path)
        assert manifest["voyage_count"] == 12
        assert (tmp_path / "onboard" / "fleet.csv").exists()
        for name in WEATHER_VARIABLES:
            assert (tmp_path / "weather" / f"{name}.csv").exists()
        assert (tmp_path / "segments.json").exists()
        assert (tmp_path / "labels.csv").exists()

    def test_byte_identical_across_runs(self, tmp_path):
        for sub in ("one", "two"):
            write_fleet(generate_fleet(tiny_fleet_spec(seed=6)), tmp_path / sub)
        comparison = filecmp.dircmp(tmp_path / "one", tmp_path / "two")
        assert not comparison.diff_files
        assert not comparison.funny_files
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "one" / "onboard", tmp_path / "two" / "onboard", ["fleet.csv"], shallow=False
        )
        assert match == ["fleet.csv"]

    def test_weather_grids_match_meshgrid_writer(self, tiny_fleet, tmp_path):
        write_fleet(tiny_fleet, tmp_path)
        for grid in tiny_fleet.grids:
            reference = tmp_path / f"{grid.variable}.reference.csv"
            meshgrid_grid_writer(grid, reference)
            written = tmp_path / "weather" / f"{grid.variable}.csv"
            assert written.read_bytes() == reference.read_bytes(), grid.variable

    def test_weather_grids_round_trip(self, tiny_fleet, tmp_path):
        write_fleet(tiny_fleet, tmp_path)
        for grid in tiny_fleet.grids:
            parsed = parse_weather_grid(tmp_path / "weather" / f"{grid.variable}.csv")
            assert parsed.variable == grid.variable
            for axis in ("times", "lats", "lons", "values"):
                expected = getattr(grid, axis)
                assert getattr(parsed, axis).shape == expected.shape, axis
                assert getattr(parsed, axis).tobytes() == expected.tobytes(), axis


class TestSpecJson:
    def test_round_trip(self, tmp_path):
        payload = {
            "branches": [
                {"name": "a", "centerline": [[0.0, 0.0], [0.0, 0.2]]},
                {"name": "b", "centerline": [[0.1, 0.0], [0.1, 0.2]]},
            ],
            "voyages_per_branch": 2,
            "seed": 9,
            "noise_std_deg": 0.01,
        }
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        spec = spec_from_json(path)
        assert spec.seed == 9
        assert [b.name for b in spec.branches] == ["a", "b"]

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"voyages_per_branch": 2}', encoding="utf-8")
        with pytest.raises(ConfigurationError):
            spec_from_json(path)

    def test_default_spec_three_branches(self):
        spec = default_fleet_spec(seed=1)
        assert len(spec.branches) == 3
        assert spec.seed == 1
