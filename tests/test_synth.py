import dataclasses
import filecmp
import math
import warnings

import numpy as np
import pytest

from conftest import tiny_fleet_spec
from voyagekit import synth
from voyagekit.errors import ConfigurationError
from voyagekit.geo import CORE_FIELDS, Voyage
from voyagekit.ingestion import WeatherGrid, attach_weather, parse_weather_grid
from voyagekit.store import ONBOARD_CHANNELS, write_table
from voyagekit.synth import (
    DEG_PER_M,
    Branch,
    FleetData,
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


def oracle_at(points, s):
    """Position and unit direction at arclength s along a polyline (degree units)."""
    seg_len = np.sqrt((np.diff(points, axis=0) ** 2).sum(axis=1))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    s = min(max(s, 0.0), float(cum[-1]))
    # The line ends on its last segment of positive length, before any repeated end point.
    i = min(int(np.searchsorted(cum, s, side="right")) - 1, int(np.flatnonzero(seg_len)[-1]))
    frac = (s - cum[i]) / seg_len[i]
    direction = (points[i + 1] - points[i]) / seg_len[i]
    return points[i] + frac * (points[i + 1] - points[i]), direction


def oracle_generate_fleet(spec, all_hours=False):
    """Reference: the generator as a per-sample loop, one interpolation per voyage and grid.

    The grids are built over the whole regime chain, then cut to end at the
    first hour after the fleet's last sample; `all_hours` skips the cut.
    """
    rng = np.random.default_rng(spec.seed)
    lines = {b.name: np.asarray(b.centerline, dtype=float) for b in spec.branches}
    totals = {name: float(np.sqrt((np.diff(p, axis=0) ** 2).sum(axis=1)).sum()) for name, p in lines.items()}

    min_sog = min(r.base_sog for r in spec.regimes) * spec.skill_range[0] * 0.5
    total_s = 0.0
    order = []
    for i in range(spec.voyages_per_branch * len(spec.branches)):
        branch = spec.branches[i % len(spec.branches)]
        order.append(branch.name)
        total_s += totals[branch.name] / DEG_PER_M / min_sog + spec.gap_s
    n_hours = int(total_s / 3600.0) + 6

    regime_idx = np.empty(n_hours, dtype=int)
    regime_idx[0] = 0
    for h in range(1, n_hours):
        r = regime_idx[h - 1]
        stay = max(0.0, 1.0 - 1.0 / spec.regimes[r].dwell_hours)
        if rng.random() < stay:
            regime_idx[h] = r
        else:
            others = [s for s in range(3) if s != r]
            regime_idx[h] = others[int(rng.integers(2))]
    offsets = {
        "wind": np.array([rng.normal(0.0, spec.regimes[r].wind_std) for r in regime_idx]),
        "wave": np.array([rng.normal(0.0, spec.regimes[r].wave_std) for r in regime_idx]),
    }

    all_points = np.vstack(list(lines.values()))
    pad = spec.grid_margin_deg + 5.0 * spec.noise_std_deg
    lat_lo, lon_lo = all_points.min(axis=0) - pad
    lat_hi, lon_hi = all_points.max(axis=0) + pad
    lats = np.arange(lat_lo, lat_hi + spec.grid_step_deg, spec.grid_step_deg)
    lons = np.arange(lon_lo, lon_hi + spec.grid_step_deg, spec.grid_step_deg)
    hours = np.arange(n_hours, dtype=float)
    times = spec.start_time - 3600.0 + hours * 3600.0
    grids = [
        WeatherGrid(name, times, lats, lons,
                    synth._field_values(name, hours, lats, lons, regime_idx, spec.regimes, offsets))
        for name in WEATHER_VARIABLES
    ]

    def regime_at(t):
        h = int((t - spec.start_time) // 3600.0) + 1
        return int(regime_idx[min(max(h, 0), n_hours - 1)])

    voyages, labels = [], {}
    t = spec.start_time
    for i, branch_name in enumerate(order):
        vid = f"V{i + 1:04d}"
        points, total = lines[branch_name], totals[branch_name]
        reverse = (i // len(spec.branches)) % 2 == 1
        skill = rng.uniform(*spec.skill_range)
        ts_list, pos_list, sog_list, heading_list = [], [], [], []
        s = 0.0
        while s < total:
            regime = spec.regimes[regime_at(t)]
            sog = max(0.3, skill * regime.base_sog + rng.normal(0.0, spec.sog_noise))
            center, direction = oracle_at(points, total - s if reverse else s)
            if reverse:
                direction = -direction
            pos = center + rng.normal(0.0, spec.noise_std_deg, 2) if spec.noise_std_deg > 0 else center
            heading = (math.degrees(math.atan2(direction[1], direction[0]))) % 360.0
            heading = (heading + rng.normal(0.0, 2.0)) % 360.0
            ts_list.append(t)
            pos_list.append(pos)
            sog_list.append(sog)
            heading_list.append(heading)
            s += sog * spec.sample_period_s * DEG_PER_M
            t += spec.sample_period_s

        ts, pos, sogs = np.array(ts_list), np.vstack(pos_list), np.array(sog_list)
        channels = {}
        for grid in grids:
            values, status = grid.interpolate_many(ts, pos[:, 0], pos[:, 1])
            if np.any(status != 0):
                raise ConfigurationError(
                    f"weather lattice does not cover voyage {vid} (grid {grid.variable})"
                )
            channels[grid.variable] = values
        wind = channels["WindSpeed_cps"]
        fuel = spec.fuel_a + spec.fuel_b * sogs**2 + spec.fuel_c * wind
        channels.update(zip(ONBOARD_CHANNELS, (wind, channels["WindDirection_cps"])))
        voyages.append(Voyage(ts, pos[:, 0], pos[:, 1], sogs, heading_list, fuel, channels, voyage_id=vid))
        labels[vid] = branch_name
        t += spec.gap_s
    if not all_hours:
        keep = int((voyages[-1].t[-1] - times[0]) // 3600.0) + 2
        grids = [WeatherGrid(g.variable, g.times[:keep], lats, lons, g.values[:keep]) for g in grids]
    return FleetData(spec, voyages, labels, grids, synth._route_segments(all_points, pad))


def oracle_write_fleet(fleet, out):
    """Reference: write_fleet with every weather grid formatted on its own."""
    write_fleet(fleet, out)
    for grid in fleet.grids:
        meshgrid_grid_writer(grid, out / "weather" / f"{grid.variable}.csv")


def fleet_columns(fleet):
    """Every array of a fleet, keyed, as bytes."""
    columns = {}
    for v in fleet.voyages:
        for name in CORE_FIELDS:
            columns[v.voyage_id, name] = getattr(v, name).tobytes()
        for name, values in v.channels.items():
            columns[v.voyage_id, name] = values.tobytes()
    for g in fleet.grids:
        for axis in ("times", "lats", "lons", "values"):
            columns[g.variable, axis] = getattr(g, axis).tobytes()
    return columns


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def sized_default_spec(seed, voyages):
    return dataclasses.replace(default_fleet_spec(seed), voyages_per_branch=voyages // 3)


ORACLE_SPECS = pytest.mark.parametrize(
    "spec",
    [
        default_fleet_spec(1),
        default_fleet_spec(7),
        sized_default_spec(3, 60),
        tiny_fleet_spec(),
        dataclasses.replace(tiny_fleet_spec(seed=2), noise_std_deg=0.0),
        dataclasses.replace(
            tiny_fleet_spec(seed=5), sample_period_s=13.7, gap_s=901.3, skill_range=(0.5, 1.4)
        ),
        # Speed noise slower than the slowest regime: the first block of draws falls short.
        dataclasses.replace(tiny_fleet_spec(seed=3), sog_noise=6.0),
        dataclasses.replace(tiny_fleet_spec(seed=4), branches=[
            Branch("mid", [(0.0, 0.0), (0.0, 0.1), (0.0, 0.1), (0.0, 0.2)]),  # a repeated point
            Branch("north", [(0.0, 0.0), (0.12, 0.07), (0.12, 0.13), (0.0, 0.2)]),
        ]),
        dataclasses.replace(tiny_fleet_spec(seed=6, voyages_per_branch=2), branches=[
            Branch("a", [(0.0, 0.0), (0.0, 0.2), (0.0, 0.2)]),  # a repeated end point
            Branch("b", [(0.0, 0.0), (0.1, 0.1), (0.0, 0.2)]),
        ]),
    ],
    ids=["default-1", "default-7", "default-60-voyages", "tiny", "zero-noise", "custom-timing",
         "noisy-speed", "repeated-point", "repeated-end-point"],
)


class TestMatchesPerSampleOracle:
    """The columnar generator gives the per-sample loop's arrays and files, bit for bit."""

    @ORACLE_SPECS
    def test_arrays_and_files(self, spec, tmp_path):
        expected, got = oracle_generate_fleet(spec), generate_fleet(spec)
        assert got.labels == expected.labels
        assert fleet_columns(got) == fleet_columns(expected)
        oracle_write_fleet(expected, tmp_path / "oracle")
        write_fleet(got, tmp_path / "columns")
        assert tree_bytes(tmp_path / "columns") == tree_bytes(tmp_path / "oracle")

    def test_repeated_end_point_starts_reversed_voyages_there(self):
        # Reversed voyages start at arclength `total`, on the zero-length last segment.
        spec = dataclasses.replace(tiny_fleet_spec(voyages_per_branch=2), noise_std_deg=0.0, branches=[
            Branch("a", [(0, 0), (0, 0.2), (0, 0.2)]), Branch("b", [(0, 0), (0.1, 0.1), (0, 0.2)]),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0/0 on the way
            fleet = generate_fleet(spec)
        starts = {(v.lat[0], v.lon[0]) for v in fleet.voyages if fleet.labels[v.voyage_id] == "a"}
        assert starts == {(0.0, 0.0), (0.0, 0.2)}
        assert all(np.isfinite(v.columns(*CORE_FIELDS)).all() for v in fleet.voyages)

    def test_uncovered_voyage_same_error(self):
        spec = dataclasses.replace(tiny_fleet_spec(), grid_margin_deg=-0.05)
        with pytest.raises(ConfigurationError) as expected:
            oracle_generate_fleet(spec)
        with pytest.raises(ConfigurationError) as got:
            generate_fleet(spec)
        assert "does not cover voyage" in str(expected.value)
        assert str(got.value) == str(expected.value)


class TestExportedHours:
    """Each grid runs from the hour before the first sample to the first hour after the last."""

    @ORACLE_SPECS
    def test_grids_cut_after_last_sample(self, spec):
        full, got = oracle_generate_fleet(spec, all_hours=True), generate_fleet(spec)
        t_last = got.voyages[-1].t[-1]
        keep = int((t_last - full.grids[0].times[0]) // 3600.0) + 2
        for whole, grid in zip(full.grids, got.grids):
            assert grid.times.tobytes() == whole.times[:keep].tobytes(), grid.variable
            assert grid.values.tobytes() == whole.values[:keep].tobytes(), grid.variable
            assert grid.times[-2] <= t_last < grid.times[-1]
        for v in got.voyages:
            core = Voyage(*(getattr(v, name) for name in CORE_FIELDS), {}, voyage_id=v.voyage_id)
            attached, dropped, _ = attach_weather(core, got.grids)
            assert dropped == 0, v.voyage_id
            for name in WEATHER_VARIABLES:
                assert attached.channels[name].tobytes() == v.channels[name].tobytes(), (v.voyage_id, name)


class TestWholeFleetCalls:
    """Weather is sampled, and each distinct grid written, once per fleet, not per voyage."""

    def test_interpolation_calls_do_not_grow_with_the_fleet(self, monkeypatch):
        calls = []
        sample = WeatherGrid.interpolate_many
        monkeypatch.setattr(WeatherGrid, "interpolate_many", lambda g, *a: calls.append(1) or sample(g, *a))
        counts = []
        for voyages in (12, 30):
            calls.clear()
            generate_fleet(sized_default_spec(1, voyages))
            counts.append(len(calls))
        assert counts[0] == counts[1] <= len(WEATHER_VARIABLES)

    def test_twin_grids_formatted_once(self, monkeypatch, tmp_path):
        paths = []
        write = synth.write_table
        monkeypatch.setattr(synth, "write_table", lambda path, *a: paths.append(path) or write(path, *a))
        fleet = generate_fleet(sized_default_spec(1, 6))
        write_fleet(fleet, tmp_path)
        grid_writes = [p.stem for p in paths if p.parent.name == "weather"]
        assert len(grid_writes) == 6
        assert {"WindSpeed_sg", "WindDirection_sg"}.isdisjoint(grid_writes)
        for twin, first in (("WindSpeed_sg", "WindSpeed_cps"), ("WindDirection_sg", "WindDirection_cps")):
            weather = tmp_path / "weather"
            assert (weather / f"{twin}.csv").read_bytes() == (weather / f"{first}.csv").read_bytes()


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
