import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import make_sample, voyage_of
from voyagekit.errors import (
    ConfigurationError,
    InsufficientDataError,
    InvalidInputError,
    MissingDataError,
    OutOfDomainError,
    SchemaError,
)
from voyagekit.geo import GeoPoint, merge_tracks
from voyagekit.ingestion import (
    WeatherGrid,
    attach_weather,
    parse_onboard_csv,
    parse_weather_grid,
    resample_voyage,
    trilinear_interpolate,
)

HEADER = "Timestamp,Latitude,Longitude,SpeedOverGround,HeadingMagnetic,EngineFuelRate,WindSpeed_onb,WindDirection_onb"


def write_onboard(tmp_path, rows, header=HEADER, name="onboard.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


class TestParseOnboard:
    def test_three_valid_rows(self, tmp_path):
        path = write_onboard(
            tmp_path,
            [
                "120,0.0,0.02,5.0,90.0,50.0,3.0,200.0",
                "0,0.0,0.00,5.0,90.0,50.0,3.0,200.0",
                "60,0.0,0.01,5.0,90.0,50.0,3.0,200.0",
            ],
        )
        samples, skipped = parse_onboard_csv(path)
        assert skipped == 0
        assert samples.t.tolist() == [0.0, 60.0, 120.0]
        assert {name: c[0] for name, c in samples.channels.items()} == {
            "WindSpeed_onb": 3.0, "WindDirection_onb": 200.0
        }

    def test_nan_fuel_skipped(self, tmp_path):
        path = write_onboard(
            tmp_path,
            [
                "0,0.0,0.00,5.0,90.0,50.0,3.0,200.0",
                "60,0.0,0.01,5.0,90.0,NaN,3.0,200.0",
                "120,0.0,0.02,5.0,90.0,50.0,3.0,200.0",
            ],
        )
        samples, skipped = parse_onboard_csv(path)
        assert len(samples) == 2
        assert skipped == 1

    def test_missing_required_column(self, tmp_path):
        header = "Timestamp,Latitude,Longitude,HeadingMagnetic,EngineFuelRate"
        path = write_onboard(tmp_path, ["0,0,0,90,50"], header=header)
        with pytest.raises(SchemaError, match="SpeedOverGround"):
            parse_onboard_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError):
            parse_onboard_csv(path)

    def test_header_only(self, tmp_path):
        path = write_onboard(tmp_path, [])
        with pytest.raises(SchemaError):
            parse_onboard_csv(path)

    def test_case_insensitive_headers(self, tmp_path):
        header = "timestamp,latitude,longitude,speedoverground,headingmagnetic,enginefuelrate"
        path = write_onboard(tmp_path, ["0,1.0,2.0,5.0,90.0,50.0"], header=header)
        samples, _ = parse_onboard_csv(path)
        assert samples.lat[0] == 1.0

    def test_iso_timestamps(self, tmp_path):
        path = write_onboard(
            tmp_path,
            ['2020-01-01T00:01:00Z,0.0,0.0,5.0,90.0,50.0,3.0,200.0'],
        )
        samples, _ = parse_onboard_csv(path)
        assert samples.t[0] == 1577836860.0

    def test_negative_speed_skipped(self, tmp_path):
        path = write_onboard(
            tmp_path,
            [
                "0,0.0,0.00,-5.0,90.0,50.0,3.0,200.0",
                "60,0.0,0.01,5.0,90.0,50.0,3.0,200.0",
            ],
        )
        samples, skipped = parse_onboard_csv(path)
        assert len(samples) == 1 and skipped == 1

    def test_heading_normalized(self, tmp_path):
        path = write_onboard(tmp_path, ["0,0.0,0.0,5.0,370.0,50.0,3.0,200.0"])
        samples, _ = parse_onboard_csv(path)
        assert samples.heading[0] == pytest.approx(10.0)

    def test_unparseable_channel_cell_is_nan(self, tmp_path):
        path = write_onboard(
            tmp_path,
            ["0,0.0,0.00,5.0,90.0,50.0,x,200.0", "60,0.0,0.01,5.0,90.0,50.0,3.0"],
        )
        samples, skipped = parse_onboard_csv(path)
        assert skipped == 0
        assert np.isnan(samples.channels["WindSpeed_onb"][0])
        assert np.isnan(samples.channels["WindDirection_onb"][1])

    def test_two_files_equal_timestamps_keep_file_order(self, tmp_path):
        # Ten rows per timestamp per file: enough that an unstable sort reorders them.
        streams = []
        for sog, name in ((1.0, "a.csv"), (2.0, "b.csv")):
            rows = [f"{t},0.0,{i / 100},{sog},90.0,50.0" for i, t in enumerate([0, 60, 120] * 10)]
            path = write_onboard(tmp_path, rows, header=HEADER.rsplit(",", 2)[0], name=name)
            streams.append(parse_onboard_csv(path)[0])
        merged = merge_tracks(streams)
        order = [i for i in range(30) if i % 3 == 0] + [i for i in range(30) if i % 3 == 1]
        for step, t in enumerate((0.0, 60.0)):
            block = slice(20 * step, 20 * step + 20)
            assert merged.t[block].tolist() == [t] * 20
            assert merged.sog[block].tolist() == [1.0] * 10 + [2.0] * 10
            expected = [i / 100 for i in order[10 * step: 10 * step + 10]]
            assert merged.lon[block].tolist() == expected * 2


def lattice_csv(tmp_path, rows, name="WaveHeight.csv"):
    path = tmp_path / name
    lines = ["time,lat,lon,value"] + [",".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def full_lattice_rows(value_fn):
    rows = []
    for t in (0.0, 3600.0):
        for lat in (0.0, 1.0):
            for lon in (10.0, 11.0):
                rows.append((t, lat, lon, value_fn(t, lat, lon)))
    return rows


class TestParseWeatherGrid:
    def test_complete_lattice(self, tmp_path):
        path = lattice_csv(tmp_path, full_lattice_rows(lambda t, la, lo: 1.5))
        grid = parse_weather_grid(path)
        assert grid.variable == "WaveHeight"
        assert grid.values.shape == (2, 2, 2)
        assert not np.any(np.isnan(grid.values))

    def test_missing_cell_counted(self, tmp_path):
        rows = full_lattice_rows(lambda t, la, lo: 1.5)[:-1]
        path = lattice_csv(tmp_path, rows)
        grid = parse_weather_grid(path)
        assert int(np.isnan(grid.values).sum()) == 1

    def test_conflicting_duplicate(self, tmp_path):
        rows = full_lattice_rows(lambda t, la, lo: 1.5)
        rows.append((0.0, 0.0, 10.0, 9.9))
        path = lattice_csv(tmp_path, rows)
        with pytest.raises(InvalidInputError):
            parse_weather_grid(path)

    def test_consistent_duplicate_ok(self, tmp_path):
        rows = full_lattice_rows(lambda t, la, lo: 1.5)
        rows.append(rows[0])
        grid = parse_weather_grid(lattice_csv(tmp_path, rows))
        assert grid.values.shape == (2, 2, 2)

    def test_variable_from_stem(self, tmp_path):
        path = lattice_csv(tmp_path, full_lattice_rows(lambda *a: 0.0), name="WindSpeed_cps.csv")
        assert parse_weather_grid(path).variable == "WindSpeed_cps"


def affine_grid(a=2.0, b=3.0, c=-1.0, d=0.5):
    """Grid over t in [0, 7200], lat in [0, 2], lon in [10, 12] with
    value = a*t + b*lat + c*lon + d."""
    times = np.array([0.0, 3600.0, 7200.0])
    lats = np.array([0.0, 1.0, 2.0])
    lons = np.array([10.0, 11.0, 12.0])
    values = a * times[:, None, None] + b * lats[None, :, None] + c * lons[None, None, :] + d
    return WeatherGrid("affine", times, lats, lons, values), (a, b, c, d)


class TestTrilinear:
    def test_node_exactness(self):
        grid, (a, b, c, d) = affine_grid()
        got = trilinear_interpolate(grid, 3600.0, GeoPoint(1.0, 11.0))
        assert got == pytest.approx(a * 3600 + b * 1 + c * 11 + d, abs=1e-9)

    def test_affine_field_at_cell_center(self):
        a, b, c = 2.0, 3.0, -1.0
        grid, _ = affine_grid(a, b, c, 0.0)
        t, lat, lon = 1800.0, 0.5, 10.5
        got = trilinear_interpolate(grid, t, GeoPoint(lat, lon))
        assert got == pytest.approx(a * t + b * lat + c * lon, abs=1e-9)

    def test_beyond_time_axis(self):
        grid, _ = affine_grid()
        with pytest.raises(OutOfDomainError):
            trilinear_interpolate(grid, 7200.1, GeoPoint(1.0, 11.0))

    def test_missing_corner(self):
        grid, _ = affine_grid()
        grid.values[0, 0, 0] = np.nan
        with pytest.raises(MissingDataError):
            trilinear_interpolate(grid, 100.0, GeoPoint(0.5, 10.5))

    def test_affine_reproduction_random_queries(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c, d = rng.normal(size=4)
            grid, _ = affine_grid(a, b, c, d)
            t = rng.uniform(0, 7200)
            lat = rng.uniform(0, 2)
            lon = rng.uniform(10, 12)
            got = trilinear_interpolate(grid, t, GeoPoint(lat, lon))
            assert got == pytest.approx(a * t + b * lat + c * lon + d, abs=1e-6)

    def test_within_corner_bounds(self):
        rng = np.random.default_rng(5)
        times = np.array([0.0, 1.0])
        lats = np.array([0.0, 1.0])
        lons = np.array([0.0, 1.0])
        for _ in range(200):
            values = rng.normal(size=(2, 2, 2))
            grid = WeatherGrid("x", times, lats, lons, values)
            q = rng.uniform(0, 1, size=3)
            got = trilinear_interpolate(grid, q[0], GeoPoint(q[1], q[2]))
            assert values.min() - 1e-12 <= got <= values.max() + 1e-12

    def test_bad_axes_rejected(self):
        with pytest.raises(InvalidInputError):
            WeatherGrid(
                "x",
                np.array([0.0]),
                np.array([0.0, 1.0]),
                np.array([0.0, 1.0]),
                np.zeros((1, 2, 2)),
            )


class TestResample:
    def test_idempotent_on_aligned(self):
        v = voyage_of(
            "V1",
            [make_sample(i * 60.0, sog=float(i), fuel_rate=10.0 * i) for i in range(5)],
        )
        out = resample_voyage(v, period=60.0)
        assert out.t.tolist() == v.t.tolist()
        assert out.sog.tolist() == v.sog.tolist()

    def test_bin_average(self):
        v = voyage_of("V1", [make_sample(0.0, sog=2.0), make_sample(30.0, sog=4.0),
                             make_sample(60.0, sog=6.0), make_sample(90.0, sog=8.0)])
        out = resample_voyage(v, period=60.0)
        assert out.sog.tolist() == [3.0, 7.0]
        assert out.t.tolist() == [0.0, 60.0]

    def test_circular_heading_mean(self):
        v = voyage_of("V1", [make_sample(0.0, heading=350.0), make_sample(30.0, heading=10.0),
                             make_sample(60.0, heading=90.0), make_sample(90.0, heading=90.0)])
        out = resample_voyage(v, period=60.0)
        assert out.heading[0] == pytest.approx(0.0, abs=1e-9)

    def test_direction_channel_circular(self):
        v = voyage_of(
            "V1",
            [
                make_sample(0.0, weather={"WindDirection_onb": 350.0}),
                make_sample(30.0, weather={"WindDirection_onb": 10.0}),
                make_sample(60.0, weather={"WindDirection_onb": 45.0}),
                make_sample(90.0, weather={"WindDirection_onb": 45.0}),
            ],
        )
        out = resample_voyage(v, period=60.0)
        assert out.channels["WindDirection_onb"][0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_bins_omitted(self):
        v = voyage_of("V1", [make_sample(0.0), make_sample(10.0), make_sample(300.0), make_sample(310.0)])
        out = resample_voyage(v, period=60.0)
        assert out.t.tolist() == [0.0, 300.0]

    def test_bad_period(self):
        v = voyage_of("V1", [make_sample(0.0), make_sample(60.0)])
        with pytest.raises(ConfigurationError):
            resample_voyage(v, period=0.0)

    @given(st.lists(st.floats(min_value=0, max_value=5000, allow_nan=False), min_size=2, max_size=40, unique=True))
    def test_length_and_span(self, stamps):
        stamps = sorted(stamps)
        assume(stamps[-1] - stamps[0] >= 120.0)
        v = voyage_of("V1", [make_sample(t) for t in stamps])
        out = resample_voyage(v, period=60.0)
        assert len(out) <= len(v)
        span_in = stamps[-1] - stamps[0]
        span_out = out.t[-1] - out.t[0]
        assert abs(span_in - span_out) < 60.0

    def test_collapse_below_two_samples(self):
        v = voyage_of("V1", [make_sample(0.0), make_sample(10.0)])
        with pytest.raises(InsufficientDataError):
            resample_voyage(v, period=60.0)

    def test_matches_per_bin_reference(self):
        # Bins of 1 to 150 samples; the reference is np.mean / math.atan2 per bin.
        rng = np.random.default_rng(2)
        sizes = [1, 2, 7, 8, 9, 16, 33, 150, 3, 129]
        stamps = np.concatenate(
            [600.0 * k + np.sort(rng.uniform(0, 600, n)) for k, n in enumerate(sizes)]
        )
        stamps[0] = 0.0
        samples = [
            make_sample(t, lat=rng.uniform(-1, 1), lon=rng.uniform(10, 12),
                        sog=rng.uniform(0, 9), heading=rng.uniform(0, 360),
                        fuel_rate=rng.uniform(20, 90),
                        weather={"WaveHeight": rng.uniform(0, 3),
                                 "WaveDirection": rng.uniform(0, 360)})
            for t in stamps
        ]
        out = resample_voyage(voyage_of("V1", samples), period=600.0)

        def circular(values):
            rad = np.radians(values)
            deg = math.degrees(math.atan2(float(np.mean(np.sin(rad))),
                                          float(np.mean(np.cos(rad))))) % 360.0
            return 0.0 if deg >= 360.0 else deg

        bins = np.split(np.arange(len(stamps)), np.cumsum(sizes)[:-1])

        def per_bin(name, reduce):
            return [reduce([samples[i][name] for i in b]) for b in bins]

        for name in ("lat", "lon", "sog", "fuel"):
            assert getattr(out, name).tolist() == per_bin(name, np.mean), name
        assert out.heading.tolist() == per_bin("heading", circular)
        assert out.channels["WaveHeight"].tolist() == per_bin("WaveHeight", np.mean)
        assert out.channels["WaveDirection"].tolist() == per_bin("WaveDirection", circular)
        assert out.t.tolist() == [600.0 * k for k in range(len(sizes))]


def constant_grid(name, value, t_max=10_000.0):
    times = np.array([0.0, t_max])
    axes = np.array([-5.0, 5.0])
    return WeatherGrid(name, times, axes, axes + 10.0, np.full((2, 2, 2), value))


class TestAttachWeather:
    def voyage(self, n=5):
        return voyage_of(
            "V1", [make_sample(i * 60.0, lat=0.1 * i, lon=10.5 + 0.1 * i) for i in range(n)]
        )

    def test_constant_field(self):
        v, dropped = attach_weather(self.voyage(), [constant_grid("WaveHeight", 1.25)])
        assert dropped == 0
        assert v.channels["WaveHeight"] == pytest.approx(np.full(5, 1.25), abs=1e-9)

    def test_affine_field(self):
        grid, (a, b, c, d) = affine_grid()
        v = voyage_of(
            "V1",
            [make_sample(600.0 * i, lat=0.2 * i, lon=10.0 + 0.3 * i) for i in range(4)],
        )
        out, dropped = attach_weather(v, [grid])
        assert dropped == 0
        expected = a * out.t + b * out.lat + c * out.lon + d
        assert out.channels["affine"] == pytest.approx(expected, abs=1e-6)

    def test_out_of_range_dropped(self):
        grid = constant_grid("WaveHeight", 1.0, t_max=150.0)
        v, dropped = attach_weather(self.voyage(5), [grid])
        assert dropped == 2
        assert len(v) == 3

    def test_all_dropped_raises(self):
        grid = constant_grid("WaveHeight", 1.0, t_max=50.0)
        with pytest.raises(InsufficientDataError):
            attach_weather(self.voyage(5), [grid])
