import csv
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import make_sample, voyage_of
from voyagekit import store
from voyagekit.errors import (
    ConfigurationError,
    InsufficientDataError,
    InvalidInputError,
    MissingDataError,
    OutOfDomainError,
    SchemaError,
    VoyagekitError,
)
from voyagekit.geo import GeoPoint, is_angle, merge_tracks
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

    def test_duplicate_column_rejected(self, tmp_path):
        header = HEADER + ",Note, latitude ,note"
        path = write_onboard(tmp_path, ["0,1.0,2.0,5.0,90.0,50.0,3.0,200.0,x,7.0,y"], header=header)
        with pytest.raises(SchemaError, match="column 'Latitude' appears more than once"):
            parse_onboard_csv(path)
        # An unused column may repeat.
        path = write_onboard(tmp_path, ["0,1.0,2.0,5.0,90.0,50.0,3.0,200.0,x,y"], header=HEADER + ",Note,note")
        assert parse_onboard_csv(path)[0].lat.tolist() == [1.0]

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

    def test_duplicate_column_rejected(self, tmp_path):
        path = write_grid_text(tmp_path, "time,lat,lon,value,LAT\n" + "\n".join(
            f"{line},5.0" for line in LATTICE.splitlines()
        ))
        with pytest.raises(SchemaError, match="column 'lat' appears more than once"):
            parse_weather_grid(path)

    def test_variable_from_stem(self, tmp_path):
        path = lattice_csv(tmp_path, full_lattice_rows(lambda *a: 0.0), name="WindSpeed_cps.csv")
        assert parse_weather_grid(path).variable == "WindSpeed_cps"


def reference_parse_weather_grid(path):
    """The row-by-row parser parse_weather_grid replaced, kept as its oracle."""
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"weather file not found: {path}")
    rows: dict[tuple[float, float, float], float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: file is empty") from None
        try:
            idx = {name: header.index(name) for name in ("time", "lat", "lon", "value")}
        except ValueError as exc:
            raise SchemaError(f"{path}: expected columns time, lat, lon, value") from exc
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                key = (
                    float(row[idx["time"]]),
                    float(row[idx["lat"]]),
                    float(row[idx["lon"]]),
                )
                value = float(row[idx["value"]])
            except (ValueError, IndexError) as exc:
                raise InvalidInputError(f"{path}: unparseable row {row!r}") from exc
            if key in rows and not (
                rows[key] == value or (math.isnan(rows[key]) and math.isnan(value))
            ):
                raise InvalidInputError(
                    f"{path}: conflicting values at (time, lat, lon)={key}: "
                    f"{rows[key]} vs {value}"
                )
            rows[key] = value
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    times = np.array(sorted({k[0] for k in rows}))
    lats = np.array(sorted({k[1] for k in rows}))
    lons = np.array(sorted({k[2] for k in rows}))
    values = np.full((len(times), len(lats), len(lons)), np.nan)
    t_pos = {v: i for i, v in enumerate(times)}
    la_pos = {v: i for i, v in enumerate(lats)}
    lo_pos = {v: i for i, v in enumerate(lons)}
    for (t, la, lo), value in rows.items():
        values[t_pos[t], la_pos[la], lo_pos[lo]] = value
    return WeatherGrid(variable=path.stem, times=times, lats=lats, lons=lons, values=values)


def outcome(parse, path):
    """A parse result as comparable bytes, or the error's type and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = parse(path)
    except (InvalidInputError, SchemaError) as exc:
        return type(exc).__name__, str(exc)
    return grid.variable, *(getattr(grid, a).tobytes() for a in ("times", "lats", "lons", "values"))


def write_grid_text(tmp_path, text, name="WaveHeight.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


LATTICE = "\n".join(",".join(map(str, r)) for r in full_lattice_rows(lambda t, la, lo: la + lo / 8))
# A quoted cell in every fixture: csv-style quoting must parse as before.
QUOTED = LATTICE.replace("1.0,10.0,", '"1.0",10.0,', 1)

HEAD = "time,lat,lon,value\n"
# Cell (0, 0, 10) spelled with signed zeros; -0.0 == 0.0, so the rows agree.
SIGNED_ZERO = "0.0,-0.0,10.0,-0.0\n" + QUOTED.replace("0.0,0.0,10.0,1.25", "0.0,0.0,10.0,0.0")

GRID_CASES = {
    "reordered_upper_padded_header": " VALUE ,Lon, LAT,Time \n" + "\n".join(
        ",".join(reversed(line.split(","))) for line in QUOTED.splitlines()
    ),
    "extra_columns": "source,time,lat,lon,value,flag\n" + "\n".join(
        f"x,{line},{i}" for i, line in enumerate(QUOTED.splitlines())
    ),
    # Split at every comma, each row would shift its used cells onto the next column.
    "quoted_comma_extra_column": "source,time,lat,lon,value\n" + "\n".join(
        f'"a,{i}",{line}' for i, line in enumerate(LATTICE.splitlines())
    ),
    "missing_column": "time,lat,lon,val\n" + QUOTED,
    "blank_lines": HEAD + "\n" + QUOTED.replace("\n", "\n\n\n", 2) + "\n\n",
    "all_blank_rows": HEAD + ",,,\n" + LATTICE.replace("\n", "\n , ,\t,\n", 3),
    "quoted_cells": HEAD + "\n".join(
        ",".join(f'" {c} "' for c in line.split(",")) for line in LATTICE.splitlines()
    ),
    "python_float_spellings": HEAD + LATTICE.replace("3600.0", "36_00").replace("11.0", " +1_1 "),
    "crlf": HEAD.replace("\n", "\r\n") + QUOTED.replace("\n", "\r\n") + "\r\n",
    "nan_duplicates": HEAD + QUOTED.replace("1.375", "nan") + "\n0.0,0.0,11.0,NaN\n0.0,0.0,11.0,nan\n",
    "nan_conflict": HEAD + QUOTED.replace("1.375", "nan") + "\n0.0,0.0,11.0,1.0\n",
    # The first conflict in file order has the larger key.
    "conflicting_duplicate": HEAD + QUOTED + "\n3600.0,1.0,10.0,9.5\n0.0,1.0,11.0,1.125\n",
    "signed_zero": HEAD + SIGNED_ZERO,
    "signed_zero_conflict": HEAD + SIGNED_ZERO + "\n-0.0,0.0,10.0,-0.0\n0.0,-0.0,10.0,5.0\n",
    # Large enough that an unstable sort would pick the 0.0 spelling of the lat axis.
    "signed_zero_large": HEAD + "0.0,-0.0,0.0,1.0\n" + "\n".join(
        f"{t}.0,{la}.0,{lo}.0,1.0" for t in range(2) for la in range(2) for lo in range(300)
    ),
    "unparseable_row": HEAD + QUOTED + "\n3600.0,abc,10.0,1.0\n",
    "short_row": HEAD + QUOTED + "\n3600.0,1.0\n",
    "empty_value": HEAD + QUOTED.replace("\n", "\n0.0,0.0,10.0,\n", 1),
    "conflict_before_bad_row": HEAD + QUOTED + "\n0.0,0.0,10.0,7.0\n,1,2,\n",
    "bad_row_before_conflict": HEAD + QUOTED + "\n,1,2,\n0.0,0.0,10.0,7.0\n",
    "empty_file": "",
    "header_only": HEAD,
    "blank_rows_only": HEAD + ",,,\n\n",
}


class TestParseWeatherGridMatchesReference:
    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_case(self, tmp_path, case):
        path = write_grid_text(tmp_path, GRID_CASES[case])
        expected = outcome(reference_parse_weather_grid, path)
        assert outcome(parse_weather_grid, path) == expected
        with rowwise():
            assert outcome(parse_weather_grid, path) == expected

    def test_cases_cover_both_outcomes(self, tmp_path):
        kinds = {
            outcome(parse_weather_grid, write_grid_text(tmp_path, text))[0]
            for text in GRID_CASES.values()
        }
        assert kinds == {"WaveHeight", "InvalidInputError", "SchemaError"}

    def test_conflict_message_names_plain_floats(self, tmp_path):
        path = write_grid_text(tmp_path, GRID_CASES["conflicting_duplicate"])
        with pytest.raises(InvalidInputError) as info:
            parse_weather_grid(path)
        assert str(info.value).endswith(
            "conflicting values at (time, lat, lon)=(3600.0, 1.0, 10.0): 2.25 vs 9.5"
        )

    def test_nan_coordinate_is_invalid_input(self, tmp_path):
        # The reference crashed on this file with a KeyError.
        path = write_grid_text(tmp_path, "time,lat,lon,value\n" + LATTICE + "\nnan,0.0,10.0,1.0\n")
        with pytest.raises(InvalidInputError, match=r"NaN coordinate at \(time, lat, lon\)=\(nan, 0.0, 10.0\)"):
            parse_weather_grid(path)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_lattices(self, tmp_path_factory, data):
        axis = st.lists(
            st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: x + 0.0), min_size=1, max_size=4, unique=True
        )
        times, lats, lons = data.draw(axis), data.draw(axis), data.draw(axis)
        cells = [(t, la, lo) for t in times for la in lats for lo in lons]
        present = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        rows = []
        for cell, keep in zip(cells, present):
            if keep:
                value = data.draw(st.floats(allow_infinity=True, allow_nan=True))
                rows += [(*cell, value)] * data.draw(st.integers(1, 3))
        rows = data.draw(st.permutations(rows))
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = newline.join(["time,lat,lon,value", *(",".join(map(repr, r)) for r in rows)]) + newline
        path = write_grid_text(tmp_path_factory.mktemp("grid"), text)
        assert outcome(parse_weather_grid, path) == outcome(reference_parse_weather_grid, path)


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

    def test_nan_axis_rejected(self):
        with pytest.raises(InvalidInputError, match="lat axis"):
            WeatherGrid("x", np.array([0.0, 1.0]), np.array([0.0, np.nan]), np.array([0.0, 1.0]),
                        np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("edge", [math.inf, -math.inf])
    def test_infinite_axis_rejected(self, edge):
        lons = np.sort(np.array([0.0, edge]))
        with pytest.raises(InvalidInputError, match="lon axis must be finite"):
            WeatherGrid("x", np.array([0.0, 1.0]), np.array([0.0, 1.0]), lons, np.zeros((2, 2, 2)))


def reference_interpolate_many(grid, times, lats, lons):
    """WeatherGrid.interpolate_many written out per axis, with three nested corner loops."""
    t = np.asarray(times, dtype=float)
    la = np.asarray(lats, dtype=float)
    lo = np.asarray(lons, dtype=float)
    status = np.zeros(t.shape, dtype=np.int8)
    out = (
        (t < grid.times[0]) | (t > grid.times[-1])
        | (la < grid.lats[0]) | (la > grid.lats[-1])
        | (lo < grid.lons[0]) | (lo > grid.lons[-1])
        | ~np.isfinite(t) | ~np.isfinite(la) | ~np.isfinite(lo)
    )
    status[out] = 1

    def cell_index(axis, q):
        idx = np.searchsorted(axis, q, side="right") - 1
        return np.clip(idx, 0, len(axis) - 2)

    it = cell_index(grid.times, t)
    ila = cell_index(grid.lats, la)
    ilo = cell_index(grid.lons, lo)

    def frac(axis, idx, q):
        lo_edge = axis[idx]
        hi_edge = axis[idx + 1]
        return (q - lo_edge) / (hi_edge - lo_edge)

    ft = frac(grid.times, it, t)
    fla = frac(grid.lats, ila, la)
    flo = frac(grid.lons, ilo, lo)

    result = np.zeros(t.shape, dtype=float)
    corner_missing = np.zeros(t.shape, dtype=bool)
    angle, first = is_angle(grid.variable), grid.values[it, ila, ilo]
    for dt in (0, 1):
        for dla in (0, 1):
            for dlo in (0, 1):
                corner = grid.values[it + dt, ila + dla, ilo + dlo]
                if angle:
                    corner = np.where(corner - first > 180.0, corner - 360.0,
                                      np.where(corner - first < -180.0, corner + 360.0, corner))
                corner_missing |= ~np.isfinite(corner)
                w = (
                    (ft if dt else 1.0 - ft)
                    * (fla if dla else 1.0 - fla)
                    * (flo if dlo else 1.0 - flo)
                )
                result = result + w * np.where(np.isfinite(corner), corner, 0.0)
    status[(status == 0) & corner_missing] = 2
    result[status != 0] = np.nan
    return (result % 360.0 if angle else result), status


@st.composite
def grid_and_queries(draw):
    """Axes of 2-5 nodes, cells with NaN and -0.0, and queries inside, on nodes, outside and non-finite."""
    node = st.floats(-1e3, 1e3, allow_nan=False)
    axes = []
    for _ in range(3):
        axis = np.array(sorted(draw(st.lists(node, min_size=2, max_size=5))))
        assume(np.all(np.diff(axis) > 0))
        axes.append(axis)
    cell = st.floats(-720.0, 720.0) | st.sampled_from([-0.0, 0.0, 180.0, -180.0, math.nan])
    if draw(st.booleans()):  # a few repeated values, so whole cells can be -0.0 or NaN
        cell = st.sampled_from(draw(st.lists(cell, min_size=1, max_size=3)))
    size = math.prod(map(len, axes))
    values = np.array(draw(st.lists(cell, min_size=size, max_size=size)))
    n = draw(st.integers(1, 12))
    queries = []
    for axis in axes:
        lo, hi = float(axis[0]), float(axis[-1])
        coordinate = (
            st.floats(lo, hi) | st.sampled_from(axis.tolist()) | st.floats(lo - 50.0, hi + 50.0)
            | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
        )
        queries.append(np.array(draw(st.lists(coordinate, min_size=n, max_size=n))))
    return axes, values.reshape([len(a) for a in axes]), queries


class TestInterpolateManyMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(grid_and_queries())
    def test_bit_for_bit(self, case):
        axes, values, queries = case
        for variable in ("WindDirection_cps", "WindSpeed_cps"):
            grid = WeatherGrid(variable, *axes, values)
            with np.errstate(invalid="ignore"):  # an infinite query's weights
                got, status = grid.interpolate_many(*queries)
                want, want_status = reference_interpolate_many(grid, *queries)
            assert got.tobytes() == want.tobytes()
            assert status.dtype == want_status.dtype and status.tobytes() == want_status.tobytes()


UNIT_AXES = (np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))
unit_queries = st.tuples(*[st.floats(0.0, 1.0)] * 3)


def circular_gap(a, b):
    return abs((a - b + 180.0) % 360.0 - 180.0)


class TestCircularInterpolation:
    """*Direction* grids blend their corners along the short arc."""

    def test_wrapping_corners_blend_through_north(self):
        values = np.array([350.0, 10.0] * 4).reshape(2, 2, 2)
        grid = WeatherGrid("WaveDirection", *UNIT_AXES, values)
        got, status = grid.interpolate_many(np.array([0.5]), np.array([0.5]), np.array([0.5]))
        assert status.tolist() == [0]
        assert circular_gap(got[0], 0.0) <= 1e-12
        assert 0.0 <= got[0] < 360.0

    @settings(max_examples=200)
    @given(
        st.lists(st.floats(0.0, 179.0), min_size=8, max_size=8),
        st.floats(0.0, 360.0),
        st.floats(-720.0, 720.0),
        unit_queries,
    )
    def test_rotation_equivariant(self, offsets, start, rotation, query):
        # Corners spanning less than 180 degrees, anywhere on the circle.
        base = (start + np.array(offsets)) % 360.0
        q = [np.array([x]) for x in query]
        got = [
            WeatherGrid("WindDirection_cps", *UNIT_AXES, corners.reshape(2, 2, 2)).interpolate_many(*q)[0][0]
            for corners in (base, (base + rotation) % 360.0)
        ]
        assert circular_gap(got[1], got[0] + rotation) <= 1e-9

    @given(st.lists(st.floats(0.0, 180.0), min_size=8, max_size=8), unit_queries)
    def test_non_wrapping_blend_is_linear_bit_for_bit(self, corners, query):
        values = np.array(corners).reshape(2, 2, 2)
        q = [np.array([x]) for x in query]
        angle, _ = WeatherGrid("CurrentDirection", *UNIT_AXES, values).interpolate_many(*q)
        linear, _ = WeatherGrid("CurrentSpeed", *UNIT_AXES, values).interpolate_many(*q)
        assert angle.tobytes() == (linear % 360.0).tobytes()


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

    def test_antimeridian_crossing_raises(self):
        lons = [179.8, -179.8, -179.6, -179.4, -179.2, -179.0]
        v = voyage_of("V1", [make_sample(i * 30.0, lon=lon) for i, lon in enumerate(lons)])
        with pytest.raises(InvalidInputError, match=r"^voyage 'V1' crosses ±180° longitude: "
                                                    r"samples 0 and 1 have longitudes 179.8 and -179.8$"):
            resample_voyage(v, period=60.0)

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
        v, dropped, reasons = attach_weather(self.voyage(), [constant_grid("WaveHeight", 1.25)])
        assert dropped == 0
        assert reasons == {"out_of_domain": 0, "missing_corner": 0}
        assert v.channels["WaveHeight"] == pytest.approx(np.full(5, 1.25), abs=1e-9)

    def test_affine_field(self):
        grid, (a, b, c, d) = affine_grid()
        v = voyage_of(
            "V1",
            [make_sample(600.0 * i, lat=0.2 * i, lon=10.0 + 0.3 * i) for i in range(4)],
        )
        out, dropped, _ = attach_weather(v, [grid])
        assert dropped == 0
        expected = a * out.t + b * out.lat + c * out.lon + d
        assert out.channels["affine"] == pytest.approx(expected, abs=1e-6)

    def test_out_of_range_dropped(self):
        grid = constant_grid("WaveHeight", 1.0, t_max=150.0)
        v, dropped, reasons = attach_weather(self.voyage(5), [grid])
        assert dropped == 2
        assert reasons == {"out_of_domain": 2, "missing_corner": 0}
        assert len(v) == 3

    def test_drops_split_by_reason(self):
        # Samples 1 and 4 (lat 1) need the holed grid's missing (lat 5, lon 15) cell;
        # sample 4 (t = 240 s) is also past the short grid, so it counts once, as out of domain.
        short = constant_grid("WaveHeight", 1.0, t_max=200.0)
        values = np.full((2, 3, 3), 3.0)
        values[0, 2, 2] = np.nan
        holed = WeatherGrid("WindSpeed", np.array([0.0, 10_000.0]), np.array([-5.0, 0.0, 5.0]),
                            np.array([5.0, 10.0, 15.0]), values)
        v = voyage_of("V1", [make_sample(i * 60.0, lat=1.0 if i in (1, 4) else -1.0, lon=10.5 + 0.1 * i)
                             for i in range(5)])
        out, dropped, reasons = attach_weather(v, [short, holed])
        assert (dropped, len(out)) == (2, 3)
        assert reasons == {"out_of_domain": 1, "missing_corner": 1}

    def test_all_dropped_raises(self):
        grid = constant_grid("WaveHeight", 1.0, t_max=50.0)
        with pytest.raises(InsufficientDataError):
            attach_weather(self.voyage(5), [grid])


# Cell spellings where np.loadtxt and float() may part ways; each test file gets a few.
SPELLINGS = ["", " ", "\t", "  2.5 ", '"3.5"', '" 4.5 "', '"4,5"', "nan", "-nan", "NaN", "inf",
             "-Infinity", "1_0", " +1_1 ", "2024-01-01T00:00:00Z", "2024-01-01 00:10:00", "x",
             "+7", ".5", "1e5", "-0.0", "1e400"]


@st.composite
def numeric_csv(draw, header):
    """A CSV text under `header`: numeric rows, then cell and line edits from SPELLINGS."""
    rows = []
    for i in range(draw(st.integers(1, 6))):
        # Valid samples mostly; a negative speed or fuel makes an invalid one.
        row = [60.0 * i, draw(st.floats(-1, 1)), draw(st.floats(-1, 1)), draw(st.floats(-0.5, 9)),
               draw(st.floats(0, 720)), draw(st.floats(-1, 60))]
        rows.append([repr(v) for v in row + [draw(st.floats()) for _ in header[len(row):]]])
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(SPELLINGS))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from([
            lines[i].rsplit(",", 1)[0],  # a short row
            lines[i] + ",1.0",  # a long row
            "",  # a blank line
            "," * (len(header) - 1),  # a row of blank cells
            "  ",
            lines[i],
        ]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([",".join(header), *lines]) + draw(st.sampled_from(["", newline]))


def read_outcome(read, path):
    """A reader's columns and count as bytes, or its error's type and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = read(path)
    except VoyagekitError as exc:
        return type(exc).__name__, str(exc)
    track, skipped = result if isinstance(result, tuple) else (result, None)
    columns = {name: getattr(track, name) for name in ("t", "lat", "lon", "sog", "heading", "fuel")}
    columns.update(track.channels)
    return skipped, [(name, c.dtype.str, c.tobytes()) for name, c in columns.items()]


def rowwise():
    """The readers with the one-call parse failing: every file goes row by row."""
    return mock.patch.object(np, "loadtxt", side_effect=ValueError("forced row by row"))


class TestLoadtxtReadersMatchRowwise:
    ONBOARD = ["Timestamp", " latitude", "LONGITUDE", "SpeedOverGround", "HeadingMagnetic",
               "EngineFuelRate", "WindSpeed_onb", "WindDirection_onb", "Note"]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_onboard(self, tmp_path_factory, data):
        header = data.draw(st.sampled_from([self.ONBOARD, self.ONBOARD[:6], self.ONBOARD[:7]]))
        path = write_grid_text(tmp_path_factory.mktemp("onboard"), data.draw(numeric_csv(header)))
        expected = read_outcome(parse_onboard_csv, path)
        with rowwise():
            assert read_outcome(parse_onboard_csv, path) == expected

    @pytest.mark.parametrize("rows", [
        "", "\n\n", ",,,,,,,\n", "  \n", '"0.0","0.0","0.0","5.0","90.0","50.0","3.0","1.0"\n',
        "0,0,0,5,90,50,3,1\r\n\r\n", "2024-01-01T00:00:00Z,0,0,5,90,50,3,1\n",
        "1_0,0,0,5,90,50,3,1\n", "0, 0 ,0,5,90,50,3,1\n60,0,0,5,90,50,-inf,nan\n",
    ], ids=["header-only", "blank-lines", "blank-cells", "spaces", "quoted", "crlf-blank-tail",
            "iso-time", "underscore", "spaces-inf-nan"])
    def test_edge_files(self, tmp_path, rows):
        path = write_grid_text(tmp_path, ",".join(self.ONBOARD[:8]) + "\n" + rows)
        expected = read_outcome(parse_onboard_csv, path)
        with rowwise():
            assert read_outcome(parse_onboard_csv, path) == expected

    def test_quoted_comma_before_the_used_columns(self, tmp_path):
        # Split at every comma, this row would shift each used cell onto one that parses.
        header = "Note,Junk,Timestamp,Latitude,Longitude,SpeedOverGround,HeadingMagnetic,EngineFuelRate"
        path = write_onboard(tmp_path, ['"n,0",7,60,0,0,5,90,50', "y,7,120,0,0,5,90,50"], header)
        track, skipped = parse_onboard_csv(path)
        assert skipped == 0 and track.t.tolist() == [60.0, 120.0] and track.fuel.tolist() == [50.0] * 2

    def test_well_formed_files_take_one_call(self, tmp_path, monkeypatch):
        calls = []
        original = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or original(*a, **k))
        path = write_onboard(tmp_path, ["0,0.0,0.0,5.0,90.0,50.0,3.0,200.0",
                                        "60,0.0,0.01,5.0,90.0,50.0,3.0,200.0"])
        track, _ = parse_onboard_csv(path)
        store.write_store([voyage_of("V1", [make_sample(60.0 * i) for i in range(3)])], tmp_path / "s")
        [voyage] = store.read_store(tmp_path / "s")
        assert calls == [1]  # the onboard file; the store is binary and parses no text
        assert track.t.tolist() == [0.0, 60.0] and voyage.t.tolist() == [0.0, 60.0, 120.0]
