from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import given, strategies as st

import voyagekit
from conftest import make_sample, make_track, voyage_of
from voyagekit.errors import ConfigurationError, InvalidInputError, MissingDataError
from voyagekit.geo import (
    GeoPoint,
    RouteSegmentSpec,
    merge_tracks,
    point_in_polygon,
    split_into_voyages,
    valid_samples,
)
from voyagekit.path_id import Path, fit_segment_gmms

class TestGeoPoint:
    def test_valid(self):
        p = GeoPoint(57.7, 11.9)
        assert p.lat == 57.7

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-91, 0), (0, 181), (0, -181)])
    def test_out_of_range(self, lat, lon):
        with pytest.raises(InvalidInputError):
            GeoPoint(lat, lon)

    @pytest.mark.parametrize("lat,lon", [(float("nan"), 0), (0, float("inf"))])
    def test_non_finite(self, lat, lon):
        with pytest.raises(InvalidInputError):
            GeoPoint(lat, lon)


SQUARE = [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]


class TestAssignSegment:
    """RouteSegmentSpec validation, and points assigned to the first containing segment."""

    def test_overlap_resolved_by_order(self):
        # Every training point lies in both polygons (the even-odd check
        # confirms it), so all count toward the first segment and the
        # second is left with none, whichever polygon comes first.
        big = [[-1.0, -1.0], [-1.0, 2.0], [2.0, 2.0], [2.0, -1.0]]
        rng = np.random.default_rng(3)
        paths = [Path(f"V{i}", rng.uniform(0.1, 0.9, (20, 2))) for i in range(2)]
        assert point_in_polygon(paths[0].points[:, 0], paths[0].points[:, 1], np.array(SQUARE)).all()
        assert point_in_polygon(paths[0].points[:, 0], paths[0].points[:, 1], np.array(big)).all()
        labels = {"V0": "a", "V1": "b"}
        for first, second in ((SQUARE, big), (big, SQUARE)):
            spec = RouteSegmentSpec([("first", first), ("second", second)])
            with pytest.raises(ConfigurationError, match="'second' has 0 training points"):
                fit_segment_gmms(paths, labels, spec)

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            RouteSegmentSpec([])

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(ConfigurationError):
            RouteSegmentSpec([("line", [[0, 0], [1, 1]])])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            RouteSegmentSpec([("a", SQUARE), ("a", SQUARE)])

    def test_json_round_trip(self, tmp_path):
        spec = RouteSegmentSpec([("box", SQUARE)])
        spec.to_json(tmp_path / "seg.json")
        loaded = RouteSegmentSpec.from_json(tmp_path / "seg.json")
        assert loaded.names == ["box"]


def scalar_point_in_polygon(lat, lon, polygon):
    """Reference: the per-point even-odd loop, one edge at a time."""
    inside = False
    n = len(polygon)
    for i in range(n):
        la1, lo1 = polygon[i]
        la2, lo2 = polygon[(i + 1) % n]
        if (lo1 > lon) != (lo2 > lon):
            x = la1 + (lon - lo1) * (la2 - la1) / (lo2 - lo1)
            if lat < x:
                inside = not inside
    return inside


class TestPointInPolygon:
    def test_scalar_input_gives_bool(self):
        assert point_in_polygon(0.5, 0.5, np.array(SQUARE)) is True
        assert point_in_polygon(2.0, 0.5, np.array(SQUARE)) is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_array_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            k = int(rng.integers(3, 9))
            poly = rng.uniform(-2.0, 2.0, size=(k, 2))
            if trial % 2:  # edges at constant longitude: the division is 0/0 there
                poly[1::2, 1] = poly[0::2, 1][: len(poly[1::2])]
            # Random points, plus points exactly on vertex longitudes and latitudes.
            lat, lon = rng.uniform(-2.5, 2.5, size=(2, 150 + k))
            lat = np.concatenate([lat, poly[:, 0]])
            lon = np.concatenate([lon[:150], poly[:, 1], lon[150:]])
            got = point_in_polygon(lat, lon, poly)
            expected = [scalar_point_in_polygon(a, o, poly) for a, o in zip(lat, lon)]
            assert got.dtype == bool and got.tolist() == expected


class TestLocate:
    BIG = [[-1.0, -1.0], [-1.0, 2.0], [2.0, 2.0], [2.0, -1.0]]

    def test_first_polygon_wins(self):
        inner_first = RouteSegmentSpec([("square", SQUARE), ("big", self.BIG)])
        big_first = RouteSegmentSpec([("big", self.BIG), ("square", SQUARE)])
        assert inner_first.locate(0.5, 0.5) == 0 and big_first.locate(0.5, 0.5) == 0
        assert inner_first.locate(1.5, 1.5) == 1 and big_first.locate(1.5, 1.5) == 0

    def test_outside_every_polygon(self):
        spec = RouteSegmentSpec([("square", SQUARE), ("big", self.BIG)])
        assert spec.locate(5.0, 0.5) == -1
        assert spec.locate([5.0, 0.5], [0.5, -3.0]).tolist() == [-1, -1]

    def test_scalar_and_array_input(self):
        spec = RouteSegmentSpec([("square", SQUARE), ("big", self.BIG)])
        assert type(spec.locate(0.5, 0.5)) is int
        lat = np.array([[0.5, 1.5], [5.0, 0.25]])
        lon = np.array([[0.5, 1.5], [0.5, 0.75]])
        got = spec.locate(lat, lon)
        assert got.shape == (2, 2) and got.dtype.kind == "i"
        assert got.tolist() == [[0, 1], [-1, 0]]

    def test_matches_first_containing_polygon(self):
        rng = np.random.default_rng(13)
        polygons = [rng.uniform(-2.0, 2.0, size=(int(rng.integers(3, 7)), 2)) for _ in range(4)]
        spec = RouteSegmentSpec([(f"p{i}", poly) for i, poly in enumerate(polygons)])
        lat, lon = rng.uniform(-2.5, 2.5, size=(2, 400))
        expected = [
            next((i for i, poly in enumerate(polygons) if scalar_point_in_polygon(a, o, poly)), -1)
            for a, o in zip(lat, lon)
        ]
        assert spec.locate(lat, lon).tolist() == expected

    def test_only_geo_calls_point_in_polygon(self):
        # Every polygon lookup goes through RouteSegmentSpec.locate.
        package = FilePath(voyagekit.__file__).parent
        callers = sorted(
            p.name for p in package.glob("*.py") if "point_in_polygon" in p.read_text(encoding="utf-8")
        )
        assert callers == ["geo.py"]


def _port_spec():
    return RouteSegmentSpec(
        [("port_a", [[-0.01, -0.01], [-0.01, 0.01], [0.01, 0.01], [0.01, -0.01]])]
    )


class TestSplitIntoVoyages:
    def test_continuous_single_voyage(self):
        samples = [make_sample(i * 10.0) for i in range(20)]
        result = split_into_voyages(make_track(samples), gap_threshold=60.0)
        assert len(result.voyages) == 1
        assert len(result.voyages[0]) == 20
        assert result.dropped_count == 0

    def test_gap_splits_in_two(self):
        samples = [make_sample(i * 10.0) for i in range(10)]
        samples += [make_sample(90.0 + 120.0 + i * 10.0) for i in range(10)]
        result = split_into_voyages(make_track(samples), gap_threshold=60.0)
        assert [len(v) for v in result.voyages] == [10, 10]
        assert [v.voyage_id for v in result.voyages] == ["V0001", "V0002"]

    def test_trailing_singleton_dropped(self):
        samples = [make_sample(i * 10.0) for i in range(5)]
        samples.append(make_sample(1000.0))
        result = split_into_voyages(make_track(samples), gap_threshold=60.0)
        assert len(result.voyages) == 1
        assert result.dropped_count == 1

    def test_port_dwell_splits(self):
        # Sail, dwell 130 s almost stationary inside the port box, sail again.
        samples = [make_sample(i * 10.0, lat=0.5, sog=5.0) for i in range(5)]
        samples += [make_sample(50.0 + i * 10.0, lat=0.0, lon=0.0, sog=0.1) for i in range(14)]
        samples += [make_sample(190.0 + i * 10.0, lat=-0.5, sog=5.0) for i in range(5)]
        result = split_into_voyages(make_track(samples), gap_threshold=3600.0, port_regions=_port_spec())
        assert len(result.voyages) == 2
        # Dwell samples stay with the first leg.
        assert len(result.voyages[0]) == 19
        assert len(result.voyages[1]) == 5

    def test_short_dwell_does_not_split(self):
        samples = [make_sample(i * 10.0, lat=0.5, sog=5.0) for i in range(5)]
        samples += [make_sample(50.0 + i * 10.0, sog=0.1) for i in range(5)]  # 40 s dwell
        samples += [make_sample(100.0 + i * 10.0, lat=-0.5, sog=5.0) for i in range(5)]
        result = split_into_voyages(make_track(samples), gap_threshold=3600.0, port_regions=_port_spec())
        assert len(result.voyages) == 1

    def test_fast_transit_through_port_does_not_split(self):
        samples = [make_sample(i * 10.0, sog=5.0) for i in range(30)]
        result = split_into_voyages(make_track(samples), gap_threshold=3600.0, port_regions=_port_spec())
        assert len(result.voyages) == 1

    def test_unordered_rejected(self):
        samples = [make_sample(100.0), make_sample(50.0)]
        with pytest.raises(InvalidInputError):
            split_into_voyages(make_track(samples), gap_threshold=60.0)

    def test_bad_gap_threshold(self):
        with pytest.raises(ConfigurationError):
            split_into_voyages(make_track([make_sample(0.0)]), gap_threshold=0.0)

    def test_dwell_splits_match_per_sample_loop(self):
        # Reference: the per-sample loop testing each sample against every port.
        spec = RouteSegmentSpec(
            [("a", [[-0.01, -0.01], [-0.01, 0.01], [0.01, 0.01], [0.01, -0.01]]),
             ("b", [[0.99, 0.99], [0.99, 1.01], [1.01, 1.01], [1.01, 0.99]])]
        )

        def reference_starts(track, gap, dwell_threshold, dwell_max_sog):
            def in_port_dwell(lat, lon, sog):
                if sog >= dwell_max_sog:
                    return False
                return any(scalar_point_in_polygon(lat, lon, poly) for _, poly in spec.segments)

            starts, dwell_start, prev_ts = [0], None, None
            for i, (ts, lat, lon, sog) in enumerate(zip(track.t, track.lat, track.lon, track.sog)):
                split_here = prev_ts is not None and ts - prev_ts > gap
                if prev_ts is not None and not split_here and dwell_start is not None:
                    if not in_port_dwell(lat, lon, sog) and prev_ts - dwell_start >= dwell_threshold:
                        split_here = True
                if split_here:
                    starts.append(i)
                    dwell_start = None
                if in_port_dwell(lat, lon, sog):
                    if dwell_start is None:
                        dwell_start = ts
                else:
                    dwell_start = None
                prev_ts = ts
            return starts

        rng = np.random.default_rng(5)
        for trial in range(120):
            n = 300
            # Runs of 1 to 10 samples in port a, port b or at sea, jittered
            # across the port edges; speeds at, below and above the dwell
            # limit. Steps of 0 repeat a timestamp; steps of 200 are gaps,
            # also inside dwells.
            centre = np.repeat(rng.choice([0.0, 1.0, 0.5], n), rng.integers(1, 11, n))[:n]
            times = np.cumsum(rng.choice([0, 5, 10, 30, 200], n, p=[0.1, 0.25, 0.3, 0.32, 0.03]))
            sogs = rng.choice([0.1, 0.4, 0.5, 0.6, 5.0], n, p=[0.4, 0.4, 0.1, 0.05, 0.05])
            jitter = rng.uniform(-0.012, 0.012, size=(n, 2))
            samples = [
                make_sample(float(t), lat=c + dlat, lon=c + dlon, sog=float(sog))
                for t, c, (dlat, dlon), sog in zip(times, centre, jitter, sogs)
            ]
            track = make_track(samples)
            dwell_threshold = (0.0, 10.0, 60.0)[trial % 3]
            result = split_into_voyages(track, gap_threshold=100.0, port_regions=spec,
                                        dwell_threshold=dwell_threshold, dwell_max_sog=0.5)
            starts = reference_starts(track, 100.0, dwell_threshold, 0.5)
            kept = [(a, b) for a, b in zip(starts, [*starts[1:], n]) if b - a >= 2]
            assert [(len(v), v.t[0]) for v in result.voyages] == [(b - a, track.t[a]) for a, b in kept]
            dropped = [i for a, b in zip(starts, [*starts[1:], n]) if b - a < 2 for i in range(a, b)]
            assert result.dropped_samples.t.tolist() == track.t[dropped].tolist()

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=60))
    def test_partition_property(self, deltas):
        # Voyages plus dropped singletons reproduce the input sample multiset.
        ts = np.cumsum(deltas).astype(float)
        samples = [make_sample(float(t)) for t in ts]
        result = split_into_voyages(make_track(samples), gap_threshold=15.0)
        recovered = np.concatenate([v.t for v in result.voyages] + [result.dropped_samples.t])
        assert sorted(recovered) == sorted(s["t"] for s in samples)
        for v in result.voyages:
            assert len(v) >= 2


class TestVoyage:
    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            voyage_of("x", [make_sample(0.0)])

    def test_unordered(self):
        with pytest.raises(InvalidInputError):
            voyage_of("x", [make_sample(10.0), make_sample(0.0)])

    @pytest.mark.parametrize(
        "bad",
        [{"lat": 91.0}, {"lon": float("nan")}, {"sog": -0.5}, {"t": float("nan")},
         {"heading": float("nan")}, {"fuel": float("inf")}, {"fuel": -1.0}],
    )
    def test_invalid_sample_names_voyage(self, bad):
        samples = [make_sample(0.0), {**make_sample(60.0), **bad}]
        with pytest.raises(InvalidInputError, match="voyage 'V7' sample 1"):
            voyage_of("V7", samples)

    def test_valid_samples_mask(self):
        good = [0.0, 57.0, 11.0, 5.0, 90.0, 40.0]
        cases = [good, [np.nan, *good[1:]], [*good[:4], np.inf, 40.0], [*good[:5], -0.1],
                 [0.0, -90.0, 180.0, 0.0, 0.0, 0.0]]
        assert valid_samples(*np.array(cases).T).tolist() == [True, False, False, False, True]

    def test_columns_stacks_in_order(self):
        v = voyage_of("V1", [make_sample(0.0, lat=1.0, sog=3.0, weather={"W": 7.0}),
                             make_sample(60.0, lat=2.0, sog=4.0, weather={"W": 8.0})])
        assert v.columns("W", "lat", "sog").tolist() == [[7.0, 1.0, 3.0], [8.0, 2.0, 4.0]]

    def test_columns_absent_channel(self):
        v = voyage_of("V1", [make_sample(0.0), make_sample(60.0)])
        with pytest.raises(MissingDataError, match="'W'"):
            v.columns("lat", "W")

    def test_columns_channel_with_missing_cell(self):
        v = voyage_of("V1", [make_sample(0.0, weather={"W": 1.0}), make_sample(60.0)])
        assert np.isnan(v.channels["W"][1])
        with pytest.raises(MissingDataError, match="'W'"):
            v.columns("W")


class TestMergeTracks:
    def test_channel_missing_from_one_stream_is_nan(self):
        first = make_track([make_sample(0.0, weather={"W": 5.0})])
        second = make_track([make_sample(60.0)])
        merged = merge_tracks([first, second])
        assert merged.channels["W"][0] == 5.0 and np.isnan(merged.channels["W"][1])
