import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_sample, make_track, voyage_of
from voyagekit.errors import ConfigurationError, InvalidInputError, MissingDataError
from voyagekit.geo import (
    EARTH_RADIUS_M,
    GeoPoint,
    RouteSegmentSpec,
    assign_segment,
    euclidean_distance,
    haversine_distance,
    merge_tracks,
    point_in_polygon,
    split_into_voyages,
)

lat_strategy = st.floats(min_value=-90, max_value=90, allow_nan=False)
lon_strategy = st.floats(min_value=-180, max_value=180, allow_nan=False)


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


class TestHaversine:
    def test_identity(self):
        assert haversine_distance(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0

    def test_one_degree_on_equator(self):
        # Arc of 1 degree on a great circle: R * pi / 180.
        expected = EARTH_RADIUS_M * math.pi / 180.0
        assert haversine_distance(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(
            expected, abs=1e-6
        )
        assert abs(expected - 111_195) < 1.0

    def test_quarter_meridian(self):
        expected = EARTH_RADIUS_M * math.pi / 2.0
        assert haversine_distance(GeoPoint(0, 0), GeoPoint(90, 0)) == pytest.approx(
            expected, abs=1e-6
        )
        assert abs(expected - 10_007_543) < 10.0

    def test_metric_properties_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            d_ab = haversine_distance(a, b)
            d_ba = haversine_distance(b, a)
            assert d_ab == pytest.approx(d_ba, rel=1e-12)
            assert d_ab >= 0
            assert haversine_distance(a, a) == 0.0
            e_ab = euclidean_distance(a, b)
            assert e_ab == pytest.approx(euclidean_distance(b, a), rel=1e-12)
            assert e_ab >= 0
            assert euclidean_distance(a, a) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            pts = [
                GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
                for _ in range(3)
            ]
            ab = haversine_distance(pts[0], pts[1])
            bc = haversine_distance(pts[1], pts[2])
            ac = haversine_distance(pts[0], pts[2])
            assert ac <= ab + bc + 1e-6 * max(ac, 1.0)


class TestEuclidean:
    def test_identity(self):
        assert euclidean_distance(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0

    def test_3_4_5_triangle(self):
        assert euclidean_distance(GeoPoint(0, 0), GeoPoint(3, 4)) == pytest.approx(5.0)

    def test_unit_axis_offset(self):
        assert euclidean_distance(GeoPoint(1, 1), GeoPoint(1, 2)) == pytest.approx(1.0)

    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    def test_matches_hypot(self, la1, lo1, la2, lo2):
        got = euclidean_distance(GeoPoint(la1, lo1), GeoPoint(la2, lo2))
        assert got == pytest.approx(math.hypot(la1 - la2, lo1 - lo2), rel=1e-12)


SQUARE = [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]


class TestAssignSegment:
    def test_inside_single_polygon(self):
        spec = RouteSegmentSpec([("box", SQUARE)])
        assert assign_segment(GeoPoint(0.5, 0.5), spec) == "box"

    def test_outside_all(self):
        spec = RouteSegmentSpec([("box", SQUARE)])
        assert assign_segment(GeoPoint(2.0, 2.0), spec) == "unassigned"

    def test_overlap_resolved_by_order(self):
        # Both polygons contain (0.5, 0.5); manual even-odd containment check
        # confirms membership in each, so the tie-break must pick the first.
        big = [[-1.0, -1.0], [-1.0, 2.0], [2.0, 2.0], [2.0, -1.0]]
        assert point_in_polygon(0.5, 0.5, np.array(SQUARE))
        assert point_in_polygon(0.5, 0.5, np.array(big))
        spec_a = RouteSegmentSpec([("first", SQUARE), ("second", big)])
        spec_b = RouteSegmentSpec([("first", big), ("second", SQUARE)])
        assert assign_segment(GeoPoint(0.5, 0.5), spec_a) == "first"
        assert assign_segment(GeoPoint(0.5, 0.5), spec_b) == "first"

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
        "bad", [{"lat": 91.0}, {"lon": float("nan")}, {"sog": -0.5}]
    )
    def test_invalid_sample_names_voyage(self, bad):
        samples = [make_sample(0.0), {**make_sample(60.0), **bad}]
        with pytest.raises(InvalidInputError, match="voyage 'V7' sample 1"):
            voyage_of("V7", samples)

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
