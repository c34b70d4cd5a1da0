"""Unit and property tests for repro.geo.coordinates."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geo import (
    SEGMENT_INTERVAL_M,
    LatLon,
    normalize_heading,
    segment_points,
)

LAT = st.floats(min_value=-80, max_value=80, allow_nan=False)
LON = st.floats(min_value=-179, max_value=179, allow_nan=False)


class TestLatLon:
    def test_rejects_out_of_range_latitude(self):
        with pytest.raises(ValueError):
            LatLon(91.0, 0.0)
        with pytest.raises(ValueError):
            LatLon(-90.5, 0.0)

    def test_rejects_out_of_range_longitude(self):
        with pytest.raises(ValueError):
            LatLon(0.0, 181.0)

    def test_distance_to_self_is_zero(self):
        point = LatLon(35.0, -79.0)
        assert point.distance_m(point) == 0.0

    def test_distance_is_symmetric(self):
        a = LatLon(35.0, -79.0)
        b = LatLon(35.1, -78.9)
        assert a.distance_m(b) == pytest.approx(b.distance_m(a))

    def test_known_distance_one_degree_latitude(self):
        a = LatLon(35.0, -79.0)
        b = LatLon(36.0, -79.0)
        # One degree of latitude ≈ 111.2 km.
        assert a.distance_m(b) == pytest.approx(111_200, rel=0.01)

    def test_offset_north_increases_latitude(self):
        start = LatLon(35.0, -79.0)
        moved = start.offset(north_m=1000.0, east_m=0.0)
        assert moved.lat > start.lat
        assert moved.lon == pytest.approx(start.lon)

    def test_offset_round_trip_distance(self):
        start = LatLon(35.0, -79.0)
        moved = start.offset(north_m=300.0, east_m=400.0)
        assert start.distance_m(moved) == pytest.approx(500.0, rel=0.01)

    def test_bearing_north(self):
        a = LatLon(35.0, -79.0)
        assert a.bearing_to(LatLon(35.5, -79.0)) == pytest.approx(0.0, abs=0.1)

    def test_bearing_east(self):
        a = LatLon(35.0, -79.0)
        assert a.bearing_to(LatLon(35.0, -78.5)) == pytest.approx(
            90.0, abs=0.5
        )

    def test_toward_endpoints(self):
        a = LatLon(35.0, -79.0)
        b = LatLon(36.0, -78.0)
        assert a.toward(b, 0.0) == a
        assert a.toward(b, 1.0) == b

    def test_toward_rejects_bad_fraction(self):
        a = LatLon(35.0, -79.0)
        with pytest.raises(ValueError):
            a.toward(a, 1.5)

    @given(lat=LAT, lon=LON, north=st.floats(-5000, 5000), east=st.floats(-5000, 5000))
    def test_offset_distance_close_to_euclidean(self, lat, lon, north, east):
        start = LatLon(lat, lon)
        moved = start.offset(north, east)
        expected = math.hypot(north, east)
        if expected > 1.0:
            assert start.distance_m(moved) == pytest.approx(expected, rel=0.02)


class TestHeadings:
    def test_normalize_wraps_positive(self):
        assert normalize_heading(450.0) == 90.0

    def test_normalize_wraps_negative(self):
        assert normalize_heading(-90.0) == 270.0

    @given(heading=st.floats(-1000, 1000, allow_nan=False))
    def test_normalize_range(self, heading):
        folded = normalize_heading(heading)
        assert 0.0 <= folded < 360.0


class TestSegmentPoints:
    def test_includes_start_not_end(self):
        a = LatLon(35.0, -79.0)
        b = a.offset(north_m=100.0, east_m=0.0)
        points = segment_points(a, b, interval_m=15.24)
        assert points[0] == a
        assert points[-1] != b

    def test_fifty_foot_interval_count(self):
        a = LatLon(35.0, -79.0)
        b = a.offset(north_m=152.4, east_m=0.0)  # 500 ft
        points = segment_points(a, b)
        assert len(points) == 10  # 500/50

    def test_zero_length_edge(self):
        a = LatLon(35.0, -79.0)
        assert segment_points(a, a) == [a]

    def test_rejects_nonpositive_interval(self):
        a = LatLon(35.0, -79.0)
        with pytest.raises(ValueError):
            segment_points(a, a, interval_m=0.0)

    def test_consecutive_spacing_matches_interval(self):
        a = LatLon(35.0, -79.0)
        b = a.offset(north_m=1000.0, east_m=500.0)
        points = segment_points(a, b)
        gaps = [
            points[i].distance_m(points[i + 1])
            for i in range(len(points) - 1)
        ]
        for gap in gaps:
            assert gap == pytest.approx(SEGMENT_INTERVAL_M, rel=0.05)
