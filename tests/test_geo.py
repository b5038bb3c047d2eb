"""Geometry layer checked against independent oracles: haversine for the
projection, dense sampling for polyline and CPA math."""

import math
from itertools import repeat

import pytest
from hypothesis import assume, given, strategies as st

from uamcas.geo import (
    EARTH_RADIUS_M,
    BearingUndefinedError,
    EnuPoint,
    GeoPoint,
    GeoRangeError,
    Route,
    bearing,
    cpa_linear,
    distance_3d,
    distances_3d,
    distance_point_to_polyline,
    distance_segment_to_polyline,
    from_enu,
    horizontal_distance,
    normalize_track,
    point_segment_distance,
    polyline_length,
    polyline_length_enu,
    polyline_point_at,
    project_route,
    signed_track_diff,
    to_enu,
)

MUNICH = GeoPoint(48.3537, 11.786, 0.0)


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    la1, lo1, la2, lo2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    s = (
        math.sin((la2 - la1) / 2) ** 2
        + math.cos(la1) * math.cos(la2) * math.sin((lo2 - lo1) / 2) ** 2
    )
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(s))


class TestProjection:
    def test_origin_maps_to_zero(self):
        e = to_enu(MUNICH, MUNICH)
        assert (e.east, e.north, e.up) == (0.0, 0.0, 0.0)

    def test_matches_haversine_at_city_scale(self):
        # flat-earth projection vs great-circle distance; sub-0.1%
        # agreement expected over tens of kilometres
        targets = [
            GeoPoint(48.1669, 11.5883, 0.0),
            GeoPoint(48.2394, 11.5614, 0.0),
            GeoPoint(48.40, 11.90, 0.0),
            GeoPoint(48.30, 11.70, 120.0),
        ]
        for t in targets:
            e = to_enu(MUNICH, t)
            flat = math.hypot(e.east, e.north)
            great = haversine_m(MUNICH, GeoPoint(t.lat, t.lon, 0.0))
            assert flat == pytest.approx(great, rel=1e-3)
            assert e.up == t.alt

    def test_north_and_east_signs(self):
        n = to_enu(MUNICH, GeoPoint(MUNICH.lat + 0.01, MUNICH.lon, 0.0))
        assert n.north > 0 and abs(n.east) < 1e-6
        e = to_enu(MUNICH, GeoPoint(MUNICH.lat, MUNICH.lon + 0.01, 0.0))
        assert e.east > 0 and abs(e.north) < 1e-6

    def test_out_of_range_rejected(self):
        far = GeoPoint(49.5, 11.786, 0.0)  # ~127 km north
        with pytest.raises(GeoRangeError):
            to_enu(MUNICH, far)

    @given(
        dlat=st.floats(-0.5, 0.5),
        dlon=st.floats(-0.7, 0.7),
        alt=st.floats(0, 3000),
    )
    def test_round_trip_is_exact(self, dlat, dlon, alt):
        p = GeoPoint(MUNICH.lat + dlat, MUNICH.lon + dlon, alt)
        try:
            e = to_enu(MUNICH, p)
        except GeoRangeError:
            return
        back = from_enu(MUNICH, e)
        assert back.lat == pytest.approx(p.lat, abs=1e-12)
        assert back.lon == pytest.approx(p.lon, abs=1e-12)
        assert back.alt == pytest.approx(p.alt, abs=1e-9)


class TestDistances:
    @given(st.lists(st.tuples(*[st.floats(-1e4, 1e4)] * 6), max_size=20))
    def test_columns_equal_one_call_per_pair(self, pairs):
        a = [EnuPoint(*p[:3]) for p in pairs]
        b = [EnuPoint(*p[3:]) for p in pairs]
        assert repr(distances_3d(a, b)) == repr([distance_3d(p, q) for p, q in zip(a, b)])
        assert distances_3d(a, b[:2]) == distances_3d(a[:2], b)
        if b:  # a still intruder's column: one point against every point of a
            assert repr(distances_3d(a, repeat(b[0]))) == repr([distance_3d(p, b[0]) for p in a])

    @given(
        st.tuples(*[st.floats(-3e4, 3e4, allow_subnormal=False)] * 3),
        st.tuples(*[st.floats(-3e4, 3e4, allow_subnormal=False)] * 3),
        st.tuples(*[st.floats(-50.0, 50.0, allow_subnormal=False)] * 3),
        st.booleans(),
    )
    def test_within_one_ulp_of_products(self, a, far, offset, near):
        """Against a formula written apart from geo, since reference_run
        takes its separations from distance_3d too.  b is either anywhere
        in +-30 km or within 50 m of a."""
        b = tuple(p + d for p, d in zip(a, offset)) if near else far
        dx, dy, dz = (q - p for p, q in zip(a, b))
        expected = math.sqrt(dx * dx + dy * dy + dz * dz)
        assume(expected > 1e-100)  # below this the products underflow
        assert abs(distance_3d(a, b) - expected) <= math.ulp(expected)


class TestBearing:
    def test_cardinal_directions(self):
        o = EnuPoint(0, 0, 0)
        assert bearing(o, EnuPoint(0, 1, 0)) == 0.0
        assert bearing(o, EnuPoint(1, 0, 0)) == 90.0
        assert bearing(o, EnuPoint(0, -1, 0)) == 180.0
        assert bearing(o, EnuPoint(-1, 0, 0)) == 270.0

    def test_coincident_points_rejected(self):
        with pytest.raises(BearingUndefinedError):
            bearing(EnuPoint(5, 5, 0), EnuPoint(5, 5, 100))

    def test_track_normalization(self):
        assert normalize_track(-90.0) == 270.0
        assert normalize_track(450.0) == 90.0
        assert normalize_track(360.0) == 0.0

    def test_signed_diff_shortest_way(self):
        assert signed_track_diff(350.0, 10.0) == pytest.approx(20.0)
        assert signed_track_diff(10.0, 350.0) == pytest.approx(-20.0)
        assert abs(signed_track_diff(0.0, 180.0)) == pytest.approx(180.0)


class TestRoute:
    def test_needs_two_distinct_waypoints(self):
        p = GeoPoint(48.0, 11.0, 0.0)
        with pytest.raises(ValueError):
            Route((p,))
        with pytest.raises(ValueError):
            Route((p, p))

    def test_length_matches_haversine_sum(self):
        r = Route((MUNICH, GeoPoint(48.2394, 11.5614, 0.0), GeoPoint(48.1669, 11.5883, 0.0)))
        expect = haversine_m(r.waypoints[0], r.waypoints[1]) + haversine_m(
            r.waypoints[1], r.waypoints[2]
        )
        assert polyline_length(MUNICH, r) == pytest.approx(expect, rel=1e-3)

    def test_projection_preserves_length(self):
        # Moving the frame origin to the far end, 25 km away, changes the
        # length by 0.13%.
        r = Route((MUNICH, GeoPoint(48.30, 11.65, 0.0), GeoPoint(48.1669, 11.5883, 0.0)))
        pts = project_route(MUNICH, r)
        assert polyline_length_enu(pts) == polyline_length(MUNICH, r)
        assert polyline_length(r.waypoints[-1], r) == pytest.approx(
            polyline_length(MUNICH, r), rel=2e-3
        )


class TestPolyline:
    PTS = (EnuPoint(0, 0, 0), EnuPoint(1000, 0, 0), EnuPoint(1000, 500, 0))

    def test_point_at_interpolates(self):
        p, trk = polyline_point_at(self.PTS, 400.0)
        assert (p.east, p.north) == (400.0, 0.0)
        assert trk == 90.0
        p, trk = polyline_point_at(self.PTS, 1200.0)
        assert (p.east, p.north) == (1000.0, 200.0)
        assert trk == 0.0

    def test_point_at_clamps(self):
        start, _ = polyline_point_at(self.PTS, -5.0)
        end, _ = polyline_point_at(self.PTS, 1e9)
        assert (start.east, start.north) == (0.0, 0.0)
        assert (end.east, end.north) == (1000.0, 500.0)

    def test_vertex_track_is_outgoing_segment(self):
        _, trk = polyline_point_at(self.PTS, 1000.0)
        assert trk == 0.0

    @given(
        x=st.floats(-2000, 3000),
        y=st.floats(-2000, 3000),
    )
    def test_point_distance_matches_dense_sampling(self, x, y):
        p = EnuPoint(x, y, 0.0)
        fast = distance_point_to_polyline(p, self.PTS)
        total = 1500.0
        brute = min(
            horizontal_distance(p, polyline_point_at(self.PTS, total * i / 4000)[0])
            for i in range(4001)
        )
        assert fast <= brute + 1e-6
        assert fast == pytest.approx(brute, abs=1.0)

    def test_segment_distance_oracle(self):
        a, b = EnuPoint(500, -300, 0), EnuPoint(500, 800, 0)
        fast = distance_segment_to_polyline(a, b, self.PTS)
        brute = min(
            point_segment_distance(
                polyline_point_at(self.PTS, 1500 * i / 2000)[0], a, b
            )
            for i in range(2001)
        )
        assert fast == pytest.approx(brute, abs=1.0)
        assert fast == 0.0  # the segment crosses the first leg


class TestCpaLinear:
    def test_head_on_pass(self):
        t, d = cpa_linear((1000.0, 100.0, 0.0), (-50.0, 0.0, 0.0), 60.0)
        assert t == pytest.approx(20.0)
        assert d == pytest.approx(100.0)

    def test_receding_min_at_start(self):
        t, d = cpa_linear((500.0, 0.0, 0.0), (10.0, 0.0, 0.0), 60.0)
        assert t == 0.0 and d == 500.0

    def test_zero_velocity(self):
        t, d = cpa_linear((30.0, 40.0, 0.0), (0.0, 0.0, 0.0), 60.0)
        assert t == 0.0 and d == 50.0

    def test_clamped_to_window(self):
        t, d = cpa_linear((1000.0, 0.0, 0.0), (-10.0, 0.0, 0.0), 5.0)
        assert t == 5.0 and d == pytest.approx(950.0)

    @given(
        px=st.floats(-5000, 5000), py=st.floats(-5000, 5000), pz=st.floats(-500, 500),
        vx=st.floats(-100, 100), vy=st.floats(-100, 100), vz=st.floats(-20, 20),
    )
    def test_never_above_endpoint_distances(self, px, py, pz, vx, vy, vz):
        t, d = cpa_linear((px, py, pz), (vx, vy, vz), 10.0)
        d0 = math.sqrt(px * px + py * py + pz * pz)
        d1 = math.sqrt(
            (px + 10 * vx) ** 2 + (py + 10 * vy) ** 2 + (pz + 10 * vz) ** 2
        )
        assert 0.0 <= t <= 10.0
        assert d <= d0 + 1e-9 and d <= d1 + 1e-9
