"""Local-plane geodesy, route polylines, and distance helpers.

All downstream geometry lives in a single east/north/up tangent plane.
The projection is equirectangular about a declared origin: east and
north are linear in longitude and latitude, so collinear geodetic
points stay collinear after projection and polyline lengths are stable
under waypoint subdivision.  At the route scales handled here (tens of
kilometres) the distortion is far below any envelope radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Sequence

EARTH_RADIUS_M = 6_371_000.0

# Beyond this the flat-plane assumption is no longer defensible.
MAX_PROJECTION_RANGE_M = 100_000.0


class GeoRangeError(ValueError):
    """Point too far from the projection origin for a flat plane."""


class BearingUndefinedError(ValueError):
    """Bearing requested between horizontally coincident points."""


@dataclass(frozen=True)
class GeoPoint:
    """WGS-84 position; altitude in metres above the ground reference."""

    lat: float
    lon: float
    alt: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")
        if self.alt < 0.0:
            raise ValueError(f"altitude below ground reference: {self.alt}")


class _EnuFields(NamedTuple):
    east: float
    north: float
    up: float = 0.0


class EnuPoint(_EnuFields):
    """Position in the tangent plane, metres.

    An immutable tuple: the simulation builds several per tick, and a
    tuple builds in half the time of a frozen dataclass or less.  Every
    construction, also through _replace, _make and enu_points, rejects
    non-finite components.
    """

    __slots__ = ()

    def __new__(cls, east: float, north: float, up: float = 0.0) -> "EnuPoint":
        if not (math.isfinite(east) and math.isfinite(north) and math.isfinite(up)):
            raise non_finite_error(east, north, up)
        return tuple.__new__(cls, (east, north, up))

    @classmethod
    def _make(cls, iterable) -> "EnuPoint":
        return cls(*iterable)


def enu_points(triples: list[tuple[float, float, float]]) -> list[EnuPoint]:
    """EnuPoint(*p) for each p: a longer list is built as tuples after one
    check of all the components, unless one is not finite."""
    if len(triples) > 1 and all(map(math.isfinite, chain.from_iterable(triples))):
        return list(map(tuple.__new__, repeat(EnuPoint), triples))
    return [EnuPoint(*p) for p in triples]


def non_finite_error(east: float, north: float, up: float) -> ValueError:
    """The error for a position with a non-finite component, shared by
    EnuPoint and the ownship kernel, which carries its position as
    floats."""
    bad = next(v for v in (east, north, up) if not math.isfinite(v))
    return ValueError(f"non-finite ENU component: {bad}")


@dataclass(frozen=True)
class Vertiport:
    id: str
    name: str
    position: GeoPoint


@dataclass(frozen=True)
class Route:
    """Ordered geodetic polyline from origin vertiport to destination.

    A route's id is its key in the scenario's route mapping; the flight
    altitude belongs to the ownship's performance model.
    """

    waypoints: tuple[GeoPoint, ...]

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("route needs at least two waypoints")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a.lat == b.lat and a.lon == b.lon:
                raise ValueError("consecutive route waypoints coincide")


# The one range rule, MAX_PROJECTION_RANGE_M squared: plane_offset bounds
# e*e + n*n by it and in_plane_range e*e + n*n + u*u, which agree bit for
# bit at u == 0.
MAX_RANGE_SQ = MAX_PROJECTION_RANGE_M**2


def plane_offset(origin: GeoPoint, p: GeoPoint) -> tuple[float, float]:
    """(east, north) of p in the tangent plane at origin; GeoRangeError
    when p is too far from origin for a flat plane."""
    east = EARTH_RADIUS_M * math.cos(math.radians(origin.lat)) * math.radians(p.lon - origin.lon)
    north = EARTH_RADIUS_M * math.radians(p.lat - origin.lat)
    if east * east + north * north > MAX_RANGE_SQ:
        raise GeoRangeError(
            f"point {p.lat:.4f},{p.lon:.4f} beyond flat-plane validity of origin"
        )
    return east, north


def in_plane_range(p: EnuPoint) -> EnuPoint:
    """p, unless it lies farther than MAX_PROJECTION_RANGE_M from the
    plane's origin, counting its height too."""
    east, north, up = p
    # Float products overflow to inf rather than raise, and inf is out.
    if east * east + north * north + up * up > MAX_RANGE_SQ:
        raise GeoRangeError(f"point {east!r},{north!r},{up!r} beyond flat-plane validity of origin")
    return p


def to_enu(origin: GeoPoint, p: GeoPoint) -> EnuPoint:
    """Equirectangular projection of p onto the tangent plane at origin."""
    east, north = plane_offset(origin, p)
    return EnuPoint(east, north, p.alt - origin.alt)


def from_enu(origin: GeoPoint, p: EnuPoint) -> GeoPoint:
    """Exact inverse of to_enu for the same origin."""
    lat = origin.lat + math.degrees(p.north / EARTH_RADIUS_M)
    lon = origin.lon + math.degrees(p.east / (EARTH_RADIUS_M * math.cos(math.radians(origin.lat))))
    return GeoPoint(lat, lon, p.up + origin.alt)


# The three distance helpers read their points by position, so they
# take an EnuPoint or a plain (east, north, up) tuple alike: the engine
# carries the ownship's position as floats.  Separations are math.dist,
# computed in C with no libm pow(), whose rounding varies by C library.


def horizontal_distance(a: EnuPoint, b: EnuPoint) -> float:
    a_e, a_n, _ = a
    b_e, b_n, _ = b
    return math.hypot(b_e - a_e, b_n - a_n)


def distance_3d(a: EnuPoint, b: EnuPoint) -> float:
    return math.dist(a, b)


def distances_3d(a: Iterable[EnuPoint], b: Iterable[EnuPoint]) -> list[float]:
    """distance_3d of each pair a[k], b[k] up to the shorter sequence, by
    the same operations."""
    return list(map(math.dist, a, b))


def bearing(a: EnuPoint, b: EnuPoint) -> float:
    """Compass bearing from a to b in degrees: 0 north, 90 east, [0, 360)."""
    a_e, a_n, _ = a
    b_e, b_n, _ = b
    de = b_e - a_e
    dn = b_n - a_n
    if de == 0.0 and dn == 0.0:
        raise BearingUndefinedError("bearing between coincident points")
    return math.degrees(math.atan2(de, dn)) % 360.0


def track_unit(track_deg: float) -> tuple[float, float]:
    """Horizontal (east, north) unit vector along a compass track."""
    rad = math.radians(track_deg)
    return math.sin(rad), math.cos(rad)


def normalize_track(deg: float) -> float:
    return deg % 360.0


def signed_track_diff(from_deg: float, to_deg: float) -> float:
    """Smallest signed rotation taking from_deg to to_deg, in (-180, 180]."""
    d = (to_deg - from_deg) % 360.0
    return d if d <= 180.0 else d - 360.0


def project_route(origin: GeoPoint, route: Route) -> tuple[EnuPoint, ...]:
    return tuple(to_enu(origin, wp) for wp in route.waypoints)


def polyline_length(origin: GeoPoint, route: Route) -> float:
    """Horizontal length of the route polyline, projected at origin."""
    return polyline_length_enu(project_route(origin, route))


def polyline_length_enu(pts: Sequence[EnuPoint]) -> float:
    # A left-to-right loop, not sum(): sum() compensates float error from
    # Python 3.12 on, which would make route geometry version-dependent.
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        total += horizontal_distance(a, b)
    return total


def point_segment_distance(p: EnuPoint, a: EnuPoint, b: EnuPoint) -> float:
    """Horizontal distance from p to the segment a-b."""
    ax, ay = a.east, a.north
    vx, vy = b.east - ax, b.north - ay
    wx, wy = p.east - ax, p.north - ay
    seg_len2 = vx * vx + vy * vy
    if seg_len2 == 0.0:
        return math.hypot(wx, wy)
    u = max(0.0, min(1.0, (wx * vx + wy * vy) / seg_len2))
    return math.hypot(wx - u * vx, wy - u * vy)


def distance_point_to_polyline(p: EnuPoint, pts: Sequence[EnuPoint]) -> float:
    """Minimum horizontal distance from p to any segment of the polyline."""
    if len(pts) == 1:
        return horizontal_distance(p, pts[0])
    return min(point_segment_distance(p, a, b) for a, b in zip(pts, pts[1:]))


def _seg_seg_distance(
    a1: EnuPoint, a2: EnuPoint, b1: EnuPoint, b2: EnuPoint
) -> float:
    """Horizontal distance between two segments.

    Proper crossings return 0; otherwise the minimum is attained at an
    endpoint, so checking the four point-to-segment distances suffices.
    """
    d1x, d1y = a2.east - a1.east, a2.north - a1.north
    d2x, d2y = b2.east - b1.east, b2.north - b1.north
    ex, ey = b1.east - a1.east, b1.north - a1.north
    denom = d1x * d2y - d1y * d2x
    if denom != 0.0:
        t = (ex * d2y - ey * d2x) / denom
        s = (ex * d1y - ey * d1x) / denom
        if 0.0 <= t <= 1.0 and 0.0 <= s <= 1.0:
            return 0.0
    return min(
        point_segment_distance(b1, a1, a2),
        point_segment_distance(b2, a1, a2),
        point_segment_distance(a1, b1, b2),
        point_segment_distance(a2, b1, b2),
    )


def distance_segment_to_polyline(
    a: EnuPoint, b: EnuPoint, pts: Sequence[EnuPoint]
) -> float:
    if len(pts) == 1:
        return point_segment_distance(pts[0], a, b)
    return min(_seg_seg_distance(a, b, p, q) for p, q in zip(pts, pts[1:]))


def polyline_point_at(pts: Sequence[EnuPoint], s: float) -> tuple[EnuPoint, float]:
    """Position and local track at arc length s along the polyline.

    s is clamped to [0, total length].  The track at a vertex is the
    track of the following segment.
    """
    if s <= 0.0:
        first_track = bearing(pts[0], pts[1])
        return pts[0], first_track
    remaining = s
    n_segs = len(pts) - 1
    for i in range(n_segs):
        a, b = pts[i], pts[i + 1]
        seg = horizontal_distance(a, b)
        if remaining < seg or i == n_segs - 1:
            u = min(1.0, remaining / seg)
            pos = EnuPoint(
                a.east + u * (b.east - a.east),
                a.north + u * (b.north - a.north),
                a.up + u * (b.up - a.up),
            )
            return pos, bearing(a, b)
        remaining -= seg
    raise AssertionError("unreachable")


def cpa_linear(
    rel_pos: tuple[float, float, float],
    rel_vel: tuple[float, float, float],
    t_max: float,
) -> tuple[float, float]:
    """Closest point of approach for linear relative motion on [0, t_max].

    Returns (t_star, distance).  Minimizes |rel_pos + rel_vel * t|, a
    quadratic in t, clamped to the interval.  metrics.cpa calls it on
    each interval between recorded ticks that it evaluates.
    """
    px, py, pz = rel_pos
    vx, vy, vz = rel_vel
    v2 = vx * vx + vy * vy + vz * vz
    if v2 == 0.0:
        t_star = 0.0
    else:
        t_star = -(px * vx + py * vy + pz * vz) / v2
        t_star = max(0.0, min(t_max, t_star))
    dx, dy, dz = px + vx * t_star, py + vy * t_star, pz + vz * t_star
    return t_star, math.sqrt(dx * dx + dy * dy + dz * dz)
