"""The built-in evaluation pack: a three-vertiport network around
Munich and the scenarios flown on it.

V1 is at the airport, V2 in the city centre, V3 at a small airfield
between them.  Route 1 is the direct corridor V1-V2 bowed east of the
straight line; route 2 dog-legs north-west through V3.  Leg shaping is
solved numerically so the polylines hit the published corridor lengths
exactly.
"""

from __future__ import annotations

from typing import Sequence

from .agents import (
    DEFAULT_CRUISE_ALT_M,
    DEFAULT_PERFORMANCE,
    IntruderBehavior,
    IntruderKind,
    IntruderRecord,
    OwnshipConfig,
    ScriptedBehavior,
    ScriptMode,
)
from .geo import (
    EnuPoint,
    GeoPoint,
    Route,
    Vertiport,
    bearing,
    from_enu,
    polyline_length_enu,
    polyline_point_at,
    to_enu,
    track_unit,
)
from .scenario_io import Scenario, ScenarioPack

V1_GEO = GeoPoint(48.3537, 11.786, 0.0)
V2_GEO = GeoPoint(48.1669, 11.5883, 0.0)
V3_GEO = GeoPoint(48.2394, 11.5614, 0.0)
ROUTE1_LENGTH_M = 26_000.0
ROUTE2_LENGTH_M = 30_000.0

_INTRUDER_ALT_M = DEFAULT_CRUISE_ALT_M
_GROUND_INTRUDER_ALT_M = 100.0


def _lerp(a: EnuPoint, b: EnuPoint, f: float) -> EnuPoint:
    return EnuPoint(a.east + f * (b.east - a.east), a.north + f * (b.north - a.north), 0.0)


def _shift(p: EnuPoint, track_deg: float, dist: float, up: float | None = None) -> EnuPoint:
    ue, un = track_unit(track_deg)
    return EnuPoint(p.east + dist * ue, p.north + dist * un, p.up if up is None else up)


def _solve_width(length_fn, target: float) -> float:
    # length grows monotonically with the bow width; bisect to machine
    # precision so the pack is reproducible bit for bit.
    lo, hi = 0.0, 20_000.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if length_fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _build_network() -> tuple[dict[str, Vertiport], dict[str, Route], tuple, tuple]:
    origin = V1_GEO
    p1 = EnuPoint(0.0, 0.0, 0.0)
    p2 = to_enu(origin, V2_GEO)
    p3 = to_enu(origin, V3_GEO)

    brg12 = bearing(p1, p2)

    def route1_pts(w: float) -> tuple[EnuPoint, ...]:
        a = _shift(_lerp(p1, p2, 1.0 / 3.0), brg12 - 90.0, w)
        b = _shift(_lerp(p1, p2, 2.0 / 3.0), brg12 - 90.0, w)
        return (p1, a, b, p2)

    w1 = _solve_width(lambda w: polyline_length_enu(route1_pts(w)), ROUTE1_LENGTH_M)
    r1_enu = route1_pts(w1)

    brg13 = bearing(p1, p3)

    def route2_pts(w: float) -> tuple[EnuPoint, ...]:
        c = _shift(_lerp(p1, p3, 0.5), brg13 + 90.0, w)
        return (p1, c, p3, p2)

    w2 = _solve_width(lambda w: polyline_length_enu(route2_pts(w)), ROUTE2_LENGTH_M)
    r2_enu = route2_pts(w2)

    def mk_route(pts: Sequence[EnuPoint]) -> Route:
        return Route(tuple(from_enu(origin, p) for p in pts))

    verts = {
        "V1": Vertiport("V1", "EDDM", V1_GEO),
        "V2": Vertiport("V2", "MUC-HBF", V2_GEO),
        "V3": Vertiport("V3", "EDNX", V3_GEO),
    }
    routes = {"ROUTE1": mk_route(r1_enu), "ROUTE2": mk_route(r2_enu)}
    return verts, routes, r1_enu, r2_enu


def default_pack() -> ScenarioPack:
    """The built-in evaluation pack.

    Two intruder-free references, five departure-check setups covering
    every strategic outcome, and fourteen airborne encounters spanning
    the right-of-way table, both intruder kinds, both behaviours, and
    all four encounter locations.  All spawn times are departure
    relative except the pre-departure (GROUND) loiterers.
    """
    verts, routes, r1, r2 = _build_network()
    perf = DEFAULT_PERFORMANCE[OwnshipConfig.VECTORED_THRUST]
    climb_time = perf.cruise_alt / perf.climb_rate

    def t_pass(arc: float) -> float:
        # Departure-relative time at which the undisturbed ownship
        # reaches the given arc position.
        return climb_time + arc / perf.cruise_speed

    def at(poly: Sequence[EnuPoint], arc: float, up: float = _INTRUDER_ALT_M) -> EnuPoint:
        p, _ = polyline_point_at(poly, arc)
        return EnuPoint(p.east, p.north, up)

    def track_at(poly: Sequence[EnuPoint], arc: float) -> float:
        return polyline_point_at(poly, arc)[1]

    def abeam(
        poly: Sequence[EnuPoint], arc: float, side: float, dist: float,
        up: float = _INTRUDER_ALT_M,
    ) -> EnuPoint:
        # side +90 is starboard of the route direction, -90 port.
        p, trk = polyline_point_at(poly, arc)
        return _shift(p, trk + side, dist, up)

    def linger(iid, anchor, hold, spawn, *, ground=False,
               kind=IntruderKind.DRONE, behavior=IntruderBehavior.UNPREDICTABLE):
        return IntruderRecord(
            iid, kind, behavior,
            spawn_time=spawn, ground_clock=ground,
            script=ScriptedBehavior(
                ScriptMode.LINGER, speed=1.0, anchor=anchor, linger_duration=hold
            ),
        )

    def passby(iid, anchor, track, speed, spawn, duration, *,
               kind=IntruderKind.DRONE, behavior=IntruderBehavior.PREDICTABLE,
               ground=False, offset=0.0):
        return IntruderRecord(
            iid, kind, behavior,
            spawn_time=spawn, ground_clock=ground,
            script=ScriptedBehavior(
                ScriptMode.PASS_BY, speed=speed, anchor=anchor, track=track,
                offset=offset, duration=duration,
            ),
        )

    def pursuit(iid, anchor, speed, spawn, *, hold=0.0, duration=None,
                kind=IntruderKind.DRONE, behavior=IntruderBehavior.UNPREDICTABLE):
        return IntruderRecord(
            iid, kind, behavior,
            spawn_time=spawn,
            script=ScriptedBehavior(
                ScriptMode.PURSUIT, speed=speed, anchor=anchor,
                linger_duration=hold, duration=duration,
            ),
        )

    def crossing(iid, poly, aim_arc, late_s, speed, spawn, duration, *, behavior):
        # Straight line cutting the route at right angles from the port
        # side, through the aim point late_s seconds after the
        # undisturbed ownship passes it.
        leg = track_at(poly, aim_arc)
        travel = t_pass(aim_arc) + late_s - spawn
        anchor = _shift(at(poly, aim_arc), leg - 90.0, speed * travel, _INTRUDER_ALT_M)
        return passby(iid, anchor, leg + 90.0, speed, spawn, duration, behavior=behavior)

    def reciprocal(iid, poly, aim_arc, port_offset, speed, spawn, duration, *,
                   kind=IntruderKind.DRONE, behavior):
        # Flies the route leg back towards the ownship on a parallel
        # line port_offset metres to port, abeam the aim point exactly
        # when the undisturbed ownship is there.
        leg = track_at(poly, aim_arc)
        lead = t_pass(aim_arc) - spawn
        base = _shift(at(poly, aim_arc), leg, speed * lead, _INTRUDER_ALT_M)
        anchor = _shift(base, leg - 90.0, port_offset) if port_offset else base
        return passby(iid, anchor, leg - 180.0, speed, spawn, duration,
                      kind=kind, behavior=behavior, offset=port_offset)

    def scenario(sid, intruders, planned="ROUTE1"):
        return Scenario(
            id=sid,
            ownship_config=OwnshipConfig.VECTORED_THRUST,
            vertiports=dict(verts),
            routes=dict(routes),
            planned_route=planned,
            intruders=tuple(intruders),
        )

    # Pre-departure loiterer that clears the planned corridor on the
    # second scan; shared by most airborne scenarios so their ground
    # delay is one wait step.
    def ground_loiter(hold=120.0, spawn=0.0):
        return linger("g1", abeam(r1, 2000.0, -90.0, 250.0, _GROUND_INTRUDER_ALT_M),
                      hold, spawn, ground=True)

    def r2_loiter(iid, hold, spawn):
        return linger(iid, abeam(r2, 2000.0, 90.0, 250.0, _GROUND_INTRUDER_ALT_M),
                      hold, spawn, ground=True)

    leg1 = track_at(r1, 14300.0)

    scenarios = [
        scenario("ref-route1", []),
        scenario("ref-route2", [], planned="ROUTE2"),
        # Strategic departure outcomes.
        scenario("ground-0", [
            passby("g1", _shift(EnuPoint(0.0, 0.0, 0.0), 35.0, 5000.0, _GROUND_INTRUDER_ALT_M),
                   35.0, 20.0, 0.0, 300.0, ground=True),
        ]),
        scenario("ground-300", [ground_loiter()]),
        scenario("ground-360", [ground_loiter(hold=350.0)]),
        scenario("ground-660", [ground_loiter(hold=400.0), r2_loiter("g2", 450.0, 100.0)]),
        scenario("ground-postponed", [ground_loiter(hold=4000.0), r2_loiter("g2", 4000.0, 0.0)]),
        # Tactical and emergency encounters on route 1 (plus the shared
        # ground loiterer, worth one 300 s wait).
        scenario("sc-01", [
            ground_loiter(),
            linger("i1", abeam(r1, 14300.0, 90.0, 150.0), 500.0, 340.0,
                   kind=IntruderKind.DRONE, behavior=IntruderBehavior.PREDICTABLE),
        ]),
        # Pop-up crosser from starboard, already inside the caution ring
        # when it appears.  The hover lets it cross ahead; the encounter
        # re-escalates on resume and forces the pilot-level divert.
        scenario("sc-02", [
            ground_loiter(),
            passby("i1", abeam(r1, 13800.0, 90.0, 320.0), track_at(r1, 13800.0) - 90.0,
                   20.0, 340.0, 300.0, behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
        scenario("sc-03", [
            ground_loiter(),
            crossing("i1", r1, 14300.0, 62.0, 20.0, 280.0, 400.0,
                     behavior=IntruderBehavior.PREDICTABLE),
        ]),
        scenario("sc-04", [
            ground_loiter(),
            crossing("i1", r1, 13250.0, 3.0, 20.0, 280.0, 300.0,
                     behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
        scenario("sc-05", [
            ground_loiter(),
            reciprocal("i1", r1, 14300.0, 280.0, 20.0, 300.0, 400.0,
                       behavior=IntruderBehavior.PREDICTABLE),
        ]),
        scenario("sc-06", [
            ground_loiter(),
            reciprocal("i1", r1, 16435.0, 0.0, 35.0, 300.0, 300.0,
                       behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
        scenario("sc-07", [
            ground_loiter(),
            passby("i1", abeam(r1, 11600.0, -90.0, 30.0), leg1, 20.0, 300.0, 600.0,
                   behavior=IntruderBehavior.PREDICTABLE),
        ]),
        scenario("sc-08", [
            ground_loiter(),
            passby("i1", at(r1, 11600.0), leg1 + 14.0, 20.0, 300.0, 500.0,
                   behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
        scenario("sc-09", [
            ground_loiter(),
            reciprocal("i1", r1, 14300.0, 260.0, 15.0, 300.0, 500.0,
                       kind=IntruderKind.BIRD, behavior=IntruderBehavior.PREDICTABLE),
        ]),
        scenario("sc-10", [
            ground_loiter(),
            reciprocal("i1", r1, 14300.0, 175.0, 15.0, 300.0, 500.0,
                       kind=IntruderKind.BIRD, behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
        scenario("sc-11", [
            ground_loiter(),
            reciprocal("i1", r1, 22100.0, 0.0, 35.0, 360.0, 300.0,
                       behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
        # Encounters on route 2; the ownship plans route 2 and departs
        # immediately, so the ground delay is zero.
        scenario("sc-12", [
            reciprocal("i1", r2, 27000.0, 0.0, 35.0, 450.0, 250.0,
                       behavior=IntruderBehavior.UNPREDICTABLE),
        ], planned="ROUTE2"),
        scenario("sc-13", [
            reciprocal("i1", r2, 23400.0, 0.0, 35.0, 400.0, 250.0,
                       behavior=IntruderBehavior.UNPREDICTABLE),
        ], planned="ROUTE2"),
        # Non-cooperative fast pursuer; the encounter is not survivable.
        scenario("sc-14", [
            ground_loiter(),
            pursuit("i1", at(r1, 16000.0), 85.0, 330.0,
                    kind=IntruderKind.BIRD, behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
    ]
    return ScenarioPack(tuple(scenarios))
