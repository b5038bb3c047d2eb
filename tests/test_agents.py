"""Ownship kinematics and intruder motion models, checked against hand
computations (climb timing, turn geometry) and closed-form positions."""

import math
from bisect import bisect_right
from itertools import accumulate, repeat
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from uamcas.geo import EnuPoint
from uamcas.agents import (
    DEFAULT_PERFORMANCE,
    MAX_SPEED_M_S,
    FlightMode,
    Guidance,
    GuidanceKind,
    HeadOnStrategy,
    IntruderBehavior,
    IntruderKind,
    IntruderRecord,
    NavPlan,
    OwnshipConfig,
    PerformanceModel,
    ScriptMode,
    ScriptedBehavior,
    Trajectory,
    TrajectoryError,
    follow_plan,
    intruder_state_at,
    ownship_step,
    resolve_command,
)
from uamcas.maneuvers import Action, InfeasibleManeuverError, ManeuverCommand, TurnDirection


def replay(samples):
    """The Trajectory of (t, EnuPoint) samples, built from its columns."""
    times, points = zip(*samples)
    return Trajectory(times, *zip(*points))

VT = DEFAULT_PERFORMANCE[OwnshipConfig.VECTORED_THRUST]


def plan(*wpts, dest="V2"):
    return NavPlan(tuple(EnuPoint(*w) for w in wpts), dest)


class Own(NamedTuple):
    """The values ownship_step takes and returns, named for the tests."""

    east: float
    north: float
    up: float
    track: float
    mode: FlightMode
    idx: int


def step(state, perf, guidance, dt):
    """A run of one tick from state, returning the next state."""
    [row], mode, idx = ownship_step(*state, perf, guidance, dt, 1)
    return Own(*row, mode, idx)


def cruise_state(pos, track, idx=0):
    return Own(*pos, track, FlightMode.CRUISE, idx)


class TestPerformanceTable:
    def test_all_four_airframes_present(self):
        assert set(DEFAULT_PERFORMANCE) == set(OwnshipConfig)

    def test_vectored_thrust_numbers(self):
        assert VT.cruise_speed == 78.0
        assert VT.climb_rate == 1.7
        assert VT.descent_rate == 1.7
        assert VT.cruise_alt == 304.8
        assert VT.turn_rate == 10.0
        assert VT.head_on_strategy is HeadOnStrategy.TURN_RIGHT

    def test_speed_ordering(self):
        speeds = [DEFAULT_PERFORMANCE[c].cruise_speed for c in sorted(OwnshipConfig)]
        assert speeds == sorted(speeds)
        assert speeds[0] == 28.0

    def test_slow_airframes_descend_head_on(self):
        assert (
            DEFAULT_PERFORMANCE[OwnshipConfig.MULTICOPTER].head_on_strategy
            is HeadOnStrategy.DESCEND
        )
        assert (
            DEFAULT_PERFORMANCE[OwnshipConfig.TILT_ROTOR].head_on_strategy
            is HeadOnStrategy.TURN_RIGHT
        )

    def test_rejects_non_positive_rates(self):
        with pytest.raises(ValueError):
            PerformanceModel(0.0)
        with pytest.raises(ValueError):
            PerformanceModel(78.0, climb_rate=-1.0)

    @pytest.mark.parametrize("name", ["cruise_speed", "climb_rate", "descent_rate"])
    def test_rejects_speeds_above_the_ceiling(self, name):
        fields = {"cruise_speed": 78.0, name: MAX_SPEED_M_S}
        assert getattr(PerformanceModel(**fields), name) == MAX_SPEED_M_S
        with pytest.raises(ValueError, match=f"{name} must not exceed 343.0 m/s"):
            PerformanceModel(**{**fields, name: math.nextafter(MAX_SPEED_M_S, math.inf)})


class TestStateValidation:
    def test_ground_needs_zero_altitude(self):
        with pytest.raises(ValueError, match="ground mode requires zero altitude"):
            step(Own(0, 0, 10, 0.0, FlightMode.GROUND, 0), VT, follow_plan(plan((0, 0, 0))), 0.1)


def descend(alt_m):
    return ManeuverCommand(Action.HOVER_AND_DESCEND_TO, target_alt=alt_m)


def reroute(vertiport_id):
    return ManeuverCommand(Action.REROUTE_TO, target_vertiport=vertiport_id)


def offset(offset_m):
    return ManeuverCommand(Action.LATERAL_OFFSET, offset_m=offset_m)


class TestResolveCommand:
    P = plan((0, 5000, 304.8), (0, 10000, 304.8))
    POS = (0.0, 0.0, 304.8)

    def test_continue_reverts_to_plan(self):
        g = Guidance(GuidanceKind.HOVER, self.P)
        g2, idx = resolve_command(self.POS, 0.0, 1, VT, g, ManeuverCommand(Action.CONTINUE_FLIGHT), {})
        assert g2.kind is GuidanceKind.FOLLOW_PLAN
        assert g2.plan is self.P
        assert idx == 1

    def test_descend_target_must_be_below_cruise(self):
        g = follow_plan(self.P)
        with pytest.raises(InfeasibleManeuverError):
            resolve_command(self.POS, 0.0, 0, VT, g, descend(304.8), {})
        g2, _ = resolve_command(self.POS, 0.0, 0, VT, g, descend(150.0), {})
        assert g2.kind is GuidanceKind.HOVER_DESCEND
        assert g2.target_alt == 150.0

    def test_turn_sets_held_track(self):
        g2, _ = resolve_command(
            self.POS, 350.0, 0, VT, follow_plan(self.P),
            ManeuverCommand(Action.TURN_BY, turn_deg=45.0, direction=TurnDirection.RIGHT), {},
        )
        assert g2.kind is GuidanceKind.HOLD_TRACK
        assert g2.target_track == pytest.approx(35.0)
        assert g2.slew is TurnDirection.RIGHT

    def test_reroute_replaces_plan(self):
        ports = {"V3": EnuPoint(-8000, 2000, 0)}
        g2, idx = resolve_command(
            self.POS, 0.0, 1, VT, follow_plan(self.P), reroute("V3"), ports
        )
        assert g2.plan.waypoints == (ports["V3"],)
        assert g2.plan.destination_id == "V3"
        assert idx == 0

    def test_reroute_unknown_pad_is_infeasible(self):
        with pytest.raises(InfeasibleManeuverError):
            resolve_command(
                self.POS, 0.0, 0, VT, follow_plan(self.P), reroute("V9"), {}
            )

    def test_lateral_offset_shifts_path_keeps_destination(self):
        # track north, positive offset goes east (starboard)
        g2, idx = resolve_command(
            self.POS, 0.0, 0, VT, follow_plan(self.P), offset(300.0), {}
        )
        w = g2.plan.waypoints
        assert (w[0].east, w[0].north) == pytest.approx((300.0, 0.0))
        assert (w[1].east, w[1].north) == pytest.approx((300.0, 5000.0))
        assert w[-1] == self.P.waypoints[-1]  # rejoin: destination unmoved
        assert idx == 0

    def test_negative_offset_goes_port(self):
        g2, _ = resolve_command(
            self.POS, 0.0, 0, VT, follow_plan(self.P), offset(-300.0), {}
        )
        assert g2.plan.waypoints[0].east == pytest.approx(-300.0)


class TestClimbOut:
    def test_climb_duration_matches_rate(self):
        # 304.8 m at 1.7 m/s: airborne until ~179.3 s, then level cruise
        p = plan((0, 0, 0), (10000, 0, 0))
        g = follow_plan(p)
        dt = 0.1
        state = Own(0, 0, 0, 0.0, FlightMode.GROUND, 0)
        t = 0.0
        while state.mode is not FlightMode.CRUISE:
            state = step(state, VT, g, dt)
            t += dt
            assert t < 200.0, "climb never finished"
        expect = VT.cruise_alt / VT.climb_rate
        assert expect <= t <= expect + 2 * dt
        assert state.up == VT.cruise_alt

    def test_level_off_skips_departure_pad(self):
        p = plan((0, 0, 0), (10000, 0, 0))
        st0 = Own(0, 0, 304.75, 0.0, FlightMode.VERTICAL_CLIMB, 0)
        state = step(st0, VT, follow_plan(p), 0.1)
        assert state.mode is FlightMode.CRUISE
        assert state.idx == 1  # pad is inside the capture ring
        assert state.track == pytest.approx(90.0)
        assert state.up == VT.cruise_alt


class TestCruise:
    def test_straight_leg_advances_at_cruise_speed(self):
        p = plan((10000, 0, 304.8))
        st0 = cruise_state((0, 0, 304.8), 90.0)
        st1 = step(st0, VT, follow_plan(p), 0.5)
        assert st1.east == pytest.approx(39.0)
        assert st1.north == pytest.approx(0.0)
        assert st1.track == 90.0

    def test_waypoint_capture_switches_target(self):
        p = plan((10000, 0, 304.8), (10000, 8000, 304.8))
        st0 = cruise_state((9960, 0, 304.8), 90.0)  # 40 m out: captured
        st1 = step(st0, VT, follow_plan(p), 0.1)
        assert st1.idx == 1
        assert st1.track == pytest.approx(90.0 - VT.turn_rate * 0.1)

    def test_destination_capture_starts_descent(self):
        p = plan((10000, 0, 304.8))
        st0 = cruise_state((9970, 0, 304.8), 90.0)
        st1 = step(st0, VT, follow_plan(p), 0.1)
        assert st1.mode is FlightMode.VERTICAL_DESCENT
        assert (st1.east, st1.north) == (9970, 0)
        assert st1.up == pytest.approx(304.8 - 1.7 * 0.1)

    def test_touchdown_clamps_to_ground(self):
        p = plan((0, 0, 304.8))
        st0 = Own(0, 0, 0.1, 90.0, FlightMode.VERTICAL_DESCENT, 1)
        st1 = step(st0, VT, follow_plan(p), 0.1)
        assert st1.mode is FlightMode.GROUND
        assert st1.up == 0.0

    def test_turn_rate_limit(self):
        # 90 degree heading change at 10 deg/s takes 9 s regardless of dt
        p = plan((0, 10000, 304.8))
        st = cruise_state((0, 0, 304.8), 90.0)
        g = follow_plan(p)
        dt = 0.1
        n = 0
        while st.track != 0.0:
            st = step(st, VT, g, dt)
            n += 1
            assert n < 200
        assert n * dt == pytest.approx(9.0, abs=2 * dt)

    def test_climb_back_respects_speed_budget(self):
        # recovering altitude after a commanded descent trades forward
        # speed: the climb takes climb_rate, the rest of cruise_speed
        # goes forward
        p = plan((100000, 0, 304.8))
        dt = 0.5
        st0 = cruise_state((0, 0, 150.0), 90.0)
        st1 = step(st0, VT, follow_plan(p), dt)
        horizontal = math.hypot(st1.east - st0.east, st1.north - st0.north)
        assert horizontal == pytest.approx(
            math.sqrt(VT.cruise_speed**2 - VT.climb_rate**2) * dt
        )
        assert st1.up - st0.up == pytest.approx(VT.climb_rate * dt)
        assert math.hypot(horizontal, st1.up - st0.up) == pytest.approx(VT.cruise_speed * dt)


class TestHoverDirectives:
    P = plan((10000, 0, 304.8))

    def test_hover_freezes_position(self):
        st0 = cruise_state((500, 0, 304.8), 90.0)
        g = Guidance(GuidanceKind.HOVER, self.P)
        st1 = step(st0, VT, g, 0.5)
        assert st1.mode is FlightMode.HOVER
        assert (st1.east, st1.north, st1.up) == (500, 0, 304.8)

    def test_hover_descend_stops_at_target(self):
        g = Guidance(GuidanceKind.HOVER_DESCEND, self.P, target_alt=300.0)
        st = cruise_state((500, 0, 304.8), 90.0)
        for _ in range(40):
            st = step(st, VT, g, 0.1)
        assert st.up == pytest.approx(300.0)
        assert st.mode is FlightMode.HOVER
        assert st.east == 500.0

    def test_forced_turn_side_honoured(self):
        # going right to a target that is 20 degrees to the left
        g = Guidance(
            GuidanceKind.HOLD_TRACK, self.P,
            target_track=350.0, slew=TurnDirection.RIGHT,
        )
        st = cruise_state((0, 0, 304.8), 10.0)
        st = step(st, VT, g, 1.0)
        assert st.track == pytest.approx(20.0)  # moved away: long way round
        for _ in range(40):
            st = step(st, VT, g, 1.0)
        assert st.track == pytest.approx(350.0)

    def test_unforced_turn_takes_short_way(self):
        g = Guidance(GuidanceKind.HOLD_TRACK, self.P, target_track=350.0)
        st = cruise_state((0, 0, 304.8), 10.0)
        st = step(st, VT, g, 1.0)
        assert st.track == pytest.approx(0.0)
        st = step(st, VT, g, 1.0)
        assert st.track == pytest.approx(350.0)


class TestRunForm:
    """ownship_step over a run of ticks: the same rows as runs of one,
    up to and including the first tick that changes the flight mode or
    the waypoint index, whose mode and index the run returns."""

    ROUTE = plan((0, 0, 0), (3000, 400, 0), (3500, -2500, 0), (-1000, -3000, 0))
    CRUISING = cruise_state((0.0, 0.0, 304.8), 0.0, idx=1)
    HOVERING = CRUISING._replace(mode=FlightMode.HOVER)
    # (start state, guidance, the flight mode a run of 8000 ticks ends in)
    CASES = {
        "climb": (Own(0.0, 0.0, 0.0, 0.0, FlightMode.VERTICAL_CLIMB, 0), follow_plan(ROUTE), FlightMode.CRUISE),
        "descent": (Own(-1000.0, -3000.0, 304.8, 250.0, FlightMode.VERTICAL_DESCENT, 4), follow_plan(ROUTE),
                    FlightMode.GROUND),
        "cruise": (CRUISING, follow_plan(ROUTE), FlightMode.CRUISE),
        "climb-back": (cruise_state((0.0, 0.0, 200.0), 0.0, idx=1), follow_plan(ROUTE), FlightMode.CRUISE),
        "hold-track": (CRUISING, Guidance(GuidanceKind.HOLD_TRACK, ROUTE, target_track=135.0,
                                          slew=TurnDirection.LEFT), FlightMode.CRUISE),
        "forced-slew": (CRUISING, Guidance(GuidanceKind.FOLLOW_PLAN, ROUTE, slew=TurnDirection.LEFT),
                        FlightMode.CRUISE),
        # Starts at or a few ticks before a transition.
        "pad": (Own(0.0, 0.0, 0.0, 0.0, FlightMode.GROUND, 0), follow_plan(ROUTE), FlightMode.VERTICAL_CLIMB),
        "top-of-climb": (Own(0.0, 0.0, 304.0, 0.0, FlightMode.VERTICAL_CLIMB, 0), follow_plan(ROUTE),
                         FlightMode.CRUISE),
        "capture": (cruise_state((2990.0, 400.0, 304.8), 90.0, idx=1), follow_plan(ROUTE), FlightMode.CRUISE),
        "destination-capture": (cruise_state((-900.0, -3000.0, 304.8), 270.0, idx=3), follow_plan(ROUTE),
                                FlightMode.VERTICAL_DESCENT),
        "touchdown": (Own(-1000.0, -3000.0, 1.0, 250.0, FlightMode.VERTICAL_DESCENT, 4), follow_plan(ROUTE),
                      FlightMode.GROUND),
        "hover-to-cruise": (HOVERING, follow_plan(ROUTE), FlightMode.CRUISE),
    }

    def per_tick(self, state, guidance, dt, limit):
        """Runs of one from state, for limit ticks or through the first
        that changes mode or idx: the rows, and the last tick's mode and
        idx."""
        rows = []
        for _ in range(limit):
            nxt = step(state, VT, guidance, dt)
            rows.append(nxt[:4])
            if nxt.mode is not state.mode or nxt.idx != state.idx:
                return rows, nxt.mode, nxt.idx
            state = nxt
        return rows, state.mode, state.idx

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.3048, 0.7])
    @pytest.mark.parametrize("case", list(CASES))
    def test_run_equals_runs_of_one(self, case, dt):
        state, guidance, end_mode = self.CASES[case]
        want = self.per_tick(state, guidance, dt, 8000)
        rows, mode, idx = ownship_step(*state, VT, guidance, dt, 8000)
        assert mode is end_mode
        if case == "hold-track":  # no transition: every tick asked for
            assert len(rows) == 8000 and idx == state.idx
        else:
            assert (mode, idx) != (state.mode, state.idx)
        assert repr((rows, mode, idx)) == repr(want)
        assert repr(ownship_step(*state, VT, guidance, dt, 7)) == repr(self.per_tick(state, guidance, dt, 7))

    @pytest.mark.parametrize("state,guidance", [
        (CASES["pad"][0], follow_plan(ROUTE)),
        (HOVERING, follow_plan(ROUTE)),
        (CRUISING, Guidance(GuidanceKind.HOVER, ROUTE)),
        (CRUISING, Guidance(GuidanceKind.HOVER_DESCEND, ROUTE, target_alt=150.0)),
        (CASES["capture"][0], follow_plan(ROUTE)),
        (HOVERING, Guidance(GuidanceKind.HOVER_DESCEND, ROUTE, target_alt=150.0)),
    ], ids=["pad", "hover", "hover-directive", "hover-descend", "capture", "hover-above-descend-target"])
    def test_runs_that_start_with_a_change_take_exactly_that_one_tick(self, state, guidance):
        rows, mode, idx = ownship_step(*state, VT, guidance, 0.1, 50)
        assert len(rows) == 1 and (mode, idx) != (state.mode, state.idx)
        assert (rows, mode, idx) == self.per_tick(state, guidance, 0.1, 50)

    @pytest.mark.parametrize("ticks", [0, -1])
    def test_zero_ticks(self, ticks):
        with pytest.raises(ValueError, match="ticks must be positive"):
            ownship_step(*self.CRUISING, VT, follow_plan(self.ROUTE), 0.1, ticks)

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.7])
    @pytest.mark.parametrize("kind,up", [
        (GuidanceKind.HOVER, 304.8), (GuidanceKind.HOVER_DESCEND, 150.0), (GuidanceKind.HOVER_DESCEND, 120.0),
    ], ids=["hover", "hover-descend-at-target", "hover-descend-below-target"])
    def test_held_hover_repeats_its_point(self, kind, up, dt):
        """A hover held under a hover directive (at or below a descent's
        target) takes every tick asked for, each at the same point."""
        guidance = Guidance(kind, self.ROUTE, target_alt=150.0 if kind is GuidanceKind.HOVER_DESCEND else None)
        state = Own(700.0, -40.0, up, 33.0, FlightMode.HOVER, 1)
        want = self.per_tick(state, guidance, dt, 300)
        assert len(want[0]) == 300 and set(want[0]) == {state[:4]} and want[1:] == (FlightMode.HOVER, 1)
        assert repr(ownship_step(*state, VT, guidance, dt, 300)) == repr(want)
        assert repr(ownship_step(*state, VT, guidance, dt, 7)) == repr(self.per_tick(state, guidance, dt, 7))

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.7, 1.3])
    def test_hover_descent_ends_on_its_target(self, dt):
        """A descent under HOVER_DESCEND ends on the tick that reaches the
        target, which settles into a hover there."""
        guidance = Guidance(GuidanceKind.HOVER_DESCEND, self.ROUTE, target_alt=243.84)
        state = Own(700.0, -40.0, 303.1, 33.0, FlightMode.VERTICAL_DESCENT, 1)
        want = self.per_tick(state, guidance, dt, 8000)
        rows, mode, idx = got = ownship_step(*state, VT, guidance, dt, 8000)
        assert len(rows) > 10 and repr(got) == repr(want)
        assert repr(ownship_step(*state, VT, guidance, dt, 7)) == repr(self.per_tick(state, guidance, dt, 7))
        assert all(up > 243.84 for _, _, up, _ in rows[:-1])
        assert rows[-1] == (700.0, -40.0, 243.84, 33.0) and (mode, idx) == (FlightMode.HOVER, 1)


# A drone replaying four samples, each on a multiple of 0.25 s.
TRAJ = replay(((2.0, EnuPoint(0, 0, 100)), (2.5, EnuPoint(30, -10, 120)),
                   (4.0, EnuPoint(30, 70, 120)), (9.25, EnuPoint(-400, 70, 900))))
SCRIPTS = {
    "linger": ScriptedBehavior(ScriptMode.LINGER, 1.0, EnuPoint(500, 500, 120), linger_duration=6.0),
    "pass-by": ScriptedBehavior(ScriptMode.PASS_BY, 17.0, EnuPoint(-300, 40, 90), track=33.0),
    "pass-by-duration": ScriptedBehavior(ScriptMode.PASS_BY, 17.0, EnuPoint(-300, 40, 90), track=33.0,
                                         duration=6.5),
    "pursuit": ScriptedBehavior(ScriptMode.PURSUIT, 15.0, EnuPoint(2000, 1500, 250), linger_duration=3.0,
                                duration=8.0),
}
KINDS = [*SCRIPTS, "playback"]


def intruder(kind, spawn):
    source = {"trajectory": TRAJ} if kind == "playback" else {"script": SCRIPTS[kind]}
    return IntruderRecord("I1", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE, spawn_time=spawn, **source)


class TestIntruderRunForm:
    """intruder_state_at over a list of tick times: the positions of one
    call per tick, each pursuit step from the one before, up to the first
    tick where the intruder is absent, and the velocity of that call at
    the last of them."""

    @staticmethod
    def ticks(start, dt, count):
        """The tick times as the engine's clock adds them up, and an
        ownship position for each."""
        ts = list(accumulate(repeat(dt, count - 1), initial=start))
        return ts, [(30.0 * k, 10.0 * k, 300.0 - k) for k in range(count)]

    @staticmethod
    def per_tick(rec, ts, own, prev, dt):
        """Runs of one tick: the positions and the last velocity."""
        out, last = [], None
        for t, o in zip(ts, own):
            ps, vel = intruder_state_at(rec, [t], [o], prev, dt)
            if not ps:
                break
            (prev,), last = ps, vel
            out.append(prev)
        return out, last

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.7])
    @pytest.mark.parametrize("kind", KINDS)
    def test_run_equals_one_call_per_tick(self, kind, dt):
        """From the spawn on to past the intruder's end (PASS_BY without a
        duration never ends), and any prefix of the run."""
        ts, own = self.ticks(102.0 if kind == "playback" else 100.0, dt, 300)  # the first sample
        rec = intruder(kind, 100.0)
        want = self.per_tick(rec, ts, own, None, dt)
        got = intruder_state_at(rec, ts, own, None, dt)
        assert len(want[0]) > 4 and want[1] is not None
        assert (len(want[0]) == len(ts)) is (kind == "pass-by")
        assert repr(got) == repr(want)
        assert repr(intruder_state_at(rec, ts[:3], own, None, dt)) == repr(self.per_tick(rec, ts[:3], own, None, dt))

    @pytest.mark.parametrize("prev", [None, EnuPoint(1900, 1400, 240)])
    @pytest.mark.parametrize("start", [101.0, 104.0], ids=["hold", "chasing"])
    def test_pursuit_starts_from_prev_pos(self, start, prev):
        """A run that starts in the hold, or while chasing, from the given
        position or (none given) from the anchor."""
        ts, own = self.ticks(start, 0.1, 40)
        rec = intruder("pursuit", 100.0)
        want = self.per_tick(rec, ts, own, prev, 0.1)
        assert len(want[0]) == 40 and len(set(want[0])) > 15
        assert repr(intruder_state_at(rec, ts, own, prev, 0.1)) == repr(want)

    def test_ticks_on_the_samples_and_the_lifetime(self):
        """At dt 0.25 the clock is exact: ticks fall on every sample time,
        the last one included, and on rel == lifetime, the last present
        tick of each intruder that ends."""
        ts, own = self.ticks(100.0, 0.25, 60)
        ends = {"linger": 6.0, "pass-by-duration": 6.5, "pursuit": 8.0, "playback": 9.25}
        for kind, lifetime in ends.items():
            spawn = 98.0 if kind == "playback" else 100.0  # present from the first tick on
            got, _ = intruder_state_at(intruder(kind, spawn), ts, own, None, 0.25)
            assert ts[len(got) - 1] - spawn == lifetime and len(got) < len(ts)
        assert [got[k] for k in (0, 2, 8, 29)] == [p for _, p in TRAJ.samples] and len(got) == 30

    def test_a_tick_on_a_sample_time_takes_the_sample(self):
        """It starts the next segment (u == 0), so it takes the sample
        exactly, also where lo + (hi - lo) != hi; the last sample ends the
        last segment (u == 1)."""
        traj = replay(((0.0, EnuPoint(-262.0, 125.7, 100)), (1.0, EnuPoint(44.2, -434.5, 120)),
                           (2.0, EnuPoint(337.5, -29.7, 90))))
        rec = IntruderRecord("I1", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE, spawn_time=100.0,
                             trajectory=traj)
        ts, own = self.ticks(100.0, 0.25, 12)
        got = intruder_state_at(rec, ts, own, None, 0.25)
        assert got[0][0:8:4] == [p for _, p in traj.samples[:2]] and 44.2 != -262.0 + (44.2 - -262.0)
        assert repr(got) == repr(self.per_tick(rec, ts, own, None, 0.25))

    def test_absent_at_the_first_tick(self):
        ts, own = self.ticks(99.9, 0.1, 50)
        for kind in KINDS:
            assert intruder_state_at(intruder(kind, 100.0), ts, own, None, 0.1) == ([], None)
        assert intruder_state_at(intruder("playback", 100.0), [101.9, 102.0], own, None, 0.1) == ([], None)
        assert intruder_state_at(intruder("linger", 0.0), [], [], None, 0.1) == ([], None)
        assert intruder_state_at(intruder("pursuit", 0.0), [], [], None, 0.1) == ([], None)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(KINDS), spawn=st.floats(0.0, 500.0), dt=st.floats(0.05, 1.0),
           start=st.floats(-2.0, 12.0), count=st.integers(1, 120))
    def test_drawn_runs(self, kind, spawn, dt, start, count):
        """Any spawn, tick and start time, the start before the spawn, in
        the hold, between samples or past the end."""
        ts, own = self.ticks(spawn + start, dt, count)
        rec = intruder(kind, spawn)
        want = self.per_tick(rec, ts, own, None, dt)
        assert repr(intruder_state_at(rec, ts, own, None, dt)) == repr(want)


class TestSpeedInvariant:
    @given(
        config=st.sampled_from(OwnshipConfig),
        mode=st.sampled_from(FlightMode),
        kind=st.sampled_from(GuidanceKind),
        east=st.floats(-5000, 5000),
        north=st.floats(-5000, 5000),
        up_frac=st.floats(0, 1),
        track=st.floats(0, 360),
        dt=st.floats(0.05, 1.0),
        target_track=st.floats(0, 360),
        slew=st.sampled_from([None, *TurnDirection]),
        target_alt_frac=st.floats(0.01, 0.99),
    )
    def test_cruise_speed_never_exceeded(
        self, config, mode, kind, east, north, up_frac, track, dt, target_track, slew,
        target_alt_frac,
    ):
        """Whatever the airframe, valid flight mode and directive, one
        tick moves the ownship no further than its fastest rate allows:
        cruise, climb or descent."""
        perf = DEFAULT_PERFORMANCE[config]
        up = 0.0 if mode is FlightMode.GROUND else up_frac * perf.cruise_alt
        if kind is GuidanceKind.HOLD_TRACK:
            extra = {"target_track": target_track, "slew": slew}
        elif kind is GuidanceKind.HOVER_DESCEND:
            extra = {"target_alt": target_alt_frac * perf.cruise_alt}
        else:
            extra = {}
        g = Guidance(kind, plan((20000, 20000, 304.8)), **extra)
        st0 = Own(east, north, up, track, mode, 0)
        st1 = step(st0, perf, g, dt)
        moved = math.sqrt(
            (st1.east - east) ** 2 + (st1.north - north) ** 2 + (st1.up - up) ** 2
        )
        fastest = max(perf.cruise_speed, perf.climb_rate, perf.descent_rate)
        assert moved <= fastest * dt * (1 + 1e-9)


class TestTrajectories:
    def test_needs_two_samples(self):
        with pytest.raises(TrajectoryError):
            Trajectory((0.0,), (0,), (0,), (0,))

    def test_times_strictly_increase(self):
        with pytest.raises(TrajectoryError):
            Trajectory((0.0, 0.0), (0, 1), (0, 0), (0, 0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("col", range(4))
    def test_columns_are_finite(self, col, bad):
        columns = [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        columns[col][1] = bad
        with pytest.raises(TrajectoryError, match="finite"):
            Trajectory(*columns)

    def test_columns_have_one_length(self):
        with pytest.raises(TrajectoryError, match="length"):
            Trajectory((0.0, 1.0, 2.0), (0, 1, 2), (0, 0, 0), (0, 0))

    def test_columns_are_tuples_and_samples_a_view(self):
        """Any sequences are stored as tuples; samples is built from them
        on each read and kept nowhere."""
        traj = Trajectory([0.0, 2.5], [1, 4], [2, 5], [3, 6])
        assert traj.times == (0.0, 2.5) and traj.up == (3, 6)
        assert traj.samples == ((0.0, EnuPoint(1, 2, 3)), (2.5, EnuPoint(4, 5, 6)))
        assert len(traj.samples) == 2 and "samples" not in vars(traj)
        assert [type(p) for _, p in traj.samples] == [EnuPoint, EnuPoint]

    def test_playback_interpolates(self):
        traj = replay(
            (
                (0.0, EnuPoint(0, 0, 0)),
                (10.0, EnuPoint(100, 0, 0)),
                (20.0, EnuPoint(100, 100, 50)),
            )
        )
        rec = IntruderRecord(
            "I1", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE,
            trajectory=traj,
        )
        [pos], vel = intruder_state_at(rec, [5.0])
        assert (pos.east, pos.north) == pytest.approx((50.0, 0.0))
        assert vel == pytest.approx((10.0, 0.0, 0.0))
        [pos], vel = intruder_state_at(rec, [15.0])
        assert (pos.east, pos.north, pos.up) == pytest.approx((100.0, 50.0, 25.0))
        assert vel == pytest.approx((0.0, 10.0, 5.0))
        # inclusive endpoints, absent outside
        assert intruder_state_at(rec, [20.0])[0][0].north == 100.0
        assert intruder_state_at(rec, [20.01]) == ([], None)

    def test_playback_matches_a_bisect_over_the_samples(self):
        """Playback bisects the times Trajectory stores once; it must give
        what a bisect over the samples themselves gives, at, between and
        outside the sample times."""
        traj = replay(
            (
                (0.0, EnuPoint(0, 0, 0)),
                (0.5, EnuPoint(3, -1, 2)),
                (2.0, EnuPoint(3, 7, 2)),
                (7.25, EnuPoint(-40, 7, 90)),
            )
        )

        def reference(rel):
            times = [t for t, _ in traj.samples]
            if rel < times[0] or rel > times[-1]:
                return None
            i = min(bisect_right(times, rel), len(times) - 1)
            (lo_t, lo), (hi_t, hi) = traj.samples[i - 1], traj.samples[i]
            u = (rel - lo_t) / (hi_t - lo_t)
            return (
                (lo.east + u * (hi.east - lo.east),
                 lo.north + u * (hi.north - lo.north),
                 lo.up + u * (hi.up - lo.up)),
                tuple((b - a) / (hi_t - lo_t)
                      for a, b in zip((lo.east, lo.north, lo.up), (hi.east, hi.north, hi.up))),
            )

        rec = IntruderRecord(
            "I1", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE,
            trajectory=traj,
        )
        assert traj.times == tuple(t for t, _ in traj.samples)
        times = traj.times
        mids = [(a + b) / 2 for a, b in zip(times, times[1:])]
        outside = [-1.0, -1e-9, times[-1] + 1e-9, 100.0]
        for rel in [*times, *mids, *outside]:
            got = intruder_state_at(rec, [rel])
            want = reference(rel)
            if want is None:
                assert got == ([], None), rel
            else:
                [pos], vel = got
                assert ((pos.east, pos.north, pos.up), vel) == want, rel

    def test_equal_samples_compare_equal(self):
        columns = ((0.0, 10.0), (0, 100), (0, 0), (0, 0))
        a, b = Trajectory(*columns), Trajectory(*map(list, columns))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Trajectory((0.0, 11.0), (0, 100), (0, 0), (0, 0))
        assert repr(a) == "Trajectory(times=(0.0, 10.0), east=(0, 100), north=(0, 0), up=(0, 0))"

    def test_spawn_time_offsets_playback(self):
        traj = replay(((0.0, EnuPoint(0, 0, 0)), (10.0, EnuPoint(100, 0, 0))))
        rec = IntruderRecord(
            "I1", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE,
            spawn_time=100.0, trajectory=traj,
        )
        assert intruder_state_at(rec, [99.9]) == ([], None)
        [pos], _ = intruder_state_at(rec, [105.0])
        assert pos.east == pytest.approx(50.0)

    def test_top_speed(self):
        """A replay's top speed is its fastest segment's, worked out on
        first use; a script's is its speed, and nothing for a loiterer."""
        traj = replay(((0.0, EnuPoint(0, 0, 0)), (10.0, EnuPoint(30, 40, 0)), (10.5, EnuPoint(30, 40, 150))))
        assert "top_speed" not in vars(traj)
        assert traj.top_speed == 300.0 and vars(traj)["top_speed"] == 300.0
        for mode, speed in [(ScriptMode.PASS_BY, 343.0), (ScriptMode.PURSUIT, 12.5), (ScriptMode.LINGER, 0.0)]:
            script = ScriptedBehavior(mode, speed=speed or 12.5, anchor=EnuPoint(0, 0, 0))
            assert script.top_speed == speed

    def test_record_validation(self):
        # a record carries exactly one of a trajectory and a script
        traj = replay(((0.0, EnuPoint(0, 0, 0)), (10.0, EnuPoint(100, 0, 0))))
        script = ScriptedBehavior(ScriptMode.LINGER, speed=1.0, anchor=EnuPoint(0, 0, 0))
        with pytest.raises(ValueError):
            IntruderRecord("bad", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE)
        with pytest.raises(ValueError):
            IntruderRecord(
                "bad", IntruderKind.BIRD, IntruderBehavior.UNPREDICTABLE,
                trajectory=traj, script=script,
            )


class TestScriptedMotion:
    def test_pass_by_line(self):
        script = ScriptedBehavior(
            ScriptMode.PASS_BY, speed=10.0,
            anchor=EnuPoint(0, 0, 100), track=90.0, duration=20.0,
        )
        rec = IntruderRecord(
            "D1", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE,
            spawn_time=50.0, script=script,
        )
        assert intruder_state_at(rec, [49.9]) == ([], None)
        [pos], vel = intruder_state_at(rec, [60.0])
        assert pos.east == pytest.approx(100.0)
        assert pos.up == 100.0
        assert vel == pytest.approx((10.0, 0.0, 0.0))
        assert intruder_state_at(rec, [70.0])[0]  # duration inclusive
        assert intruder_state_at(rec, [70.1]) == ([], None)

    def test_linger_then_despawn(self):
        script = ScriptedBehavior(
            ScriptMode.LINGER, speed=1.0,
            anchor=EnuPoint(500, 500, 120), linger_duration=30.0,
        )
        rec = IntruderRecord(
            "D2", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE,
            script=script,
        )
        [pos], vel = intruder_state_at(rec, [15.0])
        assert pos == EnuPoint(500, 500, 120)
        assert vel == (0.0, 0.0, 0.0)
        assert intruder_state_at(rec, [30.1]) == ([], None)

    def test_pursuit_holds_then_chases(self):
        script = ScriptedBehavior(
            ScriptMode.PURSUIT, speed=5.0,
            anchor=EnuPoint(100, 0, 50), linger_duration=10.0,
        )
        rec = IntruderRecord(
            "B1", IntruderKind.BIRD, IntruderBehavior.UNPREDICTABLE,
            script=script,
        )
        own = EnuPoint(0, 0, 50)
        [pos], vel = intruder_state_at(rec, [5.0], ownship_pos=[own], prev_pos=None, dt=1.0)
        assert pos == script.anchor and vel == (0.0, 0.0, 0.0)
        [pos], vel = intruder_state_at(
            rec, [11.0], ownship_pos=[own], prev_pos=script.anchor, dt=1.0
        )
        assert pos.east == pytest.approx(95.0)
        assert vel == pytest.approx((-5.0, 0.0, 0.0))
        # With no ownship (the ground check) it holds at its anchor.
        assert intruder_state_at(rec, [11.0], prev_pos=script.anchor, dt=1.0) == ([script.anchor], (0.0, 0.0, 0.0))

    def test_pursuit_does_not_overshoot(self):
        script = ScriptedBehavior(ScriptMode.PURSUIT, speed=5.0, anchor=EnuPoint(100, 0, 50))
        rec = IntruderRecord(
            "B1", IntruderKind.BIRD, IntruderBehavior.UNPREDICTABLE,
            script=script,
        )
        own = EnuPoint(0, 0, 50)
        [pos], _ = intruder_state_at(
            rec, [1.0], ownship_pos=[own], prev_pos=EnuPoint(2, 0, 50), dt=1.0
        )
        assert (pos.east, pos.north, pos.up) == (0.0, 0.0, 50.0)

    def test_script_validation(self):
        with pytest.raises(ValueError):
            ScriptedBehavior(ScriptMode.PASS_BY, speed=0.0, anchor=EnuPoint(0, 0, 0))
        with pytest.raises(ValueError):
            ScriptedBehavior(
                ScriptMode.PASS_BY, speed=1.0, anchor=EnuPoint(0, 0, 0), duration=0.0
            )
