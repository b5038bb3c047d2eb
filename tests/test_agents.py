"""Ownship kinematics and intruder motion models, checked against hand
computations (climb timing, turn geometry) and closed-form positions."""

import math
from bisect import bisect_right

import pytest
from hypothesis import given, strategies as st

from uamcas.geo import EnuPoint, horizontal_distance
from uamcas.agents import (
    DEFAULT_PERFORMANCE,
    FlightMode,
    Guidance,
    GuidanceKind,
    HeadOnStrategy,
    IntruderBehavior,
    IntruderKind,
    IntruderRecord,
    NavPlan,
    OwnshipConfig,
    OwnshipState,
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
from uamcas.maneuvers import (
    InfeasibleManeuverError,
    IssuedBy,
    TurnDirection,
    continue_flight,
    hover_and_descend_to,
    lateral_offset,
    reroute_to,
    turn_by,
)

AUTO = IssuedBy.AUTOMATED

VT = DEFAULT_PERFORMANCE[OwnshipConfig.VECTORED_THRUST]


def plan(*wpts, dest="V2"):
    return NavPlan(tuple(EnuPoint(*w) for w in wpts), dest)


def step(state, perf, guidance, dt):
    """One ownship_step on an OwnshipState, returning the next one."""
    t, (east, north, up), track, ground_speed, _, mode, idx = state
    out = ownship_step(east, north, up, track, ground_speed, mode, idx, perf, guidance, dt)
    east, north, up, track, ground_speed, vertical_speed, mode, idx = out
    return OwnshipState(
        t + dt, EnuPoint(east, north, up), track, ground_speed, vertical_speed, mode, idx
    )


def cruise_state(pos, track, perf=VT, idx=0):
    return OwnshipState(
        t=0.0,
        pos=EnuPoint(*pos),
        track=track,
        ground_speed=perf.cruise_speed,
        vertical_speed=0.0,
        flight_mode=FlightMode.CRUISE,
        next_waypoint_index=idx,
    )


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


class TestStateValidation:
    def test_hover_needs_zero_speed(self):
        with pytest.raises(ValueError):
            OwnshipState(
                0.0, EnuPoint(0, 0, 300), 0.0, 10.0, 0.0,
                FlightMode.HOVER, 0,
            )

    def test_ground_needs_zero_altitude(self):
        with pytest.raises(ValueError):
            OwnshipState(
                0.0, EnuPoint(0, 0, 10), 0.0, 0.0, 0.0,
                FlightMode.GROUND, 0,
            )


class TestResolveCommand:
    P = plan((0, 5000, 304.8), (0, 10000, 304.8))

    def test_continue_reverts_to_plan(self):
        st0 = cruise_state((0, 0, 304.8), 0.0)
        g = Guidance(GuidanceKind.HOVER, self.P)
        g2, st2 = resolve_command(st0, VT, g, continue_flight(AUTO, 5.0), {})
        assert g2.kind is GuidanceKind.FOLLOW_PLAN
        assert g2.plan is self.P
        assert st2 is st0

    def test_descend_target_must_be_below_cruise(self):
        st0 = cruise_state((0, 0, 304.8), 0.0)
        with pytest.raises(InfeasibleManeuverError):
            resolve_command(
                st0, VT, follow_plan(self.P),
                hover_and_descend_to(304.8, AUTO, 1.0), {},
            )
        g2, _ = resolve_command(
            st0, VT, follow_plan(self.P), hover_and_descend_to(150.0, AUTO, 1.0), {}
        )
        assert g2.kind is GuidanceKind.HOVER_DESCEND
        assert g2.target_alt == 150.0

    def test_turn_sets_held_track(self):
        st0 = cruise_state((0, 0, 304.8), 350.0)
        g2, _ = resolve_command(
            st0, VT, follow_plan(self.P),
            turn_by(45.0, TurnDirection.RIGHT, AUTO, 1.0), {},
        )
        assert g2.kind is GuidanceKind.HOLD_TRACK
        assert g2.target_track == pytest.approx(35.0)
        assert g2.slew is TurnDirection.RIGHT

    def test_reroute_replaces_plan(self):
        st0 = cruise_state((0, 0, 304.8), 0.0, idx=1)
        ports = {"V3": EnuPoint(-8000, 2000, 0)}
        g2, st2 = resolve_command(
            st0, VT, follow_plan(self.P), reroute_to("V3", IssuedBy.PILOT, 2.0), ports
        )
        assert g2.plan.waypoints == (ports["V3"],)
        assert g2.plan.destination_id == "V3"
        assert st2.next_waypoint_index == 0

    def test_reroute_unknown_pad_is_infeasible(self):
        st0 = cruise_state((0, 0, 304.8), 0.0)
        with pytest.raises(InfeasibleManeuverError):
            resolve_command(
                st0, VT, follow_plan(self.P), reroute_to("V9", IssuedBy.PILOT, 2.0), {}
            )

    def test_lateral_offset_shifts_path_keeps_destination(self):
        # track north, positive offset goes east (starboard)
        st0 = cruise_state((0, 0, 304.8), 0.0)
        g2, st2 = resolve_command(
            st0, VT, follow_plan(self.P), lateral_offset(300.0, IssuedBy.PILOT, 3.0), {}
        )
        w = g2.plan.waypoints
        assert (w[0].east, w[0].north) == pytest.approx((300.0, 0.0))
        assert (w[1].east, w[1].north) == pytest.approx((300.0, 5000.0))
        assert w[-1] == self.P.waypoints[-1]  # rejoin: destination unmoved
        assert st2.next_waypoint_index == 0

    def test_negative_offset_goes_port(self):
        st0 = cruise_state((0, 0, 304.8), 0.0)
        g2, _ = resolve_command(
            st0, VT, follow_plan(self.P), lateral_offset(-300.0, IssuedBy.PILOT, 3.0), {}
        )
        assert g2.plan.waypoints[0].east == pytest.approx(-300.0)


class TestClimbOut:
    def test_climb_duration_matches_rate(self):
        # 304.8 m at 1.7 m/s: airborne until ~179.3 s, then level cruise
        p = plan((0, 0, 0), (10000, 0, 0))
        st0 = OwnshipState(
            0.0, EnuPoint(0, 0, 0), 0.0, 0.0, 0.0,
            FlightMode.GROUND, 0,
        )
        g = follow_plan(p)
        dt = 0.1
        state = st0
        while state.flight_mode is not FlightMode.CRUISE:
            state = step(state, VT, g, dt)
            assert state.t < 200.0, "climb never finished"
        expect = VT.cruise_alt / VT.climb_rate
        assert expect <= state.t <= expect + 2 * dt
        assert state.pos.up == VT.cruise_alt

    def test_level_off_skips_departure_pad(self):
        p = plan((0, 0, 0), (10000, 0, 0))
        st0 = OwnshipState(
            0.0, EnuPoint(0, 0, 304.75), 0.0, 0.0, VT.climb_rate,
            FlightMode.VERTICAL_CLIMB, 0,
        )
        state = step(st0, VT, follow_plan(p), 0.1)
        assert state.flight_mode is FlightMode.CRUISE
        assert state.next_waypoint_index == 1  # pad is inside the capture ring
        assert state.track == pytest.approx(90.0)
        assert state.ground_speed == VT.cruise_speed


class TestCruise:
    def test_straight_leg_advances_at_cruise_speed(self):
        p = plan((10000, 0, 304.8))
        st0 = cruise_state((0, 0, 304.8), 90.0)
        st1 = step(st0, VT, follow_plan(p), 0.5)
        assert st1.pos.east == pytest.approx(39.0)
        assert st1.pos.north == pytest.approx(0.0)
        assert st1.track == 90.0

    def test_waypoint_capture_switches_target(self):
        p = plan((10000, 0, 304.8), (10000, 8000, 304.8))
        st0 = cruise_state((9960, 0, 304.8), 90.0)  # 40 m out: captured
        st1 = step(st0, VT, follow_plan(p), 0.1)
        assert st1.next_waypoint_index == 1
        assert st1.track == pytest.approx(90.0 - VT.turn_rate * 0.1)

    def test_destination_capture_starts_descent(self):
        p = plan((10000, 0, 304.8))
        st0 = cruise_state((9970, 0, 304.8), 90.0)
        st1 = step(st0, VT, follow_plan(p), 0.1)
        assert st1.flight_mode is FlightMode.VERTICAL_DESCENT
        assert st1.ground_speed == 0.0
        assert st1.pos.up == pytest.approx(304.8 - 1.7 * 0.1)

    def test_touchdown_clamps_to_ground(self):
        p = plan((0, 0, 304.8))
        st0 = OwnshipState(
            0.0, EnuPoint(0, 0, 0.1), 90.0, 0.0, -1.7,
            FlightMode.VERTICAL_DESCENT, 1,
        )
        st1 = step(st0, VT, follow_plan(p), 0.1)
        assert st1.flight_mode is FlightMode.GROUND
        assert st1.pos.up == 0.0

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
        # recovering altitude after a commanded descent trades forward speed
        p = plan((100000, 0, 304.8))
        st0 = cruise_state((0, 0, 150.0), 90.0)
        st1 = step(st0, VT, follow_plan(p), 1.0)
        assert st1.vertical_speed == pytest.approx(VT.climb_rate)
        total = math.hypot(st1.ground_speed, st1.vertical_speed)
        assert total == pytest.approx(VT.cruise_speed)
        assert st1.pos.up == pytest.approx(151.7)


class TestHoverDirectives:
    P = plan((10000, 0, 304.8))

    def test_hover_freezes_position(self):
        st0 = cruise_state((500, 0, 304.8), 90.0)
        g = Guidance(GuidanceKind.HOVER, self.P)
        st1 = step(st0, VT, g, 0.5)
        assert st1.flight_mode is FlightMode.HOVER
        assert (st1.pos.east, st1.pos.north, st1.pos.up) == (500, 0, 304.8)
        assert st1.ground_speed == 0.0

    def test_hover_descend_stops_at_target(self):
        g = Guidance(GuidanceKind.HOVER_DESCEND, self.P, target_alt=300.0)
        st = cruise_state((500, 0, 304.8), 90.0)
        for _ in range(40):
            st = step(st, VT, g, 0.1)
        assert st.pos.up == pytest.approx(300.0)
        assert st.flight_mode is FlightMode.HOVER
        assert st.pos.east == 500.0

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


class TestSpeedInvariant:
    @given(
        east=st.floats(-5000, 5000),
        north=st.floats(-5000, 5000),
        up=st.floats(100, 304.8),
        track=st.floats(0, 360),
        dt=st.floats(0.05, 1.0),
    )
    def test_cruise_speed_never_exceeded(self, east, north, up, track, dt):
        p = plan((20000, 20000, 304.8))
        st0 = cruise_state((east, north, up), track)
        st1 = step(st0, VT, follow_plan(p), dt)
        moved = math.sqrt(
            (st1.pos.east - east) ** 2
            + (st1.pos.north - north) ** 2
            + (st1.pos.up - up) ** 2
        )
        assert moved <= VT.cruise_speed * dt * (1 + 1e-9)


class TestTrajectories:
    def test_needs_two_samples(self):
        with pytest.raises(TrajectoryError):
            Trajectory(((0.0, EnuPoint(0, 0, 0)),))

    def test_times_strictly_increase(self):
        with pytest.raises(TrajectoryError):
            Trajectory(((0.0, EnuPoint(0, 0, 0)), (0.0, EnuPoint(1, 0, 0))))

    def test_playback_interpolates(self):
        traj = Trajectory(
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
        pos, vel = intruder_state_at(rec, 5.0)
        assert (pos.east, pos.north) == pytest.approx((50.0, 0.0))
        assert vel == pytest.approx((10.0, 0.0, 0.0))
        pos, vel = intruder_state_at(rec, 15.0)
        assert (pos.east, pos.north, pos.up) == pytest.approx((100.0, 50.0, 25.0))
        assert vel == pytest.approx((0.0, 10.0, 5.0))
        # inclusive endpoints, absent outside
        assert intruder_state_at(rec, 20.0)[0].north == 100.0
        assert intruder_state_at(rec, 20.01) is None

    def test_playback_matches_a_bisect_over_the_samples(self):
        """Playback bisects the times Trajectory stores once; it must give
        what a bisect over the samples themselves gives, at, between and
        outside the sample times."""
        traj = Trajectory(
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
        assert traj.times == [t for t, _ in traj.samples]
        times = traj.times
        mids = [(a + b) / 2 for a, b in zip(times, times[1:])]
        outside = [-1.0, -1e-9, times[-1] + 1e-9, 100.0]
        for rel in [*times, *mids, *outside]:
            got = intruder_state_at(rec, rel)
            want = reference(rel)
            if want is None:
                assert got is None, rel
            else:
                pos, vel = got
                assert ((pos.east, pos.north, pos.up), vel) == want, rel

    def test_equal_samples_compare_equal(self):
        samples = ((0.0, EnuPoint(0, 0, 0)), (10.0, EnuPoint(100, 0, 0)))
        a, b = Trajectory(samples), Trajectory(tuple(samples))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Trajectory(((0.0, EnuPoint(0, 0, 0)), (11.0, EnuPoint(100, 0, 0))))
        assert repr(a) == f"Trajectory(samples={samples!r})"

    def test_spawn_time_offsets_playback(self):
        traj = Trajectory(((0.0, EnuPoint(0, 0, 0)), (10.0, EnuPoint(100, 0, 0))))
        rec = IntruderRecord(
            "I1", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE,
            spawn_time=100.0, trajectory=traj,
        )
        assert intruder_state_at(rec, 99.9) is None
        pos, _ = intruder_state_at(rec, 105.0)
        assert pos.east == pytest.approx(50.0)

    def test_record_validation(self):
        # a record carries exactly one of a trajectory and a script
        traj = Trajectory(((0.0, EnuPoint(0, 0, 0)), (10.0, EnuPoint(100, 0, 0))))
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
        assert intruder_state_at(rec, 49.9) is None
        pos, vel = intruder_state_at(rec, 60.0)
        assert pos.east == pytest.approx(100.0)
        assert pos.up == 100.0
        assert vel == pytest.approx((10.0, 0.0, 0.0))
        assert intruder_state_at(rec, 70.0) is not None  # duration inclusive
        assert intruder_state_at(rec, 70.1) is None

    def test_linger_then_despawn(self):
        script = ScriptedBehavior(
            ScriptMode.LINGER, speed=1.0,
            anchor=EnuPoint(500, 500, 120), linger_duration=30.0,
        )
        rec = IntruderRecord(
            "D2", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE,
            script=script,
        )
        pos, vel = intruder_state_at(rec, 15.0)
        assert pos == EnuPoint(500, 500, 120)
        assert vel == (0.0, 0.0, 0.0)
        assert intruder_state_at(rec, 30.1) is None

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
        pos, vel = intruder_state_at(rec, 5.0, ownship_pos=own, prev_pos=None, dt=1.0)
        assert pos == script.anchor and vel == (0.0, 0.0, 0.0)
        pos, vel = intruder_state_at(
            rec, 11.0, ownship_pos=own, prev_pos=script.anchor, dt=1.0
        )
        assert pos.east == pytest.approx(95.0)
        assert vel == pytest.approx((-5.0, 0.0, 0.0))

    def test_pursuit_does_not_overshoot(self):
        script = ScriptedBehavior(ScriptMode.PURSUIT, speed=5.0, anchor=EnuPoint(100, 0, 50))
        rec = IntruderRecord(
            "B1", IntruderKind.BIRD, IntruderBehavior.UNPREDICTABLE,
            script=script,
        )
        own = EnuPoint(0, 0, 50)
        pos, _ = intruder_state_at(
            rec, 1.0, ownship_pos=own, prev_pos=EnuPoint(2, 0, 50), dt=1.0
        )
        assert (pos.east, pos.north, pos.up) == (0.0, 0.0, 50.0)

    def test_script_validation(self):
        with pytest.raises(ValueError):
            ScriptedBehavior(ScriptMode.PASS_BY, speed=0.0, anchor=EnuPoint(0, 0, 0))
        with pytest.raises(ValueError):
            ScriptedBehavior(
                ScriptMode.PASS_BY, speed=1.0, anchor=EnuPoint(0, 0, 0), duration=0.0
            )
