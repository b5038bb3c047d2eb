"""Decision logic: pre-departure threat ladder, encounter geometry
classes, the right-of-way tables cell by cell, de-escalation, and a full
walk of the airborne phase machine."""

import itertools
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from uamcas.agents import (
    DEFAULT_PERFORMANCE,
    FlightMode,
    IntruderBehavior,
    IntruderKind,
    IntruderRecord,
    OwnshipConfig,
    OwnshipState,
    ScriptMode,
    ScriptedBehavior,
)
from uamcas.cdr import (
    ApproachDirection,
    CdrParams,
    CdrPhase,
    CdrState,
    GroundCheckParams,
    GroundDecision,
    IntruderObservation,
    RelativePosition,
    approach_direction,
    cdr_step,
    de_escalated,
    diversion_target,
    emergency_maneuver,
    heading_threat,
    relative_position,
    tactical_maneuver,
    takeoff_delay_check,
)
from uamcas.envelopes import Zone
from uamcas.geo import EnuPoint
from uamcas.maneuvers import Action, IssuedBy, ManeuverCommand, TurnDirection

VT = DEFAULT_PERFORMANCE[OwnshipConfig.VECTORED_THRUST]
DRONE = IntruderKind.DRONE
BIRD = IntruderKind.BIRD
AHEAD = RelativePosition.AHEAD
BEHIND = RelativePosition.BEHIND


def own_state(pos=(0, 0, 304.8), track=0.0):
    return OwnshipState(
        t=0.0, pos=EnuPoint(*pos), track=track, ground_speed=78.0,
        vertical_speed=0.0, flight_mode=FlightMode.CRUISE,
        next_waypoint_index=1,
    )


class TestApproachDirection:
    OWN = own_state(track=0.0)

    def case(self, intr_track_deg, bearing_east):
        import math

        vx = 10.0 * math.sin(math.radians(intr_track_deg))
        vy = 10.0 * math.cos(math.radians(intr_track_deg))
        pos = EnuPoint(bearing_east, 1000.0, 304.8)
        return approach_direction(self.OWN.pos, self.OWN.track, pos, (vx, vy, 0.0))

    def test_reciprocal_track_is_head_on(self):
        assert self.case(180.0, 0.0) is ApproachDirection.HEAD_ON

    def test_head_on_cone_boundary_inclusive(self):
        # half angle 45: delta 135 still head-on, 134.9 is a side class
        assert self.case(135.0, 100.0) is ApproachDirection.HEAD_ON
        assert self.case(134.9, 100.0) is ApproachDirection.RIGHT

    def test_same_direction_cone_boundary_inclusive(self):
        assert self.case(0.0, 100.0) is ApproachDirection.SAME_DIRECTION
        assert self.case(45.0, 100.0) is ApproachDirection.SAME_DIRECTION
        assert self.case(45.1, 100.0) is ApproachDirection.RIGHT
        assert self.case(-45.1, -100.0) is ApproachDirection.LEFT

    def test_side_follows_bearing_not_track(self):
        assert self.case(90.0, 500.0) is ApproachDirection.RIGHT
        assert self.case(90.0, -500.0) is ApproachDirection.LEFT

    def test_stationary_intruder_classified_by_half_plane(self):
        own = self.OWN
        still = (0.0, 0.0, 0.0)
        assert approach_direction(own.pos, own.track, EnuPoint(10, 1000, 304.8), still) is ApproachDirection.RIGHT
        assert approach_direction(own.pos, own.track, EnuPoint(-10, 1000, 304.8), still) is ApproachDirection.LEFT
        # dead ahead counts as right (never head-on without a track)
        assert approach_direction(own.pos, own.track, EnuPoint(0, 1000, 304.8), still) is ApproachDirection.RIGHT


class TestRelativePosition:
    def test_quadrants(self):
        own = own_state(track=90.0)  # flying east
        assert relative_position(own.pos, own.track, EnuPoint(100, 50, 304.8)) is AHEAD
        assert relative_position(own.pos, own.track, EnuPoint(100, -50, 304.8)) is AHEAD
        assert relative_position(own.pos, own.track, EnuPoint(-100, 10, 304.8)) is BEHIND

    def test_abeam_counts_as_ahead(self):
        own = own_state(track=0.0)
        assert relative_position(own.pos, own.track, EnuPoint(500, 0, 304.8)) is AHEAD


class TestTacticalTable:
    """The automated right-of-way table, cell by cell."""

    def cmd(self, config, kind, direction, rel=AHEAD):
        return tactical_maneuver(config, kind, direction, rel, issued_at=7.0)

    def test_intruder_from_right_yields(self):
        c = self.cmd(VT, DRONE, ApproachDirection.RIGHT)
        assert c.action is Action.HOVER

    def test_intruder_from_left_has_to_give_way(self):
        c = self.cmd(VT, DRONE, ApproachDirection.LEFT)
        assert c.action is Action.CONTINUE_FLIGHT

    def test_head_on_slow_airframes_descend(self):
        for cfg in (OwnshipConfig.MULTICOPTER, OwnshipConfig.LIFT_CRUISE):
            c = self.cmd(DEFAULT_PERFORMANCE[cfg], DRONE, ApproachDirection.HEAD_ON)
            assert c.action is Action.HOVER_AND_DESCEND_TO
            assert c.target_alt == pytest.approx(243.84)  # 800 ft

    def test_head_on_fast_airframes_turn_right(self):
        for cfg in (OwnshipConfig.TILT_ROTOR, OwnshipConfig.VECTORED_THRUST):
            c = self.cmd(DEFAULT_PERFORMANCE[cfg], DRONE, ApproachDirection.HEAD_ON)
            assert c.action is Action.TURN_BY
            assert (c.turn_deg, c.direction) == (45.0, TurnDirection.RIGHT)

    def test_same_direction_ahead_changes_path(self):
        c = self.cmd(VT, DRONE, ApproachDirection.SAME_DIRECTION)
        assert c.action is Action.CHANGE_PATH
        assert c.offset_m == 1200.0

    def test_bird_always_descends(self):
        for direction in ApproachDirection:
            c = self.cmd(VT, BIRD, direction)
            assert c.action is Action.HOVER_AND_DESCEND_TO

    def test_receding_traffic_left_alone(self):
        for direction in (ApproachDirection.HEAD_ON, ApproachDirection.SAME_DIRECTION):
            c = self.cmd(VT, DRONE, direction, rel=BEHIND)
            assert c.action is Action.CONTINUE_FLIGHT
        # a crossing intruder behind still gets the side-rule treatment
        c = self.cmd(VT, DRONE, ApproachDirection.RIGHT, rel=BEHIND)
        assert c.action is Action.HOVER

    def test_receding_beats_bird_rule(self):
        c = self.cmd(VT, BIRD, ApproachDirection.HEAD_ON, rel=BEHIND)
        assert c.action is Action.CONTINUE_FLIGHT

    def test_total_over_all_cells(self):
        for cfg, kind, direction, rel in itertools.product(
            OwnshipConfig, IntruderKind, ApproachDirection, RelativePosition
        ):
            c = tactical_maneuver(DEFAULT_PERFORMANCE[cfg], kind, direction, rel)
            assert isinstance(c, ManeuverCommand)
            assert c.issued_by is IssuedBy.AUTOMATED


class TestEmergencyTable:
    PORTS = {
        "V1": EnuPoint(0, 0, 0),
        "V2": EnuPoint(20000, 0, 0),
        "V3": EnuPoint(9000, 4000, 0),
    }
    OWN = own_state(pos=(10000, 0, 304.8), track=90.0)  # V3 nearest

    def cmd(self, direction, kind=DRONE):
        return emergency_maneuver(direction, kind, self.OWN.pos, self.PORTS, issued_at=9.0)

    def test_right_turns_away_left(self):
        c = self.cmd(ApproachDirection.RIGHT)
        assert c.action is Action.TURN_BY
        assert (c.turn_deg, c.direction) == (45.0, TurnDirection.LEFT)

    def test_left_diverts_turning_right(self):
        c = self.cmd(ApproachDirection.LEFT)
        assert c.action is Action.REROUTE_TO
        assert c.target_vertiport == "V3"
        assert c.direction is TurnDirection.RIGHT

    def test_head_on_diverts_keeping_current_turn(self):
        c = self.cmd(ApproachDirection.HEAD_ON)
        assert c.action is Action.REROUTE_TO
        assert c.direction is None

    def test_same_direction_offsets(self):
        c = self.cmd(ApproachDirection.SAME_DIRECTION)
        assert c.action is Action.LATERAL_OFFSET
        assert c.offset_m == 1200.0

    def test_bird_diverts_right(self):
        for direction in ApproachDirection:
            c = self.cmd(direction, kind=BIRD)
            assert c.action is Action.REROUTE_TO
            assert c.direction is TurnDirection.RIGHT

    def test_all_pilot_issued(self):
        for direction, kind in itertools.product(ApproachDirection, IntruderKind):
            c = self.cmd(direction, kind)
            assert c.issued_by is IssuedBy.PILOT


class TestDiversion:
    def test_nearest_wins(self):
        ports = {"V1": EnuPoint(50, 0, 0), "V2": EnuPoint(5000, 0, 0), "V3": EnuPoint(900, 0, 0)}
        assert diversion_target(EnuPoint(0, 0, 300), ports) == "V1"

    def test_tie_prefers_destination_then_alternate(self):
        ports = {
            "V1": EnuPoint(100, 0, 0),
            "V2": EnuPoint(0, 100, 0),
            "V3": EnuPoint(-100, 0, 0),
        }
        assert diversion_target(EnuPoint(0, 0, 300), ports) == "V2"
        del ports["V2"]
        assert diversion_target(EnuPoint(0, 0, 300), ports) == "V3"


class TestDeEscalation:
    HOLD = 5.0

    def test_empty_history_is_not_resolved(self):
        assert not de_escalated([], 10.0, self.HOLD)

    def test_needs_full_window_of_history(self):
        hist = [(8.0, 900.0, Zone.CAUTION), (9.0, 950.0, Zone.CAUTION)]
        assert not de_escalated(hist, 10.0, self.HOLD)

    def test_absent_for_whole_window_resolves(self):
        hist = [(t, None, None) for t in range(0, 11)]
        assert de_escalated(hist, 10.0, self.HOLD)

    def test_partial_absence_does_not_resolve(self):
        hist = [(float(t), None, None) for t in range(0, 10)]
        hist.append((10.0, 800.0, Zone.WARNING))
        assert not de_escalated(hist, 10.0, self.HOLD)

    def test_strictly_opening_range_outside_warning_resolves(self):
        hist = [(float(t), 1100.0 + 40 * t, Zone.CAUTION) for t in range(0, 11)]
        assert de_escalated(hist, 10.0, self.HOLD)

    def test_plateau_does_not_resolve(self):
        hist = [(float(t), 1500.0, Zone.CAUTION) for t in range(0, 11)]
        assert not de_escalated(hist, 10.0, self.HOLD)

    def test_still_inside_warning_does_not_resolve(self):
        hist = [(float(t), 500.0 + 40 * t, Zone.WARNING) for t in range(0, 11)]
        assert not de_escalated(hist, 10.0, self.HOLD)

    def test_gap_at_window_start_does_not_resolve(self):
        hist = [(float(t), 1100.0 + 40 * t, Zone.CAUTION) for t in range(0, 11)]
        hist[5] = (5.0, None, None)  # exactly at now - hold
        assert not de_escalated(hist, 10.0, self.HOLD)
        assert de_escalated(hist[6:], 10.0, 4.0)

    def test_dip_inside_window_does_not_resolve(self):
        seps = [1100, 1140, 1120, 1180, 1220, 1260]
        hist = [(float(5 + i), float(s), Zone.CAUTION) for i, s in enumerate(seps)]
        hist.insert(0, (0.0, 1000.0, Zone.CAUTION))
        assert not de_escalated(hist, 10.0, self.HOLD)


def reference_de_escalated(history, now, hold_duration):
    """The list-building de-escalation test the one-pass de_escalated
    replaced, kept as its reference."""
    if not history:
        return False
    window = [h for h in history if h[0] >= now - hold_duration]
    if not window or history[0][0] > now - hold_duration:
        return False  # not enough history yet
    seps = [s for _, s, _ in window]
    if all(s is None for s in seps):
        return True
    if any(s is None for s in seps):
        return False
    last_zone = window[-1][2]
    if last_zone is None or last_zone >= Zone.WARNING:
        return False
    return all(a < b for a, b in zip(seps, seps[1:]))


# Weighted toward the zones that let an opening range resolve.
ZONES = st.sampled_from([Zone.CLEAR, Zone.CLEAR, Zone.CAUTION, Zone.CAUTION, None, Zone.WARNING, Zone.COLLISION])
FLAWS = st.sampled_from([None, "gap", "present", "plateau", "plateau", "dip", "dip"])


NOW = 10.0


@st.composite
def histories(draw):
    """A hold time and a time-ordered (t, sep, zone) history ending at
    or before NOW, on a 0.5 s grid so an entry can fall exactly on
    NOW - hold.  Shaped to reach every branch: it may start after the
    window opens or end before it, one instant may repeat, and the
    separations are absent throughout or opening, each with at most one
    flaw among the newest entries (a gap, a presence, a plateau or a
    dip), or drawn from a few repeated values."""
    hold = draw(st.sampled_from([2.5, 5.0]))
    first = draw(st.one_of(st.integers(0, 10), st.integers(0, 20)))
    last = draw(st.one_of(st.just(20), st.just(20), st.integers(first, 20)))
    ticks = list(range(first, last + 1))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(ticks) - 1))
        ticks.insert(i, ticks[i])
    n = len(ticks)
    shape = draw(st.sampled_from(["absent", "opening", "random"]))
    if shape == "absent":
        seps = [None] * n
    elif shape == "opening":
        seps, sep = [], draw(st.floats(0.0, 2000.0))
        for _ in range(n):
            sep += draw(st.sampled_from([1.0, 40.0, 75.5]))
            seps.append(sep)
    else:
        seps = draw(st.lists(st.sampled_from([None, 100.0, 200.0, 300.0]), min_size=n, max_size=n))
    flaw = draw(FLAWS) if shape != "random" else None
    if flaw is not None:
        i = draw(st.integers(max(0, n - 12), n - 1))
        if flaw == "gap":
            seps[i] = None
        elif flaw == "present":
            seps[i] = 500.0
        elif i > 0 and seps[i - 1] is not None:
            seps[i] = seps[i - 1] - (0.0 if flaw == "plateau" else 10.0)
    zones = [draw(ZONES) if sep is not None else None for sep in seps]
    history = [(k * 0.5, sep, zone) for k, sep, zone in zip(ticks, seps, zones)]
    return history, hold


class TestDeEscalationMatchesReference:
    @settings(max_examples=400)
    @given(case=histories(), empty=st.booleans())
    def test_random_histories(self, case, empty):
        history, hold = case
        if empty:
            history = []
        expected = reference_de_escalated(history, NOW, hold)
        assert de_escalated(history, NOW, hold) == expected
        assert de_escalated(deque(history), NOW, hold) == expected

    def test_strategy_reaches_both_answers(self):
        answers = set()

        @settings(max_examples=200)
        @given(case=histories())
        def collect(case):
            answers.add(reference_de_escalated(case[0], NOW, case[1]))

        collect()
        assert answers == {True, False}


# ---------------------------------------------------------------- ground

V1 = EnuPoint(0, 0, 0)
R1_POLY = (EnuPoint(0, 0, 0), EnuPoint(10000, 0, 304.8))
R2_POLY = (EnuPoint(0, 0, 0), EnuPoint(0, 10000, 304.8))
POLYS = {"ROUTE1": R1_POLY, "ROUTE2": R2_POLY}
GP = GroundCheckParams()


def linger(pos, spawn=0.0, hold=1e6, name="L"):
    return IntruderRecord(
        name, DRONE, IntruderBehavior.PREDICTABLE,
        spawn_time=spawn, ground_clock=True,
        script=ScriptedBehavior(
            ScriptMode.LINGER, speed=1.0, anchor=EnuPoint(*pos), linger_duration=hold
        ),
    )


class TestHeadingThreat:
    def test_overhead_ring_trumps_heading(self):
        tc = heading_threat(EnuPoint(300, 300, 60), (5.0, 5.0, 0.0), V1, POLYS, GP)
        assert tc == {"ROUTE1", "ROUTE2"}

    def test_stationary_inside_corridor(self):
        tc = heading_threat(EnuPoint(5000, 200, 100), (0.0, 0.0, 0.0), V1, POLYS, GP)
        assert tc == {"ROUTE1"}

    def test_projection_crosses_corridor(self):
        # 1 km off the corridor but converging: 600 s lookahead at 2 m/s
        tc = heading_threat(EnuPoint(5000, 1000, 100), (0.0, -2.0, 0.0), V1, POLYS, GP)
        assert tc == {"ROUTE1"}

    def test_parallel_track_outside_corridor_is_clear(self):
        tc = heading_threat(EnuPoint(5000, 1000, 100), (2.0, 0.0, 0.0), V1, POLYS, GP)
        assert tc == set()

    def test_both_routes(self):
        tc = heading_threat(EnuPoint(700, 700, 100), (-1.0, -1.0, 0.0), V1, POLYS, GP)
        assert tc == {"ROUTE1", "ROUTE2"}


class TestTakeoffLadder:
    def check(self, intruders, planned="ROUTE1"):
        return takeoff_delay_check(intruders, V1, POLYS, GP, planned)

    def test_clean_sky_departs_immediately(self):
        d = self.check([])
        assert d == GroundDecision.depart("ROUTE1", 0.0)

    def test_overhead_clears_after_one_wait(self):
        d = self.check([linger((100, 0, 60), hold=250.0)])
        assert d == GroundDecision.depart("ROUTE1", 300.0)

    def test_persistent_overhead_postpones(self):
        d = self.check([linger((100, 0, 60))])
        assert d.postponed
        assert d.route is None

    def test_blocked_planned_route_falls_back(self):
        # route 1 corridor occupied indefinitely; fallback available at
        # the first re-scan, costing wait + reroute buffer
        d = self.check([linger((5000, 100, 150))])
        assert d == GroundDecision.depart("ROUTE2", 360.0)

    def test_fallback_only_at_final_scan(self):
        d = self.check(
            [
                linger((5000, 100, 150), name="r1"),
                linger((100, 5000, 150), hold=550.0, name="r2"),
            ]
        )
        assert d == GroundDecision.depart("ROUTE2", 660.0)

    def test_everything_blocked_postpones(self):
        d = self.check(
            [linger((5000, 100, 150), name="r1"), linger((100, 5000, 150), name="r2")]
        )
        assert d.postponed

    def test_planned_route_two_symmetric(self):
        d = self.check([linger((5000, 100, 150))], planned="ROUTE2")
        assert d == GroundDecision.depart("ROUTE2", 0.0)

    def test_single_route_has_no_fallback(self):
        d = takeoff_delay_check([linger((5000, 100, 150))], V1, {"ROUTE1": R1_POLY}, GP, "ROUTE1")
        assert d.postponed

    @pytest.mark.parametrize("order", [("EAST", "NORTH", "SOUTH"), ("EAST", "SOUTH", "NORTH")])
    def test_fallback_is_first_other_route_in_order(self, order):
        south = (EnuPoint(0, 0, 0), EnuPoint(0, -10000, 304.8))
        polys = {"EAST": R1_POLY, "NORTH": R2_POLY, "SOUTH": south}
        polys = {rid: polys[rid] for rid in order}
        d = takeoff_delay_check([linger((5000, 100, 150))], V1, polys, GP, "EAST")
        assert d == GroundDecision.depart(order[1], 360.0)

    def test_spawn_times_respected(self):
        # threat only materializes at the second scan; t=0 is clean
        d = self.check([linger((100, 0, 60), spawn=200.0)])
        assert d == GroundDecision.depart("ROUTE1", 0.0)


# ----------------------------------------------------------- phase walk

PORTS = {"V1": EnuPoint(0, 0, 0), "V2": EnuPoint(20000, 0, 0), "V3": EnuPoint(-5000, 8000, 0)}


def obs(sep, zone, pos=(400, 300, 304.8), vel=(-10.0, 0.0, 0.0), name="X", kind=DRONE):
    return IntruderObservation(name, kind, EnuPoint(*pos), vel, sep, zone)


def step(state, t, observations, history=None, own=None, params=CdrParams()):
    own = own or own_state(track=0.0)
    return cdr_step(
        state, t, own.pos, own.track, observations,
        history or {}, PORTS, VT, params,
    )


class TestPhaseMachine:
    def test_full_walk_to_emergency_and_diversion(self):
        st = CdrState()

        # caution entry arms the detect timer
        st, cmd = step(st, 10.0, [obs(2000.0, Zone.CAUTION)])
        assert st.phase is CdrPhase.DETECT
        assert st.detect_started_at == 10.0
        assert st.encounter_id == "X"
        assert cmd is None

        # classification runs for detect_duration seconds
        st, cmd = step(st, 11.0, [obs(1900.0, Zone.CAUTION)])
        assert st.phase is CdrPhase.DETECT and cmd is None
        st, cmd = step(st, 13.0, [obs(1700.0, Zone.CAUTION)])
        assert st.phase is CdrPhase.AVOID
        assert cmd is not None and cmd.issued_by is IssuedBy.AUTOMATED
        assert cmd.action is Action.HOVER  # crossing drone from the right

        # warning penetration while avoiding: pilot steps in
        st, cmd = step(st, 14.0, [obs(900.0, Zone.WARNING)])
        assert st.phase is CdrPhase.EMERGENCY
        assert st.passed_emergency
        assert cmd is not None and cmd.issued_by is IssuedBy.PILOT

        # conflict resolved: pilot reroutes to the nearest pad
        hist = {"X": [(float(t), 1100.0 + 50 * t, Zone.CAUTION) for t in range(9, 21)]}
        st, cmd = step(st, 20.0, [obs(2100.0, Zone.CAUTION)], history=hist)
        assert st.phase is CdrPhase.DE_ESCALATED
        assert cmd.action is Action.REROUTE_TO
        assert cmd.issued_by is IssuedBy.PILOT

        # and the machine re-arms
        st, cmd = step(st, 21.0, [obs(2200.0, Zone.CLEAR)])
        assert st.phase is CdrPhase.MONITORING
        assert st.encounter_id is None
        assert not st.passed_emergency
        assert cmd is None

    def test_avoid_resolves_automatically_without_emergency(self):
        st = CdrState(phase=CdrPhase.AVOID, detect_started_at=0.0, encounter_id="X")
        hist = {"X": [(float(t), 1200.0 + 60 * t, Zone.CAUTION) for t in range(0, 12)]}
        st, cmd = step(st, 10.0, [obs(1800.0, Zone.CAUTION)], history=hist)
        assert st.phase is CdrPhase.DE_ESCALATED
        assert cmd.action is Action.CONTINUE_FLIGHT
        assert cmd.issued_by is IssuedBy.AUTOMATED

    def test_detect_aborts_when_contact_vanishes(self):
        st = CdrState(phase=CdrPhase.DETECT, detect_started_at=5.0, encounter_id="X")
        st, cmd = step(st, 6.0, [])
        assert st.phase is CdrPhase.MONITORING
        assert st.encounter_id is None and cmd is None

    def test_no_retrigger_while_separation_recedes_inside_ring(self):
        # after resolution the opponent may still be inside a ring; only a
        # fresh ring crossing re-arms the machine
        st = CdrState(phase=CdrPhase.MONITORING, prev_zone=Zone.WARNING)
        st, cmd = step(st, 30.0, [obs(900.0, Zone.WARNING)])
        assert st.phase is CdrPhase.MONITORING and cmd is None
        # decay to caution: still no trigger (zone not above previous)
        st, cmd = step(st, 31.0, [obs(1500.0, Zone.CAUTION)])
        assert st.phase is CdrPhase.MONITORING
        # re-approach crossing back into warning is a fresh edge
        st, cmd = step(st, 32.0, [obs(1000.0, Zone.WARNING)])
        assert st.phase is CdrPhase.DETECT

    def test_collision_zone_absorbs(self):
        st = CdrState(phase=CdrPhase.AVOID, detect_started_at=0.0, encounter_id="X")
        st, cmd = step(st, 9.0, [obs(100.0, Zone.COLLISION)])
        assert st.phase is CdrPhase.COLLIDED and cmd is None
        st2, cmd = step(st, 10.0, [obs(2000.0, Zone.CLEAR)])
        assert st2 is st and cmd is None

    def test_closest_intruder_governs(self):
        st = CdrState()
        far = obs(2100.0, Zone.CAUTION, name="far")
        near = obs(1800.0, Zone.CAUTION, name="near")
        st, _ = step(st, 5.0, [far, near])
        assert st.encounter_id == "near"

    def test_trigger_zone_configurable(self):
        p = CdrParams(tactical_trigger_zone=Zone.WARNING)
        st, _ = step(CdrState(), 5.0, [obs(1900.0, Zone.CAUTION)], params=p)
        assert st.phase is CdrPhase.MONITORING
        st, _ = step(CdrState(), 5.0, [obs(900.0, Zone.WARNING)], params=p)
        assert st.phase is CdrPhase.DETECT

    def test_emergency_holds_until_window_clears(self):
        st = CdrState(phase=CdrPhase.EMERGENCY, encounter_id="X", passed_emergency=True)
        hist = {"X": [(float(t), 2000.0 - 10 * t, Zone.CAUTION) for t in range(0, 12)]}
        st, cmd = step(st, 10.0, [obs(1900.0, Zone.CAUTION)], history=hist)
        assert st.phase is CdrPhase.EMERGENCY and cmd is None
