"""Decision logic: pre-departure threat ladder, encounter geometry
classes, the decision table cell by cell, de-escalation, and a full
walk of the airborne phase machine."""

import itertools
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uamcas import cdr, engine
from uamcas.agents import (
    DEFAULT_PERFORMANCE,
    HeadOnStrategy,
    IntruderBehavior,
    IntruderKind,
    IntruderRecord,
    OwnshipConfig,
    ScriptMode,
    ScriptedBehavior,
)
from uamcas.cdr import (
    ApproachDirection,
    CdrParams,
    CdrPhase,
    CdrState,
    DECISION_TABLE,
    GroundCheckParams,
    GroundDecision,
    IntruderObservation,
    RelativePosition,
    approach_direction,
    build_command,
    cdr_step,
    de_escalated,
    de_escalation_hold,
    decide,
    detect_hold,
    diversion_target,
    extend_run,
    fold_run,
    heading_threat,
    holds,
    relative_position,
    takeoff_delay_check,
)
from uamcas.envelopes import Zone
from uamcas.geo import EnuPoint
from uamcas.maneuvers import Action, ManeuverCommand, TurnDirection
from uamcas.pack import default_pack
from uamcas.scenario_io import parse_scenario

VT = DEFAULT_PERFORMANCE[OwnshipConfig.VECTORED_THRUST]
DRONE = IntruderKind.DRONE
BIRD = IntruderKind.BIRD
AHEAD = RelativePosition.AHEAD
BEHIND = RelativePosition.BEHIND


def own(pos=(0, 0, 304.8), track=0.0):
    """The ownship as the decision reads it: position and track."""
    return EnuPoint(*pos), track


class TestApproachDirection:
    OWN = own(track=0.0)

    def case(self, intr_track_deg, bearing_east):
        import math

        vx = 10.0 * math.sin(math.radians(intr_track_deg))
        vy = 10.0 * math.cos(math.radians(intr_track_deg))
        pos = EnuPoint(bearing_east, 1000.0, 304.8)
        return approach_direction(*self.OWN, pos, (vx, vy, 0.0))

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
        still = (0.0, 0.0, 0.0)
        assert approach_direction(*self.OWN, EnuPoint(10, 1000, 304.8), still) is ApproachDirection.RIGHT
        assert approach_direction(*self.OWN, EnuPoint(-10, 1000, 304.8), still) is ApproachDirection.LEFT
        # dead ahead counts as right (never head-on without a track)
        assert approach_direction(*self.OWN, EnuPoint(0, 1000, 304.8), still) is ApproachDirection.RIGHT

    @pytest.mark.parametrize("own_track,unit", [
        (0.0, (0.0, 1.0)), (90.0, (1.0, 0.0)), (180.0, (0.0, -1.0)), (270.0, (-1.0, 0.0)),
    ])
    def test_intruder_straight_above_or_below_counts_as_dead_ahead(self, own_track, unit):
        own_pos = EnuPoint(250.0, -40.0, 304.8)
        for up in (100.0, 304.8, 500.0):
            overhead = EnuPoint(250.0, -40.0, up)
            ahead = EnuPoint(250.0 + unit[0], -40.0 + unit[1], up)
            for vel in ((0.0, 0.0, 0.0), (0.0, 10.0, 0.0), (-7.0, -7.0, 0.0), (3.0, 0.0, 1.0)):
                assert approach_direction(own_pos, own_track, overhead, vel) is (
                    approach_direction(own_pos, own_track, ahead, vel)
                )
            assert relative_position(own_pos, own_track, overhead) is AHEAD


class TestRelativePosition:
    def test_quadrants(self):
        east_bound = own(track=90.0)  # flying east
        assert relative_position(*east_bound, EnuPoint(100, 50, 304.8)) is AHEAD
        assert relative_position(*east_bound, EnuPoint(100, -50, 304.8)) is AHEAD
        assert relative_position(*east_bound, EnuPoint(-100, 10, 304.8)) is BEHIND

    def test_abeam_counts_as_ahead(self):
        assert relative_position(*own(track=0.0), EnuPoint(500, 0, 304.8)) is AHEAD


# V3 is the diversion field nearest TABLE_OWN_POS.
TABLE_PORTS = {
    "V1": EnuPoint(0, 0, 0),
    "V2": EnuPoint(20000, 0, 0),
    "V3": EnuPoint(9000, 4000, 0),
}
TABLE_OWN_POS = EnuPoint(10000, 0, 304.8)


def table_command(phase, kind, direction, rel, strategy, params=CdrParams()):
    row = decide(phase, kind, direction, rel, strategy)
    return build_command(row.action, row.side, TABLE_OWN_POS, TABLE_PORTS, params)


class TestTacticalTable:
    """The automated right-of-way rows, cell by cell."""

    def cmd(self, config, kind, direction, rel=AHEAD):
        return table_command(CdrPhase.AVOID, kind, direction, rel, config.head_on_strategy)

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
            c = self.cmd(DEFAULT_PERFORMANCE[cfg], kind, direction, rel)
            assert isinstance(c, ManeuverCommand)


class TestEmergencyTable:
    def cmd(self, direction, kind=DRONE):
        """The pilot's command, which neither the relative position nor the
        head-on strategy changes."""
        cmds = {
            table_command(CdrPhase.EMERGENCY, kind, direction, rel, strategy)
            for rel, strategy in itertools.product(RelativePosition, HeadOnStrategy)
        }
        assert len(cmds) == 1, cmds
        return cmds.pop()

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
        # the phase column says who acts: every cell is an EMERGENCY row
        for key in itertools.product(
            IntruderKind, ApproachDirection, RelativePosition, HeadOnStrategy
        ):
            assert decide(CdrPhase.EMERGENCY, *key).phase is CdrPhase.EMERGENCY


AVOID, EMERGENCY = CdrPhase.AVOID, CdrPhase.EMERGENCY
HEAD_ON, SAME = ApproachDirection.HEAD_ON, ApproachDirection.SAME_DIRECTION
RIGHT, LEFT = ApproachDirection.RIGHT, ApproachDirection.LEFT
DESCEND, TURN_RIGHT = HeadOnStrategy.DESCEND, HeadOnStrategy.TURN_RIGHT
TABLE_KEYS = list(itertools.product(
    (AVOID, EMERGENCY), IntruderKind, ApproachDirection, RelativePosition, HeadOnStrategy
))


def expand(phase, kinds, directions, rels, strategies):
    return itertools.product((phase,), kinds, directions, rels, strategies)


# The command label (action, side and parameter) every key must give, as
# the tactical and emergency tests and acceptance criterion 04 pin it.
PINNED = [
    (expand(AVOID, [DRONE], [RIGHT], RelativePosition, HeadOnStrategy), "HOVER"),
    (expand(AVOID, [DRONE], [LEFT], RelativePosition, HeadOnStrategy), "CONTINUE_FLIGHT"),
    (expand(AVOID, [DRONE], [HEAD_ON], [AHEAD], [DESCEND]), "HOVER_AND_DESCEND_TO:243.84"),
    (expand(AVOID, [DRONE], [HEAD_ON], [AHEAD], [TURN_RIGHT]), "TURN_BY:45:RIGHT"),
    (expand(AVOID, [DRONE], [SAME], [AHEAD], HeadOnStrategy), "CHANGE_PATH:1200"),
    (expand(AVOID, [BIRD], [RIGHT, LEFT], RelativePosition, HeadOnStrategy),
     "HOVER_AND_DESCEND_TO:243.84"),
    (expand(AVOID, [BIRD], [HEAD_ON, SAME], [AHEAD], HeadOnStrategy),
     "HOVER_AND_DESCEND_TO:243.84"),
    (expand(AVOID, IntruderKind, [HEAD_ON, SAME], [BEHIND], HeadOnStrategy), "CONTINUE_FLIGHT"),
    (expand(EMERGENCY, [DRONE], [RIGHT], RelativePosition, HeadOnStrategy), "TURN_BY:45:LEFT"),
    (expand(EMERGENCY, [DRONE], [LEFT], RelativePosition, HeadOnStrategy), "REROUTE_TO:V3:RIGHT"),
    (expand(EMERGENCY, [DRONE], [HEAD_ON], RelativePosition, HeadOnStrategy), "REROUTE_TO:V3"),
    (expand(EMERGENCY, [DRONE], [SAME], RelativePosition, HeadOnStrategy), "LATERAL_OFFSET:1200"),
    (expand(EMERGENCY, [BIRD], ApproachDirection, RelativePosition, HeadOnStrategy),
     "REROUTE_TO:V3:RIGHT"),
]


def matches(row, key):
    return all(want is None or want is got for want, got in zip(row, key))


class TestDecisionTable:
    def test_key_space_has_64_keys(self):
        assert len(TABLE_KEYS) == 64

    def test_every_key_matches_a_row(self):
        for key in TABLE_KEYS:
            assert any(matches(row, key) for row in DECISION_TABLE), key

    def test_decide_returns_the_first_match(self):
        for key in TABLE_KEYS:
            first = next(row for row in DECISION_TABLE if matches(row, key))
            assert decide(*key) is first, key

    def test_no_row_is_shadowed(self):
        first_matches = {DECISION_TABLE.index(decide(*key)) for key in TABLE_KEYS}
        assert first_matches == set(range(len(DECISION_TABLE)))

    def test_every_key_gives_its_pinned_command(self):
        pinned = {}
        for keys, label in PINNED:
            for key in keys:
                assert key not in pinned, key
                pinned[key] = label
        assert set(pinned) == set(TABLE_KEYS)
        for key, label in pinned.items():
            assert table_command(*key).label() == label, key

    def test_rows_fired_by_the_pack(self, monkeypatch):
        """The rows that simulated flights reach: every system-on run of
        the default pack at dt 0.05, 0.1 and 0.2.  Rows 0, 1, 5, 9 and 12
        never fire, and row 10 (EMERGENCY LEFT) only for sc-04, sc-06 and
        sc-11.  A change in this coverage is meant to fail here."""
        fired = {}
        scenario = None

        def spy(*key):
            row = decide(*key)
            fired.setdefault(DECISION_TABLE.index(row), set()).add(scenario)
            return row

        monkeypatch.setattr(cdr, "decide", spy)
        for dt in (0.05, 0.1, 0.2):
            for sc in default_pack():
                scenario = sc.id
                engine.run(sc, replace(sc.sim, dt=dt, cas_enabled=True))
        assert set(fired) == {2, 3, 4, 6, 7, 8, 10, 11}
        assert fired[10] == {"sc-04", "sc-06", "sc-11"}

    def test_unmatched_key_raises(self):
        with pytest.raises(LookupError, match="no decision row"):
            decide(CdrPhase.DETECT, DRONE, RIGHT, AHEAD, DESCEND)

    def test_builder_takes_parameters_from_cdr_params(self):
        p = CdrParams(turn_deg=30.0, lateral_offset_m=-500.0, descend_alt_m=200.0)

        def build(action, side=None):
            return build_command(action, side, TABLE_OWN_POS, TABLE_PORTS, p).label()

        assert build(Action.TURN_BY, TurnDirection.LEFT) == "TURN_BY:30:LEFT"
        assert build(Action.HOVER_AND_DESCEND_TO) == "HOVER_AND_DESCEND_TO:200"
        assert build(Action.LATERAL_OFFSET) == "LATERAL_OFFSET:-500"
        assert build(Action.CHANGE_PATH) == "CHANGE_PATH:-500"
        assert build(Action.REROUTE_TO) == "REROUTE_TO:V3"
        assert build(Action.HOVER) == "HOVER"

    def test_readme_table_lists_every_row(self):
        """The README's decision table is DECISION_TABLE, row by row, with
        "any" for a match column's None and "-" for no turn side."""
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split("## How the system decides", 1)[1]
        section = section.split("\n## ", 1)[0]
        lines = [ln for ln in section.splitlines() if ln.startswith("|")]
        _, rule, *body = lines
        assert set(rule.replace("|", "").strip()) <= {"-", " ", ":"}
        cells = [[c.strip().strip("`") for c in ln.strip("|").split("|")] for ln in body]
        expected = [
            ["any" if v is None else v.value for v in row[:5]]
            + [row.action.value, "-" if row.side is None else row.side.value]
            for row in DECISION_TABLE
        ]
        assert cells == expected


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


def fold(history, before):
    """The running record once the engine has fed it history's (t, sep,
    zone) entries in order, starting from the record of no tick with
    since at before, the instant before the first entry."""
    run, t_prev = (before, None, None), before
    for t, sep, zone in history:
        run, t_prev = extend_run(run, t_prev, sep, zone), t
    return run


class TestFoldRun:
    """fold_run over a column equals extend_run once per tick."""

    @given(seps=st.lists(st.sampled_from([400.0, 401.0, 401.5, 402.0, 900.0]), max_size=30),
           last=st.sampled_from([None, 300.0, 401.0, 1e6]), zone=st.sampled_from(Zone))
    def test_equals_extend_run_per_tick(self, seps, last, zone):
        t_prevs = [10.0 + 0.5 * k for k in range(len(seps))]
        want = (3.0, last, None if last is None else Zone.CLEAR)
        got = fold_run(want, t_prevs, seps, zone)
        for t_prev, sep in zip(t_prevs, seps):
            want = extend_run(want, t_prev, sep, zone)
        assert got == want


def resolved(history, now, hold):
    """de_escalated on the record history builds, for a flight whose
    first tick is history's first entry, one second after departure."""
    first = history[0][0]
    return de_escalated(fold(history, first - 1.0), now, hold, first)


class TestDeEscalation:
    HOLD = 5.0

    def test_empty_history_is_not_resolved(self):
        # The record of no tick, read before the flight's first tick.
        for hold in (0.0, self.HOLD):
            assert not de_escalated((0.0, None, None), 0.0, hold, 0.1)

    def test_needs_full_window_of_history(self):
        hist = [(8.0, 900.0, Zone.CAUTION), (9.0, 950.0, Zone.CAUTION), (10.0, 990.0, Zone.CAUTION)]
        assert not resolved(hist, 10.0, self.HOLD)
        assert resolved(hist, 10.0, 2.0)

    def test_absent_for_whole_window_resolves(self):
        hist = [(t, None, None) for t in range(0, 11)]
        assert resolved(hist, 10.0, self.HOLD)

    def test_partial_absence_does_not_resolve(self):
        hist = [(float(t), None, None) for t in range(0, 10)]
        hist.append((10.0, 800.0, Zone.WARNING))
        assert not resolved(hist, 10.0, self.HOLD)

    def test_strictly_opening_range_outside_warning_resolves(self):
        hist = [(float(t), 1100.0 + 40 * t, Zone.CAUTION) for t in range(0, 11)]
        assert resolved(hist, 10.0, self.HOLD)

    def test_plateau_does_not_resolve(self):
        hist = [(float(t), 1500.0, Zone.CAUTION) for t in range(0, 11)]
        assert not resolved(hist, 10.0, self.HOLD)

    def test_still_inside_warning_does_not_resolve(self):
        hist = [(float(t), 500.0 + 40 * t, Zone.WARNING) for t in range(0, 11)]
        assert not resolved(hist, 10.0, self.HOLD)

    def test_gap_at_window_start_does_not_resolve(self):
        hist = [(float(t), 1100.0 + 40 * t, Zone.CAUTION) for t in range(0, 11)]
        hist[5] = (5.0, None, None)  # exactly at now - hold
        assert not resolved(hist, 10.0, self.HOLD)
        assert resolved(hist[6:], 10.0, 4.0)

    def test_dip_inside_window_does_not_resolve(self):
        seps = [1100, 1140, 1120, 1180, 1220, 1260]
        hist = [(float(5 + i), float(s), Zone.CAUTION) for i, s in enumerate(seps)]
        hist.insert(0, (0.0, 1000.0, Zone.CAUTION))
        assert not resolved(hist, 10.0, self.HOLD)


def reference_de_escalated(history, now, hold_duration):
    """The de-escalation test over a whole sensed history, built from
    lists, kept as the reference for the running record."""
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


# Weighted toward the zones that let an opening range resolve.  A present
# intruder always has a zone; only an absent one has None.
ZONES = st.sampled_from([Zone.CLEAR, Zone.CLEAR, Zone.CAUTION, Zone.CAUTION, Zone.WARNING, Zone.COLLISION])
FLAWS = st.sampled_from([None, "gap", "present", "plateau", "plateau", "dip", "dip"])


NOW = 10.0


@st.composite
def histories(draw):
    """A hold time and a time-ordered (t, sep, zone) history ending at
    or before NOW, on a 0.5 s grid so an entry can fall exactly on
    NOW - hold.  Shaped to reach every branch: it may start after the
    window opens or end before it, one instant may repeat, and the
    separations are drawn by sensed()."""
    hold = draw(st.sampled_from([2.5, 5.0]))
    first = draw(st.one_of(st.integers(0, 10), st.integers(0, 20)))
    last = draw(st.one_of(st.just(20), st.just(20), st.integers(first, 20)))
    ticks = list(range(first, last + 1))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(ticks) - 1))
        ticks.insert(i, ticks[i])
    history = [(k * 0.5, sep, zone) for k, (sep, zone) in zip(ticks, sensed(draw, len(ticks)))]
    return history, hold


def sensed(draw, n):
    """n (sep, zone) samples: absent throughout or opening, each with at
    most one flaw among the newest (a gap, a presence, a plateau or a
    dip), or drawn from a few repeated values."""
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
    return list(zip(seps, zones))


@st.composite
def engine_histories(draw):
    """A flight as the engine senses one intruder: the departure, one
    (t, sep, zone) entry per tick on the clock the engine keeps (t +=
    dt), the newest tick, and a hold from zero, under one tick, through
    windows that open exactly on a tick or between the departure and
    the first tick, to past the first tick."""
    departure = draw(st.sampled_from([0.0, 17.3, 300.0]))
    dt = draw(st.sampled_from([0.05, 0.1, 0.2, 0.5, 1 / 3]))
    times, t = [], departure
    for _ in range(draw(st.integers(1, 40))):
        t = t + dt
        times.append(t)
    now = times[-1]
    hold = draw(st.one_of(
        st.sampled_from([0.0, 0.5 * dt, now - 0.5 * (departure + times[0])]),
        st.sampled_from([now - tk for tk in times]),
        st.floats(0.0, now - departure + dt),
    ))
    history = [(tk, sep, zone) for tk, (sep, zone) in zip(times, sensed(draw, len(times)))]
    return departure, history, hold


class TestDeEscalationMatchesReference:
    @settings(max_examples=400)
    @given(case=histories(), empty=st.booleans())
    def test_random_histories(self, case, empty):
        # The record is read on the tick it was last extended, so each
        # history is judged at its newest entry; an empty one, before
        # the flight's first tick.
        history, hold = case
        if empty:
            expected = reference_de_escalated([], NOW, hold)
            assert de_escalated((NOW - 1.0, None, None), NOW, hold, NOW + 0.5) == expected
        else:
            now = history[-1][0]
            assert resolved(history, now, hold) == reference_de_escalated(history, now, hold)

    @settings(max_examples=600)
    @given(case=engine_histories())
    def test_engine_shaped_histories(self, case):
        departure, history, hold = case
        now, first = history[-1][0], history[0][0]
        run = fold(history, departure)
        assert de_escalated(run, now, hold, first) == reference_de_escalated(history, now, hold)

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

    def test_max_waits_is_capped(self):
        assert GroundCheckParams(max_waits=cdr.MAX_WAITS).max_waits == 100_000
        with pytest.raises(ValueError, match="max_waits must not exceed 100000"):
            GroundCheckParams(max_waits=cdr.MAX_WAITS + 1)

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


def step(state, t, governing, runs=None, params=CdrParams()):
    return cdr_step(state, t, *own(track=0.0), governing, runs or {}, PORTS, VT, params)


class TestPhaseMachine:
    def test_full_walk_to_emergency_and_diversion(self):
        st = CdrState()

        # caution entry arms the detect timer
        st, cmd = step(st, 10.0, obs(2000.0, Zone.CAUTION))
        assert st.phase is CdrPhase.DETECT
        assert st.detect_started_at == 10.0
        assert st.encounter_id == "X"
        assert cmd is None

        # classification runs for detect_duration seconds
        st, cmd = step(st, 11.0, obs(1900.0, Zone.CAUTION))
        assert st.phase is CdrPhase.DETECT and cmd is None
        st, cmd = step(st, 13.0, obs(1700.0, Zone.CAUTION))
        assert st.phase is CdrPhase.AVOID
        assert cmd is not None
        assert cmd.action is Action.HOVER  # crossing drone from the right

        # warning penetration while avoiding: pilot steps in
        st, cmd = step(st, 14.0, obs(900.0, Zone.WARNING))
        assert st.phase is CdrPhase.EMERGENCY
        assert cmd is not None
        assert cmd.action is Action.TURN_BY  # the pilot turns away from the right

        # conflict resolved: pilot reroutes to the nearest pad
        hist = [(float(t), 1100.0 + 50 * t, Zone.CAUTION) for t in range(9, 21)]
        st, cmd = step(st, 20.0, obs(2100.0, Zone.CAUTION), runs={"X": fold(hist, 8.0)})
        assert st.phase is CdrPhase.DE_ESCALATED
        assert cmd.action is Action.REROUTE_TO

        # and the machine re-arms
        st, cmd = step(st, 21.0, obs(2200.0, Zone.CLEAR))
        assert st.phase is CdrPhase.MONITORING
        assert st.encounter_id is None
        assert cmd is None

    def test_avoid_resolves_automatically_without_emergency(self):
        st = CdrState(phase=CdrPhase.AVOID, detect_started_at=0.0, encounter_id="X")
        hist = [(float(t), 1200.0 + 60 * t, Zone.CAUTION) for t in range(0, 11)]
        st, cmd = step(st, 10.0, obs(1800.0, Zone.CAUTION), runs={"X": fold(hist, -1.0)})
        assert st.phase is CdrPhase.DE_ESCALATED
        assert cmd.action is Action.CONTINUE_FLIGHT

    def test_flight_younger_than_the_hold_does_not_resolve(self):
        # The window opens at 5.0: covered by a flight whose first tick is
        # then, not by one that took off later.
        hist = [(float(t), 1200.0 + 60 * t, Zone.CAUTION) for t in range(5, 11)]
        runs = {"X": fold(hist, 4.0)}
        for first_tick, phase in ((5.5, CdrPhase.AVOID), (5.0, CdrPhase.DE_ESCALATED)):
            st = CdrState(phase=CdrPhase.AVOID, encounter_id="X", first_tick=first_tick)
            assert step(st, 10.0, obs(1800.0, Zone.CAUTION), runs=runs)[0].phase is phase

    def test_detect_aborts_when_contact_vanishes(self):
        st = CdrState(phase=CdrPhase.DETECT, detect_started_at=5.0, encounter_id="X")
        st, cmd = step(st, 6.0, None)
        assert st.phase is CdrPhase.MONITORING
        assert st.encounter_id is None and cmd is None

    def test_no_retrigger_while_separation_recedes_inside_ring(self):
        # after resolution the opponent may still be inside a ring; only a
        # fresh ring crossing re-arms the machine
        st = CdrState(phase=CdrPhase.MONITORING, prev_zone=Zone.WARNING)
        st, cmd = step(st, 30.0, obs(900.0, Zone.WARNING))
        assert st.phase is CdrPhase.MONITORING and cmd is None
        # decay to caution: still no trigger (zone not above previous)
        st, cmd = step(st, 31.0, obs(1500.0, Zone.CAUTION))
        assert st.phase is CdrPhase.MONITORING
        # re-approach crossing back into warning is a fresh edge
        st, cmd = step(st, 32.0, obs(1000.0, Zone.WARNING))
        assert st.phase is CdrPhase.DETECT

    def test_collision_zone_absorbs(self):
        st = CdrState(phase=CdrPhase.AVOID, detect_started_at=0.0, encounter_id="X")
        st, cmd = step(st, 9.0, obs(100.0, Zone.COLLISION))
        assert st.phase is CdrPhase.COLLIDED and cmd is None
        st2, cmd = step(st, 10.0, obs(2000.0, Zone.CLEAR))
        assert st2 is st and cmd is None

    def test_closest_intruder_governs(self):
        # The engine hands the decision the nearest intruder, the first
        # listed on a tie: near and twin share an anchor, far lies 1 km
        # further down the ownship's route.
        linger = "DRONE PREDICTABLE SCRIPT LINGER SPEED=1.0 ANCHOR={},304.8 HOLD=500.0"
        text = "\n".join([
            "SCENARIO nearest",
            "OWNSHIP VECTORED_THRUST",
            "VERTIPORT V1 48.3537 11.786",
            "VERTIPORT V2 48.1669 11.5883",
            "ROUTE ROUTE1 48.3537,11.786 48.27961094611782,11.745395649201697"
            " 48.217344279451154,11.679495649201698 48.1669,11.5883",
            "PLAN ROUTE1",
            "INTRUDER far " + linger.format("-6305.66,-13677.25"),
            "INTRUDER near " + linger.format("-6305.66,-12677.25"),
            "INTRUDER twin " + linger.format("-6305.66,-12677.25"),
            "SPAWN far AT 340",
            "SPAWN near AT 340",
            "SPAWN twin AT 340",
        ])
        sc = parse_scenario(text)
        encounters = []
        real_step = cdr.cdr_step

        def spy(*args):
            state, cmd = real_step(*args)
            encounters.append(state.encounter_id)
            return state, cmd

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cdr, "cdr_step", spy)
            engine.run(sc, replace(sc.sim, dt=0.5))
        assert {e for e in encounters if e is not None} == {"near"}

    def test_trigger_zone_configurable(self):
        p = CdrParams(tactical_trigger_zone=Zone.WARNING)
        st, _ = step(CdrState(), 5.0, obs(1900.0, Zone.CAUTION), params=p)
        assert st.phase is CdrPhase.MONITORING
        st, _ = step(CdrState(), 5.0, obs(900.0, Zone.WARNING), params=p)
        assert st.phase is CdrPhase.DETECT

    def test_emergency_holds_until_window_clears(self):
        st = CdrState(phase=CdrPhase.EMERGENCY, encounter_id="X")
        hist = [(float(t), 2000.0 - 10 * t, Zone.CAUTION) for t in range(0, 11)]
        st, cmd = step(st, 10.0, obs(1900.0, Zone.CAUTION), runs={"X": fold(hist, -1.0)})
        assert st.phase is CdrPhase.EMERGENCY and cmd is None


class TestHoldRuns:
    """holds, detect_hold and de_escalation_hold against cdr_step: on ticks
    that keep every zone and presence, cdr_step keeps a state holds admits
    and issues nothing on exactly as many ticks as the two hold lengths
    allow."""

    @settings(max_examples=300, deadline=None)
    @given(phase=st.sampled_from([CdrPhase.MONITORING, CdrPhase.DETECT, CdrPhase.AVOID, CdrPhase.EMERGENCY,
                                  CdrPhase.COLLIDED]),
           zone=st.sampled_from([Zone.CLEAR, Zone.CAUTION, Zone.WARNING]), present=st.booleans(),
           dt=st.sampled_from([0.1, 0.25, 1.0]), started=st.floats(-4.0, 0.0),
           since=st.floats(-8.0, 0.0), seps=st.lists(st.sampled_from([900.0, 901.0, 901.5, 950.0]), max_size=40))
    def test_hold_length_is_where_cdr_step_acts(self, phase, zone, present, dt, started, since, seps):
        params = CdrParams()
        if not present:
            zone = Zone.CLEAR  # nothing governs
        if phase is CdrPhase.AVOID and zone is Zone.WARNING or phase is CdrPhase.DETECT and not present:
            return  # no hold: the first tick acts
        state = CdrState(phase, detect_started_at=started, encounter_id="X", prev_zone=zone, first_tick=-6.0)
        run = (since, 900.5, zone) if present else (since, None, None)
        ts = [0.0]
        for _ in range(max(len(seps), 12) - 1):
            ts.append(ts[-1] + dt)
        seps = (seps + [950.0] * len(ts))[:len(ts)] if present else None
        t_prevs = [-dt, *ts]
        hold = min(detect_hold(state, ts, params),
                   de_escalation_hold(state, {"X": run}, t_prevs, ts, {"X": seps} if present else {}, params))
        assert holds(state)
        runs = {"X": run}
        acts = len(ts)
        for k, t in enumerate(ts):
            if present:
                runs["X"] = extend_run(runs["X"], t_prevs[k], seps[k], zone)
            new, cmd = step(state, t, obs(seps[k], zone) if present else None, runs)
            if new != state or cmd is not None:
                acts = k
                break
        assert hold == acts

    def test_no_hold_in_de_escalated_or_avoid_at_warning(self):
        for state in (CdrState(CdrPhase.DE_ESCALATED, encounter_id="X"),
                      CdrState(CdrPhase.AVOID, encounter_id="X", prev_zone=Zone.WARNING)):
            assert not holds(state)
            new, _ = step(state, 1.0, obs(900.0, state.prev_zone), {"X": (0.0, 900.0, state.prev_zone)})
            assert new.phase is not state.phase

