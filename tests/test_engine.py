"""Whole-run behaviour of the fast-time engine: reference flight times,
determinism, the disabled-system baseline, and terminal conditions."""

import gc
import itertools
import math
from array import array
from bisect import bisect_right
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from uamcas import agents, cdr, cli, engine, envelopes, geo, metrics
from uamcas.agents import (
    FlightMode, IntruderBehavior, IntruderKind, IntruderRecord, ScriptedBehavior, ScriptMode, Trajectory,
)
from uamcas.engine import TerminalKind, TRACE_HEADER, trace_csv_lines
from uamcas.envelopes import Zone
from uamcas.pack import default_pack
from uamcas.geo import EnuPoint
from uamcas.scenario_io import parse_scenario, serialize_scenario

from test_agents import replay
from test_metrics import assert_index_holds, assert_matches_reference, encounter

PACK = default_pack()


def run(sid, **kw):
    sc = PACK[sid]
    params = replace(sc.sim, **kw) if kw else None
    return engine.run(sc, params)


def theory(sid):
    sc = PACK[sid]
    return metrics.theoretical_flight_time(
        sc.vertiports["V1"].position, sc.routes[sc.planned_route], sc.perf
    )


class TestReferenceFlights:
    @pytest.mark.parametrize("sid", ["ref-route1", "ref-route2"])
    @pytest.mark.parametrize("dt", [0.1, 0.5])
    def test_flight_time_tracks_theory(self, sid, dt):
        res = run(sid, dt=dt)
        assert res.terminal.kind is TerminalKind.LANDED_AT
        assert res.terminal.vertiport == "V2"
        t_sim = res.end_time - res.departure_time
        assert t_sim == pytest.approx(theory(sid), rel=0.01)

    def test_departure_is_immediate(self):
        res = run("ref-route1", dt=0.5)
        assert res.departure_time == 0.0
        assert res.ground_decision.delay_s == 0.0
        assert res.ground_decision.route == "ROUTE1"

    def test_capture_radius_comes_from_perf(self):
        """A wider capture ring cuts the route's corners and starts the
        descent short of the pad, so the flight lands sooner; the setting
        survives a serialize/parse round trip."""
        text = serialize_scenario(PACK["ref-route1"]) + "SET PERF.CAPTURE_RADIUS 2000\n"
        sc = parse_scenario(text)
        assert sc.perf.capture_radius == 2000.0
        assert parse_scenario(serialize_scenario(sc)) == sc
        wide = engine.run(sc, replace(sc.sim, dt=0.5))
        assert wide.terminal.kind is TerminalKind.LANDED_AT
        assert wide.end_time < run("ref-route1", dt=0.5).end_time

    def test_no_commands_in_clean_sky(self):
        res = run("ref-route1", dt=0.5)
        assert all(rec.command == "" for rec in res.ticks)
        assert all(not rec.intruders for rec in res.ticks)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        a = "\n".join(trace_csv_lines(run("sc-03", dt=0.5)))
        b = "\n".join(trace_csv_lines(run("sc-03", dt=0.5)))
        assert a == b

    def test_disabled_system_flies_the_planned_route_exactly(self):
        # with the system off the ownship must reproduce the no-intruder
        # reference positions tick for tick
        off = run("sc-01", dt=0.5, cas_enabled=False)
        ref = run("ref-route1", dt=0.5)
        assert off.departure_time == 0.0
        assert all(rec.command == "" for rec in off.ticks)
        n = min(len(off.ticks), len(ref.ticks))
        assert n > 1000
        for a, b in zip(off.ticks[:n], ref.ticks[:n]):
            assert (a.own_east, a.own_north, a.own_up) == (
                b.own_east,
                b.own_north,
                b.own_up,
            )

    def test_disabled_system_skips_ground_check(self):
        res = run("ground-postponed", dt=0.5, cas_enabled=False)
        assert res.terminal.kind is TerminalKind.LANDED_AT
        assert res.departure_time == 0.0


class TestTickDiscipline:
    def test_time_axis_is_uniform(self):
        res = run("ref-route1", dt=0.5)
        for i, rec in enumerate(res.ticks[:50]):
            assert rec.t == pytest.approx(res.departure_time + (i + 1) * 0.5)
        assert res.end_time == pytest.approx(res.ticks[-1].t)

    def test_no_teleportation(self):
        res = run("sc-05", dt=0.5)
        perf = PACK["sc-05"].perf
        limit = perf.cruise_speed * 0.5 * (1 + 1e-9)
        prev = None
        for rec in res.ticks:
            if prev is not None:
                moved = math.sqrt(
                    (rec.own_east - prev.own_east) ** 2
                    + (rec.own_north - prev.own_north) ** 2
                    + (rec.own_up - prev.own_up) ** 2
                )
                assert moved <= limit
            prev = rec

    def test_altitude_stays_in_band(self):
        res = run("sc-09", dt=0.5)
        perf = PACK["sc-09"].perf
        for rec in res.ticks:
            assert -1e-9 <= rec.own_up <= perf.cruise_alt + 1e-9


class TestTerminals:
    def test_ground_wait_delays_departure(self):
        res = run("ground-300", dt=0.5)
        assert res.departure_time == 300.0
        assert res.ground_decision.route == "ROUTE1"
        assert res.terminal.kind is TerminalKind.LANDED_AT

    def test_reroute_departure_uses_other_route(self):
        res = run("ground-660", dt=0.5)
        assert res.departure_time == 660.0
        assert res.ground_decision.route == "ROUTE2"

    def test_postponed_run_has_no_airborne_segment(self):
        res = run("ground-postponed", dt=0.5)
        assert res.terminal.kind is TerminalKind.POSTPONED_ON_GROUND
        assert res.ticks == []
        assert res.departure_time == math.inf
        assert res.ground_decision.route is None

    def test_unavoidable_pursuit_ends_in_collision(self):
        res = run("sc-14", dt=0.1)
        assert res.terminal.kind is TerminalKind.COLLIDED
        assert min(i.separation for i in res.ticks[-1].intruders) <= 5.0

    def test_time_budget_enforced(self):
        res = run("ref-route1", dt=0.5, max_sim_time=100.0)
        assert res.terminal.kind is TerminalKind.TIMED_OUT
        assert res.end_time <= 100.0


class TestAvoidanceRuns:
    def test_commands_are_chronological(self):
        res = run("sc-04", dt=0.5)
        times = [rec.t for rec in res.ticks]
        assert times == sorted(times)
        issued = [b.t for a, b in zip(res.ticks, res.ticks[1:]) if b.command != a.command]
        assert len(issued) >= 2  # at least engage + resolve

    def test_emergency_phase_reached_when_warning_penetrated(self):
        res = run("sc-06", dt=0.5)
        phases = {rec.phase for rec in res.ticks}
        assert engine.cdr.CdrPhase.EMERGENCY in phases
        assert res.terminal.kind is TerminalKind.LANDED_AT

    def test_benign_crossing_resolves_automatically(self):
        res = run("sc-03", dt=0.5)
        phases = {rec.phase for rec in res.ticks}
        assert engine.cdr.CdrPhase.AVOID in phases
        assert engine.cdr.CdrPhase.EMERGENCY not in phases
        from uamcas.maneuvers import Action

        actions = {rec.command.split(":")[0] for rec in res.ticks}
        assert Action.CONTINUE_FLIGHT.value in actions  # picked the plan back up

    def test_hold_window_must_start_at_or_after_the_first_tick(self):
        """An intruder sensed from the first tick (0.5 s) on, drawing away
        in the caution ring, opens an encounter that reaches AVOID at 1.0 s.
        With a 1.25 s hold the window at 1.5 s would open at 0.25 s,
        before the flight's first tick, so the encounter de-escalates
        only at 2.0 s."""
        sc = parse_scenario("\n".join([
            "SCENARIO first-tick",
            "OWNSHIP VECTORED_THRUST",
            "VERTIPORT V1 48.3537 11.786",
            "VERTIPORT V2 48.1669 11.5883",
            "ROUTE ROUTE1 48.3537,11.786 48.1669,11.5883",
            "PLAN ROUTE1",
            "INTRUDER i1 DRONE PREDICTABLE SCRIPT PASS_BY SPEED=20 ANCHOR=300,0,0 TRACK=90",
            "SPAWN i1 AT 0",
            "SET SIM.DT 0.5",
            "SET CDR.DETECT_DURATION 0",
            "SET CDR.HOLD_DURATION 1.25",
        ]))
        res = engine.run(sc)
        phases = [(rec.t, rec.phase.value) for rec in res.ticks[:4]]
        assert phases == [
            (0.5, "DETECT"), (1.0, "AVOID"), (1.5, "AVOID"), (2.0, "DE_ESCALATED"),
        ]
        seps = [rec.intruders[0].separation for rec in res.ticks[:4]]
        assert seps == sorted(set(seps))  # opening from the first tick


class TestTrace:
    def test_header_and_shape(self):
        res = run("sc-01", dt=0.5)
        lines = trace_csv_lines(res)
        assert lines[0] == TRACE_HEADER
        assert len(lines) == len(res.ticks) + 1
        width = len(TRACE_HEADER.split(","))
        for ln in lines[1:]:
            assert len(ln.split(",")) == width

    def test_empty_intruder_columns_when_alone(self):
        res = run("ref-route1", dt=0.5)
        row = trace_csv_lines(res)[1].split(",")
        assert row[6] == "" and row[7] == "" and row[8] == ""

    def test_governing_intruder_is_nearest(self):
        lines = trace_csv_lines(synth_trace([
            (0.0, 0.0, 300.0, 0.0, cdr.CdrPhase.MONITORING, [("far", 900.0), ("near", 500.0)]),
            (0.0, 0.0, 300.0, 0.0, cdr.CdrPhase.MONITORING, []),
        ]))
        assert lines[1].split(",")[6:8] == ["near", "500.000"]
        assert lines[2].split(",")[6:9] == ["", "", ""]


def reference_trace_lines(result):
    """The trace renderer that formats every column of every row, kept
    as the reference for engine.trace_csv_lines, which reuses the text
    of columns that repeat."""
    lines = [TRACE_HEADER]
    last_phase = phase_text = None
    for t, east, north, up, track, _, phase, intruders, command in result.ticks:
        if phase is not last_phase:
            last_phase, phase_text = phase, phase.value
        if intruders:
            iid, _, _, _, sep, zone = min(intruders, key=lambda it: it.separation)
            intr = f"{iid},{sep:.3f},{zone.name}"
        else:
            intr = ",,"
        lines.append(
            f"{t:.3f},{east:.3f},{north:.3f},{up:.3f},"
            f"{track:.3f},{phase_text},{intr},{command}"
        )
    return lines


def synth_trace(rows):
    """A RunResult over rows of (east, north, up, track, phase,
    intruders); intruders are (id, separation) pairs."""
    from uamcas.envelopes import Zone

    ticks = [
        engine.TickRecord(
            t=0.1 * (k + 1), own_east=e, own_north=n, own_up=u, own_track=trk,
            flight_mode=FlightMode.CRUISE, phase=phase,
            intruders=tuple(
                engine.IntruderTick(iid, 0.0, 0.0, 0.0, sep, Zone.CAUTION) for iid, sep in intr
            ),
            command="TURN_BY" if k % 3 else "",
        )
        for k, (e, n, u, trk, phase, intr) in enumerate(rows)
    ]
    return engine.RunResult(
        scenario_id="synth", ticks=ticks,
        terminal=engine.Terminal(TerminalKind.LANDED_AT, "V2"),
        ground_decision=cdr.GroundDecision.depart("ROUTE1", 0.0),
        departure_time=0.0, end_time=ticks[-1].t if ticks else 0.0, stretches={},
    )


def with_fresh_floats(result):
    """The run with every tick's ownship floats copied to new objects, so
    equal values in consecutive rows are never the same object."""
    fields = ("own_east", "own_north", "own_up", "own_track")
    return replace(result, ticks=[
        rec._replace(**{f: float(repr(getattr(rec, f))) for f in fields}) for rec in result.ticks
    ])


@pytest.mark.parametrize("fresh", [False, True], ids=["shared", "fresh"])
class TestTraceMatchesReference:
    """trace_csv_lines reuses a column's text by float identity or by
    equality, so every case runs with the records' own float objects
    and with fresh copies."""

    def render(self, result, fresh):
        if fresh:
            result = with_fresh_floats(result)
        lines = trace_csv_lines(result)
        assert lines == reference_trace_lines(result), result.scenario_id
        return lines

    @pytest.mark.parametrize("cas_enabled", [True, False], ids=["on", "off"])
    def test_every_default_pack_run(self, cas_enabled, fresh):
        for sc in PACK:
            self.render(engine.run(sc, replace(sc.sim, cas_enabled=cas_enabled)), fresh)

    def test_repeated_values(self, fresh):
        mon = cdr.CdrPhase.MONITORING
        rows = [(12.5, -3.25, 300.0, 90.0, mon, [])] * 4 + [
            (12.5, -3.0, 300.0, 90.0, mon, [("a", 40.0)]),
            (12.5, -3.0, 301.0, 90.0, mon, [("a", 40.0)]),
            (12.5, -3.0, 301.0, 90.0, mon, [("a", 40.0)]),
        ]
        self.render(synth_trace(rows), fresh)

    @pytest.mark.parametrize("column", range(4), ids=["east", "north", "up", "track"])
    def test_signed_zeros_stay_apart(self, column, fresh):
        rows = []
        for k in range(8):
            values = [1.0, 2.0, 3.0, 4.0]
            values[column] = -0.0 if k % 2 else 0.0
            rows.append((*values, cdr.CdrPhase.MONITORING, []))
        lines = self.render(synth_trace(rows), fresh)
        assert sum("-0.000" in ln for ln in lines) == 4

    def test_phase_change_with_repeated_floats(self, fresh):
        phases = [cdr.CdrPhase.MONITORING, cdr.CdrPhase.AVOID, cdr.CdrPhase.AVOID,
                  cdr.CdrPhase.MONITORING]
        self.render(synth_trace([(0.0, 0.0, 0.0, 0.0, phase, []) for phase in phases]), fresh)

    def test_tied_separations_take_the_first_listed(self, fresh):
        rows = [
            (1.0, 2.0, 3.0, 4.0, cdr.CdrPhase.MONITORING, [("b", 50.0), ("a", 50.0)]),
            (1.0, 2.0, 3.0, 4.0, cdr.CdrPhase.MONITORING, [("a", 50.0), ("b", 50.0), ("c", 60.0)]),
        ]
        lines = self.render(synth_trace(rows), fresh)
        assert [ln.split(",")[6] for ln in lines[1:]] == ["b", "a"]


class TestSimParams:
    @pytest.mark.parametrize("field", ["dt", "max_sim_time", "contact_distance"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            engine.SimParams(**{field: value})

    TICK_CAP = r"max_sim_time / dt must not exceed 10000000 ticks"

    @pytest.mark.parametrize("dt,max_sim_time", [(1e-300, 3600.0), (1e-13, 3600.0), (1e-20, 1.0)])
    def test_dt_that_cannot_advance_the_clock_is_rejected(self, dt, max_sim_time):
        # the tick cap covers it: such a dt means over 2**52 ticks
        assert max_sim_time + dt == max_sim_time
        with pytest.raises(ValueError, match=self.TICK_CAP):
            engine.SimParams(dt=dt, max_sim_time=max_sim_time)

    @pytest.mark.parametrize("dt,max_sim_time", [
        (1.0, math.nextafter(1e7, math.inf)),  # one ulp over the cap
        (1e-9, 3600.0),  # the clock advances, but 3.6e12 ticks would never end
        (1e290, 1e300),
        (5e-324, 3600.0),  # the quotient overflows to inf
    ])
    def test_tick_count_over_the_cap_is_rejected(self, dt, max_sim_time):
        assert engine.MAX_TICKS == 10_000_000
        with pytest.raises(ValueError, match=self.TICK_CAP):
            engine.SimParams(dt=dt, max_sim_time=max_sim_time)

    @pytest.mark.parametrize("dt,max_sim_time", [(1.0, 1e7), (0.5, 5e6), (3600.0 / 1e7, 3600.0)])
    def test_tick_count_at_the_cap_is_accepted(self, dt, max_sim_time):
        assert max_sim_time / dt == engine.MAX_TICKS
        assert engine.SimParams(dt=dt, max_sim_time=max_sim_time).dt == dt


class TestPerRunEnvelopes:
    """The engine resolves each flight mode's envelope set once per run;
    every zone it senses or records must still be the one envelopes_for
    gives for the ownship's flight mode at that instant."""

    def test_zones_match_envelopes_for_over_the_default_pack(self, monkeypatch):
        sensed = []
        step = cdr.cdr_step

        def spy(state, t, own_pos, own_track, governing, runs, *rest):
            sensed.append((t, own_pos, governing, dict(runs)))
            return step(state, t, own_pos, own_track, governing, runs, *rest)

        monkeypatch.setattr(cdr, "cdr_step", spy)
        recorded = observed = quiet = 0
        for sid in PACK.ids():
            sc = PACK[sid]

            def env(mode):
                return envelopes.envelopes_for(sc.perf, mode, sc.envelope_params)

            sensed.clear()
            result = engine.run(sc)
            for rec in result.ticks:
                for it in rec.intruders:
                    assert it.zone is envelopes.classify(it.separation, env(rec.flight_mode)), (sid, rec.t)
                    recorded += 1
            # Sensing sees the ownship before the tick's move: the
            # previous tick's recorded position and flight mode.  Every
            # present intruder's record holds its sensed separation and
            # zone, every absent one's None, and each record is the one
            # before it extended by this tick; the nearest present
            # intruder, the first listed on a tie, governs.  A tick the
            # spy does not see is part of a hold run: the decision held
            # (in no phase but DE_ESCALATED, and in AVOID below WARNING),
            # keeps its phase, and every intruder keeps its presence and
            # its zone before the move.
            sensed_at = {t: rest for t, *rest in sensed}
            assert len(sensed_at) == len(sensed)
            assert sensed_at.keys() <= {rec.t for rec in result.ticks}
            expected = {r.id: (result.departure_time, None, None) for r in sc.intruders if not r.ground_clock}
            t_prev = result.departure_time
            held = False  # the decision held on entering the tick
            for i, rec in enumerate(result.ticks):
                t = rec.t
                seen = t in sensed_at
                if seen:
                    own_pos, governing, runs = sensed_at[t]
                if i == 0:
                    assert seen, sid
                    mode = FlightMode.GROUND  # still on the pad
                else:
                    prev = result.ticks[i - 1]
                    assert not seen or own_pos == (prev.own_east, prev.own_north, prev.own_up)
                    own_pos = (prev.own_east, prev.own_north, prev.own_up)
                    mode = prev.flight_mode
                present = {it.intruder_id: (it.east, it.north, it.up) for it in rec.intruders}
                nearest = None
                before = {rid: run[2] for rid, run in expected.items()}
                for rid in expected:
                    sep = zone = None
                    if rid in present:
                        sep = geo.distance_3d(own_pos, present[rid])
                        zone = envelopes.classify(sep, env(mode))
                        if nearest is None or sep < nearest[1]:
                            nearest = (rid, sep, zone, present[rid])
                    expected[rid] = cdr.extend_run(expected[rid], t_prev, sep, zone)
                    if seen:
                        assert runs[rid] == expected[rid], (sid, t, rid)
                        assert runs[rid][2] is zone, (sid, t, rid)
                        observed += rid in present
                t_prev = t
                if not seen:
                    assert held and all(run[2] is before[rid] for rid, run in expected.items()), (sid, t)
                    assert rec.phase is prev.phase, (sid, t)
                    quiet += 1
                elif nearest is None:
                    assert governing is None, (sid, t)
                else:
                    assert (governing.intruder_id, governing.separation, governing.zone, governing.pos) == nearest
                held = rec.phase is not cdr.CdrPhase.DE_ESCALATED and not (
                    rec.phase is cdr.CdrPhase.AVOID and nearest is not None and nearest[2] >= Zone.WARNING)
        assert recorded > 0 and observed > 0 and quiet > 0

    def test_system_off_senses_nothing(self, monkeypatch):
        """With the system off nothing is sensed: no decision tree, no
        running record, and classify sees only recorded post-move
        separations, each once and in tick order (a hold run's records
        classify only those within the caution radius)."""
        calls = []
        classify = envelopes.classify

        def spying(sep, env):
            calls.append(sep)
            return classify(sep, env)

        def fail(*args):
            raise AssertionError("sensing with the system off")

        monkeypatch.setattr(envelopes, "classify", spying)
        for name in ("cdr_step", "extend_run", "fold_run"):
            monkeypatch.setattr(cdr, name, fail)
        res = run("sc-09", cas_enabled=False)
        recorded = iter([it.separation for rec in res.ticks for it in rec.intruders])
        assert calls and all(sep in recorded for sep in calls)  # a subsequence of the records


# ---------------------------------------------------------------- hold runs


def reference_run(scenario, params=None):
    """engine.run without hold runs: every tick advances the intruders,
    senses, runs the decision tree and steps the ownship once, whatever
    the phase, kept as the independent reference for the hold-run path.
    It keeps no stretch index: reference_cpa reads its records."""
    if params is None:
        params = scenario.sim
    sc = scenario
    origin = sc.vertiports["V1"].position
    vertiports_enu = {
        vid: geo.to_enu(origin, vp.position) for vid, vp in sc.vertiports.items()
    }
    polylines = {rid: geo.project_route(origin, route) for rid, route in sc.routes.items()}
    perf = sc.perf

    # Strategic phase.  Only intruders scheduled on the absolute clock
    # exist before departure; the rest are encounter scripts pinned to
    # the departure the decision produces.
    if params.cas_enabled:
        ground_records = [r for r in sc.intruders if r.ground_clock]
        decision = cdr.takeoff_delay_check(
            ground_records, vertiports_enu["V1"], polylines, sc.ground_params, sc.planned_route
        )
    else:
        decision = cdr.GroundDecision.depart(sc.planned_route, 0.0)

    if decision.postponed:
        return engine.RunResult(
            scenario_id=sc.id,
            ticks=[],
            terminal=engine.Terminal(engine.TerminalKind.POSTPONED_ON_GROUND),
            ground_decision=decision,
            departure_time=math.inf,
            end_time=0.0,
            stretches={},
        )

    departure = decision.delay_s
    plan = agents.NavPlan(polylines[decision.route], sc.destination_id(decision.route))
    guidance = agents.follow_plan(plan)

    # Pin departure-relative spawn clocks now that departure is known.
    records = [
        r if r.ground_clock else replace(r, spawn_time=r.spawn_time + departure)
        for r in sc.intruders
    ]
    airborne_records = [r for r in records if not r.ground_clock]

    cdr_state = cdr.CdrState(first_tick=departure + params.dt)
    runs = {r.id: (departure, None, None) for r in airborne_records}
    prev_pos = {r.id: None for r in airborne_records}

    # Per-run constants: the envelope set of every flight mode, the
    # loop-invariant parameters, and the layers called every tick (bound
    # here, so a patched module attribute is still the one called).
    env_by_mode = {
        mode: envelopes.envelopes_for(perf, mode, sc.envelope_params) for mode in agents.FlightMode
    }
    dt = params.dt
    max_sim_time = params.max_sim_time
    contact_distance = params.contact_distance
    cas_enabled = params.cas_enabled
    cdr_params = sc.cdr_params
    ownship_step = agents.ownship_step
    intruder_state_at = agents.intruder_state_at
    distance_3d = geo.distance_3d
    classify = envelopes.classify
    extend_run = cdr.extend_run
    cdr_step = cdr.cdr_step

    # The ownship, as plain values; env and own_pos always belong to
    # them, and the post-move values of one tick are the pre-move values
    # of the next.
    east, north, _ = plan.waypoints[0]
    up = track = 0.0
    mode = agents.FlightMode.GROUND
    idx = 0
    own_pos = (east, north, up)
    env = env_by_mode[mode]

    ticks = []
    active_label = ""
    terminal = None
    t = departure

    while terminal is None:
        t_next = t + dt
        if t_next > max_sim_time:
            terminal = engine.Terminal(engine.TerminalKind.TIMED_OUT)
            break

        # 1-2. Intruders advance and, with the system on, are sensed
        # against the pre-move ownship; the nearest (the first listed on
        # a tie) governs.  Only the decision tree reads the sensed values,
        # so sensing is skipped with the system off.
        present = []
        governing = None
        nearest = math.inf
        for rec in airborne_records:
            rid = rec.id
            st = intruder_state_at(rec, t_next, own_pos, prev_pos[rid], dt)
            if st is None:
                prev_pos[rid] = None
                if cas_enabled:
                    runs[rid] = extend_run(runs[rid], t, None, None)
                continue
            pos, vel = st
            prev_pos[rid] = pos
            present.append((rid, pos))
            if cas_enabled:
                sep = distance_3d(own_pos, pos)
                zone = classify(sep, env)
                runs[rid] = extend_run(runs[rid], t, sep, zone)
                if sep < nearest:
                    nearest = sep
                    governing = tuple.__new__(cdr.IntruderObservation, (rid, rec.kind, pos, vel, sep, zone))

        # 3. The decision, on the pre-move position and track.
        if cas_enabled:
            cdr_state, command = cdr_step(
                cdr_state, t_next, own_pos, track, governing, runs,
                vertiports_enu, perf, cdr_params,
            )
            if command is not None:
                active_label = command.label()
                guidance, idx = agents.resolve_command(
                    own_pos, track, idx, perf, guidance, command, vertiports_enu
                )

        # 4. Ownship advances.
        east, north, up, track, new_mode, idx = ownship_step(
            east, north, up, track, mode, idx, perf, guidance, dt
        )
        own_pos = (east, north, up)
        if new_mode is not mode:
            mode = new_mode
            env = env_by_mode[mode]

        # 5. Record the post-move snapshot.
        intruder_ticks = []
        contact = False
        for rid, pos in present:
            sep = distance_3d(own_pos, pos)
            p_e, p_n, p_u = pos
            intruder_ticks.append(
                tuple.__new__(engine.IntruderTick, (rid, p_e, p_n, p_u, sep, classify(sep, env)))
            )
            if sep <= contact_distance:
                contact = True
        ticks.append(
            tuple.__new__(
                engine.TickRecord,
                (t_next, east, north, up, track, mode, cdr_state.phase,
                 tuple(intruder_ticks), active_label),
            )
        )

        if contact:
            terminal = engine.Terminal(engine.TerminalKind.COLLIDED)
        elif mode is agents.FlightMode.GROUND:
            terminal = engine.Terminal(engine.TerminalKind.LANDED_AT, guidance.plan.destination_id)
        t = t_next

    return engine.RunResult(
        scenario_id=sc.id,
        ticks=ticks,
        terminal=terminal,
        ground_decision=decision,
        departure_time=departure,
        end_time=t,
        stretches={},
    )


def float_bits(ticks):
    """Every float of the records, the intruder cells' included, as bytes,
    which tell 0.0 from -0.0 where == does not."""
    floats = array("d")
    for rec in ticks:
        floats.extend(rec[:5])
        for it in rec.intruders:
            floats.extend(it[1:5])
    return floats.tobytes()


def assert_same_run(sc, params=None, got=None):
    """engine.run (or got, a run of it already made) equals reference_run:
    every record, bit for bit in its floats, the terminal and the end
    time; its stretch index holds; and metrics.cpa of the run equals
    reference_cpa over the reference's records."""
    got = engine.run(sc, params) if got is None else got
    want = reference_run(sc, params)
    if got.ticks != want.ticks or float_bits(got.ticks) != float_bits(want.ticks):
        k = next((k for k, (a, b) in enumerate(zip(got.ticks, want.ticks))
                  if a != b or float_bits([a]) != float_bits([b])), min(len(got.ticks), len(want.ticks)))
        pytest.fail(f"{sc.id}: record {k} of {len(got.ticks)}/{len(want.ticks)} differs")
    assert got.terminal == want.terminal, sc.id
    assert repr(got.end_time) == repr(want.end_time), sc.id
    assert (got.departure_time, got.ground_decision) == (want.departure_time, want.ground_decision)
    assert_index_holds(got)
    assert_matches_reference(got, want)
    return got


# ref-route1's flight at dt 0.1: climb to 179.3 s, cruise over three
# legs to 512.1 s, descent to touchdown at 691.3 s.
ROUTE1 = serialize_scenario(PACK["ref-route1"])


def enu_scenario(*lines):
    """ref-route1 with the given INTRUDER and SPAWN lines (ENU anchors)."""
    return parse_scenario(ROUTE1 + "\n".join(lines) + "\n")


# Far from the route, so it only changes which intruders are present.
def far_linger(iid, spawn, hold=15):
    return (f"INTRUDER {iid} DRONE PREDICTABLE SCRIPT LINGER SPEED=1 ANCHOR=20000,20000,300 HOLD={hold}",
            f"SPAWN {iid} AT {spawn}")


def far_swarm(count=20):
    """count intruders present for the whole flight and never nearer than
    6 km to ROUTE1, alternately LINGER and PASS_BY heading away, like the
    benchmark's swarm workload."""
    lines = []
    for i in range(count):
        east, north = 5000 + 400 * i, 4000 + 250 * (i % 5)
        script = ("LINGER SPEED=1 HOLD=5000" if i % 2 == 0 else f"PASS_BY SPEED={10 + i} TRACK={30 + 2 * i}")
        lines.append(f"INTRUDER s{i:02d} DRONE PREDICTABLE SCRIPT {script} ANCHOR={east},{north},{150 + 15 * i}")
    return lines


def few(seen):
    """Whether the decision tree saw few of a group's ticks: about one per
    hold run of up to 256 ticks, and two more."""
    return sum(seen) <= 2 + len(seen) // 100


def calls_made(monkeypatch, module, name, sc, params=None):
    """The argument tuples of every call one engine.run makes to
    module.name."""
    calls = []
    fn = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    with monkeypatch.context() as m:
        m.setattr(module, name, spy)
        engine.run(sc, params)
    return calls


class TestCollectorPause:
    """engine.run pauses the cyclic collector and leaves it as it found
    it; the pause is safe because a run makes no cyclic garbage."""

    @pytest.fixture(autouse=True)
    def keep_collector_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored(self, enabled):
        (gc.enable if enabled else gc.disable)()
        run("sc-03", dt=0.5)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored_when_the_run_raises(self, monkeypatch, enabled):
        (gc.enable if enabled else gc.disable)()

        def fail(*args):
            assert not gc.isenabled()
            raise RuntimeError("ownship step failed")

        monkeypatch.setattr(agents, "ownship_step", fail)
        with pytest.raises(RuntimeError, match="ownship step failed"):
            run("sc-03", dt=0.5)
        assert gc.isenabled() is enabled

    def test_no_collection_starts_inside_a_run(self):
        gc.enable()
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        sc = enu_scenario(*far_swarm())
        gc.callbacks.append(record)
        try:
            res = engine.run(sc)
        finally:
            gc.callbacks.remove(record)
        assert max(len(rec.intruders) for rec in res.ticks) == 20
        assert starts == []

    @pytest.mark.parametrize("cas_enabled", [True, False], ids=["on", "off"])
    def test_runs_leave_no_cyclic_garbage(self, cas_enabled):
        """Reference counting frees every dead object a run makes, so with
        the collector off nothing is left for it to find."""
        gc.disable()
        gc.collect()
        for sc in PACK:
            res = engine.run(sc, replace(sc.sim, cas_enabled=cas_enabled))
            del res
            assert gc.collect() == 0, sc.id


class TestQuietRuns:
    """Held ticks, those on which the decision provably does nothing (the
    system off, or no intruder's presence or zone changing before a phase
    stop test fires), with or without intruders present (a quiet run has
    none), are stepped in hold runs; every run must equal the tick by tick
    loop it replaced."""

    # At dt 1.0, sc-02, sc-06 and sc-12 take other command sequences than
    # at dt 0.1 (ROADMAP item 1); the runs must still match the loop.
    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.2, 0.3048, 0.5, 1.0])
    @pytest.mark.parametrize("cas_enabled", [True, False], ids=["on", "off"])
    def test_default_pack(self, dt, cas_enabled):
        for sc in PACK:
            assert_same_run(sc, replace(sc.sim, dt=dt, cas_enabled=cas_enabled))

    def test_decision_runs_on_few_ticks(self, monkeypatch):
        """Over the pack's system-on runs at dt 0.1 (146,837 ticks), the
        decision tree runs only on the ticks hold runs cannot cover: 14,382
        of them when only MONITORING with a CLEAR zone was held, 735 when a
        full tick followed every hold run, 264 now that a hold run nothing
        cut is followed by another."""
        calls = sum(len(calls_made(monkeypatch, cdr, "cdr_step", sc)) for sc in PACK)
        assert 0 < calls <= 264

    def test_ownship_steps_few_ticks(self, monkeypatch, tmp_path):
        """Over one default-pack batch at dt 0.1 every run flies a path
        (engine's plan paths): the runs after the first read their plan
        path's rows, and a run keeps the rows its path stepped past a cut.
        ownship_step made 505 calls stepping 77,465 ticks when a run
        stepped the ownship itself after its first command, 452 stepping
        71,241 since a command starts a private path."""
        stepped = []  # ticks per call
        step = agents.ownship_step

        def spy(*args):
            path = step(*args)
            stepped.append(len(path) if len(args) == 10 else 1)
            return path

        monkeypatch.setattr(agents, "ownship_step", spy)
        cli.run_batch(PACK, tmp_path, dt=0.1, fmt="csv", config=None)
        assert 0 < len(stepped) <= 452 and 0 < sum(stepped) <= 71_241

    def test_decision_runs_where_the_flight_changes(self, monkeypatch):
        """ref-route1 meets no intruder, so with the system on the decision
        tree runs only on the ticks that change its flight mode or waypoint
        index (its plan path's cuts): takeoff, three waypoints, the descent
        and touchdown; every other tick is in a hold run."""
        sc = PACK["ref-route1"]
        with engine.command_scope():
            res = engine.run(sc)
            calls = calls_made(monkeypatch, cdr, "cdr_step", sc)
        path, _ = res.leading
        assert len(path.cuts) == 7
        assert [args[1] for args in calls] == [res.ticks[j - 1].t for j in path.cuts[1:]]

    @settings(max_examples=40, deadline=None)
    @given(intruders=st.lists(encounter(), min_size=1, max_size=4), dt=st.floats(0.05, 1.0),
           cas_enabled=st.booleans())
    @example(  # four drones that latch COLLIDED without contact: TIMED_OUT at 3600 s
        intruders=[IntruderRecord("d", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE, spawn_time=178.3, script=s)
                   for s in [ScriptedBehavior(ScriptMode.PASS_BY, 343.0, EnuPoint(0.0, -343.0, 304.8))] * 3
                   + [ScriptedBehavior(ScriptMode.PASS_BY, 1.0, EnuPoint(75.12264079864539, -2.778633481835989, 304.8),
                                       track=46.0)]],
        dt=0.3048, cas_enabled=True)
    def test_drawn_encounters(self, intruders, dt, cas_enabled):
        """ref-route1 against one to four intruders drawn as in
        test_metrics.py: pursuers, replays and scripts, coming and going,
        the nearest of them changing, each phase held in runs."""
        sc = replace(PACK["ref-route1"], intruders=tuple(replace(rec, id=f"d{i}") for i, rec in enumerate(intruders)))
        assert_same_run(sc, replace(sc.sim, dt=dt, cas_enabled=cas_enabled))

    @staticmethod
    def phases(monkeypatch, lines, dt):
        """The run of ref-route1 with the given intruder lines, checked
        against the loop, and its ticks grouped by phase and flight mode:
        per group, its (phase, mode), its ticks and which of them the
        decision tree saw."""
        sc = enu_scenario(*lines)
        params = replace(sc.sim, dt=dt)
        res = assert_same_run(sc, params)
        decided = {args[1] for args in calls_made(monkeypatch, cdr, "cdr_step", sc, params)}
        groups = [(key, list(ticks)) for key, ticks in itertools.groupby(res.ticks, lambda r: (r.phase, r.flight_mode))]
        return res, [(key, ticks, [r.t in decided for r in ticks]) for key, ticks in groups]

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.3])
    def test_hover_held_until_the_loiterer_leaves(self, monkeypatch, dt):
        """sc-01's loiterer on the right, held for 60 s: the ownship hovers
        beside it in AVOID through its stay and the 5 s hold after it
        leaves, with the decision tree on a handful of those ticks."""
        res, groups = self.phases(monkeypatch, [
            "INTRUDER i1 DRONE PREDICTABLE SCRIPT LINGER SPEED=1 ANCHOR=-6305.66,-12677.25,304.8 HOLD=60",
            "SPAWN i1 AT 340"], dt)
        issued = [b.command for a, b in zip(res.ticks, res.ticks[1:]) if b.command != a.command]
        assert issued == ["HOVER", "CONTINUE_FLIGHT"]
        (key, hover, seen), = [g for g in groups if g[0][1] is FlightMode.HOVER]
        assert key[0] is cdr.CdrPhase.AVOID and len(hover) * dt > 60.0 and few(seen)
        assert len({(r.own_east, r.own_north, r.own_up) for r in hover}) == 1
        # Its record's since is the last tick it was present: the hold
        # expires on the first tick over 5 s after that, which the
        # decision sees.
        gone = next(r.t for r in hover if not r.intruders)
        (key, (de,), seen), = [g for g in groups if g[0][0] is cdr.CdrPhase.DE_ESCALATED]
        assert seen == [True] and 5.0 - dt < de.t - gone <= 5.0 + 1e-9

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.3])
    def test_hover_descent_stops_at_its_target(self, monkeypatch, dt):
        """sc-09's bird: the ownship descends under HOVER_AND_DESCEND_TO in
        hold runs, the last of them ending before the tick that reaches
        243.84 m and settles into a hover there."""
        res, groups = self.phases(monkeypatch, [
            "INTRUDER i1 BIRD PREDICTABLE SCRIPT PASS_BY SPEED=15 ANCHOR=-6510.72,-13681.52,304.8 TRACK=35.12 "
            "DURATION=500",
            "SPAWN i1 AT 300"], dt)
        k = [key for key, _, _ in groups].index((cdr.CdrPhase.AVOID, FlightMode.VERTICAL_DESCENT))
        (_, descent, seen), (key, hover, _) = groups[k:k + 2]
        assert key == (cdr.CdrPhase.AVOID, FlightMode.HOVER)
        assert descent[-1].own_up > cdr.DESCEND_TARGET_ALT_M == hover[0].own_up == hover[-1].own_up
        assert len(descent) * dt > 30.0 and few(seen) and not seen[-1]

    SC03 = ["INTRUDER i1 DRONE PREDICTABLE SCRIPT PASS_BY SPEED=20 ANCHOR=-3816.98,-14427.56,304.8 TRACK=305.12 "
            "DURATION=400",
            "SPAWN i1 AT 280"]

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.3])
    def test_detect_timer_ends_a_run(self, monkeypatch, dt):
        """sc-03's crossing drone on the left: the ticks after detection
        are one hold run, ended by the first on which DETECT's 3 s are
        up, which the decision sees and which enters AVOID."""
        _, groups = self.phases(monkeypatch, self.SC03, dt)
        k = [key[0] for key, _, _ in groups].index(cdr.CdrPhase.DETECT)
        (_, detect, seen), (key, avoid, avoid_seen) = groups[k:k + 2]
        assert seen == [True] + [False] * (len(detect) - 1) and len(detect) > 5
        assert key[0] is cdr.CdrPhase.AVOID and avoid_seen[0]
        assert detect[-1].t - detect[0].t < 3.0 <= avoid[0].t - detect[0].t

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.3])
    def test_de_escalation_ends_a_run(self, monkeypatch, dt):
        """The same drone, present and moving on: its range opens for the
        5 s hold inside a hold run, which folds its running record, and
        the run ends on the tick it de-escalates, which the decision sees."""
        res, groups = self.phases(monkeypatch, self.SC03, dt)
        k = [key[0] for key, _, _ in groups].index(cdr.CdrPhase.DE_ESCALATED)
        (key, avoid, seen), (_, (de,), de_seen) = groups[k - 1:k + 1]
        assert key[0] is cdr.CdrPhase.AVOID and few(seen) and not seen[-1] and de_seen == [True]
        assert res.ticks[-1].command == de.command == "CONTINUE_FLIGHT"
        assert avoid[-1].intruders and de.intruders and avoid[-1].intruders[0].east != de.intruders[0].east

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.3])
    def test_emergency_held(self, monkeypatch, dt):
        """sc-04's drone, which penetrates the warning ring: EMERGENCY is
        held in runs until the drone de-escalates and the ownship diverts."""
        res, groups = self.phases(monkeypatch, [
            "INTRUDER i1 DRONE UNPREDICTABLE SCRIPT PASS_BY SPEED=20 ANCHOR=-4398.35,-12734.99,304.8 TRACK=305.12 "
            "DURATION=300",
            "SPAWN i1 AT 280"], dt)
        (_, emergency, seen), = [g for g in groups if g[0][0] is cdr.CdrPhase.EMERGENCY]
        assert len(emergency) * dt > 15.0 and few(seen) and not seen[-1]
        assert res.ticks[-1].command == "REROUTE_TO:V3"

    @pytest.mark.parametrize("spawn,mode", [
        (60.0, FlightMode.VERTICAL_CLIMB), (300.0, FlightMode.CRUISE), (600.0, FlightMode.VERTICAL_DESCENT),
    ])
    @pytest.mark.parametrize("dt", [0.1, 0.3, 0.5])
    def test_spawn_mid_flight_phase(self, spawn, mode, dt):
        """A spawn ends a hold run, and so does the expiry, and the run
        after the intruder has gone ends at the next spawn.  At dt 0.5 the clock is exact, so each
        spawn falls on a tick."""
        sc = enu_scenario(*far_linger("f1", spawn), *far_linger("f2", spawn + 30))
        res = assert_same_run(sc, replace(sc.sim, dt=dt))
        present = [rec for rec in res.ticks if rec.intruders]
        assert present[0].t >= spawn and present[0].flight_mode is mode
        assert {rec.intruders[0].intruder_id for rec in present} == {"f1", "f2"}

    @pytest.mark.parametrize("spawn", [0.75, 100.25])
    def test_intruder_present_only_at_its_lifetime(self, spawn):
        """At dt 0.5 the clock is exact: the intruder's one present tick is
        at rel == lifetime, after a tick where it was still pending.  At
        0.75 s that tick follows the departure tick, so it is the first
        of a hold run unless the lifetime test counts it present."""
        sc = enu_scenario(*far_linger("f1", spawn, hold=0.25))
        res = assert_same_run(sc, replace(sc.sim, dt=0.5))
        assert [rec.t for rec in res.ticks if rec.intruders] == [spawn + 0.25]

    def test_trajectory_whose_first_sample_is_after_spawn(self, monkeypatch):
        """Between the spawn and the first sample the intruder is neither
        pending nor gone, so no hold run may cover those ticks.  Far off
        and CLEAR, it is then stepped in hold runs, and the last sample
        falls inside one."""
        traj = Trajectory((40.0, 70.0), (20000.0, 19000.0), (20000.0, 20000.0), (300.0, 300.0))
        rec = IntruderRecord("c1", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE, spawn_time=200.0,
                             trajectory=traj)
        sc = replace(PACK["ref-route1"], intruders=(rec,))
        res = assert_same_run(sc)
        present = [r.t for r in res.ticks if r.intruders]
        assert 240.0 <= present[0] < 240.2 and 269.8 < present[-1] <= 270.0
        decided = {args[1] for args in calls_made(monkeypatch, cdr, "cdr_step", sc)}
        assert sum(t in decided for t in present) < 5 and present[-1] not in decided

    @pytest.mark.parametrize("dt", [0.1, 0.25])
    def test_playback_inside_idle_runs(self, monkeypatch, dt):
        """A far drone replaying 40 samples at uneven times, most of its
        ticks inside hold runs, each starting between samples: every cell
        is the samples' interpolation at its tick (at dt 0.25 also on
        sample times and the last one)."""
        times = list(itertools.accumulate([0.0, *(1.0 + 0.25 * (k % 4) for k in range(39))]))
        samples = tuple((t, EnuPoint(20000.0 - 15.0 * t, 20000.0 + 40.0 * math.sin(t), 300.0 + t))
                        for t in times)
        rec = IntruderRecord("c1", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE, spawn_time=150.0,
                             trajectory=replay(samples))
        sc = replace(PACK["ref-route1"], intruders=(rec,))
        params = replace(sc.sim, dt=dt)
        res = assert_same_run(sc, params)
        cells = [(r.t, r.intruders[0]) for r in res.ticks if r.intruders]
        for t, cell in cells:
            rel = t - 150.0
            i = min(bisect_right(times, rel), len(times) - 1)
            (lo_t, lo), (hi_t, hi) = samples[i - 1], samples[i]
            u = (rel - lo_t) / (hi_t - lo_t)
            want = tuple(a + u * (b - a) for a, b in zip(lo, hi))
            assert repr(cell[1:4]) == repr(want), t
        assert len(cells) > 200 and cells[-1][0] - 150.0 <= times[-1] < cells[-1][0] - 150.0 + dt
        decided = {args[1] for args in calls_made(monkeypatch, cdr, "cdr_step", sc, params)}
        assert sum(t in decided for t, _ in cells) < 5

    @pytest.mark.parametrize("max_sim_time", [0.05, 100.0, 100.05, 300.0, 560.0, 690.0])
    def test_time_budget_inside_a_quiet_run(self, max_sim_time):
        sc = enu_scenario(*far_linger("f1", 650))
        res = assert_same_run(sc, replace(sc.sim, max_sim_time=max_sim_time))
        assert res.terminal.kind is TerminalKind.TIMED_OUT
        assert not (res.ticks and res.ticks[-1].intruders)
        last = res.ticks[-1].t if res.ticks else res.departure_time
        assert last <= max_sim_time < last + 0.1

    @pytest.mark.parametrize("duration,commands", [
        (45, ["TURN_BY:45:RIGHT", "CONTINUE_FLIGHT"]),
        (70, ["TURN_BY:45:RIGHT", "REROUTE_TO:V1:RIGHT", "REROUTE_TO:V1"]),
    ])
    def test_quiet_runs_after_an_encounter(self, duration, commands):
        """A head-on drone gone during AVOID: the ownship holds its turned
        track, de-escalates, and its quiet run back to the plan slews
        toward it.  Gone only in EMERGENCY, it diverts with a forced
        slew."""
        sc = enu_scenario(
            f"INTRUDER h1 DRONE PREDICTABLE SCRIPT PASS_BY SPEED=20 ANCHOR=-2500,-7000,304.8 TRACK=20 "
            f"DURATION={duration}",
            "SPAWN h1 AT 200",
        )
        res = assert_same_run(sc)
        issued = [b.command for a, b in zip(res.ticks, res.ticks[1:]) if b.command != a.command]
        assert issued == commands
        k = max(i for i, rec in enumerate(res.ticks) if rec.phase is cdr.CdrPhase.DE_ESCALATED)
        after = res.ticks[k + 1:]
        assert all(rec.phase is cdr.CdrPhase.MONITORING for rec in after)
        assert len({rec.own_track for rec in after if not rec.intruders}) > 2  # turning in a quiet run

    def test_pursuit_hold(self):
        """A pursuer holding at its anchor, then chasing, then gone.  The
        far one stays CLEAR, so it chases inside hold runs."""
        for anchor, dt in itertools.product([(1500.0, 1500.0), (20000.0, 20000.0)], [0.1, 0.25]):
            sc = enu_scenario(
                f"INTRUDER p1 BIRD UNPREDICTABLE SCRIPT PURSUIT SPEED=15 ANCHOR={anchor[0]},{anchor[1]},250 "
                "HOLD=20 DURATION=80",
                "SPAWN p1 AT 100",
            )
            res = assert_same_run(sc, replace(sc.sim, dt=dt))
            seen = [(rec.intruders[0].east, rec.intruders[0].north) for rec in res.ticks if rec.intruders]
            assert seen[0] == anchor and seen[-1] != seen[0]
            assert res.ticks[-1].t > 600.0 and not res.ticks[-1].intruders

    @settings(max_examples=40, deadline=None)
    @given(dt=st.floats(0.05, 1.0), max_sim_time=st.floats(0.05, 800.0), held=st.booleans())
    def test_run_ends_by_max_sim_time(self, dt, max_sim_time, held):
        """Cut anywhere in the climb, the cruise or the descent, around two
        spawns, and with or without an intruder held far off from 100 s on,
        a run ends by max_sim_time: TIMED_OUT only when the next tick would
        overrun it, and landed otherwise."""
        held = far_linger("f3", 100, hold=1000) if held else ()
        sc = enu_scenario(*far_linger("f1", 150), *far_linger("f2", 400), *held)
        params = replace(sc.sim, dt=dt, max_sim_time=max_sim_time)
        res = assert_same_run(sc, params)
        last = res.ticks[-1].t if res.ticks else res.departure_time
        assert res.end_time == last <= max_sim_time
        if res.terminal.kind is TerminalKind.TIMED_OUT:
            assert last + dt > max_sim_time
        else:
            assert res.terminal.kind is TerminalKind.LANDED_AT

    @pytest.mark.parametrize("dt", [0.1, 0.2])
    @pytest.mark.parametrize("cas_enabled", [True, False], ids=["on", "off"])
    def test_far_swarm(self, monkeypatch, dt, cas_enabled):
        """Twenty far intruders present for the whole flight: every tick
        but a few is held, so one ownship_step call covers a run of them."""
        sc = enu_scenario(*far_swarm())
        params = replace(sc.sim, dt=dt, cas_enabled=cas_enabled)
        res = assert_same_run(sc, params)
        assert res.terminal.kind is TerminalKind.LANDED_AT
        assert all(len(rec.intruders) == 20 for rec in res.ticks)
        assert {it.zone for rec in res.ticks for it in rec.intruders} == {Zone.CLEAR}
        assert len(calls_made(monkeypatch, agents, "ownship_step", sc, params)) < len(res.ticks) / 50

    @pytest.mark.parametrize("dt", [0.1, 0.3])
    def test_run_ends_where_a_zone_rises(self, monkeypatch, dt):
        """A head-on drone, present and CLEAR for half a minute, enters the
        caution ring: the hold run ends on that tick, which the decision
        sees, and the tick before it is still in the run."""
        sc = enu_scenario(
            "INTRUDER h1 DRONE PREDICTABLE SCRIPT PASS_BY SPEED=20 ANCHOR=-2500,-7000,304.8 TRACK=20 DURATION=45",
            "SPAWN h1 AT 200",
        )
        params = replace(sc.sim, dt=dt)
        res = assert_same_run(sc, params)
        governing = {args[1]: args[4] for args in calls_made(monkeypatch, cdr, "cdr_step", sc, params)}
        k = next(i for i, rec in enumerate(res.ticks)
                 if governing.get(rec.t) is not None and governing[rec.t].zone is not Zone.CLEAR)
        assert governing[res.ticks[k].t].zone is Zone.CAUTION
        assert res.ticks[k - 1].t not in governing and res.ticks[k - 1].intruders
        assert res.ticks[k].t - min(rec.t for rec in res.ticks if rec.intruders) > 30.0

    @pytest.mark.parametrize("cas_enabled", [True, False], ids=["on", "off"])
    def test_intruder_expires_mid_run(self, monkeypatch, cas_enabled):
        """f1 goes at 315 s while p1, a far pursuer listed before it and
        present since 290 s, stays.  p1's pass has gone past the expiry
        when f1's ends the run there, so p1's position and running record
        must be taken at the shorter length: the records, and the running
        records the decision sees, are the reference's."""
        sc = enu_scenario(
            "INTRUDER p1 BIRD UNPREDICTABLE SCRIPT PURSUIT SPEED=15 ANCHOR=20000,20000,250 DURATION=200",
            "SPAWN p1 AT 290",
            *far_linger("f1", 300),
        )
        params = replace(sc.sim, cas_enabled=cas_enabled)
        res = assert_same_run(sc, params)
        ids = [tuple(it.intruder_id for it in rec.intruders) for rec in res.ticks]
        assert [a for a, b in zip(ids, [None, *ids]) if a != b] == [(), ("p1",), ("p1", "f1"), ("p1",), ()]
        # Each ownship_step call starts from a position the run records (or
        # steps past its end) and takes the tick after it first; few start
        # a tick with intruders present.
        first_ids = {(r.own_east, r.own_north, r.own_up): ids[i + 1] for i, r in enumerate(res.ticks[:-1])}
        steps = calls_made(monkeypatch, agents, "ownship_step", sc, params)
        assert sum(bool(first_ids.get(args[:3])) for args in steps) < sum(map(bool, ids)) / 50
        if cas_enabled:
            seen = {}
            step = cdr.cdr_step

            def spy(state, t, own_pos, own_track, governing, runs, *rest):
                seen[t] = (state, governing, dict(runs))
                return step(state, t, own_pos, own_track, governing, runs, *rest)

            monkeypatch.setattr(cdr, "cdr_step", spy)
            engine.run(sc, params)
            got, seen = seen, {}
            reference_run(sc, params)
            assert got and all(got[t] == seen[t] for t in got)

    def test_system_off_collides_inside_a_run(self, monkeypatch):
        """With the system off, a loiterer parked on the ownship's recorded
        position at 400 s: the run ends on the tick of contact, the
        tick after a long run with the loiterer present."""
        params = replace(PACK["ref-route1"].sim, cas_enabled=False)
        clear = engine.run(PACK["ref-route1"], params)
        hit = next(rec for rec in clear.ticks if rec.t >= 400.0)
        sc = enu_scenario(
            f"INTRUDER c1 DRONE PREDICTABLE SCRIPT LINGER SPEED=1 "
            f"ANCHOR={hit.own_east!r},{hit.own_north!r},{hit.own_up!r} HOLD=1000",
            "SPAWN c1 AT 100",
        )
        res = assert_same_run(sc, params)
        assert res.terminal.kind is TerminalKind.COLLIDED and res.end_time == hit.t
        assert res.ticks[-1].intruders[0].separation == 0.0
        # The loiterer's last run-form call reaches the tick of contact,
        # and a full tick takes it.
        steps = [args[1] for args in calls_made(monkeypatch, agents, "intruder_state_at", sc, params)]
        assert steps[-1] == hit.t and isinstance(steps[-2], list) and hit.t in steps[-2]
        assert len(steps) < len(res.ticks) / 50

    def test_contact_is_inclusive(self):
        """With the system off, a loiterer 40 m above the cruise at 400 s:
        at a contact distance equal to its least recorded separation s,
        the run ends COLLIDED on the tick recorded at s; at the float just
        below s it does not end there."""
        params = replace(PACK["ref-route1"].sim, cas_enabled=False)
        clear = engine.run(PACK["ref-route1"], params)
        near = next(rec for rec in clear.ticks if rec.t >= 400.0)
        sc = enu_scenario(
            f"INTRUDER c1 DRONE PREDICTABLE SCRIPT LINGER SPEED=1 "
            f"ANCHOR={near.own_east!r},{near.own_north!r},{near.own_up + 40.0!r} HOLD=1000",
            "SPAWN c1 AT 100",
        )
        s, t = min((it.separation, rec.t) for rec in assert_same_run(sc, params).ticks for it in rec.intruders)
        assert 5.0 < s <= 40.0
        hit = assert_same_run(sc, replace(params, contact_distance=s))
        assert hit.terminal.kind is TerminalKind.COLLIDED and hit.end_time == t
        assert hit.ticks[-1].intruders[0].separation == s
        missed = assert_same_run(sc, replace(params, contact_distance=math.nextafter(s, 0.0)))
        assert missed.terminal.kind is TerminalKind.LANDED_AT and missed.end_time > t

    @pytest.mark.parametrize("dt", [0.1, 0.3])
    def test_later_pass_ends_a_run_at_caution(self, monkeypatch, dt):
        """A far loiterer listed first keeps its pass going while the
        head-on drone of test_run_ends_where_a_zone_rises, listed after
        it, ends the run on the tick it enters the caution ring: the
        loiterer's columns are cut to that run."""
        sc = enu_scenario(
            *far_linger("f0", 100, hold=1000),
            "INTRUDER h1 DRONE PREDICTABLE SCRIPT PASS_BY SPEED=20 ANCHOR=-2500,-7000,304.8 TRACK=20 DURATION=45",
            "SPAWN h1 AT 200",
        )
        params = replace(sc.sim, dt=dt)
        res = assert_same_run(sc, params)
        governing = {args[1]: args[4] for args in calls_made(monkeypatch, cdr, "cdr_step", sc, params)}
        k = next(i for i, rec in enumerate(res.ticks)
                 if governing.get(rec.t) is not None and governing[rec.t].zone is not Zone.CLEAR)
        assert governing[res.ticks[k].t].zone is Zone.CAUTION
        assert res.ticks[k - 1].t not in governing
        assert governing[res.ticks[k].t].intruder_id == "h1"
        assert [it.intruder_id for it in res.ticks[k - 1].intruders] == ["f0", "h1"]

    def test_later_pass_ends_a_run_at_contact(self, monkeypatch):
        """With the system off, a loiterer 500 m above the route ahead,
        listed first, keeps its pass going, nearing, while the loiterer of
        test_system_off_collides_inside_a_run, listed after it, ends the
        run on the tick of contact: the first one's columns and least
        separation are cut to that run."""
        params = replace(PACK["ref-route1"].sim, cas_enabled=False)
        clear = engine.run(PACK["ref-route1"], params)
        hit = next(rec for rec in clear.ticks if rec.t >= 400.0)
        ahead = next(rec for rec in clear.ticks if rec.t >= 420.0)
        sc = enu_scenario(
            f"INTRUDER f0 DRONE PREDICTABLE SCRIPT LINGER SPEED=1 "
            f"ANCHOR={ahead.own_east!r},{ahead.own_north!r},{ahead.own_up + 500.0!r} HOLD=1000",
            "SPAWN f0 AT 50",
            f"INTRUDER c1 DRONE PREDICTABLE SCRIPT LINGER SPEED=1 "
            f"ANCHOR={hit.own_east!r},{hit.own_north!r},{hit.own_up!r} HOLD=1000",
            "SPAWN c1 AT 100",
        )
        res = assert_same_run(sc, params)
        assert res.terminal.kind is TerminalKind.COLLIDED and res.end_time == hit.t
        assert [it.intruder_id for it in res.ticks[-1].intruders] == ["f0", "c1"]
        # Each loiterer's last run-form call reaches the tick of contact,
        # and a full tick takes it.
        steps = calls_made(monkeypatch, agents, "intruder_state_at", sc, params)
        for iid in ("f0", "c1"):
            ts = [args[1] for args in steps if args[0].id == iid]
            assert ts[-1] == hit.t and isinstance(ts[-2], list) and hit.t in ts[-2]
            assert len(ts) < len(res.ticks) / 50

    @pytest.mark.parametrize("cas_enabled", [True, False], ids=["on", "off"])
    def test_separation_on_the_caution_radius(self, monkeypatch, cas_enabled):
        """A loiterer 1.5 km abeam of the cruise, with the caution radius
        set to the separation it is recorded at, 230 s in, with the system
        off: that separation is CAUTION, on the record inside a hold run
        and, with the system on, pre-move on the next tick, which the
        decision sees."""
        sc = enu_scenario("INTRUDER c1 DRONE PREDICTABLE SCRIPT LINGER SPEED=1 ANCHOR=-3300,-4676,304.8 HOLD=500",
                          "SPAWN c1 AT 200")
        off = engine.run(sc, replace(sc.sim, cas_enabled=False))
        k = next(i for i, rec in enumerate(off.ticks) if rec.t >= 230.0)
        radius = off.ticks[k].intruders[0].separation
        seps = [rec.intruders[0].separation for rec in off.ticks[:k + 1] if rec.intruders]
        assert all(a > b for a, b in zip(seps, seps[1:]))  # closing in
        env = envelopes.EnvelopeParams(forward_override=envelopes.EnvelopeSet(radius, 1000.0, 150.0))
        sc = replace(sc, envelope_params=env)
        params = replace(sc.sim, cas_enabled=cas_enabled)
        res = assert_same_run(sc, params)
        cell = res.ticks[k].intruders[0]
        assert cell.separation == radius and cell.zone is Zone.CAUTION
        decided = {args[1]: args[4] for args in calls_made(monkeypatch, cdr, "cdr_step", sc, params)}
        assert res.ticks[k].t not in decided and res.ticks[k - 1].intruders
        if cas_enabled:
            assert decided[res.ticks[k + 1].t].zone is Zone.CAUTION

    def test_float_bits_tell_signed_zeros_apart(self):
        """The reference comparison sees a sign flip on a zero in the
        ownship or an intruder cell, which == does not."""
        rec = next(r for r in engine.run(PACK["sc-03"]).ticks if r.intruders)
        flipped = rec._replace(intruders=(rec.intruders[0]._replace(up=-0.0),))
        zero = rec._replace(intruders=(rec.intruders[0]._replace(up=0.0),))
        assert flipped == zero and float_bits([flipped]) != float_bits([zero])
        assert float_bits([rec._replace(own_track=0.0)]) != float_bits([rec._replace(own_track=-0.0)])


def off_pair(sc, params=None):
    """The system-on run of sc, then the system-off run that follows it,
    with params (sc.sim by default) on either side."""
    params = sc.sim if params is None else params
    on = engine.run(sc, replace(params, cas_enabled=True))
    return on, engine.run(sc, replace(params, cas_enabled=False))


def assert_equal_runs(got, want):
    """Two runs give the same records, bit for bit, terminal, end time and
    CPA."""
    assert got.ticks == want.ticks and float_bits(got.ticks) == float_bits(want.ticks), got.scenario_id
    assert got.terminal == want.terminal, got.scenario_id
    assert repr(got.end_time) == repr(want.end_time), got.scenario_id
    assert repr(metrics.cpa(got)) == repr(metrics.cpa(want)), got.scenario_id


class TestPlanPaths:
    """Inside one command scope each run reads the ownship's path, from
    departure to its first command, from the plan path of its plan, perf
    and dt, which the runs before it filled (engine's plan paths); every
    run must equal the loop and record its clock column's floats, and
    leaving the scope drops the paths."""

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.3048, 1.0])
    def test_default_pack_in_one_scope(self, dt):
        with engine.command_scope():
            for sc in PACK:
                for cas_enabled in (True, False):
                    assert_reads_the_clock(assert_same_run(sc, replace(sc.sim, dt=dt, cas_enabled=cas_enabled)), dt)
            paths = list(engine._scope.paths.values())
        assert engine._scope is None
        # Each path a run flew to touchdown is whole: rows to touchdown.
        landings = {len(p.cols[0]) - 1 for p in paths if p.states[-1][0] is FlightMode.GROUND and len(p.cuts) > 1}
        assert landings == {len(run("ref-route1", dt=dt).ticks), len(run("ref-route2", dt=dt).ticks)}

    def test_a_run_reads_the_path_until_its_first_command(self, monkeypatch):
        """sc-03 acts mid-flight on ref-route1's plan: its ownship values up
        to its first command are the float objects ref-route1 left in the
        path, and its first ownship_step call steps the tick of that
        command."""
        sc = PACK["sc-03"]
        with engine.command_scope():
            ref = engine.run(PACK["ref-route1"])
            got = engine.run(sc)
            steps = calls_made(monkeypatch, agents, "ownship_step", sc)
        k = next(i for i, rec in enumerate(got.ticks) if rec.command)
        own = [rec[1:5] for rec in got.ticks]
        assert all(a is b for a, b in zip(itertools.chain(*own[:k]), itertools.chain(*(rec[1:5] for rec in ref.ticks))))
        assert steps[0][:4] == own[k - 1] and len(steps[0]) == 9
        assert_same_run(sc, None, got)

    def test_paths_tell_signed_zeros_apart(self):
        """A route that starts at longitude -0.0 east of V1 at 0.0 starts at
        east -0.0, which == does not tell from 0.0 but the trace prints
        apart: the other route's run keeps its own path and trace."""
        text = ("SCENARIO z\nOWNSHIP VECTORED_THRUST\nVERTIPORT V1 51.5 0.0\nVERTIPORT V2 51.45 -0.1\n"
                "ROUTE R1 51.5,{} 51.45,-0.1\nPLAN R1\n")
        negative, positive = (parse_scenario(text.format(lon)) for lon in ("-0.0", "0.0"))
        with engine.command_scope():
            engine.run(negative)
            got = trace_csv_lines(engine.run(positive))
            # A second reader of each path reads its cached lines.
            runs = [engine.run(sc) for sc in (negative, negative, positive)]
            lines = [trace_csv_lines(res) for res in runs]
        assert got == trace_csv_lines(engine.run(positive)) and got[1].startswith("0.100,0.000,")
        assert trace_csv_lines(engine.run(negative))[1].startswith("0.100,-0.000,")
        assert lines[0] == lines[1] == reference_trace_lines(runs[1]) and lines[1][1].startswith("0.100,-0.000,")
        assert lines[2] == got and runs[1].leading[0] is not runs[2].leading[0]
        for res, ln in zip(runs[1:], lines[1:]):
            assert ln[1] is res.leading[0].text[0.0][0]

    def test_runs_outside_a_scope_share_nothing(self):
        """Each run outside a scope flies its own path: a cruise record of
        the second flight holds floats equal to the first's, not the same."""
        ref = engine.run(PACK["ref-route1"])
        again = engine.run(PACK["ref-route1"])
        assert engine._scope is None
        a, b = ref.ticks[3000], again.ticks[3000]
        assert a.flight_mode is FlightMode.CRUISE and a == b and a.own_east is not b.own_east and a.t is not b.t


def assert_reads_the_clock(res, dt):
    """res, a run made in the open command scope, records the floats of the
    scope's clock column for its departure and dt, and ends at its own."""
    if res.terminal.kind is TerminalKind.POSTPONED_ON_GROUND:
        return
    clock = engine._scope.clocks[res.departure_time, dt]
    assert all(rec.t is t for rec, t in zip(res.ticks, clock[1:])), res.scenario_id
    assert res.end_time is clock[len(res.ticks)], res.scenario_id


class TestClock:
    """Inside one command scope the runs of one departure and dt read one
    clock column, tick k at clock[k] (engine's clock), and record its
    float objects; reference_run keeps its own clock, adding dt tick by
    tick, and TestPlanPaths runs the pack in one scope against it."""

    def test_runs_share_the_column_of_their_departure_and_dt(self):
        with engine.command_scope():
            a, b = engine.run(PACK["ref-route1"]), engine.run(PACK["ref-route2"])
            late = engine.run(PACK["ground-300"])
            coarse = engine.run(PACK["ref-route1"], replace(PACK["ref-route1"].sim, dt=0.2))
            for res, dt in ((a, 0.1), (b, 0.1), (late, 0.1), (coarse, 0.2)):
                assert_reads_the_clock(res, dt)
            assert len(engine._scope.clocks) == 3
        assert len(a.ticks) < len(b.ticks) and all(x.t is y.t for x, y in zip(a.ticks, b.ticks))
        ids = {id(rec.t) for rec in a.ticks}
        assert late.departure_time == 300.0 and ids.isdisjoint(id(rec.t) for rec in late.ticks)
        assert ids.isdisjoint(id(rec.t) for rec in coarse.ticks)
        assert engine._scope is None

    def test_forked_run_reads_the_column_of_its_system_on_run(self):
        """sc-12's system-off run forks from its system-on run's memo and
        reads the same column, past the records it shares too."""
        sc = PACK["sc-12"]
        with engine.command_scope():
            on = engine.run(sc)
            off = engine.run(sc, replace(sc.sim, cas_enabled=False))
            assert_reads_the_clock(off, 0.1)
        assert 0 < off.shared < min(len(on.ticks), len(off.ticks))
        assert all(x.t is y.t for x, y in zip(on.ticks, off.ticks))


class TestPathText:
    """Inside one command scope the second run that renders rows of a plan
    path at one departure caches their quiet lines on the path, and the runs
    after it take those lines (engine's trace text); every trace must
    equal the reference renderer's."""

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.2])
    def test_default_pack_in_one_scope(self, dt):
        """Every pack run, in pack order, rendered as the pair step does:
        the system-off trace takes the shared rows of the system-on one."""
        with engine.command_scope():
            for sc in PACK:
                on = engine.run(sc, replace(sc.sim, dt=dt))
                lines = trace_csv_lines(on)
                assert lines == reference_trace_lines(on), sc.id
                off = engine.run(sc, replace(sc.sim, dt=dt, cas_enabled=False))
                lines = lines[:off.shared + 1] + trace_csv_lines(off, off.shared)[1:]
                assert lines == reference_trace_lines(off), sc.id
            cached = [text for path in engine._scope.paths.values() for text in path.text.values() if text]
        assert cached  # the pack's runs read cached lines

    def test_quiet_rows_are_the_cached_lines(self):
        """ref-route1 meets no intruder and issues no command: the first
        run renders its own lines, the second fills the path's text and
        reads it, and the third reads the same lines."""
        with engine.command_scope():
            runs = [engine.run(PACK["ref-route1"]) for _ in range(3)]
            path, n = runs[0].leading
            first = trace_csv_lines(runs[0])
            assert path.text == {0.0: []} and n == len(runs[0].ticks)
            later = [trace_csv_lines(res) for res in runs[1:]]
        text = path.text[0.0]
        assert len(text) == n and all(res.leading == (path, n) for res in runs)
        assert first == later[0] == later[1] == reference_trace_lines(runs[0])
        assert not any(a is b for a, b in zip(first[1:], text))
        for lines in later:
            assert all(a is b for a, b in zip(lines[1:], text, strict=True))

    def test_a_run_fills_only_lines_it_prints(self):
        """sc-12's pair alone, as `uamcas run --compare` runs it: the
        system-on run is the first to render its path's rows, and the
        forked system-off run renders from its first unshared row, past
        the text's end, so it formats its own lines and none for the text."""
        sc = PACK["sc-12"]
        with engine.command_scope():
            trace_csv_lines(engine.run(sc))
            off = engine.run(sc, replace(sc.sim, cas_enabled=False))
            lines = trace_csv_lines(off, off.shared)
        path, n = off.leading
        assert 0 < off.shared < n == len(off.ticks) and path.text == {0.0: []}
        assert lines[1:] == reference_trace_lines(off)[off.shared + 1:]

    def test_leading_rows_end_at_the_first_command(self):
        """sc-03's path rows end at its first command; the system-off run
        after it is path rows to the end."""
        with engine.command_scope():
            on = engine.run(PACK["sc-03"])
            off = engine.run(PACK["sc-03"], replace(PACK["sc-03"].sim, cas_enabled=False))
        k = next(i for i, rec in enumerate(on.ticks) if rec.command)
        assert on.leading[1] == k and off.leading[1] == len(off.ticks)

    def test_a_latched_phase_is_not_quiet(self):
        """An intruder that spawns inside the collision envelope latches
        COLLIDED without a command (cdr.cdr_step), so once it is gone the
        run's path rows have no intruder and no command but are not quiet.
        The latch (ROADMAP item 10) is the one way a path row gets a phase
        other than MONITORING with no intruder in sight."""
        sc = enu_scenario("INTRUDER c1 DRONE PREDICTABLE SCRIPT LINGER SPEED=1 ANCHOR=0,30,85 HOLD=5 DURATION=5",
                          "SPAWN c1 AT 50")
        with engine.command_scope():
            for _ in range(2):  # the first renders its own lines, the second fills the text
                trace_csv_lines(engine.run(sc, replace(sc.sim, cas_enabled=False)))
            got = engine.run(sc)
            lines = trace_csv_lines(got)
        assert any(not rec.intruders and rec.phase is not cdr.CdrPhase.MONITORING
                   for rec in got.ticks[:got.leading[1]])
        assert lines == reference_trace_lines(got)


class TestSharedRecords:
    """A system-off run that follows its system-on run in one command scope
    starts from the records they share, those before the first tick the
    system acts on (engine's memo); it must equal a system-off run made
    without them."""

    @pytest.fixture(autouse=True)
    def scope(self):
        with engine.command_scope():
            yield

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.2, 0.3048, 1.0])
    def test_default_pack(self, dt):
        for sc in PACK:
            params = replace(sc.sim, dt=dt, cas_enabled=False)
            fresh = engine.run(sc, params)  # the run before it was a system-off one: no memo
            _, got = off_pair(sc, params)
            assert fresh.shared == 0
            assert_equal_runs(got, fresh)
            assert_same_run(sc, params, got)

    SHARED = {"ground-0": 6913, "ref-route1": 6913, "ref-route2": 7431, "sc-12": 5067, "sc-13": 4606}

    def test_shared_counts(self):
        """At dt 0.1, the runs that depart at once on the planned route and
        never act share all their records, sc-12 and sc-13 those before
        their first DETECT; every other run acts on its first tick or
        departs otherwise, and shares none."""
        got = {sc.id: off_pair(sc)[1] for sc in PACK}
        assert {sid: res.shared for sid, res in got.items() if res.shared} == self.SHARED
        assert got["sc-12"].shared < len(got["sc-12"].ticks)

    @settings(max_examples=40, deadline=None)
    @given(intruders=st.lists(encounter(), min_size=1, max_size=4), dt=st.floats(0.05, 1.0))
    def test_drawn_encounters(self, intruders, dt):
        """ref-route1 against intruders drawn as in test_metrics.py,
        pursuers included: the system-off run after the system-on run
        equals the loop."""
        sc = replace(PACK["ref-route1"], intruders=tuple(replace(rec, id=f"d{i}") for i, rec in enumerate(intruders)))
        _, got = off_pair(sc, replace(sc.sim, dt=dt))
        assert_same_run(sc, replace(sc.sim, dt=dt, cas_enabled=False), got)

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.3048, 1.0])
    @pytest.mark.parametrize("anchor,spawn", [("1000,1000,200", 120), ("500,500,250", 100)],
                             ids=["evaded", "collided"])
    def test_pursuit_forks_mid_run(self, anchor, spawn, dt):
        """A pursuer that the system acts on mid-flight: the runs fork
        there, and the rest of the system-off run is its own."""
        sc = enu_scenario(
            f"INTRUDER p1 BIRD UNPREDICTABLE SCRIPT PURSUIT SPEED=20 ANCHOR={anchor} HOLD=20 DURATION=80",
            f"SPAWN p1 AT {spawn}",
        )
        on, got = off_pair(sc, replace(sc.sim, dt=dt))
        k = got.shared
        assert 0 < k < len(got.ticks) and got.ticks[:k] == on.ticks[:k] and on.ticks[k] != got.ticks[k]
        assert_same_run(sc, replace(sc.sim, dt=dt, cas_enabled=False), got)

    @pytest.mark.parametrize("case", ["same-text", "dt", "contact-distance", "off-first", "taken", "sc-01"])
    def test_no_sharing(self, case):
        """The fork takes only the memo of the run just before, made on the
        same scenario object with the same params but cas_enabled, and
        departing at once on the planned route (sc-01 departs at 300 s)."""
        sc = PACK["sc-01" if case == "sc-01" else "ref-route1"]
        on, off = replace(sc.sim, cas_enabled=True), replace(sc.sim, cas_enabled=False)
        target = {
            "same-text": (parse_scenario(serialize_scenario(sc)), off),
            "dt": (sc, replace(off, dt=0.2)),
            "contact-distance": (sc, replace(off, contact_distance=4.0)),
        }.get(case, (sc, off))
        if case == "off-first":
            got = engine.run(*target)
            engine.run(sc, on)
        else:
            engine.run(sc, on)
            if case == "taken":
                engine.run(PACK["ref-route2"], off)
            got = engine.run(*target)
        assert got.shared == 0
        assert_equal_runs(got, engine.run(*target))

    @pytest.mark.parametrize("case", ["far-swarm", "sc-12"])
    def test_on_result_is_not_shared(self, case):
        """Changing the system-on result's records list after it returned
        changes nothing in the system-off run that follows, whole (the far
        swarm, which shares the finished index) or forked (sc-12, which
        copies the index the system-on run goes on changing)."""
        sc = enu_scenario(*far_swarm(3)) if case == "far-swarm" else PACK[case]
        fresh = engine.run(sc, replace(sc.sim, cas_enabled=False))
        on = engine.run(sc)
        on.ticks.clear()
        if case == "sc-12":
            for _, stretches in on.stretches.values():
                stretches[0][3] = -1.0
                stretches.pop()
        got = engine.run(sc, replace(sc.sim, cas_enabled=False))
        assert got.shared > 0 and got.stretches
        assert_equal_runs(got, fresh)
        assert_index_holds(got)

    def test_memo_leaves_no_cyclic_garbage(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for sc in PACK:
                on = engine.run(sc)
                del on
                assert gc.collect() == 0, sc.id  # the memo alone
                off = engine.run(sc, replace(sc.sim, cas_enabled=False))
                del off
                assert gc.collect() == 0, sc.id
        finally:
            (gc.enable if enabled else gc.disable)()
