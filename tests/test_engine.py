"""Whole-run behaviour of the fast-time engine: reference flight times,
determinism, the disabled-system baseline, and terminal conditions."""

import math
from dataclasses import replace

import pytest

from uamcas import cdr, engine, envelopes, geo, metrics
from uamcas.agents import FlightMode
from uamcas.engine import TerminalKind, TRACE_HEADER, trace_csv_lines
from uamcas.pack import default_pack
from uamcas.scenario_io import parse_scenario, serialize_scenario

PACK = default_pack()


def run(sid, **kw):
    sc = PACK[sid]
    params = replace(sc.sim, **kw) if kw else None
    return engine.run(sc, params)


def theory(sid):
    sc = PACK[sid]
    return metrics.theoretical_flight_time(
        sc.routes[sc.planned_route], sc.perf
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
        assert res.command_log == []
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
        assert off.command_log == []
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
        last = res.ticks[-1]
        gov = engine.governing_intruder(last)
        assert gov.separation <= 5.0

    def test_time_budget_enforced(self):
        res = run("ref-route1", dt=0.5, max_sim_time=100.0)
        assert res.terminal.kind is TerminalKind.TIMED_OUT
        assert res.end_time <= 100.0


class TestAvoidanceRuns:
    def test_commands_are_chronological(self):
        res = run("sc-04", dt=0.5)
        times = [t for t, _ in res.command_log]
        assert times == sorted(times)
        assert len(times) >= 2  # at least engage + resolve

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

        actions = [cmd.action for _, cmd in res.command_log]
        assert Action.CONTINUE_FLIGHT in actions  # picked the plan back up


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
        from uamcas.envelopes import Zone

        rec = engine.TickRecord(
            t=1.0, own_east=0.0, own_north=0.0, own_up=300.0, own_track=0.0,
            flight_mode=FlightMode.CRUISE, phase=engine.cdr.CdrPhase.MONITORING,
            intruders=(
                engine.IntruderTick("far", 900.0, 0.0, 300.0, 900.0, Zone.WARNING),
                engine.IntruderTick("near", 500.0, 0.0, 300.0, 500.0, Zone.WARNING),
            ),
            command="",
        )
        assert engine.governing_intruder(rec).intruder_id == "near"
        assert engine.governing_intruder(
            engine.TickRecord(
                t=1.0, own_east=0.0, own_north=0.0, own_up=300.0, own_track=0.0,
                flight_mode=FlightMode.CRUISE, phase=engine.cdr.CdrPhase.MONITORING,
                intruders=(), command="",
            )
        ) is None


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
        departure_time=0.0, end_time=ticks[-1].t if ticks else 0.0, command_log=[],
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


class TestOwnshipObjects:
    """The engine carries the ownship as plain values and builds an
    OwnshipState only for resolve_command, once per issued command."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        make = engine.OwnshipState

        def counting(*args, **kwargs):
            state = make(*args, **kwargs)
            built.append(state)
            return state

        monkeypatch.setattr(engine, "OwnshipState", counting)
        return built

    def test_clean_sky_builds_none(self, built):
        res = run("ref-route1")
        assert res.terminal.kind is TerminalKind.LANDED_AT
        assert built == []

    def test_one_per_issued_command(self, built):
        res = run("sc-11")
        assert len(res.command_log) >= 2
        assert len(built) == len(res.command_log)


class TestSimParams:
    @pytest.mark.parametrize("field", ["dt", "max_sim_time", "contact_distance"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            engine.SimParams(**{field: value})

    @pytest.mark.parametrize("dt,max_sim_time", [(1e-300, 3600.0), (1e-13, 3600.0), (1e-20, 1.0)])
    def test_dt_that_cannot_advance_the_clock_is_rejected(self, dt, max_sim_time):
        with pytest.raises(ValueError, match="dt is too small to advance the clock"):
            engine.SimParams(dt=dt, max_sim_time=max_sim_time)

    def test_smallest_dt_that_advances_the_clock_is_accepted(self):
        dt = math.ulp(3600.0)
        assert 3600.0 + dt > 3600.0
        assert engine.SimParams(dt=dt, max_sim_time=3600.0).dt == dt


class TestPerRunEnvelopes:
    """The engine resolves each flight mode's envelope set once per run;
    every zone it senses or records must still be the one envelopes_for
    gives for the ownship's flight mode at that instant."""

    def test_zones_match_envelopes_for_over_the_default_pack(self, monkeypatch):
        sensed = []
        step = cdr.cdr_step

        def spy(state, t, own_pos, own_track, observations, *rest):
            sensed.extend((t, own_pos, obs) for obs in observations)
            return step(state, t, own_pos, own_track, observations, *rest)

        monkeypatch.setattr(cdr, "cdr_step", spy)
        recorded = observed = 0
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
            # previous tick's recorded position and flight mode.
            index = {rec.t: i for i, rec in enumerate(result.ticks)}
            for t, own_pos, obs in sensed:
                i = index[t]
                if i == 0:
                    mode = FlightMode.GROUND  # still on the pad
                else:
                    prev = result.ticks[i - 1]
                    assert own_pos == (prev.own_east, prev.own_north, prev.own_up)
                    mode = prev.flight_mode
                assert obs.separation == geo.distance_3d(own_pos, obs.pos)
                assert obs.zone is envelopes.classify(obs.separation, env(mode)), sid
            observed += len(sensed)
        assert recorded > 0 and observed > 0

    def test_system_off_senses_nothing(self, monkeypatch):
        """With the system off only the tick records classify: one call per
        recorded intruder, none for sensing, and no decision tree."""
        calls = []
        classify = envelopes.classify

        def counting(sep, env):
            calls.append(sep)
            return classify(sep, env)

        def fail(*args):
            raise AssertionError("cdr_step called with the system off")

        monkeypatch.setattr(envelopes, "classify", counting)
        monkeypatch.setattr(cdr, "cdr_step", fail)
        res = run("sc-09", cas_enabled=False)
        recorded = sum(len(rec.intruders) for rec in res.ticks)
        assert recorded > 0
        assert len(calls) == recorded
