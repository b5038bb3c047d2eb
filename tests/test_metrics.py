"""Outcome accounting: baseline times, the CPA estimator against brute
force and against the sweep of every interval it replaced, and the delay
decomposition."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from uamcas import cli, engine, geo, metrics
from uamcas.agents import (
    DEFAULT_PERFORMANCE,
    FlightMode,
    IntruderBehavior,
    IntruderKind,
    IntruderRecord,
    OwnshipConfig,
    ScriptedBehavior,
    ScriptMode,
)
from uamcas.cdr import CdrPhase, GroundDecision
from uamcas.engine import IntruderTick, RunResult, Terminal, TerminalKind, TickRecord
from uamcas.envelopes import Zone
from uamcas.geo import EnuPoint, distance_3d
from uamcas.pack import default_pack

from test_agents import replay

VT = DEFAULT_PERFORMANCE[OwnshipConfig.VECTORED_THRUST]
PACK = default_pack()


class TestTheoreticalTimes:
    def test_route_one_baseline(self):
        sc = PACK["ref-route1"]
        t = metrics.theoretical_flight_time(sc.vertiports["V1"].position, sc.routes["ROUTE1"], VT)
        # 26 km at 78 m/s plus a 304.8 m climb and descent at 1.7 m/s
        assert t == pytest.approx(691.92, abs=0.01)

    def test_route_two_baseline(self):
        sc = PACK["ref-route2"]
        t = metrics.theoretical_flight_time(sc.vertiports["V1"].position, sc.routes["ROUTE2"], VT)
        assert t == pytest.approx(743.20, abs=0.01)

    def test_components(self):
        sc = PACK["ref-route1"]
        t = metrics.theoretical_flight_time(sc.vertiports["V1"].position, sc.routes["ROUTE1"], VT)
        cruise = 26000.0 / 78.0
        vertical = 2 * 304.8 / 1.7
        assert t == pytest.approx(cruise + vertical)
        assert cruise == pytest.approx(333.333, abs=1e-3)
        assert vertical / 2 == pytest.approx(179.294, abs=1e-3)


def present_ticks(ticks):
    """Per intruder, in first-appearance order, each record that lists it:
    (tick index, cell index, relative position, separation)."""
    seen = {}
    for k, rec in enumerate(ticks):
        for cell, (iid, east, north, up, sep, _) in enumerate(rec.intruders):
            rel = (east - rec.own_east, north - rec.own_north, up - rec.own_up)
            seen.setdefault(iid, []).append((k, cell, rel, sep))
    return seen


def largest_step(cells):
    """The longest relative step between two consecutive recorded ticks."""
    return max((math.dist(a[2], b[2]) for a, b in zip(cells, cells[1:]) if b[0] == a[0] + 1), default=0.0)


def stretch_index(ticks):
    """A RunResult's stretch index for hand-built records: one stretch per
    run of consecutive ticks that list the intruder at one cell, and the
    longest relative step, with the engine's margin, as the reach."""
    index = {}
    for iid, cells in present_ticks(ticks).items():
        stretches = []
        for k, cell, _, sep in cells:
            s = stretches[-1] if stretches else None
            if s and s[0] + s[1] == k and s[2] == cell:
                s[1] += 1
                s[3] = min(s[3], sep)
            else:
                stretches.append([k, 1, cell, sep])
        index[iid] = (largest_step(cells) * (1 + 1e-6) + 1e-6, stretches)
    return index


def synth_result(tick_data, terminal=None, departure=0.0, route="ROUTE1"):
    """tick_data: [(t, (ox,oy,oz), [(iid, (x,y,z)), ...])]; each
    separation is geo.distance_3d of the two positions, as the engine
    records it, and the stretch index is stretch_index's."""
    ticks = []
    for t, own, intruders in tick_data:
        its = tuple(
            IntruderTick(
                iid,
                p[0],
                p[1],
                p[2],
                distance_3d(own, p),
                Zone.CLEAR,
            )
            for iid, p in intruders
        )
        ticks.append(
            TickRecord(
                t=t, own_east=own[0], own_north=own[1], own_up=own[2],
                own_track=0.0, flight_mode=FlightMode.CRUISE,
                phase=CdrPhase.MONITORING, intruders=its, command="",
            )
        )
    return RunResult(
        scenario_id="synthe",
        ticks=ticks,
        terminal=terminal or Terminal(TerminalKind.LANDED_AT, "V2"),
        ground_decision=GroundDecision.depart(route, departure),
        departure_time=departure,
        end_time=ticks[-1].t if ticks else 0.0,
        stretches=stretch_index(ticks),
    )


class TestCpa:
    def test_interpolates_below_sampled_minimum(self):
        # intruder crosses the ownship position exactly between samples;
        # every sampled separation is 50 but the true minimum is 0
        data = [
            (1.0, (0.0, 0.0, 300.0), [("I", (-50.0, 0.0, 300.0))]),
            (2.0, (0.0, 0.0, 300.0), [("I", (50.0, 0.0, 300.0))]),
        ]
        assert metrics.cpa(synth_result(data))["I"] == pytest.approx(0.0, abs=1e-9)

    def test_absence_gaps_reset_interpolation(self):
        # the intruder teleports while absent; no segment may bridge the gap
        data = [
            (1.0, (0.0, 0.0, 300.0), [("I", (-500.0, 100.0, 300.0))]),
            (2.0, (0.0, 0.0, 300.0), []),
            (3.0, (0.0, 0.0, 300.0), [("I", (500.0, 100.0, 300.0))]),
        ]
        d = metrics.cpa(synth_result(data))["I"]
        assert d == pytest.approx(math.hypot(500.0, 100.0))

    def test_absent_intruder_has_no_entry(self):
        data = [(1.0, (0.0, 0.0, 300.0), [("I", (100.0, 0.0, 300.0))])]
        assert "ghost" not in metrics.cpa(synth_result(data))
        assert metrics.cpa(synth_result([(1.0, (0.0, 0.0, 300.0), [])])) == {}

    def test_matches_brute_force_on_random_linear_encounters(self):
        rng = random.Random(20260819)
        dt = 0.5
        n = 120
        for _ in range(100):
            own0 = [rng.uniform(-2000, 2000) for _ in range(3)]
            ivel = [rng.uniform(-60, 60) for _ in range(3)]
            intr0 = [rng.uniform(-2000, 2000) for _ in range(3)]
            ovel = [rng.uniform(-60, 60) for _ in range(3)]
            own_at = lambda t: tuple(own0[k] + ovel[k] * t for k in range(3))
            intr_at = lambda t: tuple(intr0[k] + ivel[k] * t for k in range(3))
            data = [
                ((i + 1) * dt, own_at((i + 1) * dt), [("I", intr_at((i + 1) * dt))])
                for i in range(n)
            ]
            analytic = metrics.cpa(synth_result(data))["I"]
            # dense sampling at dt/100 can only sit above the true minimum
            fine = dt / 100.0
            brute = min(
                math.dist(own_at(dt + j * fine), intr_at(dt + j * fine))
                for j in range(int((n - 1) * dt / fine) + 1)
            )
            assert analytic <= brute + 1e-9
            assert brute - analytic <= 0.5

    def test_intruder_id_listing(self):
        data = [
            (1.0, (0, 0, 300), [("B", (100, 0, 300)), ("A", (200, 0, 300))]),
            (2.0, (0, 0, 300), [("C", (300, 0, 300))]),
        ]
        assert metrics.intruder_ids(synth_result(data)) == ["B", "A", "C"]

    def test_minimum_across_abutting_stretches(self):
        """J appears ahead of I in the list as I crosses the ownship, so
        I's two ticks are two abutting stretches at cells 0 and 1; the
        interval between them holds the minimum."""
        data = [
            (1.0, (0.0, 0.0, 300.0), [("I", (-50.0, 0.0, 300.0))]),
            (2.0, (0.0, 0.0, 300.0), [("J", (900.0, 0.0, 300.0)), ("I", (50.0, 0.0, 300.0))]),
        ]
        result = synth_result(data)
        assert result.stretches["I"][1] == [[0, 1, 0, 50.0], [1, 1, 1, 50.0]]
        assert metrics.cpa(result)["I"] == pytest.approx(0.0, abs=1e-9)

    def test_minimum_between_ticks_farther_than_the_least_sample(self):
        """The intruder passes 1 m off between two ticks about 50 m away,
        then stops 30 m away: the least recorded separation is 30 m, yet
        the minimum is in an interval with no end at 30 m."""
        data = [
            (1.0, (0.0, 0.0, 300.0), [("I", (-50.0, 1.0, 300.0))]),
            (2.0, (0.0, 0.0, 300.0), [("I", (50.0, 1.0, 300.0))]),
            (3.0, (0.0, 0.0, 300.0), [("I", (30.0, 0.0, 300.0))]),
        ]
        result = synth_result(data)
        assert result.stretches["I"][1][0][3] == 30.0
        assert metrics.cpa(result)["I"] == pytest.approx(1.0)


def reference_cpa(result):
    """The sweep of every recorded tick that metrics.cpa replaced, kept as
    its reference: per intruder, the minimum over every sampled
    separation and every interval between two consecutive recorded ticks,
    with the same operations in the same order."""
    sqrt = math.sqrt
    inf = math.inf
    last_seen = {}
    for k, (t, own_e, own_n, own_u, _, _, _, intruders, _) in enumerate(result.ticks):
        for iid, east, north, up, sep, _ in intruders:
            dx, dy, dz = east - own_e, north - own_n, up - own_u
            last = last_seen.get(iid)
            if last is None:
                low = inf
            else:
                k0, t0, px, py, pz, low = last
                if k0 == k - 1:
                    span = t - t0
                    vx, vy, vz = (dx - px) / span, (dy - py) / span, (dz - pz) / span
                    v2 = vx * vx + vy * vy + vz * vz
                    if v2 == 0.0:
                        t_star = 0.0
                    else:
                        t_star = -(px * vx + py * vy + pz * vz) / v2
                        # max(0.0, min(span, t_star)), as cpa_linear clamps.
                        t_star = t_star if t_star < span else span
                        t_star = t_star if t_star > 0.0 else 0.0
                    ex, ey, ez = px + vx * t_star, py + vy * t_star, pz + vz * t_star
                    d = sqrt(ex * ex + ey * ey + ez * ez)
                    if d < low:
                        low = d
            if sep < low:
                low = sep
            last_seen[iid] = (k, t, dx, dy, dz, low)
    return {iid: last[5] for iid, last in last_seen.items()}


def assert_matches_reference(result, reference=None):
    """metrics.cpa of result equals reference_cpa over the records of
    reference (result itself by default), bit for bit and in order."""
    minima = metrics.cpa(result)
    want = reference_cpa(result if reference is None else reference)
    assert metrics.intruder_ids(result) == list(minima) == list(want), result.scenario_id
    assert [v.hex() for v in minima.values()] == [v.hex() for v in want.values()], result.scenario_id


def assert_index_holds(result):
    """The engine's stretch index lists each intruder's recorded ticks in
    order, at their cells, with each stretch's least separation, and
    every relative step between two consecutive recorded ticks is within
    the intruder's reach: the premise of metrics.cpa's bound."""
    seen = present_ticks(result.ticks)
    assert list(result.stretches) == list(seen)
    for iid, (reach, stretches) in result.stretches.items():
        cells = seen[iid]
        assert [(k, c) for f, n, c, _ in stretches for k in range(f, f + n)] == [(k, c) for k, c, _, _ in cells]
        for first, count, cell, least in stretches:
            assert least == min(rec.intruders[cell].separation for rec in result.ticks[first:first + count])
        step = largest_step(cells)
        assert step <= reach, (result.scenario_id, iid, step, reach)


class TestCpaMatchesReference:
    @pytest.mark.parametrize("cas_enabled", [True, False], ids=["on", "off"])
    def test_every_default_pack_run(self, cas_enabled):
        for sc in PACK:
            result, _ = cli.simulate(sc, None, cas_enabled)
            assert_matches_reference(result)

    def test_many_intruders_with_absence_gaps(self):
        rng = random.Random(7)
        data = []
        for k in range(400):
            own = (rng.uniform(-100, 100), rng.uniform(-100, 100), 300.0)
            present = [
                (iid, (rng.uniform(-900, 900), rng.uniform(-900, 900), rng.uniform(0, 600)))
                for iid in ("C", "A", "B", "D")
                if rng.random() < 0.7
            ]
            data.append((0.1 * (k + 1), own, present))
        assert_matches_reference(synth_result(data))

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.2, 1.0])
    def test_steps_within_reach_over_the_pack(self, dt):
        """Every pack run, at fine and coarse ticks, through the top of
        climb, touchdown, turns and diversions."""
        for sc in PACK:
            for cas_enabled in (True, False):
                result = engine.run(sc, replace(sc.sim, dt=dt, cas_enabled=cas_enabled))
                assert_index_holds(result)
                assert_matches_reference(result)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), dt=st.floats(0.05, 1.0), cas_enabled=st.booleans())
    def test_drawn_encounters(self, data, dt, cas_enabled):
        """ref-route1 against one to four drawn intruders crossing its path
        at fast and slow speeds, coming and going, so cells shift between
        abutting stretches."""
        intruders = data.draw(st.lists(encounter(), min_size=1, max_size=4))
        sc = replace(ROUTE1, intruders=tuple(
            replace(rec, id=f"d{i}") for i, rec in enumerate(intruders)))
        result = engine.run(sc, replace(sc.sim, dt=dt, cas_enabled=cas_enabled))
        assert_index_holds(result)
        assert_matches_reference(result)


ROUTE1 = PACK["ref-route1"]
ROUTE1_LEGS = geo.project_route(ROUTE1.vertiports["V1"].position, ROUTE1.routes["ROUTE1"])


@st.composite
def encounter(draw):
    """An intruder near a drawn point of ROUTE1 about when the ownship
    passes it (the climb takes 179 s, then 78 m/s along the legs): a
    PASS_BY up to the speed of sound, a PURSUIT, a replay with one fast
    segment, or a LINGER, spawning up to a minute ahead and often gone
    before the flight ends."""
    leg = draw(st.integers(0, len(ROUTE1_LEGS) - 2))
    u = draw(st.floats(0.0, 1.0))
    a, b = ROUTE1_LEGS[leg], ROUTE1_LEGS[leg + 1]
    along = sum(math.dist(p, q) for p, q in zip(ROUTE1_LEGS[:leg], ROUTE1_LEGS[1:leg + 1]))
    at = 179.3 + (along + u * math.dist(a, b)) / 78.0
    off = [draw(st.floats(-300.0, 300.0)) for _ in range(3)]
    point = (a.east + u * (b.east - a.east) + off[0], a.north + u * (b.north - a.north) + off[1], 304.8 + off[2])
    lead = draw(st.floats(0.5, 60.0))
    spawn = max(0.0, at - lead)
    duration = draw(st.none() | st.floats(1.0, 120.0))
    kind = draw(st.sampled_from(["PASS_BY", "PURSUIT", "PLAYBACK", "LINGER"]))
    if kind == "PLAYBACK":
        fast = draw(st.floats(50.0, 700.0))
        track = math.radians(draw(st.floats(0.0, 360.0)))
        step = (math.sin(track), math.cos(track))
        times = [0.0, lead, lead + 1.0, lead + 20.0]
        lengths = [-fast / 2 - 10.0 * lead, -fast / 2, fast / 2, fast / 2 + 200.0]
        samples = tuple((t, EnuPoint(point[0] + d * step[0], point[1] + d * step[1], point[2]))
                        for t, d in zip(times, lengths))
        return IntruderRecord("d", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE,
                              spawn_time=spawn, trajectory=replay(samples))
    speed = draw(st.sampled_from([343.0, 20.0]) | st.floats(1.0, 343.0))
    if kind == "PASS_BY":
        track = draw(st.floats(0.0, 360.0))
        ue, un = geo.track_unit(track)
        back = speed * (at - spawn)
        anchor = EnuPoint(point[0] - back * ue, point[1] - back * un, point[2])
        script = ScriptedBehavior(ScriptMode.PASS_BY, speed, anchor, track=track, duration=duration)
    elif kind == "PURSUIT":
        hold = draw(st.floats(0.0, 20.0))
        script = ScriptedBehavior(ScriptMode.PURSUIT, speed, EnuPoint(*point), linger_duration=hold,
                                  duration=duration)
    else:
        script = ScriptedBehavior(ScriptMode.LINGER, 1.0, EnuPoint(*point),
                                  linger_duration=duration or draw(st.floats(0.0, 200.0)))
    return IntruderRecord("d", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE, spawn_time=spawn, script=script)


class TestDelays:
    BASE = {"ROUTE1": 691.92, "ROUTE2": 743.20}

    def simple_result(self, t_sim, departure=0.0, route="ROUTE1"):
        data = [(departure + t_sim, (26000.0, 0.0, 0.0), [])]
        return synth_result(data, departure=departure, route=route)

    def test_airborne_delay_is_overrun_of_baseline(self):
        rep = metrics.delays(self.simple_result(750.0, departure=300.0), self.BASE)
        assert rep.d_ground == 300.0
        assert rep.t_sim == pytest.approx(750.0)
        assert rep.d_air == pytest.approx(750.0 - 691.92)
        assert rep.d_total == pytest.approx(300.0 + 750.0 - 691.92)
        assert rep.cpa is None

    def test_airborne_delay_floored_at_zero(self):
        rep = metrics.delays(self.simple_result(680.0), self.BASE)
        assert rep.d_air == 0.0
        assert rep.d_total == 0.0

    def test_baseline_keyed_by_departed_route(self):
        res = self.simple_result(800.0, departure=660.0, route="ROUTE2")
        rep = metrics.delays(res, self.BASE)
        assert rep.d_air == pytest.approx(800.0 - 743.20)
        assert res.ground_decision.route == "ROUTE2"

    def test_postponed_reports_infinite_ground_delay(self):
        res = RunResult(
            scenario_id="p", ticks=[],
            terminal=Terminal(TerminalKind.POSTPONED_ON_GROUND),
            ground_decision=GroundDecision.postpone(),
            departure_time=math.inf, end_time=0.0, stretches={},
        )
        rep = metrics.delays(res, self.BASE)
        assert rep.d_ground == math.inf
        assert rep.t_sim is None and rep.d_air is None and rep.d_total is None
        assert res.ground_decision.route is None

    @given(
        d_ground=st.floats(0, 1e4, allow_nan=False),
        d_air=st.floats(0, 1e4, allow_nan=False),
    )
    def test_total_is_exact_sum(self, d_ground, d_air):
        assert metrics.compose_delays(d_ground, d_air) == d_ground + d_air


class TestBatch:
    def report(self, sid="a", cpa=None, d_air=10.0):
        return metrics.MetricsReport(
            scenario_id=sid, cpa=cpa, t_sim=700.0, d_ground=0.0, d_air=d_air,
            d_total=d_air,
            terminal=Terminal(TerminalKind.LANDED_AT, "V2"),
        )

    POSTPONED = metrics.MetricsReport(
        scenario_id="p", cpa=None, t_sim=None, d_ground=math.inf, d_air=None, d_total=None,
        terminal=Terminal(TerminalKind.POSTPONED_ON_GROUND),
    )

    def test_pair_takes_the_system_off_cpa_only(self):
        on = self.report(cpa=400.0, d_air=12.0)
        off = replace(self.report(cpa=40.0, d_air=99.0), terminal=Terminal(TerminalKind.COLLIDED))
        row = metrics.pair(on, off)
        assert row == replace(on, cpa_without=40.0)
        assert on.cpa_without is None

    def test_rows_keep_their_order(self):
        rows = [metrics.pair(self.report("b", 500.0), self.report("b", 50.0)),
                metrics.pair(self.report("a", 400.0), self.report("a", 40.0))]
        table = metrics.summarize_batch(rows)
        assert [r.scenario_id for r in table.rows] == ["b", "a"]
        assert (table.rows[1].cpa, table.rows[1].cpa_without) == (400.0, 40.0)

    def test_mean_skips_postponed(self):
        rows = [self.report("a", d_air=100.0), self.report("b", d_air=50.0), self.POSTPONED]
        table = metrics.summarize_batch(rows)
        assert table.mean_d_air == pytest.approx(75.0)

    def test_all_postponed_has_no_mean(self):
        table = metrics.summarize_batch([self.POSTPONED])
        assert table.mean_d_air is None
