"""Outcome accounting: baseline times, the CPA estimator against brute
force, and the delay decomposition."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from uamcas import cli, metrics
from uamcas.agents import DEFAULT_PERFORMANCE, FlightMode, OwnshipConfig
from uamcas.cdr import CdrPhase, GroundDecision
from uamcas.engine import IntruderTick, RunResult, Terminal, TerminalKind, TickRecord
from uamcas.envelopes import Zone
from uamcas.geo import cpa_linear, distance_3d
from uamcas.pack import default_pack

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


def synth_result(tick_data, terminal=None, departure=0.0, route="ROUTE1"):
    """tick_data: [(t, (ox,oy,oz), [(iid, (x,y,z)), ...])]; each
    separation is geo.distance_3d of the two positions, as the engine
    records it."""
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


def reference_cpa(result, intruder_id):
    """One intruder's minimum by a rescan of every tick: the per-intruder
    loop the one-sweep metrics.cpa replaced, kept as its reference."""
    best = math.inf
    prev = None
    for rec in result.ticks:
        it = None
        for cand in rec.intruders:
            if cand.intruder_id == intruder_id:
                it = cand
                break
        if it is None:
            prev = None
            continue
        own_p = (rec.own_east, rec.own_north, rec.own_up)
        intr_p = (it.east, it.north, it.up)
        rel = (intr_p[0] - own_p[0], intr_p[1] - own_p[1], intr_p[2] - own_p[2])
        best = min(best, math.sqrt(rel[0] ** 2 + rel[1] ** 2 + rel[2] ** 2))
        if prev is not None:
            t0, rel0 = prev
            span = rec.t - t0
            rel_vel = ((rel[0] - rel0[0]) / span, (rel[1] - rel0[1]) / span, (rel[2] - rel0[2]) / span)
            _, d = cpa_linear(rel0, rel_vel, span)
            best = min(best, d)
        prev = (rec.t, rel)
    return best


def assert_matches_reference(result):
    minima = metrics.cpa(result)
    ids = metrics.intruder_ids(result)
    assert list(minima) == ids
    for iid in ids:
        assert minima[iid] == reference_cpa(result, iid), (result.scenario_id, iid)


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
            departure_time=math.inf, end_time=0.0,
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
