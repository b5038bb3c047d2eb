"""End-to-end acceptance checklist for the avoidance simulator.

Each test here is one numbered criterion of the delivery checklist,
exercised through the public surface (default pack, engine, metrics,
CLI).  The conftest summary hook prints a PASS/FAIL line per criterion
after the run.  Tolerances are stated inline next to each assertion.
"""

import filecmp
import itertools
import math
import time

import numpy as np
import pytest

from uamcas import cdr, cli, engine, metrics
from uamcas.agents import (
    DEFAULT_PERFORMANCE,
    FlightMode,
    IntruderKind,
    OwnshipConfig,
    OwnshipState,
)
from uamcas.cdr import ApproachDirection, RelativePosition
from uamcas.envelopes import Zone
from uamcas.geo import EnuPoint, polyline_length
from uamcas.maneuvers import Action, IssuedBy, TurnDirection
from uamcas.pack import default_pack

PACK = default_pack()
ENCOUNTER_IDS = [f"sc-{i:02d}" for i in range(1, 15)]
GROUND_IDS = ["ground-0", "ground-300", "ground-360", "ground-660", "ground-postponed"]

COLLISION_RADIUS_M = 150.0
DESCEND_ALT_M = 243.84  # 800 ft


Scored = tuple[engine.RunResult, metrics.MetricsReport]


def run_scenario(sid: str, dt: float, cas_enabled: bool = True) -> Scored:
    """One pack scenario, run and scored through the shipped path."""
    return cli.simulate(PACK[sid], dt, cas_enabled)


def theory_for(sid: str, rid: str) -> float:
    sc = PACK[sid]
    return metrics.theoretical_flight_time(sc.routes[rid], sc.perf)


def min_cpa(result: engine.RunResult) -> float:
    minima = metrics.cpa(result)
    assert minima, f"{result.scenario_id}: no airborne intruder in trace"
    return min(minima.values())


@pytest.fixture(scope="module")
def paired_runs() -> dict[str, tuple[Scored, Scored]]:
    """Every airborne-encounter scenario, once with avoidance active and
    once with it disabled, both at dt=0.1, each as (run, report)."""
    return {
        sid: (run_scenario(sid, 0.1, True), run_scenario(sid, 0.1, False))
        for sid in ENCOUNTER_IDS
    }


@pytest.fixture(scope="module")
def ground_runs() -> dict[str, Scored]:
    # Takeoff-phase outcomes are dt-independent; dt=0.5 keeps these quick.
    return {sid: run_scenario(sid, 0.5) for sid in GROUND_IDS}


def test_criterion_01_theoretical_flight_times():
    """Closed-form still-air times for both corridors, plus their cruise
    and climb components, to the published figures."""
    expected = {"ROUTE1": 692.0, "ROUTE2": 744.0}
    cruise_component = {"ROUTE1": 333.33, "ROUTE2": 384.61}
    sc = PACK["ref-route1"]
    perf = sc.perf
    t0 = time.perf_counter()
    for rid, route in sc.routes.items():
        total = metrics.theoretical_flight_time(route, perf)
        assert total == pytest.approx(expected[rid], abs=1.0)
        cruise = polyline_length(route) / perf.cruise_speed
        assert cruise == pytest.approx(cruise_component[rid], abs=0.01)
        climb = perf.cruise_alt / perf.climb_rate
        assert climb == pytest.approx(179.29, abs=0.01)
        assert total == pytest.approx(cruise + 2.0 * climb, abs=1e-9)
    # Closed form, no simulation: both corridors price out instantly.
    assert time.perf_counter() - t0 < 0.1


def test_criterion_02_reference_flights_track_theory():
    """Undisturbed reference flights land at V2 with simulated time within
    2% of theory at dt=0.1 and within 2.5% at dt=0.5."""
    for sid, rid in [("ref-route1", "ROUTE1"), ("ref-route2", "ROUTE2")]:
        theory = theory_for(sid, rid)
        for dt, tol in [(0.1, 0.02), (0.5, 0.025)]:
            res, _ = run_scenario(sid, dt)
            assert res.terminal.kind is engine.TerminalKind.LANDED_AT
            assert res.terminal.vertiport == "V2"
            t_sim = res.end_time - res.departure_time
            assert abs(t_sim - theory) / theory <= tol, (sid, dt, t_sim, theory)


def test_criterion_03_ground_phase_decisions(ground_runs):
    """The five takeoff setups resolve to exactly the expected ladder of
    departures plus one postponement."""
    expected = {
        "ground-0": ("ROUTE1", 0.0),
        "ground-300": ("ROUTE1", 300.0),
        "ground-360": ("ROUTE2", 360.0),
        "ground-660": ("ROUTE2", 660.0),
    }
    for sid, (route, delay) in expected.items():
        res, _ = ground_runs[sid]
        assert not res.ground_decision.postponed, sid
        assert res.ground_decision.route == route, sid
        assert res.ground_decision.delay_s == delay, sid
        assert res.departure_time == delay
        assert res.terminal.kind is engine.TerminalKind.LANDED_AT
    postponed, _ = ground_runs["ground-postponed"]
    assert postponed.ground_decision.postponed
    assert postponed.terminal.kind is engine.TerminalKind.POSTPONED_ON_GROUND
    assert postponed.ticks == []


def test_criterion_04_right_of_way_tables():
    """Both decision tables are total over their whole input product and
    match the contract cell by cell."""
    # Totality: every combination yields a command with the right issuer.
    own = OwnshipState(
        t=0.0,
        pos=EnuPoint(1000.0, 0.0, 304.8),
        track=90.0,
        ground_speed=78.0,
        vertical_speed=0.0,
        flight_mode=FlightMode.CRUISE,
        next_waypoint_index=0,
    )
    vports = {"V1": EnuPoint(0.0, 0.0), "V2": EnuPoint(2000.0, 0.0), "V3": EnuPoint(500.0, 0.0)}
    for config, kind, direction, rel in itertools.product(
        OwnshipConfig, IntruderKind, ApproachDirection, RelativePosition
    ):
        cmd = cdr.tactical_maneuver(DEFAULT_PERFORMANCE[config], kind, direction, rel)
        assert cmd.issued_by is IssuedBy.AUTOMATED, (config, kind, direction, rel)
    for direction, kind in itertools.product(ApproachDirection, IntruderKind):
        cmd = cdr.emergency_maneuver(direction, kind, own.pos, vports)
        assert cmd.issued_by is IssuedBy.PILOT, (direction, kind)

    # Tactical cells, with the intruder approaching (ahead).
    drone, bird = IntruderKind.DRONE, IntruderKind.BIRD
    ahead = RelativePosition.AHEAD
    vt = DEFAULT_PERFORMANCE[OwnshipConfig.VECTORED_THRUST]
    cell = cdr.tactical_maneuver(vt, drone, ApproachDirection.RIGHT, ahead)
    assert cell.action is Action.HOVER
    cell = cdr.tactical_maneuver(vt, drone, ApproachDirection.LEFT, ahead)
    assert cell.action is Action.CONTINUE_FLIGHT
    for config in (OwnshipConfig.MULTICOPTER, OwnshipConfig.LIFT_CRUISE):
        perf = DEFAULT_PERFORMANCE[config]
        cell = cdr.tactical_maneuver(perf, drone, ApproachDirection.HEAD_ON, ahead)
        assert cell.action is Action.HOVER_AND_DESCEND_TO
        assert cell.target_alt == DESCEND_ALT_M
    for config in (OwnshipConfig.TILT_ROTOR, OwnshipConfig.VECTORED_THRUST):
        perf = DEFAULT_PERFORMANCE[config]
        cell = cdr.tactical_maneuver(perf, drone, ApproachDirection.HEAD_ON, ahead)
        assert cell.action is Action.TURN_BY
        assert (cell.turn_deg, cell.direction) == (45.0, TurnDirection.RIGHT)
    cell = cdr.tactical_maneuver(vt, drone, ApproachDirection.SAME_DIRECTION, ahead)
    assert cell.action is Action.CHANGE_PATH
    cell = cdr.tactical_maneuver(vt, bird, ApproachDirection.RIGHT, ahead)
    assert cell.action is Action.HOVER_AND_DESCEND_TO
    assert cell.target_alt == DESCEND_ALT_M

    # Emergency cells.  Nearest vertiport to the ownship above is V3.
    cell = cdr.emergency_maneuver(ApproachDirection.RIGHT, drone, own.pos, vports)
    assert cell.action is Action.TURN_BY
    assert (cell.turn_deg, cell.direction) == (45.0, TurnDirection.LEFT)
    cell = cdr.emergency_maneuver(ApproachDirection.LEFT, drone, own.pos, vports)
    assert (cell.action, cell.target_vertiport) == (Action.REROUTE_TO, "V3")
    assert cell.direction is TurnDirection.RIGHT
    cell = cdr.emergency_maneuver(ApproachDirection.HEAD_ON, drone, own.pos, vports)
    assert (cell.action, cell.target_vertiport) == (Action.REROUTE_TO, "V3")
    assert cell.direction is None
    cell = cdr.emergency_maneuver(ApproachDirection.SAME_DIRECTION, drone, own.pos, vports)
    assert cell.action is Action.LATERAL_OFFSET
    cell = cdr.emergency_maneuver(ApproachDirection.RIGHT, bird, own.pos, vports)
    assert (cell.action, cell.target_vertiport) == (Action.REROUTE_TO, "V3")
    assert cell.direction is TurnDirection.RIGHT
    assert cdr.diversion_target(own.pos, vports) == "V3"


def test_criterion_05_encounters_resolved(paired_runs):
    """With avoidance active, encounter scenarios 1-13 stay clear of the
    collision envelope and land; scenario 14 is the designed collision."""
    for sid in ENCOUNTER_IDS[:13]:
        res, _ = paired_runs[sid][0]
        assert res.terminal.kind is engine.TerminalKind.LANDED_AT, sid
        sep = min_cpa(res)
        assert sep > COLLISION_RADIUS_M, (sid, sep)
    collided, _ = paired_runs["sc-14"][0]
    assert collided.terminal.kind is engine.TerminalKind.COLLIDED


def test_criterion_06_cpa_never_worse(paired_runs):
    """Closest point of approach with avoidance active is never smaller
    than without it, scenario by scenario on paired runs."""
    # The paired runs can depart at different epochs (the disabled run
    # skips the takeoff hold), so identical geometry lands on slightly
    # different tick timestamps.  One micrometer absorbs that float
    # noise; genuine degradation would show up in meters.
    for sid in ENCOUNTER_IDS:
        (res_on, _), (res_off, _) = paired_runs[sid]
        assert min_cpa(res_on) >= min_cpa(res_off) - 1e-6, sid


def test_criterion_07_delay_identity_and_published_table(paired_runs, ground_runs):
    """Total delay is exactly ground plus airborne for every assembled
    report, and the published 14-row delay table reproduces."""
    for sid in ENCOUNTER_IDS:
        _, rep = paired_runs[sid][0]
        assert rep.d_total == rep.d_ground + rep.d_air, sid
    for sid in GROUND_IDS:
        _, rep = ground_runs[sid]
        if rep.terminal.kind is engine.TerminalKind.POSTPONED_ON_GROUND:
            assert rep.d_total is None and rep.d_ground == math.inf
        else:
            assert rep.d_total == rep.d_ground + rep.d_air, sid

    # Published (ground, airborne) delay pairs and their totals.
    pairs = [
        (300, 531), (300, 513), (300, 1), (300, 3), (300, 29),
        (300, 62), (300, 64), (300, 60), (300, 32), (300, 38),
        (300, 3), (660, 42), (660, 11), (300, 105),
    ]
    totals = [831, 813, 301, 303, 329, 362, 364, 360, 332, 338, 303, 702, 671, 405]
    assert [metrics.compose_delays(g, a) for g, a in pairs] == totals
    # The airborne column sums to 1494 s; its arithmetic mean is 1494/14,
    # about 107 s.
    mean_air = sum(a for _, a in pairs) / len(pairs)
    assert mean_air == 1494 / 14
    assert abs(mean_air - 107.0) <= 0.5


def test_criterion_08_linger_delay_band(paired_runs):
    """A 500 s blocking linger on the corridor costs between L and L+60 s
    of airborne delay."""
    _, rep = paired_runs["sc-01"][0]
    assert 500.0 <= rep.d_air <= 560.0, rep.d_air


def test_criterion_09_cpa_analytic_vs_brute():
    """Per-segment analytic closest approach agrees with brute-force
    fine sampling at dt/100 to within 0.1 m over 100 randomized
    constant-velocity encounters, and the check runs in under 10 s."""
    rng = np.random.default_rng(20260819)
    dt = 0.1
    n_ticks = 400
    t0 = time.perf_counter()
    for trial in range(100):
        own_p = rng.uniform(-1500.0, 1500.0, 3)
        intr_p = rng.uniform(-1500.0, 1500.0, 3)
        own_v = rng.uniform(-40.0, 40.0, 3)
        intr_v = rng.uniform(-40.0, 40.0, 3)
        rel_p = intr_p - own_p
        rel_v = intr_v - own_v

        ticks = []
        for i in range(n_ticks):
            t = i * dt
            op = own_p + own_v * t
            ip = intr_p + intr_v * t
            sep = float(np.linalg.norm(ip - op))
            ticks.append(engine.TickRecord(
                t=t,
                own_east=op[0], own_north=op[1], own_up=op[2],
                own_track=0.0,
                flight_mode=FlightMode.CRUISE,
                phase=cdr.CdrPhase.MONITORING,
                intruders=(engine.IntruderTick("i1", ip[0], ip[1], ip[2], sep, Zone.CLEAR),),
                command="",
            ))
        result = engine.RunResult(
            scenario_id=f"synthetic-{trial}",
            ticks=ticks,
            terminal=engine.Terminal(engine.TerminalKind.LANDED_AT, "V2"),
            ground_decision=cdr.GroundDecision.depart("ROUTE1", 0.0),
            departure_time=0.0,
            end_time=(n_ticks - 1) * dt,
            command_log=[],
        )
        analytic = metrics.cpa(result)["i1"]

        fine = dt / 100.0
        ts = np.arange(0.0, (n_ticks - 1) * dt + fine / 2.0, fine)
        d = np.linalg.norm(rel_p[None, :] + ts[:, None] * rel_v[None, :], axis=1)
        brute = float(d.min())

        # Sampling can only overshoot the true minimum, never undershoot.
        assert analytic <= brute + 1e-9, (trial, analytic, brute)
        assert brute - analytic <= 0.1, (trial, analytic, brute)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_10_batch_determinism_and_runtime(tmp_path):
    """Two invocations of the default-pack batch produce byte-identical
    reports and traces, and one full pass finishes in under a minute."""
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    t0 = time.perf_counter()
    assert cli.main(["batch", "--pack", "default", "--out", str(out_a)]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed
    assert cli.main(["batch", "--pack", "default", "--out", str(out_b)]) == 0

    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a, "report sets differ"
    for rel in files_a:
        assert filecmp.cmp(out_a / rel, out_b / rel, shallow=False), rel
