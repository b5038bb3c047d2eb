"""Fixed-timestep simulation loop.

Per tick, in a fixed order chosen once for determinism: intruders
advance; when the avoidance system is enabled, separations and zones are
sensed against the not-yet-moved ownship and the decision tree runs on
them (with the system off nothing reads them, so sensing is skipped);
finally the ownship moves under the resulting guidance.  The recorded
tick snapshot pairs post-move positions so trace geometry is
time-consistent.  Per-run constants (the envelope set of each flight
mode, the tick, the contact distance) are resolved once before the loop,
and the envelope set is looked up again only when the flight mode
changes (a plain Enum hashes in Python code).

The records built on every tick (TickRecord, IntruderTick, and the
OwnshipState, EnuPoint and IntruderObservation they come from) are
NamedTuples: a tuple builds in half the time of a frozen dataclass or
less, since the dataclass's __init__ sets each field through
object.__setattr__.  Reading a NamedTuple field by name costs more than
reading a slot, so the per-tick readers that take most of a record's
fields (trace_csv_lines, metrics.cpa, agents.ownship_step) unpack it by
position instead.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import TYPE_CHECKING, Mapping, NamedTuple

from . import agents, cdr, envelopes, geo
from .agents import FlightMode, NavPlan, OwnshipState
from .envelopes import Zone
from .geo import EnuPoint
from .maneuvers import ManeuverCommand

if TYPE_CHECKING:
    from .scenario_io import Scenario


@dataclass(frozen=True)
class SimParams:
    dt: float = 0.1
    max_sim_time: float = 3600.0
    cas_enabled: bool = True
    contact_distance: float = 5.0

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.max_sim_time <= 0.0:
            raise ValueError("max_sim_time must be positive")
        if self.contact_distance < 0.0:
            raise ValueError("contact_distance must be non-negative")


class TerminalKind(enum.Enum):
    LANDED_AT = "LANDED_AT"
    COLLIDED = "COLLIDED"
    TIMED_OUT = "TIMED_OUT"
    POSTPONED_ON_GROUND = "POSTPONED_ON_GROUND"


@dataclass(frozen=True)
class Terminal:
    kind: TerminalKind
    vertiport: str | None = None


class IntruderTick(NamedTuple):
    intruder_id: str
    east: float
    north: float
    up: float
    separation: float
    zone: Zone


class TickRecord(NamedTuple):
    t: float
    own_east: float
    own_north: float
    own_up: float
    own_track: float
    flight_mode: FlightMode
    phase: cdr.CdrPhase
    intruders: tuple[IntruderTick, ...]
    command: str


@dataclass(frozen=True)
class RunResult:
    scenario_id: str
    ticks: list[TickRecord]
    terminal: Terminal
    ground_decision: cdr.GroundDecision
    departure_time: float
    end_time: float
    command_log: list[tuple[float, ManeuverCommand]]


_SEPARATION = attrgetter("separation")


def governing_intruder(rec: TickRecord) -> IntruderTick | None:
    if not rec.intruders:
        return None
    return min(rec.intruders, key=_SEPARATION)


def run(scenario: "Scenario", params: SimParams | None = None) -> RunResult:
    """Execute one scenario end to end."""
    if params is None:
        params = scenario.sim
    sc = scenario
    origin = sc.vertiports["V1"].position
    vertiports_enu: Mapping[str, EnuPoint] = {
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
        return RunResult(
            scenario_id=sc.id,
            ticks=[],
            terminal=Terminal(TerminalKind.POSTPONED_ON_GROUND),
            ground_decision=decision,
            departure_time=math.inf,
            end_time=0.0,
            command_log=[],
        )

    departure = decision.delay_s
    plan = NavPlan(polylines[decision.route], sc.destination_id(decision.route))
    guidance = agents.follow_plan(plan)

    own = OwnshipState(
        t=departure,
        pos=EnuPoint(plan.waypoints[0].east, plan.waypoints[0].north, 0.0),
        track=0.0,
        ground_speed=0.0,
        vertical_speed=0.0,
        flight_mode=FlightMode.GROUND,
        next_waypoint_index=0,
    )

    # Pin departure-relative spawn clocks now that departure is known.
    records = [
        r if r.ground_clock else replace(r, spawn_time=r.spawn_time + departure)
        for r in sc.intruders
    ]
    airborne_records = [r for r in records if not r.ground_clock]

    cdr_state = cdr.CdrState()
    hist_len = max(3, int(math.ceil(sc.cdr_params.hold_duration / params.dt)) + 5)
    history: dict[str, deque] = {r.id: deque(maxlen=hist_len) for r in airborne_records}
    prev_pos: dict[str, EnuPoint | None] = {r.id: None for r in airborne_records}

    # Per-run constants: the envelope set of every flight mode, and the
    # loop-invariant parameters.  env and own_pos always belong to own;
    # the post-move values of one tick are the pre-move values of the
    # next.
    env_by_mode = {
        mode: envelopes.envelopes_for(perf, mode, sc.envelope_params) for mode in FlightMode
    }
    dt = params.dt
    max_sim_time = params.max_sim_time
    contact_distance = params.contact_distance
    cas_enabled = params.cas_enabled
    env_mode = own.flight_mode
    env = env_by_mode[env_mode]
    own_pos = own.pos

    ticks: list[TickRecord] = []
    command_log: list[tuple[float, ManeuverCommand]] = []
    active_label = ""
    terminal: Terminal | None = None
    t = departure

    while terminal is None:
        t_next = t + dt
        if t_next > max_sim_time:
            terminal = Terminal(TerminalKind.TIMED_OUT)
            break

        # 1. Intruders advance.
        present: list[tuple[agents.IntruderRecord, EnuPoint, agents.Vec3]] = []
        for rec in airborne_records:
            st = agents.intruder_state_at(rec, t_next, own_pos, prev_pos[rec.id], dt)
            if st is None:
                prev_pos[rec.id] = None
            else:
                prev_pos[rec.id] = st[0]
                present.append((rec, st[0], st[1]))

        # 2-3. Sensing against the pre-move ownship, then the decision.
        # Only the decision tree reads observations and history, so both
        # are skipped with the system off.
        if cas_enabled:
            observations = []
            sensed: dict[str, tuple[float, Zone]] = {}
            for rec, pos, vel in present:
                sep = geo.distance_3d(own_pos, pos)
                zone = envelopes.classify(sep, env)
                sensed[rec.id] = (sep, zone)
                observations.append(
                    cdr.IntruderObservation(rec.id, rec.kind, pos, vel, sep, zone)
                )
            for rec in airborne_records:
                sep_zone = sensed.get(rec.id)
                history[rec.id].append(
                    (t_next, sep_zone[0], sep_zone[1]) if sep_zone else (t_next, None, None)
                )

            cdr_state, command = cdr.cdr_step(
                cdr_state, t_next, own, observations, history,
                vertiports_enu, perf, sc.cdr_params,
            )
            if command is not None:
                command_log.append((t_next, command))
                active_label = command.label()
                guidance, own = agents.resolve_command(
                    own, perf, guidance, command, vertiports_enu
                )

        # 4. Ownship advances.
        own = agents.ownship_step(own, perf, guidance, dt)
        own_pos = own.pos
        mode = own.flight_mode
        if mode is not env_mode:
            env_mode = mode
            env = env_by_mode[mode]

        # 5. Record the post-move snapshot.
        intruder_ticks = []
        contact = False
        for rec, pos, vel in present:
            sep = geo.distance_3d(own_pos, pos)
            intruder_ticks.append(
                IntruderTick(rec.id, pos.east, pos.north, pos.up, sep, envelopes.classify(sep, env))
            )
            if sep <= contact_distance:
                contact = True
        ticks.append(
            TickRecord(
                t_next, own_pos.east, own_pos.north, own_pos.up, own.track,
                mode, cdr_state.phase, tuple(intruder_ticks), active_label,
            )
        )

        if contact:
            terminal = Terminal(TerminalKind.COLLIDED)
        elif mode is FlightMode.GROUND:
            terminal = Terminal(TerminalKind.LANDED_AT, guidance.plan.destination_id)
        t = t_next

    return RunResult(
        scenario_id=sc.id,
        ticks=ticks,
        terminal=terminal,
        ground_decision=decision,
        departure_time=departure,
        end_time=t,
        command_log=command_log,
    )


TRACE_HEADER = "t_s,own_east_m,own_north_m,own_up_m,own_track_deg,phase,intruder_id,sep_m,zone,command"


_ZONE_TEXT = {zone: zone.name for zone in Zone}


def trace_csv_lines(result: RunResult) -> list[str]:
    """Render a run as the plot-ready trace table, one row per tick with
    the governing (nearest) intruder's columns."""
    lines = [TRACE_HEADER]
    last_phase = phase_text = None
    for t, east, north, up, track, _, phase, intruders, command in result.ticks:
        if phase is not last_phase:
            last_phase, phase_text = phase, phase.value
        if intruders:
            iid, _, _, _, sep, zone = min(intruders, key=_SEPARATION)
            intr = f"{iid},{sep:.3f},{_ZONE_TEXT[zone]}"
        else:
            intr = ",,"
        lines.append(
            f"{t:.3f},{east:.3f},{north:.3f},{up:.3f},"
            f"{track:.3f},{phase_text},{intr},{command}"
        )
    return lines
