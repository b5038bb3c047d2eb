"""Fixed-timestep simulation loop.

Per tick, in a fixed order chosen once for determinism: intruders
advance and, when the avoidance system is enabled, are sensed in the
same pass against the not-yet-moved ownship (separation, zone, history
entry and observation; with the system off nothing reads them, so
sensing is skipped); the decision tree runs on the observations;
finally the ownship moves under the resulting guidance.  The recorded
tick snapshot pairs post-move positions so trace geometry is
time-consistent.  Per-run constants (the envelope set of each flight
mode, the tick, the contact distance) are resolved once before the loop,
and the envelope set is looked up again only when the flight mode
changes (a plain Enum hashes in Python code).

The ownship is carried as local floats (position, track, speeds) plus
its flight mode and waypoint index, and agents.ownship_step takes and
returns those values.  The decision reads only the ownship's position
and track, so an OwnshipState is built only on a tick that issues a
command, for agents.resolve_command.  The records built on every tick
are TickRecord, one IntruderTick per present intruder, and, with the
system on, one IntruderObservation per present intruder; the intruder
positions are EnuPoints from agents.intruder_state_at.  All are
NamedTuples, which build in half the time of a frozen dataclass or
less.  The three tick records carry no rules, so the loop builds them
with tuple.__new__ and skips the generated __new__'s keyword handling;
EnuPoint and OwnshipState check their fields in __new__ and are always
built through their constructors.  Reading a NamedTuple field by name
costs more than reading a slot, so the per-tick readers that take most
of a record's fields (trace_csv_lines, metrics.cpa, the geo distance
helpers) unpack it by position instead.
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
from .cdr import IntruderObservation
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
        for name in ("dt", "max_sim_time", "contact_distance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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

    # Per-run constants: the envelope set of every flight mode, the
    # loop-invariant parameters, and the layers called every tick (bound
    # here, so a patched module attribute is still the one called).
    env_by_mode = {
        mode: envelopes.envelopes_for(perf, mode, sc.envelope_params) for mode in FlightMode
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
    cdr_step = cdr.cdr_step

    # The ownship, as plain values; env and own_pos always belong to
    # them, and the post-move values of one tick are the pre-move values
    # of the next.
    east, north, _ = plan.waypoints[0]
    up = track = ground_speed = vertical_speed = 0.0
    mode = FlightMode.GROUND
    idx = 0
    own_pos = (east, north, up)
    env = env_by_mode[mode]

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

        # 1-2. Intruders advance and, with the system on, are sensed
        # against the pre-move ownship.  Only the decision tree reads
        # observations and history, so both are skipped with it off.
        present: list[tuple[str, EnuPoint]] = []
        observations: list[IntruderObservation] = []
        for rec in airborne_records:
            rid = rec.id
            st = intruder_state_at(rec, t_next, own_pos, prev_pos[rid], dt)
            if st is None:
                prev_pos[rid] = None
                if cas_enabled:
                    history[rid].append((t_next, None, None))
                continue
            pos, vel = st
            prev_pos[rid] = pos
            present.append((rid, pos))
            if cas_enabled:
                sep = distance_3d(own_pos, pos)
                zone = classify(sep, env)
                history[rid].append((t_next, sep, zone))
                observations.append(
                    tuple.__new__(IntruderObservation, (rid, rec.kind, pos, vel, sep, zone))
                )

        # 3. The decision, on the pre-move position and track.
        if cas_enabled:
            cdr_state, command = cdr_step(
                cdr_state, t_next, own_pos, track, observations, history,
                vertiports_enu, perf, cdr_params,
            )
            if command is not None:
                command_log.append((t_next, command))
                active_label = command.label()
                own = OwnshipState(
                    t, EnuPoint(east, north, up), track, ground_speed, vertical_speed, mode, idx
                )
                guidance, own = agents.resolve_command(
                    own, perf, guidance, command, vertiports_enu
                )
                idx = own.next_waypoint_index

        # 4. Ownship advances.
        east, north, up, track, ground_speed, vertical_speed, new_mode, idx = ownship_step(
            east, north, up, track, ground_speed, mode, idx, perf, guidance, dt
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
                tuple.__new__(IntruderTick, (rid, p_e, p_n, p_u, sep, classify(sep, env)))
            )
            if sep <= contact_distance:
                contact = True
        ticks.append(
            tuple.__new__(
                TickRecord,
                (t_next, east, north, up, track, mode, cdr_state.phase,
                 tuple(intruder_ticks), active_label),
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
