"""Conflict detection and resolution: the ground-phase departure check,
the airborne detect/avoid phase machine, right-of-way maneuver tables,
emergency handling, de-escalation, and diversion choice.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence

from .agents import (
    IntruderKind,
    IntruderRecord,
    HeadOnStrategy,
    PerformanceModel,
    Vec3,
    intruder_state_at,
)
from .envelopes import Zone
from .geo import (
    EnuPoint,
    bearing,
    distance_point_to_polyline,
    distance_segment_to_polyline,
    horizontal_distance,
    signed_track_diff,
)
from .maneuvers import (
    IssuedBy,
    ManeuverCommand,
    TurnDirection,
    change_path,
    continue_flight,
    hover,
    hover_and_descend_to,
    lateral_offset,
    reroute_to,
    turn_by,
)

DESCEND_TARGET_ALT_M = 243.84  # 800 ft


@dataclass(frozen=True)
class GroundCheckParams:
    overhead_radius: float = 500.0
    corridor_half_width: float = 300.0
    lookahead: float = 600.0
    wait_step: float = 300.0
    reroute_buffer: float = 60.0
    max_waits: int = 2

    def __post_init__(self) -> None:
        for name in ("overhead_radius", "corridor_half_width", "lookahead", "wait_step", "reroute_buffer"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_waits < 1:
            raise ValueError("max_waits must be at least 1")


@dataclass(frozen=True)
class GroundDecision:
    postponed: bool
    route: str | None = None
    delay_s: float | None = None

    @staticmethod
    def depart(route: str, delay_s: float) -> "GroundDecision":
        return GroundDecision(False, route, delay_s)

    @staticmethod
    def postpone() -> "GroundDecision":
        return GroundDecision(True)


class ApproachDirection(enum.Enum):
    RIGHT = "RIGHT"
    LEFT = "LEFT"
    HEAD_ON = "HEAD_ON"
    SAME_DIRECTION = "SAME_DIRECTION"


class RelativePosition(enum.Enum):
    AHEAD = "AHEAD"
    BEHIND = "BEHIND"


class CdrPhase(enum.Enum):
    MONITORING = "MONITORING"
    DETECT = "DETECT"
    AVOID = "AVOID"
    EMERGENCY = "EMERGENCY"
    DE_ESCALATED = "DE_ESCALATED"
    COLLIDED = "COLLIDED"


@dataclass(frozen=True)
class CdrParams:
    detect_duration: float = 3.0
    hold_duration: float = 5.0
    tactical_trigger_zone: Zone = Zone.CAUTION
    head_on_half_angle: float = 45.0
    same_dir_half_angle: float = 45.0
    turn_deg: float = 45.0
    # Sized so the parallel path keeps the intruder outside the default
    # forward warning ring.
    lateral_offset_m: float = 1200.0
    descend_alt_m: float = DESCEND_TARGET_ALT_M

    def __post_init__(self) -> None:
        for name in ("detect_duration", "hold_duration"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("head_on_half_angle", "same_dir_half_angle"):
            if not 0.0 <= getattr(self, name) <= 180.0:
                raise ValueError(f"{name} must lie in [0, 180]")
        if self.turn_deg <= 0.0:
            raise ValueError("turn_deg must be positive")
        # Signed: positive offsets go to starboard.
        if self.lateral_offset_m == 0.0:
            raise ValueError("lateral_offset_m must be nonzero")


def heading_threat(
    pos: EnuPoint,
    velocity: Vec3,
    v1: EnuPoint,
    route_polylines: Mapping[str, Sequence[EnuPoint]],
    params: GroundCheckParams,
) -> frozenset[str]:
    """The routes one intruder blocks in the pre-departure picture.

    Inside the overhead ring it blocks every route regardless of
    heading.  Otherwise the intruder's straight-line projection over the
    lookahead window is tested against each route corridor.
    """
    if horizontal_distance(pos, v1) <= params.overhead_radius:
        return frozenset(route_polylines)
    vx, vy, _ = velocity
    end = EnuPoint(pos.east + vx * params.lookahead, pos.north + vy * params.lookahead, pos.up)
    blocked = []
    for route_id, pts in route_polylines.items():
        if vx == 0.0 and vy == 0.0:
            d = distance_point_to_polyline(pos, pts)
        else:
            d = distance_segment_to_polyline(pos, end, pts)
        if d <= params.corridor_half_width:
            blocked.append(route_id)
    return frozenset(blocked)


def takeoff_delay_check(
    intruders: Sequence[IntruderRecord],
    v1: EnuPoint,
    route_polylines: Mapping[str, Sequence[EnuPoint]],
    params: GroundCheckParams,
    planned: str,
) -> GroundDecision:
    """Strategic departure ladder.

    Scan at t = 0: depart the planned route immediately if it is clean.
    Re-scan every wait_step: prefer the planned route, fall back to the
    first other route in route_polylines order (which costs the reroute
    buffer on top of the wait).  The final re-scan considers the
    fallback only; if that is still blocked, or there is no other
    route, the departure is postponed.
    """
    fallback = next((rid for rid in route_polylines if rid != planned), None)

    def blocked_at(tau: float) -> frozenset[str]:
        blocked: frozenset[str] = frozenset()
        for rec in intruders:
            st = intruder_state_at(rec, tau)
            if st is not None:
                blocked |= heading_threat(st[0], st[1], v1, route_polylines, params)
        return blocked

    for k in range(params.max_waits + 1):
        tau = k * params.wait_step
        blocked = blocked_at(tau)
        last = k == params.max_waits
        if not last and planned not in blocked:
            return GroundDecision.depart(planned, tau)
        if k >= 1 and fallback is not None and fallback not in blocked:
            return GroundDecision.depart(fallback, tau + params.reroute_buffer)
    return GroundDecision.postpone()


def approach_direction(
    own_pos: EnuPoint,
    own_track: float,
    intr_pos: EnuPoint,
    intr_velocity: Vec3,
    params: CdrParams = CdrParams(),
) -> ApproachDirection:
    """Encounter geometry class from track difference and bearing.

    A stationary intruder carries no track, so it is classed purely by
    which half-plane it occupies; head-on is excluded for it.
    """
    rel_bearing = signed_track_diff(own_track, bearing(own_pos, intr_pos))
    vx, vy, _ = intr_velocity
    if vx == 0.0 and vy == 0.0:
        return ApproachDirection.RIGHT if rel_bearing >= 0.0 else ApproachDirection.LEFT
    intr_track = math.degrees(math.atan2(vx, vy)) % 360.0
    delta = abs(signed_track_diff(own_track, intr_track))
    if delta >= 180.0 - params.head_on_half_angle:
        return ApproachDirection.HEAD_ON
    if delta <= params.same_dir_half_angle:
        return ApproachDirection.SAME_DIRECTION
    return ApproachDirection.RIGHT if rel_bearing >= 0.0 else ApproachDirection.LEFT


def relative_position(
    own_pos: EnuPoint, own_track: float, intr_pos: EnuPoint
) -> RelativePosition:
    rel_bearing = signed_track_diff(own_track, bearing(own_pos, intr_pos))
    return RelativePosition.AHEAD if abs(rel_bearing) <= 90.0 else RelativePosition.BEHIND


def _receding(direction: ApproachDirection, rel: RelativePosition) -> bool:
    # A reciprocal-track intruder behind the ownship, or a same-track one
    # already passed, is opening the range; acting on it would only churn.
    return rel is RelativePosition.BEHIND and direction in (
        ApproachDirection.HEAD_ON,
        ApproachDirection.SAME_DIRECTION,
    )


def tactical_maneuver(
    perf: PerformanceModel,
    kind: IntruderKind,
    direction: ApproachDirection,
    rel: RelativePosition,
    issued_at: float = 0.0,
    params: CdrParams = CdrParams(),
) -> ManeuverCommand:
    """Automated right-of-way action on entering the tactical phase.

    Total over every (head-on strategy, kind, direction, relative
    position) cell.
    """
    by = IssuedBy.AUTOMATED
    if _receding(direction, rel):
        return continue_flight(by, issued_at)
    if kind is IntruderKind.BIRD:
        return hover_and_descend_to(params.descend_alt_m, by, issued_at)
    if direction is ApproachDirection.RIGHT:
        return hover(by, issued_at)
    if direction is ApproachDirection.LEFT:
        return continue_flight(by, issued_at)
    if direction is ApproachDirection.HEAD_ON:
        if perf.head_on_strategy is HeadOnStrategy.DESCEND:
            return hover_and_descend_to(params.descend_alt_m, by, issued_at)
        return turn_by(params.turn_deg, TurnDirection.RIGHT, by, issued_at)
    # Same direction, ahead: yield the corridor.
    return change_path(params.lateral_offset_m, by, issued_at)


def diversion_target(pos: EnuPoint, vertiports: Mapping[str, EnuPoint]) -> str:
    """Nearest vertiport; ties prefer finishing the mission (V2) over the
    alternate (V3) over returning to start (V1)."""
    priority = {"V2": 0, "V3": 1, "V1": 2}
    best = min(
        vertiports.items(),
        key=lambda kv: (horizontal_distance(pos, kv[1]), priority.get(kv[0], 99), kv[0]),
    )
    return best[0]


def emergency_maneuver(
    direction: ApproachDirection,
    kind: IntruderKind,
    own_pos: EnuPoint,
    vertiports: Mapping[str, EnuPoint],
    issued_at: float = 0.0,
    params: CdrParams = CdrParams(),
) -> ManeuverCommand:
    """Pilot-level action on warning-envelope penetration; own_pos picks
    the diversion field."""
    by = IssuedBy.PILOT
    divert = diversion_target(own_pos, vertiports)
    if kind is IntruderKind.BIRD:
        return reroute_to(divert, by, issued_at, direction=TurnDirection.RIGHT)
    if direction is ApproachDirection.RIGHT:
        return turn_by(params.turn_deg, TurnDirection.LEFT, by, issued_at)
    if direction is ApproachDirection.LEFT:
        return reroute_to(divert, by, issued_at, direction=TurnDirection.RIGHT)
    if direction is ApproachDirection.HEAD_ON:
        # Keep whatever turn the tactical phase started and head for the
        # diversion field.
        return reroute_to(divert, by, issued_at, direction=None)
    return lateral_offset(params.lateral_offset_m, by, issued_at)


def de_escalated(
    history: Sequence[tuple[float, float | None, Zone | None]],
    now: float,
    hold_duration: float,
) -> bool:
    """Conflict resolved: gone for the whole hold window, or outside the
    warning ring with strictly opening range throughout it.

    history holds (time, separation, zone) entries in time order, with
    separation and zone None while the intruder is absent.  The window
    is the entries at or after now - hold_duration; the history must
    reach back to that instant.  One pass from the newest entry, which
    stops at the first entry that settles the answer.
    """
    if not history:
        return False
    cutoff = now - hold_duration
    if history[0][0] > cutoff:
        return False  # not enough history yet
    entries = reversed(history)
    t, later, last_zone = next(entries)
    if t < cutoff:
        return False  # nothing inside the window
    if later is None:
        # Absent now: resolved only if absent throughout the window.
        for t, sep, _ in entries:
            if t < cutoff:
                return True
            if sep is not None:
                return False
        return True
    if last_zone is None or last_zone >= Zone.WARNING:
        return False
    # Present now: every older entry in the window must be present and
    # strictly closer than the one after it.
    for t, sep, _ in entries:
        if t < cutoff:
            return True
        if sep is None or not sep < later:
            return False
        later = sep
    return True


class IntruderObservation(NamedTuple):
    intruder_id: str
    kind: IntruderKind
    pos: EnuPoint
    velocity: Vec3
    separation: float
    zone: Zone


# cdr_step's key for the governing (nearest) observation.
_SEPARATION = attrgetter("separation")


@dataclass(frozen=True)
class CdrState:
    phase: CdrPhase = CdrPhase.MONITORING
    detect_started_at: float | None = None
    encounter_id: str | None = None
    passed_emergency: bool = False
    prev_zone: Zone = Zone.CLEAR


def cdr_step(
    state: CdrState,
    t: float,
    own_pos: EnuPoint,
    own_track: float,
    observations: Sequence[IntruderObservation],
    history: Mapping[str, Sequence[tuple[float, float | None, Zone | None]]],
    vertiports: Mapping[str, EnuPoint],
    perf: PerformanceModel,
    params: CdrParams,
) -> tuple[CdrState, ManeuverCommand | None]:
    """One decision-tree tick.

    own_pos (an EnuPoint or a plain (east, north, up) tuple) and
    own_track are the ownship's position and track before this tick's
    move; they are all of the ownship the decision reads, and only on
    the ticks that classify an encounter or pick a diversion field.
    observations hold the currently present intruders with their sensed
    separation and zone; the smallest separation governs.  history is
    the per-intruder separation record used by the de-escalation test.
    Returns the advanced state and at most one freshly issued command.
    """
    if state.phase is CdrPhase.COLLIDED:
        return state, None

    governing = min(observations, key=_SEPARATION) if observations else None
    zone = governing.zone if governing is not None else Zone.CLEAR

    if governing is not None and zone is Zone.COLLISION:
        return replace(state, phase=CdrPhase.COLLIDED, prev_zone=zone), None

    phase = state.phase
    cmd: ManeuverCommand | None = None
    new_state = state

    if phase is CdrPhase.MONITORING:
        if (
            governing is not None
            and zone >= params.tactical_trigger_zone
            and zone > state.prev_zone
        ):
            new_state = replace(
                state,
                phase=CdrPhase.DETECT,
                detect_started_at=t,
                encounter_id=governing.intruder_id,
            )

    elif phase is CdrPhase.DETECT:
        if governing is None:
            # Contact evaporated before classification finished.
            new_state = replace(state, phase=CdrPhase.MONITORING, detect_started_at=None, encounter_id=None)
        elif t - state.detect_started_at >= params.detect_duration:
            direction = approach_direction(
                own_pos, own_track, governing.pos, governing.velocity, params
            )
            rel = relative_position(own_pos, own_track, governing.pos)
            cmd = tactical_maneuver(perf, governing.kind, direction, rel, t, params)
            new_state = replace(state, phase=CdrPhase.AVOID)

    elif phase is CdrPhase.AVOID:
        if governing is not None and zone >= Zone.WARNING:
            direction = approach_direction(
                own_pos, own_track, governing.pos, governing.velocity, params
            )
            cmd = emergency_maneuver(direction, governing.kind, own_pos, vertiports, t, params)
            new_state = replace(state, phase=CdrPhase.EMERGENCY, passed_emergency=True)
        elif de_escalated(history.get(state.encounter_id, ()), t, params.hold_duration):
            new_state, cmd = _resolve_encounter(state, own_pos, vertiports, t)

    elif phase is CdrPhase.EMERGENCY:
        if de_escalated(history.get(state.encounter_id, ()), t, params.hold_duration):
            new_state, cmd = _resolve_encounter(state, own_pos, vertiports, t)

    elif phase is CdrPhase.DE_ESCALATED:
        new_state = replace(
            state,
            phase=CdrPhase.MONITORING,
            detect_started_at=None,
            encounter_id=None,
            passed_emergency=False,
        )

    if new_state.prev_zone is not zone:
        new_state = replace(new_state, prev_zone=zone)
    return new_state, cmd


def _resolve_encounter(
    state: CdrState,
    own_pos: EnuPoint,
    vertiports: Mapping[str, EnuPoint],
    t: float,
) -> tuple[CdrState, ManeuverCommand]:
    """Post-conflict: divert if a pilot had to step in, otherwise pick the
    original plan back up."""
    if state.passed_emergency:
        cmd = reroute_to(diversion_target(own_pos, vertiports), IssuedBy.PILOT, t)
    else:
        cmd = continue_flight(IssuedBy.AUTOMATED, t)
    return replace(state, phase=CdrPhase.DE_ESCALATED), cmd
