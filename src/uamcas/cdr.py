"""Conflict detection and resolution: the ground-phase departure check,
the airborne detect/avoid phase machine, the decision table behind its
automated and pilot actions, de-escalation, and diversion choice.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from operator import lt
from typing import Mapping, NamedTuple, Sequence

from . import agents
from .agents import (
    IntruderKind,
    IntruderRecord,
    HeadOnStrategy,
    PerformanceModel,
    Vec3,
)
from .envelopes import Zone
from .geo import (
    BearingUndefinedError,
    EnuPoint,
    bearing,
    distance_point_to_polyline,
    distance_segment_to_polyline,
    horizontal_distance,
    signed_track_diff,
)
from .maneuvers import Action, ManeuverCommand, TurnDirection

DESCEND_TARGET_ALT_M = 243.84  # 800 ft
# The most waits one takeoff delay check may take: each wait re-scans
# every ground intruder, so this bounds run time, as engine.MAX_TICKS
# bounds the ticks.
MAX_WAITS = 100_000


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
        if self.max_waits > MAX_WAITS:
            raise ValueError(f"max_waits must not exceed {MAX_WAITS}")


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
        # A COLLISION trigger would never detect, only collide, and a
        # CLEAR one acts as CAUTION: detection needs a rising zone.
        if self.tactical_trigger_zone not in (Zone.CAUTION, Zone.WARNING):
            raise ValueError("tactical_trigger_zone must be CAUTION or WARNING")
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
            path, vel = agents.intruder_state_at(rec, [tau])
            if path:
                blocked |= heading_threat(path[0], vel, v1, route_polylines, params)
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


def _relative_bearing(own_pos: EnuPoint, own_track: float, intr_pos: EnuPoint) -> float:
    """The intruder's bearing off the ownship's track, in (-180, 180].  An
    intruder straight above or below the ownship has no bearing; it
    counts as dead ahead (0), the cautious reading."""
    try:
        return signed_track_diff(own_track, bearing(own_pos, intr_pos))
    except BearingUndefinedError:
        return 0.0


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
    rel_bearing = _relative_bearing(own_pos, own_track, intr_pos)
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
    rel_bearing = _relative_bearing(own_pos, own_track, intr_pos)
    return RelativePosition.AHEAD if abs(rel_bearing) <= 90.0 else RelativePosition.BEHIND


class DecisionRow(NamedTuple):
    """One DECISION_TABLE row: five match columns, where None matches any
    value, then the action and its forced turn side."""

    phase: CdrPhase
    kind: IntruderKind | None
    direction: ApproachDirection | None
    rel: RelativePosition | None
    strategy: HeadOnStrategy | None
    action: Action
    side: TurnDirection | None


_AVOID, _EMERGENCY, _BIRD, _BEHIND = (
    CdrPhase.AVOID, CdrPhase.EMERGENCY, IntruderKind.BIRD, RelativePosition.BEHIND
)
_D, _S, _A, _T = ApproachDirection, HeadOnStrategy, Action, TurnDirection

# The decision tree, keyed by the phase being entered: AVOID rows are the
# automated right-of-way action once detection ends, EMERGENCY rows the
# pilot's action on warning-ring penetration.  The first matching row
# wins.  Receding traffic (a reciprocal-track intruder behind, or a
# same-track one already passed) comes first, so it beats the bird rule:
# acting on it would only churn.
DECISION_TABLE: tuple[DecisionRow, ...] = (
    DecisionRow(_AVOID, None, _D.HEAD_ON, _BEHIND, None, _A.CONTINUE_FLIGHT, None),
    DecisionRow(_AVOID, None, _D.SAME_DIRECTION, _BEHIND, None, _A.CONTINUE_FLIGHT, None),
    DecisionRow(_AVOID, _BIRD, None, None, None, _A.HOVER_AND_DESCEND_TO, None),
    DecisionRow(_AVOID, None, _D.RIGHT, None, None, _A.HOVER, None),
    DecisionRow(_AVOID, None, _D.LEFT, None, None, _A.CONTINUE_FLIGHT, None),
    DecisionRow(_AVOID, None, _D.HEAD_ON, None, _S.DESCEND, _A.HOVER_AND_DESCEND_TO, None),
    DecisionRow(_AVOID, None, _D.HEAD_ON, None, _S.TURN_RIGHT, _A.TURN_BY, _T.RIGHT),
    DecisionRow(_AVOID, None, _D.SAME_DIRECTION, None, None, _A.CHANGE_PATH, None),
    DecisionRow(_EMERGENCY, _BIRD, None, None, None, _A.REROUTE_TO, _T.RIGHT),
    DecisionRow(_EMERGENCY, None, _D.RIGHT, None, None, _A.TURN_BY, _T.LEFT),
    DecisionRow(_EMERGENCY, None, _D.LEFT, None, None, _A.REROUTE_TO, _T.RIGHT),
    # Keep whatever turn the tactical phase started.
    DecisionRow(_EMERGENCY, None, _D.HEAD_ON, None, None, _A.REROUTE_TO, None),
    DecisionRow(_EMERGENCY, None, _D.SAME_DIRECTION, None, None, _A.LATERAL_OFFSET, None),
)


def decide(
    phase: CdrPhase,
    kind: IntruderKind,
    direction: ApproachDirection,
    rel: RelativePosition,
    strategy: HeadOnStrategy,
) -> DecisionRow:
    """The first DECISION_TABLE row that matches the key."""
    key = (phase, kind, direction, rel, strategy)
    for row in DECISION_TABLE:
        if all(want is None or want is got for want, got in zip(row, key)):
            return row
    raise LookupError(f"no decision row matches {key}")


def build_command(
    action: Action,
    side: TurnDirection | None,
    own_pos: EnuPoint,
    vertiports: Mapping[str, EnuPoint],
    params: CdrParams,
) -> ManeuverCommand:
    """The command for an action, with the parameter it needs: the turn
    size, the descent altitude, the offset, or the diversion field
    nearest own_pos."""
    divert = diversion_target(own_pos, vertiports) if action is Action.REROUTE_TO else None
    offset = action is Action.LATERAL_OFFSET or action is Action.CHANGE_PATH
    return ManeuverCommand(
        action,
        turn_deg=params.turn_deg if action is Action.TURN_BY else None,
        direction=side,
        target_alt=params.descend_alt_m if action is Action.HOVER_AND_DESCEND_TO else None,
        target_vertiport=divert,
        offset_m=params.lateral_offset_m if offset else None,
    )


def diversion_target(pos: EnuPoint, vertiports: Mapping[str, EnuPoint]) -> str:
    """Nearest vertiport; ties prefer finishing the mission (V2) over the
    alternate (V3) over returning to start (V1)."""
    priority = {"V2": 0, "V3": 1, "V1": 2}
    best = min(
        vertiports.items(),
        key=lambda kv: (horizontal_distance(pos, kv[1]), priority.get(kv[0], 99), kv[0]),
    )
    return best[0]


Run = tuple[float, float | None, Zone | None]  # (since, separation, zone): see extend_run


def extend_run(run: Run, t_prev: float, separation: float | None, zone: Zone | None) -> Run:
    """One intruder's running record after one more tick, with separation
    and zone None while it is absent.  The current run is every tick
    after since, all absent or all present with strictly rising
    separation; t_prev, the previous tick's time, becomes since when
    this tick starts a new run."""
    since, last, _ = run
    if separation is None:
        return run if last is None else (t_prev, None, None)
    return (since if last is not None and last < separation else t_prev, separation, zone)


def fold_run(run: Run, t_prevs: Sequence[float], separations: list[float], zone: Zone) -> Run:
    """extend_run over ticks where the intruder is present in one zone,
    the k-th at separations[k] after a tick at t_prevs[k], in one call:
    only the last tick whose separation does not rise moves since."""
    since, last, _ = run
    rising = list(map(lt, [math.inf if last is None else last, *separations], separations))
    if False in rising:
        since = t_prevs[len(rising) - 1 - rising[::-1].index(False)]
    return (since, separations[-1], zone) if separations else run


def de_escalated(run: Run, now: float, hold_duration: float, first_tick: float) -> bool:
    """Conflict resolved: gone for the whole hold window (the ticks at or
    after now - hold_duration), or outside the warning ring with strictly
    opening range throughout it.  The window must not start before the
    flight's first tick."""
    since, _, zone = run
    cutoff = now - hold_duration
    return first_tick <= cutoff and since < cutoff and (zone is None or zone < Zone.WARNING)


class IntruderObservation(NamedTuple):
    intruder_id: str
    kind: IntruderKind
    pos: EnuPoint
    velocity: Vec3
    separation: float
    zone: Zone


@dataclass(frozen=True)
class CdrState:
    phase: CdrPhase = CdrPhase.MONITORING
    detect_started_at: float | None = None
    encounter_id: str | None = None
    prev_zone: Zone = Zone.CLEAR
    first_tick: float = -math.inf  # the flight's, for de_escalated


def cdr_step(
    state: CdrState,
    t: float,
    own_pos: EnuPoint,
    own_track: float,
    governing: IntruderObservation | None,
    runs: Mapping[str, Run],
    vertiports: Mapping[str, EnuPoint],
    perf: PerformanceModel,
    params: CdrParams,
) -> tuple[CdrState, ManeuverCommand | None]:
    """One decision-tree tick.

    own_pos (an EnuPoint or a plain (east, north, up) tuple) and
    own_track are the ownship's position and track before this tick's
    move; they are all of the ownship the decision reads, and only on
    the ticks that classify an encounter or pick a diversion field.
    governing is the nearest present intruder, or None.  runs maps each
    airborne intruder to its running record (extend_run); the
    de-escalation test reads the encounter intruder's.  Returns the
    advanced state and at most one freshly issued command.
    """
    if state.phase is CdrPhase.COLLIDED:
        return state, None

    zone = governing.zone if governing is not None else Zone.CLEAR

    if governing is not None and zone is Zone.COLLISION:
        return replace(state, phase=CdrPhase.COLLIDED, prev_zone=zone), None

    phase = state.phase
    cmd: ManeuverCommand | None = None
    new_state = state
    entering: CdrPhase | None = None  # set when a DECISION_TABLE row issues the command

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
        elif not detect_hold(state, [t], params):
            entering = CdrPhase.AVOID

    elif phase is CdrPhase.AVOID and governing is not None and zone >= Zone.WARNING:
        entering = CdrPhase.EMERGENCY

    elif phase is CdrPhase.AVOID or phase is CdrPhase.EMERGENCY:
        if de_escalated(runs[state.encounter_id], t, params.hold_duration, state.first_tick):
            # Post-conflict: divert if a pilot had to step in, otherwise
            # pick the original plan back up.
            action = Action.REROUTE_TO if phase is CdrPhase.EMERGENCY else Action.CONTINUE_FLIGHT
            cmd = build_command(action, None, own_pos, vertiports, params)
            new_state = replace(state, phase=CdrPhase.DE_ESCALATED)

    elif phase is CdrPhase.DE_ESCALATED:
        new_state = replace(
            state, phase=CdrPhase.MONITORING, detect_started_at=None, encounter_id=None
        )

    if entering is not None:
        row = decide(
            entering,
            governing.kind,
            approach_direction(own_pos, own_track, governing.pos, governing.velocity, params),
            relative_position(own_pos, own_track, governing.pos),
            perf.head_on_strategy,
        )
        cmd = build_command(row.action, row.side, own_pos, vertiports, params)
        new_state = replace(state, phase=entering)

    if new_state.prev_zone is not zone:
        new_state = replace(new_state, prev_zone=zone)
    return new_state, cmd


# Hold runs.  On ticks on which no intruder's presence or zone changes
# (so the governing zone stays prev_zone), cdr_step keeps a state that
# holds() admits and issues nothing until a stop test fires; the engine
# steps such ticks in runs as long as the two functions below give.


def holds(state: CdrState) -> bool:
    """Every phase but DE_ESCALATED holds, and AVOID only below WARNING
    (a WARNING governing zone turns AVOID into EMERGENCY)."""
    phase = state.phase
    return phase is not CdrPhase.DE_ESCALATED and (phase is not CdrPhase.AVOID or state.prev_zone < Zone.WARNING)


def detect_hold(state: CdrState, ts: Sequence[float], params: CdrParams) -> int:
    """How many of the ticks at times ts come before the first at which
    DETECT's classification time is up; all of them in another phase."""
    if state.phase is not CdrPhase.DETECT:
        return len(ts)
    started, duration = state.detect_started_at, params.detect_duration
    return next((k for k, t in enumerate(ts) if t - started >= duration), len(ts))


def de_escalation_hold(state: CdrState, runs: Mapping[str, Run], t_prevs: Sequence[float], ts: Sequence[float],
                       sensed: Mapping[str, Sequence[float]], params: CdrParams) -> int:
    """How many of the ticks at times ts, the k-th after one at
    t_prevs[k], come before the first at which the encounter intruder
    de-escalates in AVOID or EMERGENCY; all of them in another phase.
    runs holds its running record before them, and sensed maps every
    intruder present on them, each in its record's zone, to its
    separations."""
    if state.phase is not CdrPhase.AVOID and state.phase is not CdrPhase.EMERGENCY:
        return len(ts)
    run = runs[state.encounter_id]
    separations = sensed.get(state.encounter_id)
    for k, now in enumerate(ts):
        if separations is not None:
            run = extend_run(run, t_prevs[k], separations[k], run[2])
        if de_escalated(run, now, params.hold_duration, state.first_tick):
            return k
    return len(ts)
