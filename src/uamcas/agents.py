"""Ownship kinematics for the four aircraft configurations, plus
intruder state generation (CSV playback and scripted behaviors).

The ownship is a point mass flying a climb / waypoint-cruise / descent
profile.  Avoidance commands are resolved into a Guidance directive
once, at issuance, and the per-tick step function is pure in
(state, perf, guidance, dt).
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

from .geo import (
    EnuPoint,
    bearing,
    horizontal_distance,
    normalize_track,
    signed_track_diff,
    track_unit,
)
from .maneuvers import (
    Action,
    InfeasibleManeuverError,
    ManeuverCommand,
    TurnDirection,
)

DEFAULT_CAPTURE_RADIUS_M = 50.0
DEFAULT_TURN_RATE_DEG_S = 10.0
DEFAULT_CRUISE_ALT_M = 304.8  # 1000 ft
DEFAULT_CLIMB_RATE_M_S = 1.7
DEFAULT_DESCENT_RATE_M_S = 1.7


class OwnshipConfig(enum.IntEnum):
    MULTICOPTER = 1
    LIFT_CRUISE = 2
    TILT_ROTOR = 3
    VECTORED_THRUST = 4


class HeadOnStrategy(enum.Enum):
    DESCEND = "DESCEND"
    TURN_RIGHT = "TURN_RIGHT"


class FlightMode(enum.Enum):
    GROUND = "GROUND"
    VERTICAL_CLIMB = "VERTICAL_CLIMB"
    CRUISE = "CRUISE"
    HOVER = "HOVER"
    VERTICAL_DESCENT = "VERTICAL_DESCENT"


@dataclass(frozen=True)
class PerformanceModel:
    cruise_speed: float
    climb_rate: float = DEFAULT_CLIMB_RATE_M_S
    descent_rate: float = DEFAULT_DESCENT_RATE_M_S
    cruise_alt: float = DEFAULT_CRUISE_ALT_M
    turn_rate: float = DEFAULT_TURN_RATE_DEG_S
    # Horizontal distance at which a waypoint counts as reached.
    capture_radius: float = DEFAULT_CAPTURE_RADIUS_M
    head_on_strategy: HeadOnStrategy = HeadOnStrategy.TURN_RIGHT

    def __post_init__(self) -> None:
        for name in (
            "cruise_speed", "climb_rate", "descent_rate", "cruise_alt", "turn_rate", "capture_radius"
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


# Cruise speeds: vectored thrust is the published figure; the other three
# are editable defaults in the manufacturer-brochure ballpark.
DEFAULT_PERFORMANCE: Mapping[OwnshipConfig, PerformanceModel] = {
    OwnshipConfig.MULTICOPTER: PerformanceModel(28.0, head_on_strategy=HeadOnStrategy.DESCEND),
    OwnshipConfig.LIFT_CRUISE: PerformanceModel(50.0, head_on_strategy=HeadOnStrategy.DESCEND),
    OwnshipConfig.TILT_ROTOR: PerformanceModel(75.0, head_on_strategy=HeadOnStrategy.TURN_RIGHT),
    OwnshipConfig.VECTORED_THRUST: PerformanceModel(78.0, head_on_strategy=HeadOnStrategy.TURN_RIGHT),
}


class _OwnshipFields(NamedTuple):
    t: float
    pos: EnuPoint
    track: float
    ground_speed: float
    vertical_speed: float
    flight_mode: FlightMode
    next_waypoint_index: int


class OwnshipState(_OwnshipFields):
    """Ownship kinematic state at one instant.

    An immutable tuple, built once per tick (see geo.EnuPoint); every
    construction, also through _replace and _make, checks that the
    speeds fit the flight mode.
    """

    __slots__ = ()

    def __new__(
        cls,
        t: float,
        pos: EnuPoint,
        track: float,
        ground_speed: float,
        vertical_speed: float,
        flight_mode: FlightMode,
        next_waypoint_index: int,
    ) -> "OwnshipState":
        if ground_speed < 0.0:
            raise ValueError("ground_speed must be non-negative")
        if flight_mode is FlightMode.HOVER and ground_speed != 0.0:
            raise ValueError("hover requires zero ground speed")
        if flight_mode is FlightMode.GROUND and pos.up != 0.0:
            raise ValueError("ground mode requires zero altitude")
        return tuple.__new__(
            cls, (t, pos, track, ground_speed, vertical_speed, flight_mode, next_waypoint_index)
        )

    @classmethod
    def _make(cls, iterable) -> "OwnshipState":
        return cls(*iterable)


@dataclass(frozen=True)
class NavPlan:
    """Horizontal waypoints the guidance currently steers to."""

    waypoints: tuple[EnuPoint, ...]
    destination_id: str


class GuidanceKind(enum.Enum):
    FOLLOW_PLAN = "FOLLOW_PLAN"
    HOVER = "HOVER"
    HOVER_DESCEND = "HOVER_DESCEND"
    HOLD_TRACK = "HOLD_TRACK"


@dataclass(frozen=True)
class Guidance:
    """Resolved steering directive consumed by ownship_step each tick."""

    kind: GuidanceKind
    plan: NavPlan
    target_track: float | None = None
    slew: TurnDirection | None = None
    target_alt: float | None = None


def follow_plan(plan: NavPlan) -> Guidance:
    return Guidance(GuidanceKind.FOLLOW_PLAN, plan)


def resolve_command(
    state: OwnshipState,
    perf: PerformanceModel,
    guidance: Guidance,
    cmd: ManeuverCommand | None,
    vertiports: Mapping[str, EnuPoint],
) -> tuple[Guidance, OwnshipState]:
    """Turn a freshly issued command into the directive that executes it.

    Returns the new guidance plus the (possibly re-indexed) state.  Plan
    rewrites reset the waypoint index; the caller keeps the result as the
    active directive until the next command.
    """
    plan = guidance.plan
    if cmd is None or cmd.action is Action.CONTINUE_FLIGHT:
        return follow_plan(plan), state

    if cmd.action is Action.HOVER:
        return Guidance(GuidanceKind.HOVER, plan), state

    if cmd.action is Action.HOVER_AND_DESCEND_TO:
        if cmd.target_alt >= perf.cruise_alt:
            raise InfeasibleManeuverError("descend target at or above cruise altitude")
        return Guidance(GuidanceKind.HOVER_DESCEND, plan, target_alt=cmd.target_alt), state

    if cmd.action is Action.TURN_BY:
        sign = 1.0 if cmd.direction is TurnDirection.RIGHT else -1.0
        target = normalize_track(state.track + sign * cmd.turn_deg)
        return (
            Guidance(GuidanceKind.HOLD_TRACK, plan, target_track=target, slew=cmd.direction),
            state,
        )

    if cmd.action is Action.REROUTE_TO:
        try:
            target_pos = vertiports[cmd.target_vertiport]
        except KeyError:
            raise InfeasibleManeuverError(
                f"unknown diversion vertiport {cmd.target_vertiport!r}"
            ) from None
        new_plan = NavPlan((target_pos,), cmd.target_vertiport)
        # No explicit side means keep whatever turn is already in progress.
        slew = cmd.direction if cmd.direction is not None else guidance.slew
        new_state = state._replace(next_waypoint_index=0)
        return Guidance(GuidanceKind.FOLLOW_PLAN, new_plan, slew=slew), new_state

    if cmd.action in (Action.LATERAL_OFFSET, Action.CHANGE_PATH):
        new_plan = _offset_plan(state, plan, cmd.offset_m)
        return follow_plan(new_plan), state._replace(next_waypoint_index=0)

    raise AssertionError(f"unhandled action {cmd.action}")


def _offset_plan(state: OwnshipState, plan: NavPlan, offset_m: float) -> NavPlan:
    """Parallel path: shift the remaining legs sideways, rejoin at the
    final waypoint so the destination itself never moves."""
    # Perpendicular to current track; positive offset to starboard.
    angle = math.radians(normalize_track(state.track + math.copysign(90.0, offset_m)))
    de = abs(offset_m) * math.sin(angle)
    dn = abs(offset_m) * math.cos(angle)
    remaining = plan.waypoints[state.next_waypoint_index:]
    if not remaining:
        remaining = plan.waypoints[-1:]
    side_step = EnuPoint(state.pos.east + de, state.pos.north + dn, state.pos.up)
    shifted = [
        EnuPoint(wp.east + de, wp.north + dn, wp.up) for wp in remaining[:-1]
    ]
    new_wpts = (side_step, *shifted, remaining[-1])
    return NavPlan(new_wpts, plan.destination_id)


def _slew_track(track: float, target: float, max_step: float, forced: TurnDirection | None) -> float:
    """Rotate track toward target by at most max_step degrees.

    A forced side only matters while far from the target; once within one
    step the track snaps on, so a forced turn cannot wind up again on the
    small corrections that follow.
    """
    diff = signed_track_diff(track, target)
    if abs(diff) <= max_step:
        return normalize_track(target)
    if forced is TurnDirection.RIGHT:
        step = max_step
    elif forced is TurnDirection.LEFT:
        step = -max_step
    else:
        step = math.copysign(max_step, diff)
    return normalize_track(track + step)


def ownship_step(
    state: OwnshipState,
    perf: PerformanceModel,
    guidance: Guidance,
    dt: float,
) -> OwnshipState:
    """Advance the ownship one tick under the active directive."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    # Unpacked once: tuple unpacking is cheaper than named field reads.
    t, pos, track, ground_speed, _, mode, idx = state
    east, north, up = pos
    t += dt
    kind = guidance.kind

    if kind is GuidanceKind.HOVER:
        return OwnshipState(t, pos, track, 0.0, 0.0, FlightMode.HOVER, idx)

    if kind is GuidanceKind.HOVER_DESCEND:
        target = guidance.target_alt
        if up > target:
            new_up = max(target, up - perf.descent_rate * dt)
            mode = FlightMode.VERTICAL_DESCENT if new_up > target else FlightMode.HOVER
            vs = -perf.descent_rate if new_up > target else 0.0
            return OwnshipState(t, EnuPoint(east, north, new_up), track, 0.0, vs, mode, idx)
        return OwnshipState(t, pos, track, 0.0, 0.0, FlightMode.HOVER, idx)

    if mode is FlightMode.GROUND:
        # Departure: climb vertically off the pad.
        new_up = min(perf.cruise_alt, perf.climb_rate * dt)
        return OwnshipState(
            t, EnuPoint(east, north, new_up), track, 0.0,
            perf.climb_rate, FlightMode.VERTICAL_CLIMB, idx,
        )

    if mode is FlightMode.VERTICAL_CLIMB:
        new_up = up + perf.climb_rate * dt
        if new_up < perf.cruise_alt:
            return OwnshipState(
                t, EnuPoint(east, north, new_up), track, ground_speed,
                perf.climb_rate, FlightMode.VERTICAL_CLIMB, idx,
            )
        # Top of climb: level off aligned with the outbound course,
        # skipping plan points already inside the capture ring (the
        # departure pad itself, for a fresh climb-out).
        pos = EnuPoint(east, north, perf.cruise_alt)
        wpts = guidance.plan.waypoints
        idx = min(idx, len(wpts) - 1)
        while (
            idx < len(wpts) - 1
            and horizontal_distance(pos, wpts[idx]) <= perf.capture_radius
        ):
            idx += 1
        try:
            track = bearing(pos, wpts[idx])
        except ValueError:
            pass  # straight above the waypoint: keep the current track
        return OwnshipState(t, pos, track, perf.cruise_speed, 0.0, FlightMode.CRUISE, idx)

    if mode is FlightMode.VERTICAL_DESCENT:
        new_up = up - perf.descent_rate * dt
        if new_up > 0.0:
            return OwnshipState(
                t, EnuPoint(east, north, new_up), track, ground_speed,
                -perf.descent_rate, FlightMode.VERTICAL_DESCENT, idx,
            )
        return OwnshipState(
            t, EnuPoint(east, north, 0.0), track, 0.0, 0.0, FlightMode.GROUND, idx
        )

    # Cruise (also reached from HOVER when guidance reverts to a path).
    max_step = perf.turn_rate * dt

    if kind is GuidanceKind.HOLD_TRACK:
        track = _slew_track(track, guidance.target_track, max_step, guidance.slew)
    else:
        # FOLLOW_PLAN
        wpts = guidance.plan.waypoints
        while idx < len(wpts) and horizontal_distance(pos, wpts[idx]) <= perf.capture_radius:
            idx += 1
        if idx >= len(wpts):
            # Destination captured: descend onto the pad.
            return OwnshipState(
                t, EnuPoint(east, north, max(0.0, up - perf.descent_rate * dt)),
                track, 0.0, -perf.descent_rate, FlightMode.VERTICAL_DESCENT, idx,
            )
        track = _slew_track(track, bearing(pos, wpts[idx]), max_step, guidance.slew)
    h_speed, vs, new_up = _cruise_vertical(up, perf, dt)
    rad = math.radians(track)
    new_pos = EnuPoint(
        east + h_speed * dt * math.sin(rad),
        north + h_speed * dt * math.cos(rad),
        new_up,
    )
    return OwnshipState(t, new_pos, track, h_speed, vs, FlightMode.CRUISE, idx)


def _cruise_vertical(up: float, perf: PerformanceModel, dt: float) -> tuple[float, float, float]:
    """Climbing cruise back to cruise altitude after a commanded descent.

    The climb component comes out of the speed budget so the total
    velocity never exceeds cruise_speed.
    """
    if up >= perf.cruise_alt:
        return perf.cruise_speed, 0.0, up
    vs = min(perf.climb_rate, perf.cruise_speed * 0.999)
    h_speed = math.sqrt(perf.cruise_speed**2 - vs**2)
    new_up = min(perf.cruise_alt, up + vs * dt)
    return h_speed, vs, new_up


class IntruderKind(enum.Enum):
    DRONE = "DRONE"
    BIRD = "BIRD"


class IntruderBehavior(enum.Enum):
    PREDICTABLE = "PREDICTABLE"
    UNPREDICTABLE = "UNPREDICTABLE"


class IntruderSource(enum.Enum):
    CSV_TRAJECTORY = "CSV_TRAJECTORY"
    SCRIPTED = "SCRIPTED"


class ScriptMode(enum.Enum):
    PASS_BY = "PASS_BY"
    LINGER = "LINGER"
    PURSUIT = "PURSUIT"


class TrajectoryError(ValueError):
    """Malformed trajectory sample list."""


@dataclass(frozen=True)
class Trajectory:
    samples: tuple[tuple[float, EnuPoint], ...]
    # Sample times in order, derived from samples for playback's bisect.
    times: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise TrajectoryError("trajectory needs at least two samples")
        times = [t for t, _ in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise TrajectoryError("trajectory times must strictly increase")
        object.__setattr__(self, "times", times)


@dataclass(frozen=True)
class ScriptedBehavior:
    """Closed-form intruder motion.

    PASS_BY: straight line from anchor along track at speed, alive for
    duration seconds (forever if None); offset records how far abeam of
    the ownship path the line runs and is carried for provenance.
    LINGER: stationary at anchor for linger_duration, then gone.
    PURSUIT: optional hold at anchor for linger_duration, then steers at
    the ownship every tick (engine-integrated).
    """

    mode: ScriptMode
    speed: float
    anchor: EnuPoint
    track: float = 0.0
    linger_duration: float = 0.0
    offset: float = 0.0
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.speed <= 0.0:
            raise ValueError("script speed must be positive")
        if self.linger_duration < 0.0:
            raise ValueError("linger duration must be non-negative")
        if self.duration is not None and self.duration <= 0.0:
            raise ValueError("script duration must be positive")


@dataclass(frozen=True)
class IntruderRecord:
    id: str
    kind: IntruderKind
    behavior: IntruderBehavior
    source: IntruderSource
    spawn_time: float = 0.0
    trajectory: Trajectory | None = None
    script: ScriptedBehavior | None = None
    ground_clock: bool = False  # spawn_time on the absolute sim clock, not departure-relative
    csv_path: str | None = None  # provenance for round-tripping trajectory intruders

    def __post_init__(self) -> None:
        if self.source is IntruderSource.CSV_TRAJECTORY and self.trajectory is None:
            raise ValueError(f"intruder {self.id}: CSV source without trajectory")
        if self.source is IntruderSource.SCRIPTED and self.script is None:
            raise ValueError(f"intruder {self.id}: scripted source without script")


Vec3 = tuple[float, float, float]


def intruder_state_at(
    rec: IntruderRecord,
    t: float,
    ownship_pos: EnuPoint | None = None,
    prev_pos: EnuPoint | None = None,
    dt: float | None = None,
) -> tuple[EnuPoint, Vec3] | None:
    """Position and velocity of the intruder at sim time t, or None when
    absent.

    Closed-form modes ignore prev_pos/dt.  A pursuing intruder past its
    hold period is stepped from prev_pos toward the current ownship
    position; the engine supplies both every tick.
    """
    if t < rec.spawn_time:
        return None
    rel = t - rec.spawn_time

    if rec.source is IntruderSource.CSV_TRAJECTORY:
        return _playback(rec.trajectory, rel)

    script = rec.script
    if script.mode is ScriptMode.PASS_BY:
        if script.duration is not None and rel > script.duration:
            return None
        ue, un = track_unit(script.track)
        east, north, up = script.anchor
        pos = EnuPoint(east + script.speed * rel * ue, north + script.speed * rel * un, up)
        return pos, (script.speed * ue, script.speed * un, 0.0)

    if script.mode is ScriptMode.LINGER:
        if rel > script.linger_duration:
            return None
        return script.anchor, (0.0, 0.0, 0.0)

    # PURSUIT
    if script.duration is not None and rel > script.duration:
        return None
    if rel <= script.linger_duration or ownship_pos is None:
        return script.anchor, (0.0, 0.0, 0.0)
    start = prev_pos if prev_pos is not None else script.anchor
    step = script.speed * (dt if dt is not None else 0.0)
    return _pursuit_step(start, ownship_pos, script.speed, step)


def _pursuit_step(
    pos: EnuPoint, target: EnuPoint, speed: float, step_len: float
) -> tuple[EnuPoint, Vec3]:
    dx = target.east - pos.east
    dy = target.north - pos.north
    dz = target.up - pos.up
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist == 0.0 or step_len == 0.0:
        return pos, (0.0, 0.0, 0.0)
    scale = min(1.0, step_len / dist)
    new_pos = EnuPoint(pos.east + dx * scale, pos.north + dy * scale, pos.up + dz * scale)
    vel = (speed * dx / dist, speed * dy / dist, speed * dz / dist)
    return new_pos, vel


def _playback(traj: Trajectory, rel: float) -> tuple[EnuPoint, Vec3] | None:
    times = traj.times
    if rel < times[0] or rel > times[-1]:
        return None
    i = bisect_right(times, rel)
    if i == len(times):
        i -= 1
    lo_t, (lo_e, lo_n, lo_u) = traj.samples[i - 1]
    hi_t, (hi_e, hi_n, hi_u) = traj.samples[i]
    span = hi_t - lo_t
    u = (rel - lo_t) / span
    pos = EnuPoint(lo_e + u * (hi_e - lo_e), lo_n + u * (hi_n - lo_n), lo_u + u * (hi_u - lo_u))
    vel = ((hi_e - lo_e) / span, (hi_n - lo_n) / span, (hi_u - lo_u) / span)
    return pos, vel
