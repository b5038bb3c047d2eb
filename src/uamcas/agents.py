"""Ownship kinematics for the four aircraft configurations, plus
intruder state generation (CSV playback and scripted behaviors).

The ownship is a point mass flying a climb / waypoint-cruise / descent
profile.  Avoidance commands are resolved into a Guidance directive
once, at issuance, and the per-tick step function is pure in
(state, perf, guidance, dt), with the state passed as plain values.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

from .geo import EnuPoint, non_finite_error, normalize_track, track_unit
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


# Bound once for check_ownship, which runs on every ownship step.
_isfinite = math.isfinite
_HOVER = FlightMode.HOVER
_GROUND = FlightMode.GROUND


def check_ownship(
    east: float, north: float, up: float, ground_speed: float, flight_mode: FlightMode
) -> None:
    """The rules every ownship state keeps, whether an OwnshipState or
    the plain values ownship_step takes: a finite position, and speeds
    and altitude that fit the flight mode."""
    if not (_isfinite(east) and _isfinite(north) and _isfinite(up)):
        raise non_finite_error(east, north, up)
    if ground_speed < 0.0:
        raise ValueError("ground_speed must be non-negative")
    if flight_mode is _HOVER and ground_speed != 0.0:
        raise ValueError("hover requires zero ground speed")
    if flight_mode is _GROUND and up != 0.0:
        raise ValueError("ground mode requires zero altitude")


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

    An immutable tuple, built by the engine only on a tick that issues a
    command (resolve_command takes it); every construction, also through
    _replace and _make, runs check_ownship.
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
        check_ownship(*pos, ground_speed, flight_mode)
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


def ownship_step(
    east: float,
    north: float,
    up: float,
    track: float,
    ground_speed: float,
    mode: FlightMode,
    idx: int,
    perf: PerformanceModel,
    guidance: Guidance,
    dt: float,
) -> tuple[float, float, float, float, float, float, FlightMode, int]:
    """Advance the ownship one tick under the active directive.

    The state is carried as plain values, the fields of OwnshipState
    without its clock or vertical speed (the step reads neither), and
    comes back as (east, north, up, track, ground_speed,
    vertical_speed, mode, idx).  The given state must pass the checks
    OwnshipState makes; a state that does not raises the same
    ValueError.  This is the only kinematics implementation: the
    engine runs it every tick without building a state object.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    check_ownship(east, north, up, ground_speed, mode)
    kind = guidance.kind

    if kind is GuidanceKind.HOVER:
        return east, north, up, track, 0.0, 0.0, FlightMode.HOVER, idx

    if kind is GuidanceKind.HOVER_DESCEND:
        target = guidance.target_alt
        if up > target:
            new_up = max(target, up - perf.descent_rate * dt)
            if new_up > target:
                return (
                    east, north, new_up, track, 0.0, -perf.descent_rate,
                    FlightMode.VERTICAL_DESCENT, idx,
                )
            return east, north, new_up, track, 0.0, 0.0, FlightMode.HOVER, idx
        return east, north, up, track, 0.0, 0.0, FlightMode.HOVER, idx

    if mode is FlightMode.GROUND:
        # Departure: climb vertically off the pad.
        new_up = min(perf.cruise_alt, perf.climb_rate * dt)
        return east, north, new_up, track, 0.0, perf.climb_rate, FlightMode.VERTICAL_CLIMB, idx

    if mode is FlightMode.VERTICAL_CLIMB:
        new_up = up + perf.climb_rate * dt
        if new_up < perf.cruise_alt:
            return (
                east, north, new_up, track, ground_speed, perf.climb_rate,
                FlightMode.VERTICAL_CLIMB, idx,
            )
        # Top of climb: level off aligned with the outbound course,
        # skipping plan points already inside the capture ring (the
        # departure pad itself, for a fresh climb-out).
        wpts = guidance.plan.waypoints
        last = len(wpts) - 1
        idx = min(idx, last)
        w_e, w_n, _ = wpts[idx]
        while idx < last and math.hypot(w_e - east, w_n - north) <= perf.capture_radius:
            idx += 1
            w_e, w_n, _ = wpts[idx]
        de = w_e - east
        dn = w_n - north
        if de != 0.0 or dn != 0.0:
            # Straight above the waypoint the current track is kept.
            track = math.degrees(math.atan2(de, dn)) % 360.0
        return (
            east, north, perf.cruise_alt, track, perf.cruise_speed, 0.0,
            FlightMode.CRUISE, idx,
        )

    if mode is FlightMode.VERTICAL_DESCENT:
        new_up = up - perf.descent_rate * dt
        if new_up > 0.0:
            return (
                east, north, new_up, track, ground_speed, -perf.descent_rate,
                FlightMode.VERTICAL_DESCENT, idx,
            )
        return east, north, 0.0, track, 0.0, 0.0, FlightMode.GROUND, idx

    # Cruise (also reached from HOVER when guidance reverts to a path).
    if kind is GuidanceKind.HOLD_TRACK:
        target = guidance.target_track
    else:
        # FOLLOW_PLAN
        wpts = guidance.plan.waypoints
        n_wpts = len(wpts)
        capture = perf.capture_radius
        while idx < n_wpts:
            w_e, w_n, _ = wpts[idx]
            if math.hypot(w_e - east, w_n - north) > capture:
                break
            idx += 1
        else:
            # Destination captured: descend onto the pad.
            return (
                east, north, max(0.0, up - perf.descent_rate * dt), track, 0.0,
                -perf.descent_rate, FlightMode.VERTICAL_DESCENT, idx,
            )
        # Outside the capture ring, so the bearing is defined.
        target = math.degrees(math.atan2(w_e - east, w_n - north)) % 360.0

    # Slew toward the target by at most one step (geo.signed_track_diff,
    # geo.normalize_track).  A forced side only matters while far from
    # the target; once within one step the track snaps on, so a forced
    # turn cannot wind up again on the small corrections that follow.
    max_step = perf.turn_rate * dt
    diff = (target - track) % 360.0
    if diff > 180.0:
        diff -= 360.0
    if abs(diff) <= max_step:
        track = target % 360.0
    else:
        slew = guidance.slew
        if slew is TurnDirection.RIGHT:
            step = max_step
        elif slew is TurnDirection.LEFT:
            step = -max_step
        else:
            step = math.copysign(max_step, diff)
        track = (track + step) % 360.0

    # Below cruise altitude (after a commanded descent) the climb back
    # comes out of the speed budget, so the total velocity never exceeds
    # cruise_speed.
    cruise_speed = perf.cruise_speed
    if up >= perf.cruise_alt:
        h_speed = cruise_speed
        vs = 0.0
        new_up = up
    else:
        vs = min(perf.climb_rate, cruise_speed * 0.999)
        h_speed = math.sqrt(cruise_speed**2 - vs**2)
        new_up = min(perf.cruise_alt, up + vs * dt)
    rad = math.radians(track)
    return (
        east + h_speed * dt * math.sin(rad),
        north + h_speed * dt * math.cos(rad),
        new_up, track, h_speed, vs, FlightMode.CRUISE, idx,
    )


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
    # (east, north) unit vector along track, derived from track for
    # PASS_BY playback.
    unit: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.speed <= 0.0:
            raise ValueError("script speed must be positive")
        if self.linger_duration < 0.0:
            raise ValueError("linger duration must be non-negative")
        if self.duration is not None and self.duration <= 0.0:
            raise ValueError("script duration must be positive")
        object.__setattr__(self, "unit", track_unit(self.track))


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
        ue, un = script.unit
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
    pos: EnuPoint, target: Vec3, speed: float, step_len: float
) -> tuple[EnuPoint, Vec3]:
    east, north, up = pos
    t_e, t_n, t_u = target
    dx = t_e - east
    dy = t_n - north
    dz = t_u - up
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist == 0.0 or step_len == 0.0:
        return pos, (0.0, 0.0, 0.0)
    scale = min(1.0, step_len / dist)
    new_pos = EnuPoint(east + dx * scale, north + dy * scale, up + dz * scale)
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
