"""Ownship kinematics for the four aircraft configurations, plus
intruder state generation (CSV playback and scripted behaviors).

The ownship is a point mass flying a climb / waypoint-cruise / descent
profile.  Avoidance commands are resolved into a Guidance directive
once, at issuance.  The kinematics have one form, ownship_step, pure in
(state, perf, guidance, dt, ticks) with the state passed as plain
values: a run of ticks that ends after the first tick that changes the
flight mode or the next waypoint index, one tick being a run of one.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, repeat
from operator import lt, sub, truediv
from typing import Mapping, Sequence

from .geo import EnuPoint, enu_points, non_finite_error, normalize_track, track_unit
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
# Ceiling on every speed, the ownship's (PERF_SPEEDS) and a scripted
# intruder's: the speed of sound, well above any drone or bird.
MAX_SPEED_M_S = 343.0
PERF_SPEEDS = ("cruise_speed", "climb_rate", "descent_rate")

Vec3 = tuple[float, float, float]


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
            if name in PERF_SPEEDS and getattr(self, name) > MAX_SPEED_M_S:
                raise ValueError(f"{name} must not exceed {MAX_SPEED_M_S!r} m/s")


# Cruise speeds: vectored thrust is the published figure; the other three
# are editable defaults in the manufacturer-brochure ballpark.
DEFAULT_PERFORMANCE: Mapping[OwnshipConfig, PerformanceModel] = {
    OwnshipConfig.MULTICOPTER: PerformanceModel(28.0, head_on_strategy=HeadOnStrategy.DESCEND),
    OwnshipConfig.LIFT_CRUISE: PerformanceModel(50.0, head_on_strategy=HeadOnStrategy.DESCEND),
    OwnshipConfig.TILT_ROTOR: PerformanceModel(75.0, head_on_strategy=HeadOnStrategy.TURN_RIGHT),
    OwnshipConfig.VECTORED_THRUST: PerformanceModel(78.0, head_on_strategy=HeadOnStrategy.TURN_RIGHT),
}


# Bound once for ownship_step, which runs every tick.
_isfinite = math.isfinite
_GROUND = FlightMode.GROUND


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
    pos: Vec3,
    track: float,
    idx: int,
    perf: PerformanceModel,
    guidance: Guidance,
    cmd: ManeuverCommand | None,
    vertiports: Mapping[str, EnuPoint],
) -> tuple[Guidance, int]:
    """Turn a freshly issued command into the directive that executes it.

    pos, track and idx are the ownship's position, track and next
    waypoint index when the command is issued.  Returns the new guidance
    plus the waypoint index to carry on with: a plan rewrite starts the
    new plan at index 0.  The caller keeps the result as the active
    directive until the next command.
    """
    plan = guidance.plan
    if cmd is None or cmd.action is Action.CONTINUE_FLIGHT:
        return follow_plan(plan), idx

    if cmd.action is Action.HOVER:
        return Guidance(GuidanceKind.HOVER, plan), idx

    if cmd.action is Action.HOVER_AND_DESCEND_TO:
        if cmd.target_alt >= perf.cruise_alt:
            raise InfeasibleManeuverError("descend target at or above cruise altitude")
        return Guidance(GuidanceKind.HOVER_DESCEND, plan, target_alt=cmd.target_alt), idx

    if cmd.action is Action.TURN_BY:
        sign = 1.0 if cmd.direction is TurnDirection.RIGHT else -1.0
        target = normalize_track(track + sign * cmd.turn_deg)
        return (
            Guidance(GuidanceKind.HOLD_TRACK, plan, target_track=target, slew=cmd.direction),
            idx,
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
        return Guidance(GuidanceKind.FOLLOW_PLAN, new_plan, slew=slew), 0

    if cmd.action in (Action.LATERAL_OFFSET, Action.CHANGE_PATH):
        return follow_plan(_offset_plan(pos, track, idx, plan, cmd.offset_m)), 0

    raise AssertionError(f"unhandled action {cmd.action}")


def _offset_plan(pos: Vec3, track: float, idx: int, plan: NavPlan, offset_m: float) -> NavPlan:
    """Parallel path: shift the remaining legs sideways, rejoin at the
    final waypoint so the destination itself never moves."""
    # Perpendicular to current track; positive offset to starboard.
    angle = math.radians(normalize_track(track + math.copysign(90.0, offset_m)))
    de = abs(offset_m) * math.sin(angle)
    dn = abs(offset_m) * math.cos(angle)
    remaining = plan.waypoints[idx:]
    if not remaining:
        remaining = plan.waypoints[-1:]
    east, north, up = pos
    side_step = EnuPoint(east + de, north + dn, up)
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
    mode: FlightMode,
    idx: int,
    perf: PerformanceModel,
    guidance: Guidance,
    dt: float,
    ticks: int,
) -> tuple[list[tuple[float, float, float, float]], FlightMode, int]:
    """Advance the ownship under the active directive by a run of up to
    ticks ticks that ends after the first tick that changes its flight
    mode or next waypoint index.

    The ownship is its position, track, flight mode and next waypoint
    index, carried as plain values.  Returns each tick's (east, north, up,
    track) in a list, and the mode and index of the last.  The changing
    ticks are the pad's first, top of climb, a capture, destination
    capture, touchdown, a hover descent reaching its target and a hover
    reverting to cruise; a hover held under a hover directive repeats
    the same point.  One tick is a run of one, and the ticks of a run are
    those of runs of one, bit for bit: this is the only kinematics
    implementation.  The given state must have a finite position, and
    zero altitude on the ground; a state that does not, a dt that is not
    positive or fewer than one tick raises ValueError.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if ticks < 1:
        raise ValueError("ticks must be positive")
    if not (_isfinite(east) and _isfinite(north) and _isfinite(up)):
        raise non_finite_error(east, north, up)
    if mode is _GROUND and up != 0.0:
        raise ValueError("ground mode requires zero altitude")
    kind = guidance.kind
    path: list[tuple[float, float, float, float]] = []  # (east, north, up, track) per tick

    if kind is GuidanceKind.HOVER:
        return [(east, north, up, track)] * (ticks if mode is FlightMode.HOVER else 1), FlightMode.HOVER, idx

    if kind is GuidanceKind.HOVER_DESCEND:
        target = guidance.target_alt
        for _ in range(ticks):
            up = max(target, up - perf.descent_rate * dt) if up > target else up
            path.append((east, north, up, track))
            new_mode = FlightMode.VERTICAL_DESCENT if up > target else FlightMode.HOVER
            if new_mode is not mode:  # the tick that reaches the target ends a descent
                return path, new_mode, idx
        return path, mode, idx

    if mode is _GROUND:
        # Departure: climb vertically off the pad.
        return [(east, north, min(perf.cruise_alt, perf.climb_rate * dt), track)], FlightMode.VERTICAL_CLIMB, idx

    if mode is FlightMode.VERTICAL_CLIMB:
        for _ in range(ticks):
            new_up = up + perf.climb_rate * dt
            if new_up >= perf.cruise_alt:
                break
            up = new_up
            path.append((east, north, up, track))
        else:
            return path, mode, idx
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
        path.append((east, north, perf.cruise_alt, track))
        return path, FlightMode.CRUISE, idx

    if mode is FlightMode.VERTICAL_DESCENT:
        for _ in range(ticks):
            new_up = up - perf.descent_rate * dt
            if new_up <= 0.0:
                path.append((east, north, 0.0, track))
                return path, _GROUND, idx
            up = new_up
            path.append((east, north, up, track))
        return path, mode, idx

    # Cruise (also reached from HOVER when guidance reverts to a path).
    wpts = guidance.plan.waypoints
    n_wpts = len(wpts)
    capture = perf.capture_radius
    max_step = perf.turn_rate * dt
    cruise_speed = perf.cruise_speed
    vs = min(perf.climb_rate, cruise_speed * 0.999)
    h_speed = math.sqrt(cruise_speed * cruise_speed - vs * vs)
    hypot, atan2, degrees, radians, sin, cos = math.hypot, math.atan2, math.degrees, math.radians, math.sin, math.cos
    step_track = None  # the track the cruise-altitude step (step_e, step_n) was made from
    for _ in range(ticks):
        i = idx
        if kind is GuidanceKind.HOLD_TRACK:
            target = guidance.target_track
        else:
            # FOLLOW_PLAN
            while i < n_wpts:
                w_e, w_n, _ = wpts[i]
                if hypot(w_e - east, w_n - north) > capture:
                    break
                i += 1
            if i == n_wpts:
                # Destination captured: descend onto the pad.
                path.append((east, north, max(0.0, up - perf.descent_rate * dt), track))
                return path, FlightMode.VERTICAL_DESCENT, i
            # Outside the capture ring, so the bearing is defined.
            target = degrees(atan2(w_e - east, w_n - north)) % 360.0

        # Slew toward the target by at most one step (geo.signed_track_diff,
        # geo.normalize_track).  A forced side only matters while far from
        # the target; once within one step the track snaps on, so a forced
        # turn cannot wind up again on the small corrections that follow.
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
        # comes out of the speed budget, so the total velocity never
        # exceeds cruise_speed.  At cruise altitude the step is kept while the
        # track equals the one it was made from: a slewed track is a % 360.0
        # result, never -0.0, so equal tracks have equal sines and cosines.
        if up >= perf.cruise_alt:
            if track != step_track:
                rad = radians(track)
                step_e = cruise_speed * dt * sin(rad)
                step_n = cruise_speed * dt * cos(rad)
                step_track = track
            east = east + step_e
            north = north + step_n
        else:
            up = min(perf.cruise_alt, up + vs * dt)
            rad = radians(track)
            east = east + h_speed * dt * sin(rad)
            north = north + h_speed * dt * cos(rad)
        path.append((east, north, up, track))
        if i != idx or mode is not FlightMode.CRUISE:  # a capture, or a hover reverting to cruise
            return path, FlightMode.CRUISE, i
    return path, mode, idx


class IntruderKind(enum.Enum):
    DRONE = "DRONE"
    BIRD = "BIRD"


class IntruderBehavior(enum.Enum):
    PREDICTABLE = "PREDICTABLE"
    UNPREDICTABLE = "UNPREDICTABLE"


class ScriptMode(enum.Enum):
    PASS_BY = "PASS_BY"
    LINGER = "LINGER"
    PURSUIT = "PURSUIT"


class TrajectoryError(ValueError):
    """Malformed trajectory sample list."""


@dataclass(frozen=True)
class Trajectory:
    """A replayed track as four float columns, one entry per sample: the
    sample times, strictly increasing, and the east, north and up of
    each sample in the local frame.  No per-sample object is kept; the
    columns are stored as tuples whatever sequences they were given as.
    """

    times: tuple[float, ...]
    east: tuple[float, ...]
    north: tuple[float, ...]
    up: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("times", "east", "north", "up"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        times = self.times
        if not len(times) == len(self.east) == len(self.north) == len(self.up):
            raise TrajectoryError("trajectory columns differ in length")
        if len(times) < 2:
            raise TrajectoryError("trajectory needs at least two samples")
        if not all(map(math.isfinite, chain(times, self.east, self.north, self.up))):
            raise TrajectoryError("trajectory samples must be finite")
        if not all(map(lt, times, islice(times, 1, None))):
            raise TrajectoryError("trajectory times must strictly increase")

    @property
    def samples(self) -> tuple[tuple[float, EnuPoint], ...]:
        """The (time, position) pairs, built from the columns on each read."""
        return tuple(zip(self.times, map(EnuPoint, self.east, self.north, self.up)))

    @cached_property
    def top_speed(self) -> float:
        """The fastest segment's speed, worked out on first use, not at parsing."""
        times, points = self.times, list(zip(self.east, self.north, self.up))
        return max(map(truediv, map(math.dist, points[1:], points), map(sub, times[1:], times)))


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
        if self.speed > MAX_SPEED_M_S:
            raise ValueError(f"script speed must not exceed {MAX_SPEED_M_S!r} m/s")
        if self.linger_duration < 0.0:
            raise ValueError("linger duration must be non-negative")
        if self.duration is not None and self.duration <= 0.0:
            raise ValueError("script duration must be positive")
        object.__setattr__(self, "unit", track_unit(self.track))

    @property
    def top_speed(self) -> float:
        """The most the intruder moves in a second."""
        return 0.0 if self.mode is ScriptMode.LINGER else self.speed


@dataclass(frozen=True)
class IntruderRecord:
    """One intruder; its source is whichever of trajectory (CSV
    playback) and script it carries."""

    id: str
    kind: IntruderKind
    behavior: IntruderBehavior
    spawn_time: float = 0.0
    trajectory: Trajectory | None = None
    script: ScriptedBehavior | None = None
    ground_clock: bool = False  # spawn_time on the absolute sim clock, not departure-relative
    csv_path: str | None = None  # provenance for round-tripping trajectory intruders
    # Seconds after spawn past which the intruder is gone for good (inf:
    # never), derived for intruder_state_at and the engine's hold runs.
    lifetime: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.trajectory is None) == (self.script is None):
            raise ValueError(f"intruder {self.id}: needs exactly one of trajectory and script")
        script = self.script
        if script is None:
            lifetime = self.trajectory.times[-1]
        elif script.mode is ScriptMode.LINGER:
            lifetime = script.linger_duration
        else:
            lifetime = math.inf if script.duration is None else script.duration
        object.__setattr__(self, "lifetime", lifetime)


def intruder_state_at(
    rec: IntruderRecord,
    ts: list[float],
    ownship_pos: Sequence[Vec3] | None = None,
    prev_pos: EnuPoint | None = None,
    dt: float | None = None,
) -> tuple[list[EnuPoint], Vec3 | None]:
    """The intruder on the ticks at rising sim times ts, given each tick's
    pre-move ownship position: its positions in a list that ends before
    the first tick where it is absent, and its velocity at the last of
    them (None for an empty list).  One tick is a run of one, and a run
    equals one call per tick bit for bit.

    Closed-form modes ignore the ownship, prev_pos and dt.  A pursuing
    intruder past its hold period is stepped from its position on the
    tick before (prev_pos for the first) toward that tick's ownship
    position; with no ownship positions (the ground check) it holds at
    its anchor.
    """
    spawn = rec.spawn_time
    rels = [t - spawn for t in ts] if ts and ts[0] >= spawn else []
    del rels[bisect_right(rels, rec.lifetime):]  # from the first tick past the lifetime
    script = rec.script
    if rec.trajectory is not None:
        path, vel = _playback(rec.trajectory, rels)
    elif script.mode is ScriptMode.PASS_BY:
        (ue, un), (east, north, up), speed = script.unit, script.anchor, script.speed
        path = enu_points([(east + speed * rel * ue, north + speed * rel * un, up) for rel in rels])
        vel = (speed * ue, speed * un, 0.0)
    elif script.mode is ScriptMode.LINGER:
        path, vel = [script.anchor] * len(rels), (0.0, 0.0, 0.0)
    else:  # PURSUIT
        step = script.speed * (dt if dt is not None else 0.0)
        path, pos, vel = [], prev_pos, None
        for rel, own in zip(rels, repeat(None) if ownship_pos is None else ownship_pos):
            if rel <= script.linger_duration or own is None:
                pos, vel = script.anchor, (0.0, 0.0, 0.0)
            else:
                pos, vel = _pursuit_step(pos if pos is not None else script.anchor, own, script.speed, step)
            path.append(pos)
    return path, (vel if path else None)


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


def _playback(traj: Trajectory, rels: list[float]) -> tuple[list[EnuPoint], Vec3 | None]:
    """Positions at rising times since spawn, none before the first
    sample (intruder_state_at ends the list past the last one), and the
    velocity of the last position's segment, read from the trajectory's
    columns: each segment's ends are looked up once, and every rel in
    the segment is interpolated from them."""
    times, east, north, up = traj.times, traj.east, traj.north, traj.up
    if not rels or rels[0] < times[0]:
        return [], None
    last = len(times) - 1
    path = []
    k = 0
    while k < len(rels):
        # The segment ending at sample i holds rels[k] and the rels after it before times[i].
        i = min(bisect_right(times, rels[k]), last)
        j = bisect_left(rels, times[i], k) if i < last else len(rels)
        h = i - 1
        lo_t, lo_e, lo_n, lo_u = times[h], east[h], north[h], up[h]
        span, d_e, d_n, d_u = times[i] - lo_t, east[i] - lo_e, north[i] - lo_n, up[i] - lo_u
        for rel in rels[k:j]:
            u = (rel - lo_t) / span
            path.append((lo_e + u * d_e, lo_n + u * d_n, lo_u + u * d_u))
        k = j
    return enu_points(path), (d_e / span, d_n / span, d_u / span)
