"""Scenario files, trajectory playback CSVs and scenario packs.

A scenario file is line oriented; ``#`` starts a comment.  Directives:

    SCENARIO <id>
    OWNSHIP <MULTICOPTER|LIFT_CRUISE|TILT_ROTOR|VECTORED_THRUST>
    VERTIPORT <id> <lat_deg> <lon_deg> [NAME=<label>]
    ROUTE <id> <lat,lon> <lat,lon> ...
    PLAN <id>
    INTRUDER <id> <DRONE|BIRD> <PREDICTABLE|UNPREDICTABLE> CSV <path>
    INTRUDER <id> <DRONE|BIRD> <PREDICTABLE|UNPREDICTABLE> SCRIPT <mode> KEY=VALUE ...
    SPAWN <id> AT <seconds> [GROUND]
    SET <GROUP>.<FIELD> <value>

Script keys, each at most once: SPEED, ANCHOR=<east,north,up>, TRACK,
HOLD, OFFSET, DURATION.  SET groups: ENV (safety envelopes), CDR
(decision logic), GROUND (departure check), SIM (engine) and PERF
(ownship performance, whose defaults OWNSHIP picks; it alone says how
the ownship flies, so a route has no altitude).  Any numeric value may
carry a trailing ``ft`` and is converted to metres.  SPAWN times are
relative to the ownship departure unless marked GROUND, which pins the
intruder to the absolute clock and restricts it to the pre-departure
scan.

An id (of a SCENARIO, VERTIPORT, ROUTE or INTRUDER) names output
files and fills CSV cells, so it is made of ASCII letters, digits,
``_``, ``-`` and ``.``, and does not start with ``.``.

PLAN names the route the flight intends to take.  When the departure
check finds that route blocked, it tries the first other ROUTE in file
order; with no other route, the final scan postpones the departure.

Every point is flown in the flat frame centred on V1, so a vertiport,
route point, script anchor or trajectory sample farther than
geo.MAX_PROJECTION_RANGE_M from V1 is an error.

Parsing is whole-file: every malformed line is reported, with its line
number, in a single ScenarioError.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, fields, replace
from itertools import chain, repeat
from operator import add, mul
from pathlib import Path
from typing import Iterator, Sequence

from .agents import (
    DEFAULT_PERFORMANCE,
    MAX_SPEED_M_S,
    PERF_SPEEDS,
    FlightMode,
    IntruderBehavior,
    IntruderKind,
    IntruderRecord,
    OwnshipConfig,
    PerformanceModel,
    ScriptedBehavior,
    ScriptMode,
    Trajectory,
)
from .cdr import MAX_WAITS, CdrParams, GroundCheckParams
from .engine import SimParams
from .envelopes import EnvelopeParams, EnvelopeSet, Zone, envelopes_for
from .geo import (
    MAX_RANGE_SQ,
    EnuPoint,
    GeoPoint,
    GeoRangeError,
    Route,
    Vertiport,
    horizontal_distance,
    in_plane_range,
    plane_offset,
    to_enu,
)
# Written in metrics; perfbench/tracer.py still wraps them by these names.
from .metrics import batch_csv_lines, write_batch_report  # noqa: F401

FT_TO_M = 0.3048

TRAJECTORY_ENU_HEADER = ("t_s", "east_m", "north_m", "up_m")
TRAJECTORY_GEO_HEADER = ("t_s", "lat_deg", "lon_deg", "alt_m")


class ScenarioError(ValueError):
    """One or more problems in a scenario file or trajectory CSV.

    errors holds every (line_number, message) pair found, not just the
    first; line 0 marks file-level problems such as missing mandatory
    directives.  source, when given, names the file in the message.
    """

    def __init__(self, errors: Sequence[tuple[int, str]], source: str | Path | None = None):
        self.errors = sorted(errors)
        detail = "; ".join(f"line {n}: {msg}" for n, msg in self.errors) or "invalid scenario"
        super().__init__(detail if source is None else f"{source}: {detail}")


@dataclass(frozen=True)
class Scenario:
    """Complete, runnable description of one simulated flight."""

    id: str
    ownship_config: OwnshipConfig
    vertiports: dict[str, Vertiport]
    routes: dict[str, Route]
    planned_route: str
    intruders: tuple[IntruderRecord, ...] = ()
    envelope_params: EnvelopeParams = EnvelopeParams()
    cdr_params: CdrParams = CdrParams()
    ground_params: GroundCheckParams = GroundCheckParams()
    sim: SimParams = SimParams()
    # None takes the ownship configuration's default performance.
    perf: PerformanceModel | None = None

    def __post_init__(self) -> None:
        if "V1" not in self.vertiports:
            raise ValueError("scenario needs vertiport V1 as the frame origin")
        if len(self.vertiports) < 2:
            raise ValueError("scenario needs at least two vertiports")
        if self.planned_route not in self.routes:
            raise ValueError(f"planned route {self.planned_route} is not defined")
        if self.perf is None:
            object.__setattr__(self, "perf", DEFAULT_PERFORMANCE[self.ownship_config])

    def destination_id(self, route_id: str) -> str:
        """Vertiport id at the end of the given route, compared in the
        frame the engine flies: the flat plane centred on V1."""
        origin = self.vertiports["V1"].position
        last = to_enu(origin, self.routes[route_id].waypoints[-1])
        return min(
            self.vertiports.values(),
            key=lambda vp: horizontal_distance(to_enu(origin, vp.position), last),
        ).id


# ---------------------------------------------------------------------------
# Trajectory CSVs


def parse_trajectory_csv(text: str, origin: GeoPoint | None = None) -> Trajectory:
    """Parse a playback trajectory.

    Two headers are accepted: local frame (t_s,east_m,north_m,up_m) or
    geodetic (t_s,lat_deg,lon_deg,alt_m).  Geodetic rows are projected
    onto the local frame and need an origin.  Sample times must
    strictly increase.

    A valid file is read in one bulk pass over whole columns; a file
    that pass rejects is read again row by row, to report every bad
    row with its line number.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ScenarioError([(reader.line_num, str(exc))]) from None
    if not rows:
        raise ScenarioError([(1, "empty trajectory file")])
    header = tuple(h.strip() for h in rows[0])
    if header == TRAJECTORY_GEO_HEADER:
        if origin is None:
            raise ScenarioError([(1, "geodetic trajectory needs a projection origin")])
    elif header == TRAJECTORY_ENU_HEADER:
        origin = None
    else:
        raise ScenarioError(
            [(1, f"unrecognised trajectory header {','.join(header)!r}")]
        )
    traj = _trajectory_columns(rows, origin)
    if traj is None:
        raise ScenarioError(_trajectory_row_errors(rows, origin))
    return traj


def _trajectory_columns(rows: list[list[str]], origin: GeoPoint | None) -> Trajectory | None:
    """The trajectory of the data rows below the header (geodetic ones,
    given an origin, projected onto it), or None when any row is bad.

    Each check runs once over whole columns and accepts exactly the
    files the row-by-row reading accepts, with the same floats: every
    row blank or of 4 cells, every cell a float, Trajectory's finite and
    rising columns, and in_plane_range's bound.  Geodetic rows go
    through GeoPoint and to_enu, which raise on a bad one.
    """
    body = rows[1:]
    if not {0, 4}.issuperset(map(len, body)):
        return None
    try:
        vals = list(map(float, chain.from_iterable(body)))
        # a, b, c: east, north and up, or latitude, longitude and altitude
        # to project (unzipping no rows raises ValueError too).
        times, a, b, c = vals[0::4], vals[1::4], vals[2::4], vals[3::4]
        if origin is not None:
            a, b, c = zip(*map(to_enu, repeat(origin), map(GeoPoint, a, b, c)))
        traj = Trajectory(times, a, b, c)
    except ValueError:
        return None
    east, north, up = traj.east, traj.north, traj.up
    if max(map(add, map(add, map(mul, east, east), map(mul, north, north)), map(mul, up, up))) > MAX_RANGE_SQ:
        return None
    return traj


def _trajectory_row_errors(rows: list[list[str]], origin: GeoPoint | None) -> list[tuple[int, str]]:
    """Every (line, message) of a trajectory file the bulk pass rejects,
    found row by row."""
    errors: list[tuple[int, str]] = []
    count = 0
    last_t: float | None = None
    for n, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != 4:
            errors.append((n, f"expected 4 fields, got {len(row)}"))
            continue
        try:
            vals = [float(c) for c in row]
        except ValueError:
            errors.append((n, f"non-numeric field in {','.join(row)!r}"))
            continue
        t = vals[0]
        if not math.isfinite(t):
            errors.append((n, f"non-finite time {row[0]!r}"))
            continue
        if last_t is not None and t <= last_t:
            errors.append((n, f"time {t} does not increase over {last_t}"))
            continue
        last_t = t
        # GeoPoint and EnuPoint reject non-finite coordinates.
        try:
            if origin is not None:
                pos = to_enu(origin, GeoPoint(vals[1], vals[2], vals[3]))
            else:
                pos = EnuPoint(vals[1], vals[2], vals[3])
            in_plane_range(pos)
            count += 1
        except ValueError as exc:
            errors.append((n, str(exc)))

    if not errors and count < 2:
        errors.append((len(rows), "trajectory needs at least two samples"))
    return errors


# ---------------------------------------------------------------------------
# The directive grammar, read by both the parser and the serializer

# SET group -> the Scenario field it overrides, and that field's class.
_SET_GROUPS = {
    "ENV": ("envelope_params", EnvelopeParams),
    "CDR": ("cdr_params", CdrParams),
    "GROUND": ("ground_params", GroundCheckParams),
    "SIM": ("sim", SimParams),
    "PERF": ("perf", PerformanceModel),
}

# The fields a SET line may name, in field order.  Whether the system is
# on is the caller's choice, and the head-on strategy is the airframe's.
_SET_NAMES = {
    group: tuple(f.name for f in fields(cls) if f.name not in ("cas_enabled", "head_on_strategy"))
    for group, (_, cls) in _SET_GROUPS.items()
}

# Each group's default but PERF's, which the ownship configuration picks.
_DEFAULTS = {group: cls() for group, (_, cls) in _SET_GROUPS.items() if group != "PERF"}

# What an id may be; see the module docstring.
_ID = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


def _id_error(what: str, ident: str) -> str:
    return f"{what} id {ident!r} must be letters, digits, '_', '-' or '.', not starting with '.'"


# The directives given at most once, each with one argument.
_SINGLE = {"SCENARIO": "id", "OWNSHIP": "configuration name", "PLAN": "route id"}

# SCRIPT key -> ScriptedBehavior field, in the order the serializer
# writes them.  SPEED and ANCHOR are required; the rest default.
_SCRIPT_FIELDS = {
    "SPEED": "speed",
    "ANCHOR": "anchor",
    "TRACK": "track",
    "HOLD": "linger_duration",
    "OFFSET": "offset",
    "DURATION": "duration",
}
_SCRIPT_DEFAULTS = {f.name: f.default for f in fields(ScriptedBehavior)}


def _num(tok: str) -> float:
    t = tok.strip()
    if t.lower().endswith("ft"):
        v = float(t[:-2]) * FT_TO_M
    else:
        v = float(t)
    if not math.isfinite(v):
        raise ValueError(f"non-finite number {tok!r}")
    return v


def _parse_set_value(group: str, name: str, raw: str) -> object:
    if group == "ENV" and name in ("forward_override", "vertical_override"):
        if raw.upper() == "NONE":
            return None
        parts = raw.split(",")
        if len(parts) != 3:
            raise ValueError("override needs caution,warning,collision radii")
        return EnvelopeSet(*(_num(p) for p in parts))
    if group == "CDR" and name == "tactical_trigger_zone":
        try:
            return Zone[raw.upper()]
        except KeyError:
            raise ValueError(f"unknown zone {raw!r}") from None
    if group == "GROUND" and name == "max_waits":
        v = _num(raw)
        if not v.is_integer():
            raise ValueError(f"{raw!r} is not a whole number")
        if v > MAX_WAITS:
            raise ValueError(f"{raw!r} must not exceed {MAX_WAITS}")
        return int(v)
    if group == "PERF" and name in PERF_SPEEDS and _num(raw) > MAX_SPEED_M_S:
        raise ValueError(f"{raw!r} must not exceed {MAX_SPEED_M_S!r} m/s")
    return _num(raw)


def _fmt_value(v: object) -> str:
    if isinstance(v, Zone):
        return v.name
    if isinstance(v, EnvelopeSet):
        return f"{v.caution_radius!r},{v.warning_radius!r},{v.collision_radius!r}"
    if isinstance(v, EnuPoint):
        return f"{v.east!r},{v.north!r},{v.up!r}"
    return repr(v)


# ---------------------------------------------------------------------------
# Directive parsing


def parse_scenario(text: str, base_dir: str | Path | None = None) -> Scenario:
    """Parse a directive file into a Scenario.

    All problems are collected and raised together as a ScenarioError.
    base_dir anchors relative CSV paths.
    """
    errors: list[tuple[int, str]] = []
    directives: list[tuple[int, list[str]]] = []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            directives.append((n, line.split()))

    # SCENARIO, OWNSHIP and PLAN: (line, argument).
    single: dict[str, tuple[int, str]] = {}
    verts: dict[str, Vertiport] = {}
    routes: dict[str, Route] = {}
    # Every ROUTE line's id, parsed or not, so PLAN reports only a route
    # no line defines.
    route_ids: set[str] = set()
    # The points of each VERTIPORT and ROUTE line, for the range check and
    # the route legs.
    points: list[tuple[int, Sequence[GeoPoint]]] = []
    sets: dict[str, dict[str, object]] = {g: {} for g in _SET_GROUPS}
    intruder_lines: list[tuple[int, list[str]]] = []
    # Every INTRUDER line's id, parsed or not, so SPAWN reports only an
    # intruder no line defines.
    intruder_ids: set[str] = set()
    spawn_lines: list[tuple[int, list[str]]] = []

    for n, toks in directives:
        word = toks[0]
        if word in _SINGLE:
            if len(toks) != 2:
                errors.append((n, f"{word} takes exactly one {_SINGLE[word]}"))
            elif word == "OWNSHIP" and toks[1] not in OwnshipConfig.__members__:
                errors.append((n, f"unknown ownship configuration {toks[1]!r}"))
            elif word in single:
                errors.append((n, f"duplicate {word} directive"))
            elif word == "SCENARIO" and not _ID.fullmatch(toks[1]):
                errors.append((n, _id_error("scenario", toks[1])))
            else:
                single[word] = (n, toks[1])
        elif word == "VERTIPORT":
            name = None
            body = toks[1:]
            if body and body[-1].startswith("NAME="):
                name = body[-1][5:]
                body = body[:-1]
            if len(body) != 3:
                errors.append((n, "VERTIPORT takes id, latitude, longitude"))
                continue
            vid = body[0]
            if not _ID.fullmatch(vid):
                errors.append((n, _id_error("vertiport", vid)))
                continue
            if vid in verts:
                errors.append((n, f"duplicate vertiport {vid!r}"))
                continue
            try:
                pos = GeoPoint(float(body[1]), float(body[2]), 0.0)
            except ValueError as exc:
                errors.append((n, f"bad vertiport position: {exc}"))
                continue
            verts[vid] = Vertiport(vid, name if name is not None else vid, pos)
            points.append((n, (pos,)))
        elif word == "ROUTE":
            route_ids.update(toks[1:2])
            if len(toks) < 4:
                errors.append((n, "ROUTE needs an id and at least two waypoints"))
                continue
            rid = toks[1]
            if not _ID.fullmatch(rid):
                errors.append((n, _id_error("route", rid)))
                continue
            if rid in routes:
                errors.append((n, f"duplicate route {rid!r}"))
                continue
            wpts = []
            for tok in toks[2:]:
                parts = tok.split(",")
                try:
                    if len(parts) != 2:
                        raise ValueError(f"waypoint {tok!r} is not lat,lon")
                    wpts.append(GeoPoint(float(parts[0]), float(parts[1]), 0.0))
                except ValueError as exc:
                    errors.append((n, str(exc)))
            if len(wpts) < len(toks) - 2:
                continue
            try:
                routes[rid] = Route(tuple(wpts))
            except ValueError as exc:
                errors.append((n, str(exc)))
                continue
            points.append((n, wpts))
        elif word == "SET":
            if len(toks) != 3 or "." not in toks[1]:
                errors.append((n, "SET takes GROUP.FIELD and a value"))
                continue
            group, _, fname = toks[1].partition(".")
            fname = fname.lower()
            if group not in _SET_NAMES or fname not in _SET_NAMES[group]:
                errors.append((n, f"unknown parameter {toks[1]!r}"))
                continue
            try:
                sets[group][fname] = _parse_set_value(group, fname, toks[2])
            except ValueError as exc:
                errors.append((n, f"{toks[1]}: {exc}"))
        elif word == "INTRUDER":
            intruder_ids.update(toks[1:2])
            intruder_lines.append((n, toks))
        elif word == "SPAWN":
            spawn_lines.append((n, toks))
        else:
            errors.append((n, f"unknown directive {word!r}"))

    v1pos = verts["V1"].position if "V1" in verts else None
    legs = []  # the horizontal length of each route leg in the frame
    if v1pos is not None:
        for n, line_points in points:
            offsets = []
            for p in line_points:
                try:
                    offsets.append(plane_offset(v1pos, p))
                except GeoRangeError as exc:
                    errors.append((n, str(exc)))
            if len(offsets) == len(line_points):
                legs += map(math.dist, offsets, offsets[1:])

    # The IntruderRecord arguments of each INTRUDER line that parses, by
    # id; SPAWN adds the spawn time before any record is built.
    intruders: dict[str, dict[str, object]] = {}
    for n, toks in intruder_lines:
        if len(toks) < 6:
            errors.append((n, "INTRUDER needs id, kind, behaviour, and a source"))
            continue
        iid, kind_tok, beh_tok, src_tok = toks[1], toks[2], toks[3], toks[4]
        if not _ID.fullmatch(iid):
            errors.append((n, _id_error("intruder", iid)))
            continue
        if iid in intruders:
            errors.append((n, f"duplicate intruder {iid!r}"))
            continue
        kind = IntruderKind.__members__.get(kind_tok)
        behavior = IntruderBehavior.__members__.get(beh_tok)
        if kind is None:
            errors.append((n, f"unknown intruder kind {kind_tok!r}"))
            continue
        if behavior is None:
            errors.append((n, f"unknown behaviour {beh_tok!r}"))
            continue
        if src_tok == "CSV":
            if len(toks) != 6:
                errors.append((n, "CSV source takes exactly one path"))
                continue
            rel = toks[5]
            path = Path(base_dir) / rel if base_dir is not None else Path(rel)
            try:
                traj = parse_trajectory_csv(path.read_text(encoding="utf-8-sig"), v1pos)
            except (OSError, UnicodeDecodeError) as exc:
                errors.append((n, f"cannot read {rel!r}: {exc}"))
                continue
            except ScenarioError as exc:
                errors.append((n, f"{rel}: {exc}"))
                continue
            source = {"trajectory": traj, "csv_path": rel}
        elif src_tok == "SCRIPT":
            mode = ScriptMode.__members__.get(toks[5])
            if mode is None:
                errors.append((n, "SCRIPT source needs a mode: PASS_BY, LINGER or PURSUIT"))
                continue
            kv: dict[str, str] = {}
            errors_before = len(errors)
            for tok in toks[6:]:
                key, eq, val = tok.partition("=")
                if not eq or key not in _SCRIPT_FIELDS:
                    errors.append((n, f"bad script argument {tok!r}"))
                elif key in kv:
                    errors.append((n, f"duplicate script argument {key!r}"))
                kv[key] = val
            if len(errors) > errors_before:
                continue
            missing = [k for k in ("SPEED", "ANCHOR") if k not in kv]
            if missing:
                errors.append((n, f"script missing {' and '.join(missing)}"))
                continue
            try:
                anchor = kv.pop("ANCHOR").split(",")
                if len(anchor) != 3:
                    raise ValueError("ANCHOR needs east,north,up")
                script = ScriptedBehavior(
                    mode=mode,
                    anchor=in_plane_range(EnuPoint(*(_num(p) for p in anchor))),
                    **{_SCRIPT_FIELDS[k]: _num(v) for k, v in kv.items()},
                )
            except ValueError as exc:
                errors.append((n, f"bad script: {exc}"))
                continue
            source = {"script": script}
        else:
            errors.append((n, f"intruder source must be CSV or SCRIPT, not {src_tok!r}"))
            continue
        intruders[iid] = {"id": iid, "kind": kind, "behavior": behavior, **source}

    for n, toks in spawn_lines:
        if len(toks) not in (4, 5) or toks[2] != "AT" or (len(toks) == 5 and toks[4] != "GROUND"):
            errors.append((n, "SPAWN takes: SPAWN <id> AT <seconds> [GROUND]"))
            continue
        iid = toks[1]
        if iid not in intruders:
            if iid not in intruder_ids:
                errors.append((n, f"SPAWN references unknown intruder {iid!r}"))
            continue
        if "spawn_time" in intruders[iid]:
            errors.append((n, f"duplicate SPAWN for {iid!r}"))
            continue
        try:
            t = _num(toks[3])
        except ValueError:
            errors.append((n, f"bad spawn time {toks[3]!r}"))
            continue
        intruders[iid].update(spawn_time=t, ground_clock=len(toks) == 5)

    errors.extend((0, f"missing {w} directive") for w in ("OWNSHIP", "PLAN") if w not in single)
    config = OwnshipConfig[single["OWNSHIP"][1]] if "OWNSHIP" in single else None
    plan_line, planned = single.get("PLAN", (0, None))
    if len(verts) < 2:
        errors.append((0, "need at least two VERTIPORT directives"))
    if "V1" not in verts:
        errors.append((0, "vertiport V1 (frame origin) is required"))
    if planned is not None and planned not in route_ids:
        errors.append((plan_line, f"planned route {planned} is not defined"))

    defaults = _DEFAULTS if config is None else {**_DEFAULTS, "PERF": DEFAULT_PERFORMANCE[config]}
    params: dict[str, object] = {}
    for group, default in defaults.items():
        try:
            params[group] = replace(default, **sets[group]) if sets[group] else default
        except ValueError as exc:
            errors.append((0, f"{group} parameters: {exc}"))
    # A bird or DESCEND head-on encounter commands a descent from cruise
    # to CDR.DESCEND_ALT_M, which must therefore lie between the ground
    # and the cruise altitude.
    if "PERF" in params and "CDR" in params:
        cruise_alt, descend_alt = params["PERF"].cruise_alt, params["CDR"].descend_alt_m
        if not 0.0 < descend_alt < cruise_alt:
            errors.append((0, (
                f"CDR.DESCEND_ALT_M ({descend_alt!r}) must lie above 0 and below "
                f"PERF.CRUISE_ALT ({cruise_alt!r})"
            )))
    # A hold longer than the whole run could never end an encounter.
    if "CDR" in params and "SIM" in params:
        hold, max_time = params["CDR"].hold_duration, params["SIM"].max_sim_time
        if hold > max_time:
            errors.append((0, (
                f"CDR.HOLD_DURATION ({hold!r}) must not exceed SIM.MAX_SIM_TIME ({max_time!r})"
            )))
    # A capture radius as wide as a leg captures the leg's end from its
    # start, so the flight would skip legs it never flew.
    leg = min(legs, default=math.inf)
    if "PERF" in params and params["PERF"].capture_radius >= leg:
        radius = params["PERF"].capture_radius
        errors.append((0, f"PERF.CAPTURE_RADIUS ({radius!r}) must be below the shortest route leg ({leg!r} m)"))
    # A climb and descent that alone outlast the whole run could never land.
    if "PERF" in params and "SIM" in params:
        perf, max_time = params["PERF"], params["SIM"].max_sim_time
        vertical = perf.cruise_alt / perf.climb_rate + perf.cruise_alt / perf.descent_rate
        if vertical > max_time:
            errors.append((0, (
                f"PERF.CRUISE_ALT ({perf.cruise_alt!r}) takes {vertical!r} s to climb and descend, "
                f"more than SIM.MAX_SIM_TIME ({max_time!r})"
            )))
    # The run builds the forward and the vertical envelope set from ENV
    # and the cruise speed; their radii must be in order.
    if "PERF" in params and "ENV" in params:
        try:
            for mode in (FlightMode.CRUISE, FlightMode.HOVER):
                envelopes_for(params["PERF"], mode, params["ENV"])
        except ValueError as exc:
            errors.append((0, f"ENV parameters: {exc}"))

    if errors:
        raise ScenarioError(errors)

    return Scenario(
        id=single.get("SCENARIO", (0, "scenario"))[1],
        ownship_config=config,
        vertiports=verts,
        routes=routes,
        planned_route=planned,
        intruders=tuple(IntruderRecord(**args) for args in intruders.values()),
        **{field: params[group] for group, (field, _) in _SET_GROUPS.items()},
    )


def load_scenario(path: str | Path) -> Scenario:
    """Parse a directive file; a ScenarioError names the file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ScenarioError([(0, f"not UTF-8 text: {exc}")], source=p) from None
    try:
        return parse_scenario(text, base_dir=p.parent)
    except ScenarioError as exc:
        raise ScenarioError(exc.errors, source=p) from None


# ---------------------------------------------------------------------------
# Serialization


def _intruder_lines(rec: IntruderRecord) -> list[str]:
    head = f"INTRUDER {rec.id} {rec.kind.name} {rec.behavior.name}"
    if rec.trajectory is not None:
        if rec.csv_path is None:
            raise ScenarioError([(0, f"intruder {rec.id!r} has no source path to serialize")])
        lines = [f"{head} CSV {rec.csv_path}"]
    else:
        parts = [f"{head} SCRIPT {rec.script.mode.name}"]
        for key, name in _SCRIPT_FIELDS.items():
            v = getattr(rec.script, name)
            if v != _SCRIPT_DEFAULTS[name]:
                parts.append(f"{key}={_fmt_value(v)}")
        lines = [" ".join(parts)]
    if rec.spawn_time != 0.0 or rec.ground_clock:
        spawn = f"SPAWN {rec.id} AT {rec.spawn_time!r}"
        if rec.ground_clock:
            spawn += " GROUND"
        lines.append(spawn)
    return lines


def _trajectory_csv(traj: Trajectory) -> str:
    """traj as a local-frame CSV that parse_trajectory_csv reads back
    into an equal Trajectory, whatever frame its source file used."""
    rows = [",".join(TRAJECTORY_ENU_HEADER)]
    rows += map("%r,%r,%r,%r".__mod__, zip(traj.times, traj.east, traj.north, traj.up))
    return "\n".join(rows) + "\n"


def serialize_scenario(sc: Scenario) -> str:
    """Render a Scenario back into directive form.

    parse_scenario(serialize_scenario(sc)) reconstructs an equal
    Scenario for any scenario whose intruders carry their sources.
    """
    lines = [f"SCENARIO {sc.id}", f"OWNSHIP {sc.ownship_config.name}"]
    defaults = {**_DEFAULTS, "PERF": DEFAULT_PERFORMANCE[sc.ownship_config]}
    for group, (field, _) in _SET_GROUPS.items():
        current, default = getattr(sc, field), defaults[group]
        for name in _SET_NAMES[group]:
            v = getattr(current, name)
            if v != getattr(default, name):
                lines.append(f"SET {group}.{name.upper()} {_fmt_value(v)}")
    for vid in sorted(sc.vertiports):
        vp = sc.vertiports[vid]
        line = f"VERTIPORT {vp.id} {vp.position.lat!r} {vp.position.lon!r}"
        if vp.name != vp.id:
            line += f" NAME={vp.name}"
        lines.append(line)
    for rid, r in sc.routes.items():
        wpts = " ".join(f"{p.lat!r},{p.lon!r}" for p in r.waypoints)
        lines.append(f"ROUTE {rid} {wpts}")
    lines.append(f"PLAN {sc.planned_route}")
    for rec in sc.intruders:
        lines.extend(_intruder_lines(rec))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scenario packs


@dataclass(frozen=True)
class ScenarioPack:
    """Scenarios plus, for a pack loaded from a directory, that directory,
    which anchors the scenarios' relative CSV paths."""

    scenarios: tuple[Scenario, ...]
    base_dir: Path | None = None

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    def ids(self) -> list[str]:
        return [sc.id for sc in self.scenarios]

    def __getitem__(self, scenario_id: str) -> Scenario:
        for sc in self.scenarios:
            if sc.id == scenario_id:
                return sc
        raise KeyError(scenario_id)


def load_pack(source: str | Path) -> ScenarioPack:
    """Load a directory of .scn directive files, sorted by filename; no
    two may declare the same scenario id."""
    root = Path(source)
    if not root.is_dir():
        raise ScenarioError([(0, f"pack directory {str(root)!r} does not exist")])
    files = sorted(root.glob("*.scn"))
    if not files:
        raise ScenarioError([(0, f"no .scn files in {str(root)!r}")])
    scenarios = []
    first_file: dict[str, Path] = {}
    for f in files:
        sc = load_scenario(f)
        if sc.id in first_file:
            dup = f"scenario id {sc.id!r} is also declared by {first_file[sc.id]}"
            raise ScenarioError([(0, dup)], source=f)
        first_file[sc.id] = f
        scenarios.append(sc)
    return ScenarioPack(tuple(scenarios), root)


def export_pack(pack: ScenarioPack, out_dir: str | Path) -> list[Path]:
    """Write each scenario to <id>.scn under out_dir, and each trajectory
    it replays beside it, to <scenario id>@<intruder id>.csv, so the
    export loads as a pack of its own.  Returns the .scn paths.  Before
    writing, every other .scn already in out_dir must load and declare
    none of the exported ids, since the export would then no longer load."""
    out = Path(out_dir)
    ids = {sc.id for sc in pack}
    for f in sorted(out.glob("*.scn")):
        if f.stem not in ids and (sid := load_scenario(f).id) in ids:
            raise ValueError(f"{f} declares scenario id {sid!r}, which the export writes to {sid}.scn; "
                             "export to another directory")
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for sc in pack:
        intruders = []
        for rec in sc.intruders:
            if rec.trajectory is not None:
                name = f"{sc.id}@{rec.id}.csv"
                (out / name).write_text(_trajectory_csv(rec.trajectory), encoding="utf-8")
                rec = replace(rec, csv_path=name)
            intruders.append(rec)
        path = out / f"{sc.id}.scn"
        text = serialize_scenario(replace(sc, intruders=tuple(intruders)))
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written
