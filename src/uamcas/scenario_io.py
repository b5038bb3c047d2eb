"""Scenario files, trajectory playback CSVs, the built-in scenario pack,
and run and batch report output.

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

Script keys: SPEED, ANCHOR=<east,north,up>, TRACK, HOLD, OFFSET,
DURATION.  SET groups: ENV (safety envelopes), CDR (decision logic),
GROUND (departure check), SIM (engine) and PERF (ownship performance,
whose defaults OWNSHIP picks; it alone says how the ownship flies, so a
route has no altitude).  Any numeric value may carry a trailing ``ft``
and is converted to metres.  SPAWN times are relative to the ownship
departure unless marked GROUND, which pins the intruder to the
absolute clock and restricts it to the pre-departure scan.

A route id is any name token; PLAN names the route the flight intends
to take.  When the departure check finds that route blocked, it tries
the first other ROUTE in file order; with no other route, the final
scan postpones the departure.

Parsing is whole-file: every malformed line is reported, with its line
number, in a single ScenarioError.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterator, Sequence

from .agents import (
    DEFAULT_CRUISE_ALT_M,
    DEFAULT_PERFORMANCE,
    FlightMode,
    IntruderBehavior,
    IntruderKind,
    IntruderRecord,
    IntruderSource,
    OwnshipConfig,
    PerformanceModel,
    ScriptedBehavior,
    ScriptMode,
    Trajectory,
)
from .cdr import CdrParams, GroundCheckParams
from .engine import SimParams
from .envelopes import EnvelopeParams, EnvelopeSet, Zone, envelopes_for
from .geo import (
    EnuPoint,
    GeoPoint,
    Route,
    Vertiport,
    bearing,
    from_enu,
    horizontal_distance,
    polyline_length_enu,
    polyline_point_at,
    to_enu,
    track_unit,
)

FT_TO_M = 0.3048

TRAJECTORY_ENU_HEADER = ("t_s", "east_m", "north_m", "up_m")
TRAJECTORY_GEO_HEADER = ("t_s", "lat_deg", "lon_deg", "alt_m")


class ScenarioError(ValueError):
    """One or more problems in a scenario file or trajectory CSV.

    errors holds every (line_number, message) pair found, not just the
    first; line 0 marks file-level problems such as missing mandatory
    directives.
    """

    def __init__(self, errors: Sequence[tuple[int, str]]):
        self.errors = sorted(errors)
        detail = "; ".join(f"line {n}: {msg}" for n, msg in self.errors)
        super().__init__(detail or "invalid scenario")


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
        """Vertiport id at the end of the given route."""
        route = self.routes[route_id]
        origin = route.waypoints[0]
        last = to_enu(origin, route.waypoints[-1])
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
    """
    rows = list(csv.reader(io.StringIO(text)))
    errors: list[tuple[int, str]] = []
    if not rows:
        raise ScenarioError([(1, "empty trajectory file")])
    header = tuple(h.strip() for h in rows[0])
    geodetic = False
    if header == TRAJECTORY_GEO_HEADER:
        geodetic = True
        if origin is None:
            raise ScenarioError([(1, "geodetic trajectory needs a projection origin")])
    elif header != TRAJECTORY_ENU_HEADER:
        raise ScenarioError(
            [(1, f"unrecognised trajectory header {','.join(header)!r}")]
        )

    samples: list[tuple[float, EnuPoint]] = []
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
            if geodetic:
                pos = to_enu(origin, GeoPoint(vals[1], vals[2], vals[3]))
            else:
                pos = EnuPoint(vals[1], vals[2], vals[3])
        except ValueError as exc:
            errors.append((n, str(exc)))
            continue
        samples.append((t, pos))

    if not errors and len(samples) < 2:
        errors.append((len(rows), "trajectory needs at least two samples"))
    if errors:
        raise ScenarioError(errors)
    return Trajectory(tuple(samples))


def load_trajectory_csv(path: str | Path, origin: GeoPoint | None = None) -> Trajectory:
    return parse_trajectory_csv(Path(path).read_text(encoding="utf-8"), origin)


# ---------------------------------------------------------------------------
# Directive parsing


_CONFIG_NAMES = {c.name: c for c in OwnshipConfig}
_KIND_NAMES = {k.name: k for k in IntruderKind}
_BEHAVIOR_NAMES = {b.name: b for b in IntruderBehavior}
_MODE_NAMES = {m.name: m for m in ScriptMode}

# Defaults of the SET groups that build one typed object each; PERF's
# default depends on the ownship configuration.
_GROUP_DEFAULTS = {
    "ENV": EnvelopeParams(),
    "CDR": CdrParams(),
    "GROUND": GroundCheckParams(),
    "SIM": SimParams(),
}

# The fields a SET line may name, in field order.  Whether the system is
# on is the caller's choice, and the head-on strategy is the airframe's.
_SET_GROUPS: dict[str, tuple[str, ...]] = {
    group: tuple(f.name for f in fields(d) if f.name not in ("cas_enabled", "head_on_strategy"))
    for group, d in {**_GROUP_DEFAULTS, "PERF": PerformanceModel}.items()
}

_SCRIPT_KEYS = ("SPEED", "ANCHOR", "TRACK", "HOLD", "OFFSET", "DURATION")


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
        return int(_num(raw))
    return _num(raw)


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

    sid: str | None = None
    config: OwnshipConfig | None = None
    verts: dict[str, Vertiport] = {}
    routes: dict[str, Route] = {}
    # Ids of ROUTE lines already reported, so PLAN does not report them again.
    rejected_routes: set[str] = set()
    planned: str | None = None
    plan_line = 0
    sets: dict[str, dict[str, object]] = {g: {} for g in _SET_GROUPS}
    intruder_lines: list[tuple[int, list[str]]] = []
    spawn_lines: list[tuple[int, list[str]]] = []

    for n, toks in directives:
        word = toks[0]
        if word == "SCENARIO":
            if len(toks) != 2:
                errors.append((n, "SCENARIO takes exactly one id"))
            elif sid is not None:
                errors.append((n, "duplicate SCENARIO directive"))
            else:
                sid = toks[1]
        elif word == "OWNSHIP":
            if len(toks) != 2:
                errors.append((n, "OWNSHIP takes exactly one configuration name"))
            elif toks[1] not in _CONFIG_NAMES:
                errors.append((n, f"unknown ownship configuration {toks[1]!r}"))
            elif config is not None:
                errors.append((n, "duplicate OWNSHIP directive"))
            else:
                config = _CONFIG_NAMES[toks[1]]
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
            if vid in verts:
                errors.append((n, f"duplicate vertiport {vid!r}"))
                continue
            try:
                pos = GeoPoint(float(body[1]), float(body[2]), 0.0)
            except ValueError as exc:
                errors.append((n, f"bad vertiport position: {exc}"))
                continue
            verts[vid] = Vertiport(vid, name if name is not None else vid, pos)
        elif word == "ROUTE":
            if len(toks) < 4:
                errors.append((n, "ROUTE needs an id and at least two waypoints"))
                if len(toks) > 1:
                    rejected_routes.add(toks[1])
                continue
            rid = toks[1]
            if rid in routes:
                errors.append((n, f"duplicate route {rid!r}"))
                continue
            wpts = []
            bad = False
            for tok in toks[2:]:
                parts = tok.split(",")
                try:
                    if len(parts) != 2:
                        raise ValueError(f"waypoint {tok!r} is not lat,lon")
                    wpts.append(GeoPoint(float(parts[0]), float(parts[1]), 0.0))
                except ValueError as exc:
                    errors.append((n, str(exc)))
                    bad = True
            if bad:
                rejected_routes.add(rid)
                continue
            try:
                routes[rid] = Route(tuple(wpts))
            except ValueError as exc:
                errors.append((n, str(exc)))
                rejected_routes.add(rid)
        elif word == "PLAN":
            if len(toks) != 2:
                errors.append((n, "PLAN takes exactly one route id"))
            elif planned is not None:
                errors.append((n, "duplicate PLAN directive"))
            else:
                planned = toks[1]
                plan_line = n
        elif word == "SET":
            if len(toks) != 3 or "." not in toks[1]:
                errors.append((n, "SET takes GROUP.FIELD and a value"))
                continue
            group, _, fname = toks[1].partition(".")
            fname = fname.lower()
            if group not in _SET_GROUPS or fname not in _SET_GROUPS[group]:
                errors.append((n, f"unknown parameter {toks[1]!r}"))
                continue
            try:
                sets[group][fname] = _parse_set_value(group, fname, toks[2])
            except ValueError as exc:
                errors.append((n, f"{toks[1]}: {exc}"))
        elif word == "INTRUDER":
            intruder_lines.append((n, toks))
        elif word == "SPAWN":
            spawn_lines.append((n, toks))
        else:
            errors.append((n, f"unknown directive {word!r}"))

    v1pos = verts["V1"].position if "V1" in verts else None
    intruders: list[IntruderRecord] = []
    index_of: dict[str, int] = {}
    for n, toks in intruder_lines:
        if len(toks) < 6:
            errors.append((n, "INTRUDER needs id, kind, behaviour, and a source"))
            continue
        iid, kind_tok, beh_tok, src_tok = toks[1], toks[2], toks[3], toks[4]
        if iid in index_of:
            errors.append((n, f"duplicate intruder {iid!r}"))
            continue
        if kind_tok not in _KIND_NAMES:
            errors.append((n, f"unknown intruder kind {kind_tok!r}"))
            continue
        if beh_tok not in _BEHAVIOR_NAMES:
            errors.append((n, f"unknown behaviour {beh_tok!r}"))
            continue
        kind = _KIND_NAMES[kind_tok]
        behavior = _BEHAVIOR_NAMES[beh_tok]
        if src_tok == "CSV":
            if len(toks) != 6:
                errors.append((n, "CSV source takes exactly one path"))
                continue
            rel = toks[5]
            path = Path(base_dir) / rel if base_dir is not None else Path(rel)
            try:
                traj = load_trajectory_csv(path, v1pos)
            except OSError as exc:
                errors.append((n, f"cannot read {rel!r}: {exc}"))
                continue
            except ScenarioError as exc:
                errors.append((n, f"{rel}: {exc}"))
                continue
            rec = IntruderRecord(
                iid, kind, behavior, IntruderSource.CSV_TRAJECTORY,
                trajectory=traj, csv_path=rel,
            )
        elif src_tok == "SCRIPT":
            if len(toks) < 6 or toks[5] not in _MODE_NAMES:
                errors.append((n, "SCRIPT source needs a mode: PASS_BY, LINGER or PURSUIT"))
                continue
            kv: dict[str, str] = {}
            bad = False
            for tok in toks[6:]:
                key, eq, val = tok.partition("=")
                if not eq or key not in _SCRIPT_KEYS:
                    errors.append((n, f"bad script argument {tok!r}"))
                    bad = True
                    continue
                kv[key] = val
            if bad:
                continue
            missing = [k for k in ("SPEED", "ANCHOR") if k not in kv]
            if missing:
                errors.append((n, f"script missing {' and '.join(missing)}"))
                continue
            try:
                anchor_parts = kv["ANCHOR"].split(",")
                if len(anchor_parts) != 3:
                    raise ValueError("ANCHOR needs east,north,up")
                anchor = EnuPoint(*(_num(p) for p in anchor_parts))
                script = ScriptedBehavior(
                    mode=_MODE_NAMES[toks[5]],
                    speed=_num(kv["SPEED"]),
                    anchor=anchor,
                    track=_num(kv["TRACK"]) if "TRACK" in kv else 0.0,
                    linger_duration=_num(kv["HOLD"]) if "HOLD" in kv else 0.0,
                    offset=_num(kv["OFFSET"]) if "OFFSET" in kv else 0.0,
                    duration=_num(kv["DURATION"]) if "DURATION" in kv else None,
                )
            except ValueError as exc:
                errors.append((n, f"bad script: {exc}"))
                continue
            rec = IntruderRecord(iid, kind, behavior, IntruderSource.SCRIPTED, script=script)
        else:
            errors.append((n, f"intruder source must be CSV or SCRIPT, not {src_tok!r}"))
            continue
        index_of[iid] = len(intruders)
        intruders.append(rec)

    spawned: set[str] = set()
    for n, toks in spawn_lines:
        if len(toks) not in (4, 5) or toks[2] != "AT" or (len(toks) == 5 and toks[4] != "GROUND"):
            errors.append((n, "SPAWN takes: SPAWN <id> AT <seconds> [GROUND]"))
            continue
        iid = toks[1]
        if iid not in index_of:
            errors.append((n, f"SPAWN references unknown intruder {iid!r}"))
            continue
        if iid in spawned:
            errors.append((n, f"duplicate SPAWN for {iid!r}"))
            continue
        try:
            t = _num(toks[3])
        except ValueError:
            errors.append((n, f"bad spawn time {toks[3]!r}"))
            continue
        spawned.add(iid)
        i = index_of[iid]
        intruders[i] = replace(intruders[i], spawn_time=t, ground_clock=len(toks) == 5)

    if config is None:
        errors.append((0, "missing OWNSHIP directive"))
    if planned is None:
        errors.append((0, "missing PLAN directive"))
    if len(verts) < 2:
        errors.append((0, "need at least two VERTIPORT directives"))
    if "V1" not in verts:
        errors.append((0, "vertiport V1 (frame origin) is required"))
    if planned is not None and planned not in routes and planned not in rejected_routes:
        errors.append((plan_line, f"planned route {planned} is not defined"))

    defaults = dict(_GROUP_DEFAULTS)
    if config is not None:
        defaults["PERF"] = DEFAULT_PERFORMANCE[config]
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
        id=sid if sid is not None else "scenario",
        ownship_config=config,
        vertiports=verts,
        routes=routes,
        planned_route=planned,
        intruders=tuple(intruders),
        envelope_params=params["ENV"],
        cdr_params=params["CDR"],
        ground_params=params["GROUND"],
        sim=params["SIM"],
        perf=params["PERF"],
    )


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    return parse_scenario(p.read_text(encoding="utf-8"), base_dir=p.parent)


# ---------------------------------------------------------------------------
# Serialization


def _fmt_set_value(v: object) -> str:
    if isinstance(v, Zone):
        return v.name
    if isinstance(v, EnvelopeSet):
        return f"{v.caution_radius!r},{v.warning_radius!r},{v.collision_radius!r}"
    return repr(v)


def _intruder_lines(rec: IntruderRecord) -> list[str]:
    head = f"INTRUDER {rec.id} {rec.kind.name} {rec.behavior.name}"
    if rec.source is IntruderSource.CSV_TRAJECTORY:
        if rec.csv_path is None:
            raise ScenarioError([(0, f"intruder {rec.id!r} has no source path to serialize")])
        lines = [f"{head} CSV {rec.csv_path}"]
    else:
        s = rec.script
        parts = [
            f"{head} SCRIPT {s.mode.name}",
            f"SPEED={s.speed!r}",
            f"ANCHOR={s.anchor.east!r},{s.anchor.north!r},{s.anchor.up!r}",
        ]
        if s.track != 0.0:
            parts.append(f"TRACK={s.track!r}")
        if s.linger_duration != 0.0:
            parts.append(f"HOLD={s.linger_duration!r}")
        if s.offset != 0.0:
            parts.append(f"OFFSET={s.offset!r}")
        if s.duration is not None:
            parts.append(f"DURATION={s.duration!r}")
        lines = [" ".join(parts)]
    if rec.spawn_time != 0.0 or rec.ground_clock:
        spawn = f"SPAWN {rec.id} AT {rec.spawn_time!r}"
        if rec.ground_clock:
            spawn += " GROUND"
        lines.append(spawn)
    return lines


def serialize_scenario(sc: Scenario) -> str:
    """Render a Scenario back into directive form.

    parse_scenario(serialize_scenario(sc)) reconstructs an equal
    Scenario for any scenario whose intruders carry their sources.
    """
    lines = [f"SCENARIO {sc.id}", f"OWNSHIP {sc.ownship_config.name}"]
    for group, current, default in (
        ("ENV", sc.envelope_params, _GROUP_DEFAULTS["ENV"]),
        ("CDR", sc.cdr_params, _GROUP_DEFAULTS["CDR"]),
        ("GROUND", sc.ground_params, _GROUP_DEFAULTS["GROUND"]),
        ("SIM", sc.sim, _GROUP_DEFAULTS["SIM"]),
        ("PERF", sc.perf, DEFAULT_PERFORMANCE[sc.ownship_config]),
    ):
        for name in _SET_GROUPS[group]:
            v = getattr(current, name)
            if v != getattr(default, name):
                lines.append(f"SET {group}.{name.upper()} {_fmt_set_value(v)}")
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
# Built-in scenario pack
#
# A three-vertiport network around Munich: V1 at the airport, V2 in the
# city centre, V3 at a small airfield between them.  Route 1 is the
# direct corridor V1-V2 bowed east of the straight line; route 2 dog-legs
# north-west through V3.  Leg shaping is solved numerically so the
# polylines hit the published corridor lengths exactly.

V1_GEO = GeoPoint(48.3537, 11.786, 0.0)
V2_GEO = GeoPoint(48.1669, 11.5883, 0.0)
V3_GEO = GeoPoint(48.2394, 11.5614, 0.0)
ROUTE1_LENGTH_M = 26_000.0
ROUTE2_LENGTH_M = 30_000.0

_INTRUDER_ALT_M = DEFAULT_CRUISE_ALT_M
_GROUND_INTRUDER_ALT_M = 100.0


def _lerp(a: EnuPoint, b: EnuPoint, f: float) -> EnuPoint:
    return EnuPoint(a.east + f * (b.east - a.east), a.north + f * (b.north - a.north), 0.0)


def _shift(p: EnuPoint, track_deg: float, dist: float, up: float | None = None) -> EnuPoint:
    ue, un = track_unit(track_deg)
    return EnuPoint(p.east + dist * ue, p.north + dist * un, p.up if up is None else up)


def _solve_width(length_fn, target: float) -> float:
    # length grows monotonically with the bow width; bisect to machine
    # precision so the pack is reproducible bit for bit.
    lo, hi = 0.0, 20_000.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if length_fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _build_network() -> tuple[dict[str, Vertiport], dict[str, Route], tuple, tuple]:
    origin = V1_GEO
    p1 = EnuPoint(0.0, 0.0, 0.0)
    p2 = to_enu(origin, V2_GEO)
    p3 = to_enu(origin, V3_GEO)

    brg12 = bearing(p1, p2)

    def route1_pts(w: float) -> tuple[EnuPoint, ...]:
        a = _shift(_lerp(p1, p2, 1.0 / 3.0), brg12 - 90.0, w)
        b = _shift(_lerp(p1, p2, 2.0 / 3.0), brg12 - 90.0, w)
        return (p1, a, b, p2)

    w1 = _solve_width(lambda w: polyline_length_enu(route1_pts(w)), ROUTE1_LENGTH_M)
    r1_enu = route1_pts(w1)

    brg13 = bearing(p1, p3)

    def route2_pts(w: float) -> tuple[EnuPoint, ...]:
        c = _shift(_lerp(p1, p3, 0.5), brg13 + 90.0, w)
        return (p1, c, p3, p2)

    w2 = _solve_width(lambda w: polyline_length_enu(route2_pts(w)), ROUTE2_LENGTH_M)
    r2_enu = route2_pts(w2)

    def mk_route(pts: Sequence[EnuPoint]) -> Route:
        return Route(tuple(from_enu(origin, p) for p in pts))

    verts = {
        "V1": Vertiport("V1", "EDDM", V1_GEO),
        "V2": Vertiport("V2", "MUC-HBF", V2_GEO),
        "V3": Vertiport("V3", "EDNX", V3_GEO),
    }
    routes = {"ROUTE1": mk_route(r1_enu), "ROUTE2": mk_route(r2_enu)}
    return verts, routes, r1_enu, r2_enu


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


def default_pack() -> ScenarioPack:
    """The built-in evaluation pack.

    Two intruder-free references, five departure-check setups covering
    every strategic outcome, and fourteen airborne encounters spanning
    the right-of-way table, both intruder kinds, both behaviours, and
    all four encounter locations.  All spawn times are departure
    relative except the pre-departure (GROUND) loiterers.
    """
    verts, routes, r1, r2 = _build_network()
    perf = DEFAULT_PERFORMANCE[OwnshipConfig.VECTORED_THRUST]
    climb_time = perf.cruise_alt / perf.climb_rate

    def t_pass(arc: float) -> float:
        # Departure-relative time at which the undisturbed ownship
        # reaches the given arc position.
        return climb_time + arc / perf.cruise_speed

    def at(poly: Sequence[EnuPoint], arc: float, up: float = _INTRUDER_ALT_M) -> EnuPoint:
        p, _ = polyline_point_at(poly, arc)
        return EnuPoint(p.east, p.north, up)

    def track_at(poly: Sequence[EnuPoint], arc: float) -> float:
        return polyline_point_at(poly, arc)[1]

    def abeam(
        poly: Sequence[EnuPoint], arc: float, side: float, dist: float,
        up: float = _INTRUDER_ALT_M,
    ) -> EnuPoint:
        # side +90 is starboard of the route direction, -90 port.
        p, trk = polyline_point_at(poly, arc)
        return _shift(p, trk + side, dist, up)

    def linger(iid, anchor, hold, spawn, *, ground=False,
               kind=IntruderKind.DRONE, behavior=IntruderBehavior.UNPREDICTABLE):
        return IntruderRecord(
            iid, kind, behavior, IntruderSource.SCRIPTED,
            spawn_time=spawn, ground_clock=ground,
            script=ScriptedBehavior(
                ScriptMode.LINGER, speed=1.0, anchor=anchor, linger_duration=hold
            ),
        )

    def passby(iid, anchor, track, speed, spawn, duration, *,
               kind=IntruderKind.DRONE, behavior=IntruderBehavior.PREDICTABLE,
               ground=False, offset=0.0):
        return IntruderRecord(
            iid, kind, behavior, IntruderSource.SCRIPTED,
            spawn_time=spawn, ground_clock=ground,
            script=ScriptedBehavior(
                ScriptMode.PASS_BY, speed=speed, anchor=anchor, track=track,
                offset=offset, duration=duration,
            ),
        )

    def pursuit(iid, anchor, speed, spawn, *, hold=0.0, duration=None,
                kind=IntruderKind.DRONE, behavior=IntruderBehavior.UNPREDICTABLE):
        return IntruderRecord(
            iid, kind, behavior, IntruderSource.SCRIPTED,
            spawn_time=spawn,
            script=ScriptedBehavior(
                ScriptMode.PURSUIT, speed=speed, anchor=anchor,
                linger_duration=hold, duration=duration,
            ),
        )

    def crossing(iid, poly, aim_arc, late_s, speed, spawn, duration, *, behavior):
        # Straight line cutting the route at right angles from the port
        # side, through the aim point late_s seconds after the
        # undisturbed ownship passes it.
        leg = track_at(poly, aim_arc)
        travel = t_pass(aim_arc) + late_s - spawn
        anchor = _shift(at(poly, aim_arc), leg - 90.0, speed * travel, _INTRUDER_ALT_M)
        return passby(iid, anchor, leg + 90.0, speed, spawn, duration, behavior=behavior)

    def reciprocal(iid, poly, aim_arc, port_offset, speed, spawn, duration, *,
                   kind=IntruderKind.DRONE, behavior):
        # Flies the route leg back towards the ownship on a parallel
        # line port_offset metres to port, abeam the aim point exactly
        # when the undisturbed ownship is there.
        leg = track_at(poly, aim_arc)
        lead = t_pass(aim_arc) - spawn
        base = _shift(at(poly, aim_arc), leg, speed * lead, _INTRUDER_ALT_M)
        anchor = _shift(base, leg - 90.0, port_offset) if port_offset else base
        return passby(iid, anchor, leg - 180.0, speed, spawn, duration,
                      kind=kind, behavior=behavior, offset=port_offset)

    def scenario(sid, intruders, planned="ROUTE1"):
        return Scenario(
            id=sid,
            ownship_config=OwnshipConfig.VECTORED_THRUST,
            vertiports=dict(verts),
            routes=dict(routes),
            planned_route=planned,
            intruders=tuple(intruders),
        )

    # Pre-departure loiterer that clears the planned corridor on the
    # second scan; shared by most airborne scenarios so their ground
    # delay is one wait step.
    def ground_loiter(hold=120.0, spawn=0.0):
        return linger("g1", abeam(r1, 2000.0, -90.0, 250.0, _GROUND_INTRUDER_ALT_M),
                      hold, spawn, ground=True)

    def r2_loiter(iid, hold, spawn):
        return linger(iid, abeam(r2, 2000.0, 90.0, 250.0, _GROUND_INTRUDER_ALT_M),
                      hold, spawn, ground=True)

    leg1 = track_at(r1, 14300.0)

    scenarios = [
        scenario("ref-route1", []),
        scenario("ref-route2", [], planned="ROUTE2"),
        # Strategic departure outcomes.
        scenario("ground-0", [
            passby("g1", _shift(EnuPoint(0.0, 0.0, 0.0), 35.0, 5000.0, _GROUND_INTRUDER_ALT_M),
                   35.0, 20.0, 0.0, 300.0, ground=True),
        ]),
        scenario("ground-300", [ground_loiter()]),
        scenario("ground-360", [ground_loiter(hold=350.0)]),
        scenario("ground-660", [ground_loiter(hold=400.0), r2_loiter("g2", 450.0, 100.0)]),
        scenario("ground-postponed", [ground_loiter(hold=4000.0), r2_loiter("g2", 4000.0, 0.0)]),
        # Tactical and emergency encounters on route 1 (plus the shared
        # ground loiterer, worth one 300 s wait).
        scenario("sc-01", [
            ground_loiter(),
            linger("i1", abeam(r1, 14300.0, 90.0, 150.0), 500.0, 340.0,
                   kind=IntruderKind.DRONE, behavior=IntruderBehavior.PREDICTABLE),
        ]),
        # Pop-up crosser from starboard, already inside the caution ring
        # when it appears.  The hover lets it cross ahead; the encounter
        # re-escalates on resume and forces the pilot-level divert.
        scenario("sc-02", [
            ground_loiter(),
            passby("i1", abeam(r1, 13800.0, 90.0, 320.0), track_at(r1, 13800.0) - 90.0,
                   20.0, 340.0, 300.0, behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
        scenario("sc-03", [
            ground_loiter(),
            crossing("i1", r1, 14300.0, 62.0, 20.0, 280.0, 400.0,
                     behavior=IntruderBehavior.PREDICTABLE),
        ]),
        scenario("sc-04", [
            ground_loiter(),
            crossing("i1", r1, 13250.0, 3.0, 20.0, 280.0, 300.0,
                     behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
        scenario("sc-05", [
            ground_loiter(),
            reciprocal("i1", r1, 14300.0, 280.0, 20.0, 300.0, 400.0,
                       behavior=IntruderBehavior.PREDICTABLE),
        ]),
        scenario("sc-06", [
            ground_loiter(),
            reciprocal("i1", r1, 16435.0, 0.0, 35.0, 300.0, 300.0,
                       behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
        scenario("sc-07", [
            ground_loiter(),
            passby("i1", abeam(r1, 11600.0, -90.0, 30.0), leg1, 20.0, 300.0, 600.0,
                   behavior=IntruderBehavior.PREDICTABLE),
        ]),
        scenario("sc-08", [
            ground_loiter(),
            passby("i1", at(r1, 11600.0), leg1 + 14.0, 20.0, 300.0, 500.0,
                   behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
        scenario("sc-09", [
            ground_loiter(),
            reciprocal("i1", r1, 14300.0, 260.0, 15.0, 300.0, 500.0,
                       kind=IntruderKind.BIRD, behavior=IntruderBehavior.PREDICTABLE),
        ]),
        scenario("sc-10", [
            ground_loiter(),
            reciprocal("i1", r1, 14300.0, 175.0, 15.0, 300.0, 500.0,
                       kind=IntruderKind.BIRD, behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
        scenario("sc-11", [
            ground_loiter(),
            reciprocal("i1", r1, 22100.0, 0.0, 35.0, 360.0, 300.0,
                       behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
        # Encounters on route 2; the ownship plans route 2 and departs
        # immediately, so the ground delay is zero.
        scenario("sc-12", [
            reciprocal("i1", r2, 27000.0, 0.0, 35.0, 450.0, 250.0,
                       behavior=IntruderBehavior.UNPREDICTABLE),
        ], planned="ROUTE2"),
        scenario("sc-13", [
            reciprocal("i1", r2, 23400.0, 0.0, 35.0, 400.0, 250.0,
                       behavior=IntruderBehavior.UNPREDICTABLE),
        ], planned="ROUTE2"),
        # Non-cooperative fast pursuer; the encounter is not survivable.
        scenario("sc-14", [
            ground_loiter(),
            pursuit("i1", at(r1, 16000.0), 85.0, 330.0,
                    kind=IntruderKind.BIRD, behavior=IntruderBehavior.UNPREDICTABLE),
        ]),
    ]
    return ScenarioPack(tuple(scenarios))


def load_pack(source: str | Path) -> ScenarioPack:
    """Resolve a pack by name or directory.

    "default" yields the built-in pack; anything else is a directory of
    .scn directive files (sorted by filename).
    """
    if str(source) == "default":
        return default_pack()
    root = Path(source)
    if not root.is_dir():
        raise ScenarioError([(0, f"pack directory {str(root)!r} does not exist")])
    files = sorted(root.glob("*.scn"))
    if not files:
        raise ScenarioError([(0, f"no .scn files in {str(root)!r}")])
    return ScenarioPack(tuple(load_scenario(f) for f in files), root)


def export_pack(pack: ScenarioPack, out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for sc in pack:
        path = out / f"{sc.id}.scn"
        path.write_text(serialize_scenario(sc), encoding="utf-8")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Run and batch reports
#
# Every report cell is formatted by _cell (CSV) or _json_num (JSON), so a
# value reads the same in a run report and in a batch report.


REPORT_FORMATS = ("csv", "structured", "both")
BATCH_CSV_HEADER = "scenario_id,cpa_with_m,cpa_without_m,t_sim_s,d_ground_s,d_air_s,d_total_s"


def _cell(v: float | None) -> str:
    if v is None:
        return ""
    if math.isinf(v):
        return "inf"
    return f"{v:.3f}"


def _json_num(v: float | None) -> float | str | None:
    # strict JSON has no Infinity literal
    if v is None or math.isfinite(v):
        return v
    return "inf"


def _formats(fmt: str) -> tuple[bool, bool]:
    """(write CSV, write JSON) for a report format name."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    return fmt in ("csv", "both"), fmt in ("structured", "both")


def _write_lines(path: Path, lines: Sequence[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_run_report(
    scenario_id: str, report, off_report, out_dir: str | Path, fmt: str = "csv"
) -> None:
    """Write one run's metrics as <id>_report.csv and/or <id>_report.json.

    off_report, the paired system-off run when there is one, contributes
    its CPA as cpa_without_m.
    """
    csv_out, json_out = _formats(fmt)
    out = Path(out_dir)
    cells = {
        "t_sim_s": report.t_sim,
        "d_ground_s": report.d_ground,
        "d_air_s": report.d_air,
        "d_total_s": report.d_total,
        "cpa_with_m": report.cpa,
    }
    if off_report is not None:
        cells["cpa_without_m"] = off_report.cpa
    if csv_out:
        lines = ["metric,value"] + [f"{k},{_cell(v)}" for k, v in cells.items()]
        _write_lines(out / f"{scenario_id}_report.csv", lines)
    if json_out:
        doc = {
            "scenario_id": scenario_id,
            "terminal": report.terminal.kind.name,
            "landed_at": report.terminal.vertiport,
            "cpa_without_m": None,
            **{k: _json_num(v) for k, v in cells.items()},
        }
        _write_json(out / f"{scenario_id}_report.json", doc)


def batch_csv_lines(table) -> list[str]:
    lines = [BATCH_CSV_HEADER]
    for row in table.rows:
        lines.append(
            f"{row.scenario_id},{_cell(row.cpa_with)},{_cell(row.cpa_without)},"
            f"{_cell(row.t_sim)},{_cell(row.d_ground)},{_cell(row.d_air)},{_cell(row.d_total)}"
        )
    return lines


def batch_footer(table) -> str | None:
    """The mean airborne delay line, averaged over the departed rows
    (those with an airborne delay); None when nothing departed."""
    if table.mean_d_air is None:
        return None
    departed = sum(1 for row in table.rows if row.d_air is not None)
    return f"# mean airborne delay over {departed} scenarios: {table.mean_d_air:.3f} s"


def write_batch_report(table, out_dir: str | Path, fmt: str = "csv") -> list[Path]:
    """Write the batch summary and its plot-data companions.

    fmt "csv" writes summary.csv plus delays.csv and cpa_compare.csv;
    "structured" writes report.json; "both" writes all four.  Output is
    byte-stable across reruns of the same pack.
    """
    csv_out, json_out = _formats(fmt)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if csv_out:
        written.append(_write_lines(out / "summary.csv", batch_csv_lines(table)))
        delays = ["scenario_id,d_ground_s,d_air_s,d_total_s"]
        cpa = ["scenario_id,cpa_with_m,cpa_without_m"]
        for row in table.rows:
            delays.append(
                f"{row.scenario_id},{_cell(row.d_ground)},{_cell(row.d_air)},{_cell(row.d_total)}"
            )
            cpa.append(f"{row.scenario_id},{_cell(row.cpa_with)},{_cell(row.cpa_without)}")
        written.append(_write_lines(out / "delays.csv", delays))
        written.append(_write_lines(out / "cpa_compare.csv", cpa))

    if json_out:
        doc = {
            "rows": [
                {
                    "scenario_id": row.scenario_id,
                    "cpa_with_m": _json_num(row.cpa_with),
                    "cpa_without_m": _json_num(row.cpa_without),
                    "t_sim_s": _json_num(row.t_sim),
                    "d_ground_s": _json_num(row.d_ground),
                    "d_air_s": _json_num(row.d_air),
                    "d_total_s": _json_num(row.d_total),
                    "terminal": row.terminal.kind.name,
                    "landed_at": row.terminal.vertiport,
                }
                for row in table.rows
            ],
            "mean_d_air_s": _json_num(table.mean_d_air),
        }
        written.append(_write_json(out / "report.json", doc))

    return written
