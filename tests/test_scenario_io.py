"""Scenario file grammar, trajectory CSVs, the built-in pack, and batch
report files."""

import csv
import io
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uamcas.agents import (
    IntruderBehavior,
    IntruderKind,
    IntruderRecord,
    OwnshipConfig,
    ScriptMode,
    Trajectory,
)
from uamcas.cdr import MAX_WAITS, GroundCheckParams
from uamcas.cli import resolve_pack
from uamcas.engine import SimParams, Terminal, TerminalKind
from uamcas.envelopes import EnvelopeSet, Zone
from uamcas.geo import (EARTH_RADIUS_M, EnuPoint, GeoPoint, GeoRangeError, horizontal_distance, in_plane_range,
                        plane_offset, polyline_length, to_enu)
from uamcas.metrics import (
    BATCH_CSV_HEADER,
    BatchTable,
    MetricsReport,
    batch_csv_lines,
    write_batch_report,
)
from uamcas.pack import default_pack
from uamcas.scenario_io import (
    Scenario,
    ScenarioError,
    export_pack,
    load_pack,
    load_scenario,
    parse_scenario,
    parse_trajectory_csv,
    serialize_scenario,
)

MINIMAL = """\
SCENARIO t-01
OWNSHIP VECTORED_THRUST
VERTIPORT V1 48.3537 11.786
VERTIPORT V2 48.1669 11.5883 NAME=City
ROUTE ROUTE1 48.3537,11.786 48.1669,11.5883
PLAN ROUTE1
"""


class TestParseBasics:
    def test_minimal_file(self):
        sc = parse_scenario(MINIMAL)
        assert sc.id == "t-01"
        assert sc.ownship_config is OwnshipConfig.VECTORED_THRUST
        assert set(sc.vertiports) == {"V1", "V2"}
        assert sc.vertiports["V2"].name == "City"
        assert sc.vertiports["V1"].name == "V1"
        assert sc.planned_route == "ROUTE1"
        assert sc.intruders == ()

    def test_comments_and_blanks_ignored(self):
        noisy = "# header\n\n" + MINIMAL.replace(
            "PLAN ROUTE1", "PLAN ROUTE1   # trailing comment"
        )
        assert parse_scenario(noisy).planned_route == "ROUTE1"

    def test_missing_scenario_id_gets_default(self):
        text = MINIMAL.replace("SCENARIO t-01\n", "")
        assert parse_scenario(text).id == "scenario"

    def test_feet_suffix_converts(self):
        sc = parse_scenario(MINIMAL + "SET PERF.CRUISE_ALT 1000ft\n")
        assert sc.perf.cruise_alt == pytest.approx(304.8)

    def test_all_errors_collected_with_line_numbers(self):
        bad = """\
SCENARIO x
FROBNICATE 1
OWNSHIP WARP_DRIVE
VERTIPORT V1 48.0 11.0
VERTIPORT V1 48.1 11.1
SPAWN ghost AT 10
SET ENV
INTRUDER x DRONE PREDICTABLE
INTRUDER y DRONE PREDICTABLE CSV a.csv b.csv
"""
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(bad)
        errs = ei.value.errors
        linenos = [n for n, _ in errs]
        assert linenos == sorted(linenos)
        by_line = dict(errs)
        assert "unknown directive" in by_line[2]
        assert "ownship configuration" in by_line[3]
        assert "duplicate vertiport" in by_line[5]
        assert "unknown intruder" in by_line[6]
        assert by_line[7] == "SET takes GROUP.FIELD and a value"
        assert by_line[8] == "INTRUDER needs id, kind, behaviour, and a source"
        assert by_line[9] == "CSV source takes exactly one path"
        # file-level problems land on line 0
        assert any(n == 0 and "PLAN" in m for n, m in errs)
        assert any(n == 0 and "two VERTIPORT" in m for n, m in errs)

    def test_planned_route_must_exist(self):
        text = MINIMAL.replace("PLAN ROUTE1", "PLAN ROUTE2")
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(text)
        assert any("ROUTE2 is not defined" in m for _, m in ei.value.errors)

    def test_duplicate_toplevel_directives_rejected(self):
        text = MINIMAL + "PLAN ROUTE1\nOWNSHIP MULTICOPTER\n"
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(text)
        msgs = [m for _, m in ei.value.errors]
        assert any("duplicate PLAN" in m for m in msgs)
        assert any("duplicate OWNSHIP" in m for m in msgs)


# Each id kind: the line its id sits on, and MINIMAL with that id set.
ID_KINDS = {
    "scenario": (1, lambda i: MINIMAL.replace("SCENARIO t-01", f"SCENARIO {i}")),
    "vertiport": (7, lambda i: MINIMAL + f"VERTIPORT {i} 48.2 11.6\n"),
    "route": (7, lambda i: MINIMAL + f"ROUTE {i} 48.3537,11.786 48.1669,11.5883\n"),
    "intruder": (
        7, lambda i: MINIMAL + f"INTRUDER {i} DRONE PREDICTABLE SCRIPT LINGER SPEED=1 ANCHOR=0,0,0\n"
    ),
}


class TestIds:
    """Ids name output files and fill CSV cells, so a path separator, a
    comma or a leading dot is rejected on the id's own line."""

    @pytest.mark.parametrize("ident", ["..", "a/b", "a,b"])
    @pytest.mark.parametrize("kind", ID_KINDS)
    def test_unsafe_id_is_an_error_on_its_line(self, kind, ident):
        line, text = ID_KINDS[kind]
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(text(ident))
        assert ei.value.errors == [(line, (
            f"{kind} id {ident!r} must be letters, digits, '_', '-' or '.', not starting with '.'"
        ))]

    @pytest.mark.parametrize("kind", ID_KINDS)
    def test_safe_id_parses(self, kind):
        _, text = ID_KINDS[kind]
        parse_scenario(text("Az_09-x.y"))


class TestSetDirectives:
    def with_sets(self, *lines):
        return parse_scenario(MINIMAL + "\n".join(lines) + "\n")

    def test_cdr_zone_by_name(self):
        sc = self.with_sets("SET CDR.TACTICAL_TRIGGER_ZONE WARNING")
        assert sc.cdr_params.tactical_trigger_zone is Zone.WARNING

    def test_sim_flags(self):
        sc = self.with_sets("SET SIM.DT 0.5", "SET SIM.MAX_SIM_TIME 600")
        assert sc.sim == SimParams(dt=0.5, max_sim_time=600.0)

    def test_ground_max_waits_is_int(self):
        sc = self.with_sets("SET GROUND.MAX_WAITS 3")
        assert sc.ground_params.max_waits == 3
        assert isinstance(sc.ground_params.max_waits, int)

    def test_ground_max_waits_is_capped(self):
        """Every wait re-scans the ground intruders, so the cap bounds a
        takeoff check's time; a value over it is an error on its line."""
        line = len(MINIMAL.splitlines()) + 1
        assert self.with_sets(f"SET GROUND.MAX_WAITS {MAX_WAITS}").ground_params.max_waits == 100_000
        for raw in ("100001", "1e12"):
            with pytest.raises(ScenarioError) as ei:
                self.with_sets(f"SET GROUND.MAX_WAITS {raw}")
            assert ei.value.errors == [(line, f"GROUND.MAX_WAITS: {raw!r} must not exceed 100000")]

    def test_envelope_override_triplet(self):
        sc = self.with_sets("SET ENV.FORWARD_OVERRIDE 2000,1000,150")
        assert sc.envelope_params.forward_override == EnvelopeSet(2000.0, 1000.0, 150.0)

    def test_envelope_override_none(self):
        sc = self.with_sets("SET ENV.FORWARD_OVERRIDE NONE")
        assert sc.envelope_params.forward_override is None

    def test_perf_override_applies(self):
        sc = self.with_sets("SET PERF.CRUISE_SPEED 60")
        assert sc.perf.cruise_speed == 60.0
        assert sc.perf.climb_rate == 1.7  # untouched

    def test_nav_capture_radius(self):
        sc = self.with_sets("SET PERF.CAPTURE_RADIUS 75")
        assert sc.perf.capture_radius == 75.0

    def test_unknown_parameter_reported(self):
        with pytest.raises(ScenarioError) as ei:
            self.with_sets("SET ENV.WIBBLE 3", "SET NOPE.DT 1")
        msgs = [m for _, m in ei.value.errors]
        assert all("unknown parameter" in m for m in msgs)
        assert len(msgs) == 2

    def test_bad_values_reported(self):
        with pytest.raises(ScenarioError) as ei:
            self.with_sets(
                "SET SIM.DT fast",
                "SET ENV.FORWARD_OVERRIDE 1,2",
                "SET CDR.TACTICAL_TRIGGER_ZONE PANIC",
            )
        assert len(ei.value.errors) == 3

    # ROUTE2's first leg, to a point about 556 m north of V1, is the
    # shortest leg of either route.
    SHORT_LEG = "ROUTE ROUTE2 48.3537,11.786 48.3587,11.786 48.1669,11.5883"

    def test_capture_radius_below_every_leg(self):
        """A radius as wide as a leg would capture the leg's end from its
        start, so the flight would skip it: the radius must stay below the
        shortest leg of every route, the planned one or not."""
        v1 = GeoPoint(48.3537, 11.786, 0.0)
        leg = horizontal_distance(to_enu(v1, v1), to_enu(v1, GeoPoint(48.3587, 11.786, 0.0)))
        below = math.nextafter(leg, 0.0)
        assert self.with_sets(self.SHORT_LEG, f"SET PERF.CAPTURE_RADIUS {below!r}").perf.capture_radius == below
        for radius in (leg, 1e300):
            with pytest.raises(ScenarioError) as ei:
                self.with_sets(self.SHORT_LEG, f"SET PERF.CAPTURE_RADIUS {radius!r}")
            assert ei.value.errors == [(0, (
                f"PERF.CAPTURE_RADIUS ({radius!r}) must be below the shortest route leg ({leg!r} m)"
            ))]

    def test_climb_and_descent_within_the_run(self):
        """cruise_alt / climb_rate + cruise_alt / descent_rate, the least time
        a flight takes, must not exceed SIM.MAX_SIM_TIME: here 200 + 100 s."""
        perf = ("SET PERF.CRUISE_ALT 400", "SET PERF.CLIMB_RATE 2", "SET PERF.DESCENT_RATE 4")
        assert self.with_sets(*perf, "SET SIM.MAX_SIM_TIME 300").sim.max_sim_time == 300.0
        below = math.nextafter(300.0, 0.0)
        with pytest.raises(ScenarioError) as ei:
            self.with_sets(*perf, f"SET SIM.MAX_SIM_TIME {below!r}")
        assert ei.value.errors == [(0, (
            f"PERF.CRUISE_ALT (400.0) takes 300.0 s to climb and descend, more than SIM.MAX_SIM_TIME ({below!r})"
        ))]
        with pytest.raises(ScenarioError, match=r"PERF.CRUISE_ALT \(1000000000000.0\) takes"):
            self.with_sets("SET PERF.CRUISE_ALT 1e12")

    def test_invalid_combination_is_file_level(self):
        # individually parseable, jointly violating the dataclass guard
        with pytest.raises(ScenarioError) as ei:
            self.with_sets("SET GROUND.MAX_WAITS 0")
        assert any(n == 0 and "GROUND parameters" in m for n, m in ei.value.errors)


class TestIntruderDirectives:
    def test_scripted_intruder_full(self):
        text = MINIMAL + (
            "INTRUDER i1 DRONE PREDICTABLE SCRIPT PASS_BY "
            "SPEED=20 ANCHOR=100,-200,304.8 TRACK=270 DURATION=300\n"
            "SPAWN i1 AT 340\n"
        )
        sc = parse_scenario(text)
        (rec,) = sc.intruders
        assert rec.kind is IntruderKind.DRONE
        assert rec.trajectory is None
        assert rec.script.mode is ScriptMode.PASS_BY
        assert rec.script.speed == 20.0
        assert rec.script.anchor.north == -200.0
        assert rec.script.track == 270.0
        assert rec.script.duration == 300.0
        assert rec.spawn_time == 340.0
        assert not rec.ground_clock

    def test_ground_spawn_pins_absolute_clock(self):
        text = MINIMAL + (
            "INTRUDER g1 DRONE UNPREDICTABLE SCRIPT LINGER SPEED=1 ANCHOR=0,0,100 HOLD=120\n"
            "SPAWN g1 AT 0 GROUND\n"
        )
        (rec,) = parse_scenario(text).intruders
        assert rec.ground_clock
        assert rec.script.linger_duration == 120.0

    def test_script_requires_speed_and_anchor(self):
        text = MINIMAL + "INTRUDER i1 DRONE PREDICTABLE SCRIPT LINGER HOLD=10\n"
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(text)
        assert any("SPEED and ANCHOR" in m for _, m in ei.value.errors)

    def test_bad_script_key_reported(self):
        text = MINIMAL + (
            "INTRUDER i1 DRONE PREDICTABLE SCRIPT LINGER SPEED=1 ANCHOR=0,0,0 WIBBLE=2\n"
        )
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(text)
        assert any("bad script argument 'WIBBLE=2'" in m for _, m in ei.value.errors)

    def test_duplicate_script_key_reported_on_its_line(self):
        """A script key given twice is an error on the INTRUDER line, not a
        last-one-wins overwrite; a SET repeated keeps its last value, as a
        --config overlay depends on."""
        text = MINIMAL + "INTRUDER i1 DRONE PREDICTABLE SCRIPT PASS_BY SPEED=10 ANCHOR=0,0,0 SPEED=20\n"
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(text)
        line = len(MINIMAL.splitlines()) + 1
        assert ei.value.errors == [(line, "duplicate script argument 'SPEED'")]
        sc = parse_scenario(MINIMAL + "SET SIM.DT 0.5\nSET SIM.DT 0.25\n")
        assert sc.sim.dt == 0.25

    def test_duplicate_intruder_and_spawn(self):
        line = "INTRUDER i1 DRONE PREDICTABLE SCRIPT LINGER SPEED=1 ANCHOR=0,0,0\n"
        text = MINIMAL + line + line + "SPAWN i1 AT 5\nSPAWN i1 AT 6\n"
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(text)
        msgs = [m for _, m in ei.value.errors]
        assert any("duplicate intruder" in m for m in msgs)
        assert any("duplicate SPAWN" in m for m in msgs)

    def test_csv_intruder_loads_relative_to_file(self, tmp_path):
        (tmp_path / "track.csv").write_text(
            "t_s,east_m,north_m,up_m\n0,0,0,100\n10,50,0,100\n"
        )
        text = MINIMAL + "INTRUDER i1 DRONE PREDICTABLE CSV track.csv\n"
        sc = parse_scenario(text, base_dir=tmp_path)
        (rec,) = sc.intruders
        assert rec.script is None
        assert rec.csv_path == "track.csv"
        assert rec.trajectory.east[1] == 50.0

    def test_csv_geodetic_uses_v1_origin(self, tmp_path):
        (tmp_path / "geo.csv").write_text(
            "t_s,lat_deg,lon_deg,alt_m\n0,48.3537,11.786,100\n10,48.3627,11.786,100\n"
        )
        text = MINIMAL + "INTRUDER i1 DRONE PREDICTABLE CSV geo.csv\n"
        sc = parse_scenario(text, base_dir=tmp_path)
        (rec,) = sc.intruders
        assert rec.trajectory.east[0] == pytest.approx(0.0, abs=1e-6)
        assert rec.trajectory.north[1] == pytest.approx(1000.0, rel=1e-3)

    def test_non_utf8_csv_reported_with_intruder_line(self, tmp_path):
        (tmp_path / "track.csv").write_bytes(b"t_s,east_m,north_m,up_m\n0,0,0,\xff\n")
        text = MINIMAL + "INTRUDER i1 DRONE PREDICTABLE CSV track.csv\n"
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(text, base_dir=tmp_path)
        (err,) = ei.value.errors
        assert err[0] == 7
        assert err[1].startswith("cannot read 'track.csv'")

    @pytest.mark.parametrize("speed,ok", [("343", True), ("343.5", False), ("1e308", False)])
    def test_script_speed_ceiling(self, speed, ok):
        text = MINIMAL + f"INTRUDER i1 BIRD UNPREDICTABLE SCRIPT PURSUIT SPEED={speed} ANCHOR=0,0,0\n"
        if ok:
            assert parse_scenario(text).intruders[0].script.speed == float(speed)
            return
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(text)
        assert ei.value.errors == [(7, "bad script: script speed must not exceed 343.0 m/s")]

    @pytest.mark.parametrize("anchor", ["1e308,0,300", "0,-70000,80000", "99999,0,0"])
    def test_script_anchor_within_frame_range(self, anchor):
        text = MINIMAL + f"INTRUDER i1 DRONE PREDICTABLE SCRIPT LINGER SPEED=1 ANCHOR={anchor}\n"
        if anchor == "99999,0,0":
            assert parse_scenario(text).intruders[0].script.anchor.east == 99999.0
            return
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(text)
        (err,) = ei.value.errors
        assert err[0] == 7 and "beyond flat-plane validity" in err[1]

    @pytest.mark.parametrize("header,far", [
        ("t_s,east_m,north_m,up_m", "1e308,0,300"),
        ("t_s,lat_deg,lon_deg,alt_m", "48.3537,11.786,1e308"),
        ("t_s,lat_deg,lon_deg,alt_m", "49.5,11.786,300"),
    ], ids=["enu", "geodetic-altitude", "geodetic-position"])
    def test_csv_sample_within_frame_range(self, tmp_path, header, far):
        near = "0,0,300" if header.endswith("up_m") else "48.3537,11.786,300"
        (tmp_path / "far.csv").write_text(f"{header}\n0,{near}\n10,{far}\n20,{near}\n")
        text = MINIMAL + "INTRUDER i1 DRONE PREDICTABLE CSV far.csv\n"
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(text, base_dir=tmp_path)
        (err,) = ei.value.errors
        assert err[0] == 7
        assert err[1].startswith("far.csv: line 3: ") and "beyond flat-plane validity" in err[1]

    def test_missing_csv_reported_with_intruder_line(self, tmp_path):
        text = MINIMAL + "INTRUDER i1 DRONE PREDICTABLE CSV nowhere.csv\n"
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(text, base_dir=tmp_path)
        (err,) = ei.value.errors
        assert err[0] == 7
        assert "nowhere.csv" in err[1]


class TestTrajectoryCsv:
    def test_enu_header(self):
        traj = parse_trajectory_csv("t_s,east_m,north_m,up_m\n0,1,2,3\n5,4,5,6\n")
        assert traj == Trajectory((0.0, 5.0), (1.0, 4.0), (2.0, 5.0), (3.0, 6.0))
        assert traj.up[1] == 6.0

    def test_geodetic_needs_origin(self):
        text = "t_s,lat_deg,lon_deg,alt_m\n0,48.0,11.0,100\n5,48.1,11.0,100\n"
        with pytest.raises(ScenarioError):
            parse_trajectory_csv(text)
        traj = parse_trajectory_csv(text, origin=GeoPoint(48.0, 11.0, 0.0))
        assert traj.north[0] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("text,message", [
        ("time,x,y,z\n0,1,2,3\n", "unrecognised trajectory header 'time,x,y,z'"),
        ("", "empty trajectory file"),
    ], ids=["unknown-header", "empty"])
    def test_file_fault_is_an_error_on_line_1(self, text, message):
        with pytest.raises(ScenarioError) as ei:
            parse_trajectory_csv(text)
        assert ei.value.errors == [(1, message)]

    def test_row_errors_collected(self):
        text = (
            "t_s,east_m,north_m,up_m\n"
            "0,0,0,100\n"
            "1,2,3\n"          # wrong arity
            "2,a,b,c\n"        # not numeric
            "1.5,0,0,100\n"    # ok
            "1.0,0,0,100\n"    # time goes backwards
        )
        with pytest.raises(ScenarioError) as ei:
            parse_trajectory_csv(text)
        lines = [n for n, _ in ei.value.errors]
        assert lines == [3, 4, 6]

    def test_needs_two_samples(self):
        with pytest.raises(ScenarioError) as ei:
            parse_trajectory_csv("t_s,east_m,north_m,up_m\n0,0,0,100\n")
        assert "two samples" in str(ei.value)

    def test_field_over_the_csv_limit_is_reported(self):
        text = "t_s,east_m,north_m,up_m\n0,0,0,100\n1,0,0," + "1" * 200_000 + "\n"
        with pytest.raises(ScenarioError) as ei:
            parse_trajectory_csv(text)
        assert [n for n, _ in ei.value.errors] == [3]


def row_by_row_trajectory(text, origin=None):
    """parse_trajectory_csv as it read every file row by row before the
    bulk pass, frozen here: the (t, EnuPoint) samples, or a ScenarioError
    with every bad row."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ScenarioError([(reader.line_num, str(exc))]) from None
    errors = []
    if not rows:
        raise ScenarioError([(1, "empty trajectory file")])
    header = tuple(h.strip() for h in rows[0])
    geodetic = False
    if header == ("t_s", "lat_deg", "lon_deg", "alt_m"):
        geodetic = True
        if origin is None:
            raise ScenarioError([(1, "geodetic trajectory needs a projection origin")])
    elif header != ("t_s", "east_m", "north_m", "up_m"):
        raise ScenarioError([(1, f"unrecognised trajectory header {','.join(header)!r}")])
    samples = []
    last_t = None
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
        try:
            if geodetic:
                pos = to_enu(origin, GeoPoint(vals[1], vals[2], vals[3]))
            else:
                pos = EnuPoint(vals[1], vals[2], vals[3])
            samples.append((t, in_plane_range(pos)))
        except ValueError as exc:
            errors.append((n, str(exc)))
    if not errors and len(samples) < 2:
        errors.append((len(rows), "trajectory needs at least two samples"))
    if errors:
        raise ScenarioError(errors)
    return samples


TRAJECTORY_ORIGIN = GeoPoint(48.3537, 11.786, 0.0)
ENU_HEADER = "t_s,east_m,north_m,up_m"
GEO_HEADER = "t_s,lat_deg,lon_deg,alt_m"


def outcome(parse, text, origin=TRAJECTORY_ORIGIN):
    """What parse makes of text: the columns by repr (which tells -0.0
    from 0.0 and shows every bit), or the error list."""
    try:
        got = parse(text, origin)
    except ScenarioError as exc:
        return "errors", exc.errors
    if isinstance(got, Trajectory):
        return "columns", repr((got.times, got.east, got.north, got.up))
    return "columns", repr(tuple(tuple(col) for col in zip(*[(t, *p) for t, p in got])))


@st.composite
def trajectory_rows(draw, geodetic, min_size=2, max_size=12):
    """The cell lists of a valid trajectory file, times strictly rising
    and every point inside the plane's range."""
    times = sorted(draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=min_size,
                                 max_size=max_size, unique=True)))
    if geodetic:
        points = st.tuples(st.floats(47.9, 48.8), st.floats(11.3, 12.2), st.floats(0.0, 3000.0))
    else:
        points = st.tuples(*[st.floats(-57_000.0, 57_000.0)] * 3)
    return [[repr(v) for v in (t, *draw(points))] for t in times]


def trajectory_text(header, rows):
    return "\n".join([header, *(",".join(r) for r in rows)]) + "\n"


# Cells that break a row: not numbers, not finite, or out of range.
BAD_CELLS = ["", "a", "1.0.0", "nan", "inf", "-inf", "1e400", "-1e400", "2e5", "-2e5", "91", "-91",
             "181", "-181", "-1", "49.5", "13.5", " 7 ", "1_000", "0x10", "-0.0"]


@st.composite
def malformed_trajectory_texts(draw):
    """A valid file with one to four faults: a bad cell, a row of the
    wrong arity, a time that does not rise, a blank line, a NUL byte,
    too few rows; some faults happen to leave the file valid."""
    geodetic = draw(st.booleans())
    rows = draw(trajectory_rows(geodetic, min_size=1, max_size=8))
    for _ in range(draw(st.integers(1, 4))):
        fault = draw(st.sampled_from(["cell", "arity", "time", "blank", "nul", "cut"]))
        k = draw(st.integers(0, max(len(rows) - 1, 0)))
        if fault == "blank" or not rows or not rows[k]:
            rows.insert(k, [])
        elif fault == "cell":
            rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(st.sampled_from(BAD_CELLS))
        elif fault == "arity":
            rows[k] = rows[k][:draw(st.integers(1, 3))] if draw(st.booleans()) else rows[k] + ["0"]
        elif fault == "time":
            rows[k][0] = rows[k - 1][0] if k and rows[k - 1] else "-1e9"
        elif fault == "nul":
            rows[k][draw(st.integers(0, len(rows[k]) - 1))] += "\0"
        else:
            del rows[draw(st.integers(0, len(rows))):]
    return trajectory_text(GEO_HEADER if geodetic else ENU_HEADER, rows)


class TestTrajectoryBulkPass:
    """parse_trajectory_csv reads a valid file in one bulk pass, and
    rereads a rejected one row by row for its errors: against the
    row-by-row reading frozen above, the same columns bit for bit and
    the same (line, message) list."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), geodetic=st.booleans())
    def test_valid_files_give_the_same_columns(self, data, geodetic):
        rows = data.draw(trajectory_rows(geodetic))
        text = trajectory_text(GEO_HEADER if geodetic else ENU_HEADER, rows)
        want = outcome(row_by_row_trajectory, text)
        assert want[0] == "columns"
        assert outcome(parse_trajectory_csv, text) == want

    @settings(max_examples=400, deadline=None)
    @given(text=malformed_trajectory_texts())
    def test_drawn_faults_give_the_same_outcome(self, text):
        assert outcome(parse_trajectory_csv, text) == outcome(row_by_row_trajectory, text)

    @pytest.mark.parametrize("header,body,lines", [
        (GEO_HEADER, "0,48.4,11.8,10\n1,48.4,11.8\n2,48.4,11.8,10\n", [3]),  # arity
        (ENU_HEADER, "0,1,2,3\n1,1,2,3,4\n2,1,2,3\n", [3]),
        (ENU_HEADER, "0,1,2,3\n1,1,2\n5,2,1,2,3\n", [3, 4]),  # cells that would realign
        (GEO_HEADER, "0,48.4,11.8,10\n1,x,11.8,10\n2,48.4,11.8,10\n", [3]),  # not numeric
        (ENU_HEADER, "0,1,2,3\n1,1,,3\n", [3]),
        (GEO_HEADER, "0,48.4,11.8,10\nnan,48.4,11.8,10\n2,48.4,11.8,10\n", [3]),  # not finite
        (GEO_HEADER, "0,48.4,11.8,10\n1,48.4,inf,10\n2,48.4,11.8,10\n", [3]),
        (GEO_HEADER, "0,48.4,11.8,10\n1,48.4,11.8,inf\n2,48.4,11.8,10\n", [3]),
        (GEO_HEADER, "0,48.4,11.8,10\n1,nan,11.8,10\n2,48.4,11.8,10\n", [3]),
        (ENU_HEADER, "0,1,2,3\n1,1,nan,3\n2,1,-inf,3\n3,1e400,2,3\n", [3, 4, 5]),
        (GEO_HEADER, "0,48.4,11.8,10\n0,48.4,11.8,10\n2,48.4,11.8,10\n", [3]),  # time does not rise
        (ENU_HEADER, "0,1,2,3\n-1,1,2,3\n2,1,2,3\n", [3]),
        (ENU_HEADER, "0,1,2,3\n1,1,2,2e5\n2,1,2,3\n", [3]),  # out of range
        (ENU_HEADER, "0,1,2,3\n1,60000,60000,60000\n2,1,2,3\n", [3]),
        (GEO_HEADER, "0,48.4,11.8,10\n1,91,11.8,10\n2,48.4,181,10\n3,48.4,11.8,-1\n", [3, 4, 5]),
        (GEO_HEADER, "0,48.4,11.8,10\n1,49.5,11.8,10\n", [3]),
        (GEO_HEADER, "0,48.4,11.8,10\n1,91,11.8,10\n", [3]),  # each of GeoPoint's ranges alone
        (GEO_HEADER, "0,48.4,11.8,10\n1,-91,11.8,10\n", [3]),
        (GEO_HEADER, "0,48.4,11.8,10\n1,48.4,181,10\n", [3]),
        (GEO_HEADER, "0,48.4,11.8,10\n1,48.4,-181,10\n", [3]),
        (GEO_HEADER, "0,48.4,11.8,10\n1,48.4,11.8,-1\n", [3]),
        (GEO_HEADER, "0,48.4,11.8,10\n1,48.4,11.8,2e5\n", [3]),
        (ENU_HEADER, "0,1,2,3\n\n\n", [4]),  # blank lines, one sample
        (GEO_HEADER, "", [1]),  # no sample
        (GEO_HEADER, "0,48.4,11.8,10\n1,48.4,11.8\0,10\n", [3]),  # NUL byte
        (ENU_HEADER, "0,1\n1,x,1,1\n1,1,1,1\n0.5,1,1,1\nnan,0,0,0\n", [2, 3, 5, 6]),  # several bad rows
    ])
    def test_each_fault_gives_the_same_errors(self, header, body, lines):
        text = f"{header}\n{body}"
        want = outcome(row_by_row_trajectory, text)
        assert want[0] == "errors" and [n for n, _ in want[1]] == lines
        assert outcome(parse_trajectory_csv, text) == want

    @pytest.mark.parametrize("row,origin", [
        ("-90.0001,0,0", GeoPoint(-89.9995, 0.0, 0.0)),
        ("90.0001,0,0", GeoPoint(89.9995, 0.0, 0.0)),
        ("0,180.0001,0", GeoPoint(0.0, 179.9995, 0.0)),
        ("0,-180.0001,0", GeoPoint(0.0, -179.9995, 0.0)),
    ])
    def test_geodetic_ranges_near_a_pole_or_the_antimeridian(self, row, origin):
        """Within the plane's range of such an origin, only GeoPoint's
        latitude and longitude ranges reject a point."""
        text = f"{GEO_HEADER}\n0,{origin.lat!r},{origin.lon!r},0\n1,{row}\n"
        want = outcome(row_by_row_trajectory, text, origin)
        assert want[0] == "errors" and "out of range" in want[1][0][1]
        assert outcome(parse_trajectory_csv, text, origin) == want

    @pytest.mark.parametrize("lat,lon,ok", [
        (49.20892078533354, 11.367408416465787, True),
        (47.465418855468954, 11.574595444017486, False),
    ])
    def test_one_range_rule_at_the_plane_edge(self, lat, lon, ok):
        """Two points at altitude 0 that a hypot bound and the squared-sum
        bound tell apart: the first's hypot is just over 100 km and its
        e*e + n*n exactly the bound, the second's hypot within 100 km and
        its e*e + n*n over.  A vertiport or route point (plane_offset) and
        a trajectory sample, by both paths, get the one verdict ok."""
        origin = TRAJECTORY_ORIGIN
        east = EARTH_RADIUS_M * math.cos(math.radians(origin.lat)) * math.radians(lon - origin.lon)
        north = EARTH_RADIUS_M * math.radians(lat - origin.lat)
        assert (math.hypot(east, north) > 1e5) is ok and (east * east + north * north > 1e10) is not ok

        def accepts(check, *args):
            try:
                check(*args)
            except GeoRangeError:
                return False
            return True

        assert accepts(plane_offset, origin, GeoPoint(lat, lon, 0.0)) is ok
        assert accepts(in_plane_range, EnuPoint(east, north, 0.0)) is ok
        text = f"{GEO_HEADER}\n0,48.4,11.8,0\n1,{lat!r},{lon!r},0\n"
        want = outcome(row_by_row_trajectory, text)
        assert (want[0] == "columns") is ok
        assert outcome(parse_trajectory_csv, text) == want

    @pytest.mark.parametrize("east,ok", [(1e5, True), (math.nextafter(1e5, math.inf), False)])
    def test_the_plane_edge_is_inside(self, east, ok):
        """A point whose e*e + n*n + u*u is exactly the bound is kept."""
        text = f"{ENU_HEADER}\n0,{east!r},0,0\n1,0,0,0\n"
        want = outcome(row_by_row_trajectory, text)
        assert (want[0] == "columns") is ok
        assert outcome(parse_trajectory_csv, text) == want

    def test_blank_lines_and_spaces_are_read_alike(self):
        text = f"{ENU_HEADER}\n\n 0 ,1,2,3\n\n1.5,-0.0, 4e3 ,-0.0\n\n"
        assert outcome(parse_trajectory_csv, text) == outcome(row_by_row_trajectory, text)
        assert repr(parse_trajectory_csv(text).east) == "(1.0, -0.0)"
        assert repr(parse_trajectory_csv(text).up) == "(3.0, -0.0)"


class TestByteOrderMark:
    """A file saved with a leading UTF-8 byte-order mark, as some editors
    do, loads equal to the same file without one."""

    @pytest.mark.parametrize("header,rows", [
        (ENU_HEADER, "0,0,0,100\n10,50,0,100\n"),
        (GEO_HEADER, "0,48.3537,11.786,100\n10,48.3627,11.786,100\n"),
    ], ids=["enu", "geodetic"])
    def test_scenario_and_trajectory_files(self, tmp_path, header, rows):
        text = MINIMAL + "INTRUDER i1 DRONE PREDICTABLE CSV track.csv\n"
        loaded = []
        for encoding in ("utf-8", "utf-8-sig"):
            d = tmp_path / encoding
            d.mkdir()
            (d / "t-01.scn").write_text(text, encoding=encoding)
            (d / "track.csv").write_text(f"{header}\n{rows}", encoding=encoding)
            assert (d / "t-01.scn").read_bytes().startswith(b"\xef\xbb\xbf") is (encoding == "utf-8-sig")
            loaded.append((load_scenario(d / "t-01.scn"), load_pack(d)["t-01"]))
        plain, marked = loaded
        assert marked == plain and plain[0] == plain[1] and plain[0].intruders[0].trajectory is not None


# A scenario with every kind of numeric slot: (line number, text to
# replace, replacement with {v} standing for the value under test).
NUMERIC_BASE = MINIMAL + (
    "INTRUDER i1 DRONE PREDICTABLE SCRIPT PASS_BY SPEED=20 ANCHOR=100,-200,304.8 "
    "TRACK=270 HOLD=5 OFFSET=10 DURATION=300\n"
    "SPAWN i1 AT 340\n"
)
NUMERIC_SLOTS = {
    "vertiport-lat": (3, "V1 48.3537 ", "V1 {v} "),
    "vertiport-lon": (3, "48.3537 11.786\n", "48.3537 {v}\n"),
    "waypoint-lat": (5, "ROUTE1 48.3537,", "ROUTE1 {v},"),
    "waypoint-lon": (5, "48.1669,11.5883", "48.1669,{v}"),
    "script-speed": (7, "SPEED=20", "SPEED={v}"),
    "anchor-east": (7, "ANCHOR=100,", "ANCHOR={v},"),
    "anchor-up": (7, "-200,304.8", "-200,{v}"),
    "script-track": (7, "TRACK=270", "TRACK={v}"),
    "script-hold": (7, "HOLD=5", "HOLD={v}"),
    "script-offset": (7, "OFFSET=10", "OFFSET={v}"),
    "script-duration": (7, "DURATION=300", "DURATION={v}"),
    "spawn-time": (8, "AT 340", "AT {v}"),
    **{
        setting.split()[0]: (9, "AT 340\n", f"AT 340\nSET {setting}\n")
        for setting in (
            "ENV.T_DETECT {v}", "ENV.FORWARD_OVERRIDE 2000,1000,{v}", "CDR.DETECT_DURATION {v}",
            "GROUND.LOOKAHEAD {v}", "GROUND.MAX_WAITS {v}", "SIM.DT {v}", "SIM.MAX_SIM_TIME {v}",
            "SIM.CONTACT_DISTANCE {v}", "PERF.CRUISE_SPEED {v}", "PERF.CAPTURE_RADIUS {v}",
            "NAV.CAPTURE_RADIUS {v}",
        )
    },
}


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "infft"])
    @pytest.mark.parametrize("slot", NUMERIC_SLOTS)
    def test_scenario_slot_rejects(self, slot, value):
        line, old, new = NUMERIC_SLOTS[slot]
        assert NUMERIC_BASE.count(old) == 1
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(NUMERIC_BASE.replace(old, new.format(v=value)))
        assert line in [n for n, _ in ei.value.errors]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("col", range(4))
    @pytest.mark.parametrize("header,row", [
        ("t_s,east_m,north_m,up_m", ("10", "100", "0", "300")),
        ("t_s,lat_deg,lon_deg,alt_m", ("10", "48.35", "11.78", "300")),
    ], ids=["enu", "geodetic"])
    def test_trajectory_field_rejects(self, header, row, col, value):
        bad = list(row)
        bad[col] = value
        rest = ",".join(row[1:])
        text = "\n".join([header, f"0,{rest}", ",".join(bad), f"20,{rest}"]) + "\n"
        with pytest.raises(ScenarioError) as ei:
            parse_trajectory_csv(text, GeoPoint(48.3537, 11.786, 0.0))
        assert [n for n, _ in ei.value.errors] == [3]


class TestScenarioValidation:
    def test_needs_v1(self):
        pack = default_pack()
        sc = pack["ref-route1"]
        verts = {k: v for k, v in sc.vertiports.items() if k != "V1"}
        with pytest.raises(ValueError):
            Scenario(
                id="x", ownship_config=sc.ownship_config, vertiports=verts,
                routes=dict(sc.routes), planned_route=sc.planned_route,
            )

    def test_planned_route_must_be_defined(self):
        pack = default_pack()
        sc = pack["ref-route1"]
        routes = {"ROUTE1": sc.routes["ROUTE1"]}
        with pytest.raises(ValueError):
            Scenario(
                id="x", ownship_config=sc.ownship_config,
                vertiports=dict(sc.vertiports), routes=routes,
                planned_route="ROUTE2",
            )


class TestDefaultPack:
    PACK = default_pack()

    def test_size_and_ids(self):
        ids = self.PACK.ids()
        assert len(ids) == 21
        assert ids[:2] == ["ref-route1", "ref-route2"]
        assert [i for i in ids if i.startswith("ground-")] == [
            "ground-0", "ground-300", "ground-360", "ground-660", "ground-postponed",
        ]
        assert [i for i in ids if i.startswith("sc-")] == [
            f"sc-{k:02d}" for k in range(1, 15)
        ]

    def test_route_lengths_hit_targets(self):
        sc = self.PACK["ref-route1"]
        origin = sc.vertiports["V1"].position
        assert polyline_length(origin, sc.routes["ROUTE1"]) == pytest.approx(26000.0, abs=0.5)
        assert polyline_length(origin, sc.routes["ROUTE2"]) == pytest.approx(30000.0, abs=0.5)

    def test_both_routes_end_at_city_pad(self):
        sc = self.PACK["ref-route1"]
        assert sc.destination_id("ROUTE1") == "V2"
        assert sc.destination_id("ROUTE2") == "V2"

    def test_encounter_mix(self):
        kinds = set()
        behaviors = set()
        for sid in [f"sc-{k:02d}" for k in range(1, 15)]:
            for rec in self.PACK[sid].intruders:
                if not rec.ground_clock:
                    kinds.add(rec.kind)
                    behaviors.add(rec.behavior)
        assert kinds == {IntruderKind.DRONE, IntruderKind.BIRD}
        assert behaviors == {IntruderBehavior.PREDICTABLE, IntruderBehavior.UNPREDICTABLE}

    def test_route_two_scenarios_plan_route_two(self):
        for sid in ("ref-route2", "sc-12", "sc-13"):
            assert self.PACK[sid].planned_route == "ROUTE2"

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            self.PACK["sc-99"]


class TestRoundTrip:
    PACK = default_pack()

    @pytest.mark.parametrize("sid", default_pack().ids())
    def test_parse_serialize_identity(self, sid):
        sc = self.PACK[sid]
        assert parse_scenario(serialize_scenario(sc)) == sc

    @pytest.mark.parametrize("line", [
        "SET ENV.FORWARD_OVERRIDE 2000,1000,150",
        "SET ENV.VERTICAL_OVERRIDE 900,450,60",
        "SET CDR.TACTICAL_TRIGGER_ZONE WARNING",
    ])
    def test_set_line_round_trips(self, line):
        """An envelope set and a zone are written back by name and value."""
        sc = parse_scenario(MINIMAL + line + "\n")
        assert sc != parse_scenario(MINIMAL)
        assert parse_scenario(serialize_scenario(sc)) == sc

    def test_replay_without_a_source_path_is_not_serialized(self):
        traj = Trajectory((0.0, 10.0), (0.0, 50.0), (0.0, 0.0), (100.0, 100.0))
        rec = IntruderRecord("r0", IntruderKind.DRONE, IntruderBehavior.PREDICTABLE, trajectory=traj)
        sc = replace(parse_scenario(MINIMAL), intruders=(rec,))
        with pytest.raises(ScenarioError, match="intruder 'r0' has no source path to serialize"):
            serialize_scenario(sc)

    def test_export_then_load_matches(self, tmp_path):
        files = export_pack(self.PACK, tmp_path)
        assert len(files) == 21
        loaded = load_pack(tmp_path)
        assert {s.id: s for s in loaded} == {s.id: s for s in self.PACK}

    def test_load_default_by_name(self):
        assert resolve_pack("default").ids() == self.PACK.ids()

    def test_missing_pack_dir_raises(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_pack(tmp_path / "nope")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ScenarioError):
            load_pack(empty)


class TestBatchReport:
    TABLE = BatchTable(
        rows=(
            MetricsReport("a-01", cpa=352.125, cpa_without=3.4567, t_sim=705.5, d_ground=300.0,
                          d_air=13.58, d_total=313.58,
                          terminal=Terminal(TerminalKind.LANDED_AT, "V2")),
            MetricsReport("a-02", cpa=None, cpa_without=None, t_sim=None, d_ground=math.inf,
                          d_air=None, d_total=None,
                          terminal=Terminal(TerminalKind.POSTPONED_ON_GROUND)),
        ),
        mean_d_air=13.58,
    )

    def test_csv_lines(self):
        lines = batch_csv_lines(self.TABLE)
        assert lines[0] == BATCH_CSV_HEADER
        assert lines[1] == "a-01,352.125,3.457,705.500,300.000,13.580,313.580"
        assert lines[2] == "a-02,,,,inf,,"

    def test_csv_files(self, tmp_path):
        written = write_batch_report(self.TABLE, tmp_path, "csv")
        assert [p.name for p in written] == ["summary.csv", "delays.csv", "cpa_compare.csv"]
        delays = (tmp_path / "delays.csv").read_text().splitlines()
        assert delays[0] == "scenario_id,d_ground_s,d_air_s,d_total_s"
        assert delays[2] == "a-02,inf,,"

    def test_structured_file(self, tmp_path):
        write_batch_report(self.TABLE, tmp_path, "structured")
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["mean_d_air_s"] == 13.58
        rows = doc["rows"]
        assert rows[0]["terminal"] == "LANDED_AT"
        assert rows[0]["landed_at"] == "V2"
        assert rows[1]["d_ground_s"] == "inf"
        assert rows[1]["landed_at"] is None

    def test_both_writes_all_four(self, tmp_path):
        written = write_batch_report(self.TABLE, tmp_path, "both")
        assert {p.name for p in written} == {
            "summary.csv", "delays.csv", "cpa_compare.csv", "report.json",
        }

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_batch_report(self.TABLE, tmp_path, "xml")

    def test_reruns_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_batch_report(self.TABLE, a, "both")
        write_batch_report(self.TABLE, b, "both")
        for name in ("summary.csv", "delays.csv", "cpa_compare.csv", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


# Every exported pack scenario, the tokens they are made of (whole, and
# split at "=" and ","), and values at the edges of what the grammar takes.
PACK_TEXTS = [serialize_scenario(sc) for sc in default_pack()]
_PIECES = re.compile(r"[=,]")
EDIT_TOKENS = sorted(
    {tok for text in PACK_TEXTS for tok in text.split()}
    | {p for text in PACK_TEXTS for tok in text.split() for p in _PIECES.split(tok) if p}
    | {"0", "-0", "-1", "2.7", "1e300", "1e308", "-1e308", "5e-324", "nan", "-inf",
       "1000ft", "NONE", "=", ",", "#", "AT", "GROUND", "CSV", "SCRIPT", "V1", "ROUTE3"}
)
_value = st.one_of(
    st.sampled_from(EDIT_TOKENS),
    st.floats().map(repr),
    st.text(min_size=1, max_size=6),
)


@st.composite
def edited_pack_scenarios(draw):
    """An exported pack scenario with one to three edits: a token or a
    piece of one replaced, a token inserted or dropped, a line dropped
    or doubled."""
    lines = draw(st.sampled_from(PACK_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split() or [""]
        j = draw(st.integers(0, len(toks) - 1))
        op = draw(st.sampled_from(["token", "piece", "insert", "drop-token", "drop", "double"]))
        if op == "token":
            toks[j] = draw(_value)
        elif op == "piece":
            parts = _PIECES.split(toks[j])
            seps = _PIECES.findall(toks[j])
            parts[draw(st.integers(0, len(parts) - 1))] = draw(_value)
            toks[j] = "".join(p + s for p, s in zip(parts, seps + [""]))
        elif op == "insert":
            toks.insert(j, draw(_value))
        elif op == "drop-token":
            del toks[j]
        if op == "drop":
            del lines[i]
        elif op == "double":
            lines.insert(i, lines[i])
        else:
            lines[i] = " ".join(toks)
        if not lines:
            break
    return "\n".join(lines) + "\n"


class TestFuzz:
    # Relative CSV paths resolve under a directory that does not exist.
    BASE = Path(__file__).with_name("no-such-dir")

    @settings(max_examples=500, deadline=None)
    @given(text=edited_pack_scenarios())
    def test_edited_pack_scenarios_fail_cleanly_or_round_trip(self, text):
        try:
            sc = parse_scenario(text, base_dir=self.BASE)
        except ScenarioError:
            return
        assert parse_scenario(serialize_scenario(sc), base_dir=self.BASE) == sc
