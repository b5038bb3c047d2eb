"""Scenario file grammar, trajectory CSVs, the built-in pack, and batch
report files."""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uamcas.agents import (
    IntruderBehavior,
    IntruderKind,
    OwnshipConfig,
    ScriptMode,
)
from uamcas.cdr import GroundCheckParams
from uamcas.cli import resolve_pack
from uamcas.engine import SimParams, Terminal, TerminalKind
from uamcas.envelopes import EnvelopeSet, Zone
from uamcas.geo import GeoPoint, polyline_length
from uamcas.metrics import (
    BATCH_CSV_HEADER,
    BatchRow,
    BatchTable,
    batch_csv_lines,
    write_batch_report,
)
from uamcas.pack import default_pack
from uamcas.scenario_io import (
    Scenario,
    ScenarioError,
    export_pack,
    load_pack,
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
        assert rec.trajectory.samples[1][1].east == 50.0

    def test_csv_geodetic_uses_v1_origin(self, tmp_path):
        (tmp_path / "geo.csv").write_text(
            "t_s,lat_deg,lon_deg,alt_m\n0,48.3537,11.786,100\n10,48.3627,11.786,100\n"
        )
        text = MINIMAL + "INTRUDER i1 DRONE PREDICTABLE CSV geo.csv\n"
        sc = parse_scenario(text, base_dir=tmp_path)
        (rec,) = sc.intruders
        assert rec.trajectory.samples[0][1].east == pytest.approx(0.0, abs=1e-6)
        assert rec.trajectory.samples[1][1].north == pytest.approx(1000.0, rel=1e-3)

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
        assert traj.samples[0] == (0.0, traj.samples[0][1])
        assert traj.samples[1][1].up == 6.0

    def test_geodetic_needs_origin(self):
        text = "t_s,lat_deg,lon_deg,alt_m\n0,48.0,11.0,100\n5,48.1,11.0,100\n"
        with pytest.raises(ScenarioError):
            parse_trajectory_csv(text)
        traj = parse_trajectory_csv(text, origin=GeoPoint(48.0, 11.0, 0.0))
        assert traj.samples[0][1].north == pytest.approx(0.0, abs=1e-6)

    def test_unknown_header_rejected(self):
        with pytest.raises(ScenarioError) as ei:
            parse_trajectory_csv("time,x,y,z\n0,1,2,3\n")
        assert "unrecognised trajectory header" in str(ei.value)

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
        assert polyline_length(sc.routes["ROUTE1"]) == pytest.approx(26000.0, abs=0.5)
        assert polyline_length(sc.routes["ROUTE2"]) == pytest.approx(30000.0, abs=0.5)

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
            BatchRow("a-01", 352.125, 3.4567, 705.5, 300.0, 13.58, 313.58,
                     Terminal(TerminalKind.LANDED_AT, "V2")),
            BatchRow("a-02", None, None, None, math.inf, None, None,
                     Terminal(TerminalKind.POSTPONED_ON_GROUND)),
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
