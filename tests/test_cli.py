"""Command line contract: subcommands, artifacts, exit codes, and the
launchers."""

import gc
import importlib.util
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from test_engine import PACK, enu_scenario, far_swarm
from uamcas import agents, cli, engine
from uamcas.cli import main
from uamcas.engine import TRACE_HEADER
from uamcas.metrics import BATCH_CSV_HEADER
from uamcas.pack import default_pack
from uamcas.scenario_io import ScenarioPack, export_pack, load_pack, serialize_scenario


@pytest.fixture(scope="module")
def scn_dir(tmp_path_factory):
    """Directory with every default scenario exported as a file."""
    d = tmp_path_factory.mktemp("scn")
    export_pack(default_pack(), d)
    return d


SRC = Path(__file__).resolve().parents[1] / "src"


def scn(scn_dir, sid):
    return str(scn_dir / f"{sid}.scn")


# One corridor from V1 to V2 and a pre-departure loiterer on it, 5 km out.
ONE_ROUTE = """\
SCENARIO one-route
OWNSHIP VECTORED_THRUST
VERTIPORT V1 48.3537 11.786
VERTIPORT V2 48.1669 11.5883
ROUTE {rid} 48.3537,11.786 48.1669,11.5883
PLAN {rid}
INTRUDER g1 DRONE UNPREDICTABLE SCRIPT LINGER SPEED=1 ANCHOR=-2921.7,-4154.2,100 HOLD={hold}
SPAWN g1 AT 0 GROUND
"""


# A loiterer straight over V1, on the ownship's vertical climb: it has no
# bearing from the ownship until the ownship leaves the pad.
OVERHEAD = """\
SCENARIO overhead
OWNSHIP VECTORED_THRUST
VERTIPORT V1 48.3537 11.786
VERTIPORT V2 48.1669 11.5883
ROUTE ROUTE1 48.3537,11.786 48.1669,11.5883
PLAN ROUTE1
INTRUDER i1 DRONE PREDICTABLE SCRIPT LINGER SPEED=1.0 ANCHOR=0,0,250 HOLD=500
SPAWN i1 AT 5
"""


def overflowing_sc03(scn_dir, where):
    """sc-03 with its i1 intruder at SPEED=1e308, whose positions
    overflow float arithmetic once it spawns."""
    text = Path(scn(scn_dir, "sc-03")).read_text()
    assert "PASS_BY SPEED=20.0 " in text
    bad = where / "sc-03.scn"
    bad.write_text(text.replace("PASS_BY SPEED=20.0 ", "PASS_BY SPEED=1e308 "))
    return bad


# V2 is 89 km west of V1, and the route runs from 90 km east of V1 to
# 90 km west of it: each point fits the flat frame centred on V1, but the
# route is 180 km long, too long for a frame centred on its own first
# point.
ACROSS = """\
SCENARIO across
OWNSHIP VECTORED_THRUST
VERTIPORT V1 48.3537 11.786
VERTIPORT V2 48.3537 10.58
ROUTE ACROSS 48.3537,13.0 48.3537,10.57
PLAN ACROSS
"""

UNREADABLE = ["not-utf8", "directory"]


def unreadable_scn(where, kind):
    """An x.scn entry under where that cannot be read as text: bytes that
    are not UTF-8, or a directory."""
    bad = where / "x.scn"
    if kind == "not-utf8":
        bad.write_bytes(b"\xff\xfeSCENARIO x\n")
    else:
        bad.mkdir()
    return bad


def far_v3_sc03(scn_dir, where):
    """sc-03 with V3 moved 140 km north of V1, beyond the flat frame."""
    text = Path(scn(scn_dir, "sc-03")).read_text()
    assert "VERTIPORT V3 48.2394 11.5614 " in text
    bad = where / "sc-03.scn"
    bad.write_text(text.replace("VERTIPORT V3 48.2394 ", "VERTIPORT V3 49.5 "))
    return bad


class TestRun:
    def test_nominal_run(self, scn_dir, tmp_path, capsys):
        rc = main(["run", scn(scn_dir, "ref-route1"), "--dt", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("ref-route1: landed at V2, t_sim=")
        trace = (tmp_path / "ref-route1_trace.csv").read_text().splitlines()
        assert trace[0] == TRACE_HEADER
        assert len(trace) > 1000
        report = (tmp_path / "ref-route1_report.csv").read_text().splitlines()
        assert report[0] == "metric,value"
        assert any(ln.startswith("t_sim_s,") for ln in report)
        assert not (tmp_path / "ref-route1_trace_nocas.csv").exists()

    def test_intruder_straight_overhead_is_treated_as_dead_ahead(self, tmp_path, capsys):
        """Detected while straight above the climbing ownship, the
        stationary loiterer is classed as dead ahead, a crossing from the
        right, and the ownship hovers until it is gone."""
        path = tmp_path / "overhead.scn"
        path.write_text(OVERHEAD)
        rc = main(["run", str(path), "--dt", "0.5", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().out.startswith("overhead: landed at V2, t_sim=")
        rows = (tmp_path / "out" / "overhead_trace.csv").read_text().splitlines()[1:]
        first = next(row.split(",") for row in rows if row.endswith(",HOVER"))
        assert (first[1], first[2], first[5]) == ("0.000", "0.000", "AVOID")

    def test_compare_adds_baseline_artifacts(self, scn_dir, tmp_path):
        rc = main(["run", scn(scn_dir, "sc-03"), "--dt", "0.5", "--compare",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "sc-03_trace.csv").exists()
        assert (tmp_path / "sc-03_trace_nocas.csv").exists()
        report = (tmp_path / "sc-03_report.csv").read_text()
        assert "cpa_with_m," in report
        assert "cpa_without_m," in report

    def test_structured_format(self, scn_dir, tmp_path):
        rc = main(["run", scn(scn_dir, "sc-03"), "--dt", "0.5",
                   "--format", "structured", "--out", str(tmp_path)])
        assert rc == 0
        assert not (tmp_path / "sc-03_report.csv").exists()
        doc = json.loads((tmp_path / "sc-03_report.json").read_text())
        assert doc["scenario_id"] == "sc-03"
        assert doc["terminal"] == "LANDED_AT"
        assert doc["d_total_s"] == pytest.approx(
            doc["d_ground_s"] + doc["d_air_s"]
        )

    def test_both_formats(self, scn_dir, tmp_path):
        rc = main(["run", scn(scn_dir, "sc-03"), "--dt", "0.5",
                   "--format", "both", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "sc-03_report.csv").exists()
        assert (tmp_path / "sc-03_report.json").exists()

    def test_postponed_exit_code(self, scn_dir, tmp_path, capsys):
        rc = main(["run", scn(scn_dir, "ground-postponed"), "--dt", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().out == "ground-postponed: postponed on ground\n"

    def test_collision_exit_code(self, scn_dir, tmp_path, capsys):
        rc = main(["run", scn(scn_dir, "sc-14"), "--dt", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "collided" in capsys.readouterr().out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.scn"), "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("OWNSHIP TELEPORTER\n")
        rc = main(["run", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", ["0", "-0.5"])
    def test_non_positive_dt_is_an_error(self, scn_dir, tmp_path, capsys, dt):
        out = tmp_path / "out"
        rc = main(["run", scn(scn_dir, "ref-route1"), "--dt", dt, "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: dt must be positive\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["inf", "-inf", "nan"])
    def test_non_finite_dt_is_an_error(self, scn_dir, tmp_path, capsys, dt):
        out = tmp_path / "out"
        rc = main(["run", scn(scn_dir, "ref-route1"), f"--dt={dt}", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: dt must be finite\n"
        assert captured.out == ""
        assert not out.exists()

    def test_dt_too_small_to_advance_the_clock_is_an_error(self, scn_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", scn(scn_dir, "sc-03"), "--dt", "1e-300", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {TICK_CAP}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_dt_over_the_tick_cap_is_an_error(self, scn_dir, tmp_path, capsys):
        """1e-9 s advances the clock, but 3.6e12 ticks would never end."""
        out = tmp_path / "out"
        rc = main(["run", scn(scn_dir, "sc-03"), "--dt", "1e-9", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {TICK_CAP}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_overflowing_script_speed_is_an_error(self, scn_dir, tmp_path, capsys):
        """An intruder too fast for float geometry fails the run with one
        error line, not a traceback, and leaves no report."""
        bad = overflowing_sc03(scn_dir, tmp_path)
        out = tmp_path / "out"
        rc = main(["run", str(bad), "--compare", "--format", "both", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_config_overlay(self, scn_dir, tmp_path, capsys):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("SET SIM.MAX_SIM_TIME 400\n")  # the climb and descent alone take 358.6 s
        rc = main(["run", scn(scn_dir, "ref-route1"), "--dt", "0.5",
                   "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1  # timed out
        assert "timed out" in capsys.readouterr().out

    def test_config_with_a_byte_order_mark(self, scn_dir, tmp_path, capsys):
        """A config saved with a leading byte-order mark applies as the
        same config without one, to run and to batch."""
        pack = tmp_path / "pack"
        pack.mkdir()
        (pack / "sc-03.scn").write_text(Path(scn(scn_dir, "sc-03")).read_text())
        for encoding in ("utf-8", "utf-8-sig"):
            cfg = tmp_path / f"{encoding}.cfg"
            cfg.write_text("SET SIM.DT 0.5\nSET PERF.CLIMB_RATE 2.5\n", encoding=encoding)
            assert main(["run", scn(scn_dir, "sc-03"), "--config", str(cfg), "--out", str(tmp_path / encoding)]) == 0
            assert main(["batch", "--pack", str(pack), "--config", str(cfg), "--out", str(tmp_path / encoding / "b")]) == 0
        capsys.readouterr()
        plain, marked = tmp_path / "utf-8", tmp_path / "utf-8-sig"
        assert (marked / "sc-03_trace.csv").read_bytes() == (plain / "sc-03_trace.csv").read_bytes()
        assert (marked / "b" / "summary.csv").read_bytes() == (plain / "b" / "summary.csv").read_bytes()
        assert (marked / "b" / "traces" / "sc-03.csv").read_bytes() == (marked / "sc-03_trace.csv").read_bytes()

    def test_config_error_names_the_config_line(self, scn_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("SET CDR.BOGUS 1\n")
        out = tmp_path / "out"
        rc = main(["run", scn(scn_dir, "sc-03"), "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {cfg}: line 1: unknown parameter 'CDR.BOGUS'\n"
        assert captured.out == "" and not out.exists()

    def test_config_cross_check_names_config_and_scenario(self, scn_dir, tmp_path, capsys):
        cfg = tmp_path / "hold.cfg"
        cfg.write_text("SET CDR.HOLD_DURATION 99999\n")
        rc = main(["run", scn(scn_dir, "sc-03"), "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg} on sc-03: line 0: CDR.HOLD_DURATION (99999.0) must not exceed "
            "SIM.MAX_SIM_TIME (3600.0)\n"
        )

    def test_unsafe_scenario_id_writes_nothing_outside_out(self, scn_dir, tmp_path, capsys):
        """An id that would name files beside --out is rejected before
        anything is written."""
        text = Path(scn(scn_dir, "sc-03")).read_text()
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace("SCENARIO sc-03\n", "SCENARIO ../escaped\n", 1))
        rc = main(["run", str(bad), "--dt", "0.5", "--out", str(tmp_path / "o1")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: line 1: scenario id '../escaped' must be")
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["bad.scn"]

    def test_out_that_is_a_file_is_an_error(self, scn_dir, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        rc = main(["run", scn(scn_dir, "sc-03"), "--dt", "0.5", "--out", str(afile)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_one_route_blocked_on_every_scan_is_postponed(self, tmp_path, capsys):
        # the loiterer sits on the corridor, outside the overhead ring,
        # for longer than the whole departure ladder
        path = tmp_path / "one.scn"
        path.write_text(ONE_ROUTE.format(rid="ROUTE1", hold=4000))
        rc = main(["run", str(path), "--dt", "0.5", "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().out == "one-route: postponed on ground\n"

    def test_one_route_clear_at_first_rescan_departs_on_plan(self, tmp_path, capsys):
        path = tmp_path / "one.scn"
        path.write_text(ONE_ROUTE.format(rid="CITY", hold=250))
        rc = main(["run", str(path), "--dt", "0.5", "--format", "structured",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("one-route: landed at V2,")
        doc = json.loads((tmp_path / "one-route_report.json").read_text())
        assert doc["d_ground_s"] == 300.0

    def test_route_is_flown_in_the_frame_of_v1(self, tmp_path, capsys):
        path = tmp_path / "across.scn"
        path.write_text(ACROSS)
        assert main(["validate", str(path)]) == 0
        rc = main(["run", str(path), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert captured.out.splitlines()[-1] == "across: landed at V2, t_sim=2660.000 s"

    def test_postponed_structured_report_is_strict_json(self, scn_dir, tmp_path):
        rc = main(["run", scn(scn_dir, "ground-postponed"), "--dt", "0.5",
                   "--format", "structured", "--out", str(tmp_path)])
        assert rc == 3

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = (tmp_path / "ground-postponed_report.json").read_text()
        doc = json.loads(text, parse_constant=reject)
        assert doc["d_ground_s"] == "inf"  # as in the batch report.json
        assert doc["t_sim_s"] is None and doc["d_air_s"] is None


TICK_CAP = "max_sim_time / dt must not exceed 10000000 ticks"

BOGUS_ERRORS = (
    "line 0: missing OWNSHIP directive; line 0: missing PLAN directive; "
    "line 0: need at least two VERTIPORT directives; "
    "line 0: vertiport V1 (frame origin) is required; line 2: unknown directive 'BOGUS'"
)


def bad_file_pack(good_pack, tmp_path):
    """A copy of good_pack plus one .scn file the parser rejects."""
    pack = tmp_path / "pack"
    pack.mkdir()
    for f in good_pack.glob("*.scn"):
        (pack / f.name).write_text(f.read_text())
    (pack / "bogus.scn").write_text("SCENARIO bogus\nBOGUS 1\n")
    return pack


# sc-04 saved under sc-03's id, after sc-03 itself.
DUPLICATE_ID_ERROR = "{pack}/b.scn: line 0: scenario id 'sc-03' is also declared by {pack}/a.scn"


def duplicate_id_pack(scn_dir, tmp_path):
    pack = tmp_path / "dup"
    pack.mkdir()
    (pack / "a.scn").write_text(Path(scn(scn_dir, "sc-03")).read_text())
    sc04 = Path(scn(scn_dir, "sc-04")).read_text()
    assert sc04.startswith("SCENARIO sc-04\n")
    (pack / "b.scn").write_text(sc04.replace("SCENARIO sc-04", "SCENARIO sc-03", 1))
    return pack


@pytest.fixture(scope="module")
def mini_pack_dir(tmp_path_factory):
    """Three-scenario pack: nominal, encounter, postponed."""
    d = tmp_path_factory.mktemp("minipack")
    pack = default_pack()
    for sid in ("ref-route1", "sc-03", "ground-postponed"):
        (d / f"{sid}.scn").write_text(serialize_scenario(pack[sid]))
    return d


class TestBatch:
    def test_batch_runs_pack_directory(self, mini_pack_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["batch", "--pack", str(mini_pack_dir), "--dt", "0.5",
                   "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0] == BATCH_CSV_HEADER
        ids = [ln.split(",")[0] for ln in stdout[1:4]]
        assert ids == ["ground-postponed", "ref-route1", "sc-03"]
        # averaged over the two departed rows; ground-postponed has no d_air
        assert stdout[4].startswith("# mean airborne delay over 2 scenarios:")

        summary = (out / "summary.csv").read_text().splitlines()
        assert summary == stdout[:4]
        for sid in ("ref-route1", "sc-03", "ground-postponed"):
            has_trace = (out / "traces" / f"{sid}.csv").exists()
            has_off = (out / "traces" / f"{sid}_nocas.csv").exists()
            if sid == "ground-postponed":
                assert has_trace and has_off  # headers only
            else:
                assert has_trace and has_off

    def test_pack_with_an_intruder_straight_overhead_completes(self, tmp_path, capsys):
        pack = tmp_path / "pack"
        pack.mkdir()
        (pack / "overhead.scn").write_text(OVERHEAD)
        rc = main(["batch", "--pack", str(pack), "--dt", "0.5", "--out", str(tmp_path / "out")])
        assert rc == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0] == BATCH_CSV_HEADER
        assert stdout[1].startswith("overhead,")

    def test_each_run_is_released_before_the_next(
        self, mini_pack_dir, tmp_path, capsys, monkeypatch
    ):
        """A batch holds one run's tick records at a time: no earlier
        RunResult is alive when the next run starts."""
        run = engine.run
        runs = []
        alive_at_start = []

        def tracked(scenario, params=None):
            alive_at_start.append(sum(ref() is not None for ref in runs))
            result = run(scenario, params)
            runs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(engine, "run", tracked)
        assert main(["batch", "--pack", str(mini_pack_dir), "--dt", "0.5",
                     "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert alive_at_start == [0] * 6

    def test_postponed_row_shape(self, mini_pack_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["batch", "--pack", str(mini_pack_dir), "--dt", "0.5",
                   "--out", str(out)])
        assert rc == 0
        row = next(
            ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("ground-postponed,")
        )
        assert row == "ground-postponed,,,,inf,,"

    @pytest.mark.parametrize("dt", ["inf", "nan"])
    def test_non_finite_dt_is_an_error(self, mini_pack_dir, tmp_path, capsys, dt):
        out = tmp_path / "out"
        rc = main(["batch", "--pack", str(mini_pack_dir), "--dt", dt, "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: dt must be finite\n"
        assert captured.out == ""
        assert not (out / "summary.csv").exists()
        assert list((out / "traces").iterdir()) == []

    def test_dt_too_small_to_advance_the_clock_is_an_error(self, mini_pack_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["batch", "--pack", str(mini_pack_dir), "--dt", "1e-300", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {TICK_CAP}\n"
        assert captured.out == ""
        assert not (out / "summary.csv").exists()
        assert list((out / "traces").iterdir()) == []

    def test_dt_over_the_tick_cap_is_an_error(self, mini_pack_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["batch", "--pack", str(mini_pack_dir), "--dt", "1e-9", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {TICK_CAP}\n"
        assert captured.out == ""
        assert not (out / "summary.csv").exists()

    def test_bad_scenario_in_pack_names_its_file(self, mini_pack_dir, tmp_path, capsys):
        pack = bad_file_pack(mini_pack_dir, tmp_path)
        out = tmp_path / "out"
        rc = main(["batch", "--pack", str(pack), "--dt", "0.5", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {pack / 'bogus.scn'}: {BOGUS_ERRORS}\n"
        assert captured.out == ""

    def test_overflowing_script_speed_is_an_error(self, scn_dir, tmp_path, capsys):
        pack = tmp_path / "pack"
        pack.mkdir()
        overflowing_sc03(scn_dir, pack)
        out = tmp_path / "out"
        rc = main(["batch", "--pack", str(pack), "--dt", "0.5", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (out / "summary.csv").exists()

    def test_point_beyond_the_frame_writes_no_trace(self, scn_dir, tmp_path, capsys):
        pack = tmp_path / "pack"
        pack.mkdir()
        (pack / "ref-route1.scn").write_text(Path(scn(scn_dir, "ref-route1")).read_text())
        far_v3_sc03(scn_dir, pack)
        out = tmp_path / "out"
        rc = main(["batch", "--pack", str(pack), "--dt", "0.5", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "beyond flat-plane validity" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_unreadable_scn_is_an_error(self, scn_dir, tmp_path, capsys, kind):
        pack = tmp_path / "pack"
        pack.mkdir()
        (pack / "ref-route1.scn").write_text(Path(scn(scn_dir, "ref-route1")).read_text())
        unreadable_scn(pack, kind)
        rc = main(["batch", "--pack", str(pack), "--out", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_missing_pack_dir_errors(self, tmp_path, capsys):
        rc = main(["batch", "--pack", str(tmp_path / "nothing"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_reruns_byte_identical(self, mini_pack_dir, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["batch", "--pack", str(mini_pack_dir), "--dt", "0.5",
              "--format", "both", "--out", str(a)])
        main(["batch", "--pack", str(mini_pack_dir), "--dt", "0.5",
              "--format", "both", "--out", str(b)])
        capsys.readouterr()
        for name in ("summary.csv", "delays.csv", "cpa_compare.csv", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / "traces" / "sc-03.csv").read_bytes() == (
            b / "traces" / "sc-03.csv"
        ).read_bytes()

    def test_config_overlay_on_pack_with_csv_intruder(self, tmp_path, capsys):
        # the CSV path is relative to the pack directory, not to the cwd
        pack = tmp_path / "pack"
        pack.mkdir()
        (pack / "r0.csv").write_text(
            "t_s,east_m,north_m,up_m\n0,-9000,-3000,300\n600,-9000,3000,300\n"
        )
        network = ONE_ROUTE.format(rid="ROUTE1", hold=0).split("INTRUDER")[0]
        (pack / "csv-01.scn").write_text(network + "INTRUDER r0 DRONE PREDICTABLE CSV r0.csv\n")
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text("SET SIM.DT 0.5\n")
        out = tmp_path / "out"
        rc = main(["batch", "--pack", str(pack), "--config", str(cfg), "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        trace = (out / "traces" / "one-route.csv").read_text().splitlines()
        assert trace[1].startswith("0.500,")  # the overlay's tick

    def test_duplicate_scenario_ids_are_an_error(self, scn_dir, tmp_path, capsys):
        pack = duplicate_id_pack(scn_dir, tmp_path)
        out = tmp_path / "out"
        rc = main(["batch", "--pack", str(pack), "--dt", "0.5", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {DUPLICATE_ID_ERROR.format(pack=pack)}\n"
        assert captured.out == "" and not out.exists()

    def test_config_error_names_the_config_line(self, mini_pack_dir, tmp_path, capsys):
        cfg = tmp_path / "two.cfg"
        cfg.write_text("# two overrides\nSET SIM.DT 0.5\nSET CDR.BOGUS 1\n")
        rc = main(["batch", "--pack", str(mini_pack_dir), "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {cfg}: line 3: unknown parameter 'CDR.BOGUS'\n"
        assert captured.out == ""

    def test_config_cross_check_names_config_and_scenario(self, mini_pack_dir, tmp_path, capsys):
        cfg = tmp_path / "hold.cfg"
        cfg.write_text("SET CDR.HOLD_DURATION 99999\n")
        rc = main(["batch", "--pack", str(mini_pack_dir), "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {cfg} on ground-postponed: line 0: CDR.HOLD_DURATION (99999.0) must not"
        )

    @pytest.mark.parametrize("case", ["bad-key", "missing-file", "later-scenario"])
    def test_failed_config_writes_nothing(self, scn_dir, mini_pack_dir, tmp_path, capsys, case):
        """The overlay is read and applied to every scenario before the
        batch writes anything, so it fails with no output directory, even
        when only a later scenario rejects it."""
        cfg = tmp_path / "run.cfg"
        pack = mini_pack_dir
        if case == "bad-key":
            cfg.write_text("SET SIM.DT 0.5\nSET CDR.BOGUS 1\n")
            expected = f"error: {cfg}: line 2: unknown parameter 'CDR.BOGUS'"
        elif case == "missing-file":
            expected = "error: [Errno 2] No such file or directory"
        else:
            # ref-route1 sorts first and alone cruises above the descent target
            pack = tmp_path / "pack"
            pack.mkdir()
            ref = Path(scn(scn_dir, "ref-route1")).read_text()
            (pack / "ref-route1.scn").write_text(ref + "SET PERF.CRUISE_ALT 500\n")
            (pack / "sc-03.scn").write_text(Path(scn(scn_dir, "sc-03")).read_text())
            cfg.write_text("SET CDR.DESCEND_ALT_M 400\n")
            expected = f"error: {cfg} on sc-03: line 0: CDR.DESCEND_ALT_M (400.0) must lie"
        out = tmp_path / "out"
        rc = main(["batch", "--pack", str(pack), "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(expected) and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()


class TestRunReportMatchesBatch:
    IDS = ("ref-route1", "ground-postponed", "sc-03", "sc-14")

    def test_run_reports_equal_the_batch_rows(self, scn_dir, tmp_path, capsys):
        pack = tmp_path / "pack"
        pack.mkdir()
        for sid in self.IDS:
            (pack / f"{sid}.scn").write_text(Path(scn(scn_dir, sid)).read_text())
        batch, runs = tmp_path / "batch", tmp_path / "runs"
        common = ["--dt", "0.5", "--format", "both"]
        assert main(["batch", "--pack", str(pack), *common, "--out", str(batch)]) == 0
        for sid in self.IDS:
            main(["run", str(pack / f"{sid}.scn"), "--compare", *common, "--out", str(runs)])
        capsys.readouterr()

        batch_rows = {row["scenario_id"]: row
                      for row in json.loads((batch / "report.json").read_text())["rows"]}
        header, *lines = (batch / "summary.csv").read_text().splitlines()
        summary = {cells[0]: dict(zip(header.split(","), cells))
                   for cells in (line.split(",") for line in lines)}
        for sid in self.IDS:
            assert json.loads((runs / f"{sid}_report.json").read_text()) == batch_rows[sid]
            metric, *cells = (runs / f"{sid}_report.csv").read_text().splitlines()
            assert metric == "metric,value"
            assert {"scenario_id": sid, **dict(c.split(",") for c in cells)} == summary[sid]


class TestBatchStepCollectorPause:
    """A pair step (cli._simulate_pair: run, score and render the system-on
    and the system-off side, as a batch and `run --compare` take them)
    keeps the cyclic collector paused until both runs' records are freed,
    and leaves it as it found it, as engine.run does for the run alone
    (test_engine's TestCollectorPause); the pause is safe because a step
    makes no cyclic garbage."""

    SC = PACK["sc-12"]  # shares 1,014 of its 1,487 records at dt 0.5, then diverges

    @pytest.fixture(autouse=True)
    def keep_collector_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored(self, enabled):
        (gc.enable if enabled else gc.disable)()
        cli._simulate_pair(self.SC, 0.5, [].append)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored_when_the_step_raises(self, monkeypatch, enabled):
        """The trace is rendered after engine.run has returned, and the
        collector is still paused there."""
        (gc.enable if enabled else gc.disable)()

        def fail(result, first=0):
            assert not gc.isenabled()
            raise RuntimeError("trace failed")

        monkeypatch.setattr(engine, "trace_csv_lines", fail)
        with pytest.raises(RuntimeError, match="trace failed"):
            cli._simulate_pair(self.SC, 0.5, [].append)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored_when_the_step_raises_between_the_runs(self, monkeypatch, enabled):
        """The system-off run fails while the memo holds the system-on
        run's records, and the collector is still paused there."""
        (gc.enable if enabled else gc.disable)()
        run = engine.run

        def fail_off(scenario, params=None):
            if not params.cas_enabled:
                assert not gc.isenabled() and engine._scope.memo is not None
                raise RuntimeError("system-off run failed")
            return run(scenario, params)

        monkeypatch.setattr(engine, "run", fail_off)
        with pytest.raises(RuntimeError, match="system-off run failed"):
            cli._simulate_pair(self.SC, 0.5, [].append)
        assert gc.isenabled() is enabled

    def test_no_collection_starts_inside_a_batch_step(self, monkeypatch):
        """The collector resumes once both runs' records are freed, and
        the collection the step's allocations made due starts after the
        step, so it does not walk them."""
        gc.enable()
        results, starts, resumed, traces = [], [], [], []
        run, enable = engine.run, gc.enable

        def spy(*args):
            result = run(*args)
            results.append(weakref.ref(result))
            return result

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        def spy_enable():
            resumed.append([ref() for ref in results] if results else "before the run returned")
            enable()

        monkeypatch.setattr(engine, "run", spy)
        monkeypatch.setattr(gc, "enable", spy_enable)
        sc = enu_scenario(*far_swarm())
        gc.collect()  # generation 0 empty: the pause's own allocation on entry cannot start one
        gc.callbacks.append(record)
        try:
            cli._simulate_pair(sc, None, traces.append)
        finally:
            gc.callbacks.remove(record)
        on, off = traces
        assert len(results) == 2 and resumed == [[None, None]]
        assert len(on) > 1000 and off == on  # the far swarm never leaves MONITORING
        assert starts == []

    def test_a_batch_is_one_pause(self, monkeypatch, tmp_path):
        """cli.run_batch keeps the collector paused over all its pair steps
        (engine.command_scope), so no collection starts before its 42nd
        trace is written; one did after the 16th when each pair step
        paused it on its own."""
        written, starts = [], []
        write = cli._write_trace

        def spy(lines, path):
            write(lines, path)
            written.append(path)

        def record(phase, info):
            if phase == "start":
                starts.append(len(written))

        monkeypatch.setattr(cli, "_write_trace", spy)
        gc.enable()
        gc.collect()  # generation 0 empty: the pause's own allocation on entry cannot start one
        gc.callbacks.append(record)
        try:
            cli.run_batch(default_pack(), tmp_path, dt=0.5, fmt="csv", config=None)
        finally:
            gc.callbacks.remove(record)
        assert len(written) == 42 and [n for n in starts if n < 42] == []

    # on: the step of `uamcas run`, the system-on side alone; off: with
    # its system-off side, which resumes from the system-on run's memo.
    @pytest.mark.parametrize("compare", [False, True], ids=["on", "off"])
    def test_batch_steps_leave_no_cyclic_garbage(self, compare):
        """Reference counting frees every dead object a step makes, so with
        the collector off nothing is left for it to find."""
        gc.disable()
        gc.collect()
        for sc in PACK:
            cli._simulate_pair(sc, None, lambda lines: None, compare)
            assert gc.collect() == 0, sc.id


class TestRunCompareMatchesBatch:
    """`run --compare` takes the pair step a batch takes."""

    def test_traces_equal_the_batch_traces(self, scn_dir, tmp_path, capsys):
        batch, runs = tmp_path / "batch", tmp_path / "runs"
        assert main(["batch", "--dt", "0.5", "--out", str(batch)]) == 0
        for sc in PACK:
            main(["run", scn(scn_dir, sc.id), "--compare", "--dt", "0.5", "--out", str(runs)])
            assert (runs / f"{sc.id}_trace.csv").read_bytes() == (batch / "traces" / f"{sc.id}.csv").read_bytes()
            assert ((runs / f"{sc.id}_trace_nocas.csv").read_bytes()
                    == (batch / "traces" / f"{sc.id}_nocas.csv").read_bytes()), sc.id
        capsys.readouterr()

    @pytest.fixture
    def far_swarm_scn(self, tmp_path):
        path = tmp_path / "far-swarm.scn"
        path.write_text(serialize_scenario(enu_scenario(*far_swarm())))
        return path

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_is_restored(self, far_swarm_scn, tmp_path, capsys, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["run", str(far_swarm_scn), "--compare", "--out", str(tmp_path / "out")]) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()

    def test_no_collection_starts_inside_a_compare_run(self, far_swarm_scn, tmp_path, capsys):
        """The whole command, both runs of the pair and their traces, is
        made in one pause, and the collection it made due starts after it."""
        args = cli.build_parser().parse_args(["run", str(far_swarm_scn), "--compare", "--out", str(tmp_path / "out")])
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.collect()  # generation 0 empty: the pause's own allocation on entry cannot start one
        gc.callbacks.append(record)
        try:
            assert cli.cmd_run(args) == 0
        finally:
            gc.callbacks.remove(record)
            (gc.enable if was else gc.disable)()
        capsys.readouterr()
        assert (tmp_path / "out" / "ref-route1_trace_nocas.csv").is_file()
        assert starts == []


class TestCommandScope:
    """A command's runs share the plan paths and the memo of one
    engine.command_scope, and nothing of them outlives the command."""

    def test_run_leaves_no_records(self, scn_dir, tmp_path, capsys, monkeypatch):
        """`uamcas run` without --compare: once the command returns, the
        engine holds neither the memo of its system-on run nor a plan path,
        so its scenario, result and records are freed."""
        run, kept = engine.run, []

        def tracked(scenario, params=None):
            result = run(scenario, params)
            kept.append((weakref.ref(scenario), weakref.ref(result), result.ticks[100]))
            return result

        monkeypatch.setattr(engine, "run", tracked)
        assert main(["run", scn(scn_dir, "ref-route1"), "--dt", "0.5", "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        sc, result, rec = kept.pop()
        assert sc() is None and result() is None and engine._scope is None
        assert sys.getrefcount(rec) == 2  # rec and the call's argument

    def test_each_batch_flies_its_own_first_flights(self, tmp_path, monkeypatch):
        """A batch flies each planned route once for all its runs, and two
        batches in one process each fly their own: they step the same
        ownship ticks, fewer than their pair steps make one by one."""
        stepped = []
        step = agents.ownship_step

        def spy(*args):
            result = step(*args)
            stepped[-1] += len(result[0])
            return result

        monkeypatch.setattr(agents, "ownship_step", spy)
        pack = ScenarioPack(tuple(PACK[sid] for sid in ("ref-route1", "sc-03", "sc-11")))  # all on ROUTE1
        for out in ("first", "second"):
            stepped.append(0)
            cli.run_batch(pack, tmp_path / out, dt=0.5, fmt="csv", config=None)
            assert engine._scope is None
        stepped.append(0)
        for sc in pack:
            cli._simulate_pair(sc, 0.5, [].append)
        first, second, alone = stepped
        assert first == second < alone

    @pytest.mark.parametrize("config", [None, "SET PERF.CLIMB_RATE 2.5\n"], ids=["plain", "config"])
    def test_plan_paths_are_keyed_by_perf_and_dt(self, scn_dir, tmp_path, capsys, config):
        """Three scenarios of one pack plan ROUTE1: one as it is, one with
        another cruise speed, one with another tick.  Each one's traces and
        report rows equal those of a batch of it alone, so none flies the
        path of another; also with a config applied to all three."""
        text = Path(scn(scn_dir, "ref-route1")).read_text()
        variants = {"k1-plain": "", "k2-speed": "SET PERF.CRUISE_SPEED 60\n", "k3-dt": "SET SIM.DT 0.2\n"}
        extra = []
        if config:
            (tmp_path / "overlay.cfg").write_text(config)
            extra = ["--config", str(tmp_path / "overlay.cfg")]
        pack = tmp_path / "pack"
        pack.mkdir()
        for sid, sets in variants.items():
            scn_text = text.replace("SCENARIO ref-route1", f"SCENARIO {sid}") + sets
            (pack / f"{sid}.scn").write_text(scn_text)
            (tmp_path / sid).mkdir()
            (tmp_path / sid / f"{sid}.scn").write_text(scn_text)
        assert main(["batch", "--pack", str(pack), "--out", str(tmp_path / "all"), *extra]) == 0
        for sid in variants:
            assert main(["batch", "--pack", str(tmp_path / sid), "--out", str(tmp_path / f"{sid}-out"), *extra]) == 0
            alone, together = tmp_path / f"{sid}-out", tmp_path / "all"
            for name in (f"{sid}.csv", f"{sid}_nocas.csv"):
                assert (together / "traces" / name).read_bytes() == (alone / "traces" / name).read_bytes(), name
            for report in ("summary.csv", "delays.csv", "cpa_compare.csv"):
                rows = [(together / report).read_text().splitlines(), (alone / report).read_text().splitlines()]
                mine = [[line for line in lines if line.startswith(f"{sid},")] for lines in rows]
                assert mine[0] == mine[1] and mine[0], (sid, report)
        capsys.readouterr()
        # The speed and the tick reach the flights.
        t_sim = {line.split(",")[0]: line.split(",")[3]
                 for line in (tmp_path / "all" / "summary.csv").read_text().splitlines()[1:]}
        assert len(set(t_sim.values())) == 3


class TestParser:
    def test_main_leaves_no_cyclic_garbage(self, scn_dir, tmp_path, capsys):
        """The parser is built once, so a second main call frees all it
        makes by reference counting."""
        was = gc.isenabled()
        gc.disable()
        try:
            for _ in range(2):
                gc.collect()
                assert main(["run", scn(scn_dir, "sc-12"), "--compare", "--dt", "0.5",
                             "--out", str(tmp_path / "out")]) == 0
            assert gc.collect() == 0
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()


    @pytest.mark.parametrize("inputs", ["default", "swarm", "csv-replay"])
    def test_a_second_batch_leaves_no_cyclic_garbage(self, tmp_path, capsys, inputs):
        """A batch is one pause (engine.command_scope), safe because
        reference counting frees all a batch makes: with the collector off,
        a second batch leaves nothing for it to find.  swarm and csv-replay
        are the benchmark's inputs (perfbench/workloads.py) at seed 1."""
        pack = "default"
        if inputs != "default":
            pack = tmp_path / "pack"
            load_workloads().GENERATORS[inputs](pack, 1)
        was = gc.isenabled()
        gc.disable()
        try:
            for _ in range(2):
                gc.collect()
                assert main(["batch", "--pack", str(pack), "--dt", "0.5", "--out", str(tmp_path / "out")]) == 0
            assert gc.collect() == 0
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()


def load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


class TestValidate:
    def test_tick_count_over_the_cap_fails_validation(self, scn_dir, tmp_path, capsys):
        """A huge time budget with a huge step used to validate, then run
        without end; it is rejected before any tick, with one error line."""
        bad = tmp_path / "endless.scn"
        bad.write_text(
            Path(scn(scn_dir, "ref-route1")).read_text()
            + "SET SIM.MAX_SIM_TIME 1e300\nSET SIM.DT 1e290\n"
        )
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == f"{bad}:0: SIM parameters: {TICK_CAP}\n"
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 0: SIM parameters: {TICK_CAP}\n"
        assert not (tmp_path / "out").exists()

    def test_valid_file(self, scn_dir, capsys):
        rc = main(["validate", scn(scn_dir, "sc-07")])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_byte_order_mark(self, scn_dir, tmp_path, capsys):
        """sc-03 saved with a leading byte-order mark validates."""
        marked = tmp_path / "sc-03.scn"
        marked.write_text(Path(scn(scn_dir, "sc-03")).read_text(), encoding="utf-8-sig")
        assert main(["validate", str(marked)]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_invalid_file_lists_errors(self, tmp_path, capsys):
        bad = tmp_path / "broken.scn"
        bad.write_text("SCENARIO broken\nOWNSHIP NOPE\nWIBBLE\n")
        rc = main(["validate", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert any(ln.startswith(f"{bad}:2: ") for ln in err)
        assert any(ln.startswith(f"{bad}:3: ") for ln in err)
        assert any(f"{bad}:0: " in ln for ln in err)

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["validate", str(tmp_path / "gone.scn")])
        assert rc == 1

    @pytest.mark.parametrize("suffix", [" ALT=600", " 48.2,11.6,9", " 48.1669,11.5883"])
    def test_rejected_route_is_reported_once(self, scn_dir, tmp_path, capsys, suffix):
        """A bad ROUTE line is reported on its own line only, not again as
        an undefined route on the PLAN line that names it."""
        lines = Path(scn(scn_dir, "sc-01")).read_text().splitlines()
        n = next(i for i, ln in enumerate(lines) if ln.startswith("ROUTE ROUTE1 "))
        lines[n] += suffix
        bad = tmp_path / "bad.scn"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err and all(ln.startswith(f"{bad}:{n + 1}: ") for ln in err), err

    @pytest.mark.parametrize("old,new", [
        ("INTRUDER i1 DRONE ", "INTRUDER i1 DRONEX "),
        ("INTRUDER i1 DRONE PREDICTABLE ", "INTRUDER i1 DRONE SOMETIMES "),
        ("PASS_BY SPEED=20.0 ", "PASS_BY SPEED=20.0 COLOUR=red "),
        ("PASS_BY SPEED=20.0 ", "PASS_BY SPEED=-20.0 "),
    ])
    def test_rejected_intruder_is_reported_once(self, scn_dir, tmp_path, capsys, old, new):
        """A bad INTRUDER line is reported on its own line only, not again
        as an unknown intruder on the SPAWN line that names it."""
        lines = Path(scn(scn_dir, "sc-03")).read_text().splitlines()
        n = next(i for i, ln in enumerate(lines) if ln.startswith("INTRUDER i1 "))
        assert old in lines[n] and lines[n + 1].startswith("SPAWN i1 ")
        lines[n] = lines[n].replace(old, new)
        bad = tmp_path / "bad.scn"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err and all(ln.startswith(f"{bad}:{n + 1}: ") for ln in err), err

    # Lines naming an input the format does not have fail on their own
    # line; the other cases are file-level (line 0) checks.
    REMOVED_INPUTS = (
        "ROUTE ROUTE3 48.3537,11.786 48.1669,11.5883 ALT=600",
        "SET SIM.CAS_ENABLED FALSE",
        "SET NAV.CAPTURE_RADIUS 75",
    )

    @pytest.mark.parametrize("line", [
        "SET SIM.DT -1",
        "SET SIM.MAX_SIM_TIME 0",
        "SET PERF.CRUISE_SPEED -5",
        "SET PERF.CAPTURE_RADIUS -3",
        "SET SIM.CONTACT_DISTANCE -1",
        "SET PERF.CRUISE_ALT 200",
        "SET PERF.CRUISE_ALT 243.84",
        "SET CDR.DESCEND_ALT_M 400",
        "SET ENV.COLLISION_RADIUS_FORWARD 5000",
        "SET ENV.CAUTION_FACTOR 0.5",
        *REMOVED_INPUTS,
    ])
    def test_values_a_run_would_reject_fail_validation(self, scn_dir, tmp_path, capsys, line):
        text = Path(scn(scn_dir, "ref-route1")).read_text()
        bad = tmp_path / "bad.scn"
        bad.write_text(text + line + "\n")
        rc = main(["validate", str(bad)])
        assert rc == 1
        at = len(text.splitlines()) + 1 if line in self.REMOVED_INPUTS else 0
        assert capsys.readouterr().err.startswith(f"{bad}:{at}: ")


    @pytest.mark.parametrize("sid,line,message", [
        ("sc-14", "SET SIM.CONTACT_DISTANCE -1", "contact_distance must be non-negative"),
        ("sc-09", "SET PERF.CRUISE_ALT 200", "below PERF.CRUISE_ALT (200.0)"),
        ("sc-09", "SET CDR.DESCEND_ALT_M 0", "CDR.DESCEND_ALT_M (0.0) must lie above 0"),
        ("sc-03", "SET PERF.CAPTURE_RADIUS 1e300", "PERF.CAPTURE_RADIUS (1e+300) must be below the shortest route leg"),
        ("sc-03", "SET PERF.CRUISE_ALT 1e12", "more than SIM.MAX_SIM_TIME (3600.0)"),
    ])
    def test_pack_scenarios_with_bad_limits_fail_validation(
        self, scn_dir, tmp_path, capsys, sid, line, message
    ):
        """sc-14 with a negative contact distance would skip its collision,
        sc-09 with its descent target at the ground or above cruise would
        die at the bird encounter, and sc-03 with a capture radius wider than
        a leg would land at 358.6 s without flying its route, or with a
        cruise altitude out of reach would climb until it timed out; all are
        rejected before any run."""
        bad = tmp_path / f"{sid}.scn"
        bad.write_text(Path(scn(scn_dir, sid)).read_text() + line + "\n")
        assert main(["validate", str(bad)]) == 1
        assert message in capsys.readouterr().err
        assert main(["run", str(bad), "--dt", "0.5", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")


    def test_point_beyond_the_frame_fails_validation(self, scn_dir, tmp_path, capsys):
        bad = far_v3_sc03(scn_dir, tmp_path)
        n = bad.read_text().splitlines().index("VERTIPORT V3 49.5 11.5614 NAME=EDNX") + 1
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"{bad}:{n}: point 49.5000,11.5614 beyond flat-plane validity of origin"]

    @pytest.mark.parametrize("line,message", [
        ("SET CDR.TURN_DEG 0", "turn_deg must be positive"),
        ("SET CDR.LATERAL_OFFSET_M 0", "lateral_offset_m must be nonzero"),
        ("SET CDR.HOLD_DURATION -1", "hold_duration must be non-negative"),
        ("SET CDR.HOLD_DURATION 1e300",
         "CDR.HOLD_DURATION (1e+300) must not exceed SIM.MAX_SIM_TIME (3600.0)"),
        ("SET CDR.DETECT_DURATION -0.5", "detect_duration must be non-negative"),
        ("SET CDR.HEAD_ON_HALF_ANGLE 180.5", "head_on_half_angle must lie in [0, 180]"),
        ("SET CDR.SAME_DIR_HALF_ANGLE -1", "same_dir_half_angle must lie in [0, 180]"),
        ("SET CDR.TACTICAL_TRIGGER_ZONE COLLISION", "tactical_trigger_zone must be CAUTION or WARNING"),
        ("SET CDR.TACTICAL_TRIGGER_ZONE CLEAR", "tactical_trigger_zone must be CAUTION or WARNING"),
        ("SET GROUND.MAX_WAITS 2.7", "GROUND.MAX_WAITS: '2.7' is not a whole number"),
    ])
    def test_parameters_a_run_cannot_use_fail_validation(
        self, scn_dir, tmp_path, capsys, line, message
    ):
        """Each of these used to validate, then either failed the run or
        silently changed its outcome."""
        text = Path(scn(scn_dir, "sc-05")).read_text()
        bad = tmp_path / "sc-05.scn"
        bad.write_text(text + line + "\n")
        assert main(["validate", str(bad)]) == 1
        # SET values that do not parse fail on their line, the rest at file level
        at = len(text.splitlines()) + 1 if "MAX_WAITS" in line else 0
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"{bad}:{at}: ") and err.endswith(message), err


    @pytest.mark.parametrize("line", [
        "SET PERF.CRUISE_SPEED 1e160", "SET PERF.CLIMB_RATE 343.5", "SET PERF.DESCENT_RATE 1e300",
    ])
    def test_ownship_speeds_above_the_ceiling_fail_on_their_line(self, scn_dir, tmp_path, capsys, line):
        """sc-03 at a cruise speed of 1e160 m/s used to validate and then
        run on meaningless positions until it timed out at 3300 s."""
        text = Path(scn(scn_dir, "sc-03")).read_text()
        bad = tmp_path / "sc-03.scn"
        bad.write_text(text + line + "\n")
        n = len(text.splitlines()) + 1
        assert main(["validate", str(bad)]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"{bad}:{n}: ") and err.endswith("must not exceed 343.0 m/s"), err
        assert main(["run", str(bad), "--dt", "0.5", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: line {n}: ")

    @pytest.mark.parametrize(
        "kind,message",
        [("not-utf8", ":0: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
         ("directory", "Is a directory")],
    )
    def test_unreadable_scn_is_an_error(self, tmp_path, capsys, kind, message):
        bad = unreadable_scn(tmp_path, kind)
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


class TestPackExport:
    def test_default_pack_export(self, tmp_path, capsys):
        out = tmp_path / "exported"
        rc = main(["pack", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == f"wrote 21 scenarios to {out}"
        assert len(list(out.glob("*.scn"))) == 21

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_unreadable_scn_is_an_error(self, scn_dir, tmp_path, capsys, kind):
        pack = tmp_path / "pack"
        pack.mkdir()
        (pack / "ref-route1.scn").write_text(Path(scn(scn_dir, "ref-route1")).read_text())
        unreadable_scn(pack, kind)
        out = tmp_path / "exported"
        rc = main(["pack", "--pack", str(pack), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()

    def test_bad_scenario_in_pack_names_its_file(self, mini_pack_dir, tmp_path, capsys):
        pack = bad_file_pack(mini_pack_dir, tmp_path)
        out = tmp_path / "exported"
        rc = main(["pack", "--pack", str(pack), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {pack / 'bogus.scn'}: {BOGUS_ERRORS}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_duplicate_scenario_ids_are_an_error(self, scn_dir, tmp_path, capsys):
        pack = duplicate_id_pack(scn_dir, tmp_path)
        out = tmp_path / "exported"
        rc = main(["pack", "--pack", str(pack), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {DUPLICATE_ID_ERROR.format(pack=pack)}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("spelling", ["same", "dot", "parent"])
    def test_export_onto_its_own_pack_is_refused(self, scn_dir, tmp_path, capsys, monkeypatch, spelling):
        """A file named other than its scenario id would gain a second file
        declaring the same id, and the directory would no longer load."""
        pack = tmp_path / "pack"
        pack.mkdir()
        (pack / "renamed.scn").write_text(Path(scn(scn_dir, "sc-03")).read_text())
        monkeypatch.chdir(tmp_path)
        out = {"same": "pack", "dot": "pack/.", "parent": str(pack / ".." / "pack")}[spelling]
        rc = main(["pack", "--pack", "pack", "--out", out])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --out {out} is the --pack directory; export to another directory\n"
        assert captured.out == ""
        assert [p.name for p in pack.iterdir()] == ["renamed.scn"]
        assert main(["batch", "--pack", "pack", "--out", "b"]) == 0

    def test_export_into_a_directory_declaring_an_exported_id_is_refused(self, scn_dir, tmp_path, capsys):
        """A .scn under another name that declares an exported id would sit
        beside the exported <id>.scn, and the directory would no longer
        load; the refusal writes nothing."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "renamed.scn").write_text(Path(scn(scn_dir, "sc-03")).read_text())
        rc = main(["pack", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {out / 'renamed.scn'} declares scenario id 'sc-03', which the export writes to "
            "sc-03.scn; export to another directory\n"
        )
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == ["renamed.scn"]
        assert load_pack(out).ids() == ["sc-03"]
        # A foreign file that does not load would keep the export from
        # loading too.
        (out / "renamed.scn").write_text("SCENARIO x\nBOGUS\n")
        assert main(["pack", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out / 'renamed.scn'}: line ")
        assert [p.name for p in out.iterdir()] == ["renamed.scn"]

    def test_export_into_a_directory_without_a_clash(self, scn_dir, tmp_path, capsys):
        """A file named for an exported id is overwritten, whatever it
        declares, and a file declaring another id stays beside the export."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "sc-03.scn").write_text(Path(scn(scn_dir, "sc-04")).read_text())
        (out / "extra.scn").write_text(ONE_ROUTE.format(rid="ROUTE1", hold=0))
        assert main(["pack", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == f"wrote 21 scenarios to {out}"
        assert sorted(load_pack(out).ids()) == sorted(default_pack().ids() + ["one-route"])

    def test_export_writes_the_replayed_trajectories(self, tmp_path, capsys):
        """A pack replaying a local-frame and a geodetic CSV, the first
        from a subdirectory, exports with both beside its .scn file and
        runs as its source does."""
        src = tmp_path / "src"
        (src / "tracks").mkdir(parents=True)
        (src / "tracks" / "enu.csv").write_text(
            "t_s,east_m,north_m,up_m\n0,-9000,-3000,300\n600,-9000,3000,300\n"
        )
        (src / "geo.csv").write_text(
            "t_s,lat_deg,lon_deg,alt_m\n0,48.30,11.70,300\n600,48.25,11.75,250\n"
        )
        network = ONE_ROUTE.format(rid="ROUTE1", hold=0).split("INTRUDER")[0]
        (src / "csv-01.scn").write_text(
            network + "INTRUDER r0 DRONE PREDICTABLE CSV tracks/enu.csv\n"
            "INTRUDER r1 BIRD UNPREDICTABLE CSV geo.csv\nSPAWN r1 AT 30\n"
        )
        exported = tmp_path / "exported"
        assert main(["pack", "--pack", str(src), "--out", str(exported)]) == 0
        assert sorted(p.name for p in exported.iterdir()) == [
            "one-route.scn", "one-route@r0.csv", "one-route@r1.csv"
        ]
        # The export, exported again, is the same bytes: the columns
        # write back the floats they were read as.
        again = tmp_path / "again"
        assert main(["pack", "--pack", str(exported), "--out", str(again)]) == 0
        assert sorted(p.name for p in again.iterdir()) == sorted(p.name for p in exported.iterdir())
        for p in exported.iterdir():
            assert (again / p.name).read_bytes() == p.read_bytes(), p.name
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["batch", "--pack", str(src), "--dt", "0.5", "--out", str(a)]) == 0
        assert main(["batch", "--pack", str(exported), "--dt", "0.5", "--out", str(b)]) == 0
        capsys.readouterr()
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert len(files) == 5  # three reports, two traces
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_exported_files_validate(self, tmp_path, capsys):
        out = tmp_path / "exported"
        main(["pack", "--out", str(out)])
        capsys.readouterr()
        rc = main(["validate", str(out / "sc-11.scn")])
        assert rc == 0


def run_module(*args: str) -> subprocess.CompletedProcess:
    """python -m uamcas, importing the package from the source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "uamcas", *args], capture_output=True, text=True, env=env
    )


class TestEntryPoint:
    def test_module_invocation(self, scn_dir):
        proc = run_module("validate", scn(scn_dir, "ref-route1"))
        assert proc.returncode == 0
        assert proc.stdout.strip() == "OK"

    def test_console_script_help(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        for sub in ("run", "batch", "validate", "pack"):
            assert sub in proc.stdout

    @pytest.mark.parametrize("command", ["run", "batch", "validate", "pack"])
    def test_module_reports_an_input_error(self, tmp_path, command):
        """Each subcommand ends a bad input with exit code 1, error lines
        on stderr only, and no traceback."""
        bad = tmp_path / "bad.scn"
        bad.write_text("SCENARIO bad\nBOGUS 1\n")
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = {
            "run": ["run", str(tmp_path / "nope.scn"), "--out", str(tmp_path / "o")],
            "batch": ["batch", "--pack", str(tmp_path / "nothing"), "--out", str(tmp_path / "o")],
            "validate": ["validate", str(bad)],
            "pack": ["pack", "--out", str(afile)],
        }[command]
        proc = run_module(*argv)
        assert proc.returncode == 1
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        if command == "validate":
            assert len(lines) == 5 and all(ln.startswith(f"{bad}:") for ln in lines)
            assert f"{bad}:2: unknown directive 'BOGUS'" in lines
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")
