"""Command line contract: subcommands, artifacts, exit codes, and the
environment hooks."""

import importlib.util
import json
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from uamcas import engine
from uamcas.cli import main
from uamcas.engine import TRACE_HEADER
from uamcas.metrics import BATCH_CSV_HEADER
from uamcas.pack import default_pack
from uamcas.scenario_io import export_pack, serialize_scenario


@pytest.fixture(scope="module")
def scn_dir(tmp_path_factory):
    """Directory with every default scenario exported as a file."""
    d = tmp_path_factory.mktemp("scn")
    export_pack(default_pack(), d)
    return d


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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


def overflowing_sc03(scn_dir, where):
    """sc-03 with its i1 intruder at SPEED=1e308, whose positions
    overflow float arithmetic once it spawns."""
    text = Path(scn(scn_dir, "sc-03")).read_text()
    assert "PASS_BY SPEED=20.0 " in text
    bad = where / "sc-03.scn"
    bad.write_text(text.replace("PASS_BY SPEED=20.0 ", "PASS_BY SPEED=1e308 "))
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
        assert captured.err == "error: dt is too small to advance the clock at max_sim_time\n"
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
        cfg.write_text("SET SIM.MAX_SIM_TIME 100\n")
        rc = main(["run", scn(scn_dir, "ref-route1"), "--dt", "0.5",
                   "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1  # timed out
        assert "timed out" in capsys.readouterr().out

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
        assert captured.err == "error: dt is too small to advance the clock at max_sim_time\n"
        assert captured.out == ""
        assert not (out / "summary.csv").exists()
        assert list((out / "traces").iterdir()) == []

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

    def test_env_var_selects_pack(self, mini_pack_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UAMCAS_PACK_DIR", str(mini_pack_dir))
        out = tmp_path / "out"
        rc = main(["batch", "--dt", "0.5", "--out", str(out)])
        assert rc == 0
        assert (out / "summary.csv").exists()

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

    def test_script_writes_the_batch_artifacts(self, mini_pack_dir, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location(
            "run_default_pack", SCRIPTS / "run_default_pack.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        a, b = tmp_path / "batch", tmp_path / "script"
        common = ["--pack", str(mini_pack_dir), "--dt", "0.5", "--format", "both"]
        assert main(["batch", *common, "--out", str(a)]) == 0
        assert script.main([*common, "--out", str(b)]) == 0
        capsys.readouterr()
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert len(files) == 4 + 2 * 3  # four reports, two traces per scenario
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class TestValidate:
    def test_valid_file(self, scn_dir, capsys):
        rc = main(["validate", scn(scn_dir, "sc-07")])
        assert rc == 0
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
    ])
    def test_pack_scenarios_with_bad_limits_fail_validation(
        self, scn_dir, tmp_path, capsys, sid, line, message
    ):
        """sc-14 with a negative contact distance would skip its collision,
        and sc-09 with its descent target at the ground or above cruise would
        die at the bird encounter; all are rejected before any run."""
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


class TestPackExport:
    def test_default_pack_export(self, tmp_path, capsys):
        out = tmp_path / "exported"
        rc = main(["pack", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == f"wrote 21 scenarios to {out}"
        assert len(list(out.glob("*.scn"))) == 21

    def test_exported_files_validate(self, tmp_path, capsys):
        out = tmp_path / "exported"
        main(["pack", "--out", str(out)])
        capsys.readouterr()
        rc = main(["validate", str(out / "sc-11.scn")])
        assert rc == 0


class TestEntryPoint:
    def test_module_invocation(self, scn_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "uamcas", "validate", scn(scn_dir, "ref-route1")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "OK"

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "uamcas", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for sub in ("run", "batch", "validate", "pack"):
            assert sub in proc.stdout
