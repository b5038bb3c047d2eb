"""Byte-identity of the command line's artifacts.

Each test runs one invocation in a fresh directory and compares a
sha256 of everything it wrote, and of its stdout, with the digest the
same invocation gave when it was pinned.  A change that means to alter
an artifact updates the digest here and says which outputs moved and
why; any other change must leave every digest as it is.
"""

import hashlib
from pathlib import Path

import pytest

from uamcas.cli import main

BATCH_DIGEST = "f2c83ad118cf38fe05987808ba0c72105b1eaca7f371fbaa9326eb0f92239d39"
RUN_SC11_DIGEST = "9d549d2429618656d44ddb8404849344c9fd253d58618b94ea233c957513bd6c"
PACK_DIGEST = "c4ff65354538aa4334ddf0b2b3e1278677a74f9d362cb74cb20277b6be280194"
BATCH_SHORT_HOLD_DIGEST = "5983a3c4f05857987e5ee098a3b3a7839b7da82103de94c560df318ad7c14153"
RUN_REPORTS_DIGEST = "a63c8098ef832806b67392d334f25fc3c134133e7322393d4c3fd3deb2a55853"
BATCH_DT_DIGESTS = {
    "0.05": "9e061843e07b968a5f198fb5d6bc790ed911eb81e4db13b30e12cba23e8a15db",
    "0.2": "2a74bf2a417730244810bf2fcaf717e7e5f8daa282b0dd7c56d5d38e25c45c2b",
    "1.0": "66bcf9e8e0b55405590509b4ac0738b03a51744dfe5bc735d518b289457181b2",
}


def digest(root: Path, stdout: str | None = None) -> str:
    """sha256 over every file under root (relative path, size, bytes),
    then over stdout when given."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    if stdout is not None:
        data = stdout.encode()
        h.update(f"<stdout>\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_default_pack_batch(workdir, capsys):
    assert main(["batch", "--pack", "default", "--format", "both", "--out", "batch"]) == 0
    assert digest(workdir / "batch", capsys.readouterr().out) == BATCH_DIGEST


@pytest.mark.parametrize("dt", sorted(BATCH_DT_DIGESTS))
def test_default_pack_batch_at_other_ticks(workdir, capsys, dt):
    """The default pack at a finer and two coarser ticks, where quiet runs
    and intruder spawns fall on other ticks than at the default dt.  At
    dt 1.0 each intruder's reach, and so the span of ticks metrics.cpa
    evaluates around the least separation, is the widest."""
    assert main(["batch", "--pack", "default", "--dt", dt, "--format", "both", "--out", "batch"]) == 0
    assert digest(workdir / "batch", capsys.readouterr().out) == BATCH_DT_DIGESTS[dt]


def test_default_pack_batch_with_short_hold(workdir, capsys):
    """At dt 0.2 with a 2 s hold and no detection delay, sc-01 to sc-14
    de-escalate on ticks that the default settings never reach."""
    (workdir / "short-hold.cfg").write_text("SET CDR.HOLD_DURATION 2\nSET CDR.DETECT_DURATION 0\n")
    argv = ["batch", "--pack", "default", "--dt", "0.2", "--format", "both",
            "--config", "short-hold.cfg", "--out", "batch"]
    assert main(argv) == 0
    assert digest(workdir / "batch", capsys.readouterr().out) == BATCH_SHORT_HOLD_DIGEST


def test_pack_export_and_sc11_compare_run(workdir, capsys):
    assert main(["pack", "--out", "pack"]) == 0
    assert capsys.readouterr().out == "wrote 21 scenarios to pack\n"
    assert digest(workdir / "pack") == PACK_DIGEST

    rc = main(["run", "pack/sc-11.scn", "--compare", "--format", "both", "--out", "run11"])
    assert rc == 0
    assert digest(workdir / "run11", capsys.readouterr().out) == RUN_SC11_DIGEST


def test_run_reports_of_every_outcome(workdir, capsys):
    """Run reports where the CPA cells are empty (no intruder), where
    the flight never departs, where it collides, and of a run with no
    system-off pair, all written into one directory."""
    assert main(["pack", "--out", "pack"]) == 0
    capsys.readouterr()
    runs = [
        (["pack/ref-route1.scn", "--compare"], 0),
        (["pack/ground-postponed.scn", "--compare"], 3),
        (["pack/sc-14.scn", "--compare"], 2),
        (["pack/sc-03.scn"], 0),
    ]
    for args, code in runs:
        assert main(["run", *args, "--format", "both", "--out", "runs"]) == code
    assert digest(workdir / "runs", capsys.readouterr().out) == RUN_REPORTS_DIGEST
