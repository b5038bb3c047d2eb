"""The artifact gate: every batch must reproduce the golden output.

A batch passes when the sha256 of its whole artifact tree (traces,
summary.csv, delays.csv, cpa_compare.csv) and, per scenario, the
simulated counts and a digest of that scenario's artifacts all equal the
expected entry.  Expected entries come from golden.json, which holds one
entry per (workload, seed) made from the seed code by make_golden.py;
pack-paired ignores the seed and has a single entry under "*".  An entry
also pins the digest of the generated inputs, so generator drift fails
the gate instead of passing against the wrong golden.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 1
ANY_SEED = "*"


def tree_digest(root: Path) -> str:
    """sha256 over every file under root: relative path, size, bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def scenario_digest(out: Path, sid: str) -> str:
    """sha256 of one scenario's artifacts: both traces and its rows of
    the three batch reports.  16 hex digits are plenty to name a
    mismatch; the tree digest is the full-width check."""
    h = hashlib.sha256()
    for name in (f"{sid}.csv", f"{sid}_nocas.csv"):
        path = out / "traces" / name
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    for report in ("summary.csv", "delays.csv", "cpa_compare.csv"):
        path = out / report
        lines = path.read_text(encoding="utf-8").splitlines() if path.is_file() else []
        h.update("\n".join(x for x in lines if x.startswith(f"{sid},")).encode())
    return h.hexdigest()[:16]


class RunLog:
    """Wraps engine.run to record, per scenario and system on/off, the
    simulated ticks, intruder-ticks, terminal kind, host start time and
    host seconds."""

    def __init__(self):
        self.runs: dict[tuple[str, bool], tuple[int, int, str, float, float]] = {}

    def install(self, patch) -> None:
        from uamcas import engine

        patch.replace(engine, "run", self._observe)

    def _observe(self, fn):
        clock = time.perf_counter

        def run(scenario, params=None):
            start = clock()
            result = fn(scenario, params)
            elapsed = clock() - start
            cas = params.cas_enabled if params is not None else True
            intruder_ticks = sum(len(rec.intruders) for rec in result.ticks)
            self.runs[(result.scenario_id, cas)] = (
                len(result.ticks), intruder_ticks, result.terminal.kind.name, start, elapsed
            )
            return result

        return run


def observe(log: RunLog, out: Path) -> dict:
    """The gate's view of one finished batch."""
    ids = sorted({sid for sid, _ in log.runs})
    runs = {}
    for sid in ids:
        on = log.runs.get((sid, True), (None, None, None))
        off = log.runs.get((sid, False), (None, None, None))
        runs[sid] = [on[0], off[0], on[1], off[1], on[2], off[2], scenario_digest(out, sid)]
    return {"artifacts": tree_digest(out), "runs": runs}


def failed_scenarios(expected: dict, observed: dict) -> list[str]:
    """Scenario ids whose counts or artifacts differ from expected.

    A tree mismatch that no single scenario explains (a stray or
    missing report file) fails every scenario."""
    ids = sorted(set(expected["runs"]) | set(observed["runs"]))
    bad = [sid for sid in ids if expected["runs"].get(sid) != observed["runs"].get(sid)]
    if not bad and expected["artifacts"] != observed["artifacts"]:
        return ids
    return bad


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def golden_entry(golden: dict, workload: str, seed: int) -> dict | None:
    table = golden.get(workload, {})
    return table.get(str(seed), table.get(ANY_SEED))


def dump_golden(golden: dict) -> str:
    """One line per (workload, seed) entry, so a regenerated golden
    diffs line by line."""
    blocks = []
    for workload in sorted(golden):
        table = golden[workload]
        keys = sorted(table, key=lambda k: (k != ANY_SEED, int(k) if k.isdigit() else 0))
        rows = [f"  {json.dumps(k)}: {json.dumps(table[k], sort_keys=True)}" for k in keys]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"
