#!/usr/bin/env python3
"""uamcas benchmark: paired `uamcas batch` runs, timed end to end and
per layer, each checked against golden artifacts.

    python3 perfbench/run.py --workload pack-paired --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

A run generates the workload's input files from the seed, then repeats
a round until --seconds are spent: blocks of repeated loads of those
files (setup_s), then the whole paired batch through
`uamcas.cli.main(["batch", ...])` in this process.  It reports medians
over the rounds.  Times are in reference seconds: host seconds scaled
by the host's speed, which a probe measures all along the timed spans
(hostspeed.py).  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced batches and
reports the per-layer metrics.  Every batch goes through the artifact
gate (gate.py).  Metric lines go to stdout, and the last line is one
JSON object with the keys correct, attempted, failed and metrics.
`--workload all` runs each workload in its own process and prints one
table.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

import gate  # noqa: E402  (this directory is sys.path[0] when run as a script)
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Each round starts with SETUP_BLOCKS blocks of repeated loads, each
# lasting at least SETUP_BLOCK_S, and setup_s is the median over the
# run's blocks of the block's mean load time.  Single loads of a few
# milliseconds fall into a fast and a slow mode, and a median of single
# loads jumps between them.  Spreading the blocks over the whole run
# exposes them to the same host drift as the batches, instead of to the
# first second alone.
SETUP_BLOCKS = 5
SETUP_BLOCK_S = 0.1

END_TO_END_UNITS = {
    "wall_s": "s",
    "on_ticks_per_s": "1/s",
    "off_ticks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Functions reported as calls, self time and microseconds per call.
PER_CALL = (
    "agents.ownship_step",
    "envelopes.envelopes_for",
    "envelopes.classify",
    "geo.distance_3d",
    "cdr.cdr_step",
    "cdr.takeoff_delay_check",
    "agents.intruder_state_at",
    "metrics.cpa",
    "metrics.delays",
)


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import uamcas from this checkout's src/, and from nowhere else."""
    if not (SRC / "uamcas" / "__init__.py").is_file():
        raise ProgramMissing(f"no uamcas sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import uamcas

    if SRC.resolve() not in Path(uamcas.__file__).resolve().parents:
        raise ProgramMissing(f"uamcas imported from {uamcas.__file__}, not {SRC}")


def paired_batch(inputs: Path, out: Path, log: gate.RunLog,
                 timeline: hostspeed.Timeline | None = None) -> dict:
    """One `uamcas batch` over the inputs: wall seconds, gate view,
    per-run log and error, if any.  Call load_program() first.

    With a timeline, the batch is probed all along, "wall" is in
    reference seconds and "host_wall" is host seconds, both without the
    probes; without one, both are host seconds."""
    from uamcas import cli

    shutil.rmtree(out, ignore_errors=True)
    log.runs.clear()
    gc.collect()  # start every batch from the same heap state
    error = None
    if timeline:
        timeline.probe()
    with timeline.ticking() if timeline else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["batch", "--pack", str(inputs), "--out", str(out)])
            if code != 0:
                error = f"uamcas batch exited with {code}"
        except Exception as exc:  # a crashing batch is a failed batch, not a crashed benchmark
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    wall = host_wall = end - start
    if timeline:
        timeline.probe()
        wall, host_wall = timeline.reference_s(start, end), timeline.host_s(start, end)
    return {"wall": wall, "host_wall": host_wall, "timeline": timeline,
            "seen": gate.observe(log, out), "log": dict(log.runs), "error": error}


def setup_blocks(inputs: Path, timeline: hostspeed.Timeline) -> list[float]:
    """For each of SETUP_BLOCKS blocks, the mean reference seconds per
    `scenario_io.load_pack` of the inputs, over loads repeated for at
    least SETUP_BLOCK_S.  A probe brackets every block."""
    from uamcas import scenario_io

    gc.collect()
    timeline.probe()
    means = []
    for _ in range(SETUP_BLOCKS):
        loads, start = 0, time.perf_counter()
        while True:
            scenario_io.load_pack(str(inputs))
            loads += 1
            end = time.perf_counter()
            if end - start >= SETUP_BLOCK_S:
                break
        timeline.probe()
        means.append(timeline.reference_s(start, end) / loads)
    return means


def layer_metrics(tr: tracer.Tracer, batch: dict, untraced_wall: float, out: Path) -> dict:
    log = batch["log"]
    ticks_on = sum(r[0] for (_, on), r in log.items() if on)
    ticks_off = sum(r[0] for (_, on), r in log.items() if not on)
    m = {
        "engine.run.calls": (tr.calls("engine.run"), "count"),
        "engine.run.self_s": (tr.self_s("engine.run"), "s"),
        "engine.run.self_us_per_tick": (tr.us_per("engine.run", ticks_on + ticks_off), "us"),
        "engine.ticks_on": (ticks_on, "count"),
        "engine.ticks_off": (ticks_off, "count"),
        "engine.intruder_ticks": (sum(r[1] for r in log.values()), "count"),
    }
    for key in PER_CALL:
        calls = tr.calls(key)
        m[f"{key}.calls"] = (calls, "count")
        m[f"{key}.self_s"] = (tr.self_s(key), "s")
        m[f"{key}.us_per_call"] = (tr.us_per(key, calls), "us")
    env_calls = tr.calls("envelopes.envelopes_for")
    m["envelopes.envelopes_for.repeat_ratio"] = (
        tr.envelope_repeats / env_calls if env_calls else 0.0, "ratio")
    m["agents.resolve_command.calls"] = (tr.calls("agents.resolve_command"), "count")
    m["engine.trace_csv_lines.calls"] = (tr.calls("engine.trace_csv_lines"), "count")
    m["engine.trace_csv_lines.self_s"] = (tr.self_s("engine.trace_csv_lines"), "s")
    m["engine.trace_csv_lines.us_per_row"] = (
        tr.us_per("engine.trace_csv_lines", tr.trace_rows), "us")
    m["cli.cmd_batch.self_s"] = (tr.self_s("cli.cmd_batch"), "s")
    m["cli.artifact_bytes"] = (
        sum(p.stat().st_size for p in out.rglob("*") if p.is_file()), "bytes")
    m["scenario_io.load_pack.s"] = (tr.total_s("scenario_io.load_pack"), "s")
    m["scenario_io.trajectory_rows"] = (tr.trajectory_rows, "count")
    m["trace_overhead_ratio"] = (batch["host_wall"] / untraced_wall, "ratio")
    return m


def reference_entry(reference: Path, workload: str, seed: int, scratch: Path) -> dict:
    """Expected entry computed by another checkout (the parent commit)
    running its own make_golden.py for this workload and seed."""
    target = scratch / "reference.json"
    subprocess.run(
        [sys.executable, str(reference / "perfbench" / "make_golden.py"),
         "--workload", workload, "--seeds", str(seed), "--out", str(target)],
        check=True, stdout=subprocess.DEVNULL, timeout=900,
    )
    return gate.golden_entry(gate.load_golden(target), workload, seed)


def expected_entry(workload: str, seed: int, reference: Path | None,
                   work: Path) -> tuple[dict | None, str]:
    if reference is not None:
        return reference_entry(reference, workload, seed, work), f"reference {reference}"
    return gate.golden_entry(gate.load_golden(), workload, seed), "golden.json"


def timed_rounds(inputs: Path, out: Path, seconds: float, traced: bool):
    """Repeat a round (setup blocks, the untraced batch, then the
    traced batch when asked) while another round still fits in
    `seconds`.  Returns the setup blocks' times, the untraced batches and
    the per-layer metrics of each traced batch.  Only the setup blocks
    and the untraced batch are probed; the traced batch is timed in
    host seconds."""
    setups, batches, layer_sets = [], [], []
    start = time.perf_counter()
    while True:
        timeline = hostspeed.Timeline()
        setups.extend(setup_blocks(inputs, timeline))
        log = gate.RunLog()
        with tracer.Patch() as patch:
            log.install(patch)
            batches.append(paired_batch(inputs, out, log, timeline))
        if traced:
            with tracer.Patch() as patch:
                log.install(patch)
                tr = tracer.Tracer()
                tr.install(patch)
                batch = paired_batch(inputs, out, log)
            layer_sets.append((batch, layer_metrics(tr, batch, batches[-1]["host_wall"], out)))
        spent = time.perf_counter() - start
        if spent * (len(batches) + 1) / len(batches) > seconds:
            return setups, batches, layer_sets


def end_to_end(batches: list[dict], setups: list[float]) -> dict:
    def rate(batch, cas):
        runs = [r for (_, on), r in batch["log"].items() if on is cas]
        seconds = sum(batch["timeline"].reference_s(r[3], r[3] + r[4]) for r in runs)
        return sum(r[0] for r in runs) / seconds if seconds else 0.0  # 0: no run finished

    values = {
        "wall_s": statistics.median([b["wall"] for b in batches]),
        "on_ticks_per_s": statistics.median([rate(b, True) for b in batches]),
        "off_ticks_per_s": statistics.median([rate(b, False) for b in batches]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(layer_sets: list[tuple[dict, dict]]) -> dict:
    first = layer_sets[0][1]
    return {name: {"value": statistics.median([m[name][0] for _, m in layer_sets]), "unit": unit}
            for name, (_, unit) in first.items()}


def measure(workload: str, seed: int, seconds: float, traced: bool,
            reference: Path | None = None) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the notes to print."""
    load_program()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, out = work / "inputs", work / "out"
        workloads.GENERATORS[workload](inputs, seed)
        inputs_digest = gate.tree_digest(inputs)
        n_scenarios = len(list(inputs.glob("*.scn")))
        expected, source = expected_entry(workload, seed, reference, work)
        notes = set()
        inputs_ok = expected is None or expected["inputs"] == inputs_digest
        if not inputs_ok:
            notes.add(f"generated inputs {inputs_digest[:16]} differ from {source}")
        elif expected is None:
            notes.add(f"no golden for seed {seed}: checking only that batches agree "
                      "with each other (--reference <parent checkout> compares)")

        setups, batches, layer_sets = timed_rounds(inputs, out, seconds, traced)

        failed = 0
        for b in batches + [batch for batch, _ in layer_sets]:
            if expected is None:
                expected = dict(b["seen"], inputs=inputs_digest)
            if b["error"] or not inputs_ok:
                failed += n_scenarios
                if b["error"]:
                    notes.add(f"batch failed: {b['error']}")
                continue
            bad = gate.failed_scenarios(expected, b["seen"])
            failed += len(bad)
            if bad:
                notes.add(f"artifact gate: {', '.join(bad)} differ from {source}")
        attempted = n_scenarios * (len(batches) + len(layer_sets))
        summary = (f"{workload} seed {seed}: {len(batches)} untraced and {len(layer_sets)} "
                   f"traced batches of {n_scenarios} paired scenarios")
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": per_layer(layer_sets) if traced else end_to_end(batches, setups)}
        return result, [summary, *sorted(notes)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def metric_lines(result: dict, prefix: str = "") -> list[str]:
    lines = [f"{prefix}{name:<44} {m['value']:>16.6g} {m['unit']}"
             for name, m in result["metrics"].items()]
    rate = result["failed"] / result["attempted"]
    lines.append(f"{prefix}{'error_rate':<44} {rate:>16.6g} 1 "
                 f"({result['failed']} of {result['attempted']} paired runs)")
    return lines


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in workloads.GENERATORS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.reference:
            cmd += ["--reference", str(args.reference)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in [x for x in lines if x.startswith("# ")] + metric_lines(result, f"{workload:<12} "):
            print(line)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    ap.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0,
                    help="measuring time; batches repeat until it is spent")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path, default=None,
                    help="checkout of the parent commit to take expected artifacts "
                    "from, for seeds without a golden")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.reference)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"# {note}")
    for line in metric_lines(result):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
