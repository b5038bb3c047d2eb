#!/usr/bin/env python3
"""Write the artifact gate's expected entries.

    python3 perfbench/make_golden.py                       # every workload, seeds 0-99
    python3 perfbench/make_golden.py --workload swarm --seeds 7 --out /tmp/x.json

Runs one untraced paired batch per (workload, seed) with the program in
this checkout and merges the resulting entries (input digest, artifact
tree digest, per-scenario counts and digests) into --out.  pack-paired
ignores the seed and gets one entry under "*".  Regenerate golden.json
only for a change that is meant to alter the artifacts, and say so.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

import gate
import run
import tracer
import workloads


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def entry(workload: str, seed: int, work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = work / "inputs"
        workloads.GENERATORS[workload](inputs, seed)
        with tracer.Patch() as patch:
            log = gate.RunLog()
            log.install(patch)
            batch = run.paired_batch(inputs, work / "out", log)
        if batch["error"]:
            raise RuntimeError(f"{workload} seed {seed}: {batch['error']}")
        return dict(batch["seen"], inputs=gate.tree_digest(inputs))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=list(workloads.GENERATORS),
                    help="repeatable; default every workload")
    ap.add_argument("--seeds", default="0-99", help="N or A-B, inclusive")
    ap.add_argument("--out", type=Path, default=gate.GOLDEN_PATH)
    args = ap.parse_args(argv)
    run.load_program()
    golden = gate.load_golden(args.out)
    work = run.WORK / f"golden-{os.getpid()}"
    try:
        for workload in args.workload or list(workloads.GENERATORS):
            table = golden.setdefault(workload, {})
            seeds = [None] if workload in workloads.SEEDLESS else seed_range(args.seeds)
            for seed in seeds:
                key = gate.ANY_SEED if seed is None else str(seed)
                table[key] = entry(workload, seed or 0, work)
                print(f"{workload} {key}: {table[key]['artifacts'][:16]}", flush=True)
                args.out.write_text(gate.dump_golden(golden), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
