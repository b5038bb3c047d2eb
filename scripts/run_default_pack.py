#!/usr/bin/env python3
"""Run the built-in scenario pack paired (avoidance on and off) and
print a side-by-side comparison table.

Runs the same batch as `uamcas batch` and writes the same report files
and per-run traces under <out>.  This is the eyeball view of what the
system buys per encounter; the CLI is the stable scripting interface.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from uamcas import cli, engine, metrics


def outcome(row):
    kind = row.terminal.kind
    if kind is engine.TerminalKind.LANDED_AT:
        return f"landed {row.terminal.vertiport}"
    return kind.value.lower().replace("_", " ")


def fmt(v, width):
    if v is None:
        return "-".rjust(width)
    if v == float("inf"):
        return "inf".rjust(width)
    return f"{v:.1f}".rjust(width)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pack", default="default", help="pack directory or 'default'")
    ap.add_argument("--out", default="out", help="report directory")
    ap.add_argument("--dt", type=float, default=None, help="override tick size [s]")
    ap.add_argument("--format", default="csv", choices=metrics.REPORT_FORMATS)
    args = ap.parse_args(argv)

    pack = cli.resolve_pack(args.pack)
    t0 = time.perf_counter()
    table = cli.run_batch(pack, args.out, dt=args.dt, fmt=args.format, config=None)
    elapsed = time.perf_counter() - t0

    print(f"{'scenario':<18} {'outcome':<20} {'cpa_on':>9} {'cpa_off':>9} "
          f"{'d_grnd':>7} {'d_air':>7} {'d_total':>8}")
    for row in table.rows:
        print(f"{row.scenario_id:<18} {outcome(row):<20} {fmt(row.cpa, 9)} "
              f"{fmt(row.cpa_without, 9)} {fmt(row.d_ground, 7)} "
              f"{fmt(row.d_air, 7)} {fmt(row.d_total, 8)}")
    footer = metrics.batch_footer(table)
    if footer is not None:
        print(footer)
    print(f"{len(table.rows)} scenarios, paired, in {elapsed:.2f} s; reports in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
