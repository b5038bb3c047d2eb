"""Command line front end.

Subcommands:

    run <scenario.scn>     simulate one scenario, write trace + report
    batch                  run a whole pack, paired with/without runs
    validate <scenario>    parse and check a scenario file, no run
    pack                   export the selected pack as directive files

Exit codes are a stable contract: 0 landed (or, for batch/pack, all
work done), 1 error, 2 collided, 3 postponed on ground.  Everything is
deterministic: the same invocation writes byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import engine, metrics, scenario_io
from .engine import RunResult, TerminalKind
from .pack import default_pack
from .scenario_io import Scenario, ScenarioError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_COLLIDED = 2
EXIT_POSTPONED = 3

_TERMINAL_EXIT = {
    TerminalKind.LANDED_AT: EXIT_OK,
    TerminalKind.COLLIDED: EXIT_COLLIDED,
    TerminalKind.POSTPONED_ON_GROUND: EXIT_POSTPONED,
    TerminalKind.TIMED_OUT: EXIT_ERROR,
}


def simulate(
    sc: Scenario, dt: float | None, cas_enabled: bool = True
) -> tuple[RunResult, metrics.MetricsReport]:
    """Run one scenario and score it against the still-air time of each
    of its routes.

    dt (None keeps the scenario's own tick) overrides the scenario's
    SIM.DT; cas_enabled (False runs the system-off side of a pair) is
    not a scenario setting.
    """
    params = replace(sc.sim, dt=sc.sim.dt if dt is None else dt, cas_enabled=cas_enabled)
    result = engine.run(sc, params)
    baselines = {rid: metrics.theoretical_flight_time(r, sc.perf) for rid, r in sc.routes.items()}
    return result, metrics.delays(result, baselines)


def _apply_config(sc: Scenario, overlay: str, base_dir: Path | None) -> Scenario:
    """Overlay SET directives onto an already-parsed scenario; base_dir
    anchors the scenario's relative CSV paths."""
    text = scenario_io.serialize_scenario(sc) + "\n" + overlay
    return scenario_io.parse_scenario(text, base_dir=base_dir)


def _write_trace(result: RunResult, path: Path) -> None:
    path.write_text("\n".join(engine.trace_csv_lines(result)) + "\n", encoding="utf-8")


def _simulate_to_trace(
    sc: Scenario, dt: float | None, cas_enabled: bool, trace: Path
) -> metrics.MetricsReport:
    """Run, score and write the trace of one batch run.  Only the report
    leaves, so a batch never holds more than one run's tick records."""
    result, report = simulate(sc, dt, cas_enabled)
    _write_trace(result, trace)
    return report


def _terminal_phrase(result: RunResult) -> str:
    kind = result.terminal.kind
    if kind is TerminalKind.LANDED_AT:
        return f"landed at {result.terminal.vertiport}"
    if kind is TerminalKind.COLLIDED:
        return "collided"
    if kind is TerminalKind.POSTPONED_ON_GROUND:
        return "postponed on ground"
    return "timed out"


def cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.scenario)
    try:
        sc = scenario_io.load_scenario(path)
        if args.config:
            sc = _apply_config(sc, Path(args.config).read_text(encoding="utf-8"), path.parent)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ScenarioError, ValueError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    # Both runs finish before anything is written, so a run that fails
    # leaves no partial output.
    try:
        result, report = simulate(sc, args.dt)
        off, off_report = (
            simulate(sc, args.dt, cas_enabled=False) if args.compare else (None, None)
        )
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_trace(result, out / f"{sc.id}_trace.csv")
    if off is not None:
        _write_trace(off, out / f"{sc.id}_trace_nocas.csv")
    metrics.write_run_report(sc.id, report, off_report, out, args.format)

    line = f"{sc.id}: {_terminal_phrase(result)}"
    if report.t_sim is not None:
        line += f", t_sim={report.t_sim:.3f} s"
    print(line)
    return _TERMINAL_EXIT[result.terminal.kind]


def resolve_pack(selector: str | None) -> scenario_io.ScenarioPack:
    """The pack a selector names: "default" is the built-in pack, anything
    else a directory of .scn files; None reads UAMCAS_PACK_DIR, which
    defaults to "default"."""
    if selector is None:
        selector = os.environ.get("UAMCAS_PACK_DIR", "default")
    if selector == "default":
        return default_pack()
    return scenario_io.load_pack(selector)


def run_batch(
    pack: scenario_io.ScenarioPack,
    out: str | Path,
    *,
    dt: float | None,
    fmt: str,
    config: str | None,
) -> metrics.BatchTable:
    """Run every scenario of the pack with the system on and off, in id
    order.  Writes one trace per run under <out>/traces/ and the batch
    report under <out>; config is an optional file of SET overrides
    applied to each scenario."""
    out = Path(out)
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    overlay = Path(config).read_text(encoding="utf-8") if config else None
    with_cas: dict[str, metrics.MetricsReport] = {}
    without_cas: dict[str, metrics.MetricsReport] = {}
    for sc in sorted(pack, key=lambda s: s.id):
        if overlay is not None:
            sc = _apply_config(sc, overlay, pack.base_dir)
        with_cas[sc.id] = _simulate_to_trace(sc, dt, True, traces / f"{sc.id}.csv")
        without_cas[sc.id] = _simulate_to_trace(sc, dt, False, traces / f"{sc.id}_nocas.csv")
    table = metrics.summarize_batch(with_cas, without_cas)
    metrics.write_batch_report(table, out, fmt)
    return table


def cmd_batch(args: argparse.Namespace) -> int:
    try:
        pack = resolve_pack(args.pack)
        table = run_batch(pack, args.out, dt=args.dt, fmt=args.format, config=args.config)
    except (ScenarioError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for line in metrics.batch_csv_lines(table):
        print(line)
    footer = metrics.batch_footer(table)
    if footer is not None:
        print(footer)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        scenario_io.load_scenario(args.scenario)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ScenarioError as exc:
        for n, msg in exc.errors:
            print(f"{args.scenario}:{n}: {msg}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"{args.scenario}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print("OK")
    return EXIT_OK


def cmd_pack(args: argparse.Namespace) -> int:
    try:
        pack = resolve_pack(args.pack)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    written = scenario_io.export_pack(pack, args.out)
    print(f"wrote {len(written)} scenarios to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uamcas",
        description="Deterministic fast-time simulator for an urban air "
        "mobility collision-avoidance system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dt", type=float, default=None, help="timestep override, seconds")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument(
            "--format", choices=metrics.REPORT_FORMATS, default="csv",
            help="report format",
        )
        p.add_argument("--config", default=None, help="file of SET overrides to apply")

    p_run = sub.add_parser("run", help="simulate one scenario file")
    p_run.add_argument("scenario", help="path to a scenario directive file")
    p_run.add_argument("--compare", action="store_true", help="also run with the system off")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_batch = sub.add_parser("batch", help="run every scenario in a pack, paired on/off")
    p_batch.add_argument("--pack", default=None, help='"default" or a directory of .scn files')
    common(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_val = sub.add_parser("validate", help="check a scenario file without running it")
    p_val.add_argument("scenario", help="path to a scenario directive file")
    p_val.set_defaults(func=cmd_validate)

    p_pack = sub.add_parser("pack", help="export a pack as directive files")
    p_pack.add_argument("--pack", default=None, help='"default" or a directory of .scn files')
    p_pack.add_argument("--out", default="pack", help="output directory")
    p_pack.set_defaults(func=cmd_pack)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
