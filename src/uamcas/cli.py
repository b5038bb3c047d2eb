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
import functools
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

from . import engine, metrics, scenario_io
from .engine import RunResult, Terminal, TerminalKind
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
    origin = sc.vertiports["V1"].position
    baselines = {
        rid: metrics.theoretical_flight_time(origin, r, sc.perf) for rid, r in sc.routes.items()
    }
    return result, metrics.delays(result, baselines)


def _apply_config(sc: Scenario, overlay: str, config: str, base_dir: Path | None) -> Scenario:
    """Overlay SET directives, the text of the file config, onto an
    already-parsed scenario; base_dir anchors the scenario's relative CSV
    paths.  An error on an overlay line is reported at that line of
    config; any other error is the scenario's with the overlay, so it
    names both, at line 0."""
    base = scenario_io.serialize_scenario(sc) + "\n"
    try:
        return scenario_io.parse_scenario(base + overlay, base_dir=base_dir)
    except ScenarioError as exc:
        errors = [(max(0, n - base.count("\n")), msg) for n, msg in exc.errors]
        whole = any(n == 0 for n, _ in errors)
        raise ScenarioError(errors, f"{config} on {sc.id}" if whole else config) from None


def _write_trace(lines: list[str], path: Path) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _simulate_pair(
    sc: Scenario, dt: float | None, emit: Callable[[list[str]], None], compare: bool = True
) -> metrics.MetricsReport:
    """The pair step: run and score a scenario with the system on and, with
    compare, off, and hand each run's trace lines to emit once whole.  The
    system-off run resumes from the records it shares with the system-on
    run (engine.run, engine.command_scope), so its trace takes their rows
    from the system-on trace; no other system-on row is kept past it.  Only
    the row (paired with compare) leaves, and the scope keeps the collector
    paused until reference counting has freed both runs' records, the
    engine's memo included, so no collection walks them."""
    with engine.command_scope():
        result, row = simulate(sc, dt)
        lines = engine.trace_csv_lines(result)
        del result
        emit(lines)
        if compare:
            off, off_row = simulate(sc, dt, cas_enabled=False)
            lines = lines[:off.shared + 1]
            lines += engine.trace_csv_lines(off, off.shared)[1:]
            del off
            emit(lines)
            row = metrics.pair(row, off_row)
    return row


def _terminal_phrase(terminal: Terminal) -> str:
    kind = terminal.kind
    if kind is TerminalKind.LANDED_AT:
        return f"landed at {terminal.vertiport}"
    if kind is TerminalKind.COLLIDED:
        return "collided"
    if kind is TerminalKind.POSTPONED_ON_GROUND:
        return "postponed on ground"
    return "timed out"


def cmd_run(args: argparse.Namespace) -> int:
    # One scope, so one pause, for the whole command: no collection
    # starts inside it, so none walks the runs' records.
    with engine.command_scope():
        path = Path(args.scenario)
        sc = scenario_io.load_scenario(path)
        if args.config:
            overlay = Path(args.config).read_text(encoding="utf-8-sig")
            sc = _apply_config(sc, overlay, args.config, path.parent)
        # Both runs finish before anything is written, so a run that fails
        # leaves no partial output.
        traces: list[list[str]] = []
        row = _simulate_pair(sc, args.dt, traces.append, args.compare)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for suffix, lines in zip(("_trace.csv", "_trace_nocas.csv"), traces):
            _write_trace(lines, out / f"{sc.id}{suffix}")
        metrics.write_run_report(row, args.compare, out, args.format)

        line = f"{sc.id}: {_terminal_phrase(row.terminal)}"
        if row.t_sim is not None:
            line += f", t_sim={row.t_sim:.3f} s"
        print(line)
        return _TERMINAL_EXIT[row.terminal.kind]


def resolve_pack(selector: str) -> scenario_io.ScenarioPack:
    """The pack a selector names: "default" is the built-in pack, anything
    else a directory of .scn files."""
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
    applied to each scenario, all of them before anything is written."""
    scenarios = sorted(pack, key=lambda s: s.id)
    if config:
        overlay = Path(config).read_text(encoding="utf-8-sig")
        scenarios = [_apply_config(sc, overlay, config, pack.base_dir) for sc in scenarios]
    out = Path(out)
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    rows = []
    # One scope for all pair steps: the runs share each plan path, and the
    # collector stays paused over the whole batch (engine.command_scope).
    with engine.command_scope():
        for sc in scenarios:
            paths = iter([traces / f"{sc.id}.csv", traces / f"{sc.id}_nocas.csv"])
            rows.append(_simulate_pair(sc, dt, lambda lines: _write_trace(lines, next(paths))))
    table = metrics.summarize_batch(rows)
    metrics.write_batch_report(table, out, fmt)
    return table


def cmd_batch(args: argparse.Namespace) -> int:
    pack = resolve_pack(args.pack)
    table = run_batch(pack, args.out, dt=args.dt, fmt=args.format, config=args.config)
    for line in metrics.batch_csv_lines(table):
        print(line)
    footer = metrics.batch_footer(table)
    if footer is not None:
        print(footer)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        scenario_io.load_scenario(args.scenario)
    except ScenarioError as exc:
        for n, msg in exc.errors:
            print(f"{args.scenario}:{n}: {msg}", file=sys.stderr)
        return EXIT_ERROR
    print("OK")
    return EXIT_OK


def cmd_pack(args: argparse.Namespace) -> int:
    if args.pack != "default" and Path(args.out).resolve() == Path(args.pack).resolve():
        raise ValueError(f"--out {args.out} is the --pack directory; export to another directory")
    written = scenario_io.export_pack(resolve_pack(args.pack), args.out)
    print(f"wrote {len(written)} scenarios to {args.out}")
    return EXIT_OK


# Built once: an argparse parser is a graph of cycles that only a
# collection frees.
@functools.cache
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

    p_batch = sub.add_parser("batch", help="run every scenario in a pack, paired on/off")
    p_batch.add_argument("--pack", default="default", help='"default" or a directory of .scn files')
    common(p_batch)

    p_val = sub.add_parser("validate", help="check a scenario file without running it")
    p_val.add_argument("scenario", help="path to a scenario directive file")

    p_pack = sub.add_parser("pack", help="export a pack as directive files")
    p_pack.add_argument("--pack", default="default", help='"default" or a directory of .scn files')
    p_pack.add_argument("--out", default="pack", help="output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Every input error it raises, a ScenarioError
    included, ends here as one "error: ..." line and exit code 1."""
    args = build_parser().parse_args(argv)
    # Looked up by name on each call, so a patched cmd_* is the one called.
    command = {"run": cmd_run, "batch": cmd_batch, "validate": cmd_validate, "pack": cmd_pack}[args.command]
    try:
        return command(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
