"""Post-run accounting: theoretical baselines, closest point of
approach, the ground/airborne/total delay decomposition, and the run and
batch report files that carry them."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from .agents import PerformanceModel
from .engine import RunResult, Terminal, TerminalKind
from .geo import GeoPoint, Route, cpa_linear, polyline_length


def theoretical_flight_time(origin: GeoPoint, route: Route, perf: PerformanceModel) -> float:
    """Still-air time: cruise over the polyline, projected at origin (the
    scenario's V1, as the engine flies it), plus the vertical climb and
    descent legs."""
    return (
        polyline_length(origin, route) / perf.cruise_speed
        + perf.cruise_alt / perf.climb_rate
        + perf.cruise_alt / perf.descent_rate
    )


def cpa(result: RunResult) -> dict[str, float]:
    """Minimum 3-D separation over the encounter, per intruder, in the
    order intruders first appear: the least recorded separation S, or
    less on an interval between two consecutive recorded ticks (in one
    stretch or across abutting ones, never across an absence), as the
    closed-form CPA of the linear relative motion, geo.cpa_linear.  A
    relative segment of length L <= reach is at least min(a, b) - L/2
    from the ownship, a and b being its end separations, so only
    intervals with an end at or below S + reach/2 are evaluated; min is
    exact and a skipped interval cannot go below S, so the result is
    every interval's, bit for bit.
    """
    ticks = result.ticks
    minima = {}
    for iid, (reach, stretches) in result.stretches.items():
        low = min([s[3] for s in stretches])
        limit = low + reach / 2
        spans = []  # (tick, its cell, the next tick's cell) of each interval to evaluate
        end = cell_before = None
        for first, count, cell, least in stretches:
            if first == end and min(ticks[first - 1][7][cell_before][4], ticks[first][7][cell][4]) <= limit:
                spans.append((first - 1, cell_before, cell))
            if least <= limit:
                seps = [rec[7][cell][4] for rec in ticks[first:first + count]]
                spans += [(first + i, cell, cell)
                          for i, (a, b) in enumerate(zip(seps, seps[1:])) if a <= limit or b <= limit]
            end, cell_before = first + count, cell
        for k, c0, c1 in spans:
            t0, own_e, own_n, own_u, _, _, _, intruders, _ = ticks[k]
            _, east, north, up, _, _ = intruders[c0]
            px, py, pz = east - own_e, north - own_n, up - own_u
            t, own_e, own_n, own_u, _, _, _, intruders, _ = ticks[k + 1]
            _, east, north, up, _, _ = intruders[c1]
            span = t - t0
            rel_vel = ((east - own_e - px) / span, (north - own_n - py) / span, (up - own_u - pz) / span)
            low = min(low, cpa_linear((px, py, pz), rel_vel, span)[1])
        minima[iid] = low
    return minima


def intruder_ids(result: RunResult) -> list[str]:
    return list(result.stretches)


@dataclass(frozen=True)
class MetricsReport:
    """One scenario's outcome numbers, the row of every report: a run's,
    and after pair() also its system-off run's CPA.  Airborne fields are
    None when the departure was postponed."""

    scenario_id: str
    cpa: float | None
    t_sim: float | None
    d_ground: float
    d_air: float | None
    d_total: float | None
    terminal: Terminal
    cpa_without: float | None = None


def compose_delays(d_ground: float, d_air: float) -> float:
    """Total delay is the exact sum of its parts."""
    return d_ground + d_air


def delays(result: RunResult, baselines: Mapping[str, float]) -> MetricsReport:
    """Assemble the delay decomposition for one run.

    The airborne baseline is the theoretical time of the route the
    flight departed on; a diversion landing elsewhere still counts
    against that plan.  Airborne delay is floored at zero.
    """
    if result.terminal.kind is TerminalKind.POSTPONED_ON_GROUND:
        return MetricsReport(
            scenario_id=result.scenario_id,
            cpa=None,
            t_sim=None,
            d_ground=math.inf,
            d_air=None,
            d_total=None,
            terminal=result.terminal,
        )
    t_sim = result.end_time - result.departure_time
    d_ground = float(result.ground_decision.delay_s)
    d_air = max(0.0, t_sim - baselines[result.ground_decision.route])
    minima = cpa(result)
    cpa_val = min(minima.values()) if minima else None
    return MetricsReport(
        scenario_id=result.scenario_id,
        cpa=cpa_val,
        t_sim=t_sim,
        d_ground=d_ground,
        d_air=d_air,
        d_total=compose_delays(d_ground, d_air),
        terminal=result.terminal,
    )


def pair(on: MetricsReport, off: MetricsReport) -> MetricsReport:
    """One scenario's paired row: the system-on run's numbers, with the
    system-off run's CPA as cpa_without."""
    return replace(on, cpa_without=off.cpa)


@dataclass(frozen=True)
class BatchTable:
    rows: tuple[MetricsReport, ...]
    mean_d_air: float | None


def summarize_batch(rows: Sequence[MetricsReport]) -> BatchTable:
    """The comparison table of paired rows, in the order given, with the
    mean airborne delay over the rows that departed."""
    # Added left to right, as geo.polyline_length_enu is and for the same
    # reason: sum() rounds differently from Python 3.12 on.
    total, n = 0.0, 0
    for r in rows:
        if r.d_air is not None:
            total += r.d_air
            n += 1
    mean_d_air = total / n if n else None
    return BatchTable(tuple(rows), mean_d_air)


# ---------------------------------------------------------------------------
# Run and batch reports
#
# Every report cell is formatted by _cell (CSV) or _json_num (JSON), so a
# value reads the same in a run report and in a batch report.


REPORT_FORMATS = ("csv", "structured", "both")

# The report columns after scenario_id: header -> MetricsReport attribute.
BATCH_COLUMNS = {
    "cpa_with_m": "cpa",
    "cpa_without_m": "cpa_without",
    "t_sim_s": "t_sim",
    "d_ground_s": "d_ground",
    "d_air_s": "d_air",
    "d_total_s": "d_total",
}
BATCH_CSV_HEADER = ",".join(("scenario_id", *BATCH_COLUMNS))
# The batch CSV files and their columns; summary.csv has them all.
_BATCH_CSV_FILES = {
    "summary.csv": tuple(BATCH_COLUMNS),
    "delays.csv": ("d_ground_s", "d_air_s", "d_total_s"),
    "cpa_compare.csv": ("cpa_with_m", "cpa_without_m"),
}
# A run report's CSV lines; cpa_without_m follows for a paired run.
_RUN_CSV_LINES = ("t_sim_s", "d_ground_s", "d_air_s", "d_total_s", "cpa_with_m")


def _cell(v: float | None) -> str:
    if v is None:
        return ""
    if math.isinf(v):
        return "inf"
    return f"{v:.3f}"


def _json_num(v: float | None) -> float | str | None:
    # strict JSON has no Infinity literal
    if v is None or math.isfinite(v):
        return v
    return "inf"


def _formats(fmt: str) -> tuple[bool, bool]:
    """(write CSV, write JSON) for a report format name."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    return fmt in ("csv", "both"), fmt in ("structured", "both")


def _write_lines(path: Path, lines: Sequence[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _row_doc(row: MetricsReport) -> dict:
    """A row as a run report's JSON and as each entry of report.json."""
    return {
        "scenario_id": row.scenario_id,
        **{h: _json_num(getattr(row, a)) for h, a in BATCH_COLUMNS.items()},
        "terminal": row.terminal.kind.name,
        "landed_at": row.terminal.vertiport,
    }


def write_run_report(
    row: MetricsReport, paired: bool, out_dir: str | Path, fmt: str = "csv"
) -> None:
    """Write one run's row as <id>_report.csv and/or <id>_report.json.

    The JSON is the row's entry in a batch report.json; the CSV holds
    the same cells, one per line, with cpa_without_m only when the row
    is paired (its value can be empty, so paired says it).
    """
    csv_out, json_out = _formats(fmt)
    out = Path(out_dir)
    if csv_out:
        headers = (*_RUN_CSV_LINES, "cpa_without_m") if paired else _RUN_CSV_LINES
        cells = [f"{h},{_cell(getattr(row, BATCH_COLUMNS[h]))}" for h in headers]
        _write_lines(out / f"{row.scenario_id}_report.csv", ["metric,value", *cells])
    if json_out:
        _write_json(out / f"{row.scenario_id}_report.json", _row_doc(row))


def _csv_table(table: BatchTable, headers: Sequence[str]) -> list[str]:
    attrs = [BATCH_COLUMNS[h] for h in headers]
    lines = [",".join(("scenario_id", *headers))]
    for row in table.rows:
        lines.append(",".join([row.scenario_id, *(_cell(getattr(row, a)) for a in attrs)]))
    return lines


def batch_csv_lines(table: BatchTable) -> list[str]:
    return _csv_table(table, _BATCH_CSV_FILES["summary.csv"])


def batch_footer(table: BatchTable) -> str | None:
    """The mean airborne delay line, averaged over the departed rows
    (those with an airborne delay); None when nothing departed."""
    if table.mean_d_air is None:
        return None
    departed = sum(1 for row in table.rows if row.d_air is not None)
    return f"# mean airborne delay over {departed} scenarios: {table.mean_d_air:.3f} s"


def write_batch_report(table: BatchTable, out_dir: str | Path, fmt: str = "csv") -> list[Path]:
    """Write the batch summary and its plot-data companions.

    fmt "csv" writes summary.csv plus delays.csv and cpa_compare.csv;
    "structured" writes report.json; "both" writes all four.  Output is
    byte-stable across reruns of the same pack.
    """
    csv_out, json_out = _formats(fmt)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if csv_out:
        for name, headers in _BATCH_CSV_FILES.items():
            written.append(_write_lines(out / name, _csv_table(table, headers)))

    if json_out:
        doc = {
            "rows": [_row_doc(row) for row in table.rows],
            "mean_d_air_s": _json_num(table.mean_d_air),
        }
        written.append(_write_json(out / "report.json", doc))

    return written
