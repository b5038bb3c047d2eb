"""Post-run accounting: theoretical baselines, closest point of
approach, the ground/airborne/total delay decomposition, and the run and
batch report files that carry them."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .agents import PerformanceModel
from .engine import RunResult, Terminal, TerminalKind
from .geo import Route, polyline_length


class PairingError(ValueError):
    """Batch rows without a matching with/without counterpart."""


def theoretical_flight_time(route: Route, perf: PerformanceModel) -> float:
    """Still-air time: cruise over the polyline plus the vertical climb
    and descent legs."""
    return (
        polyline_length(route) / perf.cruise_speed
        + perf.cruise_alt / perf.climb_rate
        + perf.cruise_alt / perf.descent_rate
    )


def cpa(result: RunResult) -> dict[str, float]:
    """Minimum 3-D separation over the encounter, per intruder, in the
    order intruders first appear.

    Each sampled distance is the tick's recorded separation, which the
    engine computes as geo.distance_3d of the same recorded positions.
    Within each tick both agents move linearly, so the continuous
    minimum on a tick interval is the closed-form CPA of the relative
    motion (geo.cpa_linear, inlined with the same operations in the
    same order); each result can only be at or below every sampled
    separation.  One sweep over the ticks keeps, per intruder, the index
    of its last tick, its relative position there and its minimum so
    far; an intruder absent at the tick before starts afresh, so no
    interval bridges an absence.
    """
    sqrt = math.sqrt
    inf = math.inf
    last_seen: dict[str, tuple[int, float, float, float, float, float]] = {}
    for k, (t, own_e, own_n, own_u, _, _, _, intruders, _) in enumerate(result.ticks):
        for iid, east, north, up, sep, _ in intruders:
            dx, dy, dz = east - own_e, north - own_n, up - own_u
            last = last_seen.get(iid)
            if last is None:
                low = inf
            else:
                k0, t0, px, py, pz, low = last
                if k0 == k - 1:
                    span = t - t0
                    vx, vy, vz = (dx - px) / span, (dy - py) / span, (dz - pz) / span
                    v2 = vx * vx + vy * vy + vz * vz
                    if v2 == 0.0:
                        t_star = 0.0
                    else:
                        t_star = -(px * vx + py * vy + pz * vz) / v2
                        # max(0.0, min(span, t_star)), as cpa_linear clamps.
                        t_star = t_star if t_star < span else span
                        t_star = t_star if t_star > 0.0 else 0.0
                    ex, ey, ez = px + vx * t_star, py + vy * t_star, pz + vz * t_star
                    d = sqrt(ex * ex + ey * ey + ez * ez)
                    if d < low:
                        low = d
            if sep < low:
                low = sep
            last_seen[iid] = (k, t, dx, dy, dz, low)
    return {iid: last[5] for iid, last in last_seen.items()}


def intruder_ids(result: RunResult) -> list[str]:
    seen: dict[str, None] = {}
    for rec in result.ticks:
        for it in rec.intruders:
            seen.setdefault(it.intruder_id, None)
    return list(seen)


@dataclass(frozen=True)
class MetricsReport:
    """Run-level outcome numbers; airborne fields are None when the
    departure was postponed."""

    cpa: float | None
    t_sim: float | None
    d_ground: float
    d_air: float | None
    d_total: float | None
    terminal: Terminal


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
        cpa=cpa_val,
        t_sim=t_sim,
        d_ground=d_ground,
        d_air=d_air,
        d_total=compose_delays(d_ground, d_air),
        terminal=result.terminal,
    )


@dataclass(frozen=True)
class BatchRow:
    scenario_id: str
    cpa_with: float | None
    cpa_without: float | None
    t_sim: float | None
    d_ground: float
    d_air: float | None
    d_total: float | None
    terminal: Terminal


@dataclass(frozen=True)
class BatchTable:
    rows: tuple[BatchRow, ...]
    mean_d_air: float | None


def summarize_batch(
    with_cas: Mapping[str, MetricsReport],
    without_cas: Mapping[str, MetricsReport],
) -> BatchTable:
    """Merge paired runs into the comparison table, ordered by scenario
    id.  Delay columns come from the system-on run; the system-off run
    contributes its CPA."""
    if set(with_cas) != set(without_cas):
        odd = set(with_cas) ^ set(without_cas)
        raise PairingError(f"unpaired scenario ids: {sorted(odd)}")
    rows = []
    for sid in sorted(with_cas):
        on = with_cas[sid]
        off = without_cas[sid]
        rows.append(
            BatchRow(
                scenario_id=sid,
                cpa_with=on.cpa,
                cpa_without=off.cpa,
                t_sim=on.t_sim,
                d_ground=on.d_ground,
                d_air=on.d_air,
                d_total=on.d_total,
                terminal=on.terminal,
            )
        )
    finite = [r.d_air for r in rows if r.d_air is not None]
    mean_d_air = sum(finite) / len(finite) if finite else None
    return BatchTable(tuple(rows), mean_d_air)


# ---------------------------------------------------------------------------
# Run and batch reports
#
# Every report cell is formatted by _cell (CSV) or _json_num (JSON), so a
# value reads the same in a run report and in a batch report.


REPORT_FORMATS = ("csv", "structured", "both")

# The batch report's columns after scenario_id: header -> BatchRow attribute.
BATCH_COLUMNS = {
    "cpa_with_m": "cpa_with",
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


def write_run_report(
    scenario_id: str, report: MetricsReport, off_report: MetricsReport | None,
    out_dir: str | Path, fmt: str = "csv",
) -> None:
    """Write one run's metrics as <id>_report.csv and/or <id>_report.json.

    off_report, the paired system-off run when there is one, contributes
    its CPA as cpa_without_m.
    """
    csv_out, json_out = _formats(fmt)
    out = Path(out_dir)
    cells = {
        "t_sim_s": report.t_sim,
        "d_ground_s": report.d_ground,
        "d_air_s": report.d_air,
        "d_total_s": report.d_total,
        "cpa_with_m": report.cpa,
    }
    if off_report is not None:
        cells["cpa_without_m"] = off_report.cpa
    if csv_out:
        lines = ["metric,value"] + [f"{k},{_cell(v)}" for k, v in cells.items()]
        _write_lines(out / f"{scenario_id}_report.csv", lines)
    if json_out:
        doc = {
            "scenario_id": scenario_id,
            "terminal": report.terminal.kind.name,
            "landed_at": report.terminal.vertiport,
            "cpa_without_m": None,
            **{k: _json_num(v) for k, v in cells.items()},
        }
        _write_json(out / f"{scenario_id}_report.json", doc)


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
            "rows": [
                {
                    "scenario_id": row.scenario_id,
                    **{h: _json_num(getattr(row, a)) for h, a in BATCH_COLUMNS.items()},
                    "terminal": row.terminal.kind.name,
                    "landed_at": row.terminal.vertiport,
                }
                for row in table.rows
            ],
            "mean_d_air_s": _json_num(table.mean_d_air),
        }
        written.append(_write_json(out / "report.json", doc))

    return written
