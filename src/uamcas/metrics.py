"""Post-run accounting: theoretical baselines, closest point of
approach, and the ground/airborne/total delay decomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .agents import PerformanceModel
from .engine import RunResult, Terminal, TerminalKind
from .geo import Route, cpa_linear, polyline_length


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

    Within each tick both agents move linearly, so the continuous
    minimum on a tick interval is the closed-form CPA of the relative
    motion; each result can only be at or below every sampled
    separation.  One sweep over the ticks keeps every present
    intruder's relative position for the next tick; an intruder absent
    at a tick starts afresh, so no interval bridges an absence.
    """
    best: dict[str, float] = {}
    prev: dict[str, tuple[float, tuple[float, float, float]]] = {}
    for t, own_e, own_n, own_u, _, _, _, intruders, _ in result.ticks:
        present = {}
        for iid, east, north, up, _, _ in intruders:
            dx, dy, dz = east - own_e, north - own_n, up - own_u
            d = math.sqrt(dx ** 2 + dy ** 2 + dz ** 2)
            low = best.get(iid, math.inf)
            if d < low:
                low = d
            last = prev.get(iid)
            if last is not None:
                t0, rel0 = last
                span = t - t0
                px, py, pz = rel0
                rel_vel = ((dx - px) / span, (dy - py) / span, (dz - pz) / span)
                _, d = cpa_linear(rel0, rel_vel, span)
                if d < low:
                    low = d
            best[iid] = low
            present[iid] = (t, (dx, dy, dz))
        prev = present
    return best


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
