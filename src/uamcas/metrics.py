"""Post-run accounting: theoretical baselines, closest point of
approach, and the ground/airborne/total delay decomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass
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
