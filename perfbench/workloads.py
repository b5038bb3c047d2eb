"""Seeded input generators for the benchmark workloads.

Each generator fills an empty directory with the files the program
reads: `.scn` directive files and, for csv-replay, trajectory CSVs.
swarm and csv-replay depend only on the seed and on the constants
below, never on uamcas code, so their bytes change only when this file
does.  pack-paired is the program's own built-in pack exported through
`uamcas pack`; it ignores the seed.

The generated intruders all stay at least CLEARANCE_M from the planned
corridor for the whole flight.  That is beyond the ownship's cruise
caution ring (2,156 m for VECTORED_THRUST), so the avoidance system
never engages: every flight lands, each run lasts a fixed number of
ticks, and the per-seed work is the same while the traces differ.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from pathlib import Path

CLEARANCE_M = 3000.0
# Workload sizes.  Scenarios alternate between the two corridors.
SWARM_SCENARIOS = 2
REPLAY_SCENARIOS = 2
REPLAY_INTRUDERS = 3
REPLAY_SAMPLES = 1200
# Longest undisturbed flight is route 2: 30 km at 78 m/s plus the two
# vertical legs, about 743 s.  Clearance is checked well past that.
CHECK_HORIZON_S = 1200.0

NETWORK = """\
OWNSHIP VECTORED_THRUST
VERTIPORT V1 48.3537 11.786 NAME=EDDM
VERTIPORT V2 48.1669 11.5883 NAME=MUC-HBF
VERTIPORT V3 48.2394 11.5614 NAME=EDNX
ROUTE ROUTE1 48.3537,11.786 48.27961094611782,11.745395649201697 48.217344279451154,11.679495649201698 48.1669,11.5883
ROUTE ROUTE2 48.3537,11.786 48.317301760003446,11.649785469321815 48.2394,11.5614 48.1669,11.5883
"""

# The two corridors of NETWORK in the local frame of V1 (east, north),
# rounded to 0.1 m; only used to keep intruders clear of them.
CORRIDORS_ENU = {
    "ROUTE1": ((0.0, 0.0), (-3000.4, -8238.3), (-7869.9, -15162.1), (-14608.5, -20771.2)),
    "ROUTE2": ((0.0, 0.0), (-10065.2, -4047.3), (-16596.2, -12709.6), (-14608.5, -20771.2)),
}


def _segment_distance(p, a, b) -> float:
    ax, ay = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    u = max(0.0, min(1.0, (px * ax + py * ay) / (ax * ax + ay * ay)))
    return math.hypot(px - u * ax, py - u * ay)


def corridor_distance(p, corridor) -> float:
    return min(_segment_distance(p, a, b) for a, b in zip(corridor, corridor[1:]))


class _Draw:
    """Uniform draws built on random.random() alone, whose sequence
    for a given seed is fixed across Python versions."""

    def __init__(self, label: str):
        self._rng = random.Random(label)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._rng.random()

    def pick(self, options):
        return options[int(self._rng.random() * len(options))]


def _offset_point(draw: _Draw, corridor, lo: float, hi: float):
    """A point lo..hi metres to either side of a random spot on the
    corridor, and the bearing pointing away from the corridor there."""
    legs = list(zip(corridor, corridor[1:]))
    a, b = draw.pick(legs)
    u = draw.uniform(0.0, 1.0)
    side = draw.pick((-1.0, 1.0))
    dist = draw.uniform(lo, hi)
    leg_track = math.degrees(math.atan2(b[0] - a[0], b[1] - a[1]))
    away = (leg_track + 90.0 * side) % 360.0
    rad = math.radians(away)
    x = a[0] + u * (b[0] - a[0]) + dist * math.sin(rad)
    y = a[1] + u * (b[1] - a[1]) + dist * math.cos(rad)
    return (x, y), away


def _clear_for(path, corridor) -> bool:
    return all(corridor_distance(p, corridor) >= CLEARANCE_M for p in path)


def _swarm_intruder(draw: _Draw, iid: str, corridor, linger: bool) -> str:
    while True:
        (x, y), away = _offset_point(draw, corridor, CLEARANCE_M + 200.0, 6000.0)
        up = draw.uniform(150.0, 450.0)
        kind = draw.pick(("DRONE", "DRONE", "BIRD"))
        behavior = draw.pick(("PREDICTABLE", "UNPREDICTABLE"))
        head = f"INTRUDER {iid} {kind} {behavior} SCRIPT"
        if linger:
            if _clear_for([(x, y)], corridor):
                return f"{head} LINGER SPEED=1 ANCHOR={x:.1f},{y:.1f},{up:.1f} HOLD=5000"
            continue
        speed = draw.uniform(8.0, 15.0) if kind == "BIRD" else draw.uniform(10.0, 25.0)
        track = (away + draw.uniform(-30.0, 30.0)) % 360.0
        rad = math.radians(track)
        path = [
            (x + speed * t * math.sin(rad), y + speed * t * math.cos(rad))
            for t in range(0, int(CHECK_HORIZON_S) + 1, 20)
        ]
        if _clear_for(path, corridor):
            return (f"{head} PASS_BY SPEED={speed:.2f} ANCHOR={x:.1f},{y:.1f},{up:.1f} "
                    f"TRACK={track:.2f}")


def swarm(out_dir: Path, seed: int, intruders: int = 20) -> None:
    """SWARM_SCENARIOS scenarios, each with `intruders` scripted drones
    and birds present for the whole flight, alternately LINGER and
    PASS_BY so every seed costs the same.  The benchmark's own tests pass
    a smaller `intruders` for a quick batch.  The tick is 0.2 s, which
    halves the batch time; the work per tick does not depend on it."""
    out_dir.mkdir(parents=True)
    draw = _Draw(f"swarm:{seed}")
    for k in range(SWARM_SCENARIOS):
        route = ("ROUTE1", "ROUTE2")[k % 2]
        lines = [f"SCENARIO swarm-{k:02d}", NETWORK.rstrip("\n"), f"PLAN {route}", "SET SIM.DT 0.2"]
        lines += [_swarm_intruder(draw, f"s{i:02d}", CORRIDORS_ENU[route], i % 2 == 0)
                  for i in range(intruders)]
        (out_dir / f"swarm-{k:02d}.scn").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _trajectory_rows(draw: _Draw, corridor, samples: int) -> list[str]:
    """A circling wander at 1 Hz around a centre kept clear of the
    corridor, as `t_s,east_m,north_m,up_m` rows."""
    while True:
        radius = draw.uniform(300.0, 900.0)
        (cx, cy), _ = _offset_point(draw, corridor, CLEARANCE_M + radius + 100.0, 6000.0)
        omega = draw.uniform(5.0, 15.0) / radius * draw.pick((-1.0, 1.0))
        phase = draw.uniform(0.0, 2.0 * math.pi)
        alt = draw.uniform(150.0, 450.0)
        pts = [
            (cx + radius * math.sin(omega * t + phase), cy + radius * math.cos(omega * t + phase),
             alt + 30.0 * math.sin(0.01 * t + phase))
            for t in range(samples)
        ]
        if _clear_for([(e, n) for e, n, _ in pts[::10]], corridor):
            return [f"{t},{e:.2f},{n:.2f},{u:.2f}" for t, (e, n, u) in enumerate(pts)]


def csv_replay(out_dir: Path, seed: int) -> None:
    """REPLAY_SCENARIOS scenarios, each with REPLAY_INTRUDERS drones
    replaying REPLAY_SAMPLES-row trajectory CSVs that cover the whole
    flight."""
    out_dir.mkdir(parents=True)
    draw = _Draw(f"csv-replay:{seed}")
    for k in range(REPLAY_SCENARIOS):
        route = ("ROUTE1", "ROUTE2")[k % 2]
        sid = f"replay-{k:02d}"
        lines = [f"SCENARIO {sid}", NETWORK.rstrip("\n"), f"PLAN {route}"]
        for i in range(REPLAY_INTRUDERS):
            name = f"{sid}-r{i}.csv"
            rows = _trajectory_rows(draw, CORRIDORS_ENU[route], REPLAY_SAMPLES)
            (out_dir / name).write_text(
                "t_s,east_m,north_m,up_m\n" + "\n".join(rows) + "\n", encoding="utf-8"
            )
            behavior = draw.pick(("PREDICTABLE", "UNPREDICTABLE"))
            lines.append(f"INTRUDER r{i} DRONE {behavior} CSV {name}")
        (out_dir / f"{sid}.scn").write_text("\n".join(lines) + "\n", encoding="utf-8")


def pack_paired(out_dir: Path, seed: int) -> None:
    """The built-in 21-scenario pack, exported with `uamcas pack`."""
    from uamcas import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["pack", "--out", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"uamcas pack exited with {code}")


GENERATORS = {"pack-paired": pack_paired, "swarm": swarm, "csv-replay": csv_replay}
SEEDLESS = frozenset({"pack-paired"})
