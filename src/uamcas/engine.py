"""Fixed-timestep simulation loop.

Per tick, in a fixed order chosen once for determinism: intruders
advance and, when the avoidance system is enabled, are sensed in the
same pass against the not-yet-moved ownship (separation and zone, which
extend each intruder's running record, cdr.extend_run, and pick the
nearest intruder; with the system off nothing reads them, so sensing is
skipped); the decision tree runs on the nearest intruder and the
records; finally the ownship moves under the resulting guidance.  The
recorded tick snapshot pairs post-move positions so trace geometry is
time-consistent.  Per-run constants (the envelope set of each flight
mode, the tick, the contact distance) are resolved once before the loop,
and the envelope set is looked up again only when the flight mode
changes (a plain Enum hashes in Python code).

Most ticks hold: the system is off, or cdr.holds its state, where
cdr_step changes nothing and issues no command while no intruder's
presence or zone changes, until a phase stop test fires (DETECT's timer,
de-escalation).  The loop takes a run of held ticks, those of the next
256 before the next spawn, within max_sim_time and before DETECT's timer
(cdr.detect_hold), the ownship's from its path (below), then one pass
per present intruder, in order, in columns: its positions from one
agents.intruder_state_at call (both run forms), its pre-move (system on)
and post-move separations from geo.distances_3d, math.dist computed in
C with no libm pow() (a still intruder's post-move ones are the next
ticks' pre-move ones), one cdr.fold_run of its running record, and
classify only for post-move separations within caution_radius.  A run
ends before the first tick that would change which intruders are
present, move a pre-move separation out of its zone on the tick before
with the system on (envelopes.zone_bounds), bring a
post-move one to contact_distance or below, pass max_sim_time, change
the flight mode or waypoint index, or de-escalate the encounter
intruder on its folded record (cdr.de_escalation_hold), and a full tick
takes that one.  A pass that ends it early shortens the later passes,
and every column is cut to the run (a shorter column is a prefix of a
longer one).  A run that nothing cut, all 256 ticks, is followed by
another: the decision holds on the next tick unless that run ends before
it, and then a full tick takes it.  The clock is one column per
departure and dt in the command scope, tick k at clock[k], filled lazily
(_clock) by the sum the loop once made, clock[k + 1] = clock[k] + dt.
The record count is the tick index, so a run (a forked one too) reads
the next tick's time at clock[len(ticks) + 1], hold runs slice the
column, and the runs of one departure and dt record its floats; every
artifact is what full ticks would give.

Beside the records, RunResult.stretches keeps per intruder its reach, the
most its position relative to the ownship moves in one tick ((ownship
and its top speeds) * dt, widened for rounding), and its stretches, runs
of recorded ticks at one cell.  Hold runs and full ticks record through
one builder (_record, a full tick being a run of one tick), and each
call adds one stretch per present intruder; metrics.cpa reads the
intervals between abutting stretches as those inside one.

Every run flies a path (_PlanPath): the ownship's rows from a start
state under one guidance, perf and dt, the floats agents.ownship_step
returned as runs first reached them (a hold run's rows by the run form, a
full tick's by one call), which the records keep.  ownship_step reads no
clock and no intruder, and its run form equals one call per tick bit for
bit, so a path's rows are what the run would step itself, rows stepped
past a cut included.  Until its first command (any, even one that keeps
the guidance) a run flies the plan path of its plan (waypoints, bit for
bit, and destination), perf and dt from departure; a command starts a
private path at the commanding tick, which no other run reads.

A system-off run repeats its system-on run record for record until the
system first acts: while the phase is MONITORING no command has been
issued, so guidance, flight mode, waypoint index, command label and
phase are the system-off run's (hold runs split the two differently, but
every record is the tick by tick loop's).  A system-on run that departs
as the system-off run does (at once, on the planned route) fills the
memo, one slot: its loop state (records, whose count is the tick index,
ownship values, prev_pos, a copy of the stretch index, its plan path) at
the start of the first full tick after whose cdr_step the phase is not
MONITORING, or its whole run.  The next run takes the memo, whatever it
is, and forks from it if it is the system-off run of the same scenario
object with params equal but for cas_enabled: it resumes the loop from
that state, RunResult.shared counting the records taken.  Clock columns,
plan paths and the memo live for one command_scope (one per cli command);
a run outside one opens its own, so nothing outlives the command but in
the RunResults that name their path (RunResult.leading, below).
Loop state added later (ROADMAP items 1 and 7) must be carried into the
memo, and what a path's rows come to depend on into its key.

The ownship is carried as local floats (position and track) plus its
flight mode and waypoint index, and agents.ownship_step takes and
returns exactly those values.  The decision reads only the ownship's
position and track, and agents.resolve_command, on a tick that issues a
command, reads those plus the waypoint index, so no ownship object is
ever built.  The records built on every tick are TickRecord, one
IntruderTick per present intruder, and, with the system on, an
IntruderObservation for each intruder nearer than those before it in the
pass, plus a plain (since, separation, zone) tuple for each running
record that changes; the intruder positions are EnuPoints from
agents.intruder_state_at.  All but the running records are NamedTuples,
which build in half the time of a frozen dataclass or less.  The three
tick records carry no rules, so the loop builds them with tuple.__new__
and skips the generated __new__'s keyword handling; every EnuPoint
construction checks its fields (geo.enu_points a whole list's at once).  Reading
a NamedTuple field by name costs more than reading a slot, so the
readers that take most of a record's fields (trace_csv_lines,
metrics.cpa, the geo distance helpers) unpack it by position instead.

The outermost command scope also pauses CPython's cyclic garbage
collector.  A run builds hundreds of thousands of tracked tuples
(TickRecords, IntruderTicks, ownship path tuples) that hold enum members,
so the collector never untracks them, and every collection their
allocation triggers re-scans them and frees nothing.  They are still
young when run returns, and the memo and the paths keep them alive for
the runs after it, so the pause lasts the scope: a batch is one pause.
The pause is safe because the engine builds no reference cycles: no
record or running value refers back to what holds it, so reference
counting frees every dead object it makes.  Code added here that builds
a cycle would hold that garbage until the first collection after the
scope.

Float formatting dominates trace rendering, and a tick often repeats
the previous one's ownship values (east and north change on about half
the pack's rows, track on a sixth), so trace_csv_lines keeps the text of
the east/north pair, of up and of the track/phase group and formats one
again only when its value changes.  Equal floats print alike with one
exception: 0.0 == -0.0, yet they print as 0.000 and -0.000.  A text is
therefore reused only for the same float object or an equal nonzero
value, and a repeated zero that is a new object is formatted again.

Across runs, a plan path keeps the trace text of its rows.  A run's path
rows are its leading records, those before its first command (all of a
run that issues none, a forked system-off run included), and
RunResult.leading names the path and counts them.  A row's time is the
float at its index in the clock column of its departure and dt, dt being
in the path key, and its ownship values are the path's floats, so
path.text[departure], keyed by the clock column in the path's dt, can
hold each row's quiet line: phase MONITORING, no intruder, no command.
The first run to render path rows at a departure renders them as above;
the second fills the text up to its last path row and reads it, and so
do the runs after it, extending it as they need.  A run fills only lines
it prints: one whose first rendered row (a forked system-off run's first
unshared one) lies past the text's end renders as the first does.  So
rows at a departure only one run renders (a lone run, a pack whose runs
share no path) cost no extra time or memory.  A quiet row takes its line
as it is, and any other path row the line's time and ownship prefix.  A
change to how the clock column is filled (ROADMAP item 1) carries over
to the text, and whatever else the clock comes to depend on must join
the column's key, as loop state must join the memo and what a path's
rows depend on the path key.
"""

from __future__ import annotations

import enum
import gc
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, islice, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Mapping, NamedTuple

from . import agents, cdr, envelopes, geo
from .agents import FlightMode, NavPlan
from .cdr import IntruderObservation
from .envelopes import Zone
from .geo import EnuPoint

if TYPE_CHECKING:
    from .scenario_io import Scenario


# The most ticks one run may take, max_sim_time / dt: a bound on run time
# that also rejects a dt too small to advance the clock (over 2**52 ticks).
MAX_TICKS = 10_000_000
# The most ticks one hold run takes: it bounds the run's columns, and the
# ownship steps computed past a tick that ends the run.
_RUN_TICKS = 256


@dataclass(frozen=True)
class SimParams:
    dt: float = 0.1
    max_sim_time: float = 3600.0
    cas_enabled: bool = True
    contact_distance: float = 5.0

    def __post_init__(self) -> None:
        for name in ("dt", "max_sim_time", "contact_distance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.max_sim_time <= 0.0:
            raise ValueError("max_sim_time must be positive")
        if self.max_sim_time / self.dt > MAX_TICKS:
            raise ValueError(f"max_sim_time / dt must not exceed {MAX_TICKS} ticks")
        if self.contact_distance < 0.0:
            raise ValueError("contact_distance must be non-negative")


class TerminalKind(enum.Enum):
    LANDED_AT = "LANDED_AT"
    COLLIDED = "COLLIDED"
    TIMED_OUT = "TIMED_OUT"
    POSTPONED_ON_GROUND = "POSTPONED_ON_GROUND"


@dataclass(frozen=True)
class Terminal:
    kind: TerminalKind
    vertiport: str | None = None


class IntruderTick(NamedTuple):
    """One present intruder in a tick's post-move snapshot.  separation
    is geo.distance_3d(ownship, intruder) of exactly the recorded
    positions, math.dist computed in C with no libm pow(), so it equals
    that distance bit for bit; metrics.cpa takes its sampled distances
    and the ends of its bound from it."""

    intruder_id: str
    east: float
    north: float
    up: float
    separation: float
    zone: Zone


class TickRecord(NamedTuple):
    t: float
    own_east: float
    own_north: float
    own_up: float
    own_track: float
    flight_mode: FlightMode
    phase: cdr.CdrPhase
    intruders: tuple[IntruderTick, ...]
    command: str


@dataclass(frozen=True)
class RunResult:
    scenario_id: str
    ticks: list[TickRecord]
    terminal: Terminal
    ground_decision: cdr.GroundDecision
    departure_time: float
    end_time: float
    # The stretch index: per intruder, (reach, [[first tick, count, cell, least separation], ...]).
    stretches: dict[str, tuple[float, list[list]]]
    shared: int = 0  # the leading records taken from the system-on run before it (see above)
    leading: tuple[_PlanPath, int] | None = field(default=None, compare=False)  # (plan path, path rows) (see above)


_SEPARATION = attrgetter("separation")


def _cut(column: list[float], lo: float, hi: float) -> int:
    """The index of the first value outside (lo, hi], or the length."""
    if lo < min(column, default=math.inf) and (hi == math.inf or max(column, default=hi) <= hi):
        return len(column)
    return next(k for k, v in enumerate(column) if not lo < v <= hi)


def _record(ticks: list[TickRecord], index: dict, reach: dict[str, float], ts: list[float],
            es, ns, us, trks, mode: FlightMode, phase: cdr.CdrPhase, label: str,
            env: envelopes.EnvelopeSet, cols: list[tuple[str, list[EnuPoint], list[float]]]) -> None:
    """Append the records of the ticks at times ts, the ownship at the
    columns es, ns, us and trks, and one stretch to the index per present
    intruder of cols, (id, positions, post-move separations) in order, its
    place in cols being its cell; classify only for separations within
    caution_radius."""
    n, caution, classify = len(ts), env.caution_radius, envelopes.classify
    cells = []
    for cell, (rid, ps, post) in enumerate(cols):
        least = min(post)
        zones = [Zone.CLEAR] * n if least > caution else [
            Zone.CLEAR if sep > caution else classify(sep, env) for sep in post]
        (index.get(rid) or index.setdefault(rid, (reach[rid], [])))[1].append([len(ticks), n, cell, least])
        cells.append(map(tuple.__new__, repeat(IntruderTick), zip(repeat(rid), *zip(*ps), post, zones)))
    ticks.extend(map(tuple.__new__, repeat(TickRecord), zip(
        ts, es, ns, us, trks, repeat(mode), repeat(phase), zip(*cells) if cells else repeat(()), repeat(label)
    )))


class command_scope:
    """Share the clock columns (by (departure, dt)), the plan paths (by
    key) and the memo ((scenario, params, records, loop state) of a
    system-on run) among the engine.run calls of a with block, one
    command, with the cyclic collector paused (see above).  A block inside
    another shares the outer one's, and with returns the outermost.
    Leaving the outermost drops them, and only then enables the collector,
    if it was enabled on entry; exit allocates nothing after enabling it,
    so a collection the block made due starts after the block."""

    __slots__ = ("clocks", "paths", "memo", "_enabled")

    def __enter__(self) -> command_scope:
        global _scope
        if _scope is None:
            self.clocks, self.paths, self.memo, self._enabled = {}, {}, None, gc.isenabled()
            gc.disable()
            _scope = self
        return _scope

    def __exit__(self, *exc: object) -> None:
        global _scope
        if _scope is self:
            _scope = self.clocks = self.paths = self.memo = None
            if self._enabled:
                gc.enable()


_scope: command_scope | None = None  # the outermost open command scope


def _clock(clock: list[float], dt: float, end: int) -> list[float]:
    """The clock column (see above), filled to _RUN_TICKS past end if shorter."""
    if len(clock) < end:
        clock += islice(accumulate(repeat(dt, end + _RUN_TICKS - len(clock)), initial=clock[-1]), 1, None)
    return clock


class _PlanPath:
    """The path of one start state and guidance (see above): row j of cols
    is the ownship's east, north, up and track j ticks after the start, the
    floats agents.ownship_step returned, and from row cuts[i] on, (mode,
    idx) is states[i].  text[departure] holds the quiet trace line of each
    row for runs that read the clock column of departure and dt (see
    above): [] once one run has rendered rows, extended by the runs after
    it."""

    __slots__ = ("cols", "cuts", "states", "args", "text")

    def __init__(self, east: float, north: float, up: float, track: float, mode: FlightMode, idx: int,
                 guidance: agents.Guidance, perf: agents.PerformanceModel, dt: float) -> None:
        self.cols = ([east], [north], [up], [track])
        self.cuts, self.states, self.args = [0], [(mode, idx)], (perf, guidance, dt)
        self.text: dict[float, list[str]] = {}

    def run(self, k: int, n: int) -> list[list[float]]:
        """The run form from row k: rows k + 1 to k + n, up to the first one
        that changes (mode, idx), as columns."""
        cols, cuts = self.cols, self.cuts
        cut = bisect_right(cuts, k)
        end = cuts[cut] if cut < len(cuts) else len(cols[0])
        if end == len(cols[0]) <= k + n:
            path = agents.ownship_step(*[c[-1] for c in cols], *self.states[-1], *self.args, k + n + 1 - end)
            for col, new in zip(cols, zip(*path)):
                col += new
            end = len(cols[0])
        return [c[k + 1:min(end, k + n + 1)] for c in cols]

    def tick(self, k: int) -> tuple[float, float, float, float, FlightMode, int]:
        """Row k + 1 and its (mode, idx): one full tick from row k."""
        cols, cuts, states = self.cols, self.cuts, self.states
        if len(cols[0]) == k + 1:
            *row, mode, idx = agents.ownship_step(*[c[k] for c in cols], *states[-1], *self.args)
            for col, value in zip(cols, row):
                col.append(value)
            if (mode, idx) != states[-1]:
                cuts.append(k + 1)
                states.append((mode, idx))
        return *[c[k + 1] for c in cols], *states[bisect_right(cuts, k + 1) - 1]


def run(scenario: "Scenario", params: SimParams | None = None) -> RunResult:
    """Execute one scenario end to end in the open command scope or its
    own, taking the memo slot (see above)."""
    with command_scope() as scope:
        memo, scope.memo = scope.memo, None
        result, scope.memo = _run(scenario, params, memo, scope.paths, scope.clocks)
    return result


def _run(scenario: "Scenario", params: SimParams | None, memo: tuple | None, paths: dict,
         clocks: dict) -> tuple[RunResult, tuple | None]:
    if params is None:
        params = scenario.sim
    sc = scenario
    origin = sc.vertiports["V1"].position
    vertiports_enu: Mapping[str, EnuPoint] = {
        vid: geo.to_enu(origin, vp.position) for vid, vp in sc.vertiports.items()
    }
    polylines = {rid: geo.project_route(origin, route) for rid, route in sc.routes.items()}
    perf = sc.perf

    # Strategic phase.  Only intruders scheduled on the absolute clock
    # exist before departure; the rest are encounter scripts pinned to
    # the departure the decision produces.
    if params.cas_enabled:
        ground_records = [r for r in sc.intruders if r.ground_clock]
        decision = cdr.takeoff_delay_check(
            ground_records, vertiports_enu["V1"], polylines, sc.ground_params, sc.planned_route
        )
    else:
        decision = cdr.GroundDecision.depart(sc.planned_route, 0.0)

    if decision.postponed:
        return RunResult(
            scenario_id=sc.id,
            ticks=[],
            terminal=Terminal(TerminalKind.POSTPONED_ON_GROUND),
            ground_decision=decision,
            departure_time=math.inf,
            end_time=0.0,
            stretches={},
        ), None

    departure = decision.delay_s
    plan = NavPlan(polylines[decision.route], sc.destination_id(decision.route))
    guidance = agents.follow_plan(plan)

    # Pin departure-relative spawn clocks now that departure is known.
    airborne_records = [
        replace(r, spawn_time=r.spawn_time + departure) for r in sc.intruders if not r.ground_clock
    ]

    clock = _clock(clocks.setdefault((departure, params.dt), [departure]), params.dt, 2)
    cdr_state = cdr.CdrState(first_tick=clock[1])
    runs: dict[str, cdr.Run] = {r.id: (departure, None, None) for r in airborne_records}
    prev_pos: dict[str, EnuPoint | None] = {r.id: None for r in airborne_records}

    # Per-run constants: the envelope set of every flight mode, the
    # loop-invariant parameters, and the layers called every tick (bound
    # here, so a patched module attribute is still the one called).
    env_by_mode = {
        mode: envelopes.envelopes_for(perf, mode, sc.envelope_params) for mode in FlightMode
    }
    dt = params.dt
    max_sim_time = params.max_sim_time
    contact_distance = params.contact_distance
    cas_enabled = params.cas_enabled
    cdr_params = sc.cdr_params
    intruder_state_at = agents.intruder_state_at
    distance_3d = geo.distance_3d
    distances_3d = geo.distances_3d
    classify = envelopes.classify
    zone_bounds = envelopes.zone_bounds
    extend_run = cdr.extend_run
    fold_run = cdr.fold_run
    cdr_step = cdr.cdr_step
    holds, detect_hold, de_escalation_hold = cdr.holds, cdr.detect_hold, cdr.de_escalation_hold
    # The stretch index (see above).
    own_top = max(perf.cruise_speed, perf.climb_rate, perf.descent_rate)
    reach = {r.id: (own_top + (r.script or r.trajectory).top_speed) * dt * (1 + 1e-6) + 1e-6 for r in airborne_records}
    index: dict[str, tuple[float, list[list]]] = {}

    # The ownship, as plain values; env and own_pos always belong to
    # them, and the post-move values of one tick are the pre-move values
    # of the next.
    east, north, _ = plan.waypoints[0]
    up = track = 0.0
    mode = FlightMode.GROUND
    idx = 0
    own_pos = (east, north, up)
    env = env_by_mode[mode]

    ticks: list[TickRecord] = []
    active_label = ""
    terminal: Terminal | None = None

    # The fork (see above): a system-off run resumes from the memo of its
    # system-on run, and a system-on run that departs as it would keeps one.
    if not cas_enabled and memo and memo[0] is sc and memo[1] == replace(params, cas_enabled=True):
        ticks, (east, north, up, track, mode, idx, prev_pos, index, terminal, flight) = memo[2:]
        own_pos, env = (east, north, up), env_by_mode[mode]
    else:  # the plan path (see above)
        key = (array("d", chain.from_iterable(plan.waypoints)).tobytes(), plan.destination_id, perf, dt)
        flight = paths.get(key) or paths.setdefault(key, _PlanPath(*own_pos, track, mode, idx, guidance, perf, dt))
    shared = len(ticks)
    leading = None
    base = 0  # the tick index of flight's row 0
    watch = cas_enabled and decision == cdr.GroundDecision.depart(sc.planned_route, 0.0)
    fork = None

    while terminal is None:
        k = len(ticks)  # the tick index: the next tick is at clock[k + 1]
        _clock(clock, dt, k + _RUN_TICKS + 2)
        # 0. A hold run (see above) while the decision holds; an intruder
        # absent on the last tick and not gone for good stops it short of
        # its spawn.
        if not cas_enabled or holds(cdr_state):
            stop = min([r.spawn_time for r in airborne_records
                        if prev_pos[r.id] is None and clock[k + 1] - r.spawn_time <= r.lifetime], default=math.inf)
            end = k + 1 + _RUN_TICKS
            n = min(bisect_left(clock, stop, k + 1, end), bisect_right(clock, max_sim_time, k + 1, end)) - k - 1
            ts = clock[k + 1:k + 1 + n]  # the ticks' times
            if cas_enabled:
                n = detect_hold(cdr_state, ts, cdr_params)
            es, ns, us, trks = flight.run(k - base, n)
            n = len(es)
            present_recs = [rec for rec in airborne_records if prev_pos[rec.id] is not None]
            own = list(zip(es, ns, us)) if present_recs else []  # post-move positions
            pre = [own_pos, *own]  # pre[j] is the run's tick j's pre-move position
            # One pass per present intruder in columns; each cuts the run
            # for the passes after it, and the columns are cut to the run.
            cols = []  # (id, positions, pre-move and post-move separations) per pass
            for rec in present_recs:
                rid = rec.id
                ps = intruder_state_at(rec, ts[:n], pre, prev_pos[rid], dt)
                m = len(ps)
                if m and ps.count(ps[0]) == m:  # still: post[k] is sensed[k + 1]
                    seps = distances_3d(pre[:m + 1], repeat(ps[0]))
                    sensed, post = seps[:m], seps[1:]
                else:
                    sensed, post = distances_3d(pre, ps) if cas_enabled else None, distances_3d(own, ps)
                if cas_enabled:
                    m = _cut(sensed, *zone_bounds(runs[rid][2], env))
                n = _cut(post[:m], contact_distance, math.inf)
                cols.append((rid, ps, sensed, post))
            if cas_enabled:
                t_prevs = clock[k:k + n + 1]
                sensed_by_id = {rid: sensed for rid, _, sensed, _ in cols}
                n = de_escalation_hold(cdr_state, runs, t_prevs, ts[:n], sensed_by_id, cdr_params)
            if n:
                _record(ticks, index, reach, ts[:n], es, ns, us, trks, mode, cdr_state.phase, active_label, env,
                        [(rid, ps[:n], post[:n]) for rid, ps, _, post in cols])
                for rid, ps, sensed, _ in cols:
                    prev_pos[rid] = ps[n - 1]
                    if cas_enabled:
                        runs[rid] = fold_run(runs[rid], t_prevs, sensed[:n], runs[rid][2])
                east, north, up, track = es[n - 1], ns[n - 1], us[n - 1], trks[n - 1]
                own_pos = (east, north, up)
            if n == _RUN_TICKS:  # nothing cut it: the next tick starts another
                continue
            k += n
        t, t_next = clock[k], clock[k + 1]

        if t_next > max_sim_time:
            terminal = Terminal(TerminalKind.TIMED_OUT)
            break

        # 1-2. Intruders advance and, with the system on, are sensed
        # against the pre-move ownship; the nearest (the first listed on
        # a tie) governs.  Only the decision tree reads the sensed values,
        # so sensing is skipped with the system off.
        if watch:
            prev_start = prev_pos.copy()
        present = []
        governing: IntruderObservation | None = None
        nearest = math.inf
        for rec in airborne_records:
            rid = rec.id
            st = intruder_state_at(rec, t_next, own_pos, prev_pos[rid], dt)
            if st is None:
                prev_pos[rid] = None
                if cas_enabled:
                    runs[rid] = extend_run(runs[rid], t, None, None)
                continue
            pos, vel = st
            prev_pos[rid] = pos
            present.append((rid, pos))
            if cas_enabled:
                sep = distance_3d(own_pos, pos)
                zone = classify(sep, env)
                runs[rid] = extend_run(runs[rid], t, sep, zone)
                if sep < nearest:
                    nearest = sep
                    governing = tuple.__new__(IntruderObservation, (rid, rec.kind, pos, vel, sep, zone))

        # 3. The decision, on the pre-move position and track.
        if cas_enabled:
            cdr_state, command = cdr_step(
                cdr_state, t_next, own_pos, track, governing, runs,
                vertiports_enu, perf, cdr_params,
            )
            if watch and cdr_state.phase is not cdr.CdrPhase.MONITORING:
                watch = False
                copied = {rid: (r, [s.copy() for s in ss]) for rid, (r, ss) in index.items()}
                fork = k, (east, north, up, track, mode, idx, prev_start, copied, None, flight)
            if command is not None:
                leading = leading or (flight, len(ticks))
                active_label = command.label()
                guidance, idx = agents.resolve_command(
                    own_pos, track, idx, perf, guidance, command, vertiports_enu
                )
                flight, base = _PlanPath(*own_pos, track, mode, idx, guidance, perf, dt), len(ticks)

        # 4. Ownship advances.
        east, north, up, track, new_mode, idx = flight.tick(len(ticks) - base)
        own_pos = (east, north, up)
        if new_mode is not mode:
            mode = new_mode
            env = env_by_mode[mode]

        # 5. Record the post-move snapshot, a hold run's record step over
        # one tick; contact ends the run.
        cols = [(rid, [pos], [distance_3d(own_pos, pos)]) for rid, pos in present]
        _record(ticks, index, reach, [t_next], [east], [north], [up], [track], mode, cdr_state.phase, active_label,
                env, cols)

        if any(sep <= contact_distance for _, _, (sep,) in cols):
            terminal = Terminal(TerminalKind.COLLIDED)
        elif mode is FlightMode.GROUND:
            terminal = Terminal(TerminalKind.LANDED_AT, guidance.plan.destination_id)

    if watch:  # the whole run: nothing changes its index any more
        fork = len(ticks), (east, north, up, track, mode, idx, prev_pos, index, terminal, flight)
    return RunResult(
        scenario_id=sc.id,
        ticks=ticks,
        terminal=terminal,
        ground_decision=decision,
        departure_time=departure,
        end_time=_clock(clock, dt, len(ticks) + 1)[len(ticks)],
        stretches=index,
        shared=shared,
        leading=leading or (flight, len(ticks)),  # no command: every record is a path row
    ), (sc, params, ticks[:fork[0]], fork[1]) if fork else None


TRACE_HEADER = "t_s,own_east_m,own_north_m,own_up_m,own_track_deg,phase,intruder_id,sep_m,zone,command"


_ZONE_TEXT = {zone: zone.name for zone in Zone}
_PHASE_TEXT = {phase: phase.value for phase in cdr.CdrPhase}
_MONITORING = cdr.CdrPhase.MONITORING
_QUIET = f",{_MONITORING.value},,,,"  # a quiet line's end: no intruder, no command


def trace_csv_lines(result: RunResult, first: int = 0) -> list[str]:
    """Render a run as the plot-ready trace table, one row per tick from
    record first on, with the governing (nearest; the first listed on a
    tie) intruder's columns."""
    lines = [TRACE_HEADER]
    # The quiet lines of the run's n path rows (see above).  The first run
    # to render any formats its own, and so does one whose first row lies
    # past the text's end: a run fills only lines it prints.
    path, n = result.leading or (None, 0)
    text = path.text.get(result.departure_time) if n > first else None
    if text is None or len(text) < first:
        if text is None and n > first:
            path.text[result.departure_time] = []
        text, n = [], 0
    text += ["%.3f,%.3f,%.3f,%.3f,%.3f%s" % (*rec[:5], _QUIET) for rec in islice(result.ticks, len(text), n)]
    cut = -len(_QUIET)
    for line, (_, _, _, _, _, _, phase, intruders, command) in zip(islice(text, first, n), islice(result.ticks, first, n)):
        if intruders:
            iid, _, _, _, sep, zone = intruders[0] if len(intruders) == 1 else min(intruders, key=_SEPARATION)
            lines.append("%s,%s,%s,%.3f,%s,%s" % (line[:cut], _PHASE_TEXT[phase], iid, sep, _ZONE_TEXT[zone], command))
        elif phase is _MONITORING and not command:
            lines.append(line)
        else:
            lines.append("%s,%s,,,,%s" % (line[:cut], _PHASE_TEXT[phase], command))
    # Text of the last east/north pair, up, and track/phase group.  A
    # value's text is reused while it is the previous row's object, or
    # equal to it and nonzero: 0.0 == -0.0, but they print differently.
    last_e = last_n = last_up = last_track = last_phase = None
    en = u = tp = ""
    for t, east, north, up, track, _, phase, intruders, command in islice(result.ticks, max(first, n), None):
        if not (
            (east is last_e or east == last_e and east)
            and (north is last_n or north == last_n and north)
        ):
            en = "%.3f,%.3f" % (east, north)
            last_e, last_n = east, north
        if not (up is last_up or up == last_up and up):
            u = "%.3f" % up
            last_up = up
        if phase is not last_phase or not (track is last_track or track == last_track and track):
            tp = "%.3f,%s" % (track, _PHASE_TEXT[phase])
            last_track, last_phase = track, phase
        if not intruders:
            lines.append("%.3f,%s,%s,%s,,,,%s" % (t, en, u, tp, command))
            continue
        iid, _, _, _, sep, zone = (
            intruders[0] if len(intruders) == 1 else min(intruders, key=_SEPARATION)
        )
        lines.append(
            "%.3f,%s,%s,%s,%s,%.3f,%s,%s" % (t, en, u, tp, iid, sep, _ZONE_TEXT[zone], command)
        )
    return lines
