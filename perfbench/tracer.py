"""Per-layer timing from outside the program.

The engine and the CLI call each layer through a module attribute
(`agents.ownship_step`, `envelopes.classify`, ...), so replacing those
attributes with timing wrappers sees every such call without touching
`src/uamcas/`.  Calls a module makes to names it imported with
`from ... import` bypass the wrappers and count as the caller's self
time.

Self time uses a span stack: each span's duration is added to its
parent's child time, and a function's self time is its total minus its
child time.  Spans are aggregated per function as they close, so memory
stays flat however many calls a batch makes.
"""

from __future__ import annotations

import importlib
import time

# (module, function) pairs wrapped in a traced batch.
TARGETS = (
    ("geo", "distance_3d"),
    ("geo", "to_enu"),
    ("geo", "project_route"),
    ("agents", "intruder_state_at"),
    ("agents", "ownship_step"),
    ("agents", "resolve_command"),
    ("agents", "follow_plan"),
    ("envelopes", "envelopes_for"),
    ("envelopes", "classify"),
    ("cdr", "cdr_step"),
    ("cdr", "takeoff_delay_check"),
    ("engine", "run"),
    ("engine", "trace_csv_lines"),
    ("metrics", "delays"),
    ("metrics", "cpa"),
    ("metrics", "intruder_ids"),
    ("metrics", "summarize_batch"),
    ("metrics", "theoretical_flight_time"),
    ("scenario_io", "load_pack"),
    ("scenario_io", "load_scenario"),
    ("scenario_io", "parse_trajectory_csv"),
    ("scenario_io", "write_batch_report"),
    ("scenario_io", "batch_csv_lines"),
    ("cli", "cmd_batch"),
)


class Patch:
    """Replaces module attributes and puts the originals back on
    restore(), in reverse order, so stacked patches unwind cleanly."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """Aggregated spans for every TARGETS function, plus the counts
    that need a look at arguments or results."""

    def __init__(self):
        # key -> [calls, total seconds, child seconds]
        self.stats: dict[str, list] = {f"{m}.{f}": [0, 0.0, 0.0] for m, f in TARGETS}
        self.envelope_repeats = 0
        self.trace_rows = 0
        self.trajectory_rows = 0
        self._last_mode = None
        self._stack: list[float] = []

    def install(self, patch: Patch) -> None:
        for mod_name, fn_name in TARGETS:
            module = importlib.import_module(f"uamcas.{mod_name}")
            key = f"{mod_name}.{fn_name}"
            patch.replace(module, fn_name, lambda fn, key=key: self._span(key, fn))

    def _note(self, key: str, args, result) -> None:
        if key == "envelopes.envelopes_for":
            mode = args[1] if len(args) > 1 else None
            if mode is self._last_mode:
                self.envelope_repeats += 1
            self._last_mode = mode
        elif key == "engine.trace_csv_lines":
            self.trace_rows += len(result) - 1
        elif key == "scenario_io.parse_trajectory_csv":
            self.trajectory_rows += len(result.samples)

    def _span(self, key: str, fn):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        noted = key in ("envelopes.envelopes_for", "engine.trace_csv_lines",
                        "scenario_io.parse_trajectory_csv")

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += child
                if stack:
                    stack[-1] += elapsed
            if noted:
                self._note(key, args, result)
            return result

        return span

    def calls(self, key: str) -> int:
        return self.stats[key][0]

    def self_s(self, key: str) -> float:
        _, total, child = self.stats[key]
        return total - child

    def total_s(self, key: str) -> float:
        return self.stats[key][1]

    def us_per(self, key: str, count: int) -> float:
        return self.self_s(key) / count * 1e6 if count else 0.0
