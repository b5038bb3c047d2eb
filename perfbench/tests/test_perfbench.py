"""Checks on the benchmark itself: input generation, the artifact gate
and the traced-run harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

run.load_program()


def small_swarm(out: Path, seed: int = 5) -> None:
    workloads.swarm(out, seed, intruders=3)


def batch(inputs: Path, out: Path, traced: bool, timeline=None) -> dict:
    with tracer.Patch() as patch:
        log = gate.RunLog()
        log.install(patch)
        if traced:
            tracer.Tracer().install(patch)
        result = run.paired_batch(inputs, out, log, timeline)
    assert result["error"] is None
    return result


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory) -> Path:
    inputs = tmp_path_factory.mktemp("bench") / "inputs"
    small_swarm(inputs)
    return inputs


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS.keys() - workloads.SEEDLESS))
def test_generator_is_deterministic_and_seeded(tmp_path, workload):
    gen = workloads.GENERATORS[workload]
    gen(tmp_path / "a", 11)
    gen(tmp_path / "b", 11)
    gen(tmp_path / "c", 12)
    a, b, c = (gate.tree_digest(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_default_seed_inputs_match_golden(tmp_path, workload):
    workloads.GENERATORS[workload](tmp_path / "in", gate.DEFAULT_SEED)
    entry = gate.golden_entry(gate.load_golden(), workload, gate.DEFAULT_SEED)
    assert entry is not None, f"golden.json has no {workload} entry for the default seed"
    assert gate.tree_digest(tmp_path / "in") == entry["inputs"]


def test_generated_intruders_stay_clear_of_the_corridor(tmp_path):
    workloads.swarm(tmp_path / "in", 3)
    for scn in (tmp_path / "in").glob("*.scn"):
        text = scn.read_text()
        corridor = workloads.CORRIDORS_ENU[text.split("PLAN ")[1].split()[0]]
        for line in text.splitlines():
            if line.startswith("INTRUDER"):
                anchor = line.split("ANCHOR=")[1].split()[0].split(",")
                point = (float(anchor[0]), float(anchor[1]))
                assert workloads.corridor_distance(point, corridor) >= workloads.CLEARANCE_M


def test_one_byte_change_to_a_trace_fails_the_gate(tmp_path, small_inputs):
    out = tmp_path / "out"
    result = batch(small_inputs, out, traced=False)
    first = result["seen"]
    assert gate.failed_scenarios(first, first) == []
    trace = out / "traces" / "swarm-01_nocas.csv"
    data = bytearray(trace.read_bytes())
    data[len(data) // 2] ^= 0x01
    trace.write_bytes(bytes(data))
    log = gate.RunLog()
    log.runs = dict(result["log"])
    tampered = gate.observe(log, out)
    assert tampered["artifacts"] != first["artifacts"]
    assert gate.failed_scenarios(first, tampered) == ["swarm-01"]


def test_counts_are_part_of_the_gate(tmp_path, small_inputs):
    seen = batch(small_inputs, tmp_path / "out", traced=False)["seen"]
    altered = json.loads(json.dumps(seen))
    altered["runs"]["swarm-00"][0] += 1  # one more system-on tick
    assert gate.failed_scenarios(seen, altered) == ["swarm-00"]


def test_traced_and_untraced_batches_write_identical_artifacts(tmp_path, small_inputs):
    plain = batch(small_inputs, tmp_path / "plain", traced=False)
    traced = batch(small_inputs, tmp_path / "traced", traced=True)
    assert plain["seen"] == traced["seen"]


def test_probed_and_plain_batches_write_identical_artifacts(tmp_path, small_inputs):
    handler = signal.getsignal(signal.SIGALRM)
    plain = batch(small_inputs, tmp_path / "plain", traced=False)
    timeline = hostspeed.Timeline()
    probed = batch(small_inputs, tmp_path / "probed", traced=False, timeline=timeline)
    assert plain["seen"] == probed["seen"]
    assert len(timeline.probes) > 2  # timer probes fell inside the batch
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reference_seconds_scale_by_probe_speed_and_skip_probes():
    timeline = hostspeed.Timeline()
    ref = hostspeed.REFERENCE_S
    # probes at host 0-1 (twice the reference time), 3-4 and 6-7 (at it)
    timeline.probes = [(0.0, 1.0, 2 * ref), (3.0, 4.0, ref), (6.0, 7.0, ref)]
    assert timeline.host_s(1.0, 6.0) == 4.0
    assert timeline.reference_s(1.0, 6.0) == pytest.approx(2.0 * 0.75 + 2.0)
    assert timeline.reference_s(4.5, 5.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        timeline.reference_s(0.5, 6.0)


def test_module_attributes_are_restored_after_a_traced_batch(tmp_path, small_inputs):
    targets = [*tracer.TARGETS, ("engine", "run")]
    modules = {m: importlib.import_module(f"uamcas.{m}") for m, _ in targets}
    before = {(m, f): getattr(modules[m], f) for m, f in targets}
    batch(small_inputs, tmp_path / "out", traced=True)
    for (m, f), original in before.items():
        assert getattr(modules[m], f) is original, f"uamcas.{m}.{f} still wrapped"


def test_self_time_subtracts_child_spans(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 10.0])  # outer start, inner start, inner end, outer end
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: next(ticks))
    tr = tracer.Tracer()
    inner = tr._span("geo.distance_3d", lambda: None)
    outer = tr._span("engine.run", lambda: inner())
    monkeypatch.undo()  # the spans keep the fake clock they were made with
    outer()
    assert tr.self_s("geo.distance_3d") == 2.0
    assert tr.self_s("engine.run") == 8.0
    assert tr.total_s("engine.run") == 10.0


def test_reported_metrics_match_benchmark_json(tmp_path, small_inputs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    tr = tracer.Tracer()
    with tracer.Patch() as patch:
        log = gate.RunLog()
        log.install(patch)
        tr.install(patch)
        traced = run.paired_batch(small_inputs, tmp_path / "out", log)
    layers = run.layer_metrics(tr, traced, traced["wall"], tmp_path / "out")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swarm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
