"""The benchmark's traced mode (perfbench/tracer.py) times each layer by
replacing module attributes by name, so every name it lists must exist
on the program."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"uamcas.{mod}.{name}"
        for mod, name in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"uamcas.{mod}"), name, None))
    ]
    assert missing == []
