"""The benchmark's traced mode (perfbench/tracer.py) times each layer by
replacing module attributes by name, so every name it lists must exist
on the program, and the wrapped calls it inspects must keep their
argument order."""

import importlib
import importlib.util
import inspect
import typing
from pathlib import Path

from uamcas import envelopes
from uamcas.agents import FlightMode

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


def test_envelopes_for_takes_the_flight_mode_second():
    """The tracer's envelopes_for repeat_ratio reads the flight mode as
    the call's second positional argument."""
    fn = envelopes.envelopes_for
    params = list(inspect.signature(fn).parameters.values())
    assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert typing.get_type_hints(fn)[params[1].name] is FlightMode
