"""The benchmark's traced mode (perfbench/tracer.py) times each layer by
replacing module attributes by name, so every name it lists must exist
on the program, and the wrapped calls it inspects must keep their
argument order."""

import importlib
import importlib.util
import inspect
import typing
from dataclasses import replace
from itertools import islice
from pathlib import Path

from uamcas import agents, engine, envelopes
from uamcas.agents import FlightMode
from uamcas.pack import default_pack

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = load_tracer()
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


def test_a_wrapped_ownship_step_steps_every_path_tick():
    """The engine fills its plan paths (engine.command_scope) through the
    agents.ownship_step attribute, so the tracer's wrapper steps every
    tick a path holds and the agents.ownship_step numbers count it."""
    stepped = []  # (east, north, up, track) of each tick the wrapper returned

    def wrap(fn):
        def spy(*args):
            result = fn(*args)
            stepped.extend(result[0])
            return result
        return spy

    with load_tracer().Patch() as patch, engine.command_scope():
        patch.replace(agents, "ownship_step", wrap)
        for sc in default_pack():
            for cas_enabled in (True, False):
                engine.run(sc, replace(sc.sim, dt=0.5, cas_enabled=cas_enabled))
        paths = list(engine._scope.paths.values())
    seen = {tuple(map(id, row)) for row in stepped}
    # Row 0 of a path is the departure state, not a stepped tick.
    held = [tuple(map(id, row)) for p in paths for row in islice(zip(*p.cols), 1, None)]
    assert len(held) > 1000 and all(row in seen for row in held)
