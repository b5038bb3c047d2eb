"""Shared pytest plumbing.

The acceptance tests are a numbered checklist; after the run a summary
block prints one PASS/FAIL line per criterion so the outcome of each is
visible at a glance.

HYPOTHESIS_PROFILE=ci selects a derandomized hypothesis profile: every
run draws the same examples, so a property failure seen in CI
reproduces locally with the same setting.

Every test must leave the cyclic collector as it found it and no
engine.command_scope open, or it would change the tests after it.
"""

import gc
import os
import re

import pytest
from hypothesis import settings

from uamcas import engine

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def leaves_the_collector_and_no_scope():
    enabled = gc.isenabled()
    yield
    left = gc.isenabled(), engine._scope
    (gc.enable if enabled else gc.disable)()
    engine._scope = None
    if left != (enabled, None):
        pytest.fail(f"collector enabled {left[0]} (was {enabled}), command scope left open: {left[1]!r}",
                    pytrace=False)


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    labels: dict[int, str] = {}
    for status in ("failed", "error", "skipped", "passed"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            m = _CRITERION.search(nodeid)
            if m is None:
                continue
            if getattr(rep, "when", "call") not in ("call", "setup"):
                continue
            n = int(m.group(1))
            tail = nodeid.split(f"test_criterion_{m.group(1)}_", 1)
            labels[n] = tail[1].split("[")[0].replace("_", " ") if len(tail) == 2 else ""
            if status in ("failed", "error"):
                outcomes[n] = "FAIL"
            else:
                outcomes.setdefault(n, "PASS" if status == "passed" else "SKIP")
    if outcomes:
        terminalreporter.section("acceptance criteria")
        for n in sorted(outcomes):
            terminalreporter.write_line(
                f"criterion {n:02d} ({labels.get(n, '')}): {outcomes[n]}"
            )
