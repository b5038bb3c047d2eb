"""The per-tick records are NamedTuples: immutable, and the one that
carries rules (EnuPoint) checks them on every construction, including
the _replace and _make paths that would otherwise bypass __new__.  The
ownship kernel, which takes the ownship state as plain values, checks
the rules of that state on every step."""

import dataclasses
import math

import pytest

from uamcas.agents import (
    DEFAULT_PERFORMANCE,
    FlightMode,
    IntruderKind,
    NavPlan,
    OwnshipConfig,
    follow_plan,
    ownship_step,
)
from uamcas.cdr import CdrPhase, IntruderObservation
from uamcas.engine import IntruderTick, TickRecord
from uamcas.envelopes import Zone
from uamcas.geo import EnuPoint, enu_points

POINT = EnuPoint(1.0, 2.0, 300.0)
# (east, north, up, track, mode, idx), as ownship_step takes them.
CRUISING = (1.0, 2.0, 300.0, 90.0, FlightMode.CRUISE, 1)
ON_PAD = (1.0, 2.0, 0.0, 0.0, FlightMode.GROUND, 0)
INTRUDER_TICK = IntruderTick("i1", 5.0, 6.0, 300.0, 4.5, Zone.CLEAR)
RECORDS = [
    POINT,
    IntruderObservation("i1", IntruderKind.DRONE, POINT, (1.0, 0.0, 0.0), 4.5, Zone.CLEAR),
    INTRUDER_TICK,
    TickRecord(
        0.1, 1.0, 2.0, 300.0, 90.0, FlightMode.CRUISE, CdrPhase.MONITORING,
        (INTRUDER_TICK,), "",
    ),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
class TestImmutable:
    def test_fields_cannot_be_assigned(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])

    def test_no_new_attributes(self, record):
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_dataclasses_replace_does_not_apply(self, record):
        with pytest.raises(TypeError):
            dataclasses.replace(record)

    def test_replace_and_make_keep_the_type(self, record):
        assert type(record._replace()) is type(record)
        assert record._replace() == record
        assert type(record._make(tuple(record))) is type(record)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestEnuPointChecks:
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["east", "north", "up"])
    def test_every_construction_path_rejects_non_finite(self, field, value):
        fields = dict(POINT._asdict(), **{field: value})
        with pytest.raises(ValueError, match="non-finite ENU component"):
            EnuPoint(**fields)
        with pytest.raises(ValueError, match="non-finite ENU component"):
            POINT._replace(**{field: value})
        with pytest.raises(ValueError, match="non-finite ENU component"):
            EnuPoint._make(fields.values())
        for count in (1, 2, 5):
            with pytest.raises(ValueError, match="non-finite ENU component"):
                enu_points([*[tuple(POINT)] * (count - 1), tuple(fields.values())])

    def test_enu_points_builds_points(self):
        triples = [(1.0, 2.0, 3.0), (-0.0, 5.0, 6.0), (7.0, 8.0, 9.0)]
        for count in (0, 1, 3):
            points = enu_points(triples[:count])
            assert points == [EnuPoint(*p) for p in triples[:count]]
            assert all(type(p) is EnuPoint for p in points)


class TestOwnshipStateChecks:
    @pytest.mark.parametrize(
        "state",
        [
            (1.0, 2.0, 300.0, 0.0, FlightMode.GROUND, 0),  # ON_PAD lifted to 300 m
            (1.0, 2.0, 300.0, 90.0, FlightMode.GROUND, 1),  # CRUISING put in ground mode
        ],
        ids=["pad-lifted", "cruising-grounded"],
    )
    def test_ground_mode_requires_zero_altitude(self, state):
        with pytest.raises(ValueError, match="ground mode requires zero altitude"):
            step(state)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_position(self, axis, value):
        state = list(CRUISING)
        state[axis] = value
        with pytest.raises(ValueError, match="non-finite ENU component"):
            step(state)

    def test_valid_states_step(self):
        for state in (CRUISING, ON_PAD):
            assert len(step(state)) == 6


def step(state):
    """ownship_step from state toward a plan point 5 km east."""
    return ownship_step(
        *state, DEFAULT_PERFORMANCE[OwnshipConfig.VECTORED_THRUST],
        follow_plan(NavPlan((EnuPoint(5000.0, 0.0, 0.0),), "V2")), 0.1,
    )
