"""The per-tick records are NamedTuples: immutable, and the two that
carry rules (EnuPoint, OwnshipState) check them on every construction,
including the _replace and _make paths that would otherwise bypass
__new__.  The ownship kernel, which takes the state as plain values,
keeps the same rules."""

import dataclasses
import math

import pytest

from uamcas.agents import (
    DEFAULT_PERFORMANCE,
    FlightMode,
    IntruderKind,
    NavPlan,
    OwnshipConfig,
    OwnshipState,
    follow_plan,
    ownship_step,
)
from uamcas.cdr import CdrPhase, IntruderObservation
from uamcas.engine import IntruderTick, TickRecord
from uamcas.envelopes import Zone
from uamcas.geo import EnuPoint

POINT = EnuPoint(1.0, 2.0, 300.0)
CRUISING = OwnshipState(0.0, POINT, 90.0, 78.0, 0.0, FlightMode.CRUISE, 1)
ON_PAD = OwnshipState(0.0, EnuPoint(1.0, 2.0, 0.0), 0.0, 0.0, 0.0, FlightMode.GROUND, 0)
INTRUDER_TICK = IntruderTick("i1", 5.0, 6.0, 300.0, 4.5, Zone.CLEAR)
RECORDS = [
    POINT,
    CRUISING,
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


class TestOwnshipStateChecks:
    # (base state, changed fields, message) for each rule.
    CASES = [
        (CRUISING, {"ground_speed": -1.0}, "ground_speed must be non-negative"),
        (CRUISING, {"flight_mode": FlightMode.HOVER}, "hover requires zero ground speed"),
        (ON_PAD, {"pos": POINT}, "ground mode requires zero altitude"),
        (CRUISING, {"flight_mode": FlightMode.GROUND}, "ground mode requires zero altitude"),
    ]

    @pytest.mark.parametrize("base,changes,message", CASES)
    def test_every_construction_path_checks(self, base, changes, message):
        fields = dict(base._asdict(), **changes)
        with pytest.raises(ValueError, match=message):
            OwnshipState(**fields)
        with pytest.raises(ValueError, match=message):
            base._replace(**changes)
        with pytest.raises(ValueError, match=message):
            OwnshipState._make(fields.values())
        with pytest.raises(ValueError, match=message):
            step(fields)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_position(self, axis, value):
        pos = list(POINT)
        pos[axis] = value
        fields = dict(CRUISING._asdict(), pos=tuple(pos))
        with pytest.raises(ValueError, match="non-finite ENU component"):
            OwnshipState(**fields)
        with pytest.raises(ValueError, match="non-finite ENU component"):
            step(fields)

    def test_valid_states_step(self):
        for base in (CRUISING, ON_PAD):
            assert len(step(base._asdict())) == 8


def step(fields):
    """ownship_step on the values of an OwnshipState's fields."""
    east, north, up = fields["pos"]
    return ownship_step(
        east, north, up, fields["track"], fields["ground_speed"], fields["flight_mode"],
        fields["next_waypoint_index"], DEFAULT_PERFORMANCE[OwnshipConfig.VECTORED_THRUST],
        follow_plan(NavPlan((EnuPoint(5000.0, 0.0, 0.0),), "V2")), 0.1,
    )
