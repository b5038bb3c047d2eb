"""Command vocabulary invariants: constructor validation and the trace
label format."""

import pytest

from uamcas.maneuvers import (
    Action,
    IssuedBy,
    ManeuverCommand,
    TurnDirection,
    change_path,
    continue_flight,
    hover,
    hover_and_descend_to,
    lateral_offset,
    reroute_to,
    turn_by,
)


def test_turn_requires_direction_and_magnitude():
    with pytest.raises(ValueError):
        ManeuverCommand(Action.TURN_BY, IssuedBy.AUTOMATED, turn_deg=45.0)
    with pytest.raises(ValueError):
        ManeuverCommand(Action.TURN_BY, IssuedBy.AUTOMATED, direction=TurnDirection.LEFT)
    with pytest.raises(ValueError):
        turn_by(-10.0, TurnDirection.LEFT, IssuedBy.AUTOMATED)


def test_descend_requires_positive_altitude():
    with pytest.raises(ValueError):
        hover_and_descend_to(0.0, IssuedBy.AUTOMATED)
    cmd = hover_and_descend_to(100.0, IssuedBy.AUTOMATED)
    assert cmd.target_alt == 100.0


def test_reroute_requires_target():
    with pytest.raises(ValueError):
        ManeuverCommand(Action.REROUTE_TO, IssuedBy.PILOT)
    cmd = reroute_to("V3", IssuedBy.PILOT, TurnDirection.RIGHT)
    assert cmd.target_vertiport == "V3"
    assert cmd.direction is TurnDirection.RIGHT


def test_offsets_must_be_nonzero():
    for ctor in (lateral_offset, change_path):
        with pytest.raises(ValueError):
            ctor(0.0, IssuedBy.AUTOMATED)
        assert ctor(-300.0, IssuedBy.AUTOMATED).offset_m == -300.0


def test_commands_are_frozen():
    cmd = hover(IssuedBy.AUTOMATED)
    with pytest.raises(Exception):
        cmd.issued_by = IssuedBy.PILOT  # type: ignore[misc]


def test_labels():
    assert continue_flight(IssuedBy.AUTOMATED).label() == "CONTINUE_FLIGHT"
    assert hover(IssuedBy.AUTOMATED).label() == "HOVER"
    assert (
        turn_by(45.0, TurnDirection.LEFT, IssuedBy.AUTOMATED).label()
        == "TURN_BY:45:LEFT"
    )
    assert (
        hover_and_descend_to(152.4, IssuedBy.AUTOMATED).label()
        == "HOVER_AND_DESCEND_TO:152.4"
    )
    assert reroute_to("V2", IssuedBy.PILOT).label() == "REROUTE_TO:V2"
    assert (
        reroute_to("V2", IssuedBy.PILOT, TurnDirection.LEFT).label()
        == "REROUTE_TO:V2:LEFT"
    )
    assert lateral_offset(1200.0, IssuedBy.PILOT).label() == "LATERAL_OFFSET:1200"
    assert change_path(-500.0, IssuedBy.PILOT).label() == "CHANGE_PATH:-500"
