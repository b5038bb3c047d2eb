"""Command vocabulary invariants: constructor validation and the trace
label format."""

import pytest

from uamcas.maneuvers import Action, ManeuverCommand, TurnDirection


def test_turn_requires_direction_and_magnitude():
    with pytest.raises(ValueError):
        ManeuverCommand(Action.TURN_BY, turn_deg=45.0)
    with pytest.raises(ValueError):
        ManeuverCommand(Action.TURN_BY, direction=TurnDirection.LEFT)
    with pytest.raises(ValueError):
        ManeuverCommand(Action.TURN_BY, turn_deg=-10.0, direction=TurnDirection.LEFT)


def test_descend_requires_positive_altitude():
    with pytest.raises(ValueError):
        ManeuverCommand(Action.HOVER_AND_DESCEND_TO, target_alt=0.0)
    cmd = ManeuverCommand(Action.HOVER_AND_DESCEND_TO, target_alt=100.0)
    assert cmd.target_alt == 100.0


def test_reroute_requires_target():
    with pytest.raises(ValueError):
        ManeuverCommand(Action.REROUTE_TO)
    cmd = ManeuverCommand(
        Action.REROUTE_TO, target_vertiport="V3", direction=TurnDirection.RIGHT
    )
    assert cmd.target_vertiport == "V3"
    assert cmd.direction is TurnDirection.RIGHT


def test_offsets_must_be_nonzero():
    for action in (Action.LATERAL_OFFSET, Action.CHANGE_PATH):
        with pytest.raises(ValueError):
            ManeuverCommand(action, offset_m=0.0)
        assert ManeuverCommand(action, offset_m=-300.0).offset_m == -300.0


def test_commands_are_frozen():
    cmd = ManeuverCommand(Action.HOVER)
    with pytest.raises(Exception):
        cmd.action = Action.CONTINUE_FLIGHT  # type: ignore[misc]


def test_labels():
    def label(action, **kw):
        return ManeuverCommand(action, **kw).label()

    assert label(Action.CONTINUE_FLIGHT) == "CONTINUE_FLIGHT"
    assert label(Action.HOVER) == "HOVER"
    assert (
        label(Action.TURN_BY, turn_deg=45.0, direction=TurnDirection.LEFT)
        == "TURN_BY:45:LEFT"
    )
    assert (
        label(Action.HOVER_AND_DESCEND_TO, target_alt=152.4)
        == "HOVER_AND_DESCEND_TO:152.4"
    )
    assert label(Action.REROUTE_TO, target_vertiport="V2") == "REROUTE_TO:V2"
    assert (
        label(Action.REROUTE_TO, target_vertiport="V2", direction=TurnDirection.LEFT)
        == "REROUTE_TO:V2:LEFT"
    )
    assert label(Action.LATERAL_OFFSET, offset_m=1200.0) == "LATERAL_OFFSET:1200"
    assert label(Action.CHANGE_PATH, offset_m=-500.0) == "CHANGE_PATH:-500"
