"""Maneuver command vocabulary shared by the decision logic and the
ownship kinematics.

Kept separate so the kinematics module does not import the decision
module or vice versa.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Action(enum.Enum):
    CONTINUE_FLIGHT = "CONTINUE_FLIGHT"
    HOVER = "HOVER"
    HOVER_AND_DESCEND_TO = "HOVER_AND_DESCEND_TO"
    TURN_BY = "TURN_BY"
    REROUTE_TO = "REROUTE_TO"
    LATERAL_OFFSET = "LATERAL_OFFSET"
    CHANGE_PATH = "CHANGE_PATH"


class TurnDirection(enum.Enum):
    LEFT = "LEFT"
    RIGHT = "RIGHT"


class InfeasibleManeuverError(ValueError):
    """Command not executable by the active performance model."""


@dataclass(frozen=True)
class ManeuverCommand:
    """One avoidance action plus the parameters its kind needs.

    direction doubles as the forced initial turn side for REROUTE_TO;
    None there means keep whatever turn is already in progress.
    Offsets are signed, positive to starboard.
    """

    action: Action
    turn_deg: float | None = None
    direction: TurnDirection | None = None
    target_alt: float | None = None
    target_vertiport: str | None = None
    offset_m: float | None = None

    def __post_init__(self) -> None:
        if self.action is Action.TURN_BY:
            if self.direction is None:
                raise ValueError("TURN_BY requires a direction")
            if self.turn_deg is None or self.turn_deg <= 0.0:
                raise ValueError("TURN_BY requires a positive magnitude")
        if self.action is Action.HOVER_AND_DESCEND_TO and (
            self.target_alt is None or self.target_alt <= 0.0
        ):
            raise ValueError("HOVER_AND_DESCEND_TO requires a positive altitude")
        if self.action is Action.REROUTE_TO and not self.target_vertiport:
            raise ValueError("REROUTE_TO requires a vertiport id")
        if self.action in (Action.LATERAL_OFFSET, Action.CHANGE_PATH) and (
            self.offset_m is None or self.offset_m == 0.0
        ):
            raise ValueError(f"{self.action.value} requires a nonzero offset")

    def label(self) -> str:
        """Compact form for trace output."""
        parts = [self.action.value]
        if self.action is Action.TURN_BY:
            parts.append(f"{self.turn_deg:g}")
            parts.append(self.direction.value)
        elif self.action is Action.HOVER_AND_DESCEND_TO:
            parts.append(f"{self.target_alt:g}")
        elif self.action is Action.REROUTE_TO:
            parts.append(self.target_vertiport)
            if self.direction is not None:
                parts.append(self.direction.value)
        elif self.action in (Action.LATERAL_OFFSET, Action.CHANGE_PATH):
            parts.append(f"{self.offset_m:g}")
        return ":".join(parts)

