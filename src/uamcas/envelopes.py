"""Concentric safety envelopes and zone classification.

Radii follow a time-budget rule: the warning ring is sized so that at an
assumed closure speed the intruder needs the full detect + avoid budget
to reach the ownship, the caution ring doubles that, and the collision
ring is a fixed alerting floor.  Forward flight uses the ownship's
cruise speed in the closure assumption; vertical and hover modes carry
no forward speed and get the correspondingly tighter set.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .agents import FlightMode, PerformanceModel


class Zone(enum.IntEnum):
    CLEAR = 0
    CAUTION = 1
    WARNING = 2
    COLLISION = 3


@dataclass(frozen=True)
class EnvelopeSet:
    caution_radius: float
    warning_radius: float
    collision_radius: float

    def __post_init__(self) -> None:
        if not 0.0 < self.collision_radius < self.warning_radius < self.caution_radius:
            raise ValueError(
                "envelope radii must satisfy 0 < collision < warning < caution"
            )


@dataclass(frozen=True)
class EnvelopeParams:
    """Tunables behind the default radii; every field is overridable per
    scenario, and explicit override sets win outright."""

    t_detect: float = 3.0
    t_avoid: float = 8.0
    closure_margin: float = 20.0
    caution_factor: float = 2.0
    collision_radius_forward: float = 150.0
    collision_radius_vertical: float = 75.0
    forward_override: EnvelopeSet | None = None
    vertical_override: EnvelopeSet | None = None


DEFAULT_ENVELOPE_PARAMS = EnvelopeParams()

_FORWARD_MODES = frozenset({FlightMode.CRUISE})


def envelopes_for(
    perf: PerformanceModel,
    flight_mode: FlightMode,
    params: EnvelopeParams = DEFAULT_ENVELOPE_PARAMS,
) -> EnvelopeSet:
    """Envelope set for an ownship of the given performance in one
    flight mode."""
    forward = flight_mode in _FORWARD_MODES
    if forward and params.forward_override is not None:
        return params.forward_override
    if not forward and params.vertical_override is not None:
        return params.vertical_override
    if forward:
        speed = perf.cruise_speed
        collision = params.collision_radius_forward
    else:
        speed = 0.0
        collision = params.collision_radius_vertical
    closure = speed + params.closure_margin
    warning = (params.t_detect + params.t_avoid) * closure
    caution = params.caution_factor * warning
    return EnvelopeSet(caution, warning, collision)


def classify(separation: float, env: EnvelopeSet) -> Zone:
    """Zone of an intruder at the given 3-D separation.

    Boundaries belong to the more severe zone.
    """
    if separation < 0.0:
        raise ValueError("separation must be non-negative")
    if separation <= env.collision_radius:
        return Zone.COLLISION
    if separation <= env.warning_radius:
        return Zone.WARNING
    if separation <= env.caution_radius:
        return Zone.CAUTION
    return Zone.CLEAR



def zone_bounds(zone: Zone, env: EnvelopeSet) -> tuple[float, float]:
    """(lo, hi): classify puts a separation s in zone exactly when lo < s <= hi."""
    edges = (math.inf, env.caution_radius, env.warning_radius, env.collision_radius, -math.inf)
    return edges[zone + 1], edges[zone]
