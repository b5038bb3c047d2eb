"""Envelope radii against the published time-budget arithmetic, plus the
zone classifier's boundary conventions."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from uamcas.agents import DEFAULT_PERFORMANCE, FlightMode, OwnshipConfig
from uamcas.envelopes import (
    DEFAULT_ENVELOPE_PARAMS,
    EnvelopeParams,
    EnvelopeSet,
    Zone,
    classify,
    envelopes_for,
    zone_bounds,
)

VT = DEFAULT_PERFORMANCE[OwnshipConfig.VECTORED_THRUST]


class TestRadii:
    def test_vectored_thrust_cruise(self):
        # (3 + 8) s budget times (78 + 20) m/s closure
        env = envelopes_for(VT, FlightMode.CRUISE)
        assert env.warning_radius == pytest.approx(1078.0)
        assert env.caution_radius == pytest.approx(2156.0)
        assert env.collision_radius == 150.0

    def test_vertical_modes_deflate(self):
        for mode in (
            FlightMode.HOVER,
            FlightMode.VERTICAL_CLIMB,
            FlightMode.VERTICAL_DESCENT,
            FlightMode.GROUND,
        ):
            env = envelopes_for(VT, mode)
            assert env.warning_radius == pytest.approx(220.0)
            assert env.caution_radius == pytest.approx(440.0)
            assert env.collision_radius == 75.0

    def test_all_configs_scale_with_cruise_speed(self):
        expect = {
            OwnshipConfig.MULTICOPTER: 528.0,   # 11 * 48
            OwnshipConfig.LIFT_CRUISE: 770.0,   # 11 * 70
            OwnshipConfig.TILT_ROTOR: 1045.0,   # 11 * 95
            OwnshipConfig.VECTORED_THRUST: 1078.0,
        }
        for cfg, warn in expect.items():
            env = envelopes_for(DEFAULT_PERFORMANCE[cfg], FlightMode.CRUISE)
            assert env.warning_radius == pytest.approx(warn)
            assert env.caution_radius == pytest.approx(2 * warn)

    def test_explicit_cruise_speed_wins(self):
        env = envelopes_for(replace(VT, cruise_speed=100.0), FlightMode.CRUISE)
        assert env.warning_radius == pytest.approx(11 * 120.0)

    def test_param_knobs(self):
        p = EnvelopeParams(t_detect=5.0, t_avoid=5.0, closure_margin=0.0,
                           caution_factor=3.0)
        env = envelopes_for(VT, FlightMode.CRUISE, p)
        assert env.warning_radius == pytest.approx(780.0)
        assert env.caution_radius == pytest.approx(2340.0)

    def test_overrides_bypass_formula(self):
        fixed = EnvelopeSet(2000.0, 1000.0, 150.0)
        p = EnvelopeParams(forward_override=fixed)
        assert envelopes_for(VT, FlightMode.CRUISE, p) is fixed
        # vertical side still computed
        assert envelopes_for(VT, FlightMode.HOVER, p).warning_radius == 220.0

    def test_set_ordering_enforced(self):
        with pytest.raises(ValueError):
            EnvelopeSet(100.0, 200.0, 50.0)
        with pytest.raises(ValueError):
            EnvelopeSet(300.0, 200.0, 0.0)


class TestClassify:
    ENV = EnvelopeSet(2156.0, 1078.0, 150.0)

    def test_boundaries_belong_to_severe_zone(self):
        assert classify(150.0, self.ENV) is Zone.COLLISION
        assert classify(150.0001, self.ENV) is Zone.WARNING
        assert classify(1078.0, self.ENV) is Zone.WARNING
        assert classify(1078.0001, self.ENV) is Zone.CAUTION
        assert classify(2156.0, self.ENV) is Zone.CAUTION
        assert classify(2156.0001, self.ENV) is Zone.CLEAR

    def test_rejects_negative_separation(self):
        with pytest.raises(ValueError):
            classify(-1.0, self.ENV)

    def test_severity_ordering(self):
        assert Zone.COLLISION > Zone.WARNING > Zone.CAUTION > Zone.CLEAR

    @given(sep=st.floats(0, 5000))
    def test_matches_interval_oracle(self, sep):
        # independent restatement of the ring arithmetic
        if sep <= 150.0:
            want = Zone.COLLISION
        elif sep <= 1078.0:
            want = Zone.WARNING
        elif sep <= 2156.0:
            want = Zone.CAUTION
        else:
            want = Zone.CLEAR
        assert classify(sep, self.ENV) is want

    @given(sep=st.floats(0, 5000) | st.sampled_from([0.0, 150.0, 1078.0, 2156.0]))
    def test_zone_bounds_hold_exactly_the_zone(self, sep):
        """The engine cuts a hold run where a separation leaves its zone's
        bounds: each zone's (lo, hi] holds exactly the separations
        classify puts in it, its edges included."""
        for zone in Zone:
            lo, hi = zone_bounds(zone, self.ENV)
            assert (lo < sep <= hi) is (classify(sep, self.ENV) is zone), (zone, sep)
