from __future__ import annotations

import itertools
import math
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rainlink.attenuation as attenuation
from rainlink import (ClampWarning, DomainError, DuplicateWarning,
                      GroundStation, Polarization,
                      RainCoefficients, attenuation_curve,
                      horizontal_reduction_factor, latitude_term,
                      rain_slant_path, reference_attenuation,
                      scale_attenuation, vertical_adjustment)
from rainlink.constants import DOMAINS


def coeffs(kappa=0.2043259269252288, alpha=0.9240060204941183, f=28.5):
    return RainCoefficients(frequency_GHz=f, polarization=Polarization.VERTICAL,
                            kappa=kappa, alpha=alpha)


def abuja():
    return GroundStation("Abuja", 9.010833, 7.271389, 0.348)


def scalar_scaled(A001_dB, p, absolute_latitude_deg, elevation_deg):
    """A_p as latitude_term and scale_attenuation computed it, one p at a
    time, before the scaling step became one kernel: the reference the
    kernel must equal bit for bit."""
    abs_lat = abs(absolute_latitude_deg)
    if p >= 1.0 or abs_lat >= 36.0:
        z = 0.0
    elif elevation_deg >= 25.0:
        z = -0.005 * (abs_lat - 36.0)
    else:
        z = (-0.005 * (abs_lat - 36.0) + 1.8
             - 4.25 * math.sin(math.radians(elevation_deg)))
    if A001_dB == 0.0:
        return 0.0
    exponent = -(0.655 + 0.033 * math.log(p) - 0.045 * math.log(A001_dB)
                 - z * math.sin(math.radians(elevation_deg)) * (1.0 - p))
    return A001_dB * (p / 0.01) ** exponent


class TestHorizontalReductionFactor:
    def test_zero_extent(self):
        assert horizontal_reduction_factor(0.0, 14.0, 28.5) == 1.0

    def test_documented_example(self):
        r = horizontal_reduction_factor(12.78, 14.0, 28.5)
        assert abs(r - 0.38844806205493226) < 1e-9

    def test_zero_gamma_clamped_with_warning(self):
        # the closed form tends to 1/(1 - 0.38) ~ 1.613 as gamma -> 0
        with pytest.warns(ClampWarning):
            r = horizontal_reduction_factor(50.0, 0.0, 28.5)
        assert r == 1.0

    def test_in_unit_interval(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampWarning)
            for l_g in [0.1, 1.0, 12.78, 60.0]:
                for gamma in [0.5, 5.0, 14.0, 30.0]:
                    r = horizontal_reduction_factor(l_g, gamma, 28.5)
                    assert 0.0 < r <= 1.0

    def test_preconditions(self):
        with pytest.raises(DomainError):
            horizontal_reduction_factor(-1.0, 14.0, 28.5)
        with pytest.raises(DomainError):
            horizontal_reduction_factor(1.0, -1.0, 28.5)
        with pytest.raises(DomainError):
            horizontal_reduction_factor(1.0, 14.0, 0.5)


class TestVerticalAdjustment:
    def test_documented_example(self):
        l_r, v = vertical_adjustment(12.78, 0.3885, 5.0, 0.348, 20.0, 14.0,
                                     28.5, 9.01)
        assert abs(l_r - 5.283674565676077) < 1e-9
        assert abs(v - 1.197827601153317) < 1e-9

    def test_chi_zero_at_high_latitude(self):
        # both chi branches must agree at the 36 degree boundary
        _, v_at = vertical_adjustment(12.78, 0.3885, 5.0, 0.348, 20.0, 14.0,
                                      28.5, 36.0)
        _, v_above = vertical_adjustment(12.78, 0.3885, 5.0, 0.348, 20.0,
                                         14.0, 28.5, 35.9999999)
        assert abs(v_at - v_above) < 1e-6

    def test_zero_gamma_limit(self):
        _, v = vertical_adjustment(12.78, 0.3885, 5.0, 0.348, 20.0, 0.0,
                                   28.5, 9.01)
        expected = 1.0 / (1.0 - 0.45 * math.sqrt(math.sin(math.radians(20.0))))
        assert abs(v - expected) < 1e-12
        assert v > 1.0

    def test_vertical_path_fallback(self):
        l_r, _ = vertical_adjustment(0.0, 1.0, 5.0, 0.348, 90.0, 14.0, 28.5,
                                     9.01)
        assert abs(l_r - (5.0 - 0.348)) < 1e-12

    def test_steep_cell_branch(self):
        # small horizontal extent forces zeta above the elevation angle
        l_r, _ = vertical_adjustment(0.5, 1.0, 5.0, 0.348, 20.0, 14.0, 28.5,
                                     9.01)
        assert abs(l_r - 0.5 / math.cos(math.radians(20.0))) < 1e-12


class TestReferenceAttenuation:
    def test_zero_cases(self):
        assert reference_attenuation(0.0, 6.33) == 0.0
        assert reference_attenuation(14.0, 0.0) == 0.0

    def test_product(self):
        assert abs(reference_attenuation(14.0, 6.33) - 88.62) < 1e-9

    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError, match="must be >= 0"):
            reference_attenuation(-1.0, 1.0)

    def test_bilinear(self):
        base = reference_attenuation(3.7, 2.9)
        assert abs(reference_attenuation(7.4, 2.9) - 2.0 * base) < 1e-12
        assert abs(reference_attenuation(3.7, 5.8) - 2.0 * base) < 1e-12


class TestLatitudeTerm:
    def test_zero_at_one_percent(self):
        assert latitude_term(10.0, 20.0, 1.0) == 0.0

    def test_zero_at_high_latitude(self):
        assert latitude_term(40.0, 20.0, 0.1) == 0.0
        assert latitude_term(36.0, 20.0, 0.1) == 0.0

    def test_high_elevation_branch(self):
        z = latitude_term(25.8889, 30.0, 0.5)
        assert abs(z - (-0.005 * (25.8889 - 36.0))) < 1e-12

    def test_low_elevation_branch(self):
        z = latitude_term(25.8889, 20.0, 0.5)
        assert abs(z - 0.39696989086590806) < 1e-9

    def test_p_out_of_range(self):
        with pytest.raises(DomainError):
            latitude_term(10.0, 20.0, 1.5)
        with pytest.raises(DomainError):
            latitude_term(10.0, 20.0, 0.0005)


class TestScaleAttenuation:
    def test_identity_at_reference(self):
        for a001 in [0.5, 10.0, 34.1808, 88.6]:
            for z in [0.0, 0.4, 1.6]:
                assert scale_attenuation(a001, 0.01, z, 20.0) == a001

    def test_documented_example(self):
        a = scale_attenuation(10.0, 0.1, 0.0, 20.0)
        assert abs(a - 3.346583282509488) < 1e-9

    def test_zero_reference(self):
        for p in [0.001, 0.01, 0.1, 1.0]:
            assert scale_attenuation(0.0, p, 0.0, 20.0) == 0.0

    def test_negative_reference_rejected(self):
        with pytest.raises(DomainError):
            scale_attenuation(-1.0, 0.1, 0.0, 20.0)


class TestAttenuationCurve:
    def test_finite_at_the_coefficient_domain_corners(self):
        # kappa and alpha at their bounds, with the other inputs at theirs
        corners = itertools.product(
            DOMAINS["kappa"][:2], DOMAINS["alpha"][:2], DOMAINS["frequency_GHz"][:2],
            (5.0, 90.0), (0.0, 89.9), DOMAINS["altitude_km"][:2],
            DOMAINS["rain_rate_mm_per_hr"][:2])
        for kappa, alpha, f, elevation, latitude, altitude, rate in corners:
            st = GroundStation("S", latitude, 0.0, altitude)
            curve = attenuation_curve(st, rain_slant_path(st, elevation),
                                      coeffs(kappa, alpha, f), rate,
                                      list(DOMAINS["p_percent"][:2]))
            assert all(math.isfinite(a) and a >= 0.0 for _, a in curve.points)

    def test_single_point_equals_reference(self):
        st = abuja()
        path = rain_slant_path(st, 20.0, 5.0)
        curve = attenuation_curve(st, path, coeffs(), 90.0, [0.01])
        assert len(curve.points) == 1
        assert curve.points[0][0] == 0.01
        assert curve.points[0][1] == curve.reference_A001_dB

    def test_five_points_non_increasing(self):
        st = abuja()
        path = rain_slant_path(st, 20.0, 5.0)
        curve = attenuation_curve(st, path, coeffs(), 90.0,
                                  [1.0, 0.5, 0.1, 0.01, 0.001])
        assert len(curve.points) == 5
        ps = [p for p, _ in curve.points]
        assert ps == sorted(ps)
        values = [a for _, a in curve.points]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo
        assert curve.diagnostics == ()

    def test_zero_rain_all_zero(self):
        st = abuja()
        path = rain_slant_path(st, 20.0, 5.0)
        curve = attenuation_curve(st, path, coeffs(), 0.0,
                                  [0.001, 0.01, 0.1, 1.0])
        assert curve.reference_A001_dB == 0.0
        assert all(a == 0.0 for _, a in curve.points)

    def test_duplicate_p_collapsed(self):
        st = abuja()
        path = rain_slant_path(st, 20.0, 5.0)
        with pytest.warns(DuplicateWarning, match="^duplicate p values collapsed$"):
            curve = attenuation_curve(st, path, coeffs(), 90.0, [0.01, 0.01])
        assert len(curve.points) == 1

    def test_monotonicity_violation_reported(self):
        # an extreme reference attenuation at low elevation and equatorial
        # latitude drives the scaling exponent through zero near p=0.001
        st = GroundStation("Equator", 0.0, 0.0, 0.0)
        path = rain_slant_path(st, 5.0, 5.0)
        curve = attenuation_curve(st, path, coeffs(), 200.0, [0.001, 0.002])
        values = [a for _, a in curve.points]
        assert values[1] > values[0]
        assert any("monotonicity" in d for d in curve.diagnostics)

    def test_clamp_reported_as_diagnostic(self):
        st = abuja()
        path = rain_slant_path(st, 20.0, 5.0)
        curve = attenuation_curve(st, path, coeffs(), 0.0, [0.01])
        assert any("clamped" in d for d in curve.diagnostics)

    def test_clamp_noted_without_touching_warning_filters(self, monkeypatch):
        # catch_warnings rewrites the process-wide filter list on entry
        def refuse(*args, **kwargs):
            raise AssertionError("attenuation_curve entered catch_warnings")
        monkeypatch.setattr(warnings, "catch_warnings", refuse)
        st = abuja()
        path = rain_slant_path(st, 20.0, 5.0)
        curve = attenuation_curve(st, path, coeffs(), 0.0, [0.01])
        assert curve.diagnostics == (
            "horizontal reduction factor 1.6129 clamped to 1.0",)

    def test_empty_p_list_rejected(self):
        st = abuja()
        path = rain_slant_path(st, 20.0, 5.0)
        with pytest.raises(DomainError):
            attenuation_curve(st, path, coeffs(), 90.0, [])

    def test_plan_is_not_checked_again(self, monkeypatch):
        plan = attenuation.PPlan([0.5, 0.01])
        monkeypatch.setattr(attenuation, "check_p_percent", None)
        curve = attenuation_curve(abuja(), rain_slant_path(abuja(), 20.0),
                                  coeffs(), 90.0, plan)
        assert [p for p, _ in curve.points] == [0.01, 0.5]

    def test_all_points_non_negative(self):
        st = abuja()
        path = rain_slant_path(st, 20.0, 5.0)
        for r in [0.0, 1.0, 22.0, 90.0, 160.0]:
            curve = attenuation_curve(st, path, coeffs(), r,
                                      [0.001, 0.01, 0.1, 0.5, 1.0])
            assert all(a >= 0.0 for _, a in curve.points)


class TestPPlan:
    def test_distinct_ascending(self):
        with pytest.warns(DuplicateWarning, match="^duplicate p values collapsed$"):
            assert attenuation.PPlan([0.5, 0.001, 1.0, 0.5]) == (0.001, 0.5, 1.0)

    def test_distinct_list_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert attenuation.PPlan([1.0, 0.01]) == (0.01, 1.0)

    @pytest.mark.parametrize("p_list", [[], [0.01, 1.5], [0.0005],
                                        [0.01, math.nan]])
    def test_checked(self, p_list):
        with pytest.raises(DomainError):
            attenuation.PPlan(p_list)


P_POINTS = [0.001, 0.002, 0.01, 0.05, 0.3, 0.999, 1.0]


class TestScalingKernel:
    """A curve's points, and latitude_term with scale_attenuation, equal
    the one-p-at-a-time scaling by == and by repr."""

    def assert_matches_scalar(self, station, elevation, rate, p_list):
        curve = attenuation_curve(station, rain_slant_path(station, elevation),
                                  coeffs(), rate, p_list)
        a001, lat = curve.reference_A001_dB, station.latitude_deg
        want = [(p, scalar_scaled(a001, p, lat, elevation))
                for p in sorted(set(p_list))]
        chain = [(p, scale_attenuation(a001, p,
                                       latitude_term(lat, elevation, p),
                                       elevation))
                 for p in sorted(set(p_list))]
        assert list(curve.points) == want == chain
        assert repr(curve.points) == repr(tuple(want)) == repr(tuple(chain))
        return curve

    # |lat| = 36 and e = 25 deg are the branch edges of z, p = 1 its
    # switch to zero, a zero rate or a station above the rain A001 = 0
    @pytest.mark.parametrize("lat", [0.0, 9.0, -35.999, 36.0, -36.0, 50.0])
    @pytest.mark.parametrize("elevation", [5.0, 24.999, 25.0, 40.0, 90.0])
    @pytest.mark.parametrize("rate", [0.0, 42.0, 200.0])
    def test_branch_edges(self, lat, elevation, rate):
        curve = self.assert_matches_scalar(
            GroundStation("s", lat, 0.0, 0.1), elevation, rate, P_POINTS)
        assert (curve.reference_A001_dB == 0.0) == (rate == 0.0)

    def test_station_above_rain_height(self):
        curve = self.assert_matches_scalar(
            GroundStation("High", 40.0, 0.0, 6.0), 20.0, 90.0, P_POINTS)
        assert curve.reference_A001_dB == 0.0

    @given(lat=st.floats(-90.0, 90.0), elevation=st.floats(5.0, 90.0),
           rate=st.floats(0.0, 300.0), altitude=st.floats(0.0, 6.0),
           p_list=st.lists(st.floats(0.001, 1.0), min_size=1, max_size=8,
                           unique=True))
    def test_random(self, lat, elevation, rate, altitude, p_list):
        self.assert_matches_scalar(GroundStation("s", lat, 0.0, altitude),
                                   elevation, rate, p_list)
