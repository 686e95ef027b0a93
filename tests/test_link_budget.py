from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rainlink import (CnrMode, ConfigError, DomainError, TransmissionParams,
                      available_margin, carrier_to_noise,
                      evaluate_link, free_space_path_loss, link_closes,
                      parse_scenario, regression_coefficients,
                      slant_range, unavailability_duration)
from rainlink.link_budget import link_budget


def uplink_params(**overrides):
    fields = dict(frequency_GHz=28.5, bandwidth_Hz=2.1e9, eirp_dBW=75.9,
                  elevation_deg=20.0, receiver_gain_dBi=31.8,
                  system_temperature_K=868.4, required_margin_dB=0.36,
                  satellite_altitude_km=1200.0, antenna_diameter_m=3.5)
    fields.update(overrides)
    return TransmissionParams(**fields)


# 10 log10(kTB) in dBW at the uplink's 868.4 K and 2.1 GHz, written out
UPLINK_NOISE_dBW = 10.0 * math.log10(1.380649e-23 * 868.4 * 2.1e9)


class TestNoisePower:
    """The kTB noise term, read off the C/N link_budget gives in clear sky."""

    @staticmethod
    def noise_power(system_temperature_K, bandwidth_Hz):
        params = uplink_params(system_temperature_K=system_temperature_K,
                               bandwidth_Hz=bandwidth_Hz, receiver_gain_dBi=0.0)
        clear_dB = 75.9 - free_space_path_loss(28.5, slant_range(1200.0, 20.0))
        return clear_dB - link_budget(params)(0.0)

    def test_uplink_bandwidth(self):
        assert abs(self.noise_power(868.4, 2.1e9) - (-105.98977607805465)) < 1e-9
        assert abs(UPLINK_NOISE_dBW - (-105.98977607805465)) < 1e-12

    def test_ktb_floor(self):
        assert abs(self.noise_power(290.0, 1.0) - (-203.97518719422808)) < 1e-9

    def test_doubling_bandwidth_adds_3dB(self):
        # doubling B costs 10 log10 2 dB of C/N
        delta = (carrier_to_noise(uplink_params(bandwidth_Hz=2.1e9), 0.0)
                 - carrier_to_noise(uplink_params(bandwidth_Hz=4.2e9), 0.0))
        assert abs(delta - 3.0102999566398116) < 1e-12

    def test_non_positive_rejected(self):
        # TransmissionParams checks T and B when it is built
        with pytest.raises(DomainError):
            carrier_to_noise(uplink_params(system_temperature_K=0.0), 0.0)
        with pytest.raises(DomainError):
            carrier_to_noise(uplink_params(bandwidth_Hz=0.0), 0.0)


class TestCarrierToNoise:
    def test_calibrated_reproduces_reference_row(self):
        cnr = carrier_to_noise(uplink_params(), 34.1808, mode="calibrated",
                               k_clear_dB=3.0665)
        assert abs(cnr - (-31.1143)) < 1e-9

    def test_calibrated_clear_sky(self):
        assert carrier_to_noise(uplink_params(), 0.0, mode="calibrated",
                                k_clear_dB=3.0665) == 3.0665

    def test_calibrated_accepts_negative_anchor(self):
        cnr = carrier_to_noise(uplink_params(), -13.2802, mode="calibrated",
                               k_clear_dB=3.0665)
        assert abs(cnr - 16.3467) < 1e-9

    def test_calibrated_requires_constant(self):
        with pytest.raises(ConfigError):
            carrier_to_noise(uplink_params(), 1.0, mode="calibrated")

    def test_physics_clear_sky(self):
        cnr = carrier_to_noise(uplink_params(), 0.0, mode=CnrMode.PHYSICS)
        assert abs(cnr - 24.3382333749326) < 1e-9
        assert abs(cnr - 24.4) < 0.1

    def test_physics_rejects_negative_attenuation(self):
        with pytest.raises(DomainError):
            carrier_to_noise(uplink_params(), -0.1)

    def test_physics_other_losses_subtract(self):
        base = carrier_to_noise(uplink_params(), 5.0)
        lossy = carrier_to_noise(uplink_params(other_losses_dB=2.5), 5.0)
        assert abs((base - lossy) - 2.5) < 1e-12

    def test_differential_identity_no_calibration(self):
        a_i, a_j = 34.1808, 49.0126
        cnr_i = carrier_to_noise(uplink_params(), a_i)
        cnr_j = carrier_to_noise(uplink_params(), a_j)
        assert abs((cnr_i - cnr_j) - (a_j - a_i)) < 1e-9


class TestLinkBudget:
    @given(eirp=st.floats(0.0, 100.0), elevation=st.floats(0.0, 90.0),
           gain=st.floats(-10.0, 60.0), other=st.floats(0.0, 10.0),
           attenuation=st.floats(0.0, 300.0))
    def test_physics_budget_is_the_written_formula(self, eirp, elevation,
                                                   gain, other, attenuation):
        params = uplink_params(eirp_dBW=eirp, elevation_deg=elevation,
                               receiver_gain_dBi=gain, other_losses_dB=other)
        fspl = free_space_path_loss(28.5, slant_range(1200.0, elevation))
        want = (eirp - fspl - attenuation - other + gain
                - UPLINK_NOISE_dBW)
        assert link_budget(params)(attenuation) == want
        assert carrier_to_noise(params, attenuation) == want

    def test_one_budget_many_attenuations(self):
        cnr_of = link_budget(uplink_params(other_losses_dB=1.5), "physics")
        for a in (0.0, 0.5, 34.1808, 250.0):
            assert cnr_of(a) == carrier_to_noise(
                uplink_params(other_losses_dB=1.5), a)
        with pytest.raises(DomainError):
            cnr_of(-0.1)

    def test_calibrated_checked_once(self):
        with pytest.raises(ConfigError):
            link_budget(uplink_params(), CnrMode.CALIBRATED)
        cnr_of = link_budget(uplink_params(), "calibrated", k_clear_dB=3.0665)
        assert cnr_of(-13.2802) == 3.0665 - -13.2802

    @pytest.mark.parametrize("mode", ["calibrated", "physics"])
    @pytest.mark.parametrize("k_clear", [1e308, -1000.5, math.nan, math.inf])
    def test_k_clear_outside_its_domain(self, mode, k_clear):
        with pytest.raises(DomainError, match="k_clear_dB"):
            link_budget(uplink_params(), mode, k_clear_dB=k_clear)


class TestMarginAndClosure:
    def test_reference_rows(self):
        assert abs(available_margin(-31.1143, 0.36) - (-31.4743)) < 1e-9
        assert abs(available_margin(10.9105, 0.36) - 10.5505) < 1e-9

    def test_zero_margin_identity(self):
        assert available_margin(7.25, 0.0) == 7.25

    def test_linear_shift(self):
        assert abs((available_margin(5.0, 1.0) - available_margin(5.0, 3.0))
                   - 2.0) < 1e-12

    def test_closure_boundary_inclusive(self):
        assert link_closes(10.5505)
        assert not link_closes(-7.8522)
        assert link_closes(0.0)

    def test_evaluate_link_invariants(self):
        result = evaluate_link("Cairo", "ITU", 0.01, 31.6560, uplink_params(),
                               mode="calibrated", k_clear_dB=3.0665)
        assert result.available_margin_dB == result.cnr_dB - result.required_margin_dB
        assert result.closes == (result.available_margin_dB >= 0.0)


class TestUnavailabilityDuration:
    def test_reference_durations(self):
        assert abs(unavailability_duration(0.01).minutes - 52.596) < 1e-9
        assert abs(unavailability_duration(0.5).hours - 43.83) < 1e-9
        assert abs(unavailability_duration(1.0).days - 3.6525) < 1e-9

    def test_linear_in_p(self):
        h1 = unavailability_duration(0.2).hours
        h2 = unavailability_duration(0.4).hours
        assert abs(h2 - 2.0 * h1) < 1e-12

    def test_bounds(self):
        with pytest.raises(DomainError):
            unavailability_duration(0.0)
        with pytest.raises(DomainError):
            unavailability_duration(100.0)


class TestBandScenario:
    """The same uplink at another carrier frequency."""

    @pytest.mark.parametrize("freq", [0.5, 1000.5, math.nan])
    def test_same_frequency_check_as_the_coefficients(self, freq):
        domain = rf" {freq} GHz outside the finite domain \[1, 1000\]$"
        with pytest.raises(DomainError, match="^frequency_GHz" + domain):
            uplink_params(frequency_GHz=freq)
        with pytest.raises(DomainError, match="^frequency" + domain):
            regression_coefficients(freq)

    def test_fspl_difference_drives_cnr(self):
        ka = carrier_to_noise(uplink_params(), 5.0)
        c = carrier_to_noise(uplink_params(frequency_GHz=6.0), 5.0)
        from rainlink import free_space_path_loss, slant_range
        d = slant_range(1200.0, 20.0)
        delta = free_space_path_loss(28.5, d) - free_space_path_loss(6.0, d)
        assert abs((c - ka) - delta) < 1e-9


class TestTransmissionParams:
    def test_invalid_fields_rejected(self):
        with pytest.raises(DomainError):
            uplink_params(frequency_GHz=0.0)
        with pytest.raises(DomainError):
            uplink_params(bandwidth_Hz=-1.0)
        with pytest.raises(DomainError):
            uplink_params(required_margin_dB=-0.1)
        with pytest.raises(DomainError):
            uplink_params(other_losses_dB=-0.1)

    @pytest.mark.parametrize("field", [
        "frequency_GHz", "bandwidth_Hz", "eirp_dBW", "elevation_deg",
        "receiver_gain_dBi", "system_temperature_K", "required_margin_dB",
        "satellite_altitude_km", "other_losses_dB", "antenna_diameter_m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            uplink_params(**{field: value})

    @pytest.mark.parametrize("elevation", [-0.1, 90.5, 200.0])
    def test_elevation_outside_0_90_rejected(self, elevation):
        with pytest.raises(DomainError, match="elevation_deg"):
            uplink_params(elevation_deg=elevation)

    def test_elevation_bounds_accepted(self):
        assert uplink_params(elevation_deg=0.0).elevation_deg == 0.0
        assert uplink_params(elevation_deg=90.0).elevation_deg == 90.0


SCENARIO = {
    "frequency_GHz": 28.5,
    "bandwidth_Hz": 2.1e9,
    "eirp_dBW": 75.9,
    "elevation_deg": 20.0,
    "receiver_gain_dBi": 31.8,
    "system_temperature_K": 868.4,
    "required_margin_dB": 0.36,
    "satellite_altitude_km": 1200.0,
    "mode": "calibrated",
    "k_clear_dB": 3.0665,
    "p_list": [0.01],
    "sources": [
        {"label": "ITU", "kind": "r001", "value": 90.0},
        {"label": "GPM", "kind": "attenuation",
         "values": {"Abuja": 10.3059}},
        {"label": "TRMM", "kind": "series", "strategy": "chebil_annual",
         "paths": {"Abuja": "abuja.csv"}},
    ],
}


class TestScenarioParsing:
    def test_valid_scenario(self):
        scenario = parse_scenario(json.dumps(SCENARIO))
        assert scenario.mode is CnrMode.CALIBRATED
        assert scenario.k_clear_dB == 3.0665
        assert scenario.p_list == (0.01,)
        assert len(scenario.sources) == 3
        assert scenario.source("GPM").values == {"Abuja": 10.3059}
        assert scenario.params.eirp_dBW == 75.9

    def test_missing_field_named(self):
        doc = dict(SCENARIO)
        del doc["eirp_dBW"]
        with pytest.raises(ConfigError) as err:
            parse_scenario(json.dumps(doc))
        assert "eirp_dBW" in str(err.value)

    def test_bad_mode_rejected(self):
        doc = dict(SCENARIO)
        doc["mode"] = "mystery"
        with pytest.raises(ConfigError):
            parse_scenario(json.dumps(doc))

    def test_calibrated_requires_k_clear(self):
        doc = dict(SCENARIO)
        del doc["k_clear_dB"]
        with pytest.raises(ConfigError) as err:
            parse_scenario(json.dumps(doc))
        assert "k_clear_dB" in str(err.value)

    def test_p_out_of_range_rejected(self):
        doc = dict(SCENARIO)
        doc["p_list"] = [2.0]
        with pytest.raises(ConfigError):
            parse_scenario(json.dumps(doc))

    def test_unknown_kind_rejected(self):
        doc = dict(SCENARIO)
        doc["sources"] = [{"label": "x", "kind": "magic", "value": 1.0}]
        with pytest.raises(ConfigError):
            parse_scenario(json.dumps(doc))

    def test_duplicate_labels_rejected(self):
        doc = dict(SCENARIO)
        doc["sources"] = [{"label": "x", "kind": "r001", "value": 1.0},
                          {"label": "x", "kind": "r001", "value": 2.0}]
        with pytest.raises(ConfigError):
            parse_scenario(json.dumps(doc))

    def test_unknown_label_lists_known(self):
        scenario = parse_scenario(json.dumps(SCENARIO))
        with pytest.raises(ConfigError) as err:
            scenario.source("NOPE")
        message = str(err.value)
        assert "ITU" in message and "GPM" in message and "TRMM" in message

    def test_not_json_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario("{not json")
