"""The attenuation chain and the physics-mode C/N against the benchmark's
independent numpy implementation, perfbench/reference.py (loaded
read-only by its path), over the whole table of input domains, to 1e-12
relative."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainlink import (GroundStation, TransmissionParams, attenuation_curve,
                      carrier_to_noise, rain_slant_path,
                      regression_coefficients)
from rainlink.constants import DOMAINS, MIN_ELEVATION_DEG

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
_SPEC = importlib.util.spec_from_file_location("rainlink_reference", _PATH)
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)


def domain(quantity: str, low: float | None = None, edges=()):
    """Floats over the domain of quantity (from low, when given), and the
    edges given, where the chain changes branch."""
    bottom, top, _ = DOMAINS[quantity]
    values = st.floats(bottom if low is None else low, top)
    return st.one_of(values, st.sampled_from(edges)) if edges else values


@settings(max_examples=150, deadline=None)
@given(frequency=domain("frequency_GHz"),
       polarization=st.sampled_from(["horizontal", "vertical"]),
       elevation=domain("elevation_deg", MIN_ELEVATION_DEG, (5.0, 25.0, 90.0)),
       latitude=domain("latitude_deg", edges=(-36.0, -23.0, 0.0, 23.0, 36.0)),
       altitude=domain("altitude_km"),
       rate=domain("rain_rate_mm_per_hr"),
       p_list=st.lists(domain("p_percent", edges=(0.001, 0.01, 1.0)),
                       min_size=1, max_size=6))
def test_attenuation_curve(frequency, polarization, elevation, latitude,
                           altitude, rate, p_list):
    station = GroundStation("S", latitude, 0.0, altitude)
    curve = attenuation_curve(station, rain_slant_path(station, elevation),
                              regression_coefficients(frequency, polarization),
                              rate, p_list)
    p_sorted = [p for p, _ in curve.points]
    expected = reference.p618_attenuation(latitude, altitude, rate, p_sorted,
                                          frequency, elevation, polarization)
    assert [a for _, a in curve.points] == pytest.approx(
        [float(a) for a in expected], rel=1e-12, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(params=st.builds(
    TransmissionParams, **{name: domain(name) for name in (
        "frequency_GHz", "bandwidth_Hz", "eirp_dBW", "elevation_deg",
        "receiver_gain_dBi", "system_temperature_K", "required_margin_dB",
        "satellite_altitude_km", "other_losses_dB")}),
       attenuation=domain("attenuation_dB", 0.0))
def test_physics_cnr(params, attenuation):
    """Relative to the largest term of the budget, as the sum of terms
    of opposite sign can cancel to near zero."""
    fields = {name: getattr(params, name) for name in (
        "frequency_GHz", "bandwidth_Hz", "eirp_dBW", "elevation_deg",
        "receiver_gain_dBi", "system_temperature_K", "satellite_altitude_km",
        "other_losses_dB")}
    fspl = reference.free_space_path_loss_dB(
        params.frequency_GHz, reference.slant_range_km(
            params.satellite_altitude_km, params.elevation_deg))
    noise = 10.0 * math.log10(reference.BOLTZMANN_J_PER_K * params.bandwidth_Hz
                              * params.system_temperature_K)
    scale = max(map(abs, (params.eirp_dBW, fspl, attenuation, noise,
                          params.other_losses_dB, params.receiver_gain_dBi)))
    got = carrier_to_noise(params, attenuation)
    want = float(reference.cnr_physics_dB(attenuation, fields))
    assert abs(got - want) <= 1e-12 * scale
