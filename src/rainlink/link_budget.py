"""Carrier-to-noise, link margin, closure verdicts and unavailability
durations.

Two CNR modes exist. Physics mode evaluates the standard budget
EIRP - FSPL - A - other losses + G_r - 10 log10(kTB). Calibrated mode
evaluates K_clear - A against a supplied clear-sky constant, which is
how published result tables whose loss breakdown is undisclosed can be
reproduced; in that mode the attenuation is treated as an opaque anchor
and may be negative.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .constants import BOLTZMANN_J_PER_K, HOURS_PER_YEAR, check
from .errors import Choice, ConfigError, DomainError, Record
from .geometry import free_space_path_loss, slant_range


class CnrMode(Choice):
    PHYSICS = "physics"
    CALIBRATED = "calibrated"


class TransmissionParams(Record):
    """Uplink transmission parameters for one gateway-to-satellite beam."""

    frequency_GHz: float
    bandwidth_Hz: float
    eirp_dBW: float
    elevation_deg: float
    receiver_gain_dBi: float
    system_temperature_K: float
    required_margin_dB: float
    satellite_altitude_km: float
    other_losses_dB: float = 0.0
    antenna_diameter_m: float | None = None  # metadata; enters no calculation

    def __post_init__(self):
        for name, value in zip(self._fields, self._values()):
            if value is not None:
                check(name, value, name)


class LinkResult(Record):
    """Outcome for one (station, source, p) triple."""

    station_ref: str
    source_label: str
    p_percent: float
    attenuation_dB: float
    cnr_dB: float
    required_margin_dB: float
    available_margin_dB: float
    closes: bool


def noise_power(system_temperature_K: float, bandwidth_Hz: float) -> float:
    """Thermal noise power 10 log10(kTB) in dBW."""
    check("system_temperature_K", system_temperature_K, "temperature")
    check("bandwidth_Hz", bandwidth_Hz, "bandwidth")
    return 10.0 * math.log10(BOLTZMANN_J_PER_K * system_temperature_K * bandwidth_Hz)


def link_budget(params: TransmissionParams,
                mode: CnrMode | str = CnrMode.PHYSICS,
                k_clear_dB: float | None = None) -> Callable[[float], float]:
    """C/N in dB as a function of the rain attenuation, for one set of
    transmission parameters.

    The mode, k_clear_dB, slant range, FSPL and noise power are checked
    and computed here, once; the returned function does only the
    per-attenuation arithmetic. Physics mode requires attenuation >= 0
    (the prediction chain never emits negative attenuation) on every
    call; calibrated mode accepts any finite value so published anchors
    can be injected as-is.
    """
    mode = CnrMode(mode)
    if k_clear_dB is not None:
        check("k_clear_dB", k_clear_dB, "k_clear_dB")
    if mode is CnrMode.CALIBRATED:
        if k_clear_dB is None:
            raise ConfigError("calibrated mode requires k_clear_dB")
        return lambda attenuation_dB: k_clear_dB - attenuation_dB
    d = slant_range(params.satellite_altitude_km, params.elevation_deg)
    clear_dB = params.eirp_dBW - free_space_path_loss(params.frequency_GHz, d)
    other_dB = params.other_losses_dB
    gain_dBi = params.receiver_gain_dBi
    noise_dBW = noise_power(params.system_temperature_K, params.bandwidth_Hz)

    def cnr(attenuation_dB: float) -> float:
        if attenuation_dB < 0.0:
            raise DomainError(f"attenuation {attenuation_dB} dB must be >= 0")
        return clear_dB - attenuation_dB - other_dB + gain_dBi - noise_dBW
    return cnr


def carrier_to_noise(params: TransmissionParams, attenuation_dB: float,
                     mode: CnrMode | str = CnrMode.PHYSICS,
                     k_clear_dB: float | None = None) -> float:
    """C/N in dB under the given rain attenuation (see link_budget)."""
    return link_budget(params, mode, k_clear_dB)(attenuation_dB)


def available_margin(cnr_dB: float, required_margin_dB: float) -> float:
    """CNR minus the required margin."""
    return cnr_dB - required_margin_dB


def link_closes(available_margin_dB: float) -> bool:
    """True when the available margin is non-negative (boundary counts
    as closed)."""
    return available_margin_dB >= 0.0


class UnavailabilityDuration(Record):
    """p percent of an average year, in convenient units."""

    p_percent: float
    hours: float

    @property
    def minutes(self) -> float:
        return self.hours * 60.0

    @property
    def days(self) -> float:
        return self.hours / 24.0


def unavailability_duration(p_percent: float) -> UnavailabilityDuration:
    """Convert an exceedance percentage to time per average year."""
    check("percentage", p_percent, "percentage")
    return UnavailabilityDuration(p_percent, p_percent / 100.0 * HOURS_PER_YEAR)


def evaluate_link(station_ref: str, source_label: str, p_percent: float,
                  attenuation_dB: float, params: TransmissionParams,
                  mode: CnrMode | str = CnrMode.PHYSICS,
                  k_clear_dB: float | None = None) -> LinkResult:
    """Assemble the LinkResult for one (station, source, p) triple."""
    cnr = carrier_to_noise(params, attenuation_dB, mode=mode, k_clear_dB=k_clear_dB)
    margin = available_margin(cnr, params.required_margin_dB)
    return LinkResult(station_ref=station_ref, source_label=source_label,
                      p_percent=p_percent, attenuation_dB=attenuation_dB,
                      cnr_dB=cnr, required_margin_dB=params.required_margin_dB,
                      available_margin_dB=margin, closes=link_closes(margin))
