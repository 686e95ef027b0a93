"""Rain attenuation and link margin analysis for Earth-space microwave
links, following the ITU-R P.618-8 prediction chain with power-law rain
coefficients from ITU-R P.838-3.

The package predicts slant-path rain attenuation versus exceedance
percentage, evaluates carrier-to-noise and link margins for LEO gateway
candidates, and compares attenuation derived from different rain-rate
sources (model values versus precipitation time series).

Each submodule is imported on first use of one of the names it exports
here (PEP 562), so a caller pays only for the modules it uses.
"""

from __future__ import annotations

import importlib as _importlib

__version__ = "0.1.0"

# submodule: the names the package exports from it, split on spaces
_EXPORTS = {
    "analysis": "ComparisonRow ResolvedSource SweepTable availability_sweep catalog_to_csv "
                "compare_sources emit_report plot_data_table rank_stations series_to_csv "
                "write_report",
    "attenuation": "AttenuationCurve attenuation_curve scale_attenuation",
    "errors": "CadenceWarning ConfigError CoverageWarning DomainError DuplicateWarning ParseError "
              "RainlinkError SeparationWarning UnsupportedRegimeError UsageError ValidationError",
    "geometry": "GroundStation PathGeometry free_space_path_loss rain_height rain_slant_path "
                "slant_range",
    "link_budget": "CnrMode LinkResult TransmissionParams UnavailabilityDuration available_margin "
                   "carrier_to_noise evaluate_link link_closes unavailability_duration",
    "rain_data": "RainSeries StationCatalog Strategy empirical_exceedance_rate "
                 "packaged_catalog_text parse_rain_series parse_station_catalog resolve_r001",
    "rain_physics": "Polarization RainCoefficients SpecificAttenuation load_validation_table "
                    "regression_coefficients specific_attenuation",
    "scenario": "Scenario SourceDescriptor SourceKind parse_scenario resolve_sources",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_OWNER)


def __getattr__(name: str):
    """An exported name, from its submodule, imported now and then kept."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f"{__name__}.{_OWNER[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
