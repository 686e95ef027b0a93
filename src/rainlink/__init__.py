"""Rain attenuation and link margin analysis for Earth-space microwave
links, following the ITU-R P.618-8 prediction chain with power-law rain
coefficients from ITU-R P.838-3.

The package predicts slant-path rain attenuation versus exceedance
percentage, evaluates carrier-to-noise and link margins for LEO gateway
candidates, and compares attenuation derived from different rain-rate
sources (model values versus precipitation time series).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .analysis import (ComparisonRow, ResolvedSource, SweepTable,
                       availability_sweep, catalog_to_csv, compare_sources,
                       emit_report, overestimation_percentage,
                       plot_data_table, rank_stations, series_to_csv,
                       write_report)
from .attenuation import (AttenuationCurve, attenuation_curve,
                          reference_attenuation, scale_attenuation,
                          vertical_adjustment)
from .errors import (CadenceWarning, ConfigError, CoverageWarning,
                     DomainError, DuplicateWarning, ParseError,
                     RainlinkError, SeparationWarning,
                     UnsupportedRegimeError, UsageError, ValidationError)
from .geometry import (GroundStation, PathGeometry, free_space_path_loss,
                       rain_height, rain_slant_path, slant_range)
from .link_budget import (CnrMode, LinkResult, TransmissionParams,
                          UnavailabilityDuration, available_margin,
                          carrier_to_noise, evaluate_link, link_closes,
                          noise_power, unavailability_duration)
from .rain_data import (RainSeries, StationCatalog, Strategy,
                        annual_accumulation, chebil_r001,
                        empirical_exceedance_rate, mean_rain_rate,
                        packaged_catalog_text, parse_rain_series,
                        parse_station_catalog, resolve_r001)
from .rain_physics import (CoefficientTable, Polarization, RainCoefficients,
                           SpecificAttenuation, load_coefficient_table,
                           load_validation_table, parse_coefficient_table,
                           regression_coefficients, specific_attenuation)
from .scenario import (Scenario, SourceDescriptor, SourceKind,
                       parse_scenario, resolve_sources)
