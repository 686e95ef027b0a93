"""Physical and model constants used across the package."""

from __future__ import annotations

import math

from .errors import DomainError

# Spherical Earth radius, km. Sub-0.1 dB effect on FSPL at these geometries.
EARTH_RADIUS_KM = 6378.0

# Boltzmann constant, J/K (exact by SI definition).
BOLTZMANN_J_PER_K = 1.380649e-23

# Average Julian year, hours. Reproduces the 0.01% -> ~53 min and
# 0.5% -> ~44 h unavailability figures.
HOURS_PER_YEAR = 8766.0

# Elevation floor, degrees. The low-angle prediction branch is not
# implemented; paths below this are rejected.
MIN_ELEVATION_DEG = 5.0

# Recommended minimum great-circle separation between catalog stations, km.
MIN_SEPARATION_KM = 2000.0

# Mean Earth radius used for great-circle separation, km.
MEAN_EARTH_RADIUS_KM = 6371.0

# Each input quantity's closed range, both bounds finite, and its unit: inside
# them every term of the chain and link budget is finite (README "Limitations").
DOMAINS = {
    "frequency_GHz": (1.0, 1000.0, "GHz"),  # P.838-3 coefficient validity
    "p_percent": (0.001, 1.0, "%"),  # P.618-8 scaling, % of an average year
    # any share of time or of samples, open (0, 100): the nearest floats inside
    "percentage": (math.nextafter(0.0, 1.0), math.nextafter(100.0, 0.0), "%"),
    "elevation_deg": (0.0, 90.0, "deg"),
    "latitude_deg": (-90.0, 90.0, "deg"),
    "longitude_deg": (-180.0, 180.0, "deg"),
    "altitude_km": (0.0, 9.0, "km"),  # sea level to above Everest, 8.85 km
    # above the one-minute record: 31.2 mm, Unionville MD, 1956 (1,872 mm/hr)
    "rain_rate_mm_per_hr": (0.0, 2000.0, "mm/hr"),
    # P.838-3 over 1-1000 GHz gives kappa 2.59e-5 to 1.648, alpha 0.625 to 1.705
    "kappa": (1e-5, 10.0, "dB/km"),  # gamma at 1 mm/hr
    "alpha": (0.5, 2.0, "(exponent)"),
    # decibel levels: 10^-100 to 10^100 in power, beyond any real link
    "attenuation_dB": (-1000.0, 1000.0, "dB"),
    "k_clear_dB": (-1000.0, 1000.0, "dB"),
    "eirp_dBW": (-1000.0, 1000.0, "dBW"),
    "receiver_gain_dBi": (-1000.0, 1000.0, "dBi"),
    "required_margin_dB": (0.0, 1000.0, "dB"),
    "other_losses_dB": (0.0, 1000.0, "dB"),
    "bandwidth_Hz": (1.0, 1e12, "Hz"),  # up to the top carrier, 1 THz
    "system_temperature_K": (1.0, 1e6, "K"),  # below the 2.7 K sky to the corona
    "satellite_altitude_km": (100.0, 400000.0, "km"),  # Karman line to Moon
    "antenna_diameter_m": (0.0, 1000.0, "m"),  # twice the largest dish
}


def check(quantity: str, value: float, name: str) -> float:
    """value if it is in quantity's domain (NaN is not), else a DomainError."""
    low, high, unit = DOMAINS[quantity]
    if not low <= value <= high:
        raise DomainError(f"{name} {value} {unit} outside the finite domain "
                          f"[{low:g}, {high:g}]")
    return value
