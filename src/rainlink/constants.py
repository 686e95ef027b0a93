"""Physical and model constants used across the package."""

from __future__ import annotations

# Spherical Earth radius, km. Sub-0.1 dB effect on FSPL at these geometries.
EARTH_RADIUS_KM = 6378.0

# Boltzmann constant, J/K (exact by SI definition).
BOLTZMANN_J_PER_K = 1.380649e-23

# Average Julian year, hours. Reproduces the 0.01% -> ~53 min and
# 0.5% -> ~44 h unavailability figures.
HOURS_PER_YEAR = 8766.0

# Validity range of the power-law coefficient regression, GHz.
COEFF_FREQ_MIN_GHZ = 1.0
COEFF_FREQ_MAX_GHZ = 1000.0

# Validity range of the exceedance-scaling step, percent of an average
# year.
P_MIN_PERCENT = 0.001
P_MAX_PERCENT = 1.0

# Elevation floor, degrees. The low-angle prediction branch is not
# implemented; paths below this are rejected.
MIN_ELEVATION_DEG = 5.0

# Recommended minimum great-circle separation between catalog stations, km.
MIN_SEPARATION_KM = 2000.0

# Mean Earth radius used for great-circle separation, km.
MEAN_EARTH_RADIUS_KM = 6371.0
