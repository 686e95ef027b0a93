"""Slant-range, free-space path loss, rain height, and rain slant-path
geometry for a ground station viewing a LEO satellite at fixed elevation.

All operations are pure functions; none mutate their inputs.
"""

from __future__ import annotations

import math

from .constants import EARTH_RADIUS_KM, MIN_ELEVATION_DEG, check
from .errors import DomainError, Record, UnsupportedRegimeError


class GroundStation(Record):
    """A named candidate site.

    Latitude is signed, north positive; longitude signed, east positive.
    Altitude is km above mean sea level (h_s). A local rain height h_R
    from isotherm data is given to rain_slant_path, not kept here.
    """

    name: str
    latitude_deg: float
    longitude_deg: float
    altitude_km: float

    def __post_init__(self):
        if not self.name:
            raise DomainError("station name must be non-empty")
        check("latitude_deg", self.latitude_deg, "latitude")
        check("longitude_deg", self.longitude_deg, "longitude")
        check("altitude_km", self.altitude_km, "altitude")


class PathGeometry(Record):
    """Geometry of one station-to-satellite rain path.

    slant_path_km is L_s, the path from the station up to the rain height;
    horizontal_projection_km is L_G, its ground projection. The full
    station-to-satellite distance is slant_range's.
    """

    elevation_deg: float
    rain_height_km: float
    slant_path_km: float
    horizontal_projection_km: float


def slant_range(satellite_altitude_km: float, elevation_deg: float) -> float:
    """Station-to-satellite distance in km for a satellite at the given
    altitude seen at the given elevation angle.

    d = sqrt((Re+h)^2 - Re^2 cos^2(e)) - Re sin(e), strictly decreasing
    in elevation.
    """
    check("satellite_altitude_km", satellite_altitude_km, "satellite altitude")
    check("elevation_deg", elevation_deg, "elevation")
    re = EARTH_RADIUS_KM
    e = math.radians(elevation_deg)
    return math.sqrt((re + satellite_altitude_km) ** 2 - (re * math.cos(e)) ** 2) - re * math.sin(e)


def free_space_path_loss(frequency_GHz: float, distance_km: float) -> float:
    """FSPL in dB: 92.45 + 20 log10(f_GHz) + 20 log10(d_km)."""
    check("frequency_GHz", frequency_GHz, "frequency")
    if distance_km <= 0.0:
        raise DomainError(f"distance {distance_km} km must be > 0")
    return 92.45 + 20.0 * math.log10(frequency_GHz) + 20.0 * math.log10(distance_km)


def rain_height(station: GroundStation) -> float:
    """Rain height h_R in km for a station.

    The legacy latitude rule (an approximation of ITU-R P.839 behavior):
    5.0 km within 23 degrees of the equator, decreasing 0.075 km per
    degree beyond, floored at 0.
    """
    abs_lat = abs(station.latitude_deg)
    if abs_lat <= 23.0:
        return 5.0
    return max(0.0, 5.0 - 0.075 * (abs_lat - 23.0))


def rain_slant_path(station: GroundStation, elevation_deg: float,
                    rain_height_km: float | None = None) -> PathGeometry:
    """Rain slant-path geometry for a station at a fixed elevation angle.

    L_s = (h_R - h_s)/sin(e) and L_G = L_s cos(e); h_R is rain_height_km, a
    local value, when given, else rain_height(station). A rain height at or
    below the station altitude yields the degenerate zero-length path
    (attenuation identically zero downstream) rather than an error.
    """
    check("elevation_deg", elevation_deg, "elevation")
    if elevation_deg < MIN_ELEVATION_DEG:
        raise UnsupportedRegimeError(
            f"elevation {elevation_deg} deg below {MIN_ELEVATION_DEG} deg; "
            "the low-elevation prediction branch is not implemented")
    h_r = (rain_height(station) if rain_height_km is None
           else check("altitude_km", rain_height_km, "rain height"))
    h_s = station.altitude_km
    e = math.radians(elevation_deg)
    l_s = l_g = 0.0
    if h_r > h_s:
        l_s = (h_r - h_s) / math.sin(e)
        l_g = l_s * math.cos(e)
    return PathGeometry(elevation_deg, h_r, l_s, l_g)
