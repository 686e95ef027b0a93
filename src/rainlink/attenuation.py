"""The ITU-R P.618-8 prediction chain: horizontal reduction factor,
vertical adjustment, effective path length, reference attenuation at
0.01% exceedance, and scaling to arbitrary exceedance percentages.

Symbol conventions follow the recommendation: the elevation angle enters
the vertical-adjustment exponential in degrees but all trigonometric
terms in radians. Station latitude enters only through the chi term and
the z-term branch conditions; published write-ups of the scaling step
sometimes conflate the two symbols, so the separation is kept explicit
here.
"""

from __future__ import annotations

import math
import warnings

from .constants import check
from .errors import ClampWarning, DomainError, DuplicateWarning, Record
from .geometry import GroundStation, PathGeometry
from .rain_physics import RainCoefficients, _gamma


class AttenuationCurve(Record):
    """Predicted attenuation A_p versus exceedance percentage p.

    points is sorted ascending in p. diagnostics carries human-readable
    notes (clamping, monotonicity violations); the engine reports these
    rather than silently accepting or rejecting them.
    """

    reference_A001_dB: float
    r001_mm_per_hr: float
    points: tuple[tuple[float, float], ...]
    diagnostics: tuple[str, ...] = ()


def check_p_percent(p_percent: float) -> None:
    """Raise DomainError unless p is in the exceedance-scaling range."""
    check("p_percent", p_percent, "exceedance percentage")


def _reduction_factor(L_G_km: float, gamma_dB_per_km: float,
                      frequency_GHz: float) -> tuple[float, str]:
    """r001 at most 1, and the note that it was clamped to 1 ("" if not)."""
    if L_G_km == 0.0:
        return 1.0, ""
    r001 = 1.0 / (1.0 + 0.78 * math.sqrt(L_G_km * gamma_dB_per_km / frequency_GHz)
                  - 0.38 * (1.0 - math.exp(-2.0 * L_G_km)))
    if r001 > 1.0:
        return 1.0, f"horizontal reduction factor {r001:.4f} clamped to 1.0"
    return r001, ""


def horizontal_reduction_factor(L_G_km: float, gamma_dB_per_km: float,
                                frequency_GHz: float) -> float:
    """Horizontal reduction factor r001 for 0.01% of the time.

    r001 = 1 / (1 + 0.78 sqrt(L_G gamma / f) - 0.38 (1 - e^(-2 L_G))).
    Values above 1 (possible when gamma is near zero) are clamped to 1
    with a warning; factors above unity have no physical reading here.
    """
    if L_G_km < 0.0:
        raise DomainError(f"horizontal projection {L_G_km} km must be >= 0")
    if gamma_dB_per_km < 0.0:
        raise DomainError(f"specific attenuation {gamma_dB_per_km} dB/km must be >= 0")
    check("frequency_GHz", frequency_GHz, "frequency")
    r001, clamped = _reduction_factor(L_G_km, gamma_dB_per_km, frequency_GHz)
    if clamped:
        warnings.warn(clamped, ClampWarning, stacklevel=2)
    return r001


def vertical_adjustment(L_G_km: float, r001: float, rain_height_km: float,
                        station_altitude_km: float, elevation_deg: float,
                        gamma_dB_per_km: float, frequency_GHz: float,
                        absolute_latitude_deg: float) -> tuple[float, float]:
    """Vertical adjustment step: returns (L_R_km, v001).

    zeta = atan((h_R - h_s) / (L_G r001)); when zeta exceeds the
    elevation the rain cell caps the path at L_G r001 / cos(e), else the
    full vertical extent (h_R - h_s)/sin(e) applies. chi = 36 - |lat|
    for |lat| < 36, else 0. The elevation enters the exponential in
    degrees and the trigonometric terms in radians.
    """
    e_rad = math.radians(elevation_deg)
    height = max(rain_height_km - station_altitude_km, 0.0)
    horizontal = L_G_km * r001
    # a zero horizontal extent takes the vertical path: zeta is undefined
    if horizontal != 0.0 and math.atan2(height, horizontal) > e_rad:
        L_R = horizontal / math.cos(e_rad)
    else:
        L_R = height / math.sin(e_rad)
    chi = max(36.0 - abs(absolute_latitude_deg), 0.0)
    v001 = 1.0 / (1.0 + math.sqrt(math.sin(e_rad)) * (
        31.0 * (1.0 - math.exp(-elevation_deg / (1.0 + chi)))
        * math.sqrt(L_R * gamma_dB_per_km) / frequency_GHz ** 2 - 0.45))
    return L_R, v001


def reference_attenuation(gamma_dB_per_km: float, effective_path_km: float) -> float:
    """A001 = gamma * L_E, the attenuation exceeded 0.01% of an average year."""
    if gamma_dB_per_km < 0.0 or effective_path_km < 0.0:
        raise DomainError("specific attenuation and effective path must be >= 0")
    return gamma_dB_per_km * effective_path_km


def _z_below_1(abs_lat: float, elevation_deg: float) -> float:
    if abs_lat >= 36.0:
        return 0.0
    if elevation_deg >= 25.0:
        return -0.005 * (abs_lat - 36.0)
    return -0.005 * (abs_lat - 36.0) + 1.8 - 4.25 * math.sin(math.radians(elevation_deg))


def latitude_term(absolute_latitude_deg: float, elevation_deg: float,
                  p_percent: float) -> float:
    """The z term of the scaling exponent, per the four-branch rule:
    zero at p >= 1% or |lat| >= 36 deg; -0.005(|lat|-36) at elevations
    of 25 deg and above; the same plus 1.8 - 4.25 sin(e) below."""
    check_p_percent(p_percent)
    return (0.0 if p_percent >= 1.0
            else _z_below_1(abs(absolute_latitude_deg), elevation_deg))


def _scaled(A001_dB: float, z: float, elevation_deg: float,
            plan) -> list[tuple[float, float]]:
    """(p, A_p) over a PPlan, sin(e) and ln A001 taken once. z may be the
    value for p < 1 at p = 1 too: the factor (1 - p) makes it 0 there."""
    if A001_dB == 0.0:
        return [(p, 0.0) for p in plan]
    sin_e = math.sin(math.radians(elevation_deg))
    ln_term = 0.045 * math.log(A001_dB)
    return [(p, A001_dB * ratio ** -(slope - ln_term - z * sin_e * rest))
            for p, (ratio, slope, rest) in zip(plan, plan.terms)]


def scale_attenuation(A001_dB: float, p_percent: float, z: float,
                      elevation_deg: float) -> float:
    """Scale the reference attenuation to exceedance percentage p:

    A_p = A001 (p/0.01)^-(0.655 + 0.033 ln p - 0.045 ln A001
                          - z sin(e) (1 - p))

    with natural logarithms and p in percent units.
    """
    plan = PPlan([p_percent])
    if A001_dB < 0.0:
        raise DomainError(f"reference attenuation {A001_dB} dB must be >= 0")
    return _scaled(A001_dB, z, elevation_deg, plan)[0][1]


class PPlan(tuple):
    """The distinct p of a p list, ascending, each checked once; a list
    that repeats a value gets a DuplicateWarning. terms: per p, the parts
    of _scaled's exponent that depend on p alone."""

    def __new__(cls, p_list):
        if not p_list:
            raise DomainError("p_list must be non-empty")
        plan = super().__new__(cls, sorted(set(p_list)))
        for p in plan:
            check_p_percent(p)
        if len(plan) != len(p_list):
            warnings.warn("duplicate p values collapsed", DuplicateWarning,
                          stacklevel=2)
        plan.terms = tuple((p / 0.01, 0.655 + 0.033 * math.log(p), 1.0 - p)
                           for p in plan)
        return plan


def attenuation_curve(station: GroundStation, path: PathGeometry,
                      coefficients: RainCoefficients, r001_rain_rate: float,
                      p_list: list[float]) -> AttenuationCurve:
    """Run the full chain once for A001, then scale to every requested p
    (a PPlan is taken as checked).

    The returned curve is sorted ascending in p. Monotonicity (A_p
    non-increasing in p) is checked numerically and any violation is
    recorded as a diagnostic, never silently accepted.
    """
    plan = p_list if isinstance(p_list, PPlan) else PPlan(p_list)
    gamma = _gamma(r001_rain_rate, coefficients)
    r001, clamped = _reduction_factor(path.horizontal_projection_km, gamma,
                                      coefficients.frequency_GHz)
    diagnostics = [clamped] if clamped else []
    L_R, v001 = vertical_adjustment(
        path.horizontal_projection_km, r001, path.rain_height_km,
        station.altitude_km, path.elevation_deg, gamma,
        coefficients.frequency_GHz, abs(station.latitude_deg))
    A001 = reference_attenuation(gamma, L_R * v001)
    points = _scaled(A001, _z_below_1(abs(station.latitude_deg), path.elevation_deg),
                     path.elevation_deg, plan)
    for (p_lo, a_lo), (p_hi, a_hi) in zip(points, points[1:]):
        if a_hi > a_lo:
            diagnostics.append(
                f"monotonicity violation: A({p_hi:g}%) = {a_hi:.4f} dB exceeds "
                f"A({p_lo:g}%) = {a_lo:.4f} dB")
    return AttenuationCurve(A001, r001_rain_rate, tuple(points), tuple(diagnostics))
