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
from .errors import DomainError, DuplicateWarning, Record
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


def _reduction_factor(L_G_km: float, gamma_dB_per_km: float,
                      frequency_GHz: float) -> tuple[float, str]:
    """The horizontal reduction factor for 0.01% of the time,
    r001 = 1 / (1 + 0.78 sqrt(L_G gamma / f) - 0.38 (1 - e^(-2 L_G))), and
    the note that it was clamped to 1 ("" if not). Values above 1 (possible
    when gamma is near zero) have no physical reading here."""
    if L_G_km == 0.0:
        return 1.0, ""
    r001 = 1.0 / (1.0 + 0.78 * math.sqrt(L_G_km * gamma_dB_per_km / frequency_GHz)
                  - 0.38 * (1.0 - math.exp(-2.0 * L_G_km)))
    if r001 > 1.0:
        return 1.0, f"horizontal reduction factor {r001:.4f} clamped to 1.0"
    return r001, ""


def _z_below_1(abs_lat: float, elevation_deg: float) -> float:
    """The z term of the scaling exponent for p < 1% (it is zero at p >= 1%):
    zero at |lat| >= 36 deg; -0.005(|lat|-36) at elevations of 25 deg and
    above; the same plus 1.8 - 4.25 sin(e) below."""
    if abs_lat >= 36.0:
        return 0.0
    if elevation_deg >= 25.0:
        return -0.005 * (abs_lat - 36.0)
    return -0.005 * (abs_lat - 36.0) + 1.8 - 4.25 * math.sin(math.radians(elevation_deg))


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
            check("p_percent", p, "exceedance percentage")
        if len(plan) != len(p_list):
            warnings.warn("duplicate p values collapsed", DuplicateWarning,
                          stacklevel=2)
        plan.terms = tuple((p / 0.01, 0.655 + 0.033 * math.log(p), 1.0 - p)
                           for p in plan)
        return plan


def _chain(station: GroundStation, path: PathGeometry,
           coefficients: RainCoefficients, plan: PPlan):
    """The chain at one station: the terms that depend on neither R0.01
    nor p are taken here, once. Its function of one R0.01 returns the
    terms (gamma, r001, L_R, v001, A001), the (p, A_p) points over the
    plan, and the notes: a clamp of r001, and each rise of A_p in p.

    zeta = atan((h_R - h_s) / (L_G r001)); when zeta exceeds the
    elevation the rain cell caps the path at L_G r001 / cos(e), else the
    full vertical extent (h_R - h_s)/sin(e) applies. chi = 36 - |lat|
    for |lat| < 36, else 0. A001 = gamma L_E, with L_E = L_R v001.
    """
    L_G, frequency_GHz = path.horizontal_projection_km, coefficients.frequency_GHz
    elevation_deg, abs_lat = path.elevation_deg, abs(station.latitude_deg)
    e_rad = math.radians(elevation_deg)
    height = max(path.rain_height_km - station.altitude_km, 0.0)
    chi = max(36.0 - abs_lat, 0.0)
    factor = 31.0 * (1.0 - math.exp(-elevation_deg / (1.0 + chi)))
    z = _z_below_1(abs_lat, elevation_deg)

    def of(r001_rain_rate: float):
        gamma = _gamma(r001_rain_rate, coefficients)
        r001, clamped = _reduction_factor(L_G, gamma, frequency_GHz)
        notes = [clamped] if clamped else []
        horizontal = L_G * r001
        # a zero horizontal extent takes the vertical path: zeta is undefined
        if horizontal != 0.0 and math.atan2(height, horizontal) > e_rad:
            L_R = horizontal / math.cos(e_rad)
        else:
            L_R = height / math.sin(e_rad)
        v001 = 1.0 / (1.0 + math.sqrt(math.sin(e_rad)) * (
            factor * math.sqrt(L_R * gamma) / frequency_GHz ** 2 - 0.45))
        A001 = gamma * (L_R * v001)
        points = _scaled(A001, z, elevation_deg, plan)
        for (p_lo, a_lo), (p_hi, a_hi) in zip(points, points[1:]):
            if a_hi > a_lo:
                notes.append(
                    f"monotonicity violation: A({p_hi:g}%) = {a_hi:.4f} dB exceeds "
                    f"A({p_lo:g}%) = {a_lo:.4f} dB")
        return (gamma, r001, L_R, v001, A001), points, notes
    return of


def attenuation_curve(station: GroundStation, path: PathGeometry,
                      coefficients: RainCoefficients, r001_rain_rate: float,
                      p_list: list[float]) -> AttenuationCurve:
    """The chain's one-source case: A001 from one R0.01, scaled to every
    requested p (a PPlan is taken as checked).

    The returned curve is sorted ascending in p. Monotonicity (A_p
    non-increasing in p) is checked numerically and any violation is
    recorded as a diagnostic, never silently accepted.
    """
    plan = p_list if isinstance(p_list, PPlan) else PPlan(p_list)
    (*_, A001), points, notes = _chain(station, path, coefficients, plan)(r001_rain_rate)
    return AttenuationCurve(A001, r001_rain_rate, tuple(points), tuple(notes))
