"""An independent, vectorised numpy implementation of what the benchmark
checks the CLI against: the ITU-R P.838-3 coefficient regression, the
ITU-R P.618-8 rain attenuation chain, the physics-mode C/N budget, the
all-pairs close-station check and the two reductions of a rain series to
R0.01. It imports nothing from `rainlink`; its regression constants are
transcribed from the recommendation, and the benchmark's tests hold them
to the recommendation's tabulated values.
"""

from __future__ import annotations

import math

import numpy as np

BOLTZMANN_J_PER_K = 1.380649e-23
EARTH_RADIUS_KM = 6378.0          # slant-range geometry
MEAN_EARTH_RADIUS_KM = 6371.0     # great-circle separation
HOURS_PER_YEAR = 8766.0
SEPARATION_KM = 2000.0

# ITU-R P.838-3 Tables 1-4: (a_j, b_j, c_j) rows, then m and c. kappa is
# 10 ** (the sum); alpha is the sum itself.
P838 = {
    ("kappa", "horizontal"): (
        ((-5.33980, -0.10008, 1.13098), (-0.35351, 1.26970, 0.45400),
         (-0.23789, 0.86036, 0.15354), (-0.94158, 0.64552, 0.16817)),
        -0.18961, 0.71147),
    ("kappa", "vertical"): (
        ((-3.80595, 0.56934, 0.81061), (-3.44965, -0.22911, 0.51059),
         (-0.39902, 0.73042, 0.11899), (0.50167, 1.07319, 0.27195)),
        -0.16398, 0.63297),
    ("alpha", "horizontal"): (
        ((-0.14318, 1.82442, -0.55187), (0.29591, 0.77564, 0.19822),
         (0.32177, 0.63773, 0.13164), (-5.37610, -0.96230, 1.47828),
         (16.1721, -3.29980, 3.43990)),
        0.67849, -1.95537),
    ("alpha", "vertical"): (
        ((-0.07771, 2.33840, -0.76284), (0.56727, 0.95545, 0.54039),
         (-0.20238, 1.14520, 0.26809), (-48.2991, 0.791669, 0.116226),
         (48.5833, 0.791459, 0.116479)),
        -0.053739, 0.83433),
}


def p838_coefficients(frequency_GHz, polarization: str):
    """(kappa, alpha) at one or more frequencies for one polarization."""
    lf = np.log10(np.asarray(frequency_GHz, dtype=float))
    result = []
    for name in ("kappa", "alpha"):
        terms, m, c = P838[(name, polarization)]
        total = m * lf + c
        for a_j, b_j, c_j in terms:
            total = total + a_j * np.exp(-(((lf - b_j) / c_j) ** 2))
        result.append(10.0 ** total if name == "kappa" else total)
    return result[0], result[1]


def rain_height_km(latitude_deg):
    """The latitude rule for h_R: 5 km within 23 degrees of the equator,
    0.075 km lower per degree beyond, never below 0."""
    abs_lat = np.abs(np.asarray(latitude_deg, dtype=float))
    return np.where(abs_lat <= 23.0, 5.0,
                    np.maximum(0.0, 5.0 - 0.075 * (abs_lat - 23.0)))


def p618_attenuation(latitude_deg, altitude_km, r001, p_percent,
                     frequency_GHz: float, elevation_deg: float,
                     polarization: str):
    """Attenuation A_p in dB exceeded p percent of an average year.

    latitude_deg, altitude_km and r001 broadcast together (one entry per
    station and source); the result gains a last axis over p_percent.
    """
    lat = np.asarray(latitude_deg, dtype=float)[..., None]
    h_s = np.asarray(altitude_km, dtype=float)[..., None]
    rate = np.asarray(r001, dtype=float)[..., None]
    p = np.asarray(p_percent, dtype=float)
    f = float(frequency_GHz)
    e_deg = float(elevation_deg)
    e = math.radians(e_deg)
    kappa, alpha = p838_coefficients(f, polarization)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(rate == 0.0, 0.0, kappa * rate ** alpha)
        # slant path below the rain height and its ground projection
        h_r = rain_height_km(lat)
        height = np.maximum(h_r - h_s, 0.0)
        l_g = np.where(h_r <= h_s, 0.0, (h_r - h_s) / math.sin(e) * math.cos(e))
        # horizontal reduction factor, clamped to 1
        r = 1.0 / (1.0 + 0.78 * np.sqrt(l_g * gamma / f)
                   - 0.38 * (1.0 - np.exp(-2.0 * l_g)))
        r = np.where(l_g == 0.0, 1.0, np.minimum(r, 1.0))
        # vertical adjustment
        horizontal = l_g * r
        zeta = np.arctan2(height, horizontal)
        l_r = np.where((horizontal != 0.0) & (zeta > e),
                       horizontal / math.cos(e), height / math.sin(e))
        abs_lat = np.abs(lat)
        chi = np.where(abs_lat < 36.0, 36.0 - abs_lat, 0.0)
        v = 1.0 / (1.0 + math.sqrt(math.sin(e)) * (
            31.0 * (1.0 - np.exp(-e_deg / (1.0 + chi)))
            * np.sqrt(l_r * gamma) / f ** 2 - 0.45))
        a001 = gamma * (l_r * v)
        # scaling to p
        z = np.where((p >= 1.0) | (abs_lat >= 36.0), 0.0,
                     -0.005 * (abs_lat - 36.0)
                     + (0.0 if e_deg >= 25.0 else 1.8 - 4.25 * math.sin(e)))
        exponent = -(0.655 + 0.033 * np.log(p) - 0.045 * np.log(a001)
                     - z * math.sin(e) * (1.0 - p))
        a_p = np.where(a001 == 0.0, 0.0, a001 * (p / 0.01) ** exponent)
    return a_p


def slant_range_km(satellite_altitude_km: float, elevation_deg: float) -> float:
    e = math.radians(elevation_deg)
    re = EARTH_RADIUS_KM
    return (math.sqrt((re + satellite_altitude_km) ** 2 - (re * math.cos(e)) ** 2)
            - re * math.sin(e))


def free_space_path_loss_dB(frequency_GHz: float, distance_km: float) -> float:
    return 92.45 + 20.0 * math.log10(frequency_GHz) + 20.0 * math.log10(distance_km)


def cnr_physics_dB(attenuation_dB, params: dict):
    """Physics-mode C/N: EIRP - FSPL - A - other losses + G_r - 10 log10(kTB)."""
    fspl = free_space_path_loss_dB(
        params["frequency_GHz"],
        slant_range_km(params["satellite_altitude_km"], params["elevation_deg"]))
    noise = 10.0 * math.log10(BOLTZMANN_J_PER_K * params["system_temperature_K"]
                              * params["bandwidth_Hz"])
    return (params["eirp_dBW"] - fspl - np.asarray(attenuation_dB)
            - params.get("other_losses_dB", 0.0) + params["receiver_gain_dBi"]
            - noise)


def overestimation_percent(baseline_dB, estimate_dB):
    """How far the estimate falls below the baseline: (b - e) / b * 100."""
    baseline_dB = np.asarray(baseline_dB, dtype=float)
    return (baseline_dB - estimate_dB) / baseline_dB * 100.0


def haversine_km(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=float))
                              for x in (lat1_deg, lon1_deg, lat2_deg, lon2_deg))
    s = (np.sin((lat2 - lat1) / 2.0) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * MEAN_EARTH_RADIUS_KM * np.arcsin(np.sqrt(s))


def close_pairs(names, lats, lons) -> set[tuple[str, str]]:
    """Every unordered station pair closer than SEPARATION_KM, by brute
    force over all pairs; each pair is (earlier name, later name) in
    catalog order."""
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    pairs = set()
    for i in range(len(names) - 1):
        d = haversine_km(lats[i], lons[i], lats[i + 1:], lons[i + 1:])
        for j in np.nonzero(d < SEPARATION_KM)[0]:
            pairs.add((names[i], names[i + 1 + j]))
    return pairs


def chebil_r001(rates) -> float:
    """R0.01 = 12.2903 M^0.2973 from the annual accumulation M implied by
    the series mean over an average year."""
    m = float(np.mean(np.asarray(rates, dtype=float))) * HOURS_PER_YEAR
    return 0.0 if m == 0.0 else 12.2903 * m ** 0.2973


def empirical_r001(rates) -> float:
    """The rate at rank ceil(0.01 % of N) from the top of the samples."""
    ordered = np.sort(np.asarray(rates, dtype=float))[::-1]
    rank = min(max(math.ceil(0.01 / 100.0 * len(ordered)), 1), len(ordered))
    return float(ordered[rank - 1])
