"""Frequency- and polarization-dependent power-law rain coefficients and
the specific-attenuation law gamma = kappa * R^alpha.

The regression constants of ITU-R P.838-3 are module constants, fixed by
the recommendation. A sampled-frequency validation table is packaged in
rainlink/data so that tests can pin the regression outputs.
"""

from __future__ import annotations

import csv
import math

from .constants import check
from .errors import Choice, Record, read_packaged


class Polarization(Choice):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


class RainCoefficients(Record):
    """Power-law coefficients kappa and alpha at one frequency and
    polarization, each checked against its domain."""

    frequency_GHz: float
    polarization: Polarization
    kappa: float
    alpha: float

    def __post_init__(self):
        check("frequency_GHz", self.frequency_GHz, "frequency")
        at = f"({self.frequency_GHz} GHz, {Polarization(self.polarization).value})"
        check("kappa", self.kappa, "kappa" + at)
        check("alpha", self.alpha, "alpha" + at)


class SpecificAttenuation(Record):
    """Specific attenuation gamma in dB/km at one rain rate."""

    gamma_dB_per_km: float
    rain_rate_mm_per_hr: float


class _Regression(Record):
    """One coefficient's Gaussian-sum regression in log10(frequency):
    sum_j a_j exp(-((log10 f - b_j) / c_j)^2) + m log10 f + offset, which is
    log10 of the coefficient when log_scale (kappa), else the coefficient
    itself (alpha)."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    c: tuple[float, ...]
    m: float
    offset: float
    log_scale: bool

    def evaluate(self, frequency_GHz: float) -> float:
        lf = math.log10(frequency_GHz)
        total = self.m * lf + self.offset
        for a_j, b_j, c_j in zip(self.a, self.b, self.c):
            total += a_j * math.exp(-(((lf - b_j) / c_j) ** 2))
        return 10.0 ** total if self.log_scale else total


# ITU-R P.838-3, valid 1 to 1000 GHz, transcribed from the recommendation;
# edit only to correct against it. p838_validation.csv pins the outputs.
_KAPPA_H = _Regression(a=(-5.33980, -0.35351, -0.23789, -0.94158),
                       b=(-0.10008, 1.26970, 0.86036, 0.64552),
                       c=(1.13098, 0.45400, 0.15354, 0.16817),
                       m=-0.18961, offset=0.71147, log_scale=True)
_KAPPA_V = _Regression(a=(-3.80595, -3.44965, -0.39902, 0.50167),
                       b=(0.56934, -0.22911, 0.73042, 1.07319),
                       c=(0.81061, 0.51059, 0.11899, 0.27195),
                       m=-0.16398, offset=0.63297, log_scale=True)
_ALPHA_H = _Regression(a=(-0.14318, 0.29591, 0.32177, -5.37610, 16.1721),
                       b=(1.82442, 0.77564, 0.63773, -0.96230, -3.29980),
                       c=(-0.55187, 0.19822, 0.13164, 1.47828, 3.43990),
                       m=0.67849, offset=-1.95537, log_scale=False)
_ALPHA_V = _Regression(a=(-0.07771, 0.56727, -0.20238, -48.2991, 48.5833),
                       b=(2.33840, 0.95545, 1.14520, 0.791669, 0.791459),
                       c=(-0.76284, 0.54039, 0.26809, 0.116226, 0.116479),
                       m=-0.053739, offset=0.83433, log_scale=False)
# per polarization, its kappa and alpha regressions
_REGRESSIONS = {Polarization.HORIZONTAL: (_KAPPA_H, _ALPHA_H),
                Polarization.VERTICAL: (_KAPPA_V, _ALPHA_V)}


def regression_coefficients(frequency_GHz: float,
                            polarization: Polarization | str = Polarization.VERTICAL
                            ) -> RainCoefficients:
    """Evaluate kappa and alpha at a frequency for one polarization.

    The regression is evaluated directly; no interpolation between
    sampled frequencies.
    """
    check("frequency_GHz", frequency_GHz, "frequency")
    pol = Polarization(polarization)
    kappa, alpha = _REGRESSIONS[pol]
    return RainCoefficients(frequency_GHz, pol, kappa.evaluate(frequency_GHz),
                            alpha.evaluate(frequency_GHz))


def _gamma(rain_rate_mm_per_hr: float, coefficients: RainCoefficients) -> float:
    """gamma = kappa * R^alpha in dB/km for a checked rain rate."""
    check("rain_rate_mm_per_hr", rain_rate_mm_per_hr, "rain rate")
    return (0.0 if rain_rate_mm_per_hr == 0.0
            else coefficients.kappa * rain_rate_mm_per_hr ** coefficients.alpha)


def specific_attenuation(rain_rate_mm_per_hr: float,
                         coefficients: RainCoefficients) -> SpecificAttenuation:
    """gamma = kappa * R^alpha in dB/km; zero exactly when R is zero."""
    return SpecificAttenuation(_gamma(rain_rate_mm_per_hr, coefficients), rain_rate_mm_per_hr)


def load_validation_table() -> list[tuple[float, float, float, float, float]]:
    """Packaged sampled-frequency validation rows as
    (frequency, kappa_h, alpha_h, kappa_v, alpha_v) tuples."""
    text = read_packaged("p838_validation.csv")
    return [tuple(float(rec[k]) for k in ("frequency_GHz", "kappa_h", "alpha_h",
                                          "kappa_v", "alpha_v"))
            for rec in csv.DictReader(text.splitlines())]
