"""Frequency- and polarization-dependent power-law rain coefficients and
the specific-attenuation law gamma = kappa * R^alpha.

The regression constants from ITU-R P.838-3 ship as a documented
plain-text data file next to this module and can be overridden via a
path for auditability. A sampled-frequency validation table is packaged
alongside so tests can pin the regression outputs.
"""

from __future__ import annotations

import configparser
import csv
import functools
import math
from enum import Enum

from .constants import check
from .errors import ParseError, Record, read_packaged, read_text


class Polarization(str, Enum):
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
    """One coefficient's Gaussian-sum regression in log10(frequency)."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    c: tuple[float, ...]
    m: float
    offset: float
    log_scale: bool

    def evaluate(self, frequency_GHz: float) -> float:
        lf = math.log10(frequency_GHz)
        total = self.m * lf + self.offset
        try:
            for a_j, b_j, c_j in zip(self.a, self.b, self.c):
                total += a_j * math.exp(-(((lf - b_j) / c_j) ** 2))
            return 10.0 ** total if self.log_scale else total
        except OverflowError:
            return math.inf  # outside every coefficient's domain


class CoefficientTable(Record):
    """The four regressions (kappa/alpha x horizontal/vertical)."""

    kappa_h: _Regression
    kappa_v: _Regression
    alpha_h: _Regression
    alpha_v: _Regression


# the file's sections, in CoefficientTable's field order
_SECTIONS = ("kappa_horizontal", "kappa_vertical", "alpha_horizontal", "alpha_vertical")


def parse_coefficient_table(text: str) -> CoefficientTable:
    """Parse the plain-text regression-constant format (INI sections with
    space-separated float lists)."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"bad coefficient file: {exc}") from exc
    regressions = []
    for section in _SECTIONS:
        if not parser.has_section(section):
            raise ParseError(f"coefficient file missing section [{section}]")
        sec = parser[section]
        try:
            a, b, c = (tuple(map(float, sec[k].split())) for k in "abc")
            m = float(sec["m"])
            offset = float(sec["offset"])
            scale = sec["scale"].strip()
        except (KeyError, ValueError) as exc:
            raise ParseError(f"section [{section}]: {exc}") from exc
        if not (len(a) == len(b) == len(c)) or not a:
            raise ParseError(f"section [{section}]: a/b/c lists must be non-empty and equal length")
        if scale not in ("log10", "linear"):
            raise ParseError(f"section [{section}]: scale must be log10 or linear")
        if any(x == 0.0 for x in c):
            raise ParseError(f"section [{section}]: c terms must be non-zero")
        if not all(map(math.isfinite, (*a, *b, *c, m, offset))):
            raise ParseError(f"section [{section}]: constants must be finite")
        regressions.append(_Regression(a, b, c, m, offset, scale == "log10"))
    return CoefficientTable(*regressions)


def load_coefficient_table(path: str | None = None) -> CoefficientTable:
    """Load the regression constants, from the packaged data file by
    default or from an override path."""
    text = read_packaged("p838_coefficients.txt") if path is None else read_text(path)
    return parse_coefficient_table(text)


@functools.cache
def _default_table() -> CoefficientTable:
    return load_coefficient_table()


def regression_coefficients(frequency_GHz: float,
                            polarization: Polarization | str = Polarization.VERTICAL,
                            table: CoefficientTable | None = None) -> RainCoefficients:
    """Evaluate kappa and alpha at a frequency for one polarization.

    The regression is evaluated directly; no interpolation between
    sampled frequencies.
    """
    check("frequency_GHz", frequency_GHz, "frequency")
    pol = Polarization(polarization)
    tab = table if table is not None else _default_table()
    horizontal = pol is Polarization.HORIZONTAL
    kappa = (tab.kappa_h if horizontal else tab.kappa_v).evaluate(frequency_GHz)
    alpha = (tab.alpha_h if horizontal else tab.alpha_v).evaluate(frequency_GHz)
    return RainCoefficients(frequency_GHz, pol, kappa, alpha)


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
