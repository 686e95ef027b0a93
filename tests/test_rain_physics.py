from __future__ import annotations

import math
import random
import re

import pytest

from rainlink import (DomainError, Polarization, RainCoefficients,
                      load_validation_table, regression_coefficients,
                      specific_attenuation)
from rainlink.constants import DOMAINS


def coeffs(kappa, alpha):
    return RainCoefficients(frequency_GHz=28.5,
                            polarization=Polarization.VERTICAL,
                            kappa=kappa, alpha=alpha)


class TestRegressionCoefficients:
    def test_vertical_kappa_bracketed_by_sampled_neighbors(self):
        rows = {f: (kh, ah, kv, av) for f, kh, ah, kv, av in load_validation_table()}
        k_lo = rows[28.0][2]
        k_hi = rows[30.0][2]
        kappa = regression_coefficients(28.5, "vertical").kappa
        assert k_lo < kappa < k_hi

    def test_horizontal_at_least_vertical_at_28_5(self):
        # oblate-drop asymmetry
        c_h = regression_coefficients(28.5, Polarization.HORIZONTAL)
        c_v = regression_coefficients(28.5, Polarization.VERTICAL)
        assert c_h.kappa >= c_v.kappa

    def test_below_validity_floor_rejected(self):
        with pytest.raises(DomainError):
            regression_coefficients(0.5, "vertical")
        with pytest.raises(DomainError):
            regression_coefficients(1000.5, "vertical")

    def test_positive_outputs_across_band(self):
        for f in [1.0, 6.0, 28.5, 100.0, 1000.0]:
            for pol in ("horizontal", "vertical"):
                c = regression_coefficients(f, pol)
                assert c.kappa > 0.0
                assert c.alpha > 0.0

    def test_matches_validation_table(self):
        for f, kh, ah, kv, av in load_validation_table():
            c_h = regression_coefficients(f, "horizontal")
            c_v = regression_coefficients(f, "vertical")
            assert abs(c_h.kappa - kh) / kh < 1e-3
            assert abs(c_h.alpha - ah) / ah < 1e-3
            assert abs(c_v.kappa - kv) / kv < 1e-3
            assert abs(c_v.alpha - av) / av < 1e-3

    def test_continuity(self):
        # no jumps across a 1e-6 GHz step
        rng = random.Random(7)
        for _ in range(200):
            f = rng.uniform(1.0, 999.0)
            for pol in ("horizontal", "vertical"):
                a = regression_coefficients(f, pol)
                b = regression_coefficients(f + 1e-6, pol)
                assert abs(a.kappa - b.kappa) < 1e-6
                assert abs(a.alpha - b.alpha) < 1e-6


class TestSpecificAttenuation:
    def test_zero_rain_zero_attenuation(self):
        c = regression_coefficients(28.5, "vertical")
        assert specific_attenuation(0.0, c).gamma_dB_per_km == 0.0

    def test_linear_case(self):
        assert abs(specific_attenuation(90.0, coeffs(0.15, 1.0)).gamma_dB_per_km
                   - 13.5) < 1e-12

    def test_power_law_example(self):
        gamma = specific_attenuation(42.0, coeffs(0.187, 0.9553)).gamma_dB_per_km
        assert abs(gamma - 6.645561074680473) < 1e-9

    def test_negative_rate_rejected(self):
        c = regression_coefficients(28.5, "vertical")
        with pytest.raises(DomainError):
            specific_attenuation(-0.1, c)

    def test_doubling_scaling_law(self):
        c = regression_coefficients(28.5, "vertical")
        rng = random.Random(11)
        for _ in range(100):
            r = rng.uniform(0.01, 200.0)
            g1 = specific_attenuation(r, c).gamma_dB_per_km
            g2 = specific_attenuation(2.0 * r, c).gamma_dB_per_km
            assert abs(g2 - 2.0 ** c.alpha * g1) / g2 < 1e-12

    def test_strictly_increasing_in_rate(self):
        c = regression_coefficients(28.5, "vertical")
        rates = [0.1, 1.0, 5.0, 20.0, 42.0, 90.0, 150.0]
        gammas = [specific_attenuation(r, c).gamma_dB_per_km for r in rates]
        for lo, hi in zip(gammas, gammas[1:]):
            assert hi > lo


class TestCoefficientDomains:
    """kappa and alpha are bounded: the regressions stay inside their
    domains over the band, and a hand-built record outside them is a
    DomainError, never an OverflowError or a negative kappa."""

    def test_packaged_table_inside_the_domains_over_the_band(self):
        # 30,001 log-spaced frequencies, 1 to 1000 GHz
        for i in range(30_001):
            for polarization in ("horizontal", "vertical"):
                regression_coefficients(10.0 ** (i / 10_000), polarization)

    @pytest.mark.parametrize("frequency, kappa, alpha, message", [
        (28.5, 1.0, 1e308, "alpha(28.5 GHz, vertical) 1e+308 (exponent)"),  # gamma overflowed
        (28.5, -1.0, 1.0, "kappa(28.5 GHz, vertical) -1.0 dB/km"),  # gamma was -2000
        (28.5, math.nan, 1.0, "kappa(28.5 GHz, vertical) nan dB/km"),  # gamma was NaN
        (0.0, 1.0, 1.0, "frequency 0.0 GHz"),
    ])
    def test_hand_built_coefficients_checked(self, frequency, kappa, alpha,
                                             message):
        with pytest.raises(DomainError, match="^" + re.escape(message)
                           + " outside the finite domain"):
            specific_attenuation(2000.0, RainCoefficients(
                frequency, Polarization.VERTICAL, kappa, alpha))

    def test_gamma_finite_at_the_domain_corners(self):
        rate = DOMAINS["rain_rate_mm_per_hr"][1]
        for kappa in DOMAINS["kappa"][:2]:
            for alpha in DOMAINS["alpha"][:2]:
                gamma = specific_attenuation(rate, coeffs(kappa, alpha))
                assert 0.0 < gamma.gamma_dB_per_km < math.inf
