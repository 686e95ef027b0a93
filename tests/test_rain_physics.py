from __future__ import annotations

import math
import random
import re
from importlib import resources

import pytest

from rainlink import (DomainError, ParseError, Polarization,
                      RainCoefficients, load_coefficient_table,
                      load_validation_table, parse_coefficient_table,
                      regression_coefficients, specific_attenuation)
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


class TestCoefficientTable:
    def test_default_load(self):
        table = load_coefficient_table()
        assert table.kappa_h.log_scale
        assert not table.alpha_v.log_scale

    def test_override_path(self, tmp_path):
        from importlib import resources
        text = resources.files("rainlink.data").joinpath(
            "p838_coefficients.txt").read_text(encoding="utf-8")
        p = tmp_path / "coeffs.txt"
        p.write_text(text)
        table = load_coefficient_table(str(p))
        c = regression_coefficients(28.5, "vertical", table=table)
        assert abs(c.kappa - regression_coefficients(28.5, "vertical").kappa) < 1e-15

    def test_override_path_not_utf8(self, tmp_path):
        p = tmp_path / "coeffs.txt"
        p.write_bytes(b"x\xff")
        with pytest.raises(ParseError) as err:
            load_coefficient_table(str(p))
        assert str(err.value) == f"{p}: not UTF-8 at byte 1"

    def test_missing_section_rejected(self):
        with pytest.raises(ParseError):
            parse_coefficient_table("[kappa_horizontal]\nscale = log10\n"
                                    "a = 1\nb = 1\nc = 1\nm = 0\noffset = 0\n")

    def test_ragged_lists_rejected(self):
        text = ""
        for section in ("kappa_horizontal", "kappa_vertical",
                        "alpha_horizontal", "alpha_vertical"):
            text += (f"[{section}]\nscale = linear\na = 1 2\nb = 1\nc = 1\n"
                     "m = 0\noffset = 0\n")
        with pytest.raises(ParseError):
            parse_coefficient_table(text)

    @pytest.mark.parametrize("field", ["a", "b", "c", "m", "offset"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_constant_rejected(self, field, value):
        # such a constant would reach a json report as NaN, which is not JSON
        def table(**given):
            text = ""
            for section in ("kappa_horizontal", "kappa_vertical",
                            "alpha_horizontal", "alpha_vertical"):
                lines = {"a": "1", "b": "1", "c": "1", "m": "0", "offset": "0",
                         **(given if section == "alpha_vertical" else {})}
                text += f"[{section}]\nscale = linear\n" + "".join(
                    f"{key} = {number}\n" for key, number in lines.items())
            return text

        parse_coefficient_table(table(**{field: "2"}))
        with pytest.raises(ParseError, match=r"section \[alpha_vertical\]: "
                           "constants must be finite"):
            parse_coefficient_table(table(**{field: value}))

    def test_bad_scale_rejected(self):
        text = ""
        for section in ("kappa_horizontal", "kappa_vertical",
                        "alpha_horizontal", "alpha_vertical"):
            text += (f"[{section}]\nscale = exp\na = 1\nb = 1\nc = 1\n"
                     "m = 0\noffset = 0\n")
        with pytest.raises(ParseError):
            parse_coefficient_table(text)


PACKAGED = resources.files("rainlink.data").joinpath(
    "p838_coefficients.txt").read_text(encoding="utf-8")


def packaged_with(section, key, value):
    """The packaged coefficient file with key set to value in section."""
    text, count = re.subn(rf"(\[{section}\][^\[]*?\n{key} = )[^\n]*",
                          lambda m: m.group(1) + value, PACKAGED, count=1)
    assert count == 1
    return text


class TestCoefficientFileErrors:
    def test_no_section_header(self):
        with pytest.raises(ParseError, match="bad coefficient file"):
            parse_coefficient_table("scale = log10\n")

    def test_missing_key(self):
        text = PACKAGED.replace("offset = 0.71147\n", "", 1)
        with pytest.raises(ParseError,
                           match=r"^section \[kappa_horizontal\]: 'offset'$"):
            parse_coefficient_table(text)

    def test_non_numeric_constant(self):
        with pytest.raises(ParseError, match=r"^section \[alpha_horizontal\]: "
                           "could not convert string to float: 'abc'$"):
            parse_coefficient_table(packaged_with("alpha_horizontal", "m", "abc"))

    def test_zero_c(self):
        text = packaged_with("alpha_vertical", "c",
                             "-0.76284 0.0 0.26809 0.116226 0.116479")
        with pytest.raises(ParseError, match=r"^section \[alpha_vertical\]: "
                           "c terms must be non-zero$"):
            parse_coefficient_table(text)


class TestCoefficientDomains:
    """kappa and alpha are bounded: a table whose finite constants give a
    coefficient outside its domain, or overflow on the way, is a
    DomainError, never an OverflowError or a negative kappa."""

    @pytest.mark.parametrize("section, key, value", [
        ("kappa_vertical", "m", "1e308"),  # 10 ** total overflows
        ("alpha_vertical", "m", "1e308"),  # alpha 1.45e308
        ("kappa_horizontal", "c", "1e-300 1e-300 1e-300 1e-300"),  # a Gaussian term overflows
        ("kappa_vertical", "scale", "linear"),  # kappa -0.69
    ])
    def test_out_of_domain_table_is_domain_error(self, section, key, value):
        table = parse_coefficient_table(packaged_with(section, key, value))
        quantity, polarization = section.split("_")
        low, high, unit = DOMAINS[quantity]
        with pytest.raises(DomainError, match=re.escape(
                f"{quantity}(28.5 GHz, {polarization}) ") + r"\S+ " + re.escape(
                f"{unit} outside the finite domain [{low:g}, {high:g}]")):
            regression_coefficients(28.5, polarization, table=table)

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
