"""The table of input domains and check()."""

from __future__ import annotations

import math
from datetime import datetime, timezone

import pytest

from rainlink import (DomainError, RainCoefficients, RainSeries, TransmissionParams,
                      carrier_to_noise, regression_coefficients, resolve_r001)
from rainlink.attenuation import PPlan
from rainlink.constants import DOMAINS, check


class TestDomainTable:
    @pytest.mark.parametrize("quantity", sorted(DOMAINS))
    def test_closed_finite_range_with_unit(self, quantity):
        low, high, unit = DOMAINS[quantity]
        assert math.isfinite(low) and math.isfinite(high) and low < high
        assert unit
        assert check(quantity, low, "x") == low
        assert check(quantity, high, "x") == high

    @pytest.mark.parametrize("quantity", sorted(DOMAINS))
    def test_rejects_outside_and_non_finite(self, quantity):
        low, high, unit = DOMAINS[quantity]
        for value in (math.nextafter(low, -math.inf),
                      math.nextafter(high, math.inf),
                      math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError) as err:
                check(quantity, value, "x")
            assert str(err.value) == (f"x {value} {unit} outside the finite "
                                      f"domain [{low:g}, {high:g}]")

    @pytest.mark.parametrize("call", [
        lambda: check("p_percent", True, "x"),
        lambda: PPlan([True]),
        # True == 1: a set of p keyed by value alone keeps the 1 and drops the True
        lambda: PPlan([1, 0.01, True]),
        lambda: PPlan([0.01, False]),
    ], ids=["check", "alone", "after_1", "false"])
    def test_a_bool_is_not_a_number(self, call):
        with pytest.raises(DomainError, match="True|False"):
            call()

    def test_every_transmission_field_has_a_domain(self):
        assert set(TransmissionParams._fields) <= set(DOMAINS)


SERIES = RainSeries("x", (datetime(2020, 1, 1, tzinfo=timezone.utc),), (1.0,))


@pytest.mark.parametrize("call, choices, value", [
    (lambda: regression_coefficients(28.5, "diagonal"), "horizontal, vertical", "diagonal"),
    (lambda: RainCoefficients(28.5, "diagonal", 0.1, 1.0), "horizontal, vertical", "diagonal"),
    (lambda: carrier_to_noise(TransmissionParams(28.5, 2.1e9, 75.9, 20.0, 31.8, 868.4, 0.36,
                                                 1200.0), 1.0, mode="bogus"),
     "physics, calibrated", "bogus"),
    (lambda: resolve_r001(SERIES, "bogus", "x"), "chebil_annual, empirical_exceedance", "bogus"),
], ids=["regression_coefficients", "RainCoefficients", "carrier_to_noise", "resolve_r001"])
def test_an_unknown_choice_is_a_domain_error(call, choices, value):
    # DomainError is also a ValueError, what the enumeration raised before
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == f"must be one of {choices}, got {value!r}"
