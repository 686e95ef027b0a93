"""The table of input domains and check()."""

from __future__ import annotations

import math

import pytest

from rainlink import DomainError, TransmissionParams
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

    def test_every_transmission_field_has_a_domain(self):
        assert set(TransmissionParams._fields) <= set(DOMAINS)
