from __future__ import annotations

import math

import pytest

from rainlink import (DomainError, GroundStation, UnsupportedRegimeError,
                      free_space_path_loss, rain_height, rain_slant_path,
                      slant_range)


def station(lat=9.010833, alt_km=0.348):
    return GroundStation(name="Abuja", latitude_deg=lat, longitude_deg=7.271389,
                         altitude_km=alt_km)


class TestSlantRange:
    def test_zenith_equals_altitude(self):
        assert slant_range(1200.0, 90.0) == pytest.approx(1200.0, abs=1e-9)

    def test_20_degrees(self):
        # frozen from a bisection oracle on the law-of-cosines triangle
        assert abs(slant_range(1200.0, 20.0) - 2456.0221268793243) < 1e-6

    def test_horizon(self):
        assert abs(slant_range(1200.0, 0.0) - 4092.334297195184) < 1e-6

    def test_strictly_decreasing_in_elevation(self):
        elevations = [0.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 75.0, 90.0]
        ranges = [slant_range(1200.0, e) for e in elevations]
        for lo, hi in zip(ranges, ranges[1:]):
            assert hi < lo

    def test_negative_altitude_rejected(self):
        with pytest.raises(DomainError):
            slant_range(-1.0, 20.0)

    def test_elevation_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            slant_range(1200.0, 90.5)
        with pytest.raises(DomainError):
            slant_range(1200.0, -0.1)

    def test_earth_radius_is_not_an_input(self):
        # the radius is a constant: no domain in DOMAINS bounds it
        with pytest.raises(TypeError):
            slant_range(1200.0, 20.0, earth_radius_km=float("nan"))


class TestFreeSpacePathLoss:
    def test_reference_geometry(self):
        d = slant_range(1200.0, 20.0)
        fspl = free_space_path_loss(28.5, d)
        assert abs(fspl - 189.3) < 0.1

    def test_constant_term(self):
        assert abs(free_space_path_loss(1.0, 1.0) - 92.45) < 1e-12

    def test_c_band_value(self):
        assert abs(free_space_path_loss(6.0, 2455.8) - 175.81688490825115) < 1e-9

    def test_20_db_per_decade_exact(self):
        base = free_space_path_loss(3.0, 700.0)
        assert free_space_path_loss(30.0, 700.0) - base == pytest.approx(20.0, abs=1e-12)
        assert free_space_path_loss(3.0, 7000.0) - base == pytest.approx(20.0, abs=1e-12)

    def test_non_positive_inputs_rejected(self):
        with pytest.raises(DomainError):
            free_space_path_loss(0.0, 100.0)
        with pytest.raises(DomainError):
            free_space_path_loss(28.5, 0.0)


class TestRainHeight:
    def test_plateau_within_23_degrees(self):
        assert rain_height(station(lat=10.0)) == pytest.approx(5.0)
        assert rain_height(station(lat=-10.0)) == pytest.approx(5.0)
        assert rain_height(station(lat=23.0)) == pytest.approx(5.0)

    def test_linear_decrease_beyond_23(self):
        assert rain_height(station(lat=36.0)) == pytest.approx(5.0 - 0.075 * 13.0)
        assert rain_height(station(lat=-36.0)) == pytest.approx(4.025)

    def test_floored_at_zero(self):
        assert rain_height(station(lat=90.0)) == 0.0

    def test_override_wins(self):
        # a local rain height given to the path replaces the latitude rule's
        assert rain_slant_path(station(lat=10.0), 20.0, 4.5).rain_height_km == 4.5


class TestRainSlantPath:
    def test_documented_example(self):
        path = rain_slant_path(station(), 20.0, 5.0)
        assert abs(path.slant_path_km - 13.601538069558684) < 1e-9
        assert abs(path.horizontal_projection_km - 12.781264955302905) < 1e-9

    def test_geometric_invariants(self):
        for elev in [5.0, 20.0, 45.0, 89.0, 90.0]:
            path = rain_slant_path(station(), elev, 5.0)
            e = math.radians(elev)
            rise = path.slant_path_km * math.sin(e)
            assert abs(rise - (5.0 - 0.348)) < 1e-9 * 5.0
            assert abs(path.horizontal_projection_km
                       - path.slant_path_km * math.cos(e)) < 1e-9 * 14.0
            assert 0.0 <= path.horizontal_projection_km <= path.slant_path_km

    def test_degenerate_path(self):
        path = rain_slant_path(station(alt_km=5.0), 20.0, 5.0)
        assert path.slant_path_km == 0.0
        assert path.horizontal_projection_km == 0.0

    def test_vertical_path(self):
        path = rain_slant_path(station(alt_km=0.0), 90.0, 5.0)
        assert abs(path.slant_path_km - 5.0) < 1e-12
        assert abs(path.horizontal_projection_km) < 1e-12

    def test_low_elevation_rejected(self):
        for elevation in (3.0, math.nextafter(5.0, 0.0)):
            with pytest.raises(UnsupportedRegimeError):
                rain_slant_path(station(), elevation, 5.0)

    def test_nan_elevation_rejected(self):
        # NaN passes both a > 90 and a < 5 test
        with pytest.raises(DomainError, match="outside"):
            rain_slant_path(station(), math.nan, 5.0)

    def test_default_rain_height_from_station(self):
        path = rain_slant_path(station(lat=10.0), 20.0)
        assert path.rain_height_km == pytest.approx(5.0)


class TestGroundStation:
    def test_invalid_coordinates_rejected(self):
        with pytest.raises(DomainError):
            GroundStation("x", 91.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            GroundStation("x", 0.0, 181.0, 0.0)
        with pytest.raises(DomainError):
            GroundStation("x", 0.0, 0.0, -0.1)
        with pytest.raises(DomainError):
            GroundStation("", 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("altitude", [math.nan, math.inf])
    def test_non_finite_altitude_rejected(self, altitude):
        with pytest.raises(DomainError, match="finite"):
            GroundStation("x", 0.0, 0.0, altitude)
