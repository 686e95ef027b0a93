from __future__ import annotations

import math
import random
from datetime import datetime, timedelta, timezone

import pytest

from rainlink import (CadenceWarning, DomainError, ParseError,
                      RainSeries, SeparationWarning,
                      Strategy, ValidationError, annual_accumulation,
                      catalog_to_csv, chebil_r001, empirical_exceedance_rate,
                      great_circle_km, mean_rain_rate, packaged_catalog_text,
                      parse_rain_series, parse_station_catalog, resolve_r001,
                      series_to_csv)

CATALOG = """name,latitude_deg,longitude_deg,altitude_m
Abuja,9.010833,7.271389,348.00
Cairo,29.96750,31.27500,40.000
"""


def make_series(rates, start=None, step_hours=1.0, cadence=""):
    start = start or datetime(2010, 1, 1, tzinfo=timezone.utc)
    samples = tuple((start + timedelta(hours=i * step_hours), float(r))
                    for i, r in enumerate(rates))
    return RainSeries(station_ref="x", samples=samples, cadence=cadence)


class TestParseStationCatalog:
    def test_altitude_converted_to_km(self):
        catalog = parse_station_catalog(CATALOG)
        abuja = catalog.station("Abuja")
        assert abs(abuja.altitude_km - 0.348) < 1e-15
        assert abuja.latitude_deg == 9.010833

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            parse_station_catalog("")
        with pytest.raises(ValidationError):
            parse_station_catalog("name,latitude_deg,longitude_deg,altitude_m\n")

    def test_malformed_row_names_line(self):
        text = CATALOG + "Broken,9.0\n"
        with pytest.raises(ParseError) as err:
            parse_station_catalog(text)
        assert err.value.line == 4

    def test_bad_number_names_line(self):
        text = "name,latitude_deg,longitude_deg,altitude_m\nX,abc,0,0\n"
        with pytest.raises(ParseError) as err:
            parse_station_catalog(text)
        assert err.value.line == 2

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            parse_station_catalog("name,lat,lon,alt\nX,0,0,0\n")

    def test_duplicate_name_rejected(self):
        text = ("name,latitude_deg,longitude_deg,altitude_m\n"
                "X,0,0,0\nX,40,90,5\n")
        with pytest.raises(ValidationError):
            parse_station_catalog(text)

    def test_close_pair_warns(self):
        text = ("name,latitude_deg,longitude_deg,altitude_m\n"
                "A,0.0,0.0,0\nB,0.9,0.0,0\n")
        with pytest.warns(SeparationWarning):
            catalog = parse_station_catalog(text)
        assert len(catalog.close_pairs) == 1
        assert catalog.close_pairs[0][2] < 2000.0

    def test_packaged_fixture_has_no_close_pairs(self):
        catalog = parse_station_catalog(packaged_catalog_text())
        assert len(catalog.stations) == 6
        assert catalog.close_pairs == ()
        names = [s.name for s in catalog.stations]
        assert names == ["Abuja", "Hartbeesthoek", "Cairo", "Longonot",
                         "Port Louis", "Praia"]

    def test_round_trip(self):
        catalog = parse_station_catalog(packaged_catalog_text())
        text = catalog_to_csv(catalog)
        again = parse_station_catalog(text)
        assert again.stations == catalog.stations


class TestGreatCircle:
    def test_known_distance(self):
        # one degree of latitude on the mean-radius sphere
        d = great_circle_km(0.0, 0.0, 1.0, 0.0)
        assert abs(d - 2.0 * math.pi * 6371.0 / 360.0) < 1e-9

    def test_symmetry_and_zero(self):
        assert great_circle_km(9.0, 7.3, -25.9, 27.7) == pytest.approx(
            great_circle_km(-25.9, 27.7, 9.0, 7.3))
        assert great_circle_km(9.0, 7.3, 9.0, 7.3) == 0.0


class TestParseRainSeries:
    def test_two_rows(self):
        text = ("timestamp,rate_mm_per_hr\n"
                "2010-01-01T00:00:00Z,0.1\n"
                "2010-02-01T00:00:00Z,0.3\n")
        series = parse_rain_series(text)
        assert len(series.samples) == 2
        assert series.samples[0][1] == 0.1

    def test_negative_rate_names_line(self):
        text = ("timestamp,rate_mm_per_hr\n"
                "2010-01-01T00:00:00Z,0.1\n"
                "2010-02-01T00:00:00Z,-0.1\n")
        with pytest.raises(ParseError) as err:
            parse_rain_series(text)
        assert err.value.line == 3

    def test_out_of_order_rejected(self):
        text = ("timestamp,rate_mm_per_hr\n"
                "2010-02-01T00:00:00Z,0.1\n"
                "2010-01-01T00:00:00Z,0.2\n")
        with pytest.raises(ParseError):
            parse_rain_series(text)

    def test_duplicate_timestamp_rejected(self):
        text = ("timestamp,rate_mm_per_hr\n"
                "2010-01-01T00:00:00Z,0.1\n"
                "2010-01-01T00:00:00Z,0.2\n")
        with pytest.raises(ParseError):
            parse_rain_series(text)

    def test_bad_timestamp_rejected(self):
        text = "timestamp,rate_mm_per_hr\nnot-a-time,0.1\n"
        with pytest.raises(ParseError) as err:
            parse_rain_series(text)
        assert err.value.line == 2

    def test_offset_timestamps_normalized_to_utc(self):
        text = ("timestamp,rate_mm_per_hr\n"
                "2010-01-01T02:00:00+02:00,0.1\n"
                "2010-01-01T01:00:00Z,0.2\n")
        # 02:00+02:00 is 00:00Z, so this is strictly increasing
        series = parse_rain_series(text)
        assert series.samples[0][0].hour == 0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            parse_rain_series("timestamp,rate_mm_per_hr\n")

    def test_round_trip(self):
        rng = random.Random(3)
        series = make_series([rng.uniform(0.0, 5.0) for _ in range(48)])
        again = parse_rain_series(series_to_csv(series))
        assert again.samples == series.samples


class TestReductions:
    def test_mean_constant(self):
        assert mean_rain_rate(make_series([0.5] * 7)) == 0.5

    def test_mean_two_values(self):
        assert abs(mean_rain_rate(make_series([0.1, 0.3])) - 0.2) < 1e-15

    def test_mean_against_independent_fold(self):
        rng = random.Random(17)
        rates = [rng.uniform(0.0, 2.0) for _ in range(120)]
        series = make_series(rates, step_hours=730.5)
        total = 0.0
        for r in rates:
            total += r
        assert abs(mean_rain_rate(series) - total / 120.0) < 1e-12

    def test_annual_accumulation(self):
        assert annual_accumulation(0.0) == 0.0
        assert annual_accumulation(1.0) == 8766.0
        assert abs(annual_accumulation(0.1455) - 1275.453) < 1e-9

    def test_chebil_values(self):
        assert chebil_r001(1.0) == pytest.approx(12.2903)
        assert chebil_r001(0.0) == 0.0
        assert abs(chebil_r001(1275.0) - 102.99844352542164) < 1e-9

    def test_chebil_increasing_concave(self):
        rng = random.Random(23)
        for _ in range(50):
            m = rng.uniform(1.0, 4000.0)
            assert chebil_r001(2.0 * m) > chebil_r001(m)
            assert chebil_r001(2.0 * m) < 2.0 * chebil_r001(m)


class TestEmpiricalExceedance:
    def test_constant_series(self):
        series = make_series([2.5] * 9)
        for p in [0.01, 1.0, 25.0, 99.0]:
            assert empirical_exceedance_rate(series, p) == 2.5

    def test_quarter_rank(self):
        series = make_series([0.0, 0.0, 0.0, 10.0])
        assert empirical_exceedance_rate(series, 25.0) == 10.0

    def test_median_of_uniform(self):
        series = make_series(list(range(1, 101)))
        value = empirical_exceedance_rate(series, 50.0)
        assert abs(value - 50.0) <= 1.0

    def test_non_increasing_in_p(self):
        rng = random.Random(5)
        series = make_series([rng.uniform(0.0, 30.0) for _ in range(200)])
        values = [empirical_exceedance_rate(series, p)
                  for p in [0.01, 0.1, 1.0, 10.0, 50.0, 99.0]]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo

    def test_p_bounds(self):
        series = make_series([1.0, 2.0])
        with pytest.raises(DomainError):
            empirical_exceedance_rate(series, 0.0)
        with pytest.raises(DomainError):
            empirical_exceedance_rate(series, 100.0)


class TestResolveR001:
    def test_chebil_composition(self):
        series = make_series([0.1455] * 120, step_hours=730.5)
        assert abs(resolve_r001(series, Strategy.CHEBIL_ANNUAL, "GPM")
                   - 103.00932178409715) < 1e-9

    def test_empirical_on_monthly_cadence_warns(self):
        series = make_series([0.1, 0.2, 0.3, 0.4] * 30, step_hours=730.5,
                             cadence="monthly")
        with pytest.warns(CadenceWarning):
            value = resolve_r001(series, Strategy.EMPIRICAL_EXCEEDANCE, "TRMM")
        assert value == 0.4

    def test_empirical_on_fine_cadence_silent(self):
        import warnings as _warnings
        series = make_series([0.1, 9.0] * 40, step_hours=0.5)
        with _warnings.catch_warnings(record=True) as record:
            _warnings.simplefilter("always")
            value = resolve_r001(series, Strategy.EMPIRICAL_EXCEEDANCE,
                                 "gauge")
        assert value == 9.0
        assert not any(isinstance(w.message, CadenceWarning) for w in record)
