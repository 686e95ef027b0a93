from __future__ import annotations

import csv
import io
import math
import random
import sys
import tracemalloc
import warnings
from collections import Counter
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import rainlink.rain_data as rain_data
from rainlink import (CadenceWarning, CoverageWarning, DomainError,
                      GroundStation, ParseError, RainSeries, SeparationWarning,
                      StationCatalog, Strategy, ValidationError, annual_accumulation,
                      catalog_to_csv, chebil_r001, empirical_exceedance_rate,
                      mean_rain_rate, packaged_catalog_text,
                      parse_rain_series, parse_station_catalog, resolve_r001,
                      series_to_csv)
from rainlink.constants import MEAN_EARTH_RADIUS_KM, MIN_SEPARATION_KM

CATALOG = """name,latitude_deg,longitude_deg,altitude_m
Abuja,9.010833,7.271389,348.00
Cairo,29.96750,31.27500,40.000
"""


def make_series(rates, start=None, step_hours=1.0, cadence=""):
    start = start or datetime(2010, 1, 1, tzinfo=timezone.utc)
    samples = tuple((start + timedelta(hours=i * step_hours), float(r))
                    for i, r in enumerate(rates))
    return RainSeries(station_ref="x", samples=samples, cadence=cadence)


class TestCsvError:
    """A csv.Error from the reader, here a quoted field over the csv
    module's field size limit, is a ParseError on the line it stopped
    at."""

    LONG = '"' + "x" * 140_000 + '"'

    def test_catalog(self):
        with pytest.raises(ParseError, match="field larger") as err:
            parse_station_catalog(CATALOG + f"{self.LONG},1,2,3\n")
        assert err.value.line == len(CATALOG.splitlines()) + 1

    def test_series(self):
        text = ("timestamp,rate_mm_per_hr\n2010-01-01T00:00:00Z,1\n"
                f"2010-01-01T01:00:00Z,{self.LONG}\n"
                "2010-01-01T02:00:00Z,1\n")
        with pytest.raises(ParseError, match="field larger") as err:
            parse_rain_series(text)
        assert err.value.line == 3

    # rows are checked as they are read, so an error on an earlier line
    # wins over the reader's on a later one

    def test_catalog_earlier_bad_row_wins(self):
        text = CATALOG + "Broken,abc,0,0\n" + f"{self.LONG},1,2,3\n"
        with pytest.raises(ParseError, match="could not convert") as err:
            parse_station_catalog(text)
        assert err.value.line == 4

    def test_series_earlier_bad_row_wins(self):
        text = ("timestamp,rate_mm_per_hr\nnot-a-time,1\n"
                f"2010-01-01T00:00:00,{self.LONG}\n")
        with pytest.raises(ParseError, match="bad timestamp 'not-a-time'") as err:
            parse_rain_series(text)
        assert err.value.line == 2


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

    @pytest.mark.parametrize("altitude", ["nan", "inf", "-inf"])
    def test_non_finite_altitude_names_line(self, altitude):
        text = CATALOG + f"A,0,0,{altitude}\n"
        with pytest.raises(ParseError) as err:
            parse_station_catalog(text)
        assert err.value.line == 4

    def test_blank_line_skipped(self):
        text = CATALOG.replace("\nCairo", "\n\nCairo")
        assert parse_station_catalog(text) == parse_station_catalog(CATALOG)

    def test_round_trip(self):
        catalog = parse_station_catalog(packaged_catalog_text())
        text = catalog_to_csv(catalog)
        again = parse_station_catalog(text)
        assert again.stations == catalog.stations


class Reprised(float):
    """A float whose repr is not a number."""

    def __repr__(self):
        return f"Reprised({float(self)!r})"


def oracle_catalog_csv(catalog):
    """catalog_to_csv's former hand-written loop, altitudes in metres as
    catalog_table gives them."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rain_data.CATALOG_HEADER)
    for s, (*_, altitude_m) in zip(catalog.stations, rain_data.catalog_table(catalog)[1]):
        writer.writerow([s.name, repr(s.latitude_deg), repr(s.longitude_deg),
                         repr(altitude_m)])
    return out.getvalue()


def oracle_series_csv(series):
    """series_to_csv's former hand-written loop."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rain_data.SERIES_HEADER)
    for ts, rate in zip(series.times, series.rates):
        writer.writerow([ts.isoformat().replace("+00:00", "Z"), repr(rate)])
    return out.getvalue()


STATION_NAMES = st.lists(
    st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
            min_size=1, max_size=12).map(str.strip).filter(bool),
    min_size=1, max_size=8, unique=True)


class TestSerializers:
    """catalog_to_csv and series_to_csv write what the report writer
    writes; stations echo the altitudes their catalog was read from."""

    @pytest.mark.parametrize("kind", [np.float64, Reprised])
    def test_float_subclasses_round_trip(self, kind):
        catalog = StationCatalog(stations=tuple(
            GroundStation(s.name, kind(s.latitude_deg), kind(s.longitude_deg),
                          kind(s.altitude_km))
            for s in parse_station_catalog(packaged_catalog_text()).stations))
        text = catalog_to_csv(catalog)
        assert text == catalog_to_csv(parse_station_catalog(packaged_catalog_text()))
        assert parse_station_catalog(text) == catalog
        series = make_series([0.0, 1.5, 1.0 / 3.0, 102.99844352542164])
        subclassed = RainSeries("x", series.times, tuple(map(kind, series.rates)))
        assert series_to_csv(subclassed) == series_to_csv(series)
        assert parse_rain_series(series_to_csv(subclassed), station_ref="x") == series

    @settings(max_examples=100, deadline=None)
    @given(names=STATION_NAMES, data=st.data())
    def test_catalog_text_is_the_csv_writer_loop(self, names, data):
        degrees = st.floats(min_value=-90.0, max_value=90.0)
        catalog = StationCatalog(stations=tuple(
            GroundStation(name, data.draw(degrees), 2.0 * data.draw(degrees),
                          data.draw(st.floats(min_value=0.0, max_value=9.0)))
            for name in names))
        assert catalog_to_csv(catalog) == oracle_catalog_csv(catalog)

    @settings(max_examples=100, deadline=None)
    @given(rates=st.lists(st.floats(min_value=0.0, max_value=1e308), min_size=1, max_size=40),
           step=st.integers(min_value=1, max_value=10 ** 6))
    def test_series_text_is_the_csv_writer_loop(self, rates, step):
        series = make_series(rates, step_hours=step / 3600.0)
        assert series_to_csv(series) == oracle_series_csv(series)

    def test_fixture_and_quoted_names_are_the_csv_writer_loop(self):
        catalog = parse_quietly(CATALOG + '"Dakar, Senegal",14.7,-17.4,22\n'
                                '"say ""hi""",-1.3,36.8,1795.5\n')
        assert catalog_to_csv(catalog) == oracle_catalog_csv(catalog)
        assert '"Dakar, Senegal",14.7,-17.4,22.0\n' in catalog_to_csv(catalog)
        fixture = parse_station_catalog(packaged_catalog_text())
        assert catalog_to_csv(fixture) == oracle_catalog_csv(fixture)

    @settings(max_examples=300, deadline=None)
    @given(tenths=st.lists(st.integers(min_value=0, max_value=90000),
                           min_size=1, max_size=20))
    def test_one_decimal_altitudes_echo(self, tenths):
        metres = [t / 10.0 for t in tenths]
        text = "name,latitude_deg,longitude_deg,altitude_m\n" + "".join(
            f"S{i},0.0,{i / 100.0!r},{m!r}\n" for i, m in enumerate(metres))
        catalog = parse_quietly(text)
        assert catalog_to_csv(catalog) == text
        assert [row[3] for row in rain_data.catalog_table(catalog)[1]] == metres

    def test_altitude_float_noise_is_gone(self):
        catalog = parse_quietly("name,latitude_deg,longitude_deg,altitude_m\n"
                                "A,0.0,0.0,1009.0\nB,0.0,0.5,2001.1\n")
        assert [s.altitude_km * 1000.0 for s in catalog.stations] == [
            1008.9999999999999, 2001.1000000000001]
        assert catalog_to_csv(catalog).endswith("A,0.0,0.0,1009.0\nB,0.0,0.5,2001.1\n")

    @settings(max_examples=300, deadline=None)
    @given(metres=st.lists(st.floats(min_value=0.0, max_value=9000.0),
                           min_size=1, max_size=20))
    def test_any_altitude_round_trips(self, metres):
        catalog = parse_quietly("name,latitude_deg,longitude_deg,altitude_m\n" + "".join(
            f"S{i},0.0,{i / 100.0!r},{m!r}\n" for i, m in enumerate(metres)))
        assert parse_quietly(catalog_to_csv(catalog)) == catalog


def great_circle_km(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    """_haversine_km, the catalog's close-pair distance, between two points in degrees."""
    lat = [math.radians(lat1_deg), math.radians(lat2_deg)]
    lon = [math.radians(lon1_deg), math.radians(lon2_deg)]
    return rain_data._haversine_km(lat, lon, [math.cos(x) for x in lat], 0, 1)


def brute_force_close_pairs(stations):
    """The all-pairs loop: the oracle for the catalog's close-pair search."""
    close = []
    for i, a in enumerate(stations):
        for b in stations[i + 1:]:
            d = great_circle_km(a.latitude_deg, a.longitude_deg,
                                b.latitude_deg, b.longitude_deg)
            if d < MIN_SEPARATION_KM:
                close.append((a.name, b.name, d))
    return close


def catalog_text(points):
    rows = [f"S{i},{lat!r},{lon!r},0" for i, (lat, lon) in enumerate(points)]
    return "name,latitude_deg,longitude_deg,altitude_m\n" + "\n".join(rows)


def parse_quietly(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeparationWarning)
        return parse_station_catalog(text)


# the latitude gap, in degrees, of two stations on one meridian that are
# exactly the minimum separation apart
BAND_DEG = math.degrees(MIN_SEPARATION_KM / MEAN_EARTH_RADIUS_KM)

POINT_SPEC = st.tuples(
    st.sampled_from(["free", "copy", "band_edge"]),
    st.one_of(st.floats(-90.0, 90.0), st.sampled_from([-90.0, 90.0]),
              st.floats(85.0, 90.0), st.floats(-90.0, -85.0)),
    st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-180.0, 180.0]),
              st.floats(175.0, 180.0), st.floats(-180.0, -175.0)),
    st.integers(0, 10 ** 6),
    st.sampled_from([-1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9]))


def points_from_specs(specs):
    """Station coordinates from drawn specs: a free point, a copy of an
    earlier one (coincident stations), or an earlier one moved along its
    meridian by the band width scaled by 1 + offset (a latitude gap at the
    edge of the search band)."""
    points = []
    for kind, lat, lon, ref, offset in specs:
        if points and kind != "free":
            base_lat, base_lon = points[ref % len(points)]
            if kind == "copy":
                lat, lon = base_lat, base_lon
            else:
                sign = 1.0 if base_lat < 0.0 else -1.0
                lat, lon = base_lat + sign * BAND_DEG * (1.0 + offset), base_lon
        points.append((lat, lon))
    return points


# a failing example is reported as drawn: shrinking a 300-station example
# through the all-pairs oracle takes minutes
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


class TestClosePairSearch:
    @settings(max_examples=25, deadline=None, phases=NO_SHRINK)
    @given(st.integers(1, 300).flatmap(
        lambda n: st.lists(POINT_SPEC, min_size=n, max_size=n)))
    def test_equals_all_pairs_loop(self, specs):
        catalog = parse_quietly(catalog_text(points_from_specs(specs)))
        assert list(catalog.close_pairs) == \
            brute_force_close_pairs(catalog.stations)

    def test_band_edge_pairs_kept(self):
        # one meridian, latitude gaps just inside and just outside the band
        points = [(0.0, 10.0)]
        for k, offset in enumerate((-1e-12, -1e-15, 0.0, 1e-15, 1e-12)):
            points += [(-60.0 + k, 20.0 + k),
                       (-60.0 + k + BAND_DEG * (1.0 + offset), 20.0 + k)]
        catalog = parse_quietly(catalog_text(points))
        pairs = brute_force_close_pairs(catalog.stations)
        assert any(abs(d - MIN_SEPARATION_KM) < 1e-6 for _, _, d in pairs)
        assert list(catalog.close_pairs) == pairs

    def test_poles_antimeridian_and_coincident(self):
        points = [(90.0, 0.0), (90.0, 180.0), (89.0, -90.0), (-90.0, 5.0),
                  (-90.0, -5.0), (0.0, 180.0), (0.0, -180.0),
                  (1.0, 179.5), (1.0, -179.5), (12.0, 30.0), (12.0, 30.0)]
        catalog = parse_quietly(catalog_text(points))
        pairs = {(a, b) for a, b, _ in catalog.close_pairs}
        assert {("S0", "S1"), ("S3", "S4"), ("S5", "S6"), ("S7", "S8"),
                ("S9", "S10")} <= pairs
        assert list(catalog.close_pairs) == \
            brute_force_close_pairs(catalog.stations)

    def test_dense_african_catalog(self):
        rng = random.Random(20231)
        points = [(rng.uniform(-34.5, 37.0), rng.uniform(-17.5, 51.0))
                  for _ in range(1000)]
        catalog = parse_quietly(catalog_text(points))
        assert len(catalog.close_pairs) > 80000
        assert list(catalog.close_pairs) == \
            brute_force_close_pairs(catalog.stations)

    @settings(max_examples=25, deadline=None, phases=NO_SHRINK)
    @given(st.integers(1, 300).flatmap(
        lambda n: st.lists(POINT_SPEC, min_size=n, max_size=n)))
    def test_summary_equals_all_pairs_loop(self, specs):
        catalog = parse_quietly(catalog_text(points_from_specs(specs)))
        pairs = brute_force_close_pairs(catalog.stations)
        count, (d, i, j) = rain_data._close_pair_summary(catalog.stations)
        assert count == len(pairs)
        if pairs:
            names = [s.name for s in catalog.stations]
            assert (names[i], names[j], d) == min(pairs, key=lambda p: p[2])

    def test_summary_at_the_band_edge(self):
        # latitude gaps a few ulps either side of the threshold land in the
        # guard band, where the distance, not s, decides
        points = [(-60.0 + k, 20.0 + k) for k in range(7)]
        points += [(lat + BAND_DEG * (1.0 + offset), lon) for (lat, lon), offset
                   in zip(points, (-1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9))]
        catalog = parse_quietly(catalog_text(points))
        pairs = brute_force_close_pairs(catalog.stations)
        assert any(abs(d - MIN_SEPARATION_KM) < 1e-6 for _, _, d in pairs)
        count, (d, i, j) = rain_data._close_pair_summary(catalog.stations)
        assert count == len(pairs)
        assert (f"S{i}", f"S{j}", d) == min(pairs, key=lambda p: p[2])

    def test_pairs_exactly_at_the_threshold_are_not_close(self):
        # each pair's haversine argument is under sin^2(T / 2R), yet its
        # distance rounds to exactly T, so the all-pairs loop leaves it out
        points = [(-33.21024038728627, 67.09977562588992),
                  (-32.935273448056314, 45.60024179369027),
                  (-4.411664901931715, -46.35185167013438),
                  (13.114880346291418, -42.28268052941238)]
        s_max = math.sin(MIN_SEPARATION_KM / (2.0 * MEAN_EARTH_RADIUS_KM)) ** 2
        for (lat1, lon1), (lat2, lon2) in (points[:2], points[2:]):
            assert great_circle_km(lat1, lon1, lat2, lon2) == MIN_SEPARATION_KM
            lat1, lon1, lat2, lon2 = map(math.radians, (lat1, lon1, lat2, lon2))
            assert math.sin((lat2 - lat1) / 2.0) ** 2 + math.cos(lat1) \
                * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2 < s_max
        catalog = parse_quietly(catalog_text(points))
        assert catalog.close_pairs == ()
        assert rain_data._close_pair_summary(catalog.stations)[0] == 0

    def test_coincident_tie_goes_to_catalog_order(self):
        # S1/S2 and S0/S3 both sit 0 km apart; S1/S2 come first in latitude
        # order, S0/S3 first in the all-pairs loop
        text = ("name,latitude_deg,longitude_deg,altitude_m\n"
                "S0,20,5,0\nS1,-30,7,0\nS2,-30,7,0\nS3,20,5,0\n")
        with pytest.warns(SeparationWarning,
                          match="^2 station pairs .*closest: S0 and S3, 0 km"):
            catalog = parse_station_catalog(text)
        assert rain_data._close_pair_summary(catalog.stations) == (2, (0.0, 0, 3))
        assert list(catalog.close_pairs) == [("S0", "S3", 0.0), ("S1", "S2", 0.0)]

    def test_equal_km_tie_with_unequal_s_goes_to_catalog_order(self):
        # S2/S3 is measured first (lower latitude) and has the smaller
        # haversine argument, but both pairs round to the same km
        points = [(30.0, 10.0), (30.3, 10.4),
                  (-28.099898743575054, 12.878161692789071),
                  (-28.55572768004343, 12.927104256046798)]
        catalog = parse_quietly(catalog_text(points))
        pairs = brute_force_close_pairs(catalog.stations)
        assert [p[:2] for p in pairs] == [("S0", "S1"), ("S2", "S3")]
        assert pairs[0][2] == pairs[1][2]
        assert rain_data._close_pair_summary(catalog.stations) == \
            (2, (pairs[0][2], 0, 1))

    def test_summary_where_a_latitude_gap_underflows(self):
        # S0/S1's latitude gap is 3.7e-169 degrees, whose haversine term
        # underflows to 0; S1 is still measured after S0/S2, also 0 km apart,
        # has set the bound to 0, and the tie goes to S0/S1
        lat = -3.7048499121446723e-169
        points = [(lat, -180.0), (0.0, -180.0), (lat, -180.0)]
        assert [d for *_, d in assert_matches_all_pairs(points)] == [0.0] * 3
        catalog = parse_quietly(catalog_text(points))
        assert rain_data._close_pair_summary(catalog.stations) == (3, (0.0, 0, 1))

    def test_close_pairs_built_on_first_access(self):
        catalog = parse_quietly(catalog_text([(0.0, 0.0), (0.9, 0.0)]))
        assert "close_pairs" not in vars(catalog)
        pairs = catalog.close_pairs
        assert vars(catalog)["close_pairs"] is pairs
        assert catalog.close_pairs is pairs

    def test_one_summary_warning(self):
        text = ("name,latitude_deg,longitude_deg,altitude_m\n"
                "A,0.0,0.0,0\nB,0.9,0.0,0\nC,5,5,0\nD,60,0,0\n")
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            catalog = parse_station_catalog(text)
        assert [(a, b) for a, b, _ in catalog.close_pairs] == \
            [("A", "B"), ("A", "C"), ("B", "C")]
        assert len(record) == 1
        assert record[0].category is SeparationWarning
        message = str(record[0].message)
        assert message.startswith("3 station pairs")
        assert "A and B, 100 km apart" in message

    def test_duplicate_names_checked_before_search(self):
        text = ("name,latitude_deg,longitude_deg,altitude_m\n"
                "X,0,0,0\nX,5,5,5\nY,1,1,1\nY,2,2,2\nZ,3,3,3\n")
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError, match="names: X, Y$"):
                parse_station_catalog(text)
        assert record == []

    def test_stations_one_ulp_about_strip_edges(self):
        # stations at each strip's least latitude as the search computes it,
        # one ulp below it (the greatest of the strip under it) and one ulp
        # above: corners of every strip pair
        points = []
        for k in (-20, -13, -5, -1, 0, 1, 2, 6, 13, 19, 20):
            edge = strip_edge_deg(k)
            for n, lat in enumerate((math.nextafter(edge, -90.0), edge,
                                     math.nextafter(edge, 90.0))):
                # a partner on the parallel just inside the cap, or across the pole
                rim = rim_longitude(lat, lat) * (1.0 - 1e-9) if abs(lat) < 80.0 else 150.0
                lon = (37.0 * k + 2.5 * n) % 360.0 - 180.0
                points += [(lat, lon), (lat, (lon + rim + 180.0) % 360.0 - 180.0)]
        pairs = assert_matches_all_pairs(points)
        assert len(pairs) > 100

    def test_strips_of_one_station(self):
        # each station is alone in its strip, so the strip pair's corners are
        # the pair itself; partners 1 m inside or outside the minimum
        # separation tell the 1e-6 shrink and widen of the caps apart
        points = []
        for j, (lat_a, lat_b) in enumerate(((-80.0, -71.0), (-60.0, -55.0), (-40.0, -31.0),
                                            (-20.0, -11.0), (0.0, 9.0), (20.0, 25.0),
                                            (40.0, 49.0), (60.0, 69.0), (76.0, 83.0))):
            angle = THETA * (1.0 + (5e-7 if j % 2 else -5e-7))
            lon = 180.0 * (j % 2) - 170.0
            points += [(lat_a, lon), (lat_b, lon + rim_longitude(lat_a, lat_b, angle))]
        catalog = parse_quietly(catalog_text(points))
        strips = Counter(math.floor(math.radians(s.latitude_deg) / (THETA / 4.0))
                         for s in catalog.stations)
        assert set(strips.values()) == {1}
        pairs = assert_matches_all_pairs(points)
        assert [(a, b) for a, b, _ in pairs] == [(f"S{j}", f"S{j + 1}") for j in (0, 4, 8, 12, 16)]
        assert all(0.0009 < MIN_SEPARATION_KM - d < 0.0011 for *_, d in pairs)

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_strip_pair_exactly_the_reach_apart(self, ulps):
        # the lowest station of T sits _REACH (or one ulp less or more) above
        # the highest of S: the first strip pair past the reach is skipped
        points = []
        for lat_a, lon in ((0.0, 10.0), (-30.0, 60.0), (45.0, -100.0)):
            lat_b = math.degrees(math.radians(lat_a) + rain_data._REACH)
            while math.radians(lat_b) - math.radians(lat_a) > rain_data._REACH:
                lat_b = math.nextafter(lat_b, -90.0)
            while math.radians(lat_b) - math.radians(lat_a) < rain_data._REACH:
                lat_b = math.nextafter(lat_b, 90.0)
            assert math.radians(lat_b) - math.radians(lat_a) == rain_data._REACH
            for _ in range(abs(ulps)):
                lat_b = math.nextafter(lat_b, 90.0 * ulps)
            points += [(lat_a, lon), (lat_a - 2.0, lon + 3.0), (lat_b, lon),
                       (lat_b + 2.0, lon - 1.0), (lat_b + 3.0, lon + 2.0)]
        pairs = assert_matches_all_pairs(points)
        assert len(pairs) == 12  # four in each group, none across the reach

    def test_windows_wider_than_pi_near_a_pole(self):
        # caps about stations above 72 degrees hold the pole: the outer window
        # in a strip above is all of it, the inner only part, so the ring
        # wraps from one side of the inner window around to the other
        points = [(lat, lon) for lat in (72.5, 76.0, 80.0, 85.0, 89.5, 90.0)
                  for lon in (-180.0, -135.0, -60.0, 0.0, 45.0, 100.0, 179.9, 180.0)]
        points += [(-lat, -lon) for lat, lon in points[::3]]
        pairs = assert_matches_all_pairs(points)
        opposite = [(a, b) for a, b, _ in pairs
                    if abs(points[int(a[1:])][1] - points[int(b[1:])][1]) >= 170.0]
        assert len(opposite) > 50
        assert len(pairs) < len(points) * (len(points) - 1) // 2


# the latitude strips of the close-pair search are a quarter of this angle
THETA = MIN_SEPARATION_KM / MEAN_EARTH_RADIUS_KM


def strip_edge_deg(k):
    """The least latitude, degrees, that the close-pair search puts in strip
    k, the one from k * THETA / 4 radians up."""
    def strip(deg):
        return math.floor(math.radians(deg) / (THETA / 4.0))
    lat = math.degrees(k * THETA / 4.0)
    while strip(lat) >= k:
        lat = math.nextafter(lat, -90.0)
    while strip(lat) < k:
        lat = math.nextafter(lat, 90.0)
    return lat


def assert_matches_all_pairs(points):
    """The count, the closest pair and close_pairs all equal the all-pairs
    loop's; returns its pairs."""
    catalog = parse_quietly(catalog_text(points))
    pairs = brute_force_close_pairs(catalog.stations)
    count, (d, i, j) = rain_data._close_pair_summary(catalog.stations)
    assert count == len(pairs)
    if pairs:
        assert (f"S{i}", f"S{j}", d) == min(pairs, key=lambda p: p[2])
    assert list(catalog.close_pairs) == pairs
    return pairs


def rim_longitude(lat_a, lat_b, angle=THETA):
    """The longitude offset, degrees, at which latitude lat_b meets the
    circle of radius angle about a station at lat_a."""
    pa, pb = math.radians(lat_a), math.radians(lat_b)
    return math.degrees(math.acos((math.cos(angle) - math.sin(pa) * math.sin(pb))
                                  / (math.cos(pa) * math.cos(pb))))


class TestClosePairStrips:
    def test_stations_on_strip_edges(self):
        points = []
        for k in range(-5, 6):
            edge = math.degrees(k * THETA / 4.0)
            for n, lat in enumerate((math.nextafter(edge, -90.0), edge,
                                     math.nextafter(edge, 90.0))):
                points.append((lat, 3.0 * k + 0.7 * n))
                points.append((lat, 3.0 * k + 0.7 * n + 17.5))
        pairs = assert_matches_all_pairs(points)
        assert len(pairs) > 300

    def test_strip_with_one_station(self):
        # the station at 0 degrees is alone in its strip, partners above and
        # below, up to four strips away
        points = [(0.0, 20.0), (-17.9, 20.0), (-9.0, 24.0), (8.0, 27.0),
                  (17.95, 20.0), (17.0, 25.0), (30.0, 20.0)]
        pairs = assert_matches_all_pairs(points)
        assert {("S0", f"S{k}") for k in range(1, 6)} <= \
            {(a, b) for a, b, _ in pairs}

    def test_rim_of_the_cap_is_decided_by_distance(self):
        # partners a few ulps either side of the circle of radius THETA; some
        # land at exactly 2000 km or more though inside the circle as computed
        points = []
        for lat_a, lat_b in ((10.0, 18.0), (-20.0, -12.5), (30.0, 35.0)):
            points.append((lat_a, 10.0))
            w = rim_longitude(lat_a, lat_b)
            points += [(lat_b, 10.0 + w * (1.0 + k * 1e-15)) for k in range(-3, 4)]
        catalog = parse_quietly(catalog_text(points))
        kms = [great_circle_km(a.latitude_deg, a.longitude_deg,
                               b.latitude_deg, b.longitude_deg)
               for a in catalog.stations for b in catalog.stations]
        assert any(d == MIN_SEPARATION_KM or 0.0 < d - MIN_SEPARATION_KM < 1e-9
                   for d in kms)
        assert assert_matches_all_pairs(points)

    def test_widest_parallel_inside_a_strip(self):
        # a partner near the widest point of the cap, at sin(phi*) =
        # sin(lat) / cos(THETA), between two members of its strip
        points = []
        for lat_a in (10.0, 40.0):
            star = math.degrees(math.asin(math.sin(math.radians(lat_a))
                                          / math.cos(THETA)))
            widest = math.degrees(math.asin(math.sin(THETA)
                                            / math.cos(math.radians(lat_a))))
            points += [(lat_a, 0.0), (star - 1.5, 120.0), (star + 1.5, 120.0),
                       (star, widest * (1.0 - 1e-6))]
        pairs = assert_matches_all_pairs(points)
        assert {("S0", "S3"), ("S4", "S7")} <= {(a, b) for a, b, _ in pairs}

    def test_cap_holding_a_pole(self):
        # from 80 degrees the cap covers the pole: partners at 89.9 degrees
        # on other meridians, and at 85 degrees across the pole
        points = [(80.0, 0.0)] + [(89.9, lon) for lon in (-135.0, -90.0, 45.0, 180.0)]
        points += [(85.0, 180.0), (75.0, 180.0), (-80.0, 10.0), (-89.9, -170.0)]
        pairs = assert_matches_all_pairs(points)
        assert {("S0", "S4"), ("S0", "S5"), ("S7", "S8")} <= \
            {(a, b) for a, b, _ in pairs}
        assert ("S0", "S6") not in {(a, b) for a, b, _ in pairs}

    def test_windows_of_pi_or_more(self):
        # near a pole whole parallels sit inside each cap: every pair of the
        # ring is close, opposite meridians and the antimeridian included
        points = [(88.0, lon) for lon in (-180.0, -90.0, 0.0, 90.0, 180.0)]
        points += [(89.99, 45.0), (84.0, -45.0), (-86.0, 180.0), (-86.0, 0.0)]
        pairs = assert_matches_all_pairs(points)
        assert ("S1", "S3") in {(a, b) for a, b, _ in pairs}
        assert ("S7", "S8") in {(a, b) for a, b, _ in pairs}

    def test_window_across_the_antimeridian(self):
        # each station's only partners sit on the other side of +-180
        points = [(0.0, 179.0), (2.0, -178.0), (-3.0, -170.0), (10.0, -175.0),
                  (-40.0, -179.5), (-43.0, 175.0), (-35.0, 165.0),
                  (60.0, 20.0)]
        pairs = assert_matches_all_pairs(points)
        assert {(a, b) for a, b, _ in pairs} == {
            ("S0", "S1"), ("S0", "S2"), ("S0", "S3"), ("S1", "S2"),
            ("S1", "S3"), ("S2", "S3"), ("S4", "S5"), ("S4", "S6"),
            ("S5", "S6")}

    def test_coincident_stations_in_several_strips(self):
        # 0 km pairs in three strips; the tie goes to the first in catalog
        # order, which is not the first in latitude
        edge = math.degrees(2 * THETA / 4.0)
        points = [(edge, 5.0), (-30.0, 7.0), (-30.0, 7.0), (edge, 5.0),
                  (50.0, -60.0), (50.0, -60.0), (edge, 5.0)]
        pairs = assert_matches_all_pairs(points)
        assert [p for p in pairs if p[2] == 0.0] == [
            ("S0", "S3", 0.0), ("S0", "S6", 0.0), ("S1", "S2", 0.0),
            ("S3", "S6", 0.0), ("S4", "S5", 0.0)]

    def test_dense_african_catalog_of_1500_sites(self):
        rng = random.Random(20232)
        points = [(rng.uniform(-34.5, 37.0), rng.uniform(-17.5, 51.0))
                  for _ in range(1500)]
        assert len(assert_matches_all_pairs(points)) > 180000


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

    def test_lowercase_z_read_as_utc(self):
        # the bulk pass declines lowercase z, so the row loop reads these
        text = ("timestamp,rate_mm_per_hr\n"
                "2010-01-01T00:00:00Z,0.1\n"
                "2010-01-01T01:30:00Z,0.2\n")
        lower = parse_rain_series(text.replace("Z,", "z,"))
        assert lower.times == parse_rain_series(text).times
        assert lower.times[1] == datetime(2010, 1, 1, 1, 30, tzinfo=timezone.utc)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            parse_rain_series("timestamp,rate_mm_per_hr\n")

    def test_round_trip(self):
        rng = random.Random(3)
        series = make_series([rng.uniform(0.0, 5.0) for _ in range(48)])
        again = parse_rain_series(series_to_csv(series))
        assert again.samples == series.samples


    @pytest.mark.parametrize("rate", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_rate_names_line(self, rate):
        text = ("timestamp,rate_mm_per_hr\n"
                "2010-01-01T00:00:00Z,1\n"
                f"2010-01-01T01:00:00Z,{rate}\n"
                "2010-01-01T02:00:00Z,3\n")
        with pytest.raises(ParseError, match="non-finite rate") as err:
            parse_rain_series(text)
        assert err.value.line == 3

    def test_columns_and_samples_agree(self):
        series = make_series([0.5, 0.0, 2.25])
        assert series.rates == (0.5, 0.0, 2.25)
        assert series.samples == tuple(zip(series.times, series.rates))
        assert RainSeries("x", series.times, series.rates) == series

    def test_column_lengths_must_match(self):
        with pytest.raises(DomainError):
            RainSeries("x", (datetime(2010, 1, 1, tzinfo=timezone.utc),), ())


UTC_OFFSETS = ["Z", "+00:00", "-00:00"]
OTHER_OFFSETS = ["+02:00", "-05:30", "naive"]


def stamp_text(ts: datetime, offset: str) -> str:
    """ts (UTC) written with the given offset, or naive."""
    if offset == "naive":
        return ts.replace(tzinfo=None).isoformat()
    if offset in UTC_OFFSETS:
        return ts.isoformat().replace("+00:00", offset)
    sign = 1 if offset[0] == "+" else -1
    hours, minutes = map(int, offset[1:].split(":"))
    zone = timezone(sign * timedelta(hours=hours, minutes=minutes))
    return ts.astimezone(zone).isoformat()


RATE_TEXT = st.one_of(
    st.floats(min_value=0.0, max_value=1e6).map(repr),
    st.integers(min_value=0, max_value=500).map(str),
    st.floats(min_value=0.0, max_value=100.0).map(lambda r: f"{r:.2f}"),
    st.floats(min_value=0.0, max_value=100.0).map(lambda r: f"{r:e}"))


@st.composite
def series_lines(draw, offsets):
    """Body lines of a valid series: strictly increasing UTC instants,
    each stamp written with one of offsets, rates as text."""
    n = draw(st.integers(min_value=1, max_value=30))
    ts = datetime(2010, 1, 1, tzinfo=timezone.utc)
    lines = []
    for _ in range(n):
        ts += timedelta(seconds=draw(st.integers(1, 10 ** 7)),
                        microseconds=draw(st.sampled_from([0, 0, 500000, 7])))
        lines.append(f"{stamp_text(ts, draw(st.sampled_from(offsets)))},"
                     f"{draw(RATE_TEXT)}")
    return lines


def series_text(lines, final_newline=True):
    return "\n".join(["timestamp,rate_mm_per_hr"] + lines) \
        + ("\n" if final_newline else "")


def outcome(parse, text):
    """What parsing text gives, once RainSeries has checked the columns:
    the columns, or the error raised."""
    try:
        series = RainSeries("", *parse(text))
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    assert all(t.tzinfo is timezone.utc for t in series.times)
    return series.times, series.rates


def declined(text):
    """Whether parse_rain_series leaves text to the row loop: the bulk pass
    declines it, or RainSeries rejects the columns the pass gives."""
    columns = rain_data._parse_columns(text)
    if columns is None:
        return True
    try:
        RainSeries("", *columns)
    except (DomainError, ValidationError):
        return True
    return False


def bulk_first(text):
    series = parse_rain_series(text)
    return series.times, series.rates


def mutate(lines, kind, i, token):
    """lines with one defect of the given kind at line i; the kinds that
    need a line before or after i leave the lines as they are without
    one. token is the text a "rate", "extra_field" or "stamp" defect
    writes."""
    lines = list(lines)
    stamp, rate = lines[i].split(",")
    if kind == "blank":
        lines.insert(i, "")
    elif kind == "quote":
        lines[i] = f'"{stamp}",{rate}'
    elif kind == "lead_space":
        lines[i] = f" {stamp},{rate}"
    elif kind == "trail_space":
        lines[i] = f"{stamp} ,{rate}"
    elif kind == "lower_z":
        lines[i] = f"{stamp[:-1]}z,{rate}"
    elif kind == "repeat" and i > 0:
        lines[i] = f"{lines[i - 1].split(',')[0]},{rate}"
    elif kind == "swap" and i > 0:
        previous = lines[i - 1].split(",")
        lines[i - 1], lines[i] = f"{stamp},{previous[1]}", \
            f"{previous[0]},{rate}"
    elif kind == "rate":
        lines[i] = f"{stamp},{token}"
    elif kind == "extra_field":
        lines[i] = f"{stamp},{rate},{token}"
    elif kind == "one_field":
        lines[i] = stamp
    elif kind == "shifted_field" and i + 1 < len(lines):
        # the rate moved to the start of the next line: one comma per line
        # on average, and the cells still alternate stamp, rate
        lines[i], lines[i + 1] = stamp, f"{rate},{lines[i + 1]}"
    elif kind == "stamp":
        lines[i] = f"{token},{rate}"
    return lines


VALID_SERIES = dict(lines=series_lines(UTC_OFFSETS + OTHER_OFFSETS),
                    final_newline=st.booleans())
SERIES_DEFECTS = dict(
    lines=series_lines(["Z", "+00:00"]),
    kind=st.sampled_from(["blank", "crlf", "quote", "lead_space",
                          "trail_space", "lower_z",
                          "repeat", "swap", "rate", "extra_field",
                          "one_field", "shifted_field", "stamp",
                          "header"]),
    where=st.integers(min_value=0),
    token=st.sampled_from(["-1", "-0.5", "-0.0", "nan", "inf", "-inf",
                           "NaN", "1e999", "abc", "", " 2.5 ",
                           "not-a-time", "2010-13-01T00:00:00Z"]),
    final_newline=st.booleans())


class TestBulkParse:
    """parse_rain_series parses plain text in bulk and leaves the rest to
    the row loop; both must give what the row loop alone gives."""

    @settings(max_examples=150, deadline=None)
    @given(**VALID_SERIES)
    def test_agrees_with_row_loop_on_valid_series(self, lines, final_newline):
        text = series_text(lines, final_newline)
        expected = outcome(rain_data._parse_rows, text)
        assert isinstance(expected[0], tuple)
        assert outcome(bulk_first, text) == expected

    @settings(max_examples=100, deadline=None)
    @given(lines=series_lines(UTC_OFFSETS), final_newline=st.booleans())
    def test_utc_series_take_the_bulk_path(self, lines, final_newline):
        text = series_text(lines, final_newline)
        columns = rain_data._parse_columns(text)
        assert columns is not None
        assert outcome(lambda _: columns, text) == outcome(
            rain_data._parse_rows, text)

    @settings(max_examples=300, deadline=None)
    @given(**SERIES_DEFECTS)
    def test_agrees_with_row_loop_on_defects(self, lines, kind, where, token,
                                             final_newline):
        i = where % len(lines)
        if kind == "crlf":
            text = series_text(lines, final_newline).replace("\n", "\r\n")
        elif kind == "header":
            text = series_text(lines, final_newline).replace(
                "timestamp,", "timestamp ,", 1)
        else:
            text = series_text(mutate(lines, kind, i, token), final_newline)
        expected = outcome(rain_data._parse_rows, text)
        assert outcome(bulk_first, text) == expected
        if not isinstance(expected[0], tuple):
            # the row loop rejects it, so the bulk path must have left it there
            assert declined(text)

    # the two agreement properties again, with chunks of a few dozen
    # characters, so that most texts cross several chunk boundaries

    @settings(max_examples=150, deadline=None)
    @given(**VALID_SERIES)
    def test_agrees_with_row_loop_on_valid_series_in_small_chunks(self, **drawn):
        with mock.patch.object(rain_data, "_CHUNK_CHARS", 40):
            self.test_agrees_with_row_loop_on_valid_series.hypothesis.inner_test(
                self, **drawn)

    @settings(max_examples=300, deadline=None)
    @given(**SERIES_DEFECTS)
    def test_agrees_with_row_loop_on_defects_in_small_chunks(self, **drawn):
        with mock.patch.object(rain_data, "_CHUNK_CHARS", 40):
            self.test_agrees_with_row_loop_on_defects.hypothesis.inner_test(
                self, **drawn)

    @pytest.mark.parametrize("text", [
        "",
        "timestamp,rate_mm_per_hr",
        "timestamp,rate_mm_per_hr\n",
        "timestamp,rate_mm_per_hr\n\n",
        "timestamp,rate\n2010-01-01T00:00:00Z,1\n",
        # the right number of commas, but not one on every line
        "timestamp,rate_mm_per_hr\n"
        "2010-01-01T00:00:00Z,1,2010-01-02T00:00:00Z\n2\n",
    ])
    def test_degenerate_texts_match_row_loop(self, text):
        assert declined(text)
        assert outcome(bulk_first, text) == outcome(rain_data._parse_rows,
                                                    text)

    def test_plain_series_never_reach_the_row_loop(self, monkeypatch):
        rng = random.Random(11)
        series = make_series([round(rng.lognormvariate(0.6, 1.2), 2)
                              if rng.random() < 0.1 else 0.0
                              for _ in range(2000)], step_hours=0.5)
        text = series_to_csv(series)

        def row_loop(text):
            raise AssertionError("row loop reached for a plain series")

        monkeypatch.setattr(rain_data, "_parse_rows", row_loop)
        assert parse_rain_series(text, station_ref="x") == series
        offsets = text.replace("Z,", "+00:00,").rstrip("\n")
        assert parse_rain_series(offsets, station_ref="x") == series

    def test_every_utc_spelling_gives_one_series(self):
        text = series_to_csv(make_series([0.0, 1.5, 0.25, 4.0]))
        spelled = [text.replace("Z,", offset + ",") for offset in UTC_OFFSETS]
        assert all(rain_data._parse_columns(t) is not None for t in spelled)
        series = [parse_rain_series(t, station_ref="x") for t in spelled]
        assert series[0] == series[1] == series[2] == make_series(
            [0.0, 1.5, 0.25, 4.0])
        assert {t.tzinfo for s in series for t in s.times} == {timezone.utc}

    def test_naive_stamp_among_z_stamps_declines(self):
        # one comma fewer follows a Z than there are commas, so the chunk
        # keeps the tzinfo check, which the naive stamp fails
        lines = [f"2010-01-01T0{h}:00:00Z,{h}.5" for h in range(6)]
        lines[3] = "2010-01-01T03:00:00,3.5"
        text = series_text(lines)
        assert rain_data._parse_columns(text) is None
        expected = outcome(rain_data._parse_rows, text)
        assert isinstance(expected[0], tuple)
        assert outcome(bulk_first, text) == expected

    @pytest.mark.parametrize("line, after, message", [
        ("2010-01-01T02:00:00Z,1Z", "2010-01-01T03:00:00Z,2.5",
         "could not convert string to float: '1Z'"),
        # as many commas as lines, each after a Z, but two on one line and
        # none on the next: the cells still alternate valid stamps and rates,
        # but for the 1Z that a comma after a Z made a rate
        ("2010-01-01T02:00:00Z,1Z,2010-01-01T03:00:00Z", "2.5",
         "expected 2 fields, got 3"),
    ], ids=["rate", "two_commas"])
    def test_rate_ending_in_z_declines(self, line, after, message):
        text = series_text(["2010-01-01T00:00:00Z,0.5", "2010-01-01T01:00:00Z,1.5",
                            line, after])
        body = text.split("\n", 1)[1]
        assert body.count("Z,") == body.count(",") == body.count("\n")
        assert rain_data._parse_columns(text) is None
        with pytest.raises(ParseError) as err:
            parse_rain_series(text)
        assert (str(err.value), err.value.line) == (f"line 4: {message}", 4)
        assert outcome(bulk_first, text) == outcome(rain_data._parse_rows, text)


class TestChunkBoundaries:
    """Defects where one chunk of the bulk pass ends and the next begins:
    the pass declines, or RainSeries rejects its columns, and the row loop
    names the line."""

    # 25 characters each with its newline: chunks of 2 * 25 - 1 characters,
    # each cut at the next newline, hold lines 0-1, 2-3 and 4-5
    LINES = [f"2010-01-01T0{h}:00:00Z,{r}"
             for h, r in enumerate([0.5, 1.5, 0.0, 2.5, 0.0, 3.5])]

    @pytest.fixture(autouse=True)
    def two_line_chunks(self, monkeypatch):
        monkeypatch.setattr(rain_data, "_CHUNK_CHARS", 2 * 25 - 1)

    @pytest.mark.parametrize("kind, token, message, owner", [
        ("repeat", "", "timestamp 2010-01-01T01:00:00Z not after the previous row", "record"),
        ("swap", "", "timestamp 2010-01-01T01:00:00Z not after the previous row", "record"),
        ("rate", "nan", "non-finite rate nan", "record"),
        ("one_field", "", "expected 2 fields, got 1", "pass"),
    ], ids=["repeat", "swap", "nan", "no_comma"])
    def test_defect_declines_to_the_row_loop(self, kind, token, message, owner):
        # each defect is in LINES[2], line 4 of the file: the first line of
        # the second chunk. The form is the pass's rule; order and rates
        # are the record's, which rejects the columns the pass gives
        text = series_text(mutate(self.LINES, kind, 2, token))
        columns = rain_data._parse_columns(text)
        if owner == "pass":
            assert columns is None
        else:
            with pytest.raises(DomainError):
                RainSeries("", *columns)
        with pytest.raises(ParseError) as err:
            parse_rain_series(text)
        assert (str(err.value), err.value.line) == (f"line 4: {message}", 4)
        assert outcome(bulk_first, text) == outcome(rain_data._parse_rows, text)

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_valid_text_takes_the_bulk_path(self, final_newline):
        text = series_text(self.LINES, final_newline)
        columns = rain_data._parse_columns(text)
        assert columns is not None
        assert outcome(lambda _: columns, text) == outcome(
            rain_data._parse_rows, text)
        assert tuple(columns[1]) == (0.5, 1.5, 0.0, 2.5, 0.0, 3.5)

    def test_z_chunk_then_offset_chunks(self):
        # lines 2-5 are 30 characters each with their newline, so the chunks
        # still hold lines 0-1 (Z), 2-3 (+00:00) and 4-5 (-00:00); only the
        # first is proved UTC by one count
        offsets = ["Z"] * 2 + ["+00:00"] * 2 + ["-00:00"] * 2
        text = series_text([line.replace("Z,", offset + ",")
                            for line, offset in zip(self.LINES, offsets)])
        columns = rain_data._parse_columns(text)
        assert columns is not None
        assert outcome(lambda _: columns, text) == outcome(rain_data._parse_rows, text)
        assert tuple(columns[1]) == (0.5, 1.5, 0.0, 2.5, 0.0, 3.5)


class TestBulkParseMemory:
    def test_peak_is_the_series_and_one_chunk(self):
        """Two years of 30-minute samples, most of them dry: the bulk pass
        holds the parsed series and one chunk, never the whole file as
        lines or cells, and each distinct rate text is one float."""
        rng = random.Random(29)
        text = series_to_csv(make_series(
            [round(rng.lognormvariate(0.6, 1.2), 2) if rng.random() < 0.1
             else 0.0 for _ in range(35_040)], step_hours=0.5))
        tracemalloc.start()
        try:
            series = parse_rain_series(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        floats = {id(r): r for r in series.rates}
        assert len(floats) == len(set(series.rates))
        held = sum(map(sys.getsizeof, (series.times, series.rates, *series.times,
                                       *floats.values())))
        assert peak < held + (1 << 20)


class TestRowLoopMemory:
    def test_row_loop_shares_one_float_per_rate_text(self):
        """A naive-stamp series goes through the row loop, which shares a
        float per distinct rate text as the bulk pass does."""
        start = datetime(2010, 1, 1)
        lines = [f"{(start + timedelta(minutes=30 * k)).isoformat()},"
                 f"{['0.0', '2.5', '12.25'][k % 3]}" for k in range(30)]
        text = series_text(lines)
        assert rain_data._parse_columns(text) is None
        rates = parse_rain_series(text).rates
        assert rates == (0.0, 2.5, 12.25) * 10
        assert len({id(r) for r in rates}) == 3
        assert rates[1] is rates[4] is rates[28]


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

    def test_overflow_is_domain_error(self):
        # finite rates whose sum, or whose year's accumulation, overflows
        with pytest.raises(DomainError, match="float range"):
            mean_rain_rate(make_series([1e308, 1e308]))
        assert mean_rain_rate(make_series([1e308])) == 1e308
        with pytest.raises(DomainError, match="overflows"):
            annual_accumulation(1e308)
        assert annual_accumulation(1e300) == 1e300 * 8766.0

    def test_empty_series_has_no_mean(self):
        # a series has at least one sample, checked when it is built
        with pytest.raises(ValidationError, match="^series has no sample rows$"):
            mean_rain_rate(RainSeries("x"))

    def test_negative_mean_rate_or_accumulation_rejected(self):
        with pytest.raises(DomainError, match="mean rate -1.0 must be >= 0"):
            annual_accumulation(-1.0)
        with pytest.raises(DomainError, match="accumulation -1.0 must be >= 0"):
            chebil_r001(-1.0)

    def test_one_sample_has_no_spacing(self):
        assert make_series([3.0]).mean_spacing_hours() == 0.0
        assert make_series([3.0, 1.0], step_hours=0.5).mean_spacing_hours() == 0.5

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

    def test_empty_series_rejected(self):
        # a series has at least one sample, checked when it is built
        with pytest.raises(ValidationError, match="^series has no sample rows$"):
            empirical_exceedance_rate(RainSeries("x", samples=()), 0.01)

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
        with pytest.warns(CadenceWarning), pytest.warns(
                CoverageWarning, match="'TRMM': 120 samples are too few"):
            value = resolve_r001(series, Strategy.EMPIRICAL_EXCEEDANCE, "TRMM")
        assert value == 0.4

    @pytest.mark.parametrize("step_hours, coarse", [(672.0, True), (671.0, False)])
    def test_coarse_cadence_from_28_days_of_mean_spacing(self, step_hours, coarse):
        series = make_series([0.1, 0.2, 0.3], step_hours=step_hours)
        assert series.mean_spacing_hours() == step_hours
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            resolve_r001(series, Strategy.EMPIRICAL_EXCEEDANCE, "gauge")
        assert [type(w.message) for w in record] == \
            [CadenceWarning] * coarse + [CoverageWarning]

    def test_empirical_on_fine_cadence_silent(self):
        import warnings as _warnings
        series = make_series([0.1, 9.0] * 40, step_hours=0.5)
        with _warnings.catch_warnings(record=True) as record:
            _warnings.simplefilter("always")
            value = resolve_r001(series, Strategy.EMPIRICAL_EXCEEDANCE,
                                 "gauge")
        assert value == 9.0
        assert not any(isinstance(w.message, CadenceWarning) for w in record)

    @pytest.mark.parametrize("count", [9999, 10000])
    def test_empirical_on_short_series_warns_coverage(self, count):
        series = make_series([0.0] * (count - 1) + [7.0], step_hours=0.5)
        with pytest.warns(CoverageWarning,
                          match=rf"'gauge': {count} samples .* needs more "
                                r"than 10000"):
            value = resolve_r001(series, Strategy.EMPIRICAL_EXCEEDANCE,
                                 "gauge")
        assert value == 7.0

    @pytest.mark.parametrize("count, strategy", [
        (10001, Strategy.EMPIRICAL_EXCEEDANCE),
        (12, Strategy.CHEBIL_ANNUAL)])
    def test_no_coverage_warning(self, count, strategy):
        series = make_series([0.5] * count, step_hours=0.5)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            resolve_r001(series, strategy, "gauge")
        assert record == []
