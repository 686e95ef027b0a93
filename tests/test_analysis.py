from __future__ import annotations

import csv
import io
import json
import math
import random
from collections.abc import Iterator
from contextlib import nullcontext
from operator import itemgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rainlink import (ConfigError, DomainError, DuplicateWarning,
                      GroundStation, LinkResult, Polarization,
                      ResolvedSource, StationCatalog, SweepTable,
                      TransmissionParams, UnsupportedRegimeError, UsageError,
                      ValidationError,
                      attenuation_curve,
                      availability_sweep, compare_sources, emit_report,
                      evaluate_link, overestimation_percentage,
                      packaged_catalog_text, parse_station_catalog,
                      rain_slant_path, rank_stations, regression_coefficients)
import rainlink.analysis as analysis
import rainlink.attenuation as attenuation
from rainlink.analysis import (COMPARISON_COLUMNS, SWEEP_COLUMNS,
                               parse_report_csv, plot_data_table, write_report)
from rainlink.errors import Record


def uplink_params(**overrides):
    fields = dict(frequency_GHz=28.5, bandwidth_Hz=2.1e9, eirp_dBW=75.9,
                  elevation_deg=20.0, receiver_gain_dBi=31.8,
                  system_temperature_K=868.4, required_margin_dB=0.36,
                  satellite_altitude_km=1200.0)
    fields.update(overrides)
    return TransmissionParams(**fields)


def astuple(record) -> tuple:
    """The record's field values in field order, read one at a time."""
    return tuple(getattr(record, name) for name in type(record).__annotations__)


def catalog():
    return parse_station_catalog(packaged_catalog_text())


def results_from(attens, p=0.01, label="ITU"):
    return [evaluate_link(name, label, p, a, uplink_params(),
                          mode="calibrated", k_clear_dB=3.0665)
            for name, a in attens.items()]


ITU_ATTEN = {"Abuja": 34.1808, "Hartbeesthoek": 49.0126, "Cairo": 31.6560,
             "Longonot": 40.2605, "Port Louis": 27.5556, "Praia": 28.0972}
GPM_ATTEN = {"Abuja": 10.3059, "Hartbeesthoek": 22.7947, "Cairo": -13.2802,
             "Longonot": 16.3896, "Port Louis": 0.7753, "Praia": -1.3956}


class TestOverestimation:
    def test_reference_rows(self):
        assert round(overestimation_percentage(31.6560, -13.2802)) == 142
        assert round(overestimation_percentage(34.1808, 10.3059)) == 70

    def test_equal_inputs_zero(self):
        assert overestimation_percentage(7.5, 7.5) == 0.0

    def test_undefined_baseline(self):
        with pytest.raises(DomainError):
            overestimation_percentage(0.0, 1.0)
        with pytest.raises(DomainError):
            overestimation_percentage(-3.0, 1.0)

    def test_share_identity(self):
        rng = random.Random(41)
        for _ in range(50):
            b = rng.uniform(0.1, 60.0)
            e = rng.uniform(-20.0, 60.0)
            got = overestimation_percentage(b, e)
            want = 100.0 - 100.0 * e / b
            assert abs(got - want) <= 1e-12 * max(abs(got), abs(want), 1.0)


class TestCompareSources:
    def test_reference_percentages(self):
        rows = compare_sources(results_from(ITU_ATTEN),
                               results_from(GPM_ATTEN, label="GPM"))
        expected = {"Abuja": 70, "Hartbeesthoek": 54, "Cairo": 142,
                    "Longonot": 59, "Port Louis": 97, "Praia": 105}
        for row in rows:
            assert abs(row.overestimation_percent
                       - expected[row.station_ref]) <= 1.0
            assert abs(round(row.overestimation_percent)
                       - expected[row.station_ref]) <= 1

    def test_identical_inputs_zero(self):
        rows = compare_sources(results_from(ITU_ATTEN),
                               results_from(ITU_ATTEN))
        assert all(r.overestimation_percent == 0.0 for r in rows)

    def test_missing_station_named(self):
        short = dict(ITU_ATTEN)
        del short["Praia"]
        with pytest.raises(ValidationError) as err:
            compare_sources(results_from(ITU_ATTEN), results_from(short))
        assert "Praia" in str(err.value)

    @pytest.mark.parametrize("side", ["baseline", "estimate"])
    def test_repeated_station_rejected(self, side):
        twice = results_from(ITU_ATTEN) + results_from({"Abuja": 1.0})
        sides = {"baseline": results_from(ITU_ATTEN), "estimate": results_from(ITU_ATTEN),
                 side: twice}
        with pytest.raises(ValidationError, match=f"^{side} results repeat a station$"):
            compare_sources(sides["baseline"], sides["estimate"])

    def test_station_missing_from_baseline_named(self):
        short = dict(ITU_ATTEN)
        del short["Praia"], short["Cairo"]
        with pytest.raises(ValidationError, match="^station sets differ; "
                           "missing from baseline: Cairo, Praia$"):
            compare_sources(results_from(short), results_from(ITU_ATTEN))

    def test_baseline_order_preserved(self):
        rows = compare_sources(results_from(ITU_ATTEN),
                               results_from(GPM_ATTEN, label="GPM"))
        assert [r.station_ref for r in rows] == list(ITU_ATTEN)


class TestAvailabilitySweep:
    def test_single_cell(self):
        cat = catalog()
        one = parse_station_catalog(
            "name,latitude_deg,longitude_deg,altitude_m\n"
            "Abuja,9.010833,7.271389,348.00\n")
        table = availability_sweep(one, uplink_params(),
                                   [ResolvedSource("ITU",
                                                   r001_by_station={"Abuja": 90.0})],
                                   [0.01])
        assert len(table.rows) == 1
        assert table.rows[0].station_ref == "Abuja"
        assert cat.station("Abuja").name == "Abuja"

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValidationError, match="^catalog has no station rows$"):
            availability_sweep(StationCatalog(()), uplink_params(),
                               [ResolvedSource("ITU", r001_by_station={})], [0.01])

    def test_cross_product_cardinality(self):
        source = ResolvedSource("ITU", r001_by_station={
            s.name: 90.0 for s in catalog().stations})
        table = availability_sweep(catalog(), uplink_params(), [source],
                                   [1.0, 0.5, 0.1, 0.01, 0.001])
        assert len(table.rows) == 30

    def test_sorted_by_station_source_p(self):
        source = ResolvedSource("ITU", r001_by_station={
            s.name: 90.0 for s in catalog().stations})
        table = availability_sweep(catalog(), uplink_params(), [source],
                                   [0.5, 0.01])
        keys = [(r.station_ref, r.source_label, r.p_percent)
                for r in table.rows]
        assert keys == sorted(keys)

    def test_margin_non_decreasing_in_p(self):
        source = ResolvedSource("ITU", r001_by_station={
            s.name: 90.0 for s in catalog().stations})
        table = availability_sweep(catalog(), uplink_params(), [source],
                                   [1.0, 0.5, 0.1, 0.01, 0.001])
        by_station = {}
        for row in table.rows:
            by_station.setdefault(row.station_ref, []).append(
                (row.p_percent, row.available_margin_dB))
        for rows in by_station.values():
            margins = [m for _, m in sorted(rows)]
            for lo, hi in zip(margins, margins[1:]):
                assert hi >= lo

    def test_path_taken_only_for_rain_rate_sources(self):
        # rain_slant_path rejects 3 deg; a station with only injected
        # anchors never asks for its path
        params = uplink_params(elevation_deg=3.0)
        anchors = {s.name: 1.0 for s in catalog().stations}
        table = availability_sweep(catalog(), params,
                                   [ResolvedSource("GPM", attenuation_by_station=anchors)],
                                   [0.01], mode="calibrated", k_clear_dB=3.0)
        assert len(table) == 6
        with pytest.raises(UnsupportedRegimeError, match="^elevation 3.0 deg below"):
            availability_sweep(catalog(), params,
                               [ResolvedSource("ITU", r001_by_station=anchors)], [0.01])

    def test_builds_no_attenuation_curve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the sweep built an AttenuationCurve")
        monkeypatch.setattr(attenuation.AttenuationCurve, "__init__", refuse)
        source = ResolvedSource("ITU", r001_by_station={
            s.name: 90.0 for s in catalog().stations})
        table = availability_sweep(catalog(), uplink_params(), [source], [0.01, 0.1])
        assert len(table) == 12

    def test_injected_attenuation_constant_across_p(self):
        source = ResolvedSource("GPM", attenuation_by_station={
            s.name: GPM_ATTEN[s.name] for s in catalog().stations})
        table = availability_sweep(catalog(), uplink_params(), [source],
                                   [0.01, 0.5], mode="calibrated",
                                   k_clear_dB=3.0665)
        for row in table.rows:
            assert row.attenuation_dB == GPM_ATTEN[row.station_ref]

    def test_missing_station_value_rejected(self):
        source = ResolvedSource("ITU", r001_by_station={"Abuja": 90.0})
        with pytest.raises(ValidationError):
            availability_sweep(catalog(), uplink_params(), [source], [0.01])

    def test_requires_inputs(self):
        source = ResolvedSource("ITU", r001_by_station={"Abuja": 90.0})
        with pytest.raises(DomainError, match="^p_list must be non-empty$"):
            availability_sweep(catalog(), uplink_params(), [source], [])
        with pytest.raises(ValidationError):
            availability_sweep(catalog(), uplink_params(), [], [0.01])


def sweep_oracle(cat, params, sources, p_list, mode="physics",
                 k_clear_dB=None, polarization=Polarization.VERTICAL):
    """The sweep one (station, source, p) triple at a time: the scalar
    attenuation_curve and evaluate_link, then the documented sort."""
    coeffs = regression_coefficients(params.frequency_GHz, polarization)
    rows, diagnostics = [], []
    for station in cat.stations:
        for source in sources:
            if source.attenuation_by_station is not None:
                a = source.attenuation_by_station[station.name]
                points = [(p, a) for p in sorted(set(p_list))]
            else:
                path = rain_slant_path(station, params.elevation_deg)
                curve = attenuation_curve(station, path, coeffs,
                                          source.r001_by_station[station.name],
                                          list(p_list))
                diagnostics += [f"{station.name}/{source.label}: {note}"
                                for note in curve.diagnostics]
                points = curve.points
            rows += [evaluate_link(station.name, source.label, p, a, params,
                                   mode=mode, k_clear_dB=k_clear_dB)
                     for p, a in points]
    rows.sort(key=lambda r: (r.station_ref, r.source_label, r.p_percent))
    return rows, diagnostics


class TestSweepOracle:
    """availability_sweep equals the per-triple evaluation bit for bit."""

    P_LIST = [0.5, 0.001, 0.01, 1.0, 0.01, 0.003]  # unsorted, 0.01 twice
    P_DISTINCT = [0.5, 0.001, 0.01, 1.0, 0.003]

    def assert_matches_oracle(self, cat, params, sources, p_list, **kw):
        # both collapse a repeated p, and both warn that they did
        repeated = len(set(p_list)) < len(p_list)
        with pytest.warns(DuplicateWarning) if repeated else nullcontext():
            table = availability_sweep(cat, params, sources, p_list, **kw)
            rows, diagnostics = sweep_oracle(cat, params, sources, p_list, **kw)
        assert list(table.rows) == rows
        assert [repr(r) for r in table.rows] == [repr(r) for r in rows]
        assert list(table.diagnostics) == diagnostics
        return table

    def r001_sources(self):
        names = [s.name for s in catalog().stations]
        return [ResolvedSource("shared", r001_by_station=dict.fromkeys(names, 90.0)),
                ResolvedSource("per-station", r001_by_station={
                    n: 20.0 + 15.0 * i for i, n in enumerate(names)})]

    @pytest.mark.parametrize("other_losses", [0.0, 2.5])
    def test_physics(self, other_losses):
        params = uplink_params(other_losses_dB=other_losses)
        injected = ResolvedSource("injected", attenuation_by_station={
            s.name: abs(GPM_ATTEN[s.name]) for s in catalog().stations})
        self.assert_matches_oracle(catalog(), params,
                                   self.r001_sources() + [injected],
                                   self.P_LIST)

    def test_calibrated(self):
        injected = ResolvedSource("GPM", attenuation_by_station=GPM_ATTEN)
        self.assert_matches_oracle(
            catalog(), uplink_params(), [injected] + self.r001_sources(),
            self.P_LIST, mode="calibrated", k_clear_dB=3.0665,
            polarization=Polarization.HORIZONTAL)

    def test_diagnostics_and_zero_path(self):
        # 5 deg at 60 mm/h inverts the curve near p = 0.001 %; the high
        # station sits above its rain height and gets a zero-length path
        cat = parse_station_catalog(
            "name,latitude_deg,longitude_deg,altitude_m\n"
            "Low,0.0,10.0,300\nHigh,40.0,100.0,6000\n")
        params = uplink_params(elevation_deg=5.0)
        source = ResolvedSource("r", r001_by_station={"Low": 60.0,
                                                      "High": 60.0})
        table = self.assert_matches_oracle(cat, params, [source],
                                           [0.001, 0.00133, 0.01])
        assert any("monotonicity violation" in d for d in table.diagnostics)
        assert all(r.attenuation_dB == 0.0 for r in table.rows
                   if r.station_ref == "High")

    @given(eirp=st.floats(40.0, 100.0), elevation=st.floats(5.0, 90.0),
           other=st.floats(0.0, 10.0), frequency=st.floats(1.0, 100.0),
           rate=st.floats(0.0, 250.0),
           p_list=st.lists(st.sampled_from([0.001, 0.002, 0.01, 0.05, 0.3,
                                            1.0]), min_size=1, max_size=6,
                           unique=True))
    def test_random_physics_params(self, eirp, elevation, other, frequency,
                                   rate, p_list):
        params = uplink_params(eirp_dBW=eirp, elevation_deg=elevation,
                               other_losses_dB=other, frequency_GHz=frequency)
        source = ResolvedSource("r", r001_by_station={
            s.name: rate for s in catalog().stations})
        self.assert_matches_oracle(catalog(), params, [source], p_list)

    def test_zero_margin_closes(self):
        # k_clear - A - required is exactly 0.0 at the first station
        injected = ResolvedSource("exact", attenuation_by_station={
            s.name: 0.5 * i for i, s in enumerate(catalog().stations)})
        params = uplink_params(required_margin_dB=0.5)
        table = self.assert_matches_oracle(
            catalog(), params, [injected], [0.01], mode="calibrated",
            k_clear_dB=1.0)
        assert [r.closes for r in table.rows if r.available_margin_dB == 0.0]\
            == [True]

    def test_repeated_labels_keep_source_order(self):
        # library callers may give two sources one label; the sort is stable
        names = [s.name for s in catalog().stations]
        sources = [ResolvedSource("dup", r001_by_station=dict.fromkeys(names, r))
                   for r in (90.0, 20.0)]
        sources.append(ResolvedSource("dup", attenuation_by_station=dict.fromkeys(
            names, 3.0)))
        self.assert_matches_oracle(catalog(), uplink_params(), sources,
                                   self.P_LIST)

    def test_order_equals_the_tuple_key_sort(self):
        # a catalog out of name order and repeated labels: the rows as they
        # are built, one (station, source) block at a time, then sorted with
        # the (station, source, p) key tuple
        rng = random.Random(12)
        names = rng.sample([f"S{i:03d}" for i in range(1000)], 40)
        cat = StationCatalog(tuple(
            GroundStation(name, rng.uniform(-35.0, 35.0),
                          rng.uniform(-20.0, 50.0), rng.uniform(0.0, 2.0))
            for name in names))
        sources = [ResolvedSource(label, r001_by_station={
            n: rng.uniform(0.0, 150.0) for n in names})
            for label in ("b", "a", "b")]
        sources.append(ResolvedSource("a", attenuation_by_station=dict.fromkeys(
            names, 3.0)))
        built = [record for station in cat.stations for source in sources
                 for record in availability_sweep(
                     StationCatalog((station,)), uplink_params(), [source],
                     self.P_DISTINCT)]
        table = availability_sweep(cat, uplink_params(), sources,
                                   self.P_DISTINCT)
        assert names != sorted(names)
        assert tuple(table) == tuple(sorted(built, key=itemgetter(0, 1, 2)))

    def test_each_distinct_p_checked_once(self, monkeypatch):
        checked = []
        check = attenuation.check
        monkeypatch.setattr(attenuation, "check", lambda quantity, p, name:
                            checked.append(p) or check(quantity, p, name))
        injected = ResolvedSource("injected", attenuation_by_station={
            s.name: 1.0 for s in catalog().stations})
        with pytest.warns(DuplicateWarning):
            table = availability_sweep(catalog(), uplink_params(),
                                       self.r001_sources() + [injected],
                                       self.P_LIST)
        assert sorted(checked) == sorted(set(self.P_LIST))
        assert len(tuple(table)) == 6 * 3 * len(checked)

    def test_negative_injected_attenuation_rejected_in_physics(self):
        source = ResolvedSource("GPM", attenuation_by_station=GPM_ATTEN)
        with pytest.raises(DomainError):
            availability_sweep(catalog(), uplink_params(), [source], [0.01])

    def test_library_anchors_and_k_clear_are_bounded(self):
        # a library caller's anchors and k_clear_dB meet the scenario's
        # domains; unchecked, these gave cnr_dB Infinity
        with pytest.raises(DomainError, match="source 'GPM' station 'Abuja'"):
            ResolvedSource("GPM", attenuation_by_station=dict.fromkeys(
                ITU_ATTEN, -1e308))
        source = ResolvedSource("GPM", attenuation_by_station=GPM_ATTEN)
        with pytest.raises(DomainError, match="k_clear_dB"):
            availability_sweep(catalog(), uplink_params(), [source], [0.01],
                               mode="calibrated", k_clear_dB=1e308)

    def test_calibrated_requires_k_clear(self):
        source = ResolvedSource("GPM", attenuation_by_station=GPM_ATTEN)
        with pytest.raises(ConfigError):
            availability_sweep(catalog(), uplink_params(), [source], [0.01],
                               mode="calibrated")


class TestRankStations:
    def test_reference_ranking(self):
        attens = {"Abuja": 10.5587, "Hartbeesthoek": 22.7269,
                  "Cairo": -7.8440, "Longonot": 15.5252,
                  "Port Louis": -0.3620, "Praia": -1.7871}
        ranked = rank_stations(results_from(attens))
        assert [r.station_ref for r in ranked] == [
            "Cairo", "Praia", "Port Louis", "Abuja", "Longonot",
            "Hartbeesthoek"]

    def test_single_station(self):
        ranked = rank_stations(results_from({"Cairo": 1.0}))
        assert [r.station_ref for r in ranked] == ["Cairo"]

    def test_tie_broken_alphabetically(self):
        ranked = rank_stations(results_from({"Zulu": 5.0, "Alpha": 5.0}))
        assert [r.station_ref for r in ranked] == ["Alpha", "Zulu"]

    def test_permutation(self):
        ranked = rank_stations(results_from(ITU_ATTEN))
        assert sorted(r.station_ref for r in ranked) == sorted(ITU_ATTEN)

    def test_duplicate_station_rejected(self):
        rows = results_from({"Cairo": 1.0}) + results_from({"Cairo": 2.0})
        with pytest.raises(ValidationError):
            rank_stations(rows)

    def test_mixed_p_rejected(self):
        rows = results_from({"Cairo": 1.0}, p=0.01) \
            + results_from({"Abuja": 2.0}, p=0.5)
        with pytest.raises(ValidationError):
            rank_stations(rows)


class TestEmitReport:
    def sweep_table(self):
        source = ResolvedSource("ITU", r001_by_station={
            s.name: 90.0 for s in catalog().stations})
        return availability_sweep(catalog(), uplink_params(), [source],
                                  [0.01, 0.5])

    def test_empty_text_has_no_report(self):
        with pytest.raises(ValidationError, match="^empty report$"):
            parse_report_csv("")

    def test_empty_table_csv_header_only(self):
        text = emit_report((SWEEP_COLUMNS, []), "csv")
        assert text == ("station,source,p_percent,attenuation_dB,cnr_dB,"
                        "required_margin_dB,available_margin_dB,closes\n")

    def test_one_row_json(self):
        rows = results_from({"Cairo": 31.6560})
        parsed = json.loads(emit_report(rows, "json"))
        assert len(parsed) == 1
        assert parsed[0]["station"] == "Cairo"
        assert parsed[0]["attenuation_dB"] == 31.6560
        assert parsed[0]["closes"] is False

    def test_csv_round_trip_exact(self):
        table = self.sweep_table()
        header, data = parse_report_csv(emit_report(table, "csv"))
        assert len(data) == len(table.rows)
        for cells, row in zip(data, table.rows):
            assert cells[0] == row.station_ref
            assert cells[2] == row.p_percent
            assert cells[3] == row.attenuation_dB
            assert cells[4] == row.cnr_dB
            assert cells[6] == row.available_margin_dB
            assert cells[7] == row.closes

    def test_json_round_trip_exact(self):
        table = self.sweep_table()
        parsed = json.loads(emit_report(table, "json"))
        for rec, row in zip(parsed, table.rows):
            assert rec["attenuation_dB"] == row.attenuation_dB
            assert rec["available_margin_dB"] == row.available_margin_dB

    def test_aligned_table_lines(self):
        table = self.sweep_table()
        lines = emit_report(table, "table").splitlines()
        assert len(lines) == len(table.rows) + 1
        assert lines[0].startswith("station")

    def test_unknown_format_rejected(self):
        with pytest.raises(UsageError):
            emit_report(self.sweep_table(), "yaml")

    def test_comparison_rows_csv(self):
        rows = compare_sources(results_from(ITU_ATTEN),
                               results_from(GPM_ATTEN, label="GPM"))
        header, data = parse_report_csv(emit_report(rows, "csv"))
        assert header == ["station", "baseline_attenuation_dB",
                          "estimate_attenuation_dB", "overestimation_percent"]
        for cells, row in zip(data, rows):
            assert cells[3] == row.overestimation_percent

    def test_determinism(self):
        a = emit_report(self.sweep_table(), "csv")
        b = emit_report(self.sweep_table(), "csv")
        assert a == b


def json_oracle(header, rows) -> str:
    return json.dumps([dict(zip(header, cells)) for cells in rows],
                      indent=2) + "\n"


class FloatSub(float):
    pass


CELLS = st.one_of(
    st.text(), st.integers(), st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e-310,
                     float("nan"), float("inf"), float("-inf"),
                     FloatSub(0.1), FloatSub("inf")]))


MIXED_TABLES = st.lists(st.text(), min_size=0, max_size=6, unique=True) \
    .flatmap(lambda header: st.tuples(
        st.just(header),
        st.lists(st.lists(CELLS, min_size=len(header), max_size=len(header)),
                 max_size=5)))

# cells of one column: one type, with repeats, or a mix where 1, 1.0 and
# True, or 0.0 and -0.0, compare equal but print apart
COLUMN_CELLS = st.sampled_from([
    st.sampled_from(["Abuja", "", "a,b", 'say "hi"', " pad ", "ü", "x\ny"]),
    st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 0.5, 1e-310, -2.5, 1e300]),
    st.sampled_from([0.01, 0.36]),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, FloatSub(1.0)]),
    CELLS])


@st.composite
def column_tables(draw):
    header = draw(st.lists(st.text(), max_size=5, unique=True))
    columns = [draw(COLUMN_CELLS) for _ in header]
    rows = draw(st.integers(0, 12))
    return header, [[draw(c) for c in columns] for _ in range(rows)]


def cell_text(value, machine: bool) -> str:
    """A csv or table cell, the rule applied one cell at a time."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value)) if machine else f"{value:.4f}"
    return str(value)


def csv_oracle(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for cells in rows:
        writer.writerow([cell_text(c, machine=True) for c in cells])
    return out.getvalue()


def table_oracle(header, rows) -> str:
    texts = [header] + [[cell_text(c, machine=False) for c in cells]
                        for cells in rows]
    widths = [max(len(t[i]) for t in texts) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(t, widths))
                     .rstrip() for t in texts) + "\n"


ORACLES = {"csv": csv_oracle, "json": json_oracle, "table": table_oracle}


class TestColumnRenderer:
    """emit_report, which formats a column at a time, equals the
    one-cell-at-a-time oracles of every format byte for byte."""

    @pytest.mark.parametrize("format", ORACLES)
    @given(table=st.one_of(MIXED_TABLES, column_tables()))
    def test_tables(self, format, table):
        header, rows = table
        assert emit_report((header, rows), format) == ORACLES[format](header,
                                                                      rows)

    @pytest.mark.parametrize("format", ORACLES)
    def test_equal_values_that_print_apart(self, format):
        # a formatted-once value must not stand in for an equal one
        rows = [[0.0, 1, 1.0, "a", True], [-0.0, 1.0, 1.0, "a", True],
                [0.0, True, 1.0, "a", False], [-0.0, 1, 1.0, "a", True]] * 3
        header = ["zero", "one", "float", "str", "bool"]
        text = emit_report((header, rows), format)
        assert text == ORACLES[format](header, rows)
        assert "-0.0" in text and ("True" in text or "true" in text)

    def test_sweep_table_matches_its_rows(self):
        source = ResolvedSource("ITU", r001_by_station={
            s.name: 90.0 for s in catalog().stations})
        table = availability_sweep(catalog(), uplink_params(), [source],
                                   [0.001, 0.01, 0.5])
        rows = [astuple(r) for r in table.rows]
        for format, oracle in ORACLES.items():
            assert emit_report(table, format) == oracle(SWEEP_COLUMNS, rows)

    @pytest.mark.parametrize("format", ORACLES)
    def test_ragged_rows_rejected(self, format):
        with pytest.raises(UsageError, match="2 cells"):
            emit_report((["a", "b"], [[1.0, 2.0], [3.0]]), format)
        with pytest.raises(UsageError, match="1 cells"):
            emit_report((["a"], [[1.0, 2.0]]), format)


CHUNK = analysis._CHUNK_ROWS


def rows_in(format, chunk) -> int:
    """The data rows a chunk of a ["name", "p", "ok"] report holds."""
    if format == "csv":
        return chunk.count("\n")
    return chunk.count('"name": ')


class WriteRecorder(io.StringIO):
    """A text stream that keeps each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class TestReportChunks:
    """emit_report is the join of the report's chunks, csv and json chunks
    hold at most CHUNK rows each, and write_report writes the chunks."""

    @pytest.mark.parametrize("format", ORACLES)
    @given(table=MIXED_TABLES)
    def test_mixed_tables(self, format, table):
        header, rows = table
        chunks = list(analysis._report_chunks((header, rows), format))
        assert "".join(chunks) == emit_report((header, rows), format) \
            == ORACLES[format](header, rows)

    @pytest.mark.parametrize("format", ORACLES)
    @pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                       2 * CHUNK + 1])
    def test_row_counts(self, format, count):
        header = ["name", "p", "ok"]
        rows = [[f"S{i % 7}", i / 3.0, i % 2 == 0] for i in range(count)]
        chunks = list(analysis._report_chunks((header, rows), format))
        assert "".join(chunks) == emit_report((header, rows), format) \
            == ORACLES[format](header, rows)
        if format in ("csv", "json"):
            assert len(chunks) == max(1, -(-count // CHUNK))
            held = [rows_in(format, chunk) for chunk in chunks]
            assert sum(held) == count + (format == "csv")
            assert max(held) <= CHUNK + (format == "csv")
        else:
            assert len(chunks) == 1

    @pytest.mark.parametrize("format", ["csv", "json", "table"])
    def test_head_and_tail_frame_the_chunks(self, format):
        table = (["name", "p", "ok"],
                 [[f"S{i}", i / 3.0, True] for i in range(CHUNK + 5)])
        out = WriteRecorder()
        write_report(table, format, out, "<head>", "<tail>")
        assert out.getvalue() == \
            "<head>" + emit_report(table, format) + "<tail>"
        assert out.writes[0] == "<head>" and out.writes[-1] == "<tail>"
        assert len(out.writes) == (3 if format == "table" else 4)

    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("as_iterator", [False, True])
    def test_column_kinds_change_between_chunks(self, format, as_iterator):
        # a few rows of one chunk each hold a NaN among floats, a None among
        # str and an int among bools; of another, a float subclass
        def cells(i):
            odd = i % 97 == 0
            second, third = odd and i // CHUNK == 1, odd and i // CHUNK == 2
            return [math.nan if second else i / 3.0,
                    None if second else f"S{i % 5}\u00fc",
                    i % 2 if second else i % 2 == 0,
                    FloatSub(i / 7.0) if third else i / 7.0]
        header = ["float", "str", "bool", "sub"]
        rows = [cells(i) for i in range(3 * CHUNK + 5)]
        want = ORACLES[format](header, rows)
        assert emit_report((header, iter(rows) if as_iterator else rows),
                           format) == want
        out = WriteRecorder()
        write_report((header, iter(rows) if as_iterator else rows), format,
                     out)
        assert out.getvalue() == want
        assert len(out.writes) == 6  # head, four chunks, tail

    def test_ragged_row_from_an_iterator_rejected(self):
        # an iterator is checked a chunk at a time, as it is read
        rows = iter([[1.0, 2.0]] * CHUNK + [[3.0]])
        with pytest.raises(UsageError, match="2 cells"):
            emit_report((["a", "b"], rows), "json")

    @pytest.mark.parametrize("table, format", [
        ((["a", "b"], [[1.0, 2.0], [3.0]]), "csv"),
        ((["a", "b"], [[1.0, 2.0]] * (2 * CHUNK) + [[3.0]]), "json"),
        ((["a"], [[1.0]]), "xml"),
        (object(), "csv"),
        ([], "csv")])
    def test_rejected_table_writes_nothing(self, table, format):
        out = WriteRecorder()
        with pytest.raises(UsageError):
            write_report(table, format, out, "<head>", "<tail>")
        assert out.writes == []


class TestSweepTable:
    def sweep(self):
        sources = [ResolvedSource("ITU", r001_by_station={
            s.name: 90.0 for s in catalog().stations}),
            ResolvedSource("GPM", attenuation_by_station={
                s.name: abs(GPM_ATTEN[s.name]) for s in catalog().stations})]
        return availability_sweep(catalog(), uplink_params(), sources,
                                  [0.01, 0.5])

    def test_rows_are_the_records_as_link_results(self):
        table = self.sweep()
        assert table.rows == [LinkResult(*r) for r in table]
        assert table.rows is not table.rows  # built afresh, not cached
        assert [astuple(r) for r in table.rows] == list(table)

    def test_every_iteration_makes_the_rows_afresh(self):
        table = self.sweep()
        want = list(table)
        assert len(want) == 6 * 2 * 2 and all(type(r) is tuple for r in want)
        first, second = iter(table), iter(table)
        assert first is not second
        # interleaved: neither iteration advances the other
        pairs = list(zip(first, second))
        assert [a for a, _ in pairs] == [b for _, b in pairs] == want
        assert list(table) == want
        for format in ORACLES:
            assert emit_report(table, format) == emit_report(table, format)

    def test_a_failing_sweep_raises_before_it_returns(self):
        # the negative anchor sorts after every rain-rate row; physics mode
        # rejects it in the eager phase, so no table and no row is made
        sources = [ResolvedSource("A", r001_by_station={
            s.name: 90.0 for s in catalog().stations}),
            ResolvedSource("Z", attenuation_by_station=GPM_ATTEN)]
        with pytest.raises(DomainError):
            availability_sweep(catalog(), uplink_params(), sources, [0.01])

    def test_a_view_not_a_record(self):
        table = self.sweep()
        assert type(table) is SweepTable and not isinstance(table, Record)
        assert table != self.sweep()  # no value equality
        assert list(table) == list(self.sweep())


@st.composite
def small_sweeps(draw):
    """The inputs of a small sweep: a catalog out of name order, labels that
    repeat, rain-rate sources and injected anchors, physics or calibrated."""
    names = draw(st.lists(st.sampled_from(["Kano", "Abuja", "Praia", "Cairo"]),
                          min_size=1, max_size=4, unique=True))
    cat = StationCatalog(tuple(
        GroundStation(n, draw(st.floats(-40.0, 40.0)), 0.0,
                      draw(st.floats(0.0, 3.0))) for n in names))
    kw = draw(st.sampled_from([{}, {"mode": "calibrated", "k_clear_dB": 3.0665}]))
    low = -20.0 if kw else 0.0  # physics mode rejects a negative anchor
    sources = [ResolvedSource(label, r001_by_station={
        n: draw(st.floats(0.0, 200.0)) for n in names}) if draw(st.booleans())
        else ResolvedSource(label, attenuation_by_station={
            n: draw(st.floats(low, 60.0)) for n in names})
        for label in draw(st.lists(st.sampled_from("abc"), min_size=1,
                                   max_size=4))]
    p_list = draw(st.lists(st.sampled_from([0.001, 0.003, 0.01, 0.1, 0.5, 1.0]),
                           min_size=1, max_size=5, unique=True))
    return cat, sources, p_list, kw


class TestColumnChunks:
    """A SweepTable's column chunks are its rows, also where a chunk edge
    falls inside a station's block: any cover of [0, len) by
    columns(start, stop) is the iteration, which is the oracle's, and the
    report written from the chunks is the report of the rows."""

    @given(sweep=small_sweeps(), chunk=st.integers(1, 40), data=st.data())
    def test_chunks_are_the_rows(self, sweep, chunk, data):
        cat, sources, p_list, kw = sweep
        table = availability_sweep(cat, uplink_params(), sources, p_list, **kw)
        want = [astuple(r) for r in sweep_oracle(cat, uplink_params(), sources,
                                                 p_list, **kw)[0]]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_CHUNK_ROWS", chunk)
            rows = list(table)
            assert repr(rows) == repr(want) and len(table) == len(rows)
            cuts = sorted(data.draw(st.lists(st.integers(0, len(table)))))
            columns = [[] for _ in SWEEP_COLUMNS]
            for start, stop in zip([0, *cuts], [*cuts, len(table)]):
                for whole, part in zip(columns, table.columns(start, stop)):
                    whole += part
            assert repr(list(zip(*columns))) == repr(rows)
            for format in ("csv", "json", "table"):
                out, want_out = WriteRecorder(), WriteRecorder()
                write_report(table, format, out)
                write_report((SWEEP_COLUMNS, rows), format, want_out)
                assert out.getvalue() == want_out.getvalue()
                assert len(out.writes) == len(want_out.writes) == 2 + (
                    1 if format == "table" else -(-len(rows) // chunk))


class TestJsonRenderer:
    """emit_report's json equals json.dumps(records, indent=2) byte for
    byte, for every table shape."""

    @given(MIXED_TABLES)
    def test_header_rows_tables(self, table):
        header, rows = table
        assert emit_report((header, rows), "json") == json_oracle(header, rows)

    def test_percent_and_unicode_keys(self):
        header = ["%s", "100%", "réseau", 'a"b\\c', "\x00"]
        rows = [["%d", 1.5, "ü", None, True], ["%%", -0.0, "\n", 7, False]]
        assert emit_report((header, rows), "json") == json_oracle(header, rows)

    def test_empty_table(self):
        assert emit_report((SWEEP_COLUMNS, []), "json") == "[]\n"
        assert emit_report((SWEEP_COLUMNS, []), "json") == json_oracle(
            SWEEP_COLUMNS, [])
        assert emit_report((["a"], []), "json") == "[]\n"

    def test_sweep_table(self):
        source = ResolvedSource("ITU", r001_by_station={
            s.name: 90.0 for s in catalog().stations})
        table = availability_sweep(catalog(), uplink_params(), [source],
                                   [0.001, 0.01, 0.5])
        want = json_oracle(SWEEP_COLUMNS,
                           [astuple(r) for r in table.rows])
        assert emit_report(table, "json") == want
        assert emit_report(list(table.rows), "json") == want

    def test_comparison_rows(self):
        rows = compare_sources(results_from(ITU_ATTEN),
                               results_from(GPM_ATTEN, label="GPM"))
        assert emit_report(rows, "json") == json_oracle(
            COMPARISON_COLUMNS, [astuple(r) for r in rows])


class TestEmitPlotData:
    def sweep_table(self):
        source = ResolvedSource("ITU", r001_by_station={
            s.name: 90.0 for s in catalog().stations})
        return availability_sweep(catalog(), uplink_params(), [source],
                                  [0.001, 0.01, 0.1, 0.5, 1.0])

    def test_line_count(self):
        text = emit_report(plot_data_table(self.sweep_table()), "csv")
        lines = text.splitlines()
        assert lines[0] == "station,source,p_percent,attenuation_dB"
        assert len(lines) == 1 + 6 * 5

    def test_two_sources_distinguishable(self):
        names = {s.name: 90.0 for s in catalog().stations}
        table = availability_sweep(
            catalog(), uplink_params(),
            [ResolvedSource("A", r001_by_station=names),
             ResolvedSource("B", r001_by_station=dict(names))],
            [0.01])
        text = emit_report(plot_data_table(table), "csv")
        sources = {line.split(",")[1] for line in text.splitlines()[1:]}
        assert sources == {"A", "B"}

    def test_values_match_sweep_to_full_precision(self):
        table = self.sweep_table()
        by_key = {(r.station_ref, r.p_percent): r.attenuation_dB
                  for r in table.rows}
        text = emit_report(plot_data_table(table), "csv")
        for line in text.splitlines()[1:]:
            station, _, p, a = line.split(",")
            assert float(a) == by_key[(station, float(p))]

    def test_margin_field(self):
        text = emit_report(plot_data_table(self.sweep_table(), "available_margin_dB"),
                           "csv")
        assert text.splitlines()[0].endswith("available_margin_dB")

    def test_unknown_plot_field_rejected(self):
        with pytest.raises(UsageError, match="^unknown plot field 'p_percent'$"):
            plot_data_table(self.sweep_table(), "p_percent")

    def test_table_is_what_emit_plot_data_writes(self):
        table = self.sweep_table()
        header, rows = plot_data_table(table, "cnr_dB")
        assert header == ["station", "source", "p_percent", "cnr_dB"]
        assert emit_report(plot_data_table(table, "cnr_dB"), "csv") \
            == csv_oracle(header, rows)

    @pytest.mark.parametrize("field", analysis.PLOT_FIELDS)
    def test_rows_are_four_sweep_columns_in_sweep_order(self, field):
        # two sources share a label: their rows keep the sweep's order
        names = {s.name: 90.0 for s in catalog().stations}
        table = availability_sweep(
            catalog(), uplink_params(),
            [ResolvedSource("A", r001_by_station=names),
             ResolvedSource("A", attenuation_by_station=dict(names))],
            [0.01, 1.0])
        column = SWEEP_COLUMNS.index(field)
        _, rows = plot_data_table(table, field)
        assert list(rows) == [(*row[:3], row[column]) for row in table]

    def test_rows_are_a_fresh_lazy_iteration(self):
        table = self.sweep_table()
        _, first = plot_data_table(table)
        _, second = plot_data_table(table)
        assert isinstance(first, Iterator)
        assert next(first) == next(second)
        assert list(first) == list(second)
