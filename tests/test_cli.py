from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings

import pytest

import rainlink
import rainlink.analysis as analysis
from rainlink import (SeparationWarning, StationCatalog, UsageError,
                      parse_station_catalog)
from rainlink.cli import _emit, build_parser, main
from test_analysis import WriteRecorder

ITU_ATTEN = {"Abuja": 34.1808, "Hartbeesthoek": 49.0126, "Cairo": 31.6560,
             "Longonot": 40.2605, "Port Louis": 27.5556, "Praia": 28.0972}
GPM_ATTEN = {"Abuja": 10.3059, "Hartbeesthoek": 22.7947, "Cairo": -13.2802,
             "Longonot": 16.3896, "Port Louis": 0.7753, "Praia": -1.3956}
ITU_CNR = {"Abuja": -31.1143, "Hartbeesthoek": -45.9461, "Cairo": -28.5895,
           "Longonot": -37.1940, "Port Louis": -24.4891, "Praia": -25.0307}


def write_african_catalog(tmp_path, count):
    rng = random.Random(20231)
    rows = [f"S{i},{rng.uniform(-34.5, 37.0)!r},{rng.uniform(-17.5, 51.0)!r},0"
            for i in range(count)]
    path = tmp_path / "africa.csv"
    path.write_text("name,latitude_deg,longitude_deg,altitude_m\n"
                    + "\n".join(rows) + "\n")
    return str(path)


def write_scenario(tmp_path, **overrides):
    doc = {
        "frequency_GHz": 28.5,
        "bandwidth_Hz": 2.1e9,
        "eirp_dBW": 75.9,
        "elevation_deg": 20.0,
        "receiver_gain_dBi": 31.8,
        "system_temperature_K": 868.4,
        "required_margin_dB": 0.36,
        "satellite_altitude_km": 1200.0,
        "antenna_diameter_m": 3.5,
        "mode": "calibrated",
        "k_clear_dB": 3.0665,
        "p_list": [0.01],
        "sources": [
            {"label": "ITU", "kind": "attenuation", "values": ITU_ATTEN},
            {"label": "GPM", "kind": "attenuation", "values": GPM_ATTEN},
        ],
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestStations:
    def test_fixture_listing(self, capsys):
        assert main(["stations", "--format", "csv"]) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0] == "name,latitude_deg,longitude_deg,altitude_m"
        assert len(lines) == 7
        assert "warning" not in err

    def test_missing_file_is_io_error(self, capsys):
        assert main(["stations", "--catalog", "/no/such/file.csv"]) == 4
        _, err = capsys.readouterr()
        assert "error" in err

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_altitudes_echo_the_catalog(self, tmp_path, capsys, format):
        path = tmp_path / "catalog.csv"
        path.write_text("name,latitude_deg,longitude_deg,altitude_m\n"
                        "A,0.0,0.0,1009.0\nB,40.0,90.0,2001.1\n")
        assert main(["stations", "--catalog", str(path), "--format", format]) == 0
        out, _ = capsys.readouterr()
        assert "1008.99" not in out and "2001.1000" not in out
        assert ("1009.0" in out and "2001.1" in out) if format == "json" \
            else out == path.read_text()

    def test_duplicate_names_are_data_error(self, tmp_path, capsys):
        bad = tmp_path / "dup.csv"
        bad.write_text("name,latitude_deg,longitude_deg,altitude_m\n"
                       "X,0,0,0\nX,5,5,5\n")
        assert main(["stations", "--catalog", str(bad)]) == 3
        _, err = capsys.readouterr()
        assert "duplicate" in err

    def test_duplicate_names_print_only_the_error(self, tmp_path, capsys):
        # the two stations are also a close pair; no warning precedes the error
        bad = tmp_path / "dup.csv"
        bad.write_text("name,latitude_deg,longitude_deg,altitude_m\n"
                       "X,0,0,0\nX,5,5,5\n")
        assert main(["stations", "--catalog", str(bad)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: duplicate station names: X\n"

    def test_close_pairs_give_one_summary_warning(self, tmp_path, capsys):
        close = tmp_path / "close.csv"
        close.write_text("name,latitude_deg,longitude_deg,altitude_m\n"
                         "A,0.0,0.0,0\nB,0.9,0.0,0\nC,5,5,0\nD,60,0,0\n"
                         "E,61,1,0\n")
        assert main(["stations", "--catalog", str(close), "--format",
                     "csv"]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 6
        warning_lines = [ln for ln in err.splitlines()
                         if ln.startswith("warning:")]
        assert len(warning_lines) == 1
        assert warning_lines[0].startswith("warning: 4 station pairs ")
        assert "closest: A and B, 100 km apart" in warning_lines[0]

    def test_dense_catalog_warning_matches_the_full_list(self, tmp_path,
                                                          capsys):
        # the 1000 African sites of test_dense_african_catalog
        path = write_african_catalog(tmp_path, 1000)
        assert main(["stations", "--catalog", path, "--format", "csv"]) == 0
        _, err = capsys.readouterr()
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", SeparationWarning)
            pairs = parse_station_catalog(fh.read()).close_pairs
        a, b, d = min(pairs, key=lambda pair: pair[2])
        assert err.splitlines() == [
            f"warning: {len(pairs)} station pairs under the 2000 km minimum "
            f"separation; closest: {a} and {b}, {d:.0f} km apart"]

    def test_closest_pair_across_an_underflowing_latitude_gap(self, tmp_path,
                                                             capsys):
        # A and B lie 3.7e-169 degrees apart in latitude, A and C coincide;
        # every pair is 0 km, so the first in catalog order is named
        close = tmp_path / "close.csv"
        close.write_text("name,latitude_deg,longitude_deg,altitude_m\n"
                         "A,-3.7048499121446723e-169,-180,0\nB,0.0,-180,0\n"
                         "C,-3.7048499121446723e-169,-180,0\n")
        assert main(["stations", "--catalog", str(close), "--format",
                     "csv"]) == 0
        assert capsys.readouterr().err == (
            "warning: 3 station pairs under the 2000 km minimum separation; "
            "closest: A and B, 0 km apart\n")

    def test_close_pair_warns_on_stderr(self, tmp_path, capsys):
        close = tmp_path / "close.csv"
        close.write_text("name,latitude_deg,longitude_deg,altitude_m\n"
                         "A,0.0,0.0,0\nB,0.9,0.0,0\n")
        assert main(["stations", "--catalog", str(close)]) == 0
        out, err = capsys.readouterr()
        assert "warning" in err
        assert len(out.splitlines()) == 3


class TestAttenuation:
    def test_direct_r001_single_point(self, capsys):
        assert main(["attenuation", "--station", "Abuja", "--freq-ghz",
                     "28.5", "--elevation-deg", "20", "--r001", "42",
                     "--p", "0.01", "--format", "csv"]) == 0
        out, _ = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0] == "station,source,r001_mm_per_hr,p_percent,attenuation_dB"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "Abuja"
        assert cells[1] == "direct"
        assert float(cells[2]) == 42.0
        from rainlink import (attenuation_curve, parse_station_catalog,
                              packaged_catalog_text, rain_slant_path,
                              rain_height, regression_coefficients)
        st = parse_station_catalog(packaged_catalog_text()).station("Abuja")
        path = rain_slant_path(st, 20.0, rain_height(st))
        curve = attenuation_curve(st, path,
                                  regression_coefficients(28.5, "vertical"),
                                  42.0, [0.01])
        assert float(cells[4]) == curve.reference_A001_dB

    def test_duplicate_p_warns_and_collapses(self, capsys):
        assert main(["attenuation", "--station", "Abuja", "--freq-ghz",
                     "28.5", "--elevation-deg", "20", "--r001", "42",
                     "--p", "0.01,0.01", "--format", "csv"]) == 0
        out, err = capsys.readouterr()
        assert "warning" in err and "duplicate" in err
        assert len(out.splitlines()) == 2

    def test_low_elevation_is_data_error(self, capsys):
        assert main(["attenuation", "--station", "Abuja", "--freq-ghz",
                     "28.5", "--elevation-deg", "3", "--r001", "42"]) == 3
        _, err = capsys.readouterr()
        assert "elevation" in err

    def test_requires_exactly_one_source(self, capsys):
        assert main(["attenuation", "--station", "Abuja", "--freq-ghz",
                     "28.5", "--elevation-deg", "20"]) == 2
        assert main(["attenuation", "--station", "Abuja", "--freq-ghz",
                     "28.5", "--elevation-deg", "20", "--r001", "42",
                     "--series", "x.csv"]) == 2
        capsys.readouterr()

    def test_series_reduction(self, tmp_path, capsys):
        series = tmp_path / "rain.csv"
        rows = ["timestamp,rate_mm_per_hr"]
        for month in range(1, 13):
            rows.append(f"2010-{month:02d}-01T00:00:00Z,0.1455")
        series.write_text("\n".join(rows) + "\n")
        assert main(["attenuation", "--station", "Abuja", "--freq-ghz",
                     "28.5", "--elevation-deg", "20", "--series",
                     str(series), "--strategy", "chebil_annual",
                     "--p", "0.01", "--format", "csv"]) == 0
        out, _ = capsys.readouterr()
        cells = out.splitlines()[1].split(",")
        assert abs(float(cells[2]) - 103.00932178409715) < 1e-9

    @pytest.mark.parametrize("strategy", ["chebil_annual",
                                          "empirical_exceedance"])
    def test_non_finite_rate_is_data_error(self, tmp_path, capsys, strategy):
        series = tmp_path / "rain.csv"
        series.write_text("timestamp,rate_mm_per_hr\n"
                          "2010-01-01T00:00:00Z,1\n"
                          "2010-01-01T01:00:00Z,nan\n"
                          "2010-01-01T02:00:00Z,3\n")
        assert main(["attenuation", "--station", "Abuja", "--freq-ghz",
                     "28.5", "--elevation-deg", "20", "--series",
                     str(series), "--strategy", strategy,
                     "--format", "json"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: line 3: non-finite rate nan\n"

    def test_non_finite_altitude_is_data_error(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("name,latitude_deg,longitude_deg,altitude_m\n"
                           "A,0,0,nan\n")
        assert main(["attenuation", "--catalog", str(catalog), "--station",
                     "A", "--freq-ghz", "28.5", "--elevation-deg", "20",
                     "--r001", "50", "--format", "json"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: line 2: altitude nan km")

    def test_unknown_station_is_data_error(self, capsys):
        assert main(["attenuation", "--station", "Atlantis", "--freq-ghz",
                     "28.5", "--elevation-deg", "20", "--r001", "42"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--r001", "--freq-ghz",
                                      "--elevation-deg"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_flag_is_usage_error(self, capsys, flag, value):
        args = {"--freq-ghz": "28.5", "--elevation-deg": "20", "--r001": "42"}
        args[flag] = value
        assert main(["attenuation", "--station", "Abuja", "--format", "json",
                     *(f"{k}={v}" for k, v in args.items())]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} {float(value)} must be finite\n"

    @pytest.mark.parametrize("rates, message", [
        (["1e308", "1e308"], "the series rates sum past the float range"),
        (["1e308"], "mean rate 1e+308 mm/hr overflows the annual "
                    "accumulation")])
    def test_overflowing_chebil_reduction_is_data_error(self, tmp_path,
                                                        capsys, rates,
                                                        message):
        series = tmp_path / "rain.csv"
        series.write_text("timestamp,rate_mm_per_hr\n" + "".join(
            f"2010-01-01T0{i}:00:00Z,{r}\n" for i, r in enumerate(rates)))
        assert main(["attenuation", "--station", "Abuja", "--freq-ghz",
                     "28.5", "--elevation-deg", "20", "--series",
                     str(series), "--strategy", "chebil_annual",
                     "--format", "json"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("kind", ["series", "catalog"])
    def test_over_long_csv_field_is_data_error(self, tmp_path, capsys, kind):
        long_field = '"' + "1" * 140_000 + '"'
        if kind == "series":
            text = ("timestamp,rate_mm_per_hr\n2010-01-01T00:00:00Z,1\n"
                    f"2010-01-01T01:00:00Z,{long_field}\n")
            args = ["--series", str(tmp_path / "in.csv")]
        else:
            text = ("name,latitude_deg,longitude_deg,altitude_m\n"
                    f"Abuja,9.0,7.3,348\n{long_field},1,2,3\n")
            args = ["--catalog", str(tmp_path / "in.csv"), "--r001", "42"]
        (tmp_path / "in.csv").write_text(text)
        assert main(["attenuation", "--station", "Abuja", "--freq-ghz",
                     "28.5", "--elevation-deg", "20", *args]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: line 3: field larger than field limit "
                       "(131072)\n")


    @pytest.mark.parametrize("zone", ["Z", ""])
    def test_over_long_plain_rate_is_data_error(self, tmp_path, capsys, zone):
        # a plain, unquoted rate over the csv field size limit is refused
        # alike whether the stamps are UTC (the bulk parse) or naive
        (tmp_path / "in.csv").write_text(
            f"timestamp,rate_mm_per_hr\n2010-01-01T00:00:00{zone},1\n"
            f"2010-01-01T01:00:00{zone},0.{'0' * 139_990}1\n")
        assert main(["attenuation", "--station", "Abuja", "--freq-ghz",
                     "28.5", "--elevation-deg", "20", "--series",
                     str(tmp_path / "in.csv")]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: line 3: field larger than field limit "
                       "(131072)\n")


class TestLinkBudget:
    def test_reference_cnr_column(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path,
                                  sources=[{"label": "ITU",
                                            "kind": "attenuation",
                                            "values": ITU_ATTEN}])
        assert main(["linkbudget", "--scenario", scenario, "--format",
                     "json"]) == 0
        out, _ = capsys.readouterr()
        rows = json.loads(out)
        assert len(rows) == 6
        for row in rows:
            assert abs(row["cnr_dB"] - ITU_CNR[row["station"]]) < 0.001
            assert abs(row["available_margin_dB"]
                       - (ITU_CNR[row["station"]] - 0.36)) < 0.001

    def test_zero_margin_makes_margin_equal_cnr(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, required_margin_dB=0.0)
        assert main(["linkbudget", "--scenario", scenario, "--format",
                     "json"]) == 0
        out, _ = capsys.readouterr()
        for row in json.loads(out):
            assert row["available_margin_dB"] == row["cnr_dB"]

    def test_physics_clear_sky(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path, mode="physics", k_clear_dB=None,
            sources=[{"label": "clear", "kind": "attenuation",
                      "values": {name: 0.0 for name in ITU_ATTEN}}])
        assert main(["linkbudget", "--scenario", scenario, "--format",
                     "json"]) == 0
        out, _ = capsys.readouterr()
        for row in json.loads(out):
            assert abs(row["cnr_dB"] - 24.3382333749326) < 1e-9

    def test_non_closing_links_still_exit_zero(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        assert main(["linkbudget", "--scenario", scenario]) == 0
        capsys.readouterr()

    def test_bad_scenario_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["linkbudget", "--scenario", str(bad)]) == 2
        capsys.readouterr()

    def test_missing_scenario_is_io_error(self, capsys):
        assert main(["linkbudget", "--scenario", "/no/such.json"]) == 4
        capsys.readouterr()


class TestSweep:
    def test_cross_product_and_plot_file(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path, p_list=[0.01],
            sources=[{"label": "ITU", "kind": "r001", "value": 90.0}])
        plot = tmp_path / "plot.csv"
        assert main(["sweep", "--scenario", scenario, "--p",
                     "1.0,0.5,0.1,0.01,0.001", "--plot-data", str(plot),
                     "--format", "csv"]) == 0
        out, _ = capsys.readouterr()
        assert len(out.splitlines()) == 31
        plot_lines = plot.read_text().splitlines()
        assert plot_lines[0] == "station,source,p_percent,attenuation_dB"
        assert len(plot_lines) == 31

    def test_dense_catalog_never_builds_the_pair_list(self, tmp_path,
                                                      capsys, monkeypatch):
        built = []
        monkeypatch.setattr(StationCatalog, "close_pairs",
                            property(lambda catalog: built.append(catalog)))
        scenario = write_scenario(
            tmp_path, sources=[{"label": "ITU", "kind": "r001", "value": 90.0}])
        catalog = write_african_catalog(tmp_path, 300)
        assert main(["sweep", "--scenario", scenario, "--catalog", catalog,
                     "--format", "csv"]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 301
        assert "station pairs under" in err
        assert built == []

    def test_byte_identical_reruns(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        assert main(["sweep", "--scenario", scenario, "--format", "csv"]) == 0
        first, _ = capsys.readouterr()
        assert main(["sweep", "--scenario", scenario, "--format", "csv"]) == 0
        second, _ = capsys.readouterr()
        assert first == second

    def test_plot_values_match_table(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            sources=[{"label": "ITU", "kind": "r001", "value": 90.0}])
        plot = tmp_path / "plot.csv"
        assert main(["sweep", "--scenario", scenario, "--p", "0.01,0.1",
                     "--plot-data", str(plot), "--format", "csv"]) == 0
        out, _ = capsys.readouterr()
        table = {}
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            table[(cells[0], float(cells[2]))] = float(cells[3])
        for line in plot.read_text().splitlines()[1:]:
            station, _, p, a = line.split(",")
            assert float(a) == table[(station, float(p))]


class TestCompare:
    def test_reference_percentages(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        assert main(["compare", "--scenario", scenario, "--baseline", "ITU",
                     "--estimate", "GPM", "--format", "json"]) == 0
        out, _ = capsys.readouterr()
        expected = {"Abuja": 70, "Hartbeesthoek": 54, "Cairo": 142,
                    "Longonot": 59, "Port Louis": 97, "Praia": 105}
        rows = json.loads(out)
        assert len(rows) == 6
        for row in rows:
            assert abs(row["overestimation_percent"]
                       - expected[row["station"]]) <= 1.0

    def test_same_label_all_zero(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        assert main(["compare", "--scenario", scenario, "--baseline", "ITU",
                     "--estimate", "ITU", "--format", "json"]) == 0
        out, _ = capsys.readouterr()
        assert all(r["overestimation_percent"] == 0.0
                   for r in json.loads(out))

    def test_unknown_label_is_usage_error(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        assert main(["compare", "--scenario", scenario, "--baseline", "ITU",
                     "--estimate", "NOPE"]) == 2
        _, err = capsys.readouterr()
        assert "ITU" in err and "GPM" in err


class TestPercentageDomain:
    def test_compare_p_out_of_range_attenuation_sources(self, tmp_path,
                                                        capsys):
        scenario = write_scenario(tmp_path)
        assert main(["compare", "--scenario", scenario, "--baseline", "ITU",
                     "--estimate", "GPM", "--p", "50"]) == 2
        _, err = capsys.readouterr()
        assert "--p" in err

    def test_compare_p_out_of_range_r001_source(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path, sources=[{"label": "ITU", "kind": "r001", "value": 90.0},
                               {"label": "GPM", "kind": "attenuation",
                                "values": GPM_ATTEN}])
        assert main(["compare", "--scenario", scenario, "--baseline", "ITU",
                     "--estimate", "GPM", "--p", "50"]) == 2
        capsys.readouterr()

    def test_sweep_p_out_of_range(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        assert main(["sweep", "--scenario", scenario, "--p", "0.01,50"]) == 2
        assert main(["sweep", "--scenario", scenario, "--p", "0.0005"]) == 2
        capsys.readouterr()

    def test_attenuation_p_out_of_range(self, capsys):
        assert main(["attenuation", "--station", "Abuja", "--freq-ghz",
                     "28.5", "--elevation-deg", "20", "--r001", "42",
                     "--p", "50"]) == 2
        capsys.readouterr()


class TestEmptyValues:
    """An empty flag or scenario value is a value given: it is checked like
    any other, not taken for an absent one."""

    MISSING = "error: [Errno 2] No such file or directory: ''\n"

    @pytest.mark.parametrize("argv, code, message", [
        (["stations", "--catalog", ""], 4, MISSING),
        (["sweep", "--catalog", ""], 4, MISSING),
        (["sweep", "--p", ""], 2, "error: bad --p list '': no values\n"),
        (["sweep", "--plot-data", ""], 4, MISSING),
    ], ids=["stations-catalog", "sweep-catalog", "sweep-p", "sweep-plot-data"])
    def test_empty_flag(self, tmp_path, capsys, argv, code, message):
        if argv[0] == "sweep":
            argv = [*argv, "--scenario", write_scenario(tmp_path), "--format", "csv"]
        assert main(argv) == code
        assert capsys.readouterr().err == message

    def test_unwritable_plot_path_prints_no_report(self, tmp_path, capsys):
        plot = tmp_path / "missing" / "plot.csv"
        assert main(["sweep", "--scenario", write_scenario(tmp_path), "--format",
                     "csv", "--plot-data", str(plot)]) == 4
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: '{plot}'\n")

    @pytest.mark.parametrize("field, message", [
        ("catalog", "field catalog: must be a path string, got ''"),
        ("paths", "sources[0] (GPM): field paths['Cairo']: must be a path string, got ''"),
    ])
    def test_empty_scenario_path(self, tmp_path, capsys, field, message):
        overrides = {"catalog": ""} if field == "catalog" else {"sources": [
            {"label": "GPM", "kind": "series", "paths": {"Cairo": ""}}]}
        assert main(["sweep", "--scenario", write_scenario(tmp_path, **overrides)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestOutputModes:
    def test_stamp_prepends_metadata(self, capsys):
        assert main(["stations", "--format", "csv", "--stamp"]) == 0
        out, _ = capsys.readouterr()
        assert out.startswith("# rainlink ")
        assert main(["stations", "--format", "csv"]) == 0
        out, _ = capsys.readouterr()
        assert not out.startswith("#")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        capsys.readouterr()

    def test_table_format_aligned(self, capsys):
        assert main(["stations"]) == 0
        out, _ = capsys.readouterr()
        assert out.splitlines()[0].startswith("name")

    def test_warning_state_restored(self, capsys):
        filters = list(warnings.filters)
        showwarning = warnings.showwarning
        assert main(["stations"]) == 0
        capsys.readouterr()
        assert warnings.filters == filters
        assert warnings.showwarning is showwarning


# 6 stations x 5000 p = 30k sweep rows
MANY_P = [0.001 + i * 0.999 / 4999 for i in range(5000)]


class TestChunkedReports:
    @pytest.mark.parametrize("format, row_mark", [("csv", "\n"),
                                                  ("json", '"station": ')])
    def test_no_write_holds_more_than_one_chunk(self, tmp_path, capsys,
                                                monkeypatch, format, row_mark):
        scenario = write_scenario(tmp_path, p_list=MANY_P, sources=[
            {"label": "ITU", "kind": "attenuation", "values": ITU_ATTEN}])
        out = WriteRecorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["sweep", "--scenario", scenario, "--format", format]) == 0
        capsys.readouterr()
        rows = [text.count(row_mark) for text in out.writes]
        assert sum(rows) == 30000 + (format == "csv")
        assert max(rows) <= analysis._CHUNK_ROWS + (format == "csv")
        assert len(out.writes) >= 30000 // analysis._CHUNK_ROWS
        if format == "json":
            assert len(json.loads(out.getvalue())) == 30000

    def test_json_stamp_wraps_the_chunks(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, p_list=MANY_P[:500])
        assert main(["sweep", "--scenario", scenario, "--format", "json",
                     "--stamp"]) == 0
        out, _ = capsys.readouterr()
        doc = json.loads(out)
        assert doc["meta"].startswith("rainlink ")
        assert len(doc["report"]) == 6 * 2 * 500

    @pytest.mark.parametrize("table, format", [
        ((["a", "b"], [[1.0, 2.0]] * 3000 + [[3.0]]), "csv"),
        ((["a", "b"], [[1.0, 2.0]] * 3000 + [[3.0]]), "json"),
        ((["a"], [[1.0]]), "xml")])
    def test_rejected_table_writes_nothing_with_stamp(self, capsys, table,
                                                      format):
        with pytest.raises(UsageError):
            _emit(table, format, stamp=True)
        assert capsys.readouterr().out == ""

    def test_plot_data_file(self, tmp_path, capsys):
        # 6 stations x 300 p: more rows than one chunk
        scenario = write_scenario(
            tmp_path, sources=[{"label": "ITU", "kind": "r001", "value": 90.0}])
        plot = tmp_path / "plot.csv"
        p_list = ",".join(map(repr, MANY_P[::5][:300]))
        assert main(["sweep", "--scenario", scenario, "--p", p_list,
                     "--plot-data", str(plot), "--plot-field", "cnr_dB",
                     "--format", "csv"]) == 0
        out, _ = capsys.readouterr()
        rows = sorted((r[0], r[1], float(r[2]), float(r[4]))
                      for r in list(csv.reader(io.StringIO(out)))[1:])
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["station", "source", "p_percent", "cnr_dB"])
        writer.writerows((s, src, repr(p), repr(v)) for s, src, p, v in rows)
        assert len(rows) == 1800
        assert plot.read_bytes() == want.getvalue().encode()

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_reader_that_closes_early_gets_an_io_error(self, tmp_path,
                                                       unbuffered):
        scenario = write_scenario(tmp_path, p_list=MANY_P, sources=[
            {"label": "ITU", "kind": "attenuation", "values": ITU_ATTEN}])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(rainlink.__file__)))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with subprocess.Popen(
                [sys.executable, "-m", "rainlink.cli", "sweep", "--scenario",
                 scenario, "--format", "json"], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 4
        assert err.splitlines().count("error: [Errno 32] Broken pipe") == 1
        assert "Traceback" not in err and "Exception ignored" not in err


# out of name order; at 5 degrees a 60 mm/h curve rises from 0.001 % to
# 0.00133 %, one diagnostic per station
OUT_OF_ORDER = ("name,latitude_deg,longitude_deg,altitude_m\n"
                "Mike,5.0,100.0,200\nZulu,0.0,10.0,300\nAlpha,-5.0,-60.0,100\n")


class TestStreamedSweep:
    """The sweep runs every check and the whole chain before it writes a
    row, and its rows are read into the report a chunk at a time."""

    def scenario(self, tmp_path, zulu_anchor):
        (tmp_path / "catalog.csv").write_text(OUT_OF_ORDER)
        return write_scenario(
            tmp_path, mode="physics", k_clear_dB=None, elevation_deg=5.0,
            catalog="catalog.csv", p_list=[0.001, 0.00133, 0.01], sources=[
                {"label": "rain", "kind": "r001", "value": 60.0},
                {"label": "anchor", "kind": "attenuation", "values": {
                    "Mike": 2.0, "Zulu": zulu_anchor, "Alpha": 2.0}}])

    @pytest.mark.parametrize("format", ["csv", "json", "table"])
    @pytest.mark.parametrize("command", ["sweep", "linkbudget"])
    def test_failing_sweep_writes_nothing(self, tmp_path, capsys, format,
                                          command):
        # Zulu's rows come last in the report
        scenario = self.scenario(tmp_path, -5.0)
        assert main([command, "--scenario", scenario, "--format", format,
                     "--stamp"]) == 3
        assert capsys.readouterr() == (
            "", "error: attenuation -5.0 dB must be >= 0\n")

    def test_diagnostics_keep_catalog_order(self, tmp_path, capsys):
        scenario = self.scenario(tmp_path, 2.0)
        assert main(["sweep", "--scenario", scenario, "--format", "csv"]) == 0
        out, err = capsys.readouterr()
        assert [line.split("/")[0] for line in err.splitlines()] == \
            ["diagnostic: Mike", "diagnostic: Zulu", "diagnostic: Alpha"]
        assert "monotonicity violation" in err
        stations = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert stations == ["Alpha"] * 6 + ["Mike"] * 6 + ["Zulu"] * 6

    def assert_memory_flat(self, tmp_path, capsys, monkeypatch, *extra):
        # 6 stations x 20 sources: 3,000 rows at 25 p and 30,000 at 250 p.
        # The report is json written to a stream that keeps nothing. Rows
        # held as tuples and sorted cost about 190 B each; streamed, 12.
        scenario = write_scenario(tmp_path, sources=[
            {"label": f"s{i:02d}", "kind": "r001", "value": 20.0 + i}
            for i in range(20)], mode="physics", k_clear_dB=None)
        monkeypatch.setattr(sys, "stdout", Discard())

        def peak(count):
            p = ",".join(repr(0.001 + i * 0.999 / (count - 1))
                         for i in range(count))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert main(["sweep", "--scenario", scenario, "--p", p,
                             "--format", "json", *extra]) == 0
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        peak(25)  # caches and lazy imports
        small, large = peak(25), peak(250)
        assert capsys.readouterr().err == ""
        assert (large - small) / (30000 - 3000) < 32

    def test_memory_flat_in_the_row_count(self, tmp_path, capsys, monkeypatch):
        self.assert_memory_flat(tmp_path, capsys, monkeypatch)

    def test_memory_flat_with_plot_data(self, tmp_path, capsys, monkeypatch):
        # the plot file streams too; grouped into curves first, it held
        # about 170 B per row
        self.assert_memory_flat(tmp_path, capsys, monkeypatch,
                                "--plot-data", str(tmp_path / "plot.csv"))


class Discard(io.TextIOBase):
    """A text stream that keeps nothing."""

    def write(self, text):
        return len(text)


class TestNonUtf8Input:
    """A file that is not UTF-8 is a typed error naming the file and the
    byte offset, never a traceback."""

    def test_catalog(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.csv"
        catalog.write_bytes(b"name,latitude_deg,longitude_deg,altitude_m\n"
                            b"Z\xfcrich,47.4,8.5,400\n")
        assert main(["stations", "--catalog", str(catalog)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {catalog}: not UTF-8 at byte 44\n"

    def test_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(b'{"label": "\xff"}')
        assert main(["sweep", "--scenario", str(scenario)]) == 2
        assert capsys.readouterr().err == \
            f"error: {scenario}: not UTF-8 at byte 11\n"

    def test_series(self, tmp_path, capsys):
        series = tmp_path / "rain.csv"
        series.write_bytes(b"timestamp,rate_mm_per_hr\n"
                           b"2010-01-01T00:00:00Z,1\xa0\n")
        assert main(["attenuation", "--station", "Abuja", "--freq-ghz",
                     "28.5", "--elevation-deg", "20", "--series",
                     str(series)]) == 3
        assert capsys.readouterr().err == \
            f"error: {series}: not UTF-8 at byte 47\n"

    def test_series_named_in_a_scenario(self, tmp_path, capsys):
        series = tmp_path / "rain.csv"
        series.write_bytes(b"timestamp,rate_mm_per_hr\n\xc3(\n")
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("name,latitude_deg,longitude_deg,altitude_m\n"
                           "Abuja,9.0,7.3,348\n")
        scenario = write_scenario(tmp_path, sources=[
            {"label": "S", "kind": "series", "paths": {"Abuja": "rain.csv"}}])
        assert main(["sweep", "--scenario", scenario, "--catalog",
                     str(catalog)]) == 3
        assert capsys.readouterr().err == \
            f"error: {series}: not UTF-8 at byte 25\n"


BOM = "\ufeff".encode()


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark reads as nothing: the file gives
    the output of the same file without it."""

    def run_both(self, tmp_path, capsys, name, text, argv):
        # the same file name in two folders, so that labels and paths agree
        runs = []
        for folder, head in (("plain", b""), ("bom", BOM)):
            (tmp_path / folder).mkdir()
            path = tmp_path / folder / name
            path.write_bytes(head + text.encode())
            code = main([str(path) if arg is None else arg for arg in argv])
            out, err = capsys.readouterr()
            runs.append((code, out, err.replace(str(tmp_path / folder), "")))
        assert runs[0] == runs[1]
        return runs[0]

    def test_catalog(self, tmp_path, capsys):
        text = ("name,latitude_deg,longitude_deg,altitude_m\n"
                "Abuja,9.0,7.3,348\nAccra,5.6,-0.2,61\n")
        code, out, _ = self.run_both(tmp_path, capsys, "catalog.csv", text,
                                     ["stations", "--format", "csv",
                                      "--catalog", None])
        assert (code, out.splitlines()[0]) == (0, text.splitlines()[0])

    def test_series(self, tmp_path, capsys):
        # Z stamps at a fixed step: the bulk pass parses them
        text = "timestamp,rate_mm_per_hr\n" + "".join(
            f"2010-01-01T{h:02d}:00:00Z,{h % 5}\n" for h in range(24))
        code, out, _ = self.run_both(
            tmp_path, capsys, "rain.csv", text,
            ["attenuation", "--station", "Abuja", "--freq-ghz", "28.5",
             "--elevation-deg", "20", "--format", "csv", "--series", None])
        assert code == 0 and out.count("\n") == 2

    def test_scenario(self, tmp_path, capsys):
        text = open(write_scenario(tmp_path)).read()
        code, out, _ = self.run_both(tmp_path, capsys, "scenario.json", text,
                                     ["sweep", "--format", "csv",
                                      "--scenario", None])
        assert code == 0 and out.count("\n") == 13

    def test_bad_byte_keeps_its_file_offset(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.csv"
        catalog.write_bytes(BOM + b"name,latitude_deg,longitude_deg,altitude_m\n"
                            b"Z\xfcrich,47.4,8.5,400\n")
        assert main(["stations", "--catalog", str(catalog)]) == 3
        assert capsys.readouterr() == \
            ("", f"error: {catalog}: not UTF-8 at byte 47\n")


PHYSICS = {"mode": "physics", "k_clear_dB": None, "p_list": [0.01, 0.1],
           "sources": [{"label": "ITU", "kind": "r001", "value": 90.0}]}


def anchors(value: float) -> list[dict]:
    return [{"label": "ITU", "kind": "attenuation",
             "values": {name: value for name in ITU_ATTEN}}]


class TestLiveDefects:
    """Scenarios and flags that printed a non-finite report, ran with an
    absurd input or ended in a traceback, and now end in one line of
    error, because every input is checked against its domain."""

    @pytest.mark.parametrize("override, field", [
        # csv printed inf, json Infinity
        ({"eirp_dBW": 1e308, "receiver_gain_dBi": 1e308}, "field eirp_dBW"),
        ({"eirp_dBW": -1e308, "required_margin_dB": 1e308},
         "field eirp_dBW"),
        ({"mode": "calibrated", "k_clear_dB": 1e308,
          "sources": anchors(-1e308)}, "field k_clear_dB"),
        ({"mode": "calibrated", "k_clear_dB": 3.0,
          "sources": anchors(-1e308)}, "field values['Abuja']"),
        # tracebacks
        ({"bandwidth_Hz": 1e-320}, "field bandwidth_Hz"),
        ({"system_temperature_K": 1e-320}, "field system_temperature_K"),
        ({"satellite_altitude_km": 1e308}, "field satellite_altitude_km"),
        # ran with an absurd rain rate
        ({"sources": [{"label": "ITU", "kind": "r001", "value": 1e300}]},
         "field value"),
        # data errors (exit 3) at sweep time
        ({"frequency_GHz": 0.5}, "field frequency_GHz"),
        ({"sources": [{"label": "ITU", "kind": "r001", "value": -5}]},
         "field value"),
    ])
    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_scenario_value_is_one_line_usage_error(self, tmp_path, capsys,
                                                    override, field, format):
        scenario = write_scenario(tmp_path, **dict(PHYSICS, **override))
        assert main(["sweep", "--scenario", scenario,
                     "--format", format]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err and "outside the finite domain" in err

    def test_r001_flag_is_bounded(self, capsys):
        assert main(["attenuation", "--station", "Abuja", "--freq-ghz",
                     "28.5", "--elevation-deg", "20", "--r001", "1e300"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --r001 1e+300 mm/hr outside the finite domain "
                       "[0, 2000]\n")

    def test_overflowing_comparison_is_data_error(self, tmp_path, capsys):
        sources = anchors(5e-324) + [dict(anchors(1000.0)[0], label="big")]
        scenario = write_scenario(tmp_path, sources=sources)
        assert main(["compare", "--scenario", scenario, "--baseline", "ITU",
                     "--estimate", "big", "--format", "json"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: overestimation of baseline 5e-324 dB overflows\n"


class TestFlags:
    ATTENUATION = ["attenuation", "--station", "Abuja", "--freq-ghz", "28.5",
                   "--elevation-deg", "20", "--r001", "42", "--format", "csv"]

    @pytest.mark.parametrize("text, reason", [
        ("a,b", "could not convert string to float: 'a'"), (",", "no values")])
    @pytest.mark.parametrize("command", ["sweep", "attenuation"])
    def test_bad_p_list_is_usage_error(self, tmp_path, capsys, command, text,
                                       reason):
        args = (self.ATTENUATION if command == "attenuation"
                else ["sweep", "--scenario", write_scenario(tmp_path)])
        assert main(args + ["--p", text]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bad --p list {text!r}: {reason}\n"

    @pytest.mark.parametrize("command", ["sweep", "attenuation"])
    def test_repeated_unsorted_p_is_the_sorted_plan(self, tmp_path, capsys,
                                                    command):
        args = (self.ATTENUATION if command == "attenuation"
                else ["sweep", "--scenario", write_scenario(tmp_path, sources=[
                    {"label": "ITU", "kind": "r001", "value": 90.0}]),
                      "--format", "csv"])
        assert main(args + ["--p", "0.01,0.1,0.001"]) == 0
        sorted_out, sorted_err = capsys.readouterr()
        assert main(args + ["--p", "0.1,0.01,0.001,0.1,0.01"]) == 0
        out, err = capsys.readouterr()
        assert out == sorted_out
        assert err == sorted_err + "warning: duplicate p values collapsed\n"

    @pytest.mark.parametrize("command", ["linkbudget", "sweep"])
    def test_repeated_scenario_p_is_collapsed_with_a_warning(
            self, tmp_path, capsys, command):
        sources = [{"label": "ITU", "kind": "r001", "value": 90.0}]
        args = [command, "--format", "csv", "--scenario"]
        assert main(args + [write_scenario(tmp_path, sources=sources,
                                           p_list=[0.01, 0.5])]) == 0
        distinct_out, distinct_err = capsys.readouterr()
        assert main(args + [write_scenario(tmp_path, sources=sources,
                                           p_list=[0.01, 0.01, 0.5])]) == 0
        out, err = capsys.readouterr()
        assert out == distinct_out
        assert err == distinct_err + "warning: duplicate p values collapsed\n"

    def test_label_names_the_source(self, capsys):
        assert main(self.ATTENUATION + ["--label", "gauge 7"]) == 0
        out, _ = capsys.readouterr()
        assert [line.split(",")[1] for line in out.splitlines()] == [
            "source", "gauge 7"]

    @pytest.mark.parametrize("source", [["--r001", "42"], ["--series", "missing.csv"]],
                             ids=["r001", "series"])
    def test_empty_label_is_usage_error(self, capsys, source):
        argv = [*self.ATTENUATION[:-4], *source, "--format", "csv", "--label", ""]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: --label must not be empty\n")

    @pytest.mark.parametrize("field", analysis.PLOT_FIELDS)
    def test_every_plot_field(self, tmp_path, capsys, field):
        scenario = write_scenario(tmp_path)
        plot = tmp_path / "plot.csv"
        assert main(["sweep", "--scenario", scenario, "--plot-data", str(plot),
                     "--plot-field", field, "--format", "csv"]) == 0
        out, _ = capsys.readouterr()
        column = out.splitlines()[0].split(",").index(field)
        assert [line.split(",")[-1] for line in plot.read_text().splitlines()] \
            == [line.split(",")[column] for line in out.splitlines()]

    def test_unknown_plot_field_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["sweep", "--scenario", write_scenario(tmp_path),
                  "--plot-field", "p_percent"])
        assert raised.value.code == 2
        assert "invalid choice: 'p_percent'" in capsys.readouterr().err

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(rainlink.__file__)))
        done = subprocess.run([sys.executable, "-m", "rainlink.cli", "--version"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            0, f"rainlink {rainlink.__version__}\n", "")


SHARED = {"--catalog": (None, False), "--format": ("table", False),
          "--stamp": (False, False), "-h --help": (argparse.SUPPRESS, False)}
SCENARIO = {"--scenario": (None, True)}

# every subcommand's options as {option strings: (default, required)}, and
# its parser defaults other than func
COMMAND_OPTIONS = {
    "stations": ({**SHARED}, {}),
    "attenuation": ({**SHARED, "--station": (None, True),
                     "--freq-ghz": (None, True),
                     "--elevation-deg": (None, True), "--p": ("0.01", False),
                     "--r001": (None, False), "--series": (None, False),
                     "--strategy": ("chebil_annual", False),
                     "--polarization": ("vertical", False),
                     "--label": (None, False)}, {}),
    "linkbudget": ({**SHARED, **SCENARIO}, {"p": None, "plot_data": None}),
    "sweep": ({**SHARED, **SCENARIO, "--p": (None, False),
               "--plot-data": (None, False),
               "--plot-field": ("attenuation_dB", False)}, {}),
    "compare": ({**SHARED, **SCENARIO, "--baseline": (None, True),
                 "--estimate": (None, True), "--p": (None, False)}, {}),
}


class TestReadme:
    """The README's "Library use" blocks run as written."""

    def blocks(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("\n## Library use\n")[1].split("\n## ")[0]
        return re.findall(r"```python\n(.*?)```", section, re.DOTALL)

    def test_single_station_block(self, capsys):
        exec(self.blocks()[0], {})
        assert capsys.readouterr().out.splitlines() == [
            "0.001%  98.27 dB", "0.01%  85.08 dB", "0.1%  50.00 dB",
            "1%  10.46 dB"]

    def test_scenario_block_is_the_cli_sweep(self, tmp_path, capsys,
                                             monkeypatch):
        (tmp_path / "stations.csv").write_text(
            rainlink.packaged_catalog_text(), encoding="utf-8")
        scenario = write_scenario(tmp_path, catalog="stations.csv",
                                  p_list=[1.0, 0.01, 0.1])
        plot = tmp_path / "cli_curves.csv"
        assert main(["sweep", "--scenario", scenario, "--format", "csv",
                     "--plot-data", str(plot), "--plot-field", "cnr_dB"]) == 0
        want = capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        exec(self.blocks()[1], {})
        assert capsys.readouterr() == (want.out, "")
        assert (tmp_path / "curves.csv").read_text() == plot.read_text()


class TestParser:
    def test_each_command_keeps_its_options(self):
        parser = build_parser()
        commands = next(action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        found = {}
        for name, sub in commands.items():
            options = {" ".join(a.option_strings): (a.default, a.required)
                       for a in sub._actions}
            defaults = {k: v for k, v in sub._defaults.items() if k != "func"}
            found[name] = (options, defaults)
        assert found == COMMAND_OPTIONS
