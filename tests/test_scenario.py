from __future__ import annotations

import contextlib
import json
import math
import random
import re
from datetime import datetime, timedelta, timezone

import pytest

import rainlink.scenario
from rainlink import (ConfigError, CoverageWarning, Polarization,
                      SourceDescriptor, SourceKind, Strategy,
                      availability_sweep, compare_sources, emit_report,
                      packaged_catalog_text, parse_scenario,
                      parse_station_catalog, resolve_sources)
from rainlink.cli import main

PHYSICS = {"frequency_GHz": 28.5, "bandwidth_Hz": 2.1e9, "eirp_dBW": 75.9,
           "elevation_deg": 20.0, "receiver_gain_dBi": 31.8,
           "system_temperature_K": 868.4, "required_margin_dB": 0.36,
           "satellite_altitude_km": 1200.0, "mode": "physics"}


def catalog():
    return parse_station_catalog(packaged_catalog_text())


def write_series(tmp_path) -> dict[str, str]:
    """One seeded 30-minute rain series per bundled station, written under
    tmp_path/series; returns the paths relative to tmp_path."""
    rng = random.Random(7)
    start = datetime(2010, 1, 1, tzinfo=timezone.utc)
    (tmp_path / "series").mkdir()
    paths = {}
    for i, station in enumerate(catalog().stations):
        rows = ["timestamp,rate_mm_per_hr"]
        for k in range(400):
            ts = (start + timedelta(minutes=30 * k)).isoformat()
            rate = round(rng.lognormvariate(0.6, 1.2), 2) \
                if rng.random() < 0.05 + 0.02 * i else 0.0
            rows.append(f"{ts.replace('+00:00', 'Z')},{rate}")
        paths[station.name] = f"series/{i}.csv"
        (tmp_path / paths[station.name]).write_text("\n".join(rows) + "\n")
    return paths


def series_source(label, strategy, paths):
    return SourceDescriptor(label=label, kind=SourceKind.SERIES,
                            paths=dict(paths), strategy=strategy)


class TestResolveSources:
    def test_shared_file_parsed_once_per_station(self, tmp_path, monkeypatch):
        paths = write_series(tmp_path)
        sources = [series_source("chebil", Strategy.CHEBIL_ANNUAL, paths),
                   series_source("empirical", Strategy.EMPIRICAL_EXCEEDANCE,
                                 paths)]
        with pytest.warns(CoverageWarning, match="'empirical': 400 samples"):
            alone = [resolve_sources([s], catalog(), str(tmp_path))[0]
                     for s in sources]
        parsed = []
        real = rainlink.scenario.parse_rain_series

        def counting(*args, **kwargs):
            parsed.append(kwargs["station_ref"])
            return real(*args, **kwargs)

        monkeypatch.setattr(rainlink.scenario, "parse_rain_series", counting)
        with pytest.warns(CoverageWarning, match="'empirical': 400 samples"):
            together = resolve_sources(sources, catalog(), str(tmp_path))
        assert sorted(parsed) == sorted(s.name for s in catalog().stations)
        assert together == alone
        assert together[0].r001_by_station != together[1].r001_by_station

    def test_relative_paths_use_base_dir_absolute_unchanged(self, tmp_path):
        paths = write_series(tmp_path)
        relative = series_source("rel", Strategy.CHEBIL_ANNUAL, paths)
        absolute = series_source(
            "abs", Strategy.CHEBIL_ANNUAL,
            {name: str(tmp_path / p) for name, p in paths.items()})
        elsewhere = str(tmp_path / "elsewhere")
        [from_rel] = resolve_sources([relative], catalog(), str(tmp_path))
        [from_abs] = resolve_sources([absolute], catalog(), elsewhere)
        assert from_rel.r001_by_station == from_abs.r001_by_station
        with pytest.raises(OSError):
            resolve_sources([relative], catalog(), elsewhere)

    def test_missing_station_path_names_source_and_station(self, tmp_path,
                                                           capsys):
        paths = write_series(tmp_path)
        del paths["Cairo"]
        with pytest.raises(ConfigError) as err:
            resolve_sources([series_source("gpm", Strategy.CHEBIL_ANNUAL,
                                           paths)], catalog(), str(tmp_path))
        assert "'gpm'" in str(err.value) and "'Cairo'" in str(err.value)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(PHYSICS, sources=[
            {"label": "gpm", "kind": "series", "paths": paths}])))
        assert main(["sweep", "--scenario", str(scenario)]) == 2
        _, stderr = capsys.readouterr()
        assert "gpm" in stderr and "Cairo" in stderr

    @pytest.mark.parametrize("source, message", [
        ({"label": "gauge", "kind": "r001", "values": {"Abuja": 90.0}},
         "source 'gauge': no value for station 'Hartbeesthoek'"),
        ({"label": "pub", "kind": "attenuation", "values": {"Abuja": 30.0}},
         "source 'pub': no value for station 'Hartbeesthoek'"),
        ({"label": "gauge", "kind": "r001", "values": {}},
         "source 'gauge': no value for station 'Abuja'"),
        ({"label": "pub", "kind": "attenuation", "values": {}},
         "source 'pub': no value for station 'Abuja'"),
        ({"label": "gpm", "kind": "series", "paths": {}},
         "source 'gpm': no series path for station 'Abuja'"),
    ], ids=["r001", "attenuation", "r001-empty", "attenuation-empty", "series-empty"])
    def test_uncovered_station_is_config_error_for_every_kind(
            self, tmp_path, capsys, source, message):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(PHYSICS, sources=[source])))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            resolve_sources(parse_scenario(scenario.read_text()).sources,
                            catalog(), str(tmp_path))
        assert main(["sweep", "--scenario", str(scenario)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_coverage_checked_before_any_series_is_read(self, tmp_path,
                                                        monkeypatch):
        names = [s.name for s in catalog().stations]
        sources = [series_source("gpm", Strategy.CHEBIL_ANNUAL,
                                 {n: "missing.csv" for n in names}),
                   SourceDescriptor(label="gauge", kind=SourceKind.R001,
                                    values={n: 90.0 for n in names[:-1]})]

        def no_reading(*args, **kwargs):
            raise AssertionError("a series file read before the check")

        monkeypatch.setattr(rainlink.scenario, "read_text", no_reading)
        with pytest.raises(ConfigError, match="^source 'gauge': no value for "
                           "station 'Praia'$"):
            resolve_sources(sources, catalog(), str(tmp_path))

    def test_no_sources_rejected(self):
        with pytest.raises(ConfigError):
            resolve_sources([], catalog(), ".")

    @pytest.mark.parametrize("source, message", [
        (SourceDescriptor("gpm", SourceKind.SERIES),
         "source 'gpm': series kind requires paths"),
        (SourceDescriptor("pub", SourceKind.ATTENUATION),
         "source 'pub': attenuation kind requires values"),
        (SourceDescriptor("itu", SourceKind.R001),
         "source 'itu': r001 kind requires value or values"),
        (SourceDescriptor("pub", SourceKind.ATTENUATION, value=3.0),
         "source 'pub': field value: not used by attenuation kind"),
        (SourceDescriptor("pub", "anchor", values={}),
         "source 'pub': field kind: must be one of r001, series, attenuation, "
         "got 'anchor'"),
    ], ids=["series-no-paths", "attenuation-no-values", "r001-no-value",
            "attenuation-value", "unknown-kind"])
    def test_descriptor_built_in_code_is_checked_as_parsed(self, source, message):
        # the table parse_scenario checks JSON keys against, over the fields set
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            resolve_sources([source], catalog(), ".")

    def test_unknown_strategy_rejected_before_any_file_is_read(self, tmp_path):
        # the paths name no file: reading one would raise OSError
        source = series_source("gpm", "annual", {s.name: "missing.csv"
                                                 for s in catalog().stations})
        with pytest.raises(ConfigError, match="^source 'gpm': field strategy: must be one "
                           "of chebil_annual, empirical_exceedance, got 'annual'$"):
            resolve_sources([source], catalog(), str(tmp_path))

    def test_kind_given_by_its_value_is_that_kind(self):
        values = {s.name: 3.0 for s in catalog().stations}
        [by_value] = resolve_sources([SourceDescriptor("pub", "attenuation", values=values)],
                                     catalog(), ".")
        [by_member] = resolve_sources([SourceDescriptor(
            "pub", SourceKind.ATTENUATION, values=values)], catalog(), ".")
        assert by_value == by_member
        assert by_value.attenuation_by_station == values


class TestParseScenarioTypes:
    def test_entries_are_typed(self):
        scenario = parse_scenario(json.dumps(dict(
            PHYSICS, polarization="horizontal", sources=[
                {"label": "gpm", "kind": "series",
                 "strategy": "empirical_exceedance", "paths": {"A": "a.csv"}},
                {"label": "itu", "kind": "r001", "value": 90.0}])))
        assert scenario.polarization is Polarization.HORIZONTAL
        gpm, itu = scenario.sources
        assert gpm.kind is SourceKind.SERIES
        assert gpm.strategy is Strategy.EMPIRICAL_EXCEEDANCE
        assert itu.kind is SourceKind.R001

    @pytest.mark.parametrize("doc", [
        dict(PHYSICS, polarization="circular"),
        dict(PHYSICS, sources=[{"label": "gpm", "kind": "series",
                                "strategy": "direct", "paths": {}}]),
    ])
    def test_unknown_choice_rejected(self, doc):
        with pytest.raises(ConfigError):
            parse_scenario(json.dumps(doc))


class TestParseScenarioValues:
    R001 = {"label": "model", "kind": "r001", "value": 90.0}

    @pytest.mark.parametrize("doc, field", [
        (dict(PHYSICS, sources=[dict(R001, value="abc")]), "field value"),
        (dict(PHYSICS, sources=[{"label": "g", "kind": "r001",
                                 "values": {"A": [1]}}]), "field values['A']"),
        (dict(PHYSICS, sources=[R001], p_list=["x"]), "field p_list"),
        (dict(PHYSICS, sources=[R001], k_clear_dB="x"), "field k_clear_dB"),
        (dict(PHYSICS, sources=[R001], catalog=5), "field catalog"),
        (dict(PHYSICS, sources=5), "field sources"),
        (dict(PHYSICS, sources=[R001], eirp_dBW=math.nan), "field eirp_dBW"),
        (dict(PHYSICS, sources=[R001], elevation_deg=math.inf),
         "field elevation_deg"),
        (dict(PHYSICS, sources=[R001], antenna_diameter_m="nan"),
         "field antenna_diameter_m"),
        (dict(PHYSICS, sources=[dict(R001, value="inf")]), "field value"),
        (dict(PHYSICS, sources=[{"label": "g", "kind": "r001",
                                 "values": {"A": -math.inf}}]),
         "field values['A']"),
        (dict(PHYSICS, sources=[R001], p_list=[math.nan]), "field p_list"),
        (dict(PHYSICS, sources=[R001], k_clear_dB=math.inf),
         "field k_clear_dB"),
        (dict(PHYSICS, sources=[dict(R001, values=[80.0, 90.0])]),
         r"sources[0] (model): field values"),
        (dict(PHYSICS, sources=[dict(R001, values=None)]),
         r"sources[0] (model): field values"),
        (dict(PHYSICS, sources=[{"label": "s", "kind": "series",
                                 "paths": "a.csv"}]),
         r"sources[0] (s): field paths"),
        (dict(PHYSICS, sources=[R001], frequency_GHz=True),
         "field frequency_GHz: must be a number"),
        (dict(PHYSICS, sources=[R001], p_list=[True]),
         "field p_list: must be a number"),
        (dict(PHYSICS, sources=[R001], frequency_GHz="28.5"),
         "field frequency_GHz: must be a number"),
        (dict(PHYSICS, sources=[R001], eirp_dBW=10 ** 400), "field eirp_dBW"),
        (dict(PHYSICS, sources=[{"label": "s", "kind": "series",
                                 "paths": {"Abuja": None}}]),
         "sources[0] (s): field paths['Abuja']: must be a path string"),
    ])
    def test_bad_value_names_field(self, doc, field):
        with pytest.raises(ConfigError, match=re.escape(field)):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("doc, message", [
        ([PHYSICS], "scenario must be a JSON object"),
        (dict(PHYSICS, sources=[R001], p_list=[]),
         "field p_list: must be a non-empty list"),
        (dict(PHYSICS, sources=[R001], p_list=0.01),
         "field p_list: must be a non-empty list"),
        (dict(PHYSICS, sources=[R001, "r001"]), "sources[1]: must be an object"),
        (dict(PHYSICS, sources=[{"kind": "r001", "value": 90.0}]),
         "sources[0]: field label required"),
        (dict(PHYSICS, sources=[dict(R001, label=7)]),
         "sources[0]: field label required"),
        (dict(PHYSICS, sources=[{"label": "m", "kind": "r001"}]),
         "sources[0] (m): r001 kind requires value or values"),
    ])
    def test_bad_shape_is_config_error(self, doc, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("source, field", [
        (dict(R001, strategy="chebil_annual"), "strategy"),
        (dict(R001, paths={"Abuja": "a.csv"}), "paths"),
        ({"label": "model", "kind": "attenuation", "value": 3.0,
          "values": {"Abuja": 1.0}}, "value"),
        ({"label": "model", "kind": "attenuation", "values": {"Abuja": 1.0},
          "strategy": "chebil_annual"}, "strategy"),
        ({"label": "model", "kind": "series", "paths": {"Abuja": "a.csv"},
          "value": 90.0}, "value"),
    ])
    def test_field_the_kind_does_not_use_is_config_error(self, tmp_path,
                                                         capsys, source, field):
        with pytest.raises(ConfigError, match=re.escape(
                f"sources[0] (model): field {field}: not used by "
                f"{source['kind']} kind")):
            parse_scenario(json.dumps(dict(PHYSICS, sources=[source])))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(PHYSICS, sources=[source])))
        assert main(["linkbudget", "--scenario", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: sources[0] (model): field "
                                       f"{field}: not used by {source['kind']} kind\n")

    def test_r001_with_value_and_values_is_config_error(self, tmp_path, capsys):
        source = dict(self.R001, values={"Abuja": 10.0})
        message = ("sources[0] (model): r001 kind requires value or values, "
                   "not both")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_scenario(json.dumps(dict(PHYSICS, sources=[source])))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(PHYSICS, sources=[source])))
        assert main(["linkbudget", "--scenario", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_elevation_outside_0_90_is_config_error(self):
        with pytest.raises(ConfigError, match="elevation_deg"):
            parse_scenario(json.dumps(dict(PHYSICS, sources=[self.R001],
                                           elevation_deg=200.0)))

    @pytest.mark.parametrize("kind", [{"kind": "r001", "value": 50.0},
                                      {"kind": "series",
                                       "paths": {"Abuja": "a.csv"}}])
    def test_elevation_below_chain_floor_is_config_error(self, kind):
        doc = dict(PHYSICS, elevation_deg=3.0,
                   sources=[dict(kind, label="rain")])
        with pytest.raises(ConfigError,
                           match=r"field elevation_deg: 3 .*'rain'"):
            parse_scenario(json.dumps(doc))

    def test_injected_attenuation_below_chain_floor_accepted(self):
        doc = dict(PHYSICS, elevation_deg=3.0,
                   sources=[{"label": "fade", "kind": "attenuation",
                             "values": {"Abuja": 1.0}}])
        assert parse_scenario(json.dumps(doc)).params.elevation_deg == 3.0

    @pytest.mark.parametrize("override", [
        {"sources": [dict(R001, value="abc")]},
        {"sources": [R001], "p_list": ["x"]},
        {"sources": [R001], "catalog": 5},
        {"sources": [R001], "eirp_dBW": math.nan},
        {"sources": [R001], "elevation_deg": 200.0},
        {"sources": [R001], "elevation_deg": 3.0},
        {"sources": [dict(R001, value=50.0, values=[80.0, 90.0])]},
    ])
    def test_cli_exits_2(self, tmp_path, capsys, override):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(PHYSICS, **override)))
        assert main(["sweep", "--scenario", str(path), "--format",
                     "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")


class TestCompareIsOneSweep:
    @pytest.mark.parametrize("baseline, estimate, p", [
        ("model", "chebil", None),
        ("chebil", "empirical", "0.1"),
        ("empirical", "empirical", None),
        ("published", "model", "0.001"),
    ])
    def test_rows_match_two_single_source_sweeps(self, tmp_path, capsys,
                                                 baseline, estimate, p):
        paths = write_series(tmp_path)
        doc = dict(PHYSICS, p_list=[0.01, 0.1], sources=[
            {"label": "model", "kind": "r001", "value": 60.0},
            {"label": "chebil", "kind": "series", "paths": paths},
            {"label": "empirical", "kind": "series",
             "strategy": "empirical_exceedance", "paths": paths},
            {"label": "published", "kind": "attenuation",
             "values": {s.name: 5.0 + i
                        for i, s in enumerate(catalog().stations)}}])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        scenario = parse_scenario(path.read_text())
        p_value = scenario.p_list[0] if p is None else float(p)

        def sweep_alone(label):
            # 400 samples are too few for the 0.01 % rank: R001 is the maximum
            with pytest.warns(CoverageWarning, match="'empirical': 400") \
                    if label == "empirical" else contextlib.nullcontext():
                [resolved] = resolve_sources([scenario.source(label)],
                                             catalog(), str(tmp_path))
            return list(availability_sweep(
                catalog(), scenario.params, [resolved], [p_value],
                mode=scenario.mode, polarization=scenario.polarization).rows)

        expected = emit_report(compare_sources(sweep_alone(baseline),
                                               sweep_alone(estimate)), "csv")
        args = ["compare", "--scenario", str(path), "--baseline", baseline,
                "--estimate", estimate, "--format", "csv"]
        assert main(args + (["--p", p] if p else [])) == 0
        out, _ = capsys.readouterr()
        assert out == expected
