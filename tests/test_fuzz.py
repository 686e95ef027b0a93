"""Fuzz tests of the input boundary: station catalogs, scenarios, the
attenuation flags and in-process runs of main() for sweep, linkbudget and
compare.

Numbers are drawn from plausible ranges and from the float extremes
(+-1e308, the least subnormal, other subnormals, zeros); now and then one
of them is replaced by a non-finite value or by text. Every run must end
in a report whose numbers are all finite, json that parses without NaN or
Infinity, or a typed error with a documented exit code: never in a
traceback.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainlink import (ConfigError, RainlinkError, parse_scenario,
                      parse_station_catalog)
from rainlink.cli import main

EXTREMES = [1e308, -1e308, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
            0.0, -0.0]
NOT_FINITE = [math.nan, math.inf, -math.inf, "nan", "inf", "x", None]
EXIT_CODES = {0, 2, 3, 4}

# plausible values of each scenario number, as (low, high)
PARAMS = {"frequency_GHz": (1.0, 100.0), "bandwidth_Hz": (1e3, 1e10),
          "eirp_dBW": (0.0, 100.0), "elevation_deg": (5.0, 90.0),
          "receiver_gain_dBi": (-10.0, 60.0),
          "system_temperature_K": (50.0, 2000.0),
          "required_margin_dB": (0.0, 10.0),
          "satellite_altitude_km": (300.0, 36000.0),
          "other_losses_dB": (0.0, 10.0), "antenna_diameter_m": (0.5, 20.0)}
RATE, P, K_CLEAR = (0.0, 300.0), (0.001, 1.0), (-20.0, 40.0)
# attenuation anchors; physics mode takes no negative ones
ANCHOR = {"calibrated": (-60.0, 60.0), "physics": (0.0, 60.0)}
STATIONS = ["A", "B"]
LABELS = ["rate", "gauge", "fade"]


def number(low: float, high: float):
    """A plausible value, a float extreme or a non-finite value."""
    return st.one_of(st.floats(low, high), st.floats(low, high),
                     st.sampled_from(EXTREMES + NOT_FINITE[:3]))


def _leaves(node) -> list:
    """(container, key) of every number in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    found = []
    for key, value in items:
        if isinstance(value, (dict, list)):
            found += _leaves(value)
        elif isinstance(value, float):
            found.append((node, key))
    return found


def _spoil(draw, leaves: list, most: int) -> None:
    """Set up to most of the leaves to float extremes and, one time in
    four, any one of them to a non-finite value or text."""
    for i in draw(st.lists(st.sampled_from(range(len(leaves))),
                           max_size=most, unique=True)):
        container, key = leaves[i]
        container[key] = draw(st.sampled_from(EXTREMES))
    if draw(st.integers(0, 3)) == 0:
        container, key = draw(st.sampled_from(leaves))
        container[key] = draw(st.sampled_from(NOT_FINITE))


@st.composite
def scenarios(draw, group: str = "all"):
    """A plausible scenario over the stations A and B, then spoiled: the
    numbers of the group ("params", the link parameters and k_clear_dB;
    "sources", the rain rates and anchors; "all", p included) may take
    extreme values."""
    doc = {name: draw(st.floats(*bounds)) for name, bounds in PARAMS.items()}
    doc["mode"] = draw(st.sampled_from(["physics", "calibrated"]))
    if doc["mode"] == "calibrated" or draw(st.booleans()):
        doc["k_clear_dB"] = draw(st.floats(*K_CLEAR))
    params = _leaves(doc)
    doc["p_list"] = draw(st.lists(st.floats(*P), min_size=1, max_size=3))
    doc["sources"] = [
        {"label": "rate", "kind": "r001", "value": draw(st.floats(*RATE))},
        {"label": "gauge", "kind": "r001",
         "values": {n: draw(st.floats(*RATE)) for n in STATIONS}},
        {"label": "fade", "kind": "attenuation",
         "values": {n: draw(st.floats(*ANCHOR[doc["mode"]]))
                    for n in STATIONS}}]
    leaves = {"params": params, "sources": _leaves(doc["sources"]),
              "all": _leaves(doc)}[group]
    _spoil(draw, leaves, 3)
    return doc


@st.composite
def catalogs(draw, spoil: bool = True):
    """The text of a plausible catalog of the stations A and B, spoiled
    unless told not to."""
    rows = [[name, draw(st.floats(lat - 5.0, lat + 5.0)),
             draw(st.floats(-180.0, 180.0)), draw(st.floats(0.0, 3000.0))]
            for name, lat in zip(STATIONS, (-30.0, 30.0))]
    if spoil:
        _spoil(draw, _leaves(rows), 2)
    return "".join(",".join(map(str, row)) + "\n" for row in [
        ["name", "latitude_deg", "longitude_deg", "altitude_m"], *rows])


def run(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _no_constant(name):
    raise AssertionError(f"json report holds {name}")


def assert_finite_report(text: str, format: str) -> None:
    """Every number of a csv, json or table report is finite."""
    if format == "json":
        cells = [v for record in json.loads(text, parse_constant=_no_constant)
                 for v in record.values()]
    elif format == "csv":
        cells = [cell for row in csv.reader(io.StringIO(text)) for cell in row]
    else:
        cells = text.split()
    for cell in cells:
        if isinstance(cell, bool):
            continue
        try:
            value = float(cell)
        except (TypeError, ValueError):
            continue
        assert math.isfinite(value), (cell, text)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(text=catalogs())
def test_parse_station_catalog(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            catalog = parse_station_catalog(text)
        except RainlinkError:
            return
    for s in catalog.stations:
        assert -90.0 <= s.latitude_deg <= 90.0
        assert -180.0 <= s.longitude_deg <= 180.0
        assert math.isfinite(s.altitude_km) and s.altitude_km >= 0.0


@settings(max_examples=100, deadline=None)
@given(doc=scenarios())
def test_parse_scenario(doc):
    try:
        scenario = parse_scenario(json.dumps(doc))
    except ConfigError:
        return
    params = [getattr(scenario.params, name) for name in PARAMS]
    values = [v for s in scenario.sources for v in (s.values or {}).values()]
    numbers = [*params, scenario.k_clear_dB, *scenario.p_list,
               *values, *(s.value for s in scenario.sources)]
    assert all(math.isfinite(v) for v in numbers if v is not None)


@settings(max_examples=100, deadline=None)
@given(freq=number(1.0, 100.0), elevation=number(5.0, 90.0),
       r001=number(*RATE), p_list=st.lists(number(*P), min_size=1,
                                           max_size=3),
       polarization=st.sampled_from(["horizontal", "vertical"]),
       format=st.sampled_from(["csv", "json", "table"]))
def test_attenuation_flags(freq, elevation, r001, p_list, polarization,
                           format):
    code, out, err = run([
        "attenuation", "--station", "Abuja", f"--freq-ghz={freq!r}",
        f"--elevation-deg={elevation!r}", f"--r001={r001!r}",
        f"--p={','.join(map(repr, p_list))}",
        "--polarization", polarization, "--format", format])
    assert code in EXIT_CODES, err
    if code:
        assert out == ""
    else:
        assert_finite_report(out, format)


@st.composite
def commands(draw):
    command = draw(st.sampled_from(["sweep", "linkbudget", "compare"]))
    argv = [command]
    if command == "compare":
        argv += ["--baseline", draw(st.sampled_from(LABELS)),
                 "--estimate", draw(st.sampled_from(LABELS))]
        if draw(st.booleans()):
            argv.append(f"--p={draw(st.floats(*P))!r}")
    elif command == "sweep" and draw(st.booleans()):
        p_list = draw(st.lists(st.floats(*P), min_size=1, max_size=3))
        argv.append(f"--p={','.join(map(repr, p_list))}")
    return argv + ["--format", draw(st.sampled_from(["csv", "json",
                                                     "table"]))]


def check_run(workdir, argv, doc, catalog):
    (workdir / "scenario.json").write_text(json.dumps(dict(
        doc, catalog="catalog.csv")))
    (workdir / "catalog.csv").write_text(catalog)
    code, out, err = run([*argv, "--scenario",
                          str(workdir / "scenario.json")])
    assert code in EXIT_CODES, err
    assert "Traceback" not in err
    if code:
        assert out == ""
    else:
        assert_finite_report(out, argv[-1])


@settings(max_examples=100, deadline=None)
@given(argv=commands(), doc=scenarios("params"), catalog=catalogs(False))
def test_main_odd_link_parameters(workdir, argv, doc, catalog):
    check_run(workdir, argv, doc, catalog)


@settings(max_examples=100, deadline=None)
@given(argv=commands(), doc=scenarios("sources"), catalog=catalogs())
def test_main_odd_sources_and_stations(workdir, argv, doc, catalog):
    check_run(workdir, argv, doc, catalog)
