"""Command-line surface.

Commands: stations, attenuation, linkbudget, sweep, compare. Outputs go
to stdout in csv, json, or table form; warnings and diagnostics
go to stderr. Machine outputs are deterministic (no timestamps) unless
--stamp opts into a metadata header.

Exit codes: 0 success; 2 usage or configuration error; 3 parse or
validation error in input data; 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from collections.abc import Sequence
from datetime import datetime, timezone

from . import __version__
from .analysis import (PLOT_FIELDS, availability_sweep, compare_sources,
                       plot_data_table, write_report)
from .attenuation import attenuation_curve
from .constants import check
from .errors import ConfigError, DomainError, RainlinkError, UsageError, read_text
from .geometry import rain_slant_path
from .rain_data import (StationCatalog, Strategy, catalog_table,
                        packaged_catalog_text, parse_rain_series,
                        parse_station_catalog, resolve_r001)
from .rain_physics import Polarization, regression_coefficients
from .scenario import (Scenario, SourceDescriptor, parse_scenario,
                       resolve_sources)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4

CURVE_COLUMNS = ["station", "source", "r001_mm_per_hr", "p_percent",
                 "attenuation_dB"]


def _load_catalog(path: str | None) -> StationCatalog:
    text = packaged_catalog_text() if path is None else read_text(path)
    return parse_station_catalog(text)


def _flag(quantity: str, value: float, flag: str) -> float:
    """A flag's value if it lies in the domain of quantity, else a UsageError."""
    try:
        return check(quantity, value, flag)
    except DomainError as exc:
        raise UsageError(str(exc) if math.isfinite(value)
                         else f"{flag} {value} must be finite") from exc


def _parse_p_list(text: str) -> list[float]:
    try:
        values = [_flag("p_percent", float(x), "--p")
                  for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --p list {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"bad --p list {text!r}: no values")
    return values


def _stamp_text() -> str:
    now = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return f"rainlink {__version__} {now}"


def _emit(table, format: str, stamp: bool) -> None:
    head = tail = ""
    if stamp and format == "json":
        head, tail = f'{{"meta": "{_stamp_text()}", "report":\n', "}\n"
    elif stamp:
        head = f"# {_stamp_text()}\n"
    write_report(table, format, sys.stdout, head, tail)


def _sweep(args, scenario: Scenario, sources: Sequence[SourceDescriptor],
           p_list: Sequence[float]):
    """Resolve sources over the scenario's catalog (--catalog wins) and
    sweep them, printing the chain diagnostics; the SweepTable."""
    base_dir = os.path.dirname(os.path.abspath(args.scenario))
    named = scenario.catalog_path  # relative to the scenario file
    path = None if named is None else os.path.join(base_dir, named)
    catalog = _load_catalog(path if args.catalog is None else args.catalog)
    table = availability_sweep(
        catalog, scenario.params, resolve_sources(sources, catalog, base_dir),
        list(p_list), mode=scenario.mode, k_clear_dB=scenario.k_clear_dB,
        polarization=scenario.polarization)
    for note in table.diagnostics:
        print(f"diagnostic: {note}", file=sys.stderr)
    return table


def cmd_stations(args) -> None:
    _emit(catalog_table(_load_catalog(args.catalog)), args.format, args.stamp)


def cmd_attenuation(args) -> None:
    _flag("frequency_GHz", args.freq_ghz, "--freq-ghz")
    _flag("elevation_deg", args.elevation_deg, "--elevation-deg")
    catalog = _load_catalog(args.catalog)
    station = catalog.station(args.station)
    if (args.r001 is None) == (args.series is None):
        raise UsageError("exactly one of --r001 or --series is required")
    if args.label == "":
        raise UsageError("--label must not be empty")
    if args.r001 is not None:
        label = "direct" if args.label is None else args.label
        r001 = _flag("rain_rate_mm_per_hr", args.r001, "--r001")
    else:
        label = os.path.basename(args.series) if args.label is None else args.label
        series = parse_rain_series(read_text(args.series),
                                   station_ref=station.name)
        r001 = resolve_r001(series, args.strategy, label)
    p_list = _parse_p_list(args.p)
    coeffs = regression_coefficients(args.freq_ghz, args.polarization)
    path = rain_slant_path(station, args.elevation_deg)
    curve = attenuation_curve(station, path, coeffs, r001, p_list)
    for note in curve.diagnostics:
        print(f"diagnostic: {note}", file=sys.stderr)
    rows = [[station.name, label, curve.r001_mm_per_hr, p, a]
            for p, a in curve.points]
    _emit((CURVE_COLUMNS, rows), args.format, args.stamp)


def cmd_sweep(args) -> None:
    """sweep, and linkbudget, which is a sweep at the scenario's p_list."""
    p_list = None if args.p is None else _parse_p_list(args.p)
    scenario = parse_scenario(read_text(args.scenario, ConfigError))
    table = _sweep(args, scenario, scenario.sources,
                   scenario.p_list if p_list is None else p_list)
    if args.plot_data is not None:  # before the report: a bad path prints none
        with open(args.plot_data, "w", encoding="utf-8") as fh:
            write_report(plot_data_table(table, args.plot_field), "csv", fh)
    _emit(table, args.format, args.stamp)


def cmd_compare(args) -> None:
    scenario = parse_scenario(read_text(args.scenario, ConfigError))
    baseline = scenario.source(args.baseline)
    estimate = scenario.source(args.estimate)
    p = (scenario.p_list[0] if args.p_value is None
         else _flag("p_percent", args.p_value, "--p"))
    chosen = [baseline] if baseline is estimate else [baseline, estimate]
    table = _sweep(args, scenario, chosen, [p])
    rows = table.rows
    comparison = compare_sources(
        [r for r in rows if r.source_label == baseline.label],
        [r for r in rows if r.source_label == estimate.label])
    _emit(comparison, args.format, args.stamp)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainlink",
        description="Rain attenuation and link margins for Earth-space links")
    parser.add_argument("--version", action="version",
                        version=f"rainlink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, scenario: bool = False):
        p = sub.add_parser(name, help=help)
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--catalog", help="catalog CSV (default: the scenario's "
                       "catalog, else the bundled six-station fixture)")
        p.add_argument("--format", choices=["csv", "json", "table"],
                       default="table", help="output format (default table)")
        p.add_argument("--stamp", action="store_true",
                       help="prepend run metadata to the output")
        p.set_defaults(func=func)
        return p

    command("stations", cmd_stations, "list a station catalog with separation "
            "warnings")

    p = command("attenuation", cmd_attenuation, "predicted attenuation curve "
                "for one station")
    p.add_argument("--station", required=True, help="station name")
    p.add_argument("--freq-ghz", type=float, required=True,
                   help="carrier frequency, GHz")
    p.add_argument("--elevation-deg", type=float, required=True,
                   help="elevation angle, degrees")
    p.add_argument("--p", default="0.01",
                   help="comma list of exceedance percentages (default 0.01)")
    p.add_argument("--r001", type=float,
                   help="direct rain rate exceeded 0.01%% of the year, mm/hr")
    p.add_argument("--series", help="rain series CSV to reduce instead of "
                   "--r001")
    p.add_argument("--strategy", choices=[s.value for s in Strategy],
                   default=Strategy.CHEBIL_ANNUAL.value,
                   help="series reduction strategy (default chebil_annual)")
    p.add_argument("--polarization", choices=[pol.value for pol in Polarization],
                   default=Polarization.VERTICAL.value,
                   help="wave polarization (default vertical)")
    p.add_argument("--label", help="provenance label echoed in the output")

    command("linkbudget", cmd_sweep, "link results for a scenario",
            True).set_defaults(p=None, plot_data=None)

    p = command("sweep", cmd_sweep, "availability sweep over stations, sources, "
                "and p values", True)
    p.add_argument("--p", help="comma list of exceedance percentages "
                   "(default: scenario p_list)")
    p.add_argument("--plot-data", help="also write long-format plot CSV here")
    p.add_argument("--plot-field", choices=PLOT_FIELDS, default=PLOT_FIELDS[0],
                   help="field for --plot-data (default %(default)s)")

    p = command("compare", cmd_compare, "overestimation of a baseline source by "
                "an estimate source", True)
    p.add_argument("--baseline", required=True, help="baseline source label")
    p.add_argument("--estimate", required=True, help="estimate source label")
    p.add_argument("--p", dest="p_value", type=float,
                   help="exceedance percentage (default: scenario's first)")
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        try:
            args.func(args)
            return EXIT_OK
        except (RainlinkError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            if isinstance(exc, (UsageError, ConfigError)):
                return EXIT_USAGE
            return EXIT_DATA if isinstance(exc, RainlinkError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
