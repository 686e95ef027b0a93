"""Cross-source comparison, multi-station availability sweeps, ranking,
and report/plot-data emission.

Machine formats (csv, json) serialize floats via repr so a round-trip
re-parses to exactly equal values; the aligned-table format is for
humans and rounds for readability.
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from collections.abc import Iterator
from functools import partial
from itertools import chain, islice, repeat, starmap
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .attenuation import PPlan, attenuation_curve
from .constants import check
from .errors import DomainError, Record, UsageError, ValidationError
from .geometry import rain_slant_path
from .link_budget import CnrMode, LinkResult, TransmissionParams, link_budget
from .rain_data import StationCatalog
from .rain_physics import Polarization, regression_coefficients

SWEEP_COLUMNS = ["station", "source", "p_percent", "attenuation_dB", "cnr_dB",
                 "required_margin_dB", "available_margin_dB", "closes"]
# the sweep columns that plot_data_table can plot against p
PLOT_FIELDS = ("attenuation_dB", "cnr_dB", "available_margin_dB")
COMPARISON_COLUMNS = ["station", "baseline_attenuation_dB",
                      "estimate_attenuation_dB", "overestimation_percent"]


class ComparisonRow(Record):
    """Overestimation of one station's baseline attenuation by an
    alternative estimate."""

    station_ref: str
    baseline_attenuation_dB: float
    estimate_attenuation_dB: float
    overestimation_percent: float

    @property
    def display_percent(self) -> int:
        # integer display per the reporting convention; raw value retained
        return round(self.overestimation_percent)


class ResolvedSource(Record):
    """A rain source reduced to per-station inputs for the sweep.

    Exactly one of r001_by_station (rain rates fed through the prediction
    chain) or attenuation_by_station (attenuation anchors injected
    verbatim, constant across p) is set.
    """

    label: str
    r001_by_station: dict[str, float] | None = None
    attenuation_by_station: dict[str, float] | None = None

    def __post_init__(self):
        if (self.r001_by_station is None) == (self.attenuation_by_station is None):
            raise ValidationError(f"source {self.label!r}: exactly one of "
                                  "r001_by_station/attenuation_by_station required")
        for station, value in (self.attenuation_by_station or {}).items():
            check("attenuation_dB", value,
                  f"source {self.label!r} station {station!r}: attenuation")


class SweepTable:
    """Link results over the (station, source, p) cross-product, made afresh
    from the chain's curves on each iteration: a tuple per row, in
    SWEEP_COLUMNS order, by station, source, p; and the chain's diagnostics."""

    def __init__(self, make_rows, diagnostics):
        self._make_rows = make_rows
        self.diagnostics = tuple(diagnostics)

    def __iter__(self):
        return self._make_rows()

    @property
    def rows(self) -> list[LinkResult]:
        return list(starmap(LinkResult, self))


def overestimation_percentage(baseline_dB: float, estimate_dB: float) -> float:
    """(baseline - estimate)/baseline * 100; full precision (display
    rounding is the caller's concern)."""
    if baseline_dB <= 0.0:
        raise DomainError(f"undefined comparison: baseline {baseline_dB} dB "
                          "must be > 0")
    percent = (baseline_dB - estimate_dB) / baseline_dB * 100.0
    if not math.isfinite(percent):
        raise DomainError(f"overestimation of baseline {baseline_dB} dB overflows")
    return percent


def compare_sources(baseline_results: list[LinkResult],
                    estimate_results: list[LinkResult]) -> list[ComparisonRow]:
    """One ComparisonRow per station, in baseline order. Both result sets
    must cover exactly the same stations."""
    base_by_station = {r.station_ref: r for r in baseline_results}
    est_by_station = {r.station_ref: r for r in estimate_results}
    if len(base_by_station) != len(baseline_results):
        raise ValidationError("baseline results repeat a station")
    if len(est_by_station) != len(estimate_results):
        raise ValidationError("estimate results repeat a station")
    missing = sorted(set(base_by_station) - set(est_by_station))
    extra = sorted(set(est_by_station) - set(base_by_station))
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing from estimate: {', '.join(missing)}")
        if extra:
            parts.append(f"missing from baseline: {', '.join(extra)}")
        raise ValidationError("station sets differ; " + "; ".join(parts))
    rows = []
    for base in baseline_results:
        a, b = base.attenuation_dB, est_by_station[base.station_ref].attenuation_dB
        rows.append(ComparisonRow(base.station_ref, a, b,
                                  overestimation_percentage(a, b)))
    return rows


def availability_sweep(catalog: StationCatalog, params: TransmissionParams,
                       sources: list[ResolvedSource], p_list: list[float],
                       mode: CnrMode | str = CnrMode.PHYSICS,
                       k_clear_dB: float | None = None,
                       polarization: Polarization | str = Polarization.VERTICAL) -> SweepTable:
    """The (station, source, p) cross-product through the attenuation chain
    (for rain-rate sources) and the link budget, as a SweepTable. All that
    can fail runs before it returns, in catalog order; the table keeps one
    attenuation per row and makes the rows from them on each iteration."""
    if not catalog.stations:
        raise ValidationError("catalog is empty")
    if not p_list:
        raise ValidationError("p_list is empty")
    if not sources:
        raise ValidationError("no sources given")
    coeffs = regression_coefficients(params.frequency_GHz, polarization)
    cnr_of = link_budget(params, mode, k_clear_dB)
    required = params.required_margin_dB
    plan = PPlan(p_list)
    curves: dict[str, list] = {}  # per station and source, A_p over the plan
    diagnostics: list[str] = []
    for station in catalog.stations:
        path = None
        curves[station.name] = station_curves = []
        for source in sources:
            injected = source.attenuation_by_station is not None
            by_station = (source.attenuation_by_station if injected
                          else source.r001_by_station)
            if station.name not in by_station:
                raise ValidationError(f"source {source.label!r} has no "
                                      f"value for station {station.name!r}")
            value = by_station[station.name]
            if injected:
                cnr_of(value)  # a negative anchor fails here in physics mode
                station_curves.append((value,) * len(plan))
            else:
                if path is None:
                    path = rain_slant_path(station, params.elevation_deg)
                curve = attenuation_curve(station, path, coeffs, value, plan)
                for note in curve.diagnostics:
                    diagnostics.append(f"{station.name}/{source.label}: {note}")
                station_curves.append(array("d", map(itemgetter(1), curve.points)))
    labels = sorted({source.label for source in sources})

    def records():
        # a stable sort's order: names are unique, same-label sources interleave by p
        for name in sorted(curves):
            for label in labels:
                same = [c for s, c in zip(sources, curves[name]) if s.label == label]
                for p, points in zip(plan, zip(*same)):
                    for a_p in points:  # finite and >= 0: cnr_of cannot fail
                        # available_margin and link_closes, inline
                        cnr = cnr_of(a_p)
                        margin = cnr - required
                        yield (name, label, p, a_p, cnr, required, margin,
                               margin >= 0.0)
    return SweepTable(records, diagnostics)


def rank_stations(results_at_fixed_p: list[LinkResult]) -> list[LinkResult]:
    """Order results by descending available margin, name-ascending ties.
    Expects one result per station at a common p."""
    stations = [r.station_ref for r in results_at_fixed_p]
    if len(set(stations)) != len(stations):
        raise ValidationError("ranking needs one result per station")
    if len({r.p_percent for r in results_at_fixed_p}) > 1:
        raise ValidationError("ranking needs results at a common p")
    return sorted(results_at_fixed_p,
                  key=lambda r: (-r.available_margin_dB, r.station_ref))


def _table_shape(table) -> tuple[list[str], list | Iterator]:
    """A table's header and row cells; a SweepTable's, or an iterator, stay lazy."""
    if isinstance(table, SweepTable):
        return SWEEP_COLUMNS, iter(table)
    if isinstance(table, tuple) and len(table) == 2:
        return list(table[0]), table[1] if isinstance(table[1], Iterator) else list(table[1])
    if isinstance(table, list) and table and all(isinstance(r, ComparisonRow) for r in table):
        return COMPARISON_COLUMNS, list(map(ComparisonRow._values, table))
    if isinstance(table, list) and table and all(isinstance(r, LinkResult) for r in table):
        return SWEEP_COLUMNS, list(map(LinkResult._values, table))
    raise UsageError(f"cannot emit a report for {type(table).__name__}")


def _cell_text(value, machine: bool) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value)) if machine else f"{value:.4f}"
    return str(value)


# per format, the text of a cell in an all-str column, in a column of exact
# finite floats, and in any other column, which gives both the same text
_TABLE_TEXTS = (str, "{:.4f}".format, partial(_cell_text, machine=False))
_FORMATTERS = {"csv": (str, repr, partial(_cell_text, machine=True)),
               "json": (encode_basestring_ascii, repr, json.dumps),
               "aligned-table": _TABLE_TEXTS, "table": _TABLE_TEXTS}


def _column_text(column, str_text, float_text, any_text):
    """The text of a cell of one column, chosen once from the types the
    column holds. Where the column's first cells repeat, each distinct
    value is formatted once; not where the column holds a zero, as 0.0
    and -0.0 are one dict key."""
    kinds = set(map(type, column))
    if kinds == {str}:
        text = str_text
    elif kinds == {float} and all(map(math.isfinite, column)):
        text = float_text
    elif kinds == {bool}:
        text = {True: "true", False: "false"}.__getitem__
    else:
        return any_text
    if len(set(column[:64])) <= 32 and 0.0 not in column:
        text = {value: text(value) for value in set(column)}.__getitem__
    return text


# data rows per chunk of a csv or json report. Each csv chunk has a fresh
# buffer: a reused StringIO keeps the widest character size it has held.
_CHUNK_ROWS = 1024


def _report_chunks(table, format: str):
    """The report text of a table, checked before the first chunk is made:
    csv and json in chunks of at most _CHUNK_ROWS rows, each with its own
    column formatters (rows given as an iterator are read and checked a chunk
    at a time), and the aligned table, which needs every cell, as one chunk."""
    header, rows = _table_shape(table)
    if format not in _FORMATTERS:
        raise UsageError(f"unknown format {format!r} (choose csv, json, or "
                         "aligned-table)")

    def checked(rows):
        if set(map(len, rows)) - {len(header)}:
            raise UsageError(f"every row must have {len(header)} cells")
        return rows

    def texts(rows):  # per column, the texts of its cells
        columns = [list(map(itemgetter(i), rows)) for i in range(len(header))]
        return [map(_column_text(c, *_FORMATTERS[format]), c) for c in columns]

    def lines(rows):
        return zip(*texts(rows)) if header else repeat((), len(rows))

    if format not in ("csv", "json"):
        rows = checked(list(rows))
        padded = [list(map(str.ljust, cells, repeat(max(map(len, cells)))))
                  for cells in ([h, *column] for h, column in zip(header, texts(rows)))]
        table_lines = zip(*padded) if header else [()] * (len(rows) + 1)
        del rows  # the cells are text now: free the rows before the join
        yield "\n".join(["  ".join(cells).rstrip() for cells in table_lines]) + "\n"
        return
    rows = iter(rows if isinstance(rows, Iterator) else checked(rows))
    chunks = iter(lambda: checked(list(islice(rows, _CHUNK_ROWS))), [])
    chunk = next(chunks, [])  # a table without rows has one, empty chunk
    if format == "csv":
        for start, chunk in enumerate(chain([chunk], chunks)):
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows(chain(
                () if start else [header], lines(chunk)))
            yield out.getvalue()
        return
    # the layout of json.dumps(records, indent=2), one record per row
    template = "{" + ",".join(
        f"\n    {encode_basestring_ascii(k).replace('%', '%%')}: %s"
        for k in header) + "\n  }" if header else "{}"
    if not chunk:
        yield "[]\n"
    lead = "[\n  "
    while chunk:
        following = next(chunks, [])  # the last chunk ends the document
        yield lead + ",\n  ".join(map(template.__mod__, lines(chunk))) + (
            "" if following else "\n]\n")
        lead, chunk = ",\n  ", following


def emit_report(table, format: str = "csv") -> str:
    """Serialize a SweepTable, a list of LinkResult or of ComparisonRow, or
    a (header, rows) pair. Formats: csv, json, aligned-table (alias: table)."""
    return "".join(_report_chunks(table, format))


def write_report(table, format: str, out, head="", tail="") -> None:
    """Write emit_report's text to the text stream out chunk by chunk,
    between head and tail, once the table has passed its checks."""
    chunks = _report_chunks(table, format)
    out.writelines(chain((head, next(chunks)), chunks, (tail,)))


def parse_report_csv(text: str) -> tuple[list[str], list[list]]:
    """Re-parse an emit_report csv back to typed cells (round-trip
    counterpart)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValidationError("empty report")
    header, data = rows[0], rows[1:]
    return header, [list(map(_typed_cell, row)) for row in data]


def _typed_cell(cell: str):
    if cell in ("true", "false"):
        return cell == "true"
    try:
        return float(cell)
    except ValueError:
        return cell


def plot_data_table(table: SweepTable,
                    value_field: str = "attenuation_dB") -> tuple[list[str], Iterator]:
    """Long-format plot data (station,source,p_percent,<field>) as a
    (header, rows) table whose rows are read from a fresh iteration of the
    sweep, in its order; values carry full precision."""
    if value_field not in PLOT_FIELDS:
        raise UsageError(f"unknown plot field {value_field!r}")
    column = SWEEP_COLUMNS.index(value_field)
    rows = ((row[0], row[1], float(row[2]), float(row[column])) for row in table)
    return [*SWEEP_COLUMNS[:3], value_field], rows


def emit_plot_data(table: SweepTable, value_field: str = "attenuation_dB") -> str:
    """plot_data_table as csv, usable by any plotting tool."""
    return emit_report(plot_data_table(table, value_field), "csv")
