"""Cross-source comparison, multi-station availability sweeps, ranking,
and the report writer, through which plot data, catalogs and series are
written too.

Machine formats (csv, json) serialize floats via repr so a round-trip
re-parses to exactly equal values; the table format aligns columns for
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

from .attenuation import PPlan, _chain
from .constants import check
from .errors import DomainError, Record, UsageError, ValidationError
from .geometry import rain_slant_path
from .link_budget import (CnrMode, LinkResult, TransmissionParams, available_margin,
                          link_budget, link_closes)
from .rain_data import SERIES_HEADER, RainSeries, StationCatalog, catalog_table
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
    on each iteration from a flat store of attenuations, in blocks of rows
    per station: a tuple per row, in SWEEP_COLUMNS order; and diagnostics."""

    def __init__(self, names, labels, p, values, cnr_of, required, diagnostics):
        self._names, self._labels, self._p, self._values = names, labels, p, values
        self._cnr_of, self._required, self.diagnostics = cnr_of, required, tuple(diagnostics)

    def __len__(self) -> int:
        return len(self._values)

    def columns(self, start: int, stop: int) -> list[list]:
        """The eight SWEEP_COLUMNS lists of rows [start, stop), 0 <= start."""
        block, stop = len(self._p), min(stop, len(self))
        station, label, p = [], [], []
        for k in range(start // block, -(-stop // block)):  # the blocks touched
            lo, hi = max(start - k * block, 0), min(stop - k * block, block)
            station += [self._names[k]] * (hi - lo)
            label += self._labels[lo:hi]
            p += self._p[lo:hi]
        a_p = self._values[start:stop].tolist()
        cnr = list(map(self._cnr_of, a_p))  # A_p is finite and >= 0: cannot fail
        margin = list(map(available_margin, cnr, repeat(self._required)))
        return [station, label, p, a_p, cnr, [self._required] * len(a_p),
                margin, list(map(link_closes, margin))]

    def __iter__(self):
        return chain.from_iterable(zip(*self.columns(i, i + _CHUNK_ROWS))
                                   for i in range(0, len(self), _CHUNK_ROWS))

    @property
    def rows(self) -> list[LinkResult]:
        return list(starmap(LinkResult, self))


def compare_sources(baseline_results: list[LinkResult],
                    estimate_results: list[LinkResult]) -> list[ComparisonRow]:
    """One ComparisonRow per station, in baseline order, with the overestimation
    (baseline - estimate)/baseline * 100 at full precision. Both result sets
    must cover exactly the same stations, and each baseline must be > 0."""
    base_by_station = {r.station_ref: r for r in baseline_results}
    est_by_station = {r.station_ref: r.attenuation_dB for r in estimate_results}
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
        baseline_dB, estimate_dB = base.attenuation_dB, est_by_station[base.station_ref]
        if baseline_dB <= 0.0:
            raise DomainError(f"undefined comparison: baseline {baseline_dB} dB must be > 0")
        percent = (baseline_dB - estimate_dB) / baseline_dB * 100.0
        if not math.isfinite(percent):
            raise DomainError(f"overestimation of baseline {baseline_dB} dB overflows")
        rows.append(ComparisonRow(base.station_ref, baseline_dB, estimate_dB, percent))
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
    if not sources:
        raise ValidationError("no sources given")
    coeffs = regression_coefficients(params.frequency_GHz, polarization)
    cnr_of = link_budget(params, mode, k_clear_dB)
    plan = PPlan(p_list)
    # a station's rows by label, p, then source order; made by source, then moved
    layout = sorted((s.label, j, i) for i, s in enumerate(sources) for j in range(len(plan)))
    moved = [i * len(plan) + j for _, j, i in layout]
    names = sorted(station.name for station in catalog.stations)
    block = {name: slice(k * len(layout), (k + 1) * len(layout)) for k, name in enumerate(names)}
    values = array("d", [0.0]) * (len(layout) * len(names))
    diagnostics: list[str] = []
    for station in catalog.stations:
        chain_of = None  # built on the first rain-rate source
        curves = array("d")
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
                curves += array("d", [value]) * len(plan)
            else:
                if chain_of is None:
                    chain_of = _chain(station, rain_slant_path(station, params.elevation_deg),
                                      coeffs, plan)
                _, points, notes = chain_of(value)
                for note in notes:
                    diagnostics.append(f"{station.name}/{source.label}: {note}")
                curves.extend(map(itemgetter(1), points))
        values[block[station.name]] = array("d", map(curves.__getitem__, moved))
    return SweepTable(names, [label for label, _, _ in layout], [plan[j] for _, j, _ in layout],
                      values, cnr_of, params.required_margin_dB, diagnostics)


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


def _table_shape(table) -> tuple[list[str], list | Iterator | SweepTable]:
    """A table's header and rows; a SweepTable's, or an iterator, stay lazy."""
    if isinstance(table, SweepTable):
        return SWEEP_COLUMNS, table
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
_FORMATTERS = {"csv": (str, repr, partial(_cell_text, machine=True)),
               "json": (encode_basestring_ascii, repr, json.dumps),
               "table": (str, "{:.4f}".format, partial(_cell_text, machine=False))}


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
    csv and json in chunks of at most _CHUNK_ROWS rows, the aligned table
    as one, each from its columns with their own formatters: a SweepTable's,
    or rows transposed (an iterator's read and checked a chunk at a time)."""
    header, rows = _table_shape(table)
    if format not in _FORMATTERS:
        raise UsageError(f"unknown format {format!r} (choose csv, json, or table)")
    size = _CHUNK_ROWS if format in ("csv", "json") else None  # None: every row

    def checked(rows):
        if set(map(len, rows)) - {len(header)}:
            raise UsageError(f"every row must have {len(header)} cells")
        return rows

    # a chunk is its row count and a list per column
    if isinstance(rows, SweepTable):
        step = size or len(rows)
        chunks = ((min(step, len(rows) - i), rows.columns(i, i + step))
                  for i in range(0, len(rows), step))
    else:
        rows = iter(rows if isinstance(rows, Iterator) else checked(rows))
        chunks = ((len(c), [list(map(itemgetter(i), c)) for i in range(len(header))])
                  for c in iter(lambda: checked(list(islice(rows, size))), []))
    count, chunk = next(chunks, (0, [[] for _ in header]))  # no rows: one, empty chunk

    def texts(chunk):  # per column, the texts of its cells
        return [map(_column_text(c, *_FORMATTERS[format]), c) for c in chunk]

    if size is None:
        padded = [list(map(str.ljust, cells, repeat(max(map(len, cells)))))
                  for cells in ([h, *column] for h, column in zip(header, texts(chunk)))]
        table_lines = zip(*padded) if header else [()] * (count + 1)
        del chunk, chunks  # the cells are text now: free the columns before the join
        yield "\n".join(["  ".join(cells).rstrip() for cells in table_lines]) + "\n"
        return
    if format == "csv":
        for start, (count, chunk) in enumerate(chain([(count, chunk)], chunks)):
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows(chain(
                () if start else [header], zip(*texts(chunk)) if header else repeat((), count)))
            yield out.getvalue()
        return
    # json.dumps(records, indent=2)'s layout: per chunk, one join of rows' keys and cells
    close, width = "\n  }" if header else "}", 2 * len(header) + 1
    keys = [f"{',' if i else ''}\n    {encode_basestring_ascii(k)}: " for i, k in enumerate(header)]
    if not count:
        yield "[]\n"
    lead = "[\n  "
    while count:
        following, after = next(chunks, (0, None))  # the last chunk ends the document
        parts = [close + ",\n  {"] * (width * count)  # a row closes the one before
        for i, (key, cells) in enumerate(zip(keys, texts(chunk))):
            parts[2 * i + 1::width] = [key] * count
            parts[2 * i + 2::width] = cells
        parts[0] = "{"
        yield lead + "".join(parts) + close + ("" if following else "\n]\n")
        lead, count, chunk = ",\n  ", following, after


def emit_report(table, format: str = "csv") -> str:
    """Serialize a SweepTable, a list of LinkResult or of ComparisonRow, or
    a (header, rows) pair. Formats: csv, json, table."""
    return "".join(_report_chunks(table, format))


def write_report(table, format: str, out, head="", tail="") -> None:
    """Write emit_report's text to the text stream out chunk by chunk,
    between head and tail, once the table has passed its checks."""
    chunks = _report_chunks(table, format)
    out.writelines(chain((head, next(chunks)), chunks, (tail,)))


def catalog_to_csv(catalog: StationCatalog) -> str:
    """Serialize a catalog back to its CSV schema, losslessly."""
    return emit_report(catalog_table(catalog), "csv")


def series_to_csv(series: RainSeries) -> str:
    """Serialize a series back to its CSV schema, losslessly."""
    stamps = (ts.isoformat().replace("+00:00", "Z") for ts in series.times)
    return emit_report((SERIES_HEADER, zip(stamps, series.rates)), "csv")


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
    return [*SWEEP_COLUMNS[:3], value_field], map(itemgetter(0, 1, 2, column), table)
