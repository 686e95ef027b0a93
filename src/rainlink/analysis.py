"""Cross-source comparison, multi-station availability sweeps, ranking,
and report/plot-data emission.

Machine formats (csv, json) serialize floats via repr so a round-trip
re-parses to exactly equal values; the aligned-table format is for
humans and rounds for readability.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .attenuation import attenuation_curve, check_p_percent
from .errors import DomainError, UsageError, ValidationError
from .geometry import rain_slant_path
from .link_budget import (CnrMode, LinkResult, TransmissionParams,
                          available_margin, link_budget, link_closes)
from .rain_data import StationCatalog
from .rain_physics import (CoefficientTable, Polarization,
                           regression_coefficients)

SWEEP_COLUMNS = ["station", "source", "p_percent", "attenuation_dB", "cnr_dB",
                 "required_margin_dB", "available_margin_dB", "closes"]
COMPARISON_COLUMNS = ["station", "baseline_attenuation_dB",
                      "estimate_attenuation_dB", "overestimation_percent"]


@dataclass(frozen=True)
class ComparisonRow:
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


@dataclass(frozen=True)
class ResolvedSource:
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


@dataclass(frozen=True)
class SweepTable:
    """Link results over the (station, source, p) cross-product, sorted by
    station, then source, then p. diagnostics carries chain notes."""

    rows: tuple[LinkResult, ...]
    diagnostics: tuple[str, ...] = field(default=())


def overestimation_percentage(baseline_dB: float, estimate_dB: float) -> float:
    """(baseline - estimate)/baseline * 100; full precision (display
    rounding is the caller's concern)."""
    if baseline_dB <= 0.0:
        raise DomainError(f"undefined comparison: baseline {baseline_dB} dB "
                          "must be > 0")
    return (baseline_dB - estimate_dB) / baseline_dB * 100.0


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
        est = est_by_station[base.station_ref]
        rows.append(ComparisonRow(
            station_ref=base.station_ref,
            baseline_attenuation_dB=base.attenuation_dB,
            estimate_attenuation_dB=est.attenuation_dB,
            overestimation_percent=overestimation_percentage(
                base.attenuation_dB, est.attenuation_dB)))
    return rows


def availability_sweep(catalog: StationCatalog, params: TransmissionParams,
                       sources: list[ResolvedSource], p_list: list[float],
                       mode: CnrMode | str = CnrMode.PHYSICS,
                       k_clear_dB: float | None = None,
                       polarization: Polarization | str = Polarization.VERTICAL,
                       coefficient_table: CoefficientTable | None = None) -> SweepTable:
    """Evaluate the full (station, source, p) cross-product through the
    attenuation chain (for rain-rate sources) and the link budget."""
    if not catalog.stations:
        raise ValidationError("catalog is empty")
    if not p_list:
        raise ValidationError("p_list is empty")
    if not sources:
        raise ValidationError("no sources given")
    coeffs = regression_coefficients(params.frequency_GHz, polarization,
                                     table=coefficient_table)
    cnr_of = link_budget(params, mode, k_clear_dB)
    required = params.required_margin_dB
    p_points = sorted(set(p_list))
    for p in p_points:
        check_p_percent(p)
    rows: list[LinkResult] = []
    diagnostics: list[str] = []
    for station in catalog.stations:
        path = None
        for source in sources:
            injected = source.attenuation_by_station is not None
            by_station = (source.attenuation_by_station if injected
                          else source.r001_by_station)
            if station.name not in by_station:
                raise ValidationError(f"source {source.label!r} has no "
                                      f"value for station {station.name!r}")
            value = by_station[station.name]
            if injected:
                points = [(p, value) for p in p_points]
            else:
                if path is None:
                    path = rain_slant_path(station, params.elevation_deg)
                curve = attenuation_curve(station, path, coeffs, value,
                                          p_points)
                for note in curve.diagnostics:
                    diagnostics.append(f"{station.name}/{source.label}: {note}")
                points = curve.points
            for p, a_p in points:
                cnr = cnr_of(a_p)
                margin = available_margin(cnr, required)
                rows.append(LinkResult(station.name, source.label, p, a_p,
                                       cnr, required, margin,
                                       link_closes(margin)))
    rows.sort(key=lambda r: (r.station_ref, r.source_label, r.p_percent))
    return SweepTable(rows=tuple(rows), diagnostics=tuple(diagnostics))


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


def _float_text(value: float) -> str:
    return repr(float(value))


def _sweep_cells(row: LinkResult) -> list:
    return [row.station_ref, row.source_label, row.p_percent,
            row.attenuation_dB, row.cnr_dB, row.required_margin_dB,
            row.available_margin_dB, row.closes]


def _comparison_cells(row: ComparisonRow) -> list:
    return [row.station_ref, row.baseline_attenuation_dB,
            row.estimate_attenuation_dB, row.overestimation_percent]


def _table_shape(table) -> tuple[list[str], Iterable[Sequence]]:
    """The header and the row cells of a table, the rows to be iterated
    once."""
    if isinstance(table, SweepTable):
        return SWEEP_COLUMNS, map(_sweep_cells, table.rows)
    if isinstance(table, tuple) and len(table) == 2:
        header, rows = table
        return list(header), rows
    if isinstance(table, list) and all(isinstance(r, ComparisonRow) for r in table):
        return COMPARISON_COLUMNS, map(_comparison_cells, table)
    if isinstance(table, list) and all(isinstance(r, LinkResult) for r in table):
        return SWEEP_COLUMNS, map(_sweep_cells, table)
    raise UsageError(f"cannot emit a report for {type(table).__name__}")


def _json_text(value) -> str:
    """value as json.dumps writes it."""
    if type(value) is float and math.isfinite(value):
        return repr(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value)


def _cell_text(value, machine: bool) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _float_text(value) if machine else f"{value:.4f}"
    return str(value)


def emit_report(table, format: str = "csv") -> str:
    """Serialize a SweepTable, a list of LinkResult, or a list of
    ComparisonRow. Formats: csv, json, aligned-table (alias: table)."""
    header, rows = _table_shape(table)
    if format == "csv":
        import csv as _csv
        out = io.StringIO()
        writer = _csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for cells in rows:
            writer.writerow([_cell_text(c, machine=True) for c in cells])
        return out.getvalue()
    if format == "json":
        # the layout of json.dumps(records, indent=2), one record per row
        template = "{" + ",".join(
            f"\n    {encode_basestring_ascii(k).replace('%', '%%')}: %s"
            for k in header) + "\n  }" if header else "{}"
        records = [template % tuple(map(_json_text, cells)) for cells in rows]
        if not records:
            return "[]\n"
        # brackets on the end records, so one join builds the document
        records[0] = "[\n  " + records[0]
        records[-1] += "\n]\n"
        return ",\n  ".join(records)
    if format in ("aligned-table", "table"):
        texts = [header] + [[_cell_text(c, machine=False) for c in cells]
                            for cells in rows]
        widths = [max(len(t[i]) for t in texts) for i in range(len(header))]
        lines = []
        for t in texts:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(t, widths)).rstrip())
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown format {format!r} (choose csv, json, or "
                     "aligned-table)")


def parse_report_csv(text: str) -> tuple[list[str], list[list]]:
    """Re-parse an emit_report csv back to typed cells (round-trip
    counterpart)."""
    import csv as _csv
    rows = list(_csv.reader(io.StringIO(text)))
    if not rows:
        raise ValidationError("empty report")
    header, data = rows[0], rows[1:]
    typed = []
    for row in data:
        cells = []
        for cell in row:
            if cell in ("true", "false"):
                cells.append(cell == "true")
                continue
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        typed.append(cells)
    return header, typed


@dataclass(frozen=True)
class PlotCurve:
    """One plottable series: a value versus exceedance percentage."""

    station_ref: str
    source_label: str
    value_field: str
    points: tuple[tuple[float, float], ...]


def sweep_to_plot_curves(table: SweepTable,
                         value_field: str = "attenuation_dB") -> list[PlotCurve]:
    """Group sweep rows into per-(station, source) curves of one field."""
    if value_field not in ("attenuation_dB", "cnr_dB", "available_margin_dB"):
        raise UsageError(f"unknown plot field {value_field!r}")
    grouped: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for row in table.rows:
        key = (row.station_ref, row.source_label)
        grouped.setdefault(key, []).append((row.p_percent,
                                            getattr(row, value_field)))
    curves = []
    for (station, source), points in sorted(grouped.items()):
        curves.append(PlotCurve(station_ref=station, source_label=source,
                                value_field=value_field,
                                points=tuple(sorted(points))))
    return curves


def emit_plot_data(curves: list[PlotCurve]) -> str:
    """Long-format CSV (station,source,p_percent,<field>) usable by any
    plotting tool; values carry full precision."""
    if not curves:
        raise ValidationError("no curves to emit")
    fields = {c.value_field for c in curves}
    if len(fields) > 1:
        raise UsageError(f"curves mix value fields: {', '.join(sorted(fields))}")
    import csv as _csv
    out = io.StringIO()
    writer = _csv.writer(out, lineterminator="\n")
    writer.writerow(["station", "source", "p_percent", curves[0].value_field])
    for curve in curves:
        for p, value in curve.points:
            writer.writerow([curve.station_ref, curve.source_label,
                             _float_text(p), _float_text(value)])
    return out.getvalue()
