"""Scenario files: a run configuration and the rain sources it names,
checked once by parse_scenario and reduced by resolve_sources to the
per-station inputs of a sweep."""

from __future__ import annotations

import json
import os
from collections.abc import Sequence

from .analysis import ResolvedSource
from .constants import MIN_ELEVATION_DEG, check
from .errors import Choice, ConfigError, DomainError, Record, read_text
from .link_budget import CnrMode, TransmissionParams
from .rain_data import StationCatalog, Strategy, parse_rain_series, resolve_r001
from .rain_physics import Polarization


class SourceKind(Choice):
    R001 = "r001"
    SERIES = "series"
    ATTENUATION = "attenuation"


class SourceDescriptor(Record):
    """One rain source named in a scenario.

    kind selects what the descriptor carries: r001 a direct rain rate
    (one shared value or per-station values), series a per-station
    mapping of series CSV paths reduced per strategy, attenuation a
    per-station mapping of attenuation values in dB to inject verbatim
    (for replicating published tables whose attenuations are not
    reproducible from disclosed inputs).
    """

    label: str
    kind: SourceKind
    value: float | None = None
    values: dict[str, float] | None = None
    paths: dict[str, str] | None = None
    strategy: Strategy = Strategy.CHEBIL_ANNUAL


class Scenario(Record):
    """A reproducible run configuration."""

    params: TransmissionParams
    mode: CnrMode
    k_clear_dB: float | None
    catalog_path: str | None
    sources: tuple[SourceDescriptor, ...]
    p_list: tuple[float, ...]
    polarization: Polarization = Polarization.VERTICAL

    def source(self, label: str) -> SourceDescriptor:
        for s in self.sources:
            if s.label == label:
                return s
        known = ", ".join(s.label for s in self.sources) or "none"
        raise ConfigError(f"unknown source label {label!r} (known: {known})")


_PARAMS = TransmissionParams._fields  # each a scenario field of that name
_OPTIONAL = SourceDescriptor._fields[2:]  # value, values, paths, strategy
# per kind, the descriptor fields it needs one of, any other it takes, and
# the quantity of its numbers
_KIND_FIELDS = {SourceKind.R001: (("value", "values"), (), "rain_rate_mm_per_hr"),
                SourceKind.SERIES: (("paths",), ("strategy",), None),
                SourceKind.ATTENUATION: (("values",), (), "attenuation_dB")}


def _choice(enum: type[Choice], value, where: str):
    """value as a member of enum, or a ConfigError listing the members."""
    try:
        return enum(value)
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _number(value, where: str, quantity: str) -> float:
    """value as a float in quantity's domain, or a ConfigError naming where."""
    if type(value) not in (int, float):  # JSON true and "28.5" are not numbers
        raise ConfigError(f"{where}: must be a number, got {value!r}")
    try:
        return check(quantity, float(value), "value")
    except (OverflowError, DomainError) as exc:  # OverflowError: an int past any float
        raise ConfigError(f"{where}: {exc}") from exc


def _path(value, where: str) -> str:
    """value if it is a non-empty string, else a ConfigError naming where."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}: must be a path string, got {value!r}")
    return value


def _mapping(raw: dict, name: str, where: str) -> dict | None:
    """raw[name] if it is an object, None if it is absent, else a
    ConfigError naming where it came from."""
    if name not in raw:
        return None
    if not isinstance(raw[name], dict):
        raise ConfigError(f"{where}: field {name}: must be an object keyed "
                          f"by station name, got {type(raw[name]).__name__}")
    return raw[name]


def _kind_fields(kind: SourceKind | str, given, where: str) -> tuple[SourceKind, str | None]:
    """kind as a SourceKind and the quantity of its numbers once the fields
    given are what kind uses, else a ConfigError naming where and the field."""
    kind = _choice(SourceKind, kind, f"{where}: field kind")
    needs, takes, quantity = _KIND_FIELDS[kind]
    for name in given:
        if name not in needs + takes:
            raise ConfigError(f"{where}: field {name}: not used by {kind.value} kind")
    needed = [name for name in needs if name in given]
    if len(needed) != 1:  # r001 takes one shared value or per-station values
        raise ConfigError(f"{where}: {kind.value} kind requires "
                          f"{' or '.join(needs)}" + ", not both" * bool(needed))
    return kind, quantity


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario JSON document (see README for the schema)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("scenario must be a JSON object")
    missing = [name for name in _PARAMS
               if name not in TransmissionParams._defaults and name not in doc]
    if missing:
        raise ConfigError(f"scenario missing fields: {', '.join(missing)}")
    params = TransmissionParams(**{
        name: _number(doc[name], f"field {name}", name)
        for name in _PARAMS if name in doc})
    mode = _choice(CnrMode, doc.get("mode", "physics"), "field mode")
    k_clear = doc.get("k_clear_dB")
    if k_clear is not None:
        k_clear = _number(k_clear, "field k_clear_dB", "k_clear_dB")
    if mode is CnrMode.CALIBRATED and k_clear is None:
        raise ConfigError("field k_clear_dB: required in calibrated mode")
    p_raw = doc.get("p_list", [0.01])
    if not isinstance(p_raw, list) or not p_raw:
        raise ConfigError("field p_list: must be a non-empty list")
    p_list = tuple(_number(p, "field p_list", "p_percent") for p in p_raw)
    catalog_path = doc.get("catalog")
    if catalog_path is not None:
        _path(catalog_path, "field catalog")
    raw_sources = doc.get("sources", [])
    if not isinstance(raw_sources, list):
        raise ConfigError("field sources: must be a list")
    sources = []
    for i, raw in enumerate(raw_sources):
        if not isinstance(raw, dict):
            raise ConfigError(f"sources[{i}]: must be an object")
        label = raw.get("label")
        if not label or not isinstance(label, str):
            raise ConfigError(f"sources[{i}]: field label required")
        where = f"sources[{i}] ({label})"
        values = _mapping(raw, "values", where)
        paths = _mapping(raw, "paths", where)
        kind, quantity = _kind_fields(raw.get("kind"), [n for n in _OPTIONAL if n in raw], where)
        desc = SourceDescriptor(
            label=label, kind=kind,
            value=_number(raw["value"], f"{where}: field value", quantity)
            if "value" in raw else None,
            values={str(k): _number(v, f"{where}: field values[{k!r}]",
                                    quantity)
                    for k, v in values.items()}
            if values is not None else None,
            paths={str(k): _path(v, f"{where}: field paths[{k!r}]")
                   for k, v in paths.items()}
            if paths is not None else None,
            strategy=_choice(Strategy, raw.get("strategy", "chebil_annual"),
                             f"{where}: field strategy"))
        sources.append(desc)
    labels = [s.label for s in sources]
    if len(set(labels)) != len(labels):
        raise ConfigError("source labels must be unique")
    # the rain chain has no low-angle branch; injected attenuation skips it
    rain = [s.label for s in sources if s.kind is not SourceKind.ATTENUATION]
    if rain and params.elevation_deg < MIN_ELEVATION_DEG:
        raise ConfigError(f"field elevation_deg: {params.elevation_deg:g} is "
                          f"below the {MIN_ELEVATION_DEG:g} degree floor of "
                          f"the rain chain (source {rain[0]!r})")
    polarization = _choice(Polarization, doc.get("polarization", "vertical"),
                           "field polarization")
    return Scenario(params=params, mode=mode, k_clear_dB=k_clear,
                    catalog_path=catalog_path, sources=tuple(sources),
                    p_list=p_list, polarization=polarization)


def resolve_sources(sources: Sequence[SourceDescriptor],
                    catalog: StationCatalog,
                    base_dir: str) -> list[ResolvedSource]:
    """Reduce scenario source entries to per-station sweep inputs, in the
    order given.

    Series paths resolve against base_dir unless absolute. Each series
    file is parsed once per station and reduced for every source that
    names it.
    """
    if not sources:
        raise ConfigError("scenario defines no sources")
    for s in sources:  # a descriptor built in code gives the fields it sets
        _kind_fields(s.kind, [name for name in _OPTIONAL if getattr(s, name)
                              != SourceDescriptor._defaults[name]], f"source {s.label!r}")
        _choice(Strategy, s.strategy, f"source {s.label!r}: field strategy")
    names = [s.name for s in catalog.stations]
    for name in names:  # every station covered, before any file is read
        for s in sources:
            given, what = ((s.paths, "series path") if s.kind == SourceKind.SERIES
                           else (s.values, "value"))
            if given is not None and name not in given:
                raise ConfigError(f"source {s.label!r}: no {what} for station {name!r}")
    series_sources = [s for s in sources if s.kind == SourceKind.SERIES]
    rates: dict[str, dict[str, float]] = {s.label: {} for s in series_sources}
    for name in names:
        readers: dict[str, list[SourceDescriptor]] = {}
        for source in series_sources:
            path = os.path.normpath(os.path.join(base_dir, source.paths[name]))
            readers.setdefault(path, []).append(source)
        for path, group in readers.items():
            series = parse_rain_series(read_text(path), station_ref=name)
            for source in group:
                rates[source.label][name] = resolve_r001(
                    series, source.strategy, source.label)
            # a parsed series holds about 65 bytes a sample (2.3 MB for two
            # years at 30 minutes); hold one at a time
            del series
    return [_resolved(s, names, rates) for s in sources]


def _resolved(source: SourceDescriptor, names: list[str],
              rates: dict[str, dict[str, float]]) -> ResolvedSource:
    if source.kind == SourceKind.ATTENUATION:
        return ResolvedSource(label=source.label,
                              attenuation_by_station=dict(source.values))
    if source.kind == SourceKind.SERIES:
        r001 = rates[source.label]
    elif source.value is not None:
        r001 = {n: source.value for n in names}
    else:
        r001 = dict(source.values)
    return ResolvedSource(label=source.label, r001_by_station=r001)
