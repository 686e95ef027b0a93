"""Ingestion of station catalogs and precipitation time series, plus the
conversions that turn rain observations into the R001 rain rate the
attenuation chain needs.

CSV schemas (stable interfaces):
  station catalog: header name,latitude_deg,longitude_deg,altitude_m
  rain series:     header timestamp,rate_mm_per_hr (ISO-8601 UTC)
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import operator
import warnings
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import cached_property

from .constants import HOURS_PER_YEAR, MEAN_EARTH_RADIUS_KM, MIN_SEPARATION_KM
from .errors import (CadenceWarning, CoverageWarning, DomainError,
                     ParseError, SeparationWarning, ValidationError)
from .geometry import GroundStation

CATALOG_HEADER = ["name", "latitude_deg", "longitude_deg", "altitude_m"]
SERIES_HEADER = ["timestamp", "rate_mm_per_hr"]
_SERIES_HEADER_LINE = ",".join(SERIES_HEADER)

# cadences at or above this mean sample spacing are too coarse for the
# empirical exceedance strategy to say anything about 0.01% of a year
_COARSE_CADENCE_HOURS = 24.0 * 28.0

# up to this many samples the 0.01 % rank of empirical exceedance is 1:
# the reduction returns the series maximum
_R001_RANK_SAMPLES = 10_000


class Strategy(str, Enum):
    CHEBIL_ANNUAL = "chebil_annual"
    EMPIRICAL_EXCEEDANCE = "empirical_exceedance"


@dataclass(frozen=True, init=False)
class RainSeries:
    """An ordered precipitation series for one station, held as a times
    column and a rates column of equal length.

    cadence is a human-readable label ("monthly", "30-minute"); when not
    declared it is inferred from the mean sample spacing. The series can
    also be built from samples=, a sequence of (time, rate) pairs.
    """

    station_ref: str
    times: tuple[datetime, ...]
    rates: tuple[float, ...]
    cadence: str

    def __init__(self, station_ref: str, times=(), rates=(),
                 cadence: str = "", *, samples=None):
        if samples is not None:
            times = [t for t, _ in samples]
            rates = [r for _, r in samples]
        if len(times) != len(rates):
            raise DomainError(f"{len(times)} times but {len(rates)} rates")
        object.__setattr__(self, "station_ref", station_ref)
        object.__setattr__(self, "times", tuple(times))
        object.__setattr__(self, "rates", tuple(rates))
        object.__setattr__(self, "cadence", cadence)

    @property
    def samples(self) -> tuple[tuple[datetime, float], ...]:
        return tuple(zip(self.times, self.rates))

    def mean_spacing_hours(self) -> float:
        if len(self.times) < 2:
            return 0.0
        span = self.times[-1] - self.times[0]
        return span.total_seconds() / 3600.0 / (len(self.times) - 1)


@dataclass(frozen=True)
class StationCatalog:
    """Unique-named stations. close_pairs, the pairs under the recommended
    minimum separation, is built on first access."""

    stations: tuple[GroundStation, ...]

    def __post_init__(self):
        counts = Counter(s.name for s in self.stations)
        dupes = sorted(n for n, c in counts.items() if c > 1)
        if dupes:
            raise ValidationError(f"duplicate station names: {', '.join(dupes)}")

    def station(self, name: str) -> GroundStation:
        for s in self.stations:
            if s.name == name:
                return s
        raise ValidationError(f"unknown station {name!r}")

    @cached_property
    def close_pairs(self) -> tuple[tuple[str, str, float], ...]:
        """Every pair (a, b, km) under MIN_SEPARATION_KM in the all-pairs
        loop's order over (i, j > i), km as great_circle_km(a, b) gives it."""
        lat, lon, cos_lat = _radians(self.stations)
        names = [s.name for s in self.stations]
        later = [[] for _ in names]  # later[i]: each j > i close to i
        for _, i, j in _close_candidates(lat, lon, cos_lat):
            later[i].append(j)
        return tuple((names[i], names[j], _haversine_km(
            lat[i], lon[i], cos_lat[i], lat[j], lon[j], cos_lat[j]))
            for i, js in enumerate(later) for j in sorted(js))


def _haversine_km(lat1: float, lon1: float, cos_lat1: float,
                  lat2: float, lon2: float, cos_lat2: float) -> float:
    # radians in, with cos(lat) passed so a caller can compute it once
    s = math.sin((lat2 - lat1) / 2.0) ** 2 \
        + cos_lat1 * cos_lat2 * math.sin((lon2 - lon1) / 2.0) ** 2
    return 2.0 * MEAN_EARTH_RADIUS_KM * math.asin(math.sqrt(s))


def great_circle_km(lat1_deg: float, lon1_deg: float,
                    lat2_deg: float, lon2_deg: float) -> float:
    """Haversine great-circle distance in km on a mean-radius sphere."""
    lat1, lon1, lat2, lon2 = map(math.radians, (lat1_deg, lon1_deg, lat2_deg, lon2_deg))
    return _haversine_km(lat1, lon1, math.cos(lat1), lat2, lon2, math.cos(lat2))


def _radians(stations) -> tuple[list[float], list[float], list[float]]:
    lat = [math.radians(s.latitude_deg) for s in stations]
    return lat, [math.radians(s.longitude_deg) for s in stations], list(map(math.cos, lat))


def _close_candidates(lat, lon, cos_lat):
    """Yield (s, i, j), i < j, s the haversine's argument, for every pair
    that great_circle_km puts under MIN_SEPARATION_KM.

    Such a pair is never further apart in latitude than MIN_SEPARATION_KM /
    MEAN_EARTH_RADIUS_KM radians (the distance is at least R * |dlat|), so
    each station measures only the later ones in latitude order inside that
    band, widened by a relative 1e-9. s is compared with sin^2(T / 2R), and
    within a relative 1e-9 of it the distance itself decides.
    """
    order = sorted(range(len(lat)), key=lat.__getitem__)
    sorted_lat = [lat[k] for k in order]
    band = MIN_SEPARATION_KM / MEAN_EARTH_RADIUS_KM * (1.0 + 1e-9)
    s_max = math.sin(MIN_SEPARATION_KM / (2.0 * MEAN_EARTH_RADIUS_KM)) ** 2
    s_in, s_out = s_max * (1.0 - 1e-9), s_max * (1.0 + 1e-9)
    sin = math.sin
    for k, a in enumerate(order):
        lat_a, lon_a, cos_a = lat[a], lon[a], cos_lat[a]
        for b in order[k + 1:bisect.bisect_right(sorted_lat, lat_a + band, k + 1)]:
            s = sin((lat[b] - lat_a) / 2.0) ** 2 \
                + cos_a * cos_lat[b] * sin((lon[b] - lon_a) / 2.0) ** 2
            if s < s_out:
                i, j = (a, b) if a < b else (b, a)
                if s < s_in or _haversine_km(lat[i], lon[i], cos_lat[i], lat[j],
                                             lon[j], cos_lat[j]) < MIN_SEPARATION_KM:
                    yield s, i, j


def _close_pair_summary(stations) -> tuple[int, tuple[float, int, int]]:
    """The number of pairs under MIN_SEPARATION_KM, and (km, i, j) of the
    first closest in all-pairs order, as min(close_pairs, key=km) picks it."""
    lat, lon, cos_lat = _radians(stations)
    count, best, bound = 0, (math.inf, 0, 0), math.inf
    for s, i, j in _close_candidates(lat, lon, cos_lat):
        count += 1
        # nearly equal s can round to equal km, so each pair within 1e-9 of
        # the least s so far is measured, and a tie goes to the lower (i, j)
        if s <= bound:
            best = min(best, (_haversine_km(lat[i], lon[i], cos_lat[i],
                                            lat[j], lon[j], cos_lat[j]), i, j))
            bound = min(bound, s * (1.0 + 1e-9))
    return count, best


def _csv_rows(text: str) -> list[list[str]]:
    """The rows of a CSV text; a csv.Error (an over-long field, say)
    becomes a ParseError on the line the reader stopped at."""
    reader = csv.reader(io.StringIO(text))
    try:
        return list(reader)
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from exc


def parse_station_catalog(text: str) -> StationCatalog:
    """Parse a station catalog CSV; altitude_m converts to km internally.

    Station names must be unique. One SeparationWarning gives the number
    of pairs closer than the recommended minimum separation and the
    closest of them; the catalog's close_pairs lists them on first access.
    """
    rows = _csv_rows(text)
    if not rows:
        raise ValidationError("empty catalog")
    if rows[0] != CATALOG_HEADER:
        raise ParseError(f"expected header {','.join(CATALOG_HEADER)}, "
                         f"got {','.join(rows[0])}", line=1)
    stations = []
    for idx, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line=idx)
        name = row[0].strip()
        try:
            lat, lon, alt_m = map(float, row[1:])
        except ValueError as exc:
            raise ParseError(str(exc), line=idx) from exc
        try:
            stations.append(GroundStation(name=name, latitude_deg=lat,
                                          longitude_deg=lon,
                                          altitude_km=alt_m / 1000.0))
        except DomainError as exc:
            raise ParseError(str(exc), line=idx) from exc
    if not stations:
        raise ValidationError("catalog has no station rows")
    # names are checked first, so a repeated one fails without a separation warning
    catalog = StationCatalog(stations=tuple(stations))
    count, (d, i, j) = _close_pair_summary(catalog.stations)
    if count:
        warnings.warn(
            f"{count} station pair{'s' if count > 1 else ''} under "
            f"the {MIN_SEPARATION_KM:.0f} km minimum separation; closest: "
            f"{stations[i].name} and {stations[j].name}, {d:.0f} km apart",
            SeparationWarning, stacklevel=2)
    return catalog


def catalog_to_csv(catalog: StationCatalog) -> str:
    """Serialize a catalog back to its CSV schema, losslessly."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CATALOG_HEADER)
    for s in catalog.stations:
        writer.writerow([s.name, repr(s.latitude_deg), repr(s.longitude_deg),
                         repr(s.altitude_km * 1000.0)])
    return out.getvalue()


def _parse_timestamp(text: str, line: int) -> datetime:
    # 3.10's fromisoformat rejects a trailing Z; normalize to an offset
    normalized = text.strip()
    if normalized.endswith("Z") or normalized.endswith("z"):
        normalized = normalized[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(normalized)
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}", line=line) from exc
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _parse_columns(text: str):
    """The whole series in one pass: (times, rates), or None when the text
    is not in the plain form this pass accepts and _parse_rows must read it.

    The plain form is the exact header, then lines of one comma each with
    no quotes, no CR and no blank line; UTC timestamps that fromisoformat
    reads as such, strictly increasing; finite, non-negative rates. Any
    other text, valid or not, is left to the row loop, which alone reports
    errors.
    """
    header, _, body = text.partition("\n")
    if header != _SERIES_HEADER_LINE or not body or '"' in body or "\r" in body:
        return None
    # naive or offset stamps are left to the row loop before any column
    # is built, judged by the first one
    try:
        first = datetime.fromisoformat(body[:body.find(",")])
    except ValueError:
        return None
    if first.tzinfo is not timezone.utc:
        return None
    if body.endswith("\n"):
        body = body[:-1]
    lines = body.split("\n")
    # as many commas as lines, and a comma in every line: one per line
    if body.count(",") != len(lines) or not all(
            map(operator.contains, lines, [","] * len(lines))):
        return None
    del lines  # freed before the cells are built, to keep the peak down
    cells = body.replace("\n", ",").split(",")
    try:
        rates = tuple(map(float, cells[1::2]))
        times = tuple(map(datetime.fromisoformat, cells[0::2]))
    except ValueError:
        return None
    # min() skips a NaN that is not first, so finiteness is checked apart
    if not (all(map(math.isfinite, rates)) and min(rates) >= 0.0
            and all(t.tzinfo is timezone.utc for t in times)
            and all(map(operator.lt, times, times[1:]))):
        return None
    return times, rates


def _parse_rows(text: str):
    """The series row by row, as (times, rates); raises the error that
    names the first bad line."""
    rows = _csv_rows(text)
    if not rows:
        raise ValidationError("empty series")
    if rows[0] != SERIES_HEADER:
        raise ParseError(f"expected header {_SERIES_HEADER_LINE}, "
                         f"got {','.join(rows[0])}", line=1)
    times, rates = [], []
    for idx, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(f"expected 2 fields, got {len(row)}", line=idx)
        ts = _parse_timestamp(row[0], idx)
        try:
            rate = float(row[1])
        except ValueError as exc:
            raise ParseError(str(exc), line=idx) from exc
        if not math.isfinite(rate):
            raise ParseError(f"non-finite rate {rate}", line=idx)
        if rate < 0.0:
            raise ParseError(f"negative rate {rate}", line=idx)
        if times and ts <= times[-1]:
            raise ParseError(f"timestamp {row[0].strip()} not after the previous row", line=idx)
        times.append(ts)
        rates.append(rate)
    if not times:
        raise ValidationError("series has no sample rows")
    return times, rates


def parse_rain_series(text: str, station_ref: str = "", cadence: str = "") -> RainSeries:
    """Parse a rain series CSV: strictly increasing UTC timestamps,
    finite non-negative rates, at least one sample.

    Text in the plain form series_to_csv writes is parsed in bulk; any
    other text, and every error, goes through the row loop.
    """
    times, rates = _parse_columns(text) or _parse_rows(text)
    return RainSeries(station_ref, times, rates, cadence)


def series_to_csv(series: RainSeries) -> str:
    """Serialize a series back to its CSV schema, losslessly."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SERIES_HEADER)
    for ts, rate in zip(series.times, series.rates):
        writer.writerow([ts.isoformat().replace("+00:00", "Z"), repr(rate)])
    return out.getvalue()


def mean_rain_rate(series: RainSeries) -> float:
    """Arithmetic mean of the sample rates, mm/hr."""
    if not series.rates:
        raise DomainError("series is empty")
    try:
        return math.fsum(series.rates) / len(series.rates)
    except OverflowError as exc:
        raise DomainError("the series rates sum past the float range") from exc


def annual_accumulation(mean_rate_mm_per_hr: float) -> float:
    """Annual accumulation M in mm from a mean rate, over an average
    Julian year."""
    if mean_rate_mm_per_hr < 0.0:
        raise DomainError(f"mean rate {mean_rate_mm_per_hr} must be >= 0")
    accumulation = mean_rate_mm_per_hr * HOURS_PER_YEAR
    if accumulation == math.inf:
        raise DomainError(f"mean rate {mean_rate_mm_per_hr} mm/hr overflows "
                          "the annual accumulation")
    return accumulation


def chebil_r001(annual_accumulation_mm: float) -> float:
    """Chebil conversion from annual accumulation M (mm) to the rain rate
    exceeded 0.01% of the year: R001 = 12.2903 M^0.2973."""
    if annual_accumulation_mm < 0.0:
        raise DomainError(f"accumulation {annual_accumulation_mm} must be >= 0")
    if annual_accumulation_mm == 0.0:
        return 0.0
    return 12.2903 * annual_accumulation_mm ** 0.2973


def empirical_exceedance_rate(series: RainSeries, p_percent: float) -> float:
    """The rate exceeded during p percent of samples: sort descending and
    take the value at rank ceil(p/100 * N), clamped to a valid index."""
    if not series.rates:
        raise DomainError("series is empty")
    if not 0.0 < p_percent < 100.0:
        raise DomainError(f"percentage {p_percent} outside (0, 100)")
    rates = sorted(series.rates, reverse=True)
    rank = math.ceil(p_percent / 100.0 * len(rates))
    rank = min(max(rank, 1), len(rates))
    return rates[rank - 1]


def resolve_r001(series: RainSeries, strategy: Strategy | str,
                 label: str) -> float:
    """Reduce a rain series to the R001 rain rate per a strategy.

    chebil_annual: Chebil conversion of the annual accumulation implied
    by the series mean. empirical_exceedance: the rate exceeded in 0.01%
    of samples (warns on coarse cadences, where that statistic is weak,
    and on series too short for the rank to be above the maximum; label
    names the source in the warnings).
    """
    if Strategy(strategy) is Strategy.CHEBIL_ANNUAL:
        return chebil_r001(annual_accumulation(mean_rain_rate(series)))
    spacing = series.mean_spacing_hours()
    if spacing >= _COARSE_CADENCE_HOURS or series.cadence.lower() == "monthly":
        warnings.warn(
            f"source {label!r}: empirical exceedance over a "
            f"{series.cadence or 'coarse'} cadence is statistically weak",
            CadenceWarning, stacklevel=2)
    if len(series.rates) <= _R001_RANK_SAMPLES:
        warnings.warn(
            f"source {label!r}: {len(series.rates)} samples are too few for "
            f"empirical exceedance at 0.01% (it needs more than "
            f"{_R001_RANK_SAMPLES}); R001 is the series maximum",
            CoverageWarning, stacklevel=2)
    return empirical_exceedance_rate(series, 0.01)


def packaged_catalog_text() -> str:
    """The bundled six-station catalog CSV (printed coordinates kept
    bit-exact)."""
    from importlib import resources
    return resources.files("rainlink.data").joinpath("stations_africa.csv").read_text(encoding="utf-8")
