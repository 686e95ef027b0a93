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
from datetime import datetime, timezone
from functools import cached_property
from itertools import repeat

from .constants import HOURS_PER_YEAR, MEAN_EARTH_RADIUS_KM, MIN_SEPARATION_KM, check
from .errors import (CadenceWarning, Choice, CoverageWarning, DomainError, ParseError, Record,
                     SeparationWarning, ValidationError, read_packaged)
from .geometry import GroundStation

CATALOG_HEADER = ["name", "latitude_deg", "longitude_deg", "altitude_m"]
SERIES_HEADER = ["timestamp", "rate_mm_per_hr"]
_SERIES_HEADER_LINE = ",".join(SERIES_HEADER)

# cadences at or above this mean sample spacing are too coarse for the
# empirical exceedance strategy to say anything about 0.01% of a year
_COARSE_CADENCE_HOURS = 24.0 * 28.0

# the bulk series pass reads its text this many characters at a time
_CHUNK_CHARS = 1 << 16

# up to this many samples the 0.01 % rank of empirical exceedance is 1:
# the reduction returns the series maximum
_R001_RANK_SAMPLES = 10_000


class Strategy(Choice):
    CHEBIL_ANNUAL = "chebil_annual"
    EMPIRICAL_EXCEEDANCE = "empirical_exceedance"


class RainSeries(Record):
    """A precipitation series for one station: at least one sample, held as
    a strictly increasing times column and a finite, >= 0 rates column.

    cadence is a declared label ("monthly", "30-minute") or "", never
    inferred: resolve_r001 reads mean_spacing_hours() itself. The series
    can also be built from samples=, a sequence of (time, rate) pairs.
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
        if not times:
            raise ValidationError("series has no sample rows")
        if not isinstance(times[0], datetime):
            raise DomainError(f"series times must be datetimes, not {type(times[0]).__name__}")
        column = "times"
        try:  # a naive time after an aware one, or a rate that is not a number, raises TypeError
            if not all(map(operator.lt, times, times[1:])):
                raise DomainError("series times must strictly increase")
            column = "rates"
            if not all(0.0 <= r < math.inf for r in set(rates)):  # a NaN fails both
                raise DomainError("series rates must be finite and >= 0")
        except TypeError as exc:
            raise DomainError(f"series {column} do not compare: {exc}") from exc
        super().__init__(station_ref, tuple(times), tuple(rates), cadence)

    @property
    def samples(self) -> tuple[tuple[datetime, float], ...]:
        return tuple(zip(self.times, self.rates))

    def mean_spacing_hours(self) -> float:
        span = self.times[-1] - self.times[0]  # 0 for one sample
        return span.total_seconds() / 3600.0 / max(len(self.times) - 1, 1)


class StationCatalog(Record):
    """At least one station, each under a unique name. close_pairs, the
    pairs under the recommended minimum separation, is built on first access."""

    stations: tuple[GroundStation, ...]

    def __post_init__(self):
        if not self.stations:
            raise ValidationError("catalog has no station rows")
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
        loop's order over (i, j > i), km as _haversine_km(a, b) gives it."""
        lat, lon, cos_lat = _radians(self.stations)
        names = [s.name for s in self.stations]
        later = [[] for _ in names]  # later[i]: each j > i close to i
        for ids, wrap, lows, highs, near, own in _close_windows(lat, lon, cos_lat):
            for a, low, high, rest in zip(ids, lows, highs, near):
                for b in wrap[low:high] + rest:
                    if a < b or not own:
                        later[min(a, b)].append(max(a, b))
        return tuple((names[i], names[j], _haversine_km(lat, lon, cos_lat, i, j))
                     for i, js in enumerate(later) for j in sorted(js))


def _haversine_km(lat, lon, cos_lat, a: int, b: int) -> float:
    # great-circle km, haversine on a mean-radius sphere, between stations a and b
    # of radian columns with cos(lat), in catalog order
    i, j = (a, b) if a < b else (b, a)
    s = math.sin((lat[j] - lat[i]) / 2.0) ** 2 \
        + cos_lat[i] * cos_lat[j] * math.sin((lon[j] - lon[i]) / 2.0) ** 2
    return 2.0 * MEAN_EARTH_RADIUS_KM * math.asin(math.sqrt(s))


def _radians(stations) -> tuple[list[float], list[float], list[float]]:
    lat = [math.radians(s.latitude_deg) for s in stations]
    return lat, [math.radians(s.longitude_deg) for s in stations], list(map(math.cos, lat))


# Close pairs come from latitude strips THETA / 4 high, THETA the angle at the minimum
# separation, sorted by longitude and taken in pairs (S, T), T at or above S in reach.
# Caps shrunk or widened by 1e-6 (far beyond rounding) give a strip pair two longitude
# half-widths: all pairs within the inner are close, none beyond the outer. The haversine
# argument s = (1 - u_a . u_b) / 2 (u: unit vectors) decides the ring, within 1e-9 of it km.
_THETA = MIN_SEPARATION_KM / MEAN_EARTH_RADIUS_KM
_REACH = _THETA * (1.0 + 1e-6)
_COS_IN, _COS_OUT = math.cos(_THETA * (1.0 - 1e-6)), math.cos(_REACH)
_S_IN, _S_OUT = (math.sin(_THETA / 2.0) ** 2 * (1.0 + d) for d in (-1e-9, 1e-9))
_DOT_IN, _DOT_OUT = 1.0 - 2.0 * _S_IN, 1.0 - 2.0 * _S_OUT  # u_a . u_b = 1 - 2 s


def _half_width(cos_cap, a, p):
    # longitude half-width at latitude p of the cap about latitude a: pi all, -1
    # none. It is unimodal in each latitude, so over a box of latitudes the inner
    # cap's is least at a corner, and the outer cap's greatest on an edge, at
    # its peak sin(p) = sin(a) / cos(radius) clamped into the edge
    x = (cos_cap - math.sin(a) * math.sin(p)) / (math.cos(a) * math.cos(p))
    return math.pi if x <= -1.0 else math.acos(x) if x < 1.0 else -1.0


def _widest(a, lo, hi):
    peak = math.asin(max(-1.0, min(1.0, math.sin(a) / _COS_OUT)))
    return _half_width(_COS_OUT, a, min(max(peak, lo), hi))


def _windows(lons, wrap_lons, n, w):
    # positions [low, high) in wrap_lons, a strip's n sorted lons (or those less
    # 2 pi, as they are and plus 2 pi), within w of each lon: all n from low at pi
    lows = list(map(bisect.bisect_left, repeat(wrap_lons), map(operator.sub, lons, repeat(w))))
    return lows, list(map(operator.add, lows, repeat(n)) if w >= math.pi else map(
        bisect.bisect_right, repeat(wrap_lons), map(operator.add, lons, repeat(w))))


def _close_windows(lat, lon, cos_lat):
    """Yield (ids, wrap, lows, highs, near, own) for each strip S and each strip T
    within reach, from S's own up. Of T's ids in wrap (three times over where the
    windows cross +-pi) those in wrap[lows[p]:highs[p]] are certainly close to
    ids[p]; near[p] lists the others that are. In S's own strip (own) each pair
    comes twice, and each station with itself."""
    buckets, sin, cos = {}, math.sin, math.cos
    ux, uy = [c * cos(x) for c, x in zip(cos_lat, lon)], [c * sin(x) for c, x in zip(cos_lat, lon)]
    uz = list(map(sin, lat))
    for k in sorted(range(len(lat)), key=lon.__getitem__):  # ids by longitude
        buckets.setdefault(math.floor(lat[k] / (_THETA / 4.0)), []).append(k)
    strips = [(min(lat[k] for k in ids), max(lat[k] for k in ids), ids, [lon[k] for k in ids])
              for _, ids in sorted(buckets.items())]
    for k, (lo, hi, ids, lons) in enumerate(strips):
        for lo_t, hi_t, ids_t, lons_t in strips[k:]:
            if lo_t - hi > _REACH:
                break
            w_in = min(_half_width(_COS_IN, a, p) for a in (lo, hi) for p in (lo_t, hi_t))
            w_out = max(_widest(lo, lo_t, hi_t), _widest(hi, lo_t, hi_t),
                        _widest(lo_t, lo, hi), _widest(hi_t, lo, hi))
            wrap, wrap_lons, n = ids_t, lons_t, len(ids_t)
            if lons[0] - w_out < -math.pi or lons[-1] + w_out > math.pi:
                wrap, wrap_lons = ids_t * 3, [x - math.tau for x in lons_t] + lons_t + [
                    x + math.tau for x in lons_t]
            out_lows, out_highs = _windows(lons, wrap_lons, n, w_out)
            lows, highs = _windows(lons, wrap_lons, n, w_in) if w_in >= 0.0 else (out_lows,) * 2
            near = []
            for a, low, high, in_low, in_high in zip(ids, out_lows, out_highs, lows, highs):
                xa, ya, za = ux[a], uy[a], uz[a]
                near.append([b for b in wrap[low:in_low] + wrap[in_high:high] if (
                    d := xa * ux[b] + ya * uy[b] + za * uz[b]) > _DOT_IN or d > _DOT_OUT
                    and _haversine_km(lat, lon, cos_lat, a, b) < MIN_SEPARATION_KM])
            yield ids, wrap, lows, highs, near, ids is ids_t


def _close_pair_summary(stations) -> tuple[int, tuple[float, int, int]]:
    """The number of pairs under MIN_SEPARATION_KM, and (km, i, j) of the
    first closest in all-pairs order, as min(close_pairs, key=km) picks it."""
    lat, lon, cos_lat = _radians(stations)
    count = sum((sum(highs) - sum(lows) + sum(map(len, near)) - own * len(ids)) // (1 + own)
                for ids, _, lows, highs, near, own in _close_windows(lat, lon, cos_lat))
    # a sweep by latitude that stops once the latitude term of s exceeds the
    # least s so far: that term never falls along the order, and the longitude
    # term only adds to it. Nearly equal s can round to equal km, so each close
    # pair within 1e-9 of that s is measured, and a tie goes to the lower (i, j)
    order = sorted(range(len(lat)), key=lat.__getitem__)
    best, bound, sin = (math.inf, 0, 0), _S_OUT, math.sin
    for k, a in enumerate(order):
        lat_a, lon_a, cos_a = lat[a], lon[a], cos_lat[a]
        for m in range(k + 1, len(order)):
            if (s := sin((lat[b := order[m]] - lat_a) / 2.0) ** 2) > bound:
                break
            s += cos_a * cos_lat[b] * sin((lon[b] - lon_a) / 2.0) ** 2
            if s <= bound and (km := _haversine_km(lat, lon, cos_lat, a, b)) < MIN_SEPARATION_KM:
                best = min(best, (km, min(a, b), max(a, b)))
                bound = min(bound, s * (1.0 + 1e-9))
    return count, best


def _csv_rows(text: str, header: list[str], what: str):
    """(line, row) for each non-blank row of a CSV text after its header,
    as the rows are read, each checked to have the header's width; a
    csv.Error (an over-long field, say) becomes a ParseError on the line
    the reader stopped at."""
    reader = csv.reader(io.StringIO(text))
    try:
        if (first := next(reader, None)) is None:
            raise ValidationError(f"empty {what}")
        if first != header:
            raise ParseError(f"expected header {','.join(header)}, "
                             f"got {','.join(first)}", line=1)
        for idx, row in enumerate(reader, start=2):
            if row:
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=idx)
                yield idx, row
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from exc


def parse_station_catalog(text: str) -> StationCatalog:
    """Parse a station catalog CSV; altitude_m converts to km internally.

    Station names must be unique. One SeparationWarning gives the number
    of pairs closer than the recommended minimum separation and the
    closest of them; the catalog's close_pairs lists them on first access.
    """
    stations = []
    for idx, row in _csv_rows(text, CATALOG_HEADER, "catalog"):
        name = row[0].strip()
        try:  # a bad number, or a DomainError, which is a ValueError
            lat, lon, alt_m = map(float, row[1:])
            # every field by position, Record's fast path: one per row
            stations.append(GroundStation(name, lat, lon, alt_m / 1000.0))
        except ValueError as exc:
            raise ParseError(str(exc), line=idx) from exc
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


def _altitude_m(km: float) -> float:
    """The shortest rounding of km * 1000.0 that divides back to km, else the product."""
    m = km * 1000.0
    return next((r for d in range(16) if (r := round(m, d)) / 1000.0 == km), m)


def catalog_table(catalog: StationCatalog) -> tuple[list[str], list[list]]:
    """The catalog as a (header, rows) report table in its CSV schema."""
    return CATALOG_HEADER, [[s.name, s.latitude_deg, s.longitude_deg, _altitude_m(s.altitude_km)]
                            for s in catalog.stations]


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

    The plain form is the exact header, then lines of one comma each with no
    quotes, no CR and no blank line; UTC timestamps that fromisoformat reads
    as such; rates that float reads. RainSeries checks order and rates. Any
    other text, naive or other offsets included, is left to the row loop,
    which alone reports errors. A chunk of Z stamps is proved one comma a line
    and UTC by one count; +00:00, -00:00 or a mix keep both per-sample checks.
    The body is read by offset in chunks of about _CHUNK_CHARS, cut at
    newlines, so one chunk at most is held as lines and cells; each distinct
    rate text is parsed once, and its samples share one float.
    """
    start, end = len(_SERIES_HEADER_LINE) + 1, len(text) - text.endswith("\n")
    if not text.startswith(_SERIES_HEADER_LINE + "\n") or '"' in text or "\r" in text:
        return None
    # no line over the csv field size limit, which would leave a block
    # [k, k + half) with no newline
    half = csv.field_size_limit() // 2 or 1
    if any(text.find("\n", k, k + half) < 0 for k in range(start, end - half + 1, half)):
        return None
    times, rates, floats = [], [], {}
    while start < end:
        cut = text.find("\n", start + _CHUNK_CHARS, end)
        chunk = text[start:cut if cut >= 0 else end]
        start += len(chunk) + 1
        commas = chunk.count(",")  # as many as lines, one in each
        # all commas after a Z: float() reads no text ending in Z, so one a line, each stamp UTC
        zulu = chunk.count("Z,") == commas
        if chunk.count("\n") + 1 != commas or not zulu \
                and not all(map(operator.contains, chunk.split("\n"), [","] * commas)):
            return None
        cells = chunk.replace("\n", ",").split(",")
        k = len(times)  # the first stamp of this chunk
        try:
            times += map(datetime.fromisoformat, cells[0::2])
            floats.update({t: float(t) for t in set(cells[1::2]).difference(floats)})
        except ValueError:
            return None
        if not zulu and set(map(operator.attrgetter("tzinfo"), times[k:])) != {timezone.utc}:
            return None
        rates += map(floats.__getitem__, cells[1::2])
    return times, rates


def _parse_rows(text: str):
    """The series row by row, as (times, rates), one float per distinct
    rate text; raises the error that names the first bad line."""
    times, rates, floats = [], [], {}
    for idx, row in _csv_rows(text, SERIES_HEADER, "series"):
        ts = _parse_timestamp(row[0], idx)
        try:
            rate = floats[row[1]] if row[1] in floats else floats.setdefault(row[1], float(row[1]))
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
    return times, rates


def parse_rain_series(text: str, station_ref: str = "", cadence: str = "") -> RainSeries:
    """Parse a rain series CSV: strictly increasing UTC timestamps,
    finite non-negative rates, at least one sample.

    Text in the plain form analysis.series_to_csv writes is parsed in bulk;
    the row loop reads any other, and any RainSeries rejects, to name the line.
    """
    if (columns := _parse_columns(text)) is not None:
        try:
            return RainSeries(station_ref, *columns, cadence)
        except (DomainError, ValidationError):
            pass
    return RainSeries(station_ref, *_parse_rows(text), cadence)


def mean_rain_rate(series: RainSeries) -> float:
    """Arithmetic mean of the sample rates, mm/hr."""
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
    check("percentage", p_percent, "percentage")
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
    return read_packaged("stations_africa.csv")
