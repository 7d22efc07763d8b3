"""Ingest daily station temperatures and phenology observations; join them.

Temperature files are CSV with header station_id,date,lat,lon,tmax,tmin
(ISO-8601 dates, degC, blank cells for missing readings; pass units="tenths"
for raw GHCND tenths-of-degree values). Phenology files are CSV with header
site_id,lat,lon,year,bloom_doy,species,phenophase. Observation sites are
matched to the nearest station by great-circle distance within a 10-mile
(16.0934 km) cutoff, and joined rows carry the site-year regime estimates.
Live network clients are out of scope: both inputs are pre-downloaded files
(see docs/DATA.md).
"""

from __future__ import annotations

import csv
import datetime
import functools
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import regimes
from .errors import (
    DegenerateDesign,
    EmptyFile,
    InsufficientData,
    MissingHeader,
    ParameterError,
)

EARTH_RADIUS_KM = 6371.0088
MATCH_CUTOFF_KM = 16.0934  # 10 miles

TEMPERATURE_HEADER = ["station_id", "date", "lat", "lon", "tmax", "tmin"]
PHENOLOGY_HEADER = ["site_id", "lat", "lon", "year", "bloom_doy", "species", "phenophase"]
ANALYSIS_HEADER = ["site", "year", "alpha", "beta", "bloom_doy"]


@dataclass(frozen=True)
class PhenologyObservation:
    """One recorded bloom event at an observation site."""

    site_id: str
    latitude: float
    longitude: float
    year: int
    bloom_doy: int
    species: str
    phenophase: str


@dataclass(frozen=True)
class AnalysisRow:
    """Joined site-year row: regime estimates plus the observed bloom day."""

    site_id: str
    year: int
    alpha_hat: float
    beta_hat: float
    bloom_doy: int


@dataclass(frozen=True, slots=True)
class StationTable:
    """Station-day records as columns, one entry per record in file order.

    station[k] indexes station_ids, the distinct ids in order of first
    appearance; day[k] is the date's proleptic Gregorian ordinal
    (datetime.date.toordinal). The float columns hold NaN for a blank
    tmax/tmin reading.
    """

    station_ids: tuple[str, ...]
    station: np.ndarray
    day: np.ndarray
    latitude: np.ndarray
    longitude: np.ndarray
    tmax: np.ndarray
    tmin: np.ndarray

    def __len__(self) -> int:
        return len(self.station)

    def _take(self, index: np.ndarray) -> "StationTable":
        """The rows at index, in that order, numbered over their own stations."""
        codes, station = np.unique(self.station[index], return_inverse=True)
        return StationTable(
            station_ids=tuple(self.station_ids[c] for c in codes),
            station=station.reshape(-1),
            day=self.day[index],
            latitude=self.latitude[index],
            longitude=self.longitude[index],
            tmax=self.tmax[index],
            tmin=self.tmin[index],
        )


@dataclass
class ParseResult:
    """The accepted rows of a temperature file and the count of rejected ones."""

    records: StationTable
    rejected: int


# Rows converted per pass, and the most distinct strings a column keeps
# converted. Both bound peak memory; outputs do not depend on either.
_PARSE_ROWS = 1024
_MEMO_CELLS = 1 << 16
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_UNIX_EPOCH = datetime.date(1970, 1, 1).toordinal()
_NO_DAY = np.iinfo(np.int64).min
# Slack on the station pre-filter's distance, far above any rounding gap
# between its vectorized haversine and haversine_km.
_MARGIN_KM = 1.0


def parse_temperature_csv(
    path: str | Path,
    units: str = "degrees",
    observations: Iterable[PhenologyObservation] | None = None,
) -> ParseResult:
    """Parse a station temperature CSV, counting (not failing on) bad rows.

    Rows are rejected when the station id is blank, the date is not a valid
    YYYY-MM-DD, a coordinate or reading fails to parse or is not finite,
    coordinates are out of range, or tmin exceeds tmax. Blank rows are
    skipped. units="tenths" divides temperatures by 10 (raw GHCND convention).

    With observations given, records keeps only the accepted rows that
    build_analysis_rows(observations, ...) can read (see _JoinRows), so
    memory follows the kept rows; that join's output and rejected are the
    same as without them.
    """
    if units not in ("degrees", "tenths"):
        raise ParameterError(f"units must be 'degrees' or 'tenths', got {units!r}")
    keep = None if observations is None else _JoinRows(observations)
    reading = _Cells(functools.partial(_reading, scale=0.1 if units == "tenths" else 1.0), float)
    cells = (
        _Cells(_station_id, None),
        _Cells(_ordinal, np.int64),
        _Cells(functools.partial(_coordinate, limit=90.0), float),
        _Cells(functools.partial(_coordinate, limit=180.0), float),
        reading,  # tmax
        reading,  # tmin
    )
    codes: dict[str, int] = {}
    chunks: list[tuple[np.ndarray, ...]] = []
    rejected = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        if [h.strip() for h in header] != TEMPERATURE_HEADER:
            raise MissingHeader(
                f"{path}: expected header {','.join(TEMPERATURE_HEADER)}, got {','.join(header)}"
            )
        while rows := list(itertools.islice(reader, _PARSE_ROWS)):
            columns, n_rejected = _parse_rows(rows, cells, codes, keep)
            if len(columns[0]):
                chunks.append(columns)
            rejected += n_rejected
    if not chunks:  # no kept row: one chunk of typed empty columns
        chunks.append((np.empty(0, np.intp), np.empty(0, np.int64)) + (np.empty(0),) * 4)
    table = StationTable(tuple(codes), *map(np.concatenate, zip(*chunks)))
    return ParseResult(records=table, rejected=rejected)


class _JoinRows:
    """Which accepted rows a join of the given observations can read.

    A row stays if its station lies within MATCH_CUTOFF_KM + _MARGIN_KM of
    some site, judged once from the station's first accepted row, and its
    date lies in [1 Jan, 1 Jan + beta_window(year).stop) of an observed
    year or it is the station's first accepted row (which fixes the
    station's coordinates). The margin keeps every station the scalar
    match_station could choose, whatever the last bits of either haversine.
    """

    def __init__(self, observations: Iterable[PhenologyObservation]) -> None:
        observations = list(observations)
        sites = np.radians(sorted({(o.latitude, o.longitude) for o in observations}))
        self.site_lat, self.site_lon = sites.reshape(-1, 2).T
        self.site_cos = np.cos(self.site_lat)
        years = sorted({o.year for o in observations})
        jan1 = [datetime.date(y, 1, 1).toordinal() for y in years]
        # an empty first window, so every date falls after some window's start
        self.start = np.array([_NO_DAY] + jan1, dtype=np.int64)
        self.stop = np.array(
            [_NO_DAY] + [d + regimes.beta_window(y).stop for d, y in zip(jan1, years)],
            dtype=np.int64,
        )
        self.near: dict[str, bool] = {}

    def __call__(
        self, ids: list[str], day: np.ndarray, lat: np.ndarray, lon: np.ndarray
    ) -> np.ndarray:
        """Mask over one chunk of accepted rows, in file order."""
        stations = dict.fromkeys(ids)
        first = [ids.index(s) for s in stations if s not in self.near]
        for k in first:
            km = self._km_to_nearest_site(float(lat[k]), float(lon[k]))
            self.near[ids[k]] = km <= MATCH_CUTOFF_KM + _MARGIN_KM
        near = [self.near[s] for s in stations]
        if not any(near):
            return np.zeros(len(ids), dtype=bool)
        readable = day < self.stop[np.searchsorted(self.start, day, side="right") - 1]
        readable[first] = True
        if all(near):
            return readable
        return readable & np.fromiter(map(self.near.__getitem__, ids), dtype=bool, count=len(ids))

    def _km_to_nearest_site(self, lat: float, lon: float) -> float:
        """Haversine distance from (lat, lon) to the nearest site; inf with none."""
        if not len(self.site_lat):
            return math.inf
        p = math.radians(lat)
        a = np.sin((self.site_lat - p) / 2) ** 2 + math.cos(p) * self.site_cos * np.sin(
            (self.site_lon - math.radians(lon)) / 2
        ) ** 2
        return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(min(float(a.min()), 1.0)))


class _Cells:
    """One column's converter: each distinct cell string is converted once."""

    def __init__(self, convert, dtype) -> None:
        self.convert, self.dtype, self.memo = convert, dtype, {}

    def __call__(self, column: Sequence[str | None]):
        """The converted column: an array of dtype, or a list if dtype is None."""
        memo = self.memo
        if len(memo) > _MEMO_CELLS:
            memo.clear()
        for cell in set(column).difference(memo):
            memo[cell] = self.convert(cell)
        values = map(memo.__getitem__, column)
        return list(values) if self.dtype is None else np.fromiter(values, self.dtype, len(column))


def _parse_rows(
    rows: list[list[str]],
    cells: tuple[_Cells, ...],
    codes: dict[str, int],
    keep: _JoinRows | None,
) -> tuple[tuple[np.ndarray, ...], int]:
    """Columns of the accepted rows that keep passes, in order, and the
    count of rejected ones (keep None passes every row).

    A cell that fails marks its row: "" for a station id, -1 for a date,
    NaN for a coordinate, inf for a reading (NaN there is a blank). Station
    ids of kept rows join codes in file order.
    """
    n = len(rows)
    columns = list(itertools.islice(itertools.zip_longest(*rows), 6))
    columns += [(None,) * n] * (6 - len(columns))  # every row is short
    ids, day, lat, lon, tmax, tmin = (conv(col) for conv, col in zip(cells, columns))
    has_id = np.fromiter(map(bool, ids), dtype=bool, count=n)
    ok = has_id & (day > 0) & ~np.isnan(lat) & ~np.isnan(lon)
    ok &= ~np.isinf(tmax) & ~np.isinf(tmin) & ~(tmax < tmin)
    n_blank = sum(all(not c.strip() for c in rows[k]) for k in np.flatnonzero(~has_id))
    accepted = list(itertools.compress(ids, ok.tolist()))
    n_rejected = n - len(accepted) - n_blank
    columns = (day[ok], lat[ok], lon[ok], tmax[ok], tmin[ok])
    if keep is not None:
        kept = keep(accepted, *columns[:3])
        if not kept.all():
            accepted = list(itertools.compress(accepted, kept.tolist()))
            columns = tuple(c[kept] for c in columns)
    for s in dict.fromkeys(accepted):
        codes.setdefault(s, len(codes))
    station = np.fromiter(map(codes.__getitem__, accepted), dtype=np.intp, count=len(accepted))
    return (station, *columns), n_rejected


def _station_id(cell: str | None) -> str:
    return "" if cell is None else cell.strip()


def _ordinal(cell: str | None) -> int:
    """The date's ordinal, or -1 unless the cell is a valid YYYY-MM-DD."""
    text = "" if cell is None else cell.strip()
    if not _ISO_DATE.fullmatch(text):
        return -1
    try:
        return datetime.date.fromisoformat(text).toordinal()
    except ValueError:
        return -1


def _coordinate(cell: str | None, limit: float) -> float:
    """The value, or NaN unless it parses and |value| <= limit (so finite)."""
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return math.nan
    return value if abs(value) <= limit else math.nan


def _reading(cell: str | None, scale: float) -> float:
    """The scaled reading, NaN for a blank cell, inf unless finite."""
    if cell is None:
        return math.inf
    if not cell.strip():
        return math.nan
    try:
        value = float(cell) * scale
    except ValueError:
        return math.inf
    return value if math.isfinite(value) else math.inf


def parse_phenology_csv(path: str | Path) -> list[PhenologyObservation]:
    """Parse a phenology observations CSV (strict: any bad row raises).

    A malformed or out-of-range field raises ParameterError naming path:line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        if [h.strip() for h in header] != PHENOLOGY_HEADER:
            raise MissingHeader(
                f"{path}: expected header {','.join(PHENOLOGY_HEADER)}, got {','.join(header)}"
            )
        out = []
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            where = f"{path}:{reader.line_num}"
            try:
                obs = PhenologyObservation(
                    site_id=row[0].strip(),
                    latitude=float(row[1]),
                    longitude=float(row[2]),
                    year=int(row[3]),
                    bloom_doy=int(row[4]),
                    species=row[5].strip(),
                    phenophase=row[6].strip(),
                )
            except (ValueError, IndexError) as exc:
                raise ParameterError(f"{where}: malformed row ({exc})") from None
            if not (abs(obs.latitude) <= 90 and abs(obs.longitude) <= 180):
                raise ParameterError(
                    f"{where}: site coordinates ({obs.latitude}, {obs.longitude}) must be "
                    "finite with |lat| <= 90 and |lon| <= 180"
                )
            if not obs.site_id:
                raise ParameterError(f"{where}: blank site_id")
            last_day = regimes.days_in_year(obs.year)
            if not 1 <= obs.bloom_doy <= last_day:
                raise ParameterError(
                    f"{where}: bloom_doy {obs.bloom_doy} outside [1, {last_day}] for {obs.year}"
                )
            out.append(obs)
    return out


def filter_phenology(
    observations: Iterable[PhenologyObservation],
    species: str | None = None,
    phenophase: str | None = None,
) -> list[PhenologyObservation]:
    """Plain string match on the species / phenophase tags."""
    return [
        o
        for o in observations
        if (species is None or o.species == species)
        and (phenophase is None or o.phenophase == phenophase)
    ]


def midrange_series(
    table: StationTable, station_id: str, year: int
) -> regimes.DailyTemperatureSeries:
    """Daily (tmax+tmin)/2 series for one station-year; missing if either is.

    A station-day read more than once keeps its last complete reading.
    """
    values = np.full(regimes.days_in_year(year), np.nan)
    if station_id in table.station_ids:
        years, yday = _year_and_yday(table.day)
        complete = ~np.isnan(table.tmax) & ~np.isnan(table.tmin)
        mine = (table.station == table.station_ids.index(station_id)) & (years == year)
        latest_first = np.flatnonzero(mine & complete)[::-1]
        days, first = np.unique(yday[latest_first], return_index=True)
        last = latest_first[first]
        values[days] = 0.5 * (table.tmax[last] + table.tmin[last])
    return regimes.DailyTemperatureSeries(site_id=station_id, year=year, values=values)


def _year_and_yday(day: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Calendar year and 0-based day of year of each date ordinal."""
    dates = (day - _UNIX_EPOCH).astype("datetime64[D]")
    years = dates.astype("datetime64[Y]")
    return years.astype(np.int64) + 1970, (dates - years).astype(np.int64)


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance on a sphere of radius EARTH_RADIUS_KM."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def match_station(
    site: PhenologyObservation, stations: Mapping[str, tuple[float, float]]
) -> str | None:
    """Nearest station within MATCH_CUTOFF_KM of the site, ties broken by station id."""
    best: tuple[float, str] | None = None
    for sid in sorted(stations):
        lat, lon = stations[sid]
        d = haversine_km(site.latitude, site.longitude, lat, lon)
        if d <= MATCH_CUTOFF_KM and (best is None or d < best[0]):
            best = (d, sid)
    return None if best is None else best[1]


@dataclass
class JoinDiagnostics:
    n_observations: int = 0
    n_no_station: int = 0
    n_insufficient: int = 0
    n_rows: int = 0


def build_analysis_rows(
    observations: Iterable[PhenologyObservation], table: StationTable
) -> tuple[list[AnalysisRow], JoinDiagnostics]:
    """Join observations to matched station-years with passing regime estimates.

    An observation yields a row only when a station qualifies within
    MATCH_CUTOFF_KM and both estimation windows pass their completeness
    gates; everything else is counted in the diagnostics. The table is sorted once by
    (station, year), stably, so each midrange_series call gets exactly its
    station-year's rows in file order. A station's coordinates are those
    of its first row.
    """
    years, _ = _year_and_yday(table.day)
    station_year = table.station * (years.max(initial=0) + 1) + years
    order = np.argsort(station_year, kind="stable")
    station_year = station_year[order]
    bounds = np.r_[np.flatnonzero(np.diff(station_year, prepend=-1)), len(order)]
    groups = {
        (table.station_ids[table.station[order[a]]], int(years[order[a]])): order[a:b]
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    }
    codes, first = np.unique(table.station, return_index=True)
    coords = {
        table.station_ids[c]: (float(table.latitude[k]), float(table.longitude[k]))
        for c, k in zip(codes.tolist(), first.tolist())
    }
    no_rows = np.empty(0, dtype=np.intp)
    diag = JoinDiagnostics()
    rows: list[AnalysisRow] = []
    # the match depends only on the site's coordinates
    matches: dict[tuple[float, float], str | None] = {}
    # one estimate per station-year; None marks a failed completeness gate
    estimates: dict[tuple[str, int], regimes.RegimeEstimate | None] = {}
    for obs in observations:
        diag.n_observations += 1
        where = (obs.latitude, obs.longitude)
        if where not in matches:
            matches[where] = match_station(obs, coords)
        sid = matches[where]
        if sid is None:
            diag.n_no_station += 1
            continue
        key = (sid, obs.year)
        if key not in estimates:
            group = table._take(groups.get(key, no_rows))
            series = regimes.clip_base(midrange_series(group, sid, obs.year))
            try:
                estimates[key] = regimes.estimate_regime(series)
            except (InsufficientData, DegenerateDesign):
                estimates[key] = None
        est = estimates[key]
        if est is None:
            diag.n_insufficient += 1
            continue
        rows.append(
            AnalysisRow(
                site_id=obs.site_id,
                year=obs.year,
                alpha_hat=est.alpha_hat,
                beta_hat=est.beta_hat,
                bloom_doy=obs.bloom_doy,
            )
        )
        diag.n_rows += 1
    return rows, diag


def write_analysis_rows(rows: Iterable[AnalysisRow], path: str | Path) -> None:
    """Emit joined rows as CSV (floats at 6 significant digits, LF endings)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(ANALYSIS_HEADER) + "\n")
        for r in rows:
            fh.write(
                f"{r.site_id},{r.year},{r.alpha_hat:.6g},{r.beta_hat:.6g},{r.bloom_doy}\n"
            )
