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
import math
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


@dataclass(frozen=True, slots=True)
class StationRecord:
    """One station-day of raw temperatures; tmax/tmin may be missing."""

    station_id: str
    date: datetime.date
    latitude: float
    longitude: float
    tmax: float | None
    tmin: float | None


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


@dataclass
class ParseResult:
    records: list[StationRecord]
    rejected: int


def parse_temperature_csv(path: str | Path, units: str = "degrees") -> ParseResult:
    """Parse a station temperature CSV, counting (not failing on) bad rows.

    Rows are rejected when the date or coordinates fail to parse, coordinates
    are out of range, or tmin exceeds tmax. units="tenths" divides
    temperatures by 10 (raw GHCND convention).
    """
    if units not in ("degrees", "tenths"):
        raise ParameterError(f"units must be 'degrees' or 'tenths', got {units!r}")
    scale = 0.1 if units == "tenths" else 1.0
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
        records: list[StationRecord] = []
        rejected = 0
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            try:
                records.append(_parse_temperature_row(row, scale))
            except (ValueError, IndexError):
                rejected += 1
    return ParseResult(records=records, rejected=rejected)


def _parse_temperature_row(row: Sequence[str], scale: float) -> StationRecord:
    station_id = row[0].strip()
    if not station_id:
        raise ValueError("blank station_id")
    date = datetime.date.fromisoformat(row[1].strip())
    lat = float(row[2])
    lon = float(row[3])
    if abs(lat) > 90 or abs(lon) > 180:
        raise ValueError("coordinates out of range")
    tmax = float(row[4]) * scale if row[4].strip() else None
    tmin = float(row[5]) * scale if row[5].strip() else None
    if tmax is not None and tmin is not None and tmax < tmin:
        raise ValueError("tmax < tmin")
    return StationRecord(station_id, date, lat, lon, tmax, tmin)


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
            if not 1 <= obs.bloom_doy <= 366:
                raise ParameterError(f"{where}: bloom_doy {obs.bloom_doy} outside [1, 366]")
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
    records: Iterable[StationRecord], station_id: str, year: int
) -> regimes.DailyTemperatureSeries:
    """Daily (tmax+tmin)/2 series for one station-year; missing if either is."""
    n = regimes.days_in_year(year)
    values = np.full(n, np.nan)
    for r in records:
        if r.station_id != station_id or r.date.year != year:
            continue
        if r.tmax is None or r.tmin is None:
            continue
        values[r.date.timetuple().tm_yday - 1] = 0.5 * (r.tmax + r.tmin)
    return regimes.DailyTemperatureSeries(site_id=station_id, year=year, values=values)


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance on a sphere of radius EARTH_RADIUS_KM."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def station_coordinates(records: Iterable[StationRecord]) -> dict[str, tuple[float, float]]:
    """First-seen (lat, lon) per station id."""
    coords: dict[str, tuple[float, float]] = {}
    for r in records:
        coords.setdefault(r.station_id, (r.latitude, r.longitude))
    return coords


def match_station(
    site: PhenologyObservation,
    stations: Mapping[str, tuple[float, float]],
    max_km: float = MATCH_CUTOFF_KM,
) -> str | None:
    """Nearest station within max_km of the site, ties broken by station id."""
    best: tuple[float, str] | None = None
    for sid in sorted(stations):
        lat, lon = stations[sid]
        d = haversine_km(site.latitude, site.longitude, lat, lon)
        if d <= max_km and (best is None or d < best[0]):
            best = (d, sid)
    return None if best is None else best[1]


@dataclass
class JoinDiagnostics:
    n_observations: int = 0
    n_no_station: int = 0
    n_insufficient: int = 0
    n_rows: int = 0


def build_analysis_rows(
    observations: Iterable[PhenologyObservation],
    records: Iterable[StationRecord],
    max_km: float = MATCH_CUTOFF_KM,
) -> tuple[list[AnalysisRow], JoinDiagnostics]:
    """Join observations to matched station-years with passing regime estimates.

    An observation yields a row only when a station qualifies within max_km
    and both estimation windows pass their completeness gates; everything
    else is counted in the diagnostics. The archive is walked once: each
    station-year's records, in file order, are exactly those
    midrange_series would pick out of the whole archive, so a repeated
    station-day keeps its last complete reading.
    """
    groups: dict[tuple[str, int], list[StationRecord]] = {}
    for r in records:
        groups.setdefault((r.station_id, r.date.year), []).append(r)
    # a station's first group starts with its first record
    coords = station_coordinates(group[0] for group in groups.values())
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
            matches[where] = match_station(obs, coords, max_km=max_km)
        sid = matches[where]
        if sid is None:
            diag.n_no_station += 1
            continue
        key = (sid, obs.year)
        if key not in estimates:
            series = regimes.clip_base(midrange_series(groups.get(key, ()), sid, obs.year))
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
