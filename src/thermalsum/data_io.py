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

import array
import csv
import datetime
import functools
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import regimes
from .errors import EmptyFile, InsufficientData, MissingHeader, ParameterError

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

    station_ids are the distinct ids in order of first appearance, and
    station c sits at (latitude[c], longitude[c]), the coordinates of its
    first accepted row. station[k] indexes station_ids; day[k] is the
    date's proleptic Gregorian ordinal (datetime.date.toordinal). tmax and
    tmin hold NaN for a blank reading.
    """

    station_ids: tuple[str, ...]
    latitude: np.ndarray
    longitude: np.ndarray
    station: np.ndarray
    day: np.ndarray
    tmax: np.ndarray
    tmin: np.ndarray

    def __len__(self) -> int:
        return len(self.station)


@dataclass
class ParseResult:
    """The accepted rows of a temperature file and the count of rejected ones."""

    records: StationTable
    rejected: int


# Lines read per chunk, and the most distinct cells a column keeps
# converted. Both bound peak memory; outputs do not depend on either.
_PARSE_ROWS = 4096
_MEMO_CELLS = 1 << 16
# Bytes of the widest field of a keyed line (see _line_columns): two uint64
# words. _MASKS[k] keeps the first k bytes of a little-endian word.
_WIDE = 16
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
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

    Lines are read _PARSE_ROWS at a time. In a chunk without a quote or a
    NUL, a line with exactly five commas and no field over _WIDE bytes is
    keyed (see _line_columns): each distinct field is converted once per
    file. csv.reader splits every other line, and reads the rest of the
    file from the first chunk with a quote or a NUL. Every cell goes
    through the same converters, and every rule holds for whole columns
    (_parse_rows), so the path a line takes changes no value and no accept
    or reject decision. A station id converts to its index in one dict of
    the file's distinct ids, so every column is numeric.

    With observations given, records keeps only the stations and the
    accepted rows that build_analysis_rows(observations, ...) can read (see
    _JoinRows), so memory follows the kept rows; that join's output and
    rejected are the same as without them.
    """
    if units not in ("degrees", "tenths"):
        raise ParameterError(f"units must be 'degrees' or 'tenths', got {units!r}")
    keep = None if observations is None else _JoinRows(observations)
    names = {"": 0}  # each distinct stripped id, with its index
    intern = functools.partial(_intern, names)
    cells = (_Cells(intern, np.intp), _Cells(_ordinal, np.int64), _Cells(_number, float))
    codes = array.array("q")  # the station code of each id index (see _parse_rows)
    places: list[tuple[float, float]] = []  # (lat, lon) of each code
    # kept rows go into columns that double when full, not into per-chunk
    # pieces held to the end, which leave the heap fragmented
    columns = [np.empty(0, np.intp), np.empty(0, np.int64), np.empty(0), np.empty(0)]
    n = rejected = 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        _read_header(path, csv.reader(fh), TEMPERATURE_HEADER)
        # map holds no chunk, so a chunk's rows are freed before the next is read
        parse = functools.partial(
            _parse_rows, cells=cells, tenths=units == "tenths", codes=codes, places=places, keep=keep
        )
        for part, n_rejected in map(parse, _row_chunks(fh)):
            k = len(part[0])
            if n + k > len(columns[0]):
                size = max(n + k, 2 * len(columns[0]))
                columns = [np.concatenate((c[:n], np.empty(size - n, c.dtype))) for c in columns]
            for c, rows in zip(columns, part):
                c[n : n + k] = rows
            n += k
            rejected += n_rejected
    latitude, longitude = np.array(places, dtype=float).reshape(-1, 2).T.copy()
    ids = tuple(s for _, s in sorted((c, s) for s, c in zip(names, codes) if c >= 0))
    table = StationTable(ids, latitude, longitude, *(c[:n].copy() for c in columns))
    return ParseResult(records=table, rejected=rejected)


def _read_header(path: str | Path, reader: Iterator[list[str]], expected: list[str]) -> None:
    """Read the first row of reader; EmptyFile if there is none, MissingHeader
    unless its stripped cells are expected."""
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyFile(f"{path} is empty") from None
    if [h.strip() for h in header] != expected:
        raise MissingHeader(f"{path}: expected header {','.join(expected)}, got {','.join(header)}")


class _JoinRows:
    """Which stations and accepted rows a join of the given observations can read.

    A station stays if it lies within MATCH_CUTOFF_KM + _MARGIN_KM of some
    site (near), judged from its first accepted row. Its rows stay if
    their dates lie in [1 Jan, 1 Jan + beta_window(year).stop) of an
    observed year (__call__). The margin keeps every station the scalar
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

    def __call__(self, day: np.ndarray) -> np.ndarray:
        """Whether each date lies in an observed year's windows."""
        return day < self.stop[np.searchsorted(self.start, day, side="right") - 1]

    def near(self, lat: float, lon: float) -> bool:
        """Whether (lat, lon) lies within the cutoff and margin of a site."""
        if not len(self.site_lat):
            return False
        p = math.radians(lat)
        a = np.sin((self.site_lat - p) / 2) ** 2 + math.cos(p) * self.site_cos * np.sin(
            (self.site_lon - math.radians(lon)) / 2
        ) ** 2
        km = 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(min(float(a.min()), 1.0)))
        return km <= MATCH_CUTOFF_KM + _MARGIN_KM


def _row_chunks(fh: TextIO) -> Iterator[list[list[str]] | np.ndarray]:
    """The lines of fh, _PARSE_ROWS at a time: as bytes, or as csv's rows.

    A chunk without a quote or a NUL comes as its UTF-8 bytes, each line
    ending in LF (a CR or CRLF ending, which ends an unquoted csv row,
    made LF) and followed by _WIDE zero bytes, for _line_columns. From the
    first chunk that holds a quote or a NUL on, csv.reader reads the rest
    of the file, so quoted fields (and the line breaks inside them) and
    NULs follow csv's rules. Unquoted lines give the rows csv would: no
    other character is special to it, and the lines _line_columns does not
    key go to csv.reader, which refuses a field over csv.field_size_limit().
    """
    while lines := list(itertools.islice(fh, _PARSE_ROWS)):
        text = "".join(lines)
        if '"' in text or "\0" in text:
            reader = csv.reader(itertools.chain(lines, fh))
            del lines, text
            yield from iter(lambda: list(itertools.islice(reader, _PARSE_ROWS)), [])
            return
        lines.clear()  # freed before the text is encoded
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        text += "" if text.endswith("\n") else "\n"
        chunk = np.frombuffer(text.encode() + bytes(_WIDE), np.uint8)
        del lines, text
        yield chunk
        del chunk  # freed before the next chunk is read


def _line_columns(buf: np.ndarray, cells: tuple[_Cells, ...]) -> tuple:
    """The columns of a chunk's lines, as _row_columns gives them.

    buf holds LF-terminated lines, then _WIDE zero bytes. A line is keyed
    when it has exactly five commas and no field longer than _WIDE bytes,
    and its fields go through _Cells.keyed, the four numeric ones in one
    lookup. csv.reader splits every other line, and its rows are converted
    as csv's rows are.
    """
    sep = np.flatnonzero((buf == 44) | (buf == 10))  # commas and LFs
    lf = np.flatnonzero(buf[sep] == 10)
    end = sep[lf]
    start = np.concatenate(([0], end[:-1] + 1))
    keyed = np.flatnonzero(np.diff(lf, prepend=-1) == 6)
    at = lf[keyed]  # field j of keyed line k is bounds[j, k] + 1 to bounds[j + 1, k]
    bounds = np.stack([start[keyed] - 1] + [sep[at + j] for j in range(-5, 0)] + [end[keyed]])
    del sep
    narrow = (np.diff(bounds, axis=0) <= _WIDE + 1).all(axis=0)
    if not narrow.all():
        keyed, bounds = keyed[narrow], bounds[:, narrow]
    words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))  # unaligned
    columns = [  # fields 0, 1 and 2-5 (lat, lon, tmax, tmin)
        conv.keyed(buf, words, bounds[a:b].ravel() + 1, bounds[a + 1 : b + 1].ravel())
        for conv, a, b in zip(cells, (0, 1, 2), (1, 2, 6))
    ]
    columns[2] = columns[2].reshape(4, -1)
    if len(keyed) < len(start):
        rest = np.ones(len(start), dtype=bool)
        rest[keyed] = False
        rest = np.flatnonzero(rest)
        split = _row_columns(list(csv.reader(_decode(buf, start[rest], end[rest]))), cells)
        for j, (values, more) in enumerate(zip(columns, split)):
            column = np.empty(more.shape[:-1] + (len(start),), values.dtype)
            column[..., keyed], column[..., rest] = values, more
            columns[j] = column

    def blank(k: int) -> bool:
        return not buf[start[k] : end[k]].tobytes().decode().replace(",", "").strip()

    return (*columns, blank)


def _decode(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> Iterator[str]:
    return (buf[a:b].tobytes().decode() for a, b in zip(start.tolist(), end.tolist()))


def _key_hash(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A hash of each key (lo, hi); keys with equal hashes may differ."""
    return lo * np.uint64(0x9E3779B97F4A7C15) ^ hi * np.uint64(0xC2B2AE3D27D4EB4F)


class _Cells:
    """A converter of cells to numbers: each distinct cell is converted
    once, while it holds at most _MEMO_CELLS converted cells.

    Cells of csv's rows go through memo, a dict keyed by the cell's string.
    Fields of keyed lines go through a table keyed by the field's bytes,
    zero-padded to _WIDE, as two little-endian uint64 words (lo, hi); no
    NUL reaches a keyed line, so equal keys are equal fields. The table is
    sorted by _key_hash and holds each hash once, with one key for it.
    """

    def __init__(self, convert, dtype) -> None:
        self.convert, self.dtype, self.memo = convert, dtype, {}
        self.keys = np.empty((3, 0), np.uint64)  # hash, lo and hi of each
        self.values = np.empty(0, dtype)

    def keyed(self, buf: np.ndarray, words: np.ndarray, start: np.ndarray, end: np.ndarray):
        """The converted fields buf[start[i]:end[i]], each at most _WIDE bytes.

        words[k] is the little-endian uint64 at buf[k]. Each run of equal
        keys is hashed, and each distinct hash looked up once, in sorted
        order. A hash new to the table enters it with one of its keys,
        converted from the string of one of its fields. Then one check
        compares each run's key with the table's key at its hash: if any
        differs, two keys share a hash, and every field's string goes
        through __call__ instead.
        """
        if not len(start):
            return self.values[:0]
        width = end - start
        lo = words[start] & _MASKS[np.minimum(width, 8)]
        hi = words[start + 8] & _MASKS[np.maximum(width - 8, 0)] if width.max() > 8 else np.zeros_like(lo)
        first = np.flatnonzero(np.concatenate(([True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]))))
        h = _key_hash(lo[first], hi[first])
        order = np.argsort(h)
        h, lo, hi = h[order], lo[first[order]], hi[first[order]]
        head = np.flatnonzero(np.concatenate(([True], h[1:] != h[:-1])))  # each distinct hash
        slot = np.searchsorted(self.keys[0], h[head])
        new = slot == np.searchsorted(self.keys[0], h[head], side="right")  # hash not in table
        if new.any():
            if len(self.values) > _MEMO_CELLS:
                self.keys, self.values, new[:] = self.keys[:, :0], self.values[:0], True
            at = head[new]
            where = np.searchsorted(self.keys[0], h[at])
            self.keys = np.insert(self.keys, where, (h[at], lo[at], hi[at]), axis=1)
            fields = first[order[at]]
            cells = _decode(buf, start[fields], end[fields])
            self.values = np.insert(self.values, where, [self.convert(c) for c in cells])
            slot = np.searchsorted(self.keys[0], h[head])
        slot = np.repeat(slot, np.diff(head, append=len(h)))
        if ((self.keys[1, slot] != lo) | (self.keys[2, slot] != hi)).any():
            return self(list(_decode(buf, start, end)))  # two keys share a hash
        values = np.empty(len(first), self.values.dtype)
        values[order] = self.values[slot]
        return np.repeat(values, np.diff(first, append=len(start)))

    def __call__(self, column: Sequence[str | None]) -> np.ndarray:
        """The converted column, an array of dtype."""
        try:
            return self._lookup(column)
        except KeyError:  # a cell not yet converted
            pass
        memo = self.memo
        if len(memo) > _MEMO_CELLS:
            memo.clear()
        for cell in set(column).difference(memo):
            memo[cell] = self.convert(cell)
        return self._lookup(column)

    def _lookup(self, column: Sequence[str | None]) -> np.ndarray:
        return np.fromiter(map(self.memo.__getitem__, column), self.dtype, len(column))


def _parse_rows(
    chunk: list[list[str]] | np.ndarray,
    cells: tuple[_Cells, ...],
    tenths: bool,
    codes: array.array,
    places: list[tuple[float, float]],
    keep: _JoinRows | None,
) -> tuple[tuple[np.ndarray, ...], int]:
    """The station, day, tmax and tmin columns of the accepted rows that
    keep passes, in order, and the count of rejected ones (keep None
    passes every station and row).

    chunk is csv's rows, or lines as bytes for _line_columns. A cell that
    fails marks its row: 0 (the blank id's index) for a station id, -1 for
    a date, inf for a number (NaN is a blank). Then |lat| <= 90 and |lon| <=
    180, with tenths the readings divided by 10, and tmin <= tmax hold for
    whole columns. codes[i] is the code of the station with id index i: -2
    until its first accepted row, then its index in places, at that row's
    coordinates, if keep passes it, else -1. np.asarray views codes without
    a copy, so a chunk's cost does not grow with the ids seen.
    """
    columns = (_line_columns if isinstance(chunk, np.ndarray) else _row_columns)(chunk, cells)
    ids, day, (lat, lon, tmax, tmin), blank = columns
    if tenths:
        tmax, tmin = tmax / 10, tmin / 10
    has_id = ids > 0
    ok = has_id & (day > 0) & (np.abs(lat) <= 90) & (np.abs(lon) <= 180)
    ok &= ~np.isinf(tmax) & ~np.isinf(tmin) & ~(tmax < tmin)
    accepted = np.flatnonzero(ok)
    n_rejected = len(ids) - len(accepted) - sum(map(blank, np.flatnonzero(~has_id).tolist()))
    ids = ids[accepted]
    codes.extend([-2] * (int(ids.max(initial=0)) + 1 - len(codes)))
    new = np.flatnonzero(np.asarray(codes)[ids] == -2)
    _, first = np.unique(ids[new], return_index=True)  # each new id's first row
    first = new[np.sort(first)]
    for i, k in zip(ids[first].tolist(), accepted[first].tolist()):
        place = (float(lat[k]), float(lon[k]))
        if keep is None or keep.near(*place):
            codes[i] = len(places)
            places.append(place)
        else:
            codes[i] = -1
    station = np.asarray(codes)[ids]
    kept = station >= 0
    if keep is not None:
        kept &= keep(day[accepted])
    accepted = accepted[kept]
    return (station[kept], day[accepted], tmax[accepted], tmin[accepted]), n_rejected


def _row_columns(rows: list[list[str]], cells: tuple[_Cells, ...]) -> tuple:
    """The id indices, days and numbers (rows lat, lon, tmax, tmin) of rows,
    and whether row k is blank."""
    n = len(rows)
    columns = list(itertools.islice(itertools.zip_longest(*rows), 6))
    columns += [(None,) * n] * (6 - len(columns))  # every row is short
    ids, day, numbers = cells[0](columns[0]), cells[1](columns[1]), cells[2](sum(columns[2:], ()))

    def blank(k: int) -> bool:
        return all(not c.strip() for c in rows[k])

    return ids, day, numbers.reshape(4, n), blank


def _intern(names: dict[str, int], cell: str | None) -> int:
    """The stripped id's index in names, which gains each id new to it."""
    return names.setdefault("" if cell is None else cell.strip(), len(names))


def _ordinal(cell: str | None) -> int:
    """The date's ordinal, or -1 unless the cell is a valid YYYY-MM-DD."""
    text = "" if cell is None else cell.strip()
    if not _ISO_DATE.fullmatch(text):
        return -1
    try:
        return datetime.date.fromisoformat(text).toordinal()
    except ValueError:
        return -1


def _number(cell: str | None) -> float:
    """The value, NaN for a blank cell, inf for a missing cell or one that
    does not parse to a finite double."""
    if cell is None:
        return math.inf
    if not cell.strip():
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        return math.inf
    return value if math.isfinite(value) else math.inf


def parse_phenology_csv(path: str | Path) -> list[PhenologyObservation]:
    """Parse a phenology observations CSV (strict: any bad row raises).

    A malformed or out-of-range field raises ParameterError naming path:line.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        _read_header(path, reader, PHENOLOGY_HEADER)
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
            if not datetime.MINYEAR <= obs.year <= datetime.MAXYEAR:
                raise ParameterError(
                    f"{where}: year {obs.year} outside [{datetime.MINYEAR}, {datetime.MAXYEAR}]"
                )
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
    table: StationTable, rows: np.ndarray, station_id: str, year: int
) -> regimes.DailyTemperatureSeries:
    """Daily (tmax+tmin)/2 series of one station-year; missing if either is.

    rows indexes that station-year's rows of table, in file order;
    station_id only names the series. A station-day read more than once
    keeps its last complete reading.
    """
    years, yday = _year_and_yday(table.day[rows])
    if (years != year).any():
        raise ParameterError(f"rows for {station_id}/{year} include dates outside {year}")
    tmax, tmin = table.tmax[rows], table.tmin[rows]
    latest_first = np.flatnonzero(~np.isnan(tmax) & ~np.isnan(tmin))[::-1]
    days, first = np.unique(yday[latest_first], return_index=True)
    last = latest_first[first]
    values = np.full(regimes.days_in_year(year), np.nan)
    values[days] = 0.5 * (tmax[last] + tmin[last])
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
    near = (
        (d, sid)
        for sid, (lat, lon) in stations.items()
        if (d := haversine_km(site.latitude, site.longitude, lat, lon)) <= MATCH_CUTOFF_KM
    )
    best = min(near, default=None)
    return None if best is None else best[1]


@dataclass
class JoinDiagnostics:
    """Observations read, and those a join dropped; the joined count is len(rows)."""

    n_observations: int = 0
    n_no_station: int = 0
    n_insufficient: int = 0


def build_analysis_rows(
    observations: Iterable[PhenologyObservation], table: StationTable
) -> tuple[list[AnalysisRow], JoinDiagnostics]:
    """Join observations to matched station-years with passing regime estimates.

    An observation yields a row only when a station qualifies within
    MATCH_CUTOFF_KM and both estimation windows pass their completeness
    gates; everything else is counted in the diagnostics. The table is sorted once by
    (station, year), stably, so each midrange_series call gets exactly its
    station-year's rows in file order.
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
    coords = dict(zip(table.station_ids, zip(table.latitude.tolist(), table.longitude.tolist())))
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
            series = midrange_series(table, groups.get(key, no_rows), sid, obs.year)
            try:
                estimates[key] = regimes.estimate_regime(regimes.clip_base(series))
            except InsufficientData:
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
    return rows, diag


def analysis_rows_csv(rows: Iterable[AnalysisRow]) -> str:
    """Joined rows as CSV text (floats at 6 significant digits, LF endings).

    A site id holding a comma, a quote, CR or LF is quoted as csv quotes it
    (QUOTE_MINIMAL); other ids are written as they are.
    """
    lines = [",".join(ANALYSIS_HEADER)]
    lines += [
        f"{_csv_cell(r.site_id)},{r.year},{r.alpha_hat:.6g},{r.beta_hat:.6g},{r.bloom_doy}"
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def _csv_cell(text: str) -> str:
    # csv.writer with an LF terminator would leave a lone CR unquoted
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text
