"""Station records for tests: the row type, the CSV writer, the table built
from rows and its reverse, and a per-row temperature parser that the
columnar one is checked against."""

import csv
import datetime
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from thermalsum.data_io import TEMPERATURE_HEADER, StationTable


@dataclass(frozen=True, slots=True)
class StationRecord:
    """One station-day of raw temperatures; tmax/tmin may be missing."""

    station_id: str
    date: datetime.date
    latitude: float
    longitude: float
    tmax: float | None
    tmin: float | None


def from_records(records: Iterable[StationRecord]) -> StationTable:
    """The table of a sequence of rows, in their order; None reads as NaN.

    Each station sits at its first row's coordinates.
    """
    records = list(records)
    codes: dict[str, int] = {}
    station = [codes.setdefault(r.station_id, len(codes)) for r in records]
    first = {r.station_id: r for r in reversed(records)}

    def floats(values: Iterable[float | None]) -> np.ndarray:
        return np.array([math.nan if v is None else v for v in values], dtype=float)

    return StationTable(
        station_ids=tuple(codes),
        latitude=floats(first[s].latitude for s in codes),
        longitude=floats(first[s].longitude for s in codes),
        station=np.array(station, dtype=np.intp),
        day=np.array([r.date.toordinal() for r in records], dtype=np.int64),
        tmax=floats(r.tmax for r in records),
        tmin=floats(r.tmin for r in records),
    )


def write_temperature_csv(records: Iterable[StationRecord], path: str | Path) -> None:
    """Emit records as parse_temperature_csv reads them (floats at .6g)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TEMPERATURE_HEADER) + "\n")
        for r in records:
            fh.write(temperature_line(r) + "\n")


def temperature_line(r: StationRecord) -> str:
    """One record as a CSV line, without the line ending."""
    tmax = "" if r.tmax is None else f"{r.tmax:.6g}"
    tmin = "" if r.tmin is None else f"{r.tmin:.6g}"
    return f"{r.station_id},{r.date.isoformat()},{r.latitude:.6g},{r.longitude:.6g},{tmax},{tmin}"


def to_records(table: StationTable) -> list[StationRecord]:
    """The table's rows, in order, each at its station's coordinates; a NaN
    reading reads as None."""

    def reading(v: float) -> float | None:
        return None if math.isnan(v) else v

    lat, lon = table.latitude.tolist(), table.longitude.tolist()
    return [
        StationRecord(
            table.station_ids[code], datetime.date.fromordinal(day), lat[code], lon[code],
            reading(tmax), reading(tmin),
        )
        for code, day, tmax, tmin in zip(
            table.station.tolist(), table.day.tolist(), table.tmax.tolist(), table.tmin.tolist(),
        )
    ]


def at_first_places(records: Iterable[StationRecord]) -> list[StationRecord]:
    """The records, each moved to its station's first record's coordinates,
    as a StationTable holds them."""
    return to_records(from_records(records))


def parse_temperature_rows(path: str | Path, units: str = "degrees") -> tuple[list[StationRecord], int]:
    """(accepted records, rejected count), one row at a time; header not checked."""
    divisor = 10 if units == "tenths" else 1
    records, rejected = [], 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            try:
                records.append(_parse_temperature_row(row, divisor))
            except (ValueError, IndexError):
                rejected += 1
    return records, rejected


def _parse_temperature_row(row: Sequence[str], divisor: int) -> StationRecord:
    station_id = row[0].strip()
    if not station_id:
        raise ValueError("blank station_id")
    text = row[1].strip()
    digits = text[:4] + text[5:7] + text[8:]
    if len(text) != 10 or text[4] != "-" or text[7] != "-" or not all(c in "0123456789" for c in digits):
        raise ValueError("date is not YYYY-MM-DD")
    date = datetime.date.fromisoformat(text)
    lat = float(row[2])
    lon = float(row[3])
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise ValueError("non-finite coordinates")
    if abs(lat) > 90 or abs(lon) > 180:
        raise ValueError("coordinates out of range")
    tmax = float(row[4]) / divisor if row[4].strip() else None
    tmin = float(row[5]) / divisor if row[5].strip() else None
    if any(t is not None and not math.isfinite(t) for t in (tmax, tmin)):
        raise ValueError("non-finite reading")
    if tmax is not None and tmin is not None and tmax < tmin:
        raise ValueError("tmax < tmin")
    return StationRecord(station_id, date, lat, lon, tmax, tmin)
