"""Write station records in the temperature CSV format the parser reads."""

from pathlib import Path
from typing import Iterable

from thermalsum.data_io import TEMPERATURE_HEADER, StationRecord


def write_temperature_csv(records: Iterable[StationRecord], path: str | Path) -> None:
    """Emit records as parse_temperature_csv reads them (floats at .6g)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TEMPERATURE_HEADER) + "\n")
        for r in records:
            tmax = "" if r.tmax is None else f"{r.tmax:.6g}"
            tmin = "" if r.tmin is None else f"{r.tmin:.6g}"
            fh.write(
                f"{r.station_id},{r.date.isoformat()},{r.latitude:.6g},"
                f"{r.longitude:.6g},{tmax},{tmin}\n"
            )
