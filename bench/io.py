"""In-process bench of the station pipeline's parse and join on a generated archive.

    python bench/io.py --label change [--repeats 5] [--out BENCH_io.json]

Run from a checkout: the package is imported from the checkout's src/. The
archive is perfbench's seed-SEED station archive (perfbench/station.py,
146,360 temperature rows and 400 lilac observations), written to a
temporary directory. Each repeat runs, as `thermalsum reproduce lilac-bins`
does:

- parse_s: data_io.parse_temperature_csv(path, observations=lilac), which
  keeps only the rows the join can read;
- join_s: data_io.build_analysis_rows(lilac, table) on that table.

Times are medians over the repeats. One more, untimed parse under
tracemalloc gives the parse's peak of traced memory (numpy's buffers
included). rows_read counts the file's data lines, rows_kept the table's
rows and rejected the rows the parse refused. The sha256 of
analysis_rows_csv(rows) is recorded, so two entries with equal digests
joined the same rows. The entry, with nproc and the Python and numpy
versions, replaces any entry of the same --label in the --out file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import station  # noqa: E402

from thermalsum import cli, data_io  # noqa: E402

SEED = 1


def measure(data: Path, repeats: int) -> dict:
    path = data / station.TEMPERATURE_FILE
    lilac = data_io.filter_phenology(
        data_io.parse_phenology_csv(data / station.PHENOLOGY_FILE),
        species=cli.DEFAULT_SPECIES, phenophase=cli.DEFAULT_PHENOPHASE,
    )
    parse_s, join_s, digests = [], [], set()
    for _ in range(repeats):
        t0 = perf_counter()
        parsed = data_io.parse_temperature_csv(path, observations=lilac)
        t1 = perf_counter()
        rows, _ = data_io.build_analysis_rows(lilac, parsed.records)
        join_s.append(perf_counter() - t1)
        parse_s.append(t1 - t0)
        digests.add(hashlib.sha256(data_io.analysis_rows_csv(rows).encode()).hexdigest())
    if len(digests) != 1:
        raise SystemExit("the joined rows differ between repeats")
    del parsed
    tracemalloc.start()
    parsed = data_io.parse_temperature_csv(path, observations=lilac)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    with open(path, encoding="utf-8") as fh:
        rows_read = sum(1 for _ in fh) - 1
    return {
        "parse_s": statistics.median(parse_s),
        "join_s": statistics.median(join_s),
        "parse_peak_traced_mib": peak / 2**20,
        "rows_read": rows_read,
        "rows_kept": len(parsed.records),
        "rejected": parsed.rejected,
        "analysis_rows": len(rows),
        "analysis_rows_sha256": digests.pop(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of this entry, e.g. the commit measured")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs; at least 5")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_io.json")
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be >= 5")
    with tempfile.TemporaryDirectory() as tmp:
        station.generate(SEED, Path(tmp))
        result = measure(Path(tmp), args.repeats)
    entry = {
        "label": args.label,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
        "settings": {"seed": SEED, "repeats": args.repeats},
        "station_pipeline": result,
    }
    doc = {"bench": "io", "entries": []}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    doc["entries"] = [e for e in doc["entries"] if e["label"] != args.label] + [entry]
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(entry, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
