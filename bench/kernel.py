"""Per-layer bench of the Monte Carlo kernel on the bundled sim1 and sim2 grids.

    python bench/kernel.py --label change [--r 10000] [--repeats 5] [--out BENCH_kernel.json]

Run from a checkout: the package is imported from the checkout's src/. Each
repeat runs simulate.simulate_hitting_times on every cell of each grid, with
the cell numbers and specs of `thermalsum reproduce sim1|sim2` at master
seed SEED, twice:

- an untraced pass, whose time is the kernel's (kernel_s);
- a traced pass, with wrappers on the module's _first_passage and
  _block_values, which splits that time into layers:
  - seeding: simulate_hitting_times outside _first_passage, i.e. hashing the
    seed words, building each replicate's generator, and each cell's mean
    path and block plan (per replicate);
  - draws: _block_values, one numpy draw call per alive row of a block plus
    the trend add (per row call and per drawn day);
  - scan: _first_passage outside _block_values: carry, cumsum and crossing
    search (per drawn day).

Counts come from the traced pass: rows (one draw call each), days drawn and
days used (the sum of the hitting times). The traced pass also records the
block ends each cell walked, the day each block ended on, so an entry shows
the block plan that ran. Times are medians over the repeats; the counts and
block ends repeat exactly. Both passes must return the same hitting
times, and their sha256 is recorded, so two entries with equal digests ran
the same outputs. The entry, with nproc and the Python and numpy versions,
replaces any entry of the same --label in the --out file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from itertools import accumulate, product
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from thermalsum import simulate  # noqa: E402

SEED = 7

GRIDS = {
    "sim1": (simulate.SIM1_ALPHAS, simulate.SIM1_BETAS, simulate.SIM1_TAUS, 0),
    "sim2": (simulate.SIM2_ALPHAS, simulate.SIM2_BETAS, simulate.SIM2_TAUS, simulate.SIM2_BREAKPOINT_DAY),
}


def _cells(grid: str):
    alphas, betas, taus, breakpoint_day = GRIDS[grid]
    for cell, (a, b, tau) in enumerate(product(alphas, betas, taus)):
        spec = simulate.TemperatureProcessSpec(a, b, simulate.DEFAULT_SIGMA, breakpoint_day=breakpoint_day)
        yield cell, spec, tau


def _run(grid: str, replicates: int) -> tuple[float, list[np.ndarray]]:
    times, t0 = [], perf_counter()
    for cell, spec, tau in _cells(grid):
        times.append(simulate.simulate_hitting_times(spec, tau, replicates, SEED, cell))
    return perf_counter() - t0, times


def _traced(grid: str, replicates: int) -> tuple[dict, list[np.ndarray]]:
    first_passage, block_values = simulate._first_passage, simulate._block_values
    acc = dict(passage_s=0.0, draw_s=0.0, rows=0, days_drawn=0, blocks=0, ends={})
    walked = []  # days of each block of the current _first_passage call

    def passage(spec, tau, *args):
        walked.clear()
        t0 = perf_counter()
        try:
            return first_passage(spec, tau, *args)
        finally:
            acc["passage_s"] += perf_counter() - t0
            cell = f"{spec.alpha:g},{spec.beta:g},{tau:g}"
            acc["ends"].setdefault(cell, set()).update(accumulate(walked))

    def values(*args):
        t0 = perf_counter()
        z = block_values(*args)
        acc["draw_s"] += perf_counter() - t0
        acc["rows"] += z.shape[0]
        acc["days_drawn"] += z.size
        acc["blocks"] += 1
        walked.append(z.shape[1])
        return z

    simulate._first_passage, simulate._block_values = passage, values
    try:
        kernel_s, times = _run(grid, replicates)
    finally:
        simulate._first_passage, simulate._block_values = first_passage, block_values
    acc["kernel_s"] = kernel_s
    return acc, times


def _digest(times: list[np.ndarray]) -> str:
    h = hashlib.sha256()
    for t in times:
        h.update(np.ascontiguousarray(t, dtype="<i8").tobytes())
    return h.hexdigest()


def measure(grid: str, replicates: int, repeats: int) -> dict:
    runs, digests = [], set()
    for _ in range(repeats):
        kernel_s, times = _run(grid, replicates)
        acc, traced = _traced(grid, replicates)
        digests |= {_digest(times), _digest(traced)}
        runs.append((kernel_s, acc))
    if len(digests) != 1:
        raise SystemExit(f"{grid}: hitting times differ between passes")
    cells = len(times)
    n, counts = cells * replicates, runs[0][1]

    def med(f):
        return statistics.median(f(k, a) for k, a in runs)

    return {
        "cells": cells,
        "replicates": n,
        "kernel_s": med(lambda k, a: k),
        "traced_kernel_s": med(lambda k, a: a["kernel_s"]),
        "seeding_us_per_replicate": med(lambda k, a: (a["kernel_s"] - a["passage_s"]) * 1e6 / n),
        "row_call_us": med(lambda k, a: a["draw_s"] * 1e6 / a["rows"]),
        "draw_ns_per_day": med(lambda k, a: a["draw_s"] * 1e9 / a["days_drawn"]),
        "scan_ns_per_day": med(lambda k, a: (a["passage_s"] - a["draw_s"]) * 1e9 / a["days_drawn"]),
        "rows": counts["rows"],
        "block_calls": counts["blocks"],
        "days_drawn": counts["days_drawn"],
        "days_used": sum(int(t.sum()) for t in times),
        "hitting_times_sha256": digests.pop(),
        "block_ends": {cell: sorted(ends) for cell, ends in counts["ends"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of this entry, e.g. the commit measured")
    parser.add_argument("--r", type=int, default=simulate.DEFAULT_REPLICATES, help="replicates per cell")
    parser.add_argument("--repeats", type=int, default=5, help="runs per grid; at least 3")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_kernel.json")
    args = parser.parse_args(argv)
    if args.repeats < 3 or args.r < 1:
        parser.error("--repeats must be >= 3 and --r >= 1")
    entry = {
        "label": args.label,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
        "settings": {"r": args.r, "seed": SEED, "repeats": args.repeats},
        "grids": {grid: measure(grid, args.r, args.repeats) for grid in GRIDS},
    }
    doc = {"bench": "kernel", "entries": []}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    doc["entries"] = [e for e in doc["entries"] if e["label"] != args.label] + [entry]
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(entry, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
