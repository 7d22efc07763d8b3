"""Benchmark of `thermalsum reproduce`: three single-threaded workloads.

    python3 perfbench/run.py --workload sim2-serial --seed 1 --seconds 20 --trace 0

Run from the repository root. Every command runs in a fresh child process
(child.py) that imports `thermalsum.cli` from ./src and calls its real
entry point with `--threads 1`. For --seconds seconds (and at least
MIN_COMMANDS times) the workload's command is run again; before that,
SETUP_PROBES children only import the package. With --trace 0 the run
prints the end-to-end metrics as medians over its children:

    wall_s       wall time of the `reproduce` command alone
    setup_s      time to `import thermalsum.cli` in a fresh process
    peak_rss_mb  peak resident memory of a command child

With --trace 1 it then runs the command once more under the span recorder
(spans.py) and `python -X importtime`, and prints the per-layer metrics
instead. After the timed children the outputs are checked against
computations made apart from the program (simcheck.py, station.py) and
for byte-identity across every child of the run. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
import simcheck
import spans
import station

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
MIN_COMMANDS = 3
CHILD_TIMEOUT_S = 120
SAMPLER_PATHS = 20_000  # independent sampler paths per grid cell


class SimGrid:
    """`reproduce sim1|sim2` with the seed as the program's master seed."""

    def __init__(self, target: str, flags: list[str], seed: int) -> None:
        self.target, self.flags, self.seed = target, flags, seed

    def argv(self, out: Path) -> list[str]:
        return ["reproduce", self.target, "--seed", str(self.seed), *self.flags,
                "--threads", "1", "--out", str(out)]

    def run_dir(self, out: Path) -> Path:
        return out / f"{self.target}-seed{self.seed}"

    def check(self, out: Path, stdout: str) -> list[str]:
        sample = simcheck.sample_grid(self.target, self.seed, SAMPLER_PATHS)
        check = simcheck.check_sim1 if self.target == "sim1" else simcheck.check_sim2
        return check(self.run_dir(out), self.seed, sample)


class StationPipeline:
    """`reproduce lilac-bins` on a generated 146k-record archive and 400 observations."""

    SUMMARY = re.compile(
        r"lilac-bins: (\d+) rows from (\d+) observations \((\d+) unmatched, "
        r"(\d+) incomplete, (\d+) rejected temperature rows\)")

    def __init__(self, seed: int, work: Path) -> None:
        self.data = work / "data"
        self.archive = station.generate(seed, self.data)

    def argv(self, out: Path) -> list[str]:
        return ["reproduce", "lilac-bins", "--data-dir", str(self.data), "--threads", "1",
                "--out", str(out)]

    def run_dir(self, out: Path) -> Path:
        return out / "lilac-bins"

    def check(self, out: Path, stdout: str) -> list[str]:
        a = self.archive
        expected = station.expected_join(a)
        failures = station.join_failures(self.run_dir(out) / "analysis_rows.csv", expected)
        injected = (len(a.observations), a.n_unmatched, a.n_incomplete, a.n_rejected)
        oracle = (expected.n_observations, expected.n_unmatched, expected.n_incomplete, a.n_rejected)
        if oracle != injected:
            failures.append(f"oracle counts {oracle} != injected {injected}")
        m = self.SUMMARY.search(stdout)
        if m is None:
            return failures + ["no 'lilac-bins: N rows from ...' line on stdout"]
        rows, *counts = (int(g) for g in m.groups())
        if tuple(counts) != injected or rows != len(expected.rows):
            failures.append(f"reported rows/observations/unmatched/incomplete/rejected "
                            f"{rows}/{counts} vs {len(expected.rows)}/{list(injected)}")
        grid = (self.run_dir(out) / "grid.csv").read_text(encoding="utf-8").splitlines()[1:]
        binned = sum(int(line.rsplit(",", 3)[1]) for line in grid)
        if binned != rows:
            failures.append(f"grid.csv counts sum to {binned}, not the {rows} joined rows")
        return failures


# Why each workload exists: perfbench/README.md.
WORKLOADS = {
    "sim2-serial": lambda seed, work: SimGrid("sim2", [], seed),
    "sim1-serial": lambda seed, work: SimGrid("sim1", ["--check", "--raw"], seed),
    "station-pipeline": StationPipeline,
}


def run_child(root: Path, tag: Path, command: list[str], trace: bool = False) -> dict:
    """Run child.py in a fresh interpreter; its stdout and stderr go to files beside tag."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    args = [sys.executable] + (["-X", "importtime"] if trace else [])
    args += [str(HERE / "child.py"), str(tag.with_suffix(".json"))]
    args += (["--trace"] if trace else []) + ["--"] + command
    with open(tag.with_suffix(".out"), "w") as out, open(tag.with_suffix(".err"), "w") as err:
        proc = subprocess.Popen(args, cwd=root, env=env, stdout=out, stderr=err)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    result_path = tag.with_suffix(".json")
    result = {"exit_code": proc.returncode or -1}  # a child that wrote no result failed
    if proc.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text())
    result["stdout"] = tag.with_suffix(".out").read_text()
    result["stderr_path"] = tag.with_suffix(".err")
    return result


def tree_bytes(run_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()}


def per_layer(traced: dict, untraced_wall: float) -> dict[str, tuple[float, str]]:
    rec = traced["spans"]
    stats, counts = rec["spans"], rec["counts"]

    def calls(span):
        return stats.get(span, [0, 0.0, 0.0])[0]

    def total(span):
        return stats.get(span, [0, 0.0, 0.0])[1]

    def self_time(span):
        return stats.get(span, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    kernel = total("simulate.kernel")
    layers = spans.import_layers(traced["stderr_path"].read_text())
    return {
        "setup.numpy_s": (layers["numpy"], "s"),
        "setup.scipy_s": (layers["scipy"], "s"),
        "setup.thermalsum_s": (layers["thermalsum"], "s"),
        "simulate.kernel_s": (kernel, "s"),
        "simulate.rng_s": (total("simulate.rng"), "s"),
        "simulate.path_s": (total("simulate.path"), "s"),
        "simulate.replicates": (counts["replicates"], "count"),
        "simulate.days_needed": (counts["days"], "count"),
        "simulate.us_per_replicate": (ratio(kernel * 1e6, counts["replicates"]), "us"),
        "simulate.ns_per_day": (ratio(kernel * 1e9, counts["days"]), "ns"),
        "simulate.verify_s": (total("simulate.verify"), "s"),
        "simulate.ks_s": (total("simulate.ks"), "s"),
        "simulate.export_s": (total("simulate.export"), "s"),
        "checks.s": (total("checks"), "s"),
        "data_io.parse_s": (total("data_io.parse"), "s"),
        "data_io.records": (counts["records"], "count"),
        "data_io.rejected": (counts["rejected"], "count"),
        "data_io.records_per_s": (ratio(counts["records"], total("data_io.parse")), "1/s"),
        "data_io.match_s": (total("data_io.match"), "s"),
        "data_io.match_calls": (calls("data_io.match"), "count"),
        "data_io.series_s": (total("data_io.series"), "s"),
        "data_io.series_built": (calls("data_io.series"), "count"),
        "data_io.join_s": (self_time("data_io.join"), "s"),
        "data_io.rows": (counts["rows"], "count"),
        "data_io.join_yield": (ratio(counts["rows"], counts["observations"]), "ratio"),
        "regimes.estimate_s": (total("regimes.estimate"), "s"),
        "regimes.estimates": (calls("regimes.estimate"), "count"),
        "regimes.estimates_per_series": (ratio(calls("regimes.estimate"), calls("data_io.series")), "ratio"),
        "fitting.bin_s": (total("fitting.bin"), "s"),
        "cli.other_s": (traced["wall_s"] - rec["top_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced_wall, "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "thermalsum" / "cli.py").is_file():
        print(f"perfbench: {root}/src/thermalsum/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    selftest.main()

    work = root / ".perfbench_work" / opts.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[opts.workload](opts.seed, work)

    run_child(root, work / "warmup", [])  # writes bytecode caches; not measured
    probes = [run_child(root, work / f"probe{i}", []) for i in range(SETUP_PROBES)]
    timed = []  # (output root, child result)
    start = time.perf_counter()
    while len(timed) < MIN_COMMANDS or time.perf_counter() - start < opts.seconds:
        out = work / f"out{len(timed)}"
        timed.append((out, run_child(root, work / f"cmd{len(timed)}", workload.argv(out))))
    commands = list(timed)
    if opts.trace:
        out = work / "out-traced"
        commands.append((out, run_child(root, work / "cmd-traced", workload.argv(out), trace=True)))

    done = [(out, r) for out, r in commands if r["exit_code"] == 0]
    failures = []
    if done:
        failures += workload.check(done[0][0], done[0][1]["stdout"])
        first = tree_bytes(workload.run_dir(done[0][0]))
        for out, _ in done[1:]:
            if tree_bytes(workload.run_dir(out)) != first:
                failures.append(f"{workload.run_dir(out)} differs from {workload.run_dir(done[0][0])}")
    for line in failures:
        print(f"CHECK FAIL {opts.workload}: {line}")
    for r in probes + [r for _, r in commands]:
        if r["exit_code"] != 0:
            tail = (r["stderr_path"].read_text().strip() or r["stdout"].strip()).splitlines()[-1:]
            print(f"CHILD FAIL {opts.workload}: exit {r['exit_code']}: {' '.join(tail)}")

    timed = [r for _, r in timed if r["exit_code"] == 0]
    if not timed or (opts.trace and commands[-1][1]["exit_code"] != 0):
        print("perfbench: no timed command finished, or the traced one failed", file=sys.stderr)
        return 1
    wall = statistics.median(r["wall_s"] for r in timed)
    if opts.trace:
        traced = commands[-1][1]
        metrics = per_layer(traced, wall)
        for name in traced["spans"]["absent"]:
            print(f"absent: {name} (its metrics read 0)")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(r["import_s"] for r in probes + timed if "import_s" in r), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kib"] for r in timed) / 1024.0, "MiB"),
        }
    print(f"{opts.workload} seed={opts.seed}: {len(timed)} timed commands, "
          f"walls {', '.join(format(r['wall_s'], '.3f') for r in timed)} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(commands),
        "failed": sum(r["exit_code"] != 0 for _, r in commands),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
