"""Per-layer spans for the traced run: calls, inclusive time and self time.

The program reaches each function below as a module attribute at call time
(`simulate.substream(...)` inside `simulate`, `data_io.match_station(...)`
inside `build_analysis_rows`, `checks.sim1_ks_checks(...)` from the CLI), so
replacing the attribute routes every call through a wrapper. Several
functions may share one span name; a span's self time is its inclusive time
minus that of the spans it encloses. A function its module no longer has is
listed as absent, and its metrics read 0. Only the traced child calls
install(): the timed runs carry no wrappers.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module, function, span)
WRAPPED = [
    ("thermalsum.simulate", "simulate_hitting_times", "simulate.kernel"),
    ("thermalsum.simulate", "substream", "simulate.rng"),
    ("thermalsum.simulate", "simulate_hitting_time", "simulate.path"),
    ("thermalsum.simulate", "verify_stopping", "simulate.verify"),
    ("thermalsum.simulate", "ks_distance", "simulate.ks"),
    ("thermalsum.simulate", "summary_csv_rows", "simulate.export"),
    ("thermalsum.simulate", "histogram_csv_rows", "simulate.export"),
    ("thermalsum.checks", "sim2_mean_checks", "checks"),
    ("thermalsum.checks", "sim2_sd_checks", "checks"),
    ("thermalsum.checks", "sim1_ks_checks", "checks"),
    ("thermalsum.checks", "sim1_improvement_check", "checks"),
    ("thermalsum.checks", "winter_agreement_checks", "checks"),
    ("thermalsum.data_io", "parse_temperature_csv", "data_io.parse"),
    ("thermalsum.data_io", "parse_phenology_csv", "data_io.parse"),
    ("thermalsum.data_io", "match_station", "data_io.match"),
    ("thermalsum.data_io", "midrange_series", "data_io.series"),
    ("thermalsum.data_io", "build_analysis_rows", "data_io.join"),
    ("thermalsum.regimes", "estimate_regime", "regimes.estimate"),
    ("thermalsum.fitting", "bin_location_scale", "fitting.bin"),
]


def _kernel_counts(times, counts):
    counts["replicates"] += len(times)
    counts["days"] += int(times.sum())


def _parse_counts(parsed, counts):
    counts["records"] += len(parsed.records)
    counts["rejected"] += parsed.rejected


def _join_counts(result, counts):
    rows, diag = result
    counts["rows"] += len(rows)
    counts["observations"] += diag.n_observations


# Work counts read from return values, keyed by function name.
COUNTERS = {
    "simulate_hitting_times": _kernel_counts,
    "parse_temperature_csv": _parse_counts,
    "build_analysis_rows": _join_counts,
}
COUNT_NAMES = ("replicates", "days", "records", "rejected", "rows", "observations")


class Recorder:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # span -> [calls, inclusive s, self s]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.absent: list[str] = []
        self.top_s = 0.0  # inclusive time of spans not inside another span
        self._inner: list[float] = []  # per open span: time of the spans it encloses

    def wrap(self, module, attr: str, span: str) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        stat = self.stats.setdefault(span, [0, 0.0, 0.0])
        counter = COUNTERS.get(attr)
        inner = self._inner

        def wrapper(*args, **kwargs):
            inner.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                enclosed = inner.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - enclosed
                if inner:
                    inner[-1] += dt
                else:
                    self.top_s += dt
            if counter is not None:
                try:
                    counter(result, self.counts)
                except (AttributeError, TypeError, ValueError):  # return value changed shape
                    if f"{attr} counts" not in self.absent:
                        self.absent.append(f"{attr} counts")
            return result

        wrapper.__wrapped__ = fn
        setattr(module, attr, wrapper)

    def report(self) -> dict:
        return {"spans": self.stats, "counts": self.counts, "top_s": self.top_s,
                "absent": self.absent}


def install() -> Recorder:
    recorder = Recorder()
    for module_name, attr, span in WRAPPED:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            recorder.absent.append(f"{module_name}.{attr}")
            continue
        recorder.wrap(module, attr, span)
    return recorder


def import_layers(stderr_text: str) -> dict[str, float]:
    """Self time of `-X importtime` lines between the child's markers, by package.

    A module counts for numpy or scipy when it or an importer above it is
    part of that package; everything else (thermalsum, click, the standard
    library) counts for thermalsum.
    """
    section = stderr_text.split("perfbench: import start\n", 1)[1].split("perfbench: import done\n", 1)[0]
    pending: dict[int, list] = {}
    for line in section.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, name = line.split("|", 2)
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = (name.strip(), int(self_us.split(":")[-1]), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    totals = {"numpy": 0, "scipy": 0, "thermalsum": 0}
    stack = [(node, "thermalsum") for nodes in pending.values() for node in nodes]
    while stack:
        (name, self_us, children), bucket = stack.pop()
        top = name.split(".")[0]
        bucket = top if top in ("numpy", "scipy") else bucket
        totals[bucket] += self_us
        stack.extend((c, bucket) for c in children)
    return {k: v * 1e-6 for k, v in totals.items()}
