"""Independent checks of the `reproduce sim1` / `reproduce sim2` outputs.

Nothing here imports thermalsum. A plain-numpy sampler draws its own paths
of the stopped walk X_i = mu_i + eps_i, eps_i ~ Normal(0, sigma^2), with its
own bit generator (Philox, not the program's PCG64) and takes the first day
n with Z_n > tau. Paths are drawn in 64-day blocks and a row is dropped once
it has crossed, which leaves each hitting day's law unchanged; a row that has
not crossed by HORIZON days is an error, never a silent cut.

The program's per-cell mean and sd must agree with the sampler's within
Z_MOMENTS standard errors of the difference of two independent estimates.
Z_MOMENTS = 5 gives a two-sided false-alarm rate of 5.7e-7 per statistic,
so a correct program fails one of sim2's 72 moment comparisons (36 against
the sampler, 36 against the published tables) about once in 24,000 runs.
The sd's standard error uses the sampler's fourth central moment, because
winter hitting times are inverse-Gaussian, not normal. Raw sim1 hitting
times must also pass a two-sample KS test against the sampler at level
KS_LEVEL per cell; on whole-day data the test is conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

SIGMA = 20.0
REPLICATES = 10_000
HORIZON = 10_000
BLOCK = 64
Z_MOMENTS = 5.0
KS_LEVEL = 1e-6
SAMPLER_TAG = 0x5EED_0AC1E  # keeps the sampler's streams apart from any seed tuple

SIM1_CELLS = list(product((2.0, 4.0), (0.0, 0.1), (1000.0, 2000.0)))
SIM2_CELLS = list(product((4.0, 8.0, 10.0), (0.2, 0.4, 0.8), (1000.0, 2000.0)))
SIM2_BREAKPOINT = 90

# Published seasonal tables (R = 10,000, sigma = 20), keyed (alpha, beta, tau).
# The paper reports one Monte Carlo run, so each entry carries its own
# standard error of sd/sqrt(R_PUBLISHED).
R_PUBLISHED = 10_000
PUBLISHED_MEAN_SD = {
    (4.0, 0.2, 1000.0): (151.66, 15.48), (4.0, 0.4, 1000.0): (136.83, 10.42),
    (4.0, 0.8, 1000.0): (124.86, 7.21), (8.0, 0.2, 1000.0): (114.87, 16.53),
    (8.0, 0.4, 1000.0): (111.27, 13.27), (8.0, 0.8, 1000.0): (106.85, 10.50),
    (10.0, 0.2, 1000.0): (98.45, 15.94), (10.0, 0.4, 1000.0): (97.20, 14.45),
    (10.0, 0.8, 1000.0): (95.72, 12.71), (4.0, 0.2, 2000.0): (199.54, 10.96),
    (4.0, 0.4, 2000.0): (171.15, 7.22), (4.0, 0.8, 2000.0): (149.16, 4.84),
    (8.0, 0.2, 2000.0): (169.81, 10.93), (8.0, 0.4, 2000.0): (152.43, 7.50),
    (8.0, 0.8, 2000.0): (137.37, 5.11), (10.0, 0.2, 2000.0): (156.22, 10.69),
    (10.0, 0.4, 2000.0): (143.40, 7.66), (10.0, 0.8, 2000.0): (131.34, 5.36),
}


def linear_trend(alpha: float, beta: float):
    return lambda days: alpha + beta * days


def piecewise_trend(alpha: float, beta: float, breakpoint: int = SIM2_BREAKPOINT):
    return lambda days: alpha + beta * np.maximum(days - breakpoint, 0.0)


def sample_hitting_times(trend, sigma: float, tau: float, n: int,
                         rng: np.random.Generator) -> np.ndarray:
    """First day with Z_n > tau for n independent paths (ties continue)."""
    out = np.empty(n, dtype=np.int64)
    rows = np.arange(n)
    carry = np.zeros(n)
    day0 = 0
    while rows.size:
        if day0 >= HORIZON:
            raise RuntimeError(f"{rows.size} sampled paths did not cross tau={tau} "
                               f"within {HORIZON} days")
        mu = trend(np.arange(day0 + 1, day0 + BLOCK + 1, dtype=float))
        z = rng.standard_normal((rows.size, BLOCK))
        z *= sigma
        z += mu
        np.cumsum(z, axis=1, out=z)
        z += carry[:, None]
        crossed = z > tau
        hit = crossed.any(axis=1)
        out[rows[hit]] = day0 + crossed[hit].argmax(axis=1) + 1
        carry = z[~hit, -1]
        rows = rows[~hit]
        day0 += BLOCK
    return out


def sampler_rng(seed: int, grid: str) -> np.random.Generator:
    tag = {"sim1": 1, "sim2": 2}[grid]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((SAMPLER_TAG, tag, seed))))


@dataclass(frozen=True)
class CellSample:
    times: np.ndarray
    mean: float
    sd: float
    se_sd_unit: float  # sd of the sample sd, times sqrt(sample size)

    @classmethod
    def of(cls, times: np.ndarray) -> "CellSample":
        mean = float(times.mean())
        sd = float(times.std(ddof=1))
        mu4 = float(np.mean((times - mean) ** 4))
        # delta method: Var(s) ~ (mu4 - sigma^4) / (4 sigma^2 n)
        return cls(times, mean, sd, math.sqrt(max(mu4 - sd**4, 0.0)) / (2.0 * sd))


def sample_grid(grid: str, seed: int, n: int) -> dict[tuple[float, float, float], CellSample]:
    rng = sampler_rng(seed, grid)
    cells, trend = (SIM1_CELLS, linear_trend) if grid == "sim1" else (SIM2_CELLS, piecewise_trend)
    return {
        (a, b, tau): CellSample.of(sample_hitting_times(trend(a, b), SIGMA, tau, n, rng))
        for a, b, tau in cells
    }


def moment_failures(label: str, mean: float, sd: float, r: int, ref: CellSample,
                    r_ref: int, ref_mean: float | None = None,
                    ref_sd: float | None = None) -> list[str]:
    """Differences of mean and sd beyond Z_MOMENTS standard errors.

    ref supplies the law's spread and fourth moment; ref_mean / ref_sd
    replace its point estimates when the reference is a published table
    of r_ref replicates.
    """
    ref_mean = ref.mean if ref_mean is None else ref_mean
    ref_sd = ref.sd if ref_sd is None else ref_sd
    scale = math.sqrt(1.0 / r + 1.0 / r_ref)
    out = []
    tol = Z_MOMENTS * ref.sd * scale
    if not abs(mean - ref_mean) <= tol:
        out.append(f"{label}: mean {mean:.4f} vs {ref_mean:.4f} (|diff| > {tol:.4f})")
    tol = Z_MOMENTS * ref.se_sd_unit * scale
    if not abs(sd - ref_sd) <= tol:
        out.append(f"{label}: sd {sd:.4f} vs {ref_sd:.4f} (|diff| > {tol:.4f})")
    return out


def ks_two_sample(x: np.ndarray, y: np.ndarray) -> float:
    """Sup distance between the empirical CDFs of two samples."""
    grid = np.union1d(x, y)
    fx = np.searchsorted(np.sort(x), grid, side="right") / len(x)
    fy = np.searchsorted(np.sort(y), grid, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


def ks_bound(n: int, m: int, level: float = KS_LEVEL) -> float:
    """Asymptotic two-sample KS critical value at `level`."""
    return math.sqrt(-math.log(level / 2.0) / 2.0) * math.sqrt((n + m) / (n * m))


def theory_mean_sd(alpha: float, beta: float, tau: float, sigma: float = SIGMA) -> tuple[float, float]:
    """Normal law the program standardizes sim1 times against.

    Winter (beta == 0): Normal(tau/alpha, sigma^2 tau/alpha^3). Spring:
    mean m, the root of alpha*m + (beta/2)m(m+1) = tau, and variance
    sigma^2 m/(alpha + beta*m)^2.
    """
    if beta == 0:
        return tau / alpha, math.sqrt(sigma**2 * tau / alpha**3)
    b = alpha + beta / 2.0
    m = (-b + math.sqrt(b * b + 2.0 * beta * tau)) / beta
    return m, math.sqrt(sigma**2 * m) / (alpha + beta * m)


def ks_normal(z: np.ndarray) -> float:
    """One-sample KS distance of z from Normal(0, 1)."""
    x = np.sort(z)
    n = len(x)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
    return float(max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()))


def read_summary(path) -> dict[tuple[float, float, float], dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    if header != ["alpha", "beta", "tau", "sigma", "R", "seed", "mean", "sd", "ks"]:
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    out = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        out[(float(row["alpha"]), float(row["beta"]), float(row["tau"]))] = row
    return out


def summary_failures(summary, cells, seed: int) -> list[str]:
    out = []
    if sorted(summary) != sorted(cells):
        out.append(f"summary.csv cells {sorted(summary)} != expected {sorted(cells)}")
    for key, row in summary.items():
        if (int(row["R"]), int(row["seed"]), float(row["sigma"])) != (REPLICATES, seed, SIGMA):
            out.append(f"summary.csv {key}: R/seed/sigma {row['R']}/{row['seed']}/{row['sigma']}")
    return out


def check_sim2(run_dir, seed: int, sample) -> list[str]:
    """sim2 summary.csv against the sampler and against the published tables."""
    summary = read_summary(run_dir / "summary.csv")
    out = summary_failures(summary, SIM2_CELLS, seed)
    for key in SIM2_CELLS:
        if key not in summary:
            continue
        mean, sd = float(summary[key]["mean"]), float(summary[key]["sd"])
        label = "a={:g} b={:g} tau={:g}".format(*key)
        out += moment_failures(f"sampler {label}", mean, sd, REPLICATES, sample[key], len(sample[key].times))
        pub_mean, pub_sd = PUBLISHED_MEAN_SD[key]
        out += moment_failures(f"published {label}", mean, sd, REPLICATES, sample[key],
                               R_PUBLISHED, ref_mean=pub_mean, ref_sd=pub_sd)
    return out


def check_sim1(run_dir, seed: int, sample) -> list[str]:
    """sim1 summary, raw hitting times and histograms against the sampler."""
    summary = read_summary(run_dir / "summary.csv")
    out = summary_failures(summary, SIM1_CELLS, seed)
    for key in SIM1_CELLS:
        if key not in summary:
            continue
        a, b, tau = key
        label = f"a={a:g} b={b:g} tau={tau:g}"
        tag = f"a{a:g}_b{b:g}_tau{tau:g}"
        raw = np.array([int(s) for s in (run_dir / f"raw_{tag}.txt").read_text().split()])
        if len(raw) != REPLICATES:
            out.append(f"raw {label}: {len(raw)} times, expected {REPLICATES}")
            continue
        row = summary[key]
        mean, sd = float(row["mean"]), float(row["sd"])
        # summary is written at 6 significant digits
        if not (math.isclose(mean, raw.mean(), rel_tol=1e-5)
                and math.isclose(sd, raw.std(ddof=1), rel_tol=1e-5)):
            out.append(f"summary {label}: mean/sd {mean}/{sd} do not match the raw times")
        out += moment_failures(f"sampler {label}", mean, sd, REPLICATES, sample[key], len(sample[key].times))
        d = ks_two_sample(raw, sample[key].times)
        bound = ks_bound(REPLICATES, len(sample[key].times))
        if not d <= bound:
            out.append(f"sampler {label}: two-sample KS {d:.4f} > {bound:.4f}")
        m, s = theory_mean_sd(a, b, tau)
        z = (raw - m) / s
        ks = ks_normal(z)
        if not math.isclose(float(row["ks"]), ks, rel_tol=1e-5, abs_tol=1e-9):
            out.append(f"summary {label}: ks {row['ks']} vs {ks:.6g} recomputed from raw times")
        hist = [line.split(",") for line in (run_dir / f"hist_{tag}.csv").read_text().splitlines()[1:]]
        counts = np.array([int(h[2]) for h in hist])
        want, _ = np.histogram(z, bins=40, range=(-5.0, 5.0))
        # a z that lands on a bin edge within rounding may fall either side
        if len(counts) != 40 or counts.sum() != want.sum() or np.abs(counts - want).max() > 1:
            out.append(f"hist {label}: counts do not bin the raw times' z values")
    return out
