"""Exact stochastic simulation of daily temperature paths and hitting times.

The engine draws daily effective temperatures X_i = mu_i + eps_i and records
the first day n with Z_n = sum_{i<=n} X_i strictly exceeding the threshold
tau (ties at Z_n == tau continue). Replicates are reproducible and
order-independent: replicate i of cell c under master seed s always consumes
the substream SeedSequence((s, c, i)), so any replicate can be regenerated on
its own and a run's hitting times depend only on (seed, cell, replicate).
Day k of a path is always the k-th value its substream draws, and Z_n is the
sequential sum X_1 + ... + X_n.
Replicates are drawn in chunks, one block matrix per chunk with one substream
per row. Each cell plans its block lengths from its own mean path (of the
clipped values, for a spec that clips at base): the first block ends two
linearized standard deviations past the mean path's crossing day, and the
later ones are one standard deviation long. numpy's Gaussian and
two-point draws do not depend on how a stream is split into calls, so neither
the chunk size nor the block lengths are part of the seed contract, and
neither changes an output.
The chunk's generators are seeded in bulk: the PCG64 states that
SeedSequence((s, c, i)) would give are computed for many replicates at once
and loaded into reused generators, so the contract and every output byte are
unchanged. verify_stopping replays through SeedSequence itself, drawing each
sampled path's nu days in one call, so every run checks the bulk seeding and
the block plan against numpy's own draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import model
from .errors import HorizonExceeded, ParameterError

DEFAULT_MAX_HORIZON = 10_000
DEFAULT_SIGMA = 20.0
DEFAULT_REPLICATES = 10_000

# Grids of the two bundled verification runs.
SIM1_ALPHAS = (2.0, 4.0)
SIM1_BETAS = (0.0, 0.1)
SIM1_TAUS = (1000.0, 2000.0)
SIM2_ALPHAS = (4.0, 8.0, 10.0)
SIM2_BETAS = (0.2, 0.4, 0.8)
SIM2_TAUS = (1000.0, 2000.0)
SIM2_BREAKPOINT_DAY = 90

# Bounds on a block's length in days. Short blocks cost a numpy call per row
# for few days; long ones draw days that rows past their crossing never use.
_MIN_BLOCK = 16
_MAX_BLOCK = 4096
# Replicates drawn together as one block matrix. Not part of the seed
# contract: any chunk size, like any block plan, gives the same hitting times.
# Larger chunks cost peak memory (up to _CHUNK x _MAX_BLOCK doubles per
# matrix) for little speed.
_CHUNK = 64
# Replicates whose generator states are hashed together: larger slabs save
# numpy calls per replicate, smaller ones hold fewer words at once.
_SLAB = 1024

# SeedSequence's hash constants (NumPy's port of O'Neill's seed_seq, frozen by
# NEP 19) and the PCG64 multiplier (O'Neill 2014).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


@dataclass(frozen=True)
class TemperatureProcessSpec:
    """Daily temperature process: trend, noise law, optional base clipping.

    The trend is mu_i = alpha + beta*max(i - breakpoint_day, 0) for days
    i >= 1: flat at alpha through breakpoint_day, then rising at beta without
    end. breakpoint_day = 0 is the linear trend alpha + beta*i.
    noise_law "gaussian" draws Normal(0, sigma^2); "two_point" draws +-sigma
    with equal probability (mean 0, variance sigma^2), which admits exact
    enumeration of small instances. clip_at_base clips each day's value at 0
    before accumulation; verification runs leave it off.
    """

    alpha: float
    beta: float
    noise_sigma: float
    breakpoint_day: int = 0
    noise_law: str = "gaussian"
    clip_at_base: bool = False

    def __post_init__(self) -> None:
        if self.noise_law not in ("gaussian", "two_point"):
            raise ParameterError(
                f"noise_law must be 'gaussian' or 'two_point', got {self.noise_law!r}"
            )
        for name in ("alpha", "beta", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sigma < 0:
            raise ParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.breakpoint_day < 0:
            raise ParameterError(f"breakpoint_day must be >= 0, got {self.breakpoint_day}")

    def mean_at(self, days: np.ndarray) -> np.ndarray:
        """Trend value mu_i for an array of day indices (1-based)."""
        days = np.asarray(days, dtype=float)
        return self.alpha + self.beta * np.maximum(days - self.breakpoint_day, 0.0)


@dataclass
class SimulationResult:
    """Replicate hitting times with summary statistics and normality diagnostics.

    z_values standardizes the hitting times against the closed-form
    approximation for the matching regime ((nu - mean_theory) / sd_theory);
    it is None when sigma == 0, where the theoretical spread is zero and
    standardization is undefined, and for a trend with a breakpoint, which
    the closed forms do not describe. ks is the sup-norm distance between the
    empirical z distribution and the standard normal CDF.
    """

    hitting_times: np.ndarray
    mean: float
    sd: float
    seed: int
    max_horizon: int
    z_values: np.ndarray | None = None
    ks: float | None = None
    theory: model.HittingTimeApprox | None = None

    @property
    def replicate_count(self) -> int:
        return len(self.hitting_times)


def substream(seed: int, cell: int, replicate: int) -> np.random.Generator:
    """Independent RNG stream for one replicate of one grid cell.

    The (seed, cell, replicate) tuple is the entire identity of the stream:
    no other replicate's draws or run order can change it.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, cell, replicate)))


def _words32(n: int) -> list[int]:
    """n >= 0 as little-endian 32-bit words, as SeedSequence splits an int."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(h: int, mult: int) -> Iterator[int]:
    while True:
        yield h
        h = h * mult & _MASK32


def _hashmix(values: np.ndarray, h: int, mult: int) -> np.ndarray:
    values = (values ^ np.uint32(h)) * np.uint32(h * mult & _MASK32)
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> np.uint32(16))


def _substream_states(seed: int, cell: int, start: int, stop: int) -> Iterator[dict]:
    """bit_generator.state of substream(seed, cell, i) for i in range(start, stop).

    Runs SeedSequence's entropy mixing and generate_state(4, uint64) on uint32
    arrays, one element per replicate and _SLAB replicates at a time, then
    PCG64's two-step seeding on the four words, so no SeedSequence is built
    per replicate. Array arithmetic wraps mod 2**32 as the reference's uint32
    does. States are yielded one by one, so few are held at once.
    """
    while start < stop:
        # replicate indices with the same number of words share one layout
        width = len(_words32(start))
        end = min(stop, start + _SLAB, 1 << 32 * width)
        m, idx = end - start, np.arange(start, end, dtype=np.uint64)
        entropy = [np.full(m, w, dtype=np.uint32) for w in _words32(seed) + _words32(cell)]
        entropy += [(idx >> np.uint64(32 * k)).astype(np.uint32) for k in range(width)]
        entropy += [np.zeros(m, dtype=np.uint32)] * (4 - len(entropy))
        hs = _hash_constants(_INIT_A, _MULT_A)
        pool = [_hashmix(word, next(hs), _MULT_A) for word in entropy[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(hs), _MULT_A))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], _hashmix(word, next(hs), _MULT_A))
        hs = _hash_constants(_INIT_B, _MULT_B)
        words = np.stack([_hashmix(pool[k % 4], next(hs), _MULT_B) for k in range(8)], axis=1)
        for s0, s1, s2, s3 in zip(*words.astype("<u4").view("<u8").T.tolist()):
            inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
            state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
            yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                   "has_uint32": 0, "uinteger": 0}
        start = end


def _block_plan(spec: TemperatureProcessSpec, tau: float, max_horizon: int) -> tuple[int, int]:
    """(first, later) block lengths in days for one cell's paths.

    m is the first day the mean path sum(E[X_1]..E[X_m]) exceeds tau, and
    s = sigma*sqrt(m)/E[X_m] is the linearized sd of the hitting time around
    it; E[X_i] is mu_i unless the spec clips at base (see _daily_mean). The
    first block ends at ceil(m + 2s); later blocks are ceil(s) days and at
    least _MIN_BLOCK; every block is capped at _MAX_BLOCK. With no
    mean crossing within max_horizon every block is _MAX_BLOCK. The plan only
    sizes the draws: hitting times do not depend on it. The mean path is
    summed _MAX_BLOCK days at a time, so memory stays bounded at any horizon.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ParameterError(f"tau must be finite and > 0, got {tau}")
    total, day0 = 0.0, 0
    while day0 < max_horizon:
        n = min(_MAX_BLOCK, max_horizon - day0)
        path = _daily_mean(spec, np.arange(day0 + 1, day0 + n + 1))
        path[0] += total
        np.cumsum(path, out=path)
        crossed = path > tau
        if crossed.any():
            m = day0 + int(np.argmax(crossed)) + 1
            # E[X_m] > 0: it carries the mean path from <= tau to > tau
            s = spec.noise_sigma * math.sqrt(m) / float(_daily_mean(spec, m))
            first = math.ceil(min(m + 2 * s, _MAX_BLOCK))
            later = math.ceil(min(max(s, _MIN_BLOCK), _MAX_BLOCK))
            return first, later
        total, day0 = path[-1], day0 + n
    return _MAX_BLOCK, _MAX_BLOCK


def _daily_mean(spec: TemperatureProcessSpec, days: np.ndarray) -> np.ndarray:
    """E[X_i] for an array of days: mu_i, or E[max(mu_i + eps_i, 0)] when clipped."""
    mu = spec.mean_at(days)
    if not spec.clip_at_base:
        return mu
    sigma = spec.noise_sigma
    if sigma == 0:
        return np.maximum(mu, 0.0)
    if spec.noise_law == "two_point":
        return 0.5 * (np.maximum(mu + sigma, 0.0) + np.maximum(mu - sigma, 0.0))
    z = mu / sigma
    return mu * model.normal_cdf(z) + sigma * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)


def _block_values(
    spec: TemperatureProcessSpec, rngs: Sequence[np.random.Generator], day0: int, n: int
) -> np.ndarray:
    """Daily values of days day0+1..day0+n, row k drawn from rngs[k] alone."""
    values = np.empty((len(rngs), n))
    for k, rng in enumerate(rngs):
        if spec.noise_law == "gaussian":
            rng.standard_normal(out=values[k])
        else:
            values[k] = 2.0 * rng.integers(0, 2, size=n) - 1.0
    values *= spec.noise_sigma
    values += spec.mean_at(np.arange(day0 + 1, day0 + n + 1))
    if spec.clip_at_base:
        np.maximum(values, 0.0, out=values)
    return values


def _first_passage(
    spec: TemperatureProcessSpec,
    tau: float,
    rngs: Sequence[np.random.Generator],
    max_horizon: int,
    plan: tuple[int, int],
) -> np.ndarray:
    """Hitting time of the path drawn from each generator, in generator order.

    All rows walk the blocks of plan (first, later) together; a row leaves
    the block matrix once it has crossed. Each row's carry is added to its
    first day before the cumsum along axis 1, so Z_n is the sequential sum
    of a one-path cumsum and each hitting time depends on its own generator
    only, bit for bit, whatever the plan.
    """
    out = np.empty(len(rngs), dtype=np.int64)
    alive = np.arange(len(rngs))
    carry = np.zeros(len(rngs))
    day0, block = 0, plan[0]
    while day0 < max_horizon:
        n = min(block, max_horizon - day0)
        z = _block_values(spec, [rngs[k] for k in alive], day0, n)
        z[:, 0] += carry
        np.cumsum(z, axis=1, out=z)
        crossed = z > tau
        hit = crossed.any(axis=1)
        out[alive[hit]] = day0 + np.argmax(crossed[hit], axis=1) + 1
        alive, carry = alive[~hit], z[~hit, -1]
        if not len(alive):
            return out
        day0, block = day0 + n, plan[1]
    raise HorizonExceeded(
        f"{len(alive)} of {len(rngs)} paths did not cross tau={tau} within "
        f"{max_horizon} days (alpha={spec.alpha}, beta={spec.beta}, "
        f"sigma={spec.noise_sigma}, clip_at_base={spec.clip_at_base})"
    )


def simulate_hitting_times(
    spec: TemperatureProcessSpec,
    tau: float,
    replicates: int,
    seed: int,
    cell: int = 0,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> np.ndarray:
    """Hitting times for `replicates` independent paths, in replicate order.

    Replicate i is the first day n with Z_n > tau on the path drawn from
    substream(seed, cell, i) alone, so identical (seed, cell) always yields
    identical output. Replicates are drawn _CHUNK at a time from reused
    generators loaded with the substream states, on one block plan for the
    cell; neither changes any output. Raises HorizonExceeded if a path has
    not crossed by max_horizon (possible with clipping and low alpha).
    """
    if replicates < 1:
        raise ParameterError(f"replicates must be >= 1, got {replicates}")
    if seed < 0 or cell < 0:
        raise ParameterError(f"seed and cell must be >= 0, got seed={seed}, cell={cell}")
    plan = _block_plan(spec, tau, max_horizon)
    out = np.empty(replicates, dtype=np.int64)
    rngs = [np.random.default_rng() for _ in range(min(_CHUNK, replicates))]
    states = _substream_states(seed, cell, 0, replicates)
    for start in range(0, replicates, _CHUNK):
        stop = min(start + _CHUNK, replicates)
        chunk = rngs[: stop - start]
        # a loaded state also empties the 32-bit buffer the two-point draw reads
        for rng, state in zip(chunk, states):
            rng.bit_generator.state = state
        out[start:stop] = _first_passage(spec, tau, chunk, max_horizon, plan)
    return out


def verify_stopping(
    spec: TemperatureProcessSpec,
    tau: float,
    seed: int,
    cell: int,
    hitting_times: np.ndarray,
    sample: Sequence[int] = (0, 1, -1),
) -> None:
    """Re-derive a few replicates' paths and assert Z_{nu-1} <= tau < Z_nu.

    The replay is independent of the crossing search and of the block plan:
    nu days drawn in one call from the replicate's substream, then one plain
    cumsum.
    """
    r = len(hitting_times)
    for idx in sample:
        i = idx % r
        nu = int(hitting_times[i])
        z = np.cumsum(_block_values(spec, [substream(seed, cell, i)], 0, nu)[0])
        if not z[nu - 1] > tau:
            raise AssertionError(f"replicate {i}: Z_nu={z[nu-1]} not > tau={tau}")
        if nu > 1 and not z[nu - 2] <= tau:
            raise AssertionError(f"replicate {i}: Z_(nu-1)={z[nu-2]} not <= tau={tau}")


def ks_distance(samples: Iterable[float]) -> float:
    """Sup-norm distance between the empirical CDF of samples and the standard normal CDF.

    Requires at least one sample; the usual diagnostic use supplies two or more.
    """
    x = np.sort(np.asarray(list(samples), dtype=float))
    n = len(x)
    if n == 0:
        raise ParameterError("ks_distance requires a non-empty sample")
    ref = model.normal_cdf(x)
    upper = np.arange(1, n + 1) / n - ref
    lower = ref - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def _run_cell(
    spec: TemperatureProcessSpec,
    tau: float,
    replicates: int,
    seed: int,
    cell: int,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> SimulationResult:
    """Simulate one grid cell, verify its stopping rule and summarize it.

    On a linear trend with noise the hitting times are standardized against
    the matching regime approximation (winter closed form when beta == 0,
    linearized spring form when beta > 0), and the KS distance of the
    standardized values from Normal(0,1) is attached.
    """
    times = simulate_hitting_times(spec, tau, replicates, seed, cell, max_horizon)
    verify_stopping(spec, tau, seed, cell, times)
    result = SimulationResult(
        hitting_times=times,
        mean=float(times.mean()),
        sd=float(times.std(ddof=1)) if replicates > 1 else 0.0,
        seed=seed,
        max_horizon=max_horizon,
    )
    if spec.breakpoint_day == 0 and spec.noise_sigma > 0:
        params = model.RegimeParams(
            alpha=spec.alpha, beta=spec.beta, sigma=spec.noise_sigma, tau=tau
        )
        result.theory = model.theory_approx(params)
        result.z_values = (times - result.theory.mean) / result.theory.sd
        result.ks = ks_distance(result.z_values)
    return result


def run_simulation_1(
    alpha: float,
    beta: float,
    tau: float,
    sigma: float = DEFAULT_SIGMA,
    replicates: int = DEFAULT_REPLICATES,
    seed: int = 0,
    cell: int = 0,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> SimulationResult:
    """Linear-trend verification run for one (alpha, beta, tau) grid point.

    The result carries the normality diagnostics of _run_cell. With
    sigma == 0 the path is deterministic: all hitting times coincide and
    z/ks are None.
    """
    spec = TemperatureProcessSpec(alpha, beta, sigma)
    return _run_cell(spec, tau, replicates, seed, cell, max_horizon)


@dataclass
class SimulationGrid:
    """Per-cell results over an (alpha, beta, tau) grid."""

    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    taus: tuple[float, ...]
    sigma: float
    replicates: int
    seed: int
    cells: dict[tuple[float, float, float], SimulationResult] = field(default_factory=dict)

    def mean(self, alpha: float, beta: float, tau: float) -> float:
        return self.cells[(alpha, beta, tau)].mean

    def sd(self, alpha: float, beta: float, tau: float) -> float:
        return self.cells[(alpha, beta, tau)].sd

    def format_tables(self) -> str:
        """Aligned text: one mean table and one sd table per threshold."""
        blocks = []
        for tau in self.taus:
            for kind in ("mean", "sd"):
                lines = [f"{kind}, tau={tau:g}"]
                header = "alpha\\beta" + "".join(f"{b:>9g}" for b in self.betas)
                lines.append(header)
                for a in self.alphas:
                    vals = [getattr(self.cells[(a, b, tau)], kind) for b in self.betas]
                    lines.append(f"{a:<10g}" + "".join(f"{v:9.2f}" for v in vals))
                blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"


def run_grid(
    seed: int,
    alphas: Sequence[float],
    betas: Sequence[float],
    taus: Sequence[float],
    *,
    breakpoint_day: int = 0,
    replicates: int = DEFAULT_REPLICATES,
) -> SimulationGrid:
    """Simulate every (alpha, beta, tau) cell of a grid at DEFAULT_SIGMA.

    Cell c is the c-th point of product(alphas, betas, taus); that numbering
    is part of the substream contract. The bundled runs are sim1 (the SIM1_*
    axes, linear trend) and sim2 (the SIM2_* axes, breakpoint_day =
    SIM2_BREAKPOINT_DAY). Daily values are not clipped at the base
    temperature: the reference tables are generated from unclipped sums.
    """
    grid = SimulationGrid(
        alphas=tuple(alphas), betas=tuple(betas), taus=tuple(taus),
        sigma=DEFAULT_SIGMA, replicates=replicates, seed=seed,
    )
    for cell, (a, b, tau) in enumerate(product(grid.alphas, grid.betas, grid.taus)):
        spec = TemperatureProcessSpec(a, b, grid.sigma, breakpoint_day=breakpoint_day)
        grid.cells[(a, b, tau)] = _run_cell(spec, tau, replicates, seed, cell)
    return grid


def summary_csv_rows(grid: SimulationGrid) -> list[str]:
    """CSV lines (with header), one per grid cell in sorted (alpha, beta, tau) order."""
    lines = ["alpha,beta,tau,sigma,R,seed,mean,sd,ks"]
    for (a, b, tau) in sorted(grid.cells):
        r = grid.cells[(a, b, tau)]
        ks = "" if r.ks is None else f"{r.ks:.6g}"
        lines.append(
            f"{a:.6g},{b:.6g},{tau:.6g},{grid.sigma:.6g},{r.replicate_count},{r.seed},"
            f"{r.mean:.6g},{r.sd:.6g},{ks}"
        )
    return lines


def histogram_csv_rows(values: np.ndarray) -> list[str]:
    """(bin_left,bin_right,count) CSV lines of 40 equal bins over [-5, 5], plot-ready."""
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=40, range=(-5.0, 5.0))
    lines = ["bin_left,bin_right,count"]
    for i, c in enumerate(counts):
        lines.append(f"{edges[i]:.6g},{edges[i + 1]:.6g},{int(c)}")
    return lines
