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
per row. Each cell plans its block ends from its own survival curve
S(n) = P(Z_n <= tau), read off the normal marginal law of Z_n: dynamic
programming picks, among about 48 candidate days where S falls from 0.999 to
1e-7, the ends that minimise a measured cost of draw calls, drawn days and
block matrices. numpy's Gaussian and two-point draws do not depend on how a
stream is split into calls, so neither the chunk size nor the block ends are
part of the seed contract, and neither changes an output.
The cell's mean path mu_1..mu_MAX_HORIZON is computed once, read-only, and
each block adds its slice of it. Seed words are hashed in bulk: the four
PCG64 seed words of SeedSequence((s, c, i)) for many replicates at once.
Each chunk then builds its generators in one pass, a fresh numpy PCG64 per
replicate seeded from that replicate's words, served through a subclass of
numpy's ISeedSequence, so the contract and every output byte are unchanged.
verify_stopping replays through SeedSequence itself, drawing each sampled
path's nu days in one call, so every run checks the bulk seeding and the
block plan against numpy's own draws.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, count, product
from typing import Iterator, Sequence

import numpy as np

from . import model
from .errors import HorizonExceeded, ParameterError, require_integer

# Days a path may run before HorizonExceeded.
MAX_HORIZON = 10_000
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

# Longest block in days. Blocks past a cell's planned ends are this long.
_MAX_BLOCK = 4096
# A cell's candidate block ends: _CANDIDATES days evenly spaced from the
# first day with S(n) < 0.999 to the first with S(n) < 1e-7, found as the
# standardized margin (tau - M_n)/(sigma*sqrt(n)) falling below
# Phi^-1(0.999) = _Z_FIRST and Phi^-1(1e-7) = _Z_LAST.
_CANDIDATES = 48
_Z_FIRST = 3.090232306167813
_Z_LAST = -5.1993375821928165
# Modelled cost, in microseconds, of the block kernel: _C_BLOCK per block
# matrix of a chunk, _C_ROW per row's draw call, _C_DAY per drawn and
# scanned day. A least-squares fit of T = _C_BLOCK + rows*(_C_ROW +
# _C_DAY*days) to timed single-block _first_passage calls of 1-64 rows and
# 1-1024 days gives about these values (2 cores, Python 3.11.7, numpy 2.4.6).
_C_ROW = 0.55
_C_DAY = 0.014
_C_BLOCK = 12.0
# Replicates drawn together as one block matrix. Not part of the seed
# contract: any chunk size, like any block plan, gives the same hitting times.
# Larger chunks cost peak memory (up to _CHUNK x _MAX_BLOCK doubles per
# matrix) for little speed.
_CHUNK = 64
# Replicates whose seed words are hashed together: larger slabs save numpy
# calls per replicate, smaller ones hold fewer words at once.
_SLAB = 1024

# SeedSequence's hash constants (NumPy's port of O'Neill's seed_seq; NEP 19 freezes them).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1


@dataclass(frozen=True)
class TemperatureProcessSpec:
    """Daily temperature process: trend and noise law.

    The trend is mu_i = alpha + beta*max(i - breakpoint_day, 0) for days
    i >= 1: flat at alpha through breakpoint_day, then rising at beta without
    end. breakpoint_day = 0 is the linear trend alpha + beta*i.
    noise_law "gaussian" draws Normal(0, sigma^2); "two_point" draws +-sigma
    with equal probability (mean 0, variance sigma^2), which admits exact
    enumeration of small instances. Daily values are not clipped at the base
    temperature.
    """

    alpha: float
    beta: float
    noise_sigma: float
    breakpoint_day: int = 0
    noise_law: str = "gaussian"

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
        require_integer("breakpoint_day", self.breakpoint_day, 0)

    def mean_at(self, days: np.ndarray) -> np.ndarray:
        """Trend value mu_i for an array of day indices (1-based)."""
        days = np.asarray(days, dtype=float)
        return self.alpha + self.beta * np.maximum(days - self.breakpoint_day, 0.0)


@dataclass
class SimulationResult:
    """Replicate hitting times with summary statistics and normality diagnostics.

    z_values standardizes the hitting times against the linearized law of
    model.theory_approx, (nu - mean_theory) / sd_theory;
    it is None when sigma == 0, where the theoretical spread is zero and
    standardization is undefined, and for a trend with a breakpoint, which
    the closed forms do not describe. ks is the sup-norm distance between the
    empirical z distribution and the standard normal CDF.
    """

    hitting_times: np.ndarray
    mean: float
    sd: float
    z_values: np.ndarray | None = None
    ks: float | None = None


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


@functools.cache
def _seed_words() -> type:
    """The class of a replicate's four PCG64 seed words, numpy's ISeedSequence.

    A subclass, not a registered class: PCG64's isinstance check then hits
    the ABC cache instead of walking the registry in Python on every call.
    Made on first use, so that importing the CLI leaves numpy.random
    unloaded. PCG64 asks for generate_state(4, uint64); any other request
    raises.
    """

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
            # PCG64 passes the type np.uint64 itself: test that before building a dtype
            if n_words == 4 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
                return self.words
            raise ValueError(
                f"seed words serve generate_state(4, uint64) only, not ({n_words}, {np.dtype(dtype)})"
            )

    return SeedWords


def _substreams(seed: int, cell: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """Seed words of substream(seed, cell, i) for i in range(start, stop), in slabs.

    Each slab is an (m, 4) uint64 array whose row i - start holds
    SeedSequence((seed, cell, i)).generate_state(4, uint64). SeedSequence's
    entropy mixing runs on uint32 arrays, _SLAB replicates at a time,
    wrapping mod 2**32 as its uint32 does.
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
        # PCG64 reads each row's raw buffer: C-contiguous native uint64
        yield words.astype("<u4").view("<u8").astype(np.uint64, copy=False)
        start = end


def _generators(words: np.ndarray) -> list[np.random.Generator]:
    """A fresh generator per row of seed words, numpy's own PCG64 seeded from that row."""
    seed_words, generator, pcg64 = _seed_words(), np.random.Generator, np.random.PCG64
    return [generator(pcg64(seed_words(row))) for row in words]


def _mean_path(spec: TemperatureProcessSpec) -> np.ndarray:
    """mu_1..mu_MAX_HORIZON, read-only: every block of a cell shares it."""
    mu = spec.mean_at(np.arange(1, MAX_HORIZON + 1))
    mu.flags.writeable = False
    return mu


def _block_plan(spec: TemperatureProcessSpec, tau: float, mu: np.ndarray) -> tuple[int, ...]:
    """Strictly increasing block ends in days for one cell's paths; mu is its mean path.

    S(n) = Phi((tau - M_n)/(sigma*sqrt(n))), with M_n = mu_1 + ... + mu_n,
    is P(Z_n <= tau) for Gaussian noise (its normal approximation for
    two-point noise): for any trend, an upper bound on the share of paths
    still alive after day n. A block (a, b] costs each replicate

        _C_BLOCK*(1 - (1 - S(a))**_CHUNK)/_CHUNK + S(a)*(_C_ROW + _C_DAY*(b - a)),

    since its chunk builds the block matrix unless every row has crossed,
    and each alive row draws and scans b - a days. The plan is the cheapest
    chain of _CANDIDATES days (see there) that ends on the last one, with no
    block longer than _MAX_BLOCK; when the first candidate lies more than
    _MAX_BLOCK days out, _MAX_BLOCK-day blocks lead up to it. Phi is
    evaluated at those days only.

    With sigma = 0 the one end is the mean path's crossing day. When S does
    not fall below 1e-7 within MAX_HORIZON, as without a mean crossing, the
    plan is empty. Blocks past the last end are _MAX_BLOCK days long. The
    plan only sizes the draws: hitting times do not depend on it.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ParameterError(f"tau must be finite and > 0, got {tau}")
    # margin[n] = (tau - M_n)/(sigma*sqrt(n)), computed in place so that
    # planning holds no more than two day-long arrays
    margin = np.empty(len(mu) + 1)
    margin[0] = np.inf  # day 0: S = 1
    days = np.cumsum(mu, out=margin[1:])  # M_n for n >= 1, then their margins
    if spec.noise_sigma > 0:
        np.subtract(tau, days, out=days)
        root = np.arange(1.0, len(mu) + 1)
        np.sqrt(root, out=root)
        root *= spec.noise_sigma
        days /= root
    else:
        # noiseless: S steps from 1 to 0 on the crossing day
        days[:] = np.where(days > tau, -np.inf, np.inf)
    gone = margin < _Z_LAST
    if not gone.any():
        return ()
    first, last = int(np.argmax(margin < _Z_FIRST)), int(np.argmax(gone))
    ends = sorted({first + k * (last - first) // (_CANDIDATES - 1) for k in range(_CANDIDATES)})
    start = (ends[0] - 1) // _MAX_BLOCK * _MAX_BLOCK
    nodes = [start] + ends
    alive = model.normal_cdf(margin[nodes]).tolist()
    fixed = [_C_BLOCK * (1 - (1 - a) ** _CHUNK) / _CHUNK + a * _C_ROW for a in alive]
    # Plain Python over at most _CANDIDATES + 1 nodes: numpy routines that a
    # run would not call otherwise map more of numpy into its resident memory.
    # best[j]: least cost of reaching nodes[j] from start, along the ends path[j]
    best, path = [0.0] + [math.inf] * len(ends), [()] * len(nodes)
    for j in range(1, len(nodes)):
        for i in range(j):
            length = nodes[j] - nodes[i]
            cost = best[i] + fixed[i] + alive[i] * _C_DAY * length
            if length <= _MAX_BLOCK and cost < best[j]:
                best[j], path[j] = cost, path[i] + (nodes[j],)
    return tuple(range(_MAX_BLOCK, start + 1, _MAX_BLOCK)) + path[-1]


def _block_values(
    spec: TemperatureProcessSpec, rngs: Sequence[np.random.Generator], mu: np.ndarray
) -> np.ndarray:
    """Daily values of the len(mu) days whose trend is mu, row k drawn from rngs[k] alone."""
    values = np.empty((len(rngs), len(mu)))
    if spec.noise_law == "gaussian":
        for rng, row in zip(rngs, values):
            rng.standard_normal(out=row)
    else:
        for rng, row in zip(rngs, values):
            row[:] = 2.0 * rng.integers(0, 2, size=len(mu)) - 1.0
    values *= spec.noise_sigma
    values += mu
    return values


def _first_passage(
    spec: TemperatureProcessSpec,
    tau: float,
    rngs: Sequence[np.random.Generator],
    plan: tuple[int, ...],
    mu: np.ndarray,
) -> np.ndarray:
    """Hitting time of the path drawn from each generator, in generator order.

    All rows walk the blocks together: up to each end of plan in turn, then
    _MAX_BLOCK days at a time to MAX_HORIZON, each block adding its days'
    slice of the mean path mu; a row leaves the block matrix once it has
    crossed. Each row's carry is added to its first day before the cumsum
    along axis 1, so Z_n is the sequential sum of a one-path cumsum and each
    hitting time depends on its own generator only, bit for bit, whatever
    the plan.
    """
    out = np.empty(len(rngs), dtype=np.int64)
    alive = np.arange(len(rngs))
    carry = np.zeros(len(rngs))
    ends = chain(plan, count((plan[-1] if plan else 0) + _MAX_BLOCK, _MAX_BLOCK))
    day0 = 0
    while day0 < MAX_HORIZON:
        day1 = min(next(ends), MAX_HORIZON)
        rows = rngs if len(alive) == len(rngs) else [rngs[k] for k in alive]
        z = _block_values(spec, rows, mu[day0:day1])
        z[:, 0] += carry
        np.cumsum(z, axis=1, out=z)
        crossed = z > tau
        # a row that never crosses has argmax 0, where crossed is False
        first = np.argmax(crossed, axis=1)
        hit = crossed[np.arange(len(alive)), first]
        out[alive[hit]] = day0 + first[hit] + 1
        alive, carry = alive[~hit], z[~hit, -1]
        if not len(alive):
            return out
        day0 = day1
    raise HorizonExceeded(
        f"{len(alive)} of {len(rngs)} paths did not cross tau={tau} within "
        f"{MAX_HORIZON} days (alpha={spec.alpha}, beta={spec.beta}, "
        f"sigma={spec.noise_sigma})"
    )


def simulate_hitting_times(
    spec: TemperatureProcessSpec, tau: float, replicates: int, seed: int, cell: int = 0
) -> np.ndarray:
    """Hitting times for `replicates` independent paths, in replicate order.

    Replicate i is the first day n with Z_n > tau on the path drawn from
    substream(seed, cell, i) alone, so identical (seed, cell) always yields
    identical output. _substreams hashes the seed words a slab at a time;
    each chunk of _CHUNK replicates then gets its generators in one pass,
    a fresh PCG64 per replicate seeded from its own words. The cell's mean
    path and block plan are computed once and shared by every chunk; none
    of this changes any output. Raises HorizonExceeded if a path has not
    crossed by day MAX_HORIZON.
    """
    replicates = require_integer("replicates", replicates, 1)
    seed = require_integer("seed", seed, 0)
    cell = require_integer("cell", cell, 0)
    mu = _mean_path(spec)
    plan = _block_plan(spec, tau, mu)
    out = np.empty(replicates, dtype=np.int64)
    start = 0
    for slab in _substreams(seed, cell, 0, replicates):
        for k in range(0, len(slab), _CHUNK):
            chunk = _generators(slab[k:k + _CHUNK])
            out[start:start + len(chunk)] = _first_passage(spec, tau, chunk, plan, mu)
            start += len(chunk)
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
        mu = spec.mean_at(np.arange(1, nu + 1))
        z = np.cumsum(_block_values(spec, [substream(seed, cell, i)], mu)[0])
        if not z[nu - 1] > tau:
            raise AssertionError(f"replicate {i}: Z_nu={z[nu-1]} not > tau={tau}")
        if nu > 1 and not z[nu - 2] <= tau:
            raise AssertionError(f"replicate {i}: Z_(nu-1)={z[nu-2]} not <= tau={tau}")


def ks_distance(samples: np.ndarray | Sequence[float]) -> float:
    """Sup-norm distance between the empirical CDF of samples and the standard normal CDF.

    Requires at least one sample; the usual diagnostic use supplies two or more.
    """
    x = np.sort(np.asarray(samples, dtype=float))
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
) -> SimulationResult:
    """Simulate one grid cell, verify its stopping rule and summarize it.

    On a linear trend with noise the hitting times are standardized against
    the linearized law at the exact crossing (model.theory_approx, the winter
    closed form when beta == 0), and the KS distance of the standardized
    values from Normal(0,1) is attached.
    """
    times = simulate_hitting_times(spec, tau, replicates, seed, cell)
    verify_stopping(spec, tau, seed, cell, times)
    result = SimulationResult(
        hitting_times=times,
        mean=float(times.mean()),
        sd=float(times.std(ddof=1)) if replicates > 1 else 0.0,
    )
    if spec.breakpoint_day == 0 and spec.noise_sigma > 0:
        params = model.RegimeParams(alpha=spec.alpha, beta=spec.beta, sigma=spec.noise_sigma, tau=tau)
        theory = model.theory_approx(params)
        result.z_values = (times - theory.mean) / theory.sd
        result.ks = ks_distance(result.z_values)
    return result


@dataclass
class SimulationGrid:
    """Per-cell results over an (alpha, beta, tau) grid under one master seed.

    A cell's replicate count is len(hitting_times).
    """

    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    taus: tuple[float, ...]
    sigma: float
    seed: int
    cells: dict[tuple[float, float, float], SimulationResult] = field(default_factory=dict)

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
    SIM2_BREAKPOINT_DAY). Each axis's values must be distinct, since a
    cell is keyed by its (alpha, beta, tau).
    """
    grid = SimulationGrid(
        alphas=tuple(alphas), betas=tuple(betas), taus=tuple(taus),
        sigma=DEFAULT_SIGMA, seed=seed,
    )
    for name, axis in (("alphas", grid.alphas), ("betas", grid.betas), ("taus", grid.taus)):
        if len(set(axis)) < len(axis):
            raise ParameterError(f"{name} must be distinct, got {axis}")
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
            f"{a:.6g},{b:.6g},{tau:.6g},{grid.sigma:.6g},{len(r.hitting_times)},{grid.seed},"
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
