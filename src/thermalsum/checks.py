"""Gates for the reproduction targets, shared by the CLI and tests.

Each builder returns Check records. A check passes when `value rule bound`
holds, rule being one of <, <=, > and >=; a NaN value fails under every rule.
Every bound, and every cell or bin edge a gate reads, lives in reference.py.
`reproduce --check` prints `CHECK PASS|FAIL <name>: <value> <rule> bound <bound> (<note>)`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import model, reference
from .fitting import BinnedGrid, WinterFit
from .simulate import SIM2_ALPHAS, SIM2_BETAS, SimulationGrid, SimulationResult

_RULES = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Check:
    """One gate: it passes when `value rule bound` holds."""

    name: str
    value: float
    rule: str
    bound: float
    note: str = ""

    @property
    def ok(self) -> bool:
        return bool(_RULES[self.rule](self.value, self.bound))

    @property
    def detail(self) -> str:
        note = f" ({self.note})" if self.note else ""
        return f"{self.value:.4g} {self.rule} bound {self.bound:.4g}{note}"


def _ks(cell: SimulationResult) -> float:
    return math.nan if cell.ks is None else cell.ks


def _largest(values) -> float:
    """np.max, which keeps a NaN where the builtin max may drop it; NaN when empty."""
    return float(np.max(values)) if len(values) else math.nan


def _absolute(name: str, got: float, expected: float, bound: float, why: str = "") -> Check:
    return Check(name, abs(got - expected), "<", bound, f"|{got:.2f} - {expected:.2f}|{why}")


def _relative(name: str, got: float, expected: float, bound: float) -> Check:
    return Check(name, abs(got / expected - 1.0), "<", bound, f"|{got:.2f}/{expected:.2f} - 1|")


def sim2_mean_checks(grid: SimulationGrid) -> list[Check]:
    return [_absolute(f"sim2 mean a={a:g} b={b:g} tau={tau:g}", grid.mean(a, b, tau), expected,
                      reference.SIM2_MEAN_TOL_DAYS)
            for (a, b, tau), expected in sorted(reference.SIM2_MEANS.items())]


def sim2_sd_checks(grid: SimulationGrid) -> list[Check]:
    return [_relative(f"sim2 sd a={a:g} b={b:g} tau={tau:g}", grid.sd(a, b, tau), expected,
                      reference.SIM2_SD_REL_TOL)
            for (a, b, tau), expected in sorted(reference.SIM2_SDS.items())]


def _normal_ig_gap(alpha: float, sigma: float, tau: float) -> float:
    """Sup distance between the winter normal law and the inverse-Gaussian law.

    Both laws have mean tau/alpha and variance sigma^2 tau/alpha^3. The
    inverse Gaussian IG(mu = tau/alpha, lambda = tau^2/sigma^2) is the
    first-passage law of Brownian motion with drift alpha and variance
    sigma^2 per day (Chhikara & Folks 1989); the gap depends only on its shape
    alpha*tau/sigma^2 and falls as that grows. The sup of |Phi - F_IG| sits
    where the two densities cross: crossings are bracketed on a grid and
    refined by bisection. The IG CDF is written out from the standard normal
    law: Phi(r(x/mu - 1)) + exp(2 lambda/mu) Phi(-r(x/mu + 1)), r = sqrt(lambda/x),
    with the second term taken in logs, since at large shapes exp(2 lambda/mu)
    overflows while the normal tail underflows.
    """
    mu = tau / alpha
    lam = tau**2 / sigma**2
    sd = math.sqrt(sigma**2 * tau / alpha**3)

    def density_gap(x: np.ndarray) -> np.ndarray:
        normal = np.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        ig = np.sqrt(lam / (2.0 * math.pi * x**3)) * np.exp(-lam * (x - mu) ** 2 / (2.0 * mu**2 * x))
        return normal - ig

    def cdf_gap(x: np.ndarray) -> np.ndarray:
        r = np.sqrt(lam / x)
        ig = model.normal_cdf(r * (x / mu - 1.0)) + np.exp(
            2.0 * lam / mu + model.normal_logsf(r * (x / mu + 1.0))
        )
        return model.normal_cdf((x - mu) / sd) - ig

    xs = np.linspace(mu * 1e-6, mu + 60.0 * sd, 4001)
    dens = density_gap(xs)
    brackets = np.flatnonzero(np.sign(dens[:-1]) * np.sign(dens[1:]) < 0)
    lo, hi, lo_sign = xs[brackets], xs[brackets + 1], np.sign(dens[brackets])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        keep_lo = np.sign(density_gap(mid)) == lo_sign
        lo, hi = np.where(keep_lo, mid, lo), np.where(keep_lo, hi, mid)
    return float(np.max(np.abs(cdf_gap(0.5 * (lo + hi))), initial=0.0))


def sim1_ks_checks(grid: SimulationGrid) -> list[Check]:
    """KS distance of the standardized hitting times from Normal(0,1), per cell.

    A spring cell must stay under SIM1_KS_BOUND. A winter cell's hitting law
    is inverse Gaussian, at sup distance D from the normal the z values are
    standardized against; its bound is max(SIM1_KS_BOUND, D + eps_R), where
    eps_R = sqrt(ln(2/level)/(2R)) is the DKW half-width at
    SIM1_KS_DKW_LEVEL for the cell's R replicates.
    """
    out = []
    for (a, b, tau), cell in sorted(grid.cells.items()):
        bound, note = reference.SIM1_KS_BOUND, "" if cell.ks is not None else "no z values"
        if cell.ks is not None and b == 0:
            gap = _normal_ig_gap(a, grid.sigma, tau)
            eps = math.sqrt(math.log(2.0 / reference.SIM1_KS_DKW_LEVEL) / (2 * cell.replicate_count))
            bound = max(bound, gap + eps)
            note = f"max({reference.SIM1_KS_BOUND}, IG gap {gap:.4f} + DKW {eps:.4f})"
        out.append(Check(f"sim1 ks a={a:g} b={b:g} tau={tau:g}", _ks(cell), "<", bound, note))
    return out


def sim1_improvement_check(grid: SimulationGrid) -> Check:
    """Winter normal agreement must strictly improve from the lowest to the highest tau.

    The winter normal law errs by the inverse-Gaussian skewness
    3*sigma/sqrt(alpha*tau), which shrinks with tau, so every beta == 0 pair
    must show KS(tau_max) - KS(tau_min) < 0. Spring pairs are listed, not
    counted: their sd shrinks with tau while hitting days stay whole, so
    their KS need not fall; sim1_ks_checks bounds them at every tau.
    """
    taus = sorted(grid.taus)
    steps, winter, spring = [], [], []
    for a, b in product(grid.alphas, grid.betas):
        lo, hi = _ks(grid.cells[(a, b, taus[0])]), _ks(grid.cells[(a, b, taus[-1])])
        (winter if b == 0 else spring).append(f"a={a:g},b={b:g}: {lo:.4f}->{hi:.4f}")
        if b == 0:
            steps.append(hi - lo)
    return Check("sim1 ks improves with tau", _largest(steps), "<", 0.0,
                 f"largest winter KS step; {'; '.join(winter)}; "
                 f"spring, not counted: {'; '.join(spring)}")


def winter_agreement_checks(grid: SimulationGrid) -> list[Check]:
    """Winter mean/variance laws vs the replicate statistics of reference.WINTER_CELL.

    Wald's identity gives E[nu] = (tau + E[R])/alpha exactly, R being the
    overshoot of the strict first passage; the mean target uses the limiting
    overshoot E[R_inf] and a tolerance of WINTER_MEAN_TOL_SE standard errors
    sqrt(sigma^2 tau/alpha^3 / R).
    """
    alpha, _, tau = reference.WINTER_CELL
    cell = grid.cells[reference.WINTER_CELL]
    overshoot = model.winter_overshoot_mean(alpha, grid.sigma)
    mean_target = (tau + overshoot) / alpha
    var_target = grid.sigma**2 * tau / alpha**3
    se = math.sqrt(var_target / cell.replicate_count)
    return [
        _absolute("winter mean agreement", cell.mean, mean_target, reference.WINTER_MEAN_TOL_SE * se,
                  f", target (tau + E[R_inf])/alpha, E[R_inf] {overshoot:.2f}; SE {se:.3f}"),
        _relative("winter variance agreement", cell.sd**2, var_target,
                  reference.WINTER_VARIANCE_REL_TOL),
    ]


def walnut_checks(fit: WinterFit) -> list[Check]:
    out = [Check(f"walnut fitted {what} strictly decreasing", _largest(np.diff(fitted)), "<", 0.0,
                 f"largest step; fitted {what} " + ", ".join(f"{v:.2f}" for v in fitted))
           for what, fitted in (("means", fit.fitted_means), ("sds", fit.fitted_sds))]
    return out + [Check(f"walnut weighted R^2 >= {reference.WALNUT_R2_MIN:g}",
                        fit.r_squared_weighted, ">=", reference.WALNUT_R2_MIN, "weighted R^2")]


def lilac_grid_checks(grid: BinnedGrid) -> list[Check]:
    """Binned lilac grid vs the published cells, plus the qualitative pattern.

    The grid must be binned on the published edges for cells to correspond.
    The column pattern is checked net (bottom row vs top row), matching the
    published grids, which are not monotone step by step. An empty bin reads
    NaN and fails both tolerance gates.
    """
    mean_worst = float(np.max(np.abs(grid.means - np.asarray(reference.LILAC_MEAN_BINS))))
    sd_worst = float(np.max(np.abs(grid.sds - np.asarray(reference.LILAC_SD_BINS))))
    sds = grid.sds  # sd rises down each beta column (net) and falls across the top-alpha row
    margins = np.concatenate([sds[-1] - sds[0], sds[-1, :-1] - sds[-1, 1:]])
    return [
        Check("lilac bin means within tolerance", mean_worst, "<=", reference.LILAC_MEAN_TOL_DAYS,
              "worst |diff|"),
        Check("lilac bin sds within tolerance", sd_worst, "<=", reference.LILAC_SD_TOL_DAYS,
              "worst |diff|"),
        Check("lilac sd pattern", float(np.min(margins)), ">", 0.0,
              "smallest net sd rise down a beta column or fall across the top-alpha row"),
    ]


def synthetic_binning_checks(grid: BinnedGrid) -> list[Check]:
    """End-to-end binning self-check on seasonal-simulation output.

    The 3x3 grid binned at the true (alpha, beta) values must reproduce the
    reference means at SYNTHETIC_TAU cell for cell within the mean tolerance.
    """
    return [_absolute(f"binned mean a={a:g} b={b:g}", float(grid.means[i, j]),
                      reference.SIM2_MEANS[(a, b, reference.SYNTHETIC_TAU)],
                      reference.SIM2_MEAN_TOL_DAYS)
            for (i, a), (j, b) in product(enumerate(SIM2_ALPHAS), enumerate(SIM2_BETAS))]
