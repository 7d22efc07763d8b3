"""Tolerance checks for the reproduction targets, shared by the CLI and tests.

Each builder returns Check records; a target passes when every record's ok
flag is set. Tolerances live in reference.py next to the expected values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import model, reference
from .fitting import BinnedGrid, WinterFit
from .simulate import SIM2_ALPHAS, SIM2_BETAS, SimulationGrid, SimulationResult


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def sim2_mean_checks(grid: SimulationGrid) -> list[Check]:
    out = []
    for key in sorted(reference.SIM2_MEANS):
        a, b, tau = key
        expected = reference.SIM2_MEANS[key]
        got = grid.mean(a, b, tau)
        diff = abs(got - expected)
        out.append(
            Check(
                name=f"sim2 mean a={a:g} b={b:g} tau={tau:g}",
                ok=diff < reference.SIM2_MEAN_TOL_DAYS,
                detail=f"{got:.2f} vs {expected:.2f} (|diff| {diff:.3f} < {reference.SIM2_MEAN_TOL_DAYS})",
            )
        )
    return out


def sim2_sd_checks(grid: SimulationGrid) -> list[Check]:
    out = []
    for key in sorted(reference.SIM2_SDS):
        a, b, tau = key
        expected = reference.SIM2_SDS[key]
        got = grid.sd(a, b, tau)
        rel = abs(got / expected - 1.0)
        out.append(
            Check(
                name=f"sim2 sd a={a:g} b={b:g} tau={tau:g}",
                ok=rel < reference.SIM2_SD_REL_TOL,
                detail=f"{got:.2f} vs {expected:.2f} (rel {rel:.3%} < {reference.SIM2_SD_REL_TOL:.0%})",
            )
        )
    return out


def _ladder_overshoot_mean(alpha: float, sigma: float) -> float:
    """Limiting mean overshoot E[R_inf] of a Gaussian walk over a far threshold.

    Steps are Normal(alpha, sigma^2) with alpha > 0, sigma > 0, and R is
    Z_nu - tau at the first strict passage. Spitzer's formula (Siegmund 1985,
    Sequential Analysis, ch. 8) gives
    E[R_inf] = E[X^2]/(2 alpha) - sum_{n>=1} n^-1 E[S_n^-]
    with S_n ~ Normal(n alpha, n sigma^2). The terms fall monotonically; the
    sum stops after the first term below 1e-12.
    """
    total = (sigma**2 + alpha**2) / (2.0 * alpha)
    n = 1
    while True:
        mean, sd = n * alpha, math.sqrt(n) * sigma
        h = mean / sd
        # E[S^-] = sd*phi(h) - mean*Phi(-h) for S ~ Normal(mean, sd^2)
        term = (sd * math.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)
                - mean * 0.5 * math.erfc(h / math.sqrt(2.0))) / n
        total -= term
        if term < 1e-12:
            return total
        n += 1


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
    for key in sorted(grid.cells):
        a, b, tau = key
        res = grid.cells[key]
        ks = res.ks
        bound, why = reference.SIM1_KS_BOUND, ""
        if ks is not None and b == 0:
            gap = _normal_ig_gap(a, grid.sigma, tau)
            eps = math.sqrt(math.log(2.0 / reference.SIM1_KS_DKW_LEVEL) / (2 * res.replicate_count))
            bound = max(bound, gap + eps)
            why = f" (max({reference.SIM1_KS_BOUND}, IG gap {gap:.4f} + DKW {eps:.4f}))"
        out.append(
            Check(
                name=f"sim1 ks a={a:g} b={b:g} tau={tau:g}",
                ok=ks is not None and ks < bound,
                detail=f"KS {ks:.4f} < bound {bound:.4f}{why}" if ks is not None else "no z values",
            )
        )
    return out


def sim1_improvement_check(grid: SimulationGrid) -> Check:
    """Winter normal agreement must strictly improve from the lowest to the highest tau.

    The winter normal law errs by the inverse-Gaussian skewness
    3*sigma/sqrt(alpha*tau), which shrinks with tau, so every beta == 0 pair
    must show KS(tau_max) < KS(tau_min). Spring pairs are listed but not
    counted: their sd shrinks with tau while hitting days stay on the
    whole-day grid, so their KS need not fall; sim1_ks_checks bounds them at
    every tau.
    """
    taus = sorted(grid.taus)
    improved, pairs = 0, 0
    winter, spring = [], []
    for a, b in product(grid.alphas, grid.betas):
        lo = grid.cells[(a, b, taus[0])].ks
        hi = grid.cells[(a, b, taus[-1])].ks
        if lo is None or hi is None:
            continue
        line = f"a={a:g},b={b:g}: {lo:.4f}->{hi:.4f}"
        if b == 0:
            pairs += 1
            improved += hi < lo
            winter.append(line)
        else:
            spring.append(line)
    return Check(
        name="sim1 ks improves with tau",
        ok=pairs > 0 and improved == pairs,
        detail=(
            f"{improved}/{pairs} winter pairs strictly improved ({'; '.join(winter)}); "
            f"spring, not counted ({'; '.join(spring)})"
        ),
    )


def winter_agreement_checks(result: SimulationResult, tau: float, alpha: float,
                            sigma: float) -> list[Check]:
    """Winter mean/variance laws vs replicate statistics.

    Wald's identity gives E[nu] = (tau + E[R])/alpha exactly, R being the
    overshoot of the strict first passage; the mean target uses the limiting
    overshoot E[R_inf] and a tolerance of WINTER_MEAN_TOL_SE standard errors
    sqrt(sigma^2 tau/alpha^3 / R).
    """
    overshoot = _ladder_overshoot_mean(alpha, sigma)
    mean_target = (tau + overshoot) / alpha
    var_target = sigma**2 * tau / alpha**3
    mean_tol = reference.WINTER_MEAN_TOL_SE * math.sqrt(var_target / result.replicate_count)
    mean_diff = abs(result.mean - mean_target)
    var_rel = abs(result.sd**2 / var_target - 1.0)
    return [
        Check(
            name="winter mean agreement",
            ok=mean_diff < mean_tol,
            detail=(
                f"sample mean {result.mean:.2f} vs (tau + E[R_inf])/alpha = {mean_target:.2f} "
                f"with E[R_inf] = {overshoot:.2f} degree-days "
                f"(|diff| {mean_diff:.3f} < {mean_tol:.3f} = "
                f"{reference.WINTER_MEAN_TOL_SE:g} SE)"
            ),
        ),
        Check(
            name="winter variance agreement",
            ok=var_rel < reference.WINTER_VARIANCE_REL_TOL,
            detail=f"sample var/{var_target:.0f} = {result.sd**2 / var_target:.4f} "
            f"(rel {var_rel:.3%} < {reference.WINTER_VARIANCE_REL_TOL:.0%})",
        ),
    ]


def walnut_checks(fit: WinterFit) -> list[Check]:
    means_dec = all(
        fit.fitted_means[i] > fit.fitted_means[i + 1] for i in range(len(fit.fitted_means) - 1)
    )
    sds_dec = all(
        fit.fitted_sds[i] > fit.fitted_sds[i + 1] for i in range(len(fit.fitted_sds) - 1)
    )
    return [
        Check("walnut fitted means strictly decreasing", means_dec,
              "fitted means " + ", ".join(f"{m:.2f}" for m in fit.fitted_means)),
        Check("walnut fitted sds strictly decreasing", sds_dec,
              "fitted sds " + ", ".join(f"{s:.2f}" for s in fit.fitted_sds)),
        Check("walnut weighted R^2 >= 0.95", fit.r_squared_weighted >= 0.95,
              f"weighted R^2 {fit.r_squared_weighted:.4f}"),
    ]


def lilac_grid_checks(grid: BinnedGrid) -> list[Check]:
    """Binned lilac grid vs the published cells, plus the qualitative pattern.

    The grid must be binned on the published edges for cells to correspond.
    The column pattern is checked net (bottom row vs top row), matching the
    published grids, which are not monotone step by step.
    """
    out = []
    means = np.asarray(reference.LILAC_MEAN_BINS)
    sds = np.asarray(reference.LILAC_SD_BINS)
    mean_worst = float(np.nanmax(np.abs(grid.means - means)))
    sd_worst = float(np.nanmax(np.abs(grid.sds - sds)))
    out.append(Check("lilac bin means within tolerance",
                     mean_worst <= reference.LILAC_MEAN_TOL_DAYS,
                     f"worst |diff| {mean_worst:.2f} <= {reference.LILAC_MEAN_TOL_DAYS}"))
    out.append(Check("lilac bin sds within tolerance",
                     sd_worst <= reference.LILAC_SD_TOL_DAYS,
                     f"worst |diff| {sd_worst:.2f} <= {reference.LILAC_SD_TOL_DAYS}"))
    col_up = all(grid.sds[-1, j] > grid.sds[0, j] for j in range(grid.sds.shape[1]))
    row_down = all(grid.sds[-1, j] > grid.sds[-1, j + 1] for j in range(grid.sds.shape[1] - 1))
    out.append(Check("lilac sd pattern", col_up and row_down,
                     "sd rises down each beta column (net) and falls across the top-alpha row"))
    return out


def synthetic_binning_checks(grid: BinnedGrid) -> list[Check]:
    """End-to-end binning self-check on seasonal-simulation output.

    The 3x3 grid binned at the true (alpha, beta) values must reproduce the
    tau=1000 reference means cell for cell within the mean tolerance.
    """
    out = []
    for i, a in enumerate(SIM2_ALPHAS):
        for j, b in enumerate(SIM2_BETAS):
            expected = reference.SIM2_MEANS[(a, b, 1000.0)]
            got = float(grid.means[i, j])
            diff = abs(got - expected)
            out.append(
                Check(
                    name=f"binned mean a={a:g} b={b:g}",
                    ok=diff < reference.SIM2_MEAN_TOL_DAYS,
                    detail=f"{got:.2f} vs {expected:.2f} (|diff| {diff:.3f})",
                )
            )
    return out
