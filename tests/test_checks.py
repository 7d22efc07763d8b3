import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import invgauss

from thermalsum import checks, reference
from thermalsum.simulate import SIM1_ALPHAS, SIM1_BETAS, SIM1_TAUS, SimulationGrid, SimulationResult


def _dense_gap(alpha: float, sigma: float, tau: float, points: int = 200_001) -> float:
    mean = tau / alpha
    shape = tau**2 / sigma**2
    sd = math.sqrt(sigma**2 * tau / alpha**3)
    x = np.linspace(1e-12, mean + 60.0 * sd, points)
    return float(np.max(np.abs(ndtr((x - mean) / sd) - invgauss.cdf(x, mean / shape, scale=shape))))


class TestLadderOvershoot:
    def test_matches_direct_paths(self):
        alpha, sigma, tau = 4.0, 20.0, 2000.0
        rng = np.random.default_rng(11)
        overshoots = []
        for _ in range(4):  # 4 x 1000 paths keeps the path matrix small
            z = np.cumsum(alpha + sigma * rng.standard_normal((1000, 1500)), axis=1)
            crossed = z > tau
            assert crossed[:, -1].all()
            nu = np.argmax(crossed, axis=1)
            overshoots.append(z[np.arange(len(z)), nu] - tau)
        r = np.concatenate(overshoots)
        se = r.std(ddof=1) / math.sqrt(len(r))
        assert abs(r.mean() - checks._ladder_overshoot_mean(alpha, sigma)) <= 3 * se

    def test_reference_value(self):
        # 0.634*sigma at alpha=4, sigma=20
        assert checks._ladder_overshoot_mean(4.0, 20.0) == pytest.approx(12.685, abs=1e-3)


class TestNormalIgGap:
    @pytest.mark.parametrize(
        "alpha,sigma,tau",
        [(2.0, 20.0, 1000.0), (2.0, 20.0, 2000.0), (4.0, 20.0, 2000.0), (1.0, 20.0, 100.0),
         (3.0, 7.0, 500.0), (1.0, 1.0, 400.0), (1.0, 1.0, 1000.0)],
    )
    def test_matches_dense_grid_sup(self, alpha, sigma, tau):
        gap = checks._normal_ig_gap(alpha, sigma, tau)
        dense = _dense_gap(alpha, sigma, tau)
        assert dense <= gap + 1e-9
        assert gap - dense < 1e-6

    def test_depends_only_on_shape_and_falls_with_it(self):
        # shape alpha*tau/sigma^2 = 5 for all three
        same = [checks._normal_ig_gap(2.0, 20.0, 1000.0), checks._normal_ig_gap(4.0, 20.0, 500.0),
                checks._normal_ig_gap(1.0, 10.0, 500.0)]
        assert max(same) - min(same) < 1e-9
        gaps = [checks._normal_ig_gap(1.0, 10.0, 100.0 * s) for s in (1, 2, 5, 10, 20, 50, 100)]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))


def _fake_results(ks: dict[tuple[float, float], tuple[float, float]]):
    r = 10_000
    grid = SimulationGrid(alphas=SIM1_ALPHAS, betas=SIM1_BETAS, taus=SIM1_TAUS,
                          sigma=20.0, replicates=r, seed=0)
    for a in SIM1_ALPHAS:
        for b in SIM1_BETAS:
            for tau, value in zip(sorted(SIM1_TAUS), ks[(a, b)]):
                grid.cells[(a, b, tau)] = SimulationResult(
                    hitting_times=np.ones(r, dtype=np.int64),
                    mean=1.0, sd=0.0, seed=0, max_horizon=10, ks=value,
                )
    return grid


class TestSim1Checks:
    def test_spring_cells_keep_stated_bound_winter_cells_widen(self):
        bound = reference.SIM1_KS_BOUND
        results = _fake_results({(2.0, 0.0): (0.09, 0.07), (2.0, 0.1): (0.03, bound),
                                 (4.0, 0.0): (0.07, 0.06), (4.0, 0.1): (0.02, 0.03)})
        outcome = {c.name: c.ok for c in checks.sim1_ks_checks(results)}
        assert outcome["sim1 ks a=2 b=0 tau=1000"]  # D 0.085 + 0.0195
        assert outcome["sim1 ks a=2 b=0 tau=2000"]  # D 0.062 + 0.0195
        assert not outcome["sim1 ks a=2 b=0.1 tau=2000"]  # spring: strict 0.05
        assert outcome["sim1 ks a=4 b=0 tau=2000"]  # D 0.044 + 0.0195 = 0.064

    def test_improvement_counts_winter_pairs_strictly(self):
        spring_worse = {(2.0, 0.1): (0.02, 0.03), (4.0, 0.1): (0.02, 0.03)}
        ok = _fake_results({(2.0, 0.0): (0.08, 0.05), (4.0, 0.0): (0.05, 0.03), **spring_worse})
        assert checks.sim1_improvement_check(ok).ok
        tie = _fake_results({(2.0, 0.0): (0.08, 0.05), (4.0, 0.0): (0.04, 0.04), **spring_worse})
        assert not checks.sim1_improvement_check(tie).ok
