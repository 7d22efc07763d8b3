import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import invgauss

from thermalsum import checks, fitting, model, reference
from thermalsum.errors import ParameterError
from thermalsum.simulate import SIM1_ALPHAS, SIM1_BETAS, SIM1_TAUS, SimulationGrid, SimulationResult


@pytest.mark.parametrize(
    "rule, at_bound", [("<", False), ("<=", True), (">", False), (">=", True)]
)
def test_check_rule_at_the_bound_and_with_nan(rule, at_bound):
    assert checks.Check("c", 0.05, rule, 0.05).ok is at_bound
    assert checks.Check("c", math.nan, rule, 0.05).ok is False


def test_check_detail_states_the_comparison_once():
    assert checks.Check("c", 0.0265, "<", 0.05, "why").detail == "0.0265 < bound 0.05 (why)"
    assert checks.Check("c", 0.9617, ">=", 0.95).detail == "0.9617 >= bound 0.95"


def _walnut_with_means(means):
    fit = fitting.fit_winter_wls(fitting.load_walnut_observations())
    return dataclasses.replace(fit, fitted_means=tuple(means))


def _lilac_grid(sds, means=reference.LILAC_MEAN_BINS, counts=10):
    shape = np.shape(reference.LILAC_SD_BINS)
    return fitting.BinnedGrid(
        alpha_edges=np.asarray(reference.LILAC_ALPHA_EDGES),
        beta_edges=np.asarray(reference.LILAC_BETA_EDGES), counts=np.broadcast_to(counts, shape),
        means=np.asarray(means), sds=np.asarray(sds), clamped=0,
        degenerate_alpha=False, degenerate_beta=False,
    )


def _sd_pattern(cell=None, value=None):
    sds = np.array(reference.LILAC_SD_BINS)
    if cell is not None:
        sds[cell] = value
    return checks.lilac_grid_checks(_lilac_grid(sds))[2]


class TestGatesFailAtATie:
    def test_walnut_equal_successive_means(self):
        assert checks.walnut_checks(_walnut_with_means([120.0, 60.0, 40.0, 30.0, 24.0]))[0].ok
        c = checks.walnut_checks(_walnut_with_means([120.0, 60.0, 60.0, 30.0, 24.0]))[0]
        assert (c.value, c.ok) == (0.0, False)

    def test_lilac_sd_pattern(self):
        published = reference.LILAC_SD_BINS
        assert _sd_pattern().ok  # the published grid has the pattern
        assert not _sd_pattern((-1, 1), published[-1][0]).ok  # tie across the top-alpha row
        assert not _sd_pattern((-1, 3), published[0][3]).ok  # tie down a beta column
        c = _sd_pattern((0, 2), np.nan)
        assert math.isnan(c.value) and not c.ok

    def test_lilac_empty_bins_fail_the_tolerance_gates(self):
        # 15 of 16 bins empty, the last equal to the published cell: an empty
        # bin's NaN mean and sd must not be skipped
        empty = np.full(np.shape(reference.LILAC_SD_BINS), np.nan)
        means, sds, counts = empty.copy(), empty.copy(), np.zeros(empty.shape, dtype=int)
        means[-1, -1] = reference.LILAC_MEAN_BINS[-1][-1]
        sds[-1, -1] = reference.LILAC_SD_BINS[-1][-1]
        counts[-1, -1] = 10
        mean_gate, sd_gate, _ = checks.lilac_grid_checks(_lilac_grid(sds, means, counts))
        for c in (mean_gate, sd_gate):
            assert math.isnan(c.value) and not c.ok, c.name
        # the published grid itself passes both
        assert all(c.ok for c in checks.lilac_grid_checks(_lilac_grid(reference.LILAC_SD_BINS))[:2])

    def test_sim1_grid_without_winter_pair(self):
        grid = SimulationGrid(alphas=(2.0,), betas=(0.1,), taus=(1000.0, 2000.0),
                              sigma=20.0, replicates=10, seed=0)
        for tau, ks in ((1000.0, 0.03), (2000.0, 0.02)):
            grid.cells[(2.0, 0.1, tau)] = SimulationResult(
                hitting_times=np.ones(10, dtype=np.int64), mean=1.0, sd=0.0, seed=0, ks=ks,
            )
        c = checks.sim1_improvement_check(grid)
        assert math.isnan(c.value) and not c.ok

    def test_cell_without_z_values(self):
        grid = _fake_results({(a, b): (0.02, 0.01) for a in SIM1_ALPHAS for b in SIM1_BETAS})
        grid.cells[(2.0, 0.0, 1000.0)].ks = None
        outcome = {c.name: c for c in checks.sim1_ks_checks(grid)}
        c = outcome["sim1 ks a=2 b=0 tau=1000"]
        assert math.isnan(c.value) and not c.ok and c.note == "no z values"
        assert not checks.sim1_improvement_check(grid).ok


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
        assert abs(r.mean() - model.winter_overshoot_mean(alpha, sigma)) <= 3 * se

    def test_reference_value(self):
        # 0.634*sigma at alpha=4, sigma=20
        assert model.winter_overshoot_mean(4.0, 20.0) == pytest.approx(12.685, abs=1e-3)

    # alpha <= 0 or NaN would make the series run forever, sigma = 0 divide by zero
    @pytest.mark.parametrize(
        "name, alpha, sigma",
        [("alpha", a, 20.0) for a in (0.0, -1.0, math.nan, math.inf)]
        + [("sigma", 4.0, s) for s in (0.0, -1.0, math.nan)],
    )
    def test_rejects_non_positive_or_non_finite(self, name, alpha, sigma):
        with pytest.raises(ParameterError, match=f"{name} must be finite and > 0"):
            model.winter_overshoot_mean(alpha, sigma)


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
                    mean=1.0, sd=0.0, seed=0, ks=value,
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
