import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr

from thermalsum import model
from thermalsum.errors import ApproximationDomainError, ParameterError


def params(alpha=4.0, beta=0.0, sigma=20.0, tau=1000.0):
    return model.RegimeParams(alpha=alpha, beta=beta, sigma=sigma, tau=tau)


def deterministic_cumsum(p: model.RegimeParams, n: int) -> float:
    """Noise-free cumulative degree-days after n whole days.

    Equals alpha*n + (beta/2)*n*(n+1); reduces to alpha*n when beta == 0.
    """
    if n < 0 or n != int(n):
        raise ParameterError(f"n must be a non-negative integer, got {n}")
    n = int(n)
    return p.alpha * n + 0.5 * p.beta * n * (n + 1)


class TestRegimeParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"beta": -0.1},
            {"sigma": -1.0},
            {"tau": 0.0},
            {"tau": -5.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            params(**kwargs)

    @pytest.mark.parametrize("field", ["alpha", "beta", "sigma", "tau"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_fields(self, field, value):
        fields = {"alpha": 4.0, "beta": 0.5, "sigma": 20.0, "tau": 1000.0, field: value}
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            model.RegimeParams(**fields)

    def test_regime_dispatch_is_exact(self):
        assert params(beta=0.0).regime is model.Regime.WINTER
        # even a tiny beta is spring: no tolerance thresholding
        assert params(beta=1e-300).regime is model.Regime.SPRING

    def test_gamma(self):
        assert params(alpha=4, beta=0.8).gamma == pytest.approx(5.5)
        with pytest.raises(ParameterError):
            params(beta=0.0).gamma


class TestDeterministicCumsum:
    def test_linear_case(self):
        assert deterministic_cumsum(params(alpha=4, beta=0), 10) == 40.0

    def test_trend_case(self):
        # 4*10 + 0.1*10*11 = 51
        assert deterministic_cumsum(params(alpha=4, beta=0.2), 10) == pytest.approx(51.0)

    def test_empty_sum(self):
        assert deterministic_cumsum(params(alpha=4, beta=0.8), 0) == 0.0

    def test_rejects_negative_n(self):
        with pytest.raises(ParameterError):
            deterministic_cumsum(params(), -1)


class TestCrossingTime:
    def test_quadratic_root_matches_independent_root_finder(self):
        p = params(alpha=4, beta=0.8, tau=2000)
        ct = model.crossing_time(p)
        assert ct.gamma == pytest.approx(5.5)
        # brentq on the crossing equation, independent of the closed form
        oracle = brentq(
            lambda m: 0.5 * p.beta * m * m + p.beta * p.gamma * m - p.tau,
            1e-9, 1e6, xtol=1e-12, rtol=8.9e-16,
        )
        assert oracle == pytest.approx(65.42425537148767, rel=1e-12)
        assert ct.m_tau == pytest.approx(oracle, rel=1e-10)

    def test_winter_crossing_is_tau_over_alpha(self):
        ct = model.crossing_time(params(alpha=4, beta=0, tau=1000))
        assert ct.m_tau == 250.0
        assert ct.gamma is None

    def test_vanishing_threshold(self):
        ct = model.crossing_time(params(alpha=4, beta=0.8, tau=1e-6))
        assert 0 < ct.m_tau < 1e-3

    def test_root_satisfies_crossing_equation(self):
        for a, b, tau in [(4, 0.8, 2000), (2, 0.1, 1000), (10, 0.4, 500), (1, 2.0, 123)]:
            p = params(alpha=a, beta=b, tau=tau)
            m = model.crossing_time(p).m_tau
            xi = 0.5 * b * m * m + b * p.gamma * m
            assert xi == pytest.approx(tau, rel=1e-9)

    def test_cumsum_brackets_real_root(self):
        for a, b, tau in [(4, 0.8, 2000), (2, 0.1, 1000), (8, 0.2, 1500), (3, 1.5, 700)]:
            p = params(alpha=a, beta=b, tau=tau)
            m = model.crossing_time(p).m_tau
            assert deterministic_cumsum(p, math.floor(m)) <= tau
            assert deterministic_cumsum(p, math.ceil(m)) >= tau


class TestApproxWinter:
    def test_formula_values(self):
        a = model.approx_winter(params(alpha=4, sigma=20, tau=1000))
        assert a.mean == 250.0
        assert a.variance == pytest.approx(6250.0)
        assert a.regime is model.Regime.WINTER

    def test_second_point(self):
        a = model.approx_winter(params(alpha=4, sigma=20, tau=2000))
        assert (a.mean, a.variance) == (500.0, pytest.approx(12500.0))

    def test_noiseless_variance_is_zero(self):
        assert model.approx_winter(params(sigma=0.0)).variance == 0.0

    def test_rejects_spring_params(self):
        with pytest.raises(ParameterError):
            model.approx_winter(params(beta=0.5))


class TestApproxSpring:
    def test_formula_values(self):
        a = model.approx_spring(params(alpha=4, beta=0.8, sigma=20, tau=2000))
        assert a.mean == pytest.approx(65.21067811865476)
        assert a.variance == pytest.approx(8.838834764831843)
        assert a.regime is model.Regime.SPRING
        assert not a.short_horizon

    def test_second_point(self):
        a = model.approx_spring(params(alpha=2, beta=0.1, sigma=20, tau=1000))
        assert a.mean == pytest.approx(120.92135623730951)

    def test_noiseless_variance_is_zero(self):
        p = params(alpha=4, beta=0.8, sigma=0.0, tau=2000)
        assert model.approx_spring(p).variance == 0.0
        assert model.theory_approx(p).variance == 0.0

    def test_rejects_winter_params(self):
        with pytest.raises(ParameterError):
            model.approx_spring(params(beta=0.0))

    def test_rejects_non_positive_mean_with_diagnostic(self):
        with pytest.raises(ApproximationDomainError, match="too small"):
            model.approx_spring(params(alpha=100, beta=0.1, sigma=1, tau=1))

    def test_short_horizon_flag(self):
        assert model.approx_spring(params(alpha=4, beta=0.8, tau=100)).short_horizon
        assert not model.approx_spring(params(alpha=4, beta=0.8, tau=2000)).short_horizon

    def test_linearized_variance_formula(self):
        p = params(alpha=4, beta=0.8, sigma=20, tau=2000)
        m = model.crossing_time(p).m_tau
        expected = 400 * m / (4 + 0.8 * m) ** 2
        assert model.theory_approx(p).variance == pytest.approx(expected, rel=1e-12)

    def test_linearized_form_centers_on_exact_crossing(self):
        p = params(alpha=2, beta=0.1, sigma=20, tau=2000)
        lin = model.theory_approx(p)
        m = model.crossing_time(p).m_tau
        assert lin.mean == pytest.approx(m, rel=1e-12)
        assert lin.variance == pytest.approx(400 * m / (2 + 0.1 * m) ** 2, rel=1e-12)
        assert lin.regime is model.Regime.SPRING and not lin.short_horizon

    def test_theory_approx_dispatch(self):
        assert model.theory_approx(params(beta=0.0)).regime is model.Regime.WINTER
        spring = model.theory_approx(params(alpha=2, beta=0.1, tau=2000))
        assert spring.mean == pytest.approx(model.crossing_time(params(alpha=2, beta=0.1, tau=2000)).m_tau)


class TestSensitivity:
    def test_winter_value(self):
        assert model.sensitivity(params(alpha=4, tau=1000), "alpha") == pytest.approx(-62.5)

    def test_spring_value(self):
        got = model.sensitivity(params(alpha=4, beta=0.8, tau=2000), "beta")
        assert got == pytest.approx(-44.194173824159215)

    def test_rejects_wrong_regime(self):
        with pytest.raises(ParameterError):
            model.sensitivity(params(beta=0.0), "beta")
        with pytest.raises(ParameterError):
            model.sensitivity(params(beta=0.5), "alpha")
        with pytest.raises(ParameterError):
            model.sensitivity(params(), "tau")

    def test_winter_matches_finite_difference(self):
        tau, h = 1000.0, 1e-3
        fd = (
            model.approx_winter(params(alpha=4 + h, tau=tau)).mean
            - model.approx_winter(params(alpha=4 - h, tau=tau)).mean
        ) / (2 * h)
        analytic = model.sensitivity(params(alpha=4, tau=tau), "alpha")
        assert fd == pytest.approx(analytic, rel=1e-4)

    def test_spring_matches_finite_difference_of_advancement_law(self):
        # the beta sensitivity differentiates the advancement law
        # sqrt(2 tau/beta), i.e. the spring mean with its constant offset
        # gamma added back
        tau, h = 2000.0, 1e-3

        def law(beta):
            p = params(alpha=4, beta=beta, tau=tau)
            return model.approx_spring(p).mean + p.gamma

        fd = (law(0.8 + h) - law(0.8 - h)) / (2 * h)
        analytic = model.sensitivity(params(alpha=4, beta=0.8, tau=tau), "beta")
        assert fd == pytest.approx(analytic, rel=1e-4)

    def test_strictly_negative_over_grid(self):
        for a in (1, 2, 5, 10):
            assert model.sensitivity(params(alpha=a, tau=1500), "alpha") < 0
        for b in (0.05, 0.2, 1.0, 3.0):
            assert model.sensitivity(params(alpha=4, beta=b, tau=1500), "beta") < 0


class TestStandardNormal:
    def test_cdf_matches_scipy_ndtr(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 160_001), [-np.inf, np.inf]])
        got, want = model.normal_cdf(x), ndtr(x)
        assert np.all(np.abs(got - want) <= 2.3e-16)
        # below x = -37.5 Phi is subnormal, and the two libms round its last
        # few bits apart (scipy gives 0 where erfc gives 5e-324)
        normal = want >= np.finfo(float).tiny
        assert np.all(np.abs(got - want)[normal] <= 1e-12 * want[normal])

    def test_cdf_keeps_shape_and_nan(self):
        assert model.normal_cdf(0.0) == 0.5
        assert model.normal_cdf(np.zeros((2, 3))).shape == (2, 3)
        assert np.isnan(model.normal_cdf(np.nan))

    def test_logsf_matches_scipy_log_ndtr(self):
        # the Mills series takes over near b = 37.52, inside the dense stretch
        b = np.concatenate([np.linspace(0.0, 30.0, 3_001), np.linspace(30.0, 45.0, 150_001),
                            np.geomspace(45.0, 1e4, 2_001)])
        got, want = model.normal_logsf(b), log_ndtr(-b)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


class TestModelProperties:
    def test_winter_mean_strictly_decreasing_in_alpha(self):
        means = [model.approx_winter(params(alpha=a, tau=1500)).mean for a in np.linspace(1, 12, 23)]
        assert all(x > y for x, y in zip(means, means[1:]))

    def test_spring_mean_strictly_decreasing_in_beta(self):
        means = [
            model.approx_spring(params(alpha=4, beta=b, tau=1500)).mean
            for b in np.linspace(0.05, 2.0, 20)
        ]
        assert all(x > y for x, y in zip(means, means[1:]))

    def test_means_strictly_increasing_in_tau(self):
        taus = np.linspace(200, 4000, 20)
        winter = [model.approx_winter(params(tau=t)).mean for t in taus]
        spring = [model.approx_spring(params(beta=0.4, tau=t)).mean for t in taus]
        assert all(x < y for x, y in zip(winter, winter[1:]))
        assert all(x < y for x, y in zip(spring, spring[1:]))

    def test_diminishing_sensitivity_in_alpha_and_beta(self):
        alphas = np.linspace(2, 10, 9)
        sens_a = [abs(model.sensitivity(params(alpha=a, tau=1500), "alpha")) for a in alphas]
        assert all(x > y for x, y in zip(sens_a, sens_a[1:]))
        betas = np.linspace(0.1, 1.5, 9)
        sens_b = [
            abs(model.sensitivity(params(alpha=4, beta=b, tau=1500), "beta")) for b in betas
        ]
        assert all(x > y for x, y in zip(sens_b, sens_b[1:]))

    def test_variance_regime_contrast_in_tau(self):
        taus = np.linspace(500, 5000, 12)
        winter_var = [model.approx_winter(params(tau=t)).variance for t in taus]
        spring_var = [model.approx_spring(params(beta=0.4, tau=t)).variance for t in taus]
        assert all(x < y for x, y in zip(winter_var, winter_var[1:]))
        assert all(x > y for x, y in zip(spring_var, spring_var[1:]))

    def test_simplified_and_linearized_variance_agree_at_large_tau(self):
        # once the crossing sits at >= 50*(alpha/beta) days the two spring
        # variance forms are within 5% of each other
        for a in (2.0, 4.0, 8.0):
            for b in (0.2, 0.5, 1.0):
                for mult in (50.0, 80.0, 200.0):
                    m_target = mult * a / b
                    tau = 0.5 * b * m_target**2 + b * (a / b + 0.5) * m_target
                    p = params(alpha=a, beta=b, tau=tau)
                    simplified = model.approx_spring(p).variance
                    linearized = model.theory_approx(p).variance
                    assert simplified / linearized == pytest.approx(1.0, abs=0.05)
