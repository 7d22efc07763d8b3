import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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


def decimal_root(p: model.RegimeParams) -> Decimal:
    """Positive root of (beta/2) m^2 + (alpha + beta/2) m = tau to 50 digits.

    Rationalized, so no digits cancel even when beta is tiny; Decimal(x)
    reads each double exactly.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, tau = Decimal(p.alpha), Decimal(p.beta), Decimal(p.tau)
        s = a + b / 2
        return 2 * tau / (s + (s * s + 2 * b * tau).sqrt())


def _log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


class TestCrossingTime:
    @settings(max_examples=500, deadline=None)
    @given(alpha=_log_uniform(1e-3, 1e3), beta=st.just(0.0) | _log_uniform(1e-300, 10.0),
           sigma=_log_uniform(1e-2, 1e2), tau=_log_uniform(1.0, 1e5))
    # roots that are doubles where 2 beta tau (first) or s^2 (second) overflows
    @example(alpha=1.0, beta=1e10, sigma=1.0, tau=1e298)
    @example(alpha=1e200, beta=1.0, sigma=1.0, tau=1e3)
    def test_root_matches_decimal_root(self, alpha, beta, sigma, tau):
        p = params(alpha=alpha, beta=beta, sigma=sigma, tau=tau)
        m = model.crossing_time(p)
        exact = decimal_root(p)
        assert abs(Decimal(m) - exact) <= Decimal(2e-15) * exact
        if beta == 0:
            assert m == tau / alpha
            theory, winter = model.theory_approx(p), model.approx_winter(p)
            assert theory.mean == winter.mean
            assert theory.variance == pytest.approx(winter.variance, rel=1e-14, abs=0)

    def test_quadratic_root_matches_independent_root_finder(self):
        p = params(alpha=4, beta=0.8, tau=2000)
        m = model.crossing_time(p)
        # brentq on the crossing equation, independent of the closed form
        oracle = brentq(
            lambda m: 0.5 * p.beta * m * m + p.beta * p.gamma * m - p.tau,
            1e-9, 1e6, xtol=1e-12, rtol=8.9e-16,
        )
        assert oracle == pytest.approx(65.42425537148767, rel=1e-12)
        assert m == pytest.approx(oracle, rel=1e-10)

    # at beta = 1e-300 the textbook root (-s + sqrt(s^2 + 2 beta tau))/beta reads -4e300
    @pytest.mark.parametrize("beta", [0.0, 1e-300])
    def test_winter_crossing_is_tau_over_alpha(self, beta):
        assert model.crossing_time(model.RegimeParams(4, beta, 20, 1000)) == 250.0

    def test_winter_crossing_outside_doubles_raises_domain_error(self):
        with pytest.raises(ApproximationDomainError, match="crossing_time is not finite"):
            model.crossing_time(params(alpha=1e-300, beta=0, tau=1e300))

    def test_vanishing_threshold(self):
        assert 0 < model.crossing_time(params(alpha=4, beta=0.8, tau=1e-6)) < 1e-3

    def test_root_satisfies_crossing_equation(self):
        for a, b, tau in [(4, 0.8, 2000), (2, 0.1, 1000), (10, 0.4, 500), (1, 2.0, 123)]:
            p = params(alpha=a, beta=b, tau=tau)
            m = model.crossing_time(p)
            xi = 0.5 * b * m * m + b * p.gamma * m
            assert xi == pytest.approx(tau, rel=1e-9)

    def test_cumsum_brackets_real_root(self):
        for a, b, tau in [(4, 0.8, 2000), (2, 0.1, 1000), (8, 0.2, 1500), (3, 1.5, 700)]:
            p = params(alpha=a, beta=b, tau=tau)
            m = model.crossing_time(p)
            assert deterministic_cumsum(p, math.floor(m)) <= tau
            assert deterministic_cumsum(p, math.ceil(m)) >= tau


class TestApproxWinter:
    def test_formula_values(self):
        a = model.approx_winter(params(alpha=4, sigma=20, tau=1000))
        assert a.mean == 250.0
        assert a.variance == pytest.approx(6250.0)

    def test_second_point(self):
        a = model.approx_winter(params(alpha=4, sigma=20, tau=2000))
        assert (a.mean, a.variance) == (500.0, pytest.approx(12500.0))

    def test_noiseless_variance_is_zero(self):
        assert model.approx_winter(params(sigma=0.0)).variance == 0.0

    # even a tiny beta is spring: no tolerance thresholding
    @pytest.mark.parametrize("beta", [0.5, 1e-300])
    def test_rejects_spring_params(self, beta):
        with pytest.raises(ParameterError):
            model.approx_winter(params(beta=beta))


class TestApproxSpring:
    def test_formula_values(self):
        a = model.approx_spring(params(alpha=4, beta=0.8, sigma=20, tau=2000))
        assert a.mean == pytest.approx(65.21067811865476)
        assert a.variance == pytest.approx(8.838834764831843)

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

    def test_linearized_variance_formula(self):
        p = params(alpha=4, beta=0.8, sigma=20, tau=2000)
        m = model.crossing_time(p)
        expected = 400 * m / (4 + 0.8 * m) ** 2
        assert model.theory_approx(p).variance == pytest.approx(expected, rel=1e-12)

    def test_linearized_form_centers_on_exact_crossing(self):
        p = params(alpha=2, beta=0.1, sigma=20, tau=2000)
        lin = model.theory_approx(p)
        m = model.crossing_time(p)
        assert lin.mean == pytest.approx(m, rel=1e-12)
        assert lin.variance == pytest.approx(400 * m / (2 + 0.1 * m) ** 2, rel=1e-12)

    def test_theory_approx_dispatch(self):
        winter = params(beta=0.0)
        assert model.theory_approx(winter) == model.approx_winter(winter)
        spring = model.theory_approx(params(alpha=2, beta=0.1, tau=2000))
        assert spring.mean == pytest.approx(model.crossing_time(params(alpha=2, beta=0.1, tau=2000)))


class TestSensitivity:
    def test_winter_value(self):
        assert model.sensitivity(params(alpha=4, tau=1000)) == pytest.approx(-62.5)

    def test_spring_value(self):
        got = model.sensitivity(params(alpha=4, beta=0.8, tau=2000))
        assert got == pytest.approx(-44.194173824159215)

    def test_winter_matches_finite_difference(self):
        tau, h = 1000.0, 1e-3
        fd = (
            model.approx_winter(params(alpha=4 + h, tau=tau)).mean
            - model.approx_winter(params(alpha=4 - h, tau=tau)).mean
        ) / (2 * h)
        analytic = model.sensitivity(params(alpha=4, tau=tau))
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
        analytic = model.sensitivity(params(alpha=4, beta=0.8, tau=tau))
        assert fd == pytest.approx(analytic, rel=1e-4)

    def test_strictly_negative_over_grid(self):
        for a in (1, 2, 5, 10):
            assert model.sensitivity(params(alpha=a, tau=1500)) < 0
        for b in (0.05, 0.2, 1.0, 3.0):
            assert model.sensitivity(params(alpha=4, beta=b, tau=1500)) < 0

    @pytest.mark.parametrize("fields", [dict(alpha=1e-200), dict(beta=1e-300)],
                             ids=["alpha_squared_underflows", "beta_cubed_underflows"])
    def test_result_outside_doubles_raises_domain_error(self, fields):
        with pytest.raises(ApproximationDomainError, match="sensitivity is not finite"):
            model.sensitivity(params(**fields))


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
        sens_a = [abs(model.sensitivity(params(alpha=a, tau=1500))) for a in alphas]
        assert all(x > y for x, y in zip(sens_a, sens_a[1:]))
        betas = np.linspace(0.1, 1.5, 9)
        sens_b = [
            abs(model.sensitivity(params(alpha=4, beta=b, tau=1500))) for b in betas
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
