"""Closed-form hitting-time approximations for the thermal-sum model.

Daily effective temperature is modeled as X_i = alpha + beta*i + eps_i with
mean-zero noise of standard deviation sigma. A biological event fires on the
first day the running sum of X_i exceeds a threshold tau (degree-days). Two
regimes are distinguished exactly by beta: the stationary winter regime
(beta == 0) and the spring warming regime (beta > 0). This module provides
the deterministic crossing time m(tau) for every beta >= 0, the paper's
simplified normal approximations for the hitting day in each regime, the
linearized normal law at m(tau) that covers both, the regime sensitivity
derivatives, the winter walk's limiting overshoot, and the standard normal
law those approximations are checked against.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ApproximationDomainError, ParameterError

# Deterministic crossing below this many days: the large-threshold
# approximation is dubious and `thermalsum approx` warns.
SHORT_HORIZON_DAYS = 30.0

_SQRT1_2 = math.sqrt(0.5)


@dataclass(frozen=True)
class RegimeParams:
    """Parameters of the daily temperature process and the threshold.

    alpha: mean daily effective temperature at accumulation start (degC/day), > 0
    beta:  daily warming rate (degC/day^2), >= 0; the regime is winter iff
           beta == 0 exactly (no tolerance; callers estimating beta from data
           must choose a regime explicitly)
    sigma: noise standard deviation (degC), >= 0
    tau:   thermal-sum threshold (degree-days), > 0
    """

    alpha: float
    beta: float
    sigma: float
    tau: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "sigma", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")
        if not self.beta >= 0:
            raise ParameterError(f"beta must be >= 0, got {self.beta}")
        if not self.sigma >= 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")
        if not self.tau > 0:
            raise ParameterError(f"tau must be > 0, got {self.tau}")

    @property
    def gamma(self) -> float:
        """Trend offset alpha/beta + 1/2 (spring regime only)."""
        if self.beta == 0:
            raise ParameterError("gamma is undefined when beta == 0")
        return self.alpha / self.beta + 0.5


@dataclass(frozen=True)
class HittingTimeApprox:
    """Normal approximation for the hitting day: mean (days), variance (days^2)."""

    mean: float
    variance: float

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


def _finite(closed_form: Callable) -> Callable:
    """Raise ApproximationDomainError where a closed form's result is not finite.

    Finite fields do not guarantee one: ** can overflow (OverflowError) or
    underflow to a zero denominator, and a sum can overflow to inf.
    """
    @functools.wraps(closed_form)
    def checked(params: RegimeParams):
        try:
            result = closed_form(params)
            values = (result.mean, result.variance) if isinstance(result, HittingTimeApprox) else (result,)
            finite = all(map(math.isfinite, values))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise ApproximationDomainError(f"{closed_form.__name__} is not finite at {params}")
        return result

    return checked


@_finite
def crossing_time(params: RegimeParams) -> float:
    """Exact real root m(tau) of the noise-free crossing equation xi(m) = tau.

    The positive root of (beta/2) m^2 + s m = tau with s = alpha + beta/2,
    in the rationalized form m = tau / ((s + sqrt(s^2 + 2 beta tau))/2).
    The textbook root (-s + sqrt(s^2 + 2 beta tau))/beta loses every digit
    to cancellation as beta -> 0; this form adds only positive terms, so it
    keeps full relative accuracy for every beta >= 0 and is exactly
    tau/alpha, the winter crossing, at beta == 0. sqrt(2 beta) sqrt(tau)
    stands for sqrt(2 beta tau), and hypot for the outer root, because
    2 beta tau and s^2 can overflow (to m = 0) where m itself is a double.
    """
    s = params.alpha + 0.5 * params.beta
    root = math.hypot(s, math.sqrt(2.0 * params.beta) * math.sqrt(params.tau))
    return params.tau / (0.5 * s + 0.5 * root)


@_finite
def approx_winter(params: RegimeParams) -> HittingTimeApprox:
    """Winter-regime normal approximation: mean tau/alpha, variance sigma^2 tau/alpha^3."""
    if params.beta != 0:
        raise ParameterError(
            f"winter approximation requires beta == 0, got beta={params.beta}"
        )
    mean = params.tau / params.alpha
    variance = params.sigma**2 * params.tau / params.alpha**3
    return HittingTimeApprox(mean=mean, variance=variance)


@_finite
def approx_spring(params: RegimeParams) -> HittingTimeApprox:
    """Spring-regime normal approximation in its simplified large-threshold form.

    mean = sqrt(2 tau / beta) - gamma, variance = sigma^2 / (beta^(3/2) sqrt(2 tau)).
    Raises ApproximationDomainError when the simplified mean is non-positive
    (tau too small relative to gamma for the asymptotics to say anything).
    """
    if params.beta == 0:
        raise ParameterError("spring approximation requires beta > 0")
    g = params.gamma
    mean = math.sqrt(2.0 * params.tau / params.beta) - g
    if mean <= 0:
        raise ApproximationDomainError(
            f"simplified spring mean sqrt(2*tau/beta) - gamma = {mean:.4g} <= 0: "
            f"tau={params.tau} is too small for the large-threshold "
            f"approximation at alpha={params.alpha}, beta={params.beta}"
        )
    variance = params.sigma**2 / (params.beta**1.5 * math.sqrt(2.0 * params.tau))
    return HittingTimeApprox(mean=mean, variance=variance)


@_finite
def theory_approx(params: RegimeParams) -> HittingTimeApprox:
    """Normal approximation used to standardize simulated hitting times.

    The linearized law at the exact crossing for every beta >= 0: mean
    m = m(tau) and variance sigma^2 m / (alpha + beta m)^2, the form the
    CLT delivers before the large-threshold simplification. At beta == 0 it
    is, to rounding, the winter law tau/alpha, sigma^2 tau/alpha^3 of
    approx_winter; in
    spring it stays accurate at moderate thresholds where the simplified
    display is already several days off.
    """
    m = crossing_time(params)
    return HittingTimeApprox(
        mean=m, variance=params.sigma**2 * m / (params.alpha + params.beta * m) ** 2
    )


@_finite
def sensitivity(params: RegimeParams) -> float:
    """Derivative of the regime's mean advancement law in its warming parameter.

    Winter (beta == 0): d(tau/alpha)/d(alpha) = -tau/alpha^2.
    Spring (beta > 0): d(sqrt(2 tau/beta))/d(beta) = -(1/2) sqrt(2 tau/beta^3).
    Both are strictly negative: warming advances the event at a diminishing rate.
    """
    if params.beta == 0:
        return -params.tau / params.alpha**2
    return -0.5 * math.sqrt(2.0 * params.tau / params.beta**3)


def winter_overshoot_mean(alpha: float, sigma: float) -> float:
    """Limiting mean overshoot E[R_inf] of the winter walk over a far threshold.

    Steps are Normal(alpha, sigma^2) with alpha > 0, sigma > 0, and R is
    Z_nu - tau at the first strict passage; by Wald's identity the winter
    hitting day has mean (tau + E[R])/alpha. Spitzer's formula (Siegmund 1985,
    Sequential Analysis, ch. 8) gives
    E[R_inf] = E[X^2]/(2 alpha) - sum_{n>=1} n^-1 E[S_n^-]
    with S_n ~ Normal(n alpha, n sigma^2). The terms fall monotonically; the
    sum stops after the first term below 1e-12. A non-finite or
    non-positive alpha or sigma raises ParameterError.
    """
    for name, value in (("alpha", alpha), ("sigma", sigma)):
        if not (math.isfinite(value) and value > 0):
            raise ParameterError(f"{name} must be finite and > 0, got {value}")
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


def normal_cdf(x: np.ndarray | float) -> np.ndarray:
    """Standard normal CDF Phi(x), elementwise, as a float array of x's shape.

    Branches as Cephes' ndtr does: 0.5 + 0.5*erf(x/sqrt 2) near zero, the
    complementary erfc form in the tails, so tail values keep their relative
    accuracy. Phi(-inf) = 0, Phi(inf) = 1 and nan stays nan.
    """
    return _elementwise(_ndtr, x)


def normal_logsf(b: np.ndarray | float) -> np.ndarray:
    """log(1 - Phi(b)), elementwise, accurate in relative terms for b >= 0.

    log(erfc(b/sqrt 2)/2) while that tail is a normal double (b below about
    37.5). Beyond, the tail underflows, and the asymptotic Mills series
    -b^2/2 - log b - log(2 pi)/2 + log1p(-b^-2 + 3b^-4 - 15b^-6) is used: its
    first omitted term, 105 b^-8, is below 3e-11 there.
    """
    return _elementwise(_logsf, b)


def _elementwise(f: Callable[[float], float], x: np.ndarray | float) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    return np.fromiter(map(f, a.ravel().tolist()), dtype=float, count=a.size).reshape(a.shape)


def _ndtr(x: float) -> float:
    z = abs(x) * _SQRT1_2
    if z < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x * _SQRT1_2)
    tail = 0.5 * math.erfc(z)
    return 1.0 - tail if x > 0 else tail


def _logsf(b: float) -> float:
    tail = 0.5 * math.erfc(b * _SQRT1_2)
    if tail >= sys.float_info.min:
        return math.log(tail)
    u = 1.0 / (b * b)
    return (-0.5 * b * b - math.log(b) - 0.5 * math.log(2.0 * math.pi)
            + math.log1p(u * (-1.0 + u * (3.0 - 15.0 * u))))
