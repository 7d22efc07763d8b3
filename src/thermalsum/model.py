"""Closed-form hitting-time approximations for the thermal-sum model.

Daily effective temperature is modeled as X_i = alpha + beta*i + eps_i with
mean-zero noise of standard deviation sigma. A biological event fires on the
first day the running sum of X_i exceeds a threshold tau (degree-days). Two
regimes are distinguished exactly by beta: the stationary winter regime
(beta == 0) and the spring warming regime (beta > 0). This module provides
the deterministic crossing time, the asymptotic normal approximations for
the hitting day in both regimes, the regime sensitivity derivatives, and the
standard normal law those approximations are checked against.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ApproximationDomainError, ParameterError

# Deterministic crossing below this many days: the large-threshold
# approximation is dubious and results carry a warning flag.
SHORT_HORIZON_DAYS = 30.0

_SQRT1_2 = math.sqrt(0.5)


class Regime(enum.Enum):
    WINTER = "winter"
    SPRING = "spring"


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
    def regime(self) -> Regime:
        return Regime.WINTER if self.beta == 0 else Regime.SPRING

    @property
    def gamma(self) -> float:
        """Trend offset alpha/beta + 1/2 (spring regime only)."""
        if self.beta == 0:
            raise ParameterError("gamma is undefined when beta == 0")
        return self.alpha / self.beta + 0.5


@dataclass(frozen=True)
class CrossingTime:
    """Real-valued day at which the noise-free cumulative sum reaches tau.

    gamma is None in the winter regime, where the trend offset is undefined.
    """

    m_tau: float
    gamma: float | None


@dataclass(frozen=True)
class HittingTimeApprox:
    """Normal approximation for the hitting day: mean (days), variance (days^2).

    short_horizon flags spring fits whose deterministic crossing is under
    SHORT_HORIZON_DAYS, where the large-threshold asymptotics are
    questionable.
    """

    mean: float
    variance: float
    regime: Regime
    short_horizon: bool = False

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


def crossing_time(params: RegimeParams) -> CrossingTime:
    """Exact real root m of the noise-free crossing equation xi(m) = tau.

    Spring regime: positive root of (beta/2) m^2 + beta*gamma*m = tau,
    with gamma = alpha/beta + 1/2. Winter regime: tau/alpha, gamma flagged
    as undefined.
    """
    if params.beta == 0:
        return CrossingTime(m_tau=params.tau / params.alpha, gamma=None)
    g = params.gamma
    b = params.beta
    m = (-b * g + math.sqrt(b * b * g * g + 2.0 * b * params.tau)) / b
    return CrossingTime(m_tau=m, gamma=g)


def approx_winter(params: RegimeParams) -> HittingTimeApprox:
    """Winter-regime normal approximation: mean tau/alpha, variance sigma^2 tau/alpha^3."""
    if params.beta != 0:
        raise ParameterError(
            f"winter approximation requires beta == 0, got beta={params.beta}"
        )
    mean = params.tau / params.alpha
    variance = params.sigma**2 * params.tau / params.alpha**3
    return HittingTimeApprox(mean=mean, variance=variance, regime=Regime.WINTER)


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
    m = crossing_time(params).m_tau
    return HittingTimeApprox(
        mean=mean, variance=variance, regime=Regime.SPRING, short_horizon=m < SHORT_HORIZON_DAYS
    )


def theory_approx(params: RegimeParams) -> HittingTimeApprox:
    """Normal approximation used to standardize simulated hitting times.

    Winter: approx_winter. Spring: the linearized form, mean m = m(tau) and
    variance sigma^2 m / (alpha + beta m)^2 at the exact crossing. It is the
    form the CLT delivers before the large-threshold simplification, and
    stays accurate at moderate thresholds where the simplified display is
    already several days off.
    """
    if params.beta == 0:
        return approx_winter(params)
    m = crossing_time(params).m_tau
    return HittingTimeApprox(
        mean=m,
        variance=params.sigma**2 * m / (params.alpha + params.beta * m) ** 2,
        regime=Regime.SPRING,
        short_horizon=m < SHORT_HORIZON_DAYS,
    )


def sensitivity(params: RegimeParams, wrt: str) -> float:
    """Derivative of the regime's mean advancement law in its warming parameter.

    wrt="alpha" (winter only): d(tau/alpha)/d(alpha) = -tau/alpha^2.
    wrt="beta" (spring only): d(sqrt(2 tau/beta))/d(beta) = -(1/2) sqrt(2 tau/beta^3).
    Both are strictly negative: warming advances the event at a diminishing rate.
    """
    if wrt == "alpha":
        if params.beta != 0:
            raise ParameterError(
                "d(mean)/d(alpha) is the winter-regime sensitivity; requires beta == 0"
            )
        return -params.tau / params.alpha**2
    if wrt == "beta":
        if params.beta == 0:
            raise ParameterError(
                "d(mean)/d(beta) is the spring-regime sensitivity; requires beta > 0"
            )
        return -0.5 * math.sqrt(2.0 * params.tau / params.beta**3)
    raise ParameterError(f"wrt must be 'alpha' or 'beta', got {wrt!r}")


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
