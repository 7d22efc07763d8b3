"""Estimate the winter level alpha and spring warming rate beta for a site-year.

alpha is the mean daily effective temperature over January-February; beta is
the ordinary least-squares slope of daily effective temperature on day-of-year
over March-April. Daily values below the base temperature 0 are clipped to 0
once, upstream of both estimators. Missing days are excluded, not imputed,
and each window requires at least MIN_COMPLETENESS of its days present.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDesign, InsufficientData, ParameterError

MIN_COMPLETENESS = 0.8


@dataclass(frozen=True)
class DailyTemperatureSeries:
    """Day-of-year-indexed daily effective temperatures for one site-year.

    values[d - 1] is the temperature on day-of-year d (day 1 = Jan 1); NaN
    marks a missing day. The array length is the calendar length of `year`,
    so leap years carry Feb 29 at index 59 and shift the March-April window
    by one day.
    """

    site_id: str
    year: int
    values: np.ndarray

    def __post_init__(self) -> None:
        n = days_in_year(self.year)
        if len(self.values) != n:
            raise ParameterError(
                f"series for {self.year} must have {n} values, got {len(self.values)}"
            )
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


class AlphaEstimate(NamedTuple):
    alpha_hat: float
    n_days: int


class BetaEstimate(NamedTuple):
    beta_hat: float
    r_squared: float
    n_days: int


@dataclass(frozen=True)
class RegimeEstimate:
    """Point estimates of the site-year temperature regime."""

    alpha_hat: float
    beta_hat: float
    n_alpha_days: int
    n_beta_days: int
    r_squared_beta: float


def days_in_year(year: int) -> int:
    return 366 if calendar.isleap(year) else 365


def alpha_window(year: int) -> range:
    """0-based slice indices of the January-February days."""
    feb = 29 if calendar.isleap(year) else 28
    return range(0, 31 + feb)


def beta_window(year: int) -> range:
    """0-based slice indices of the March-April days (61 days)."""
    start = 31 + (29 if calendar.isleap(year) else 28)
    return range(start, start + 61)


def clip_base(series: DailyTemperatureSeries) -> DailyTemperatureSeries:
    """Clip daily values below the base temperature 0 to 0; missing stays missing."""
    return DailyTemperatureSeries(
        site_id=series.site_id,
        year=series.year,
        values=np.maximum(series.values, 0.0),
    )


def _window_values(series: DailyTemperatureSeries, window: range, label: str) -> np.ndarray:
    vals = series.values[window.start : window.stop]
    present = ~np.isnan(vals)
    frac = present.mean()
    if frac < MIN_COMPLETENESS:
        raise InsufficientData(
            f"{label} window for {series.site_id}/{series.year}: "
            f"{present.sum()}/{len(vals)} days present ({frac:.0%} < {MIN_COMPLETENESS:.0%})"
        )
    return vals


def estimate_alpha(series: DailyTemperatureSeries) -> AlphaEstimate:
    """Mean clipped daily temperature over the available January-February days."""
    vals = _window_values(series, alpha_window(series.year), "Jan-Feb")
    present = ~np.isnan(vals)
    return AlphaEstimate(float(vals[present].mean()), int(present.sum()))


def estimate_beta(series: DailyTemperatureSeries) -> BetaEstimate:
    """OLS slope of clipped daily temperature on day-of-year over March-April.

    r_squared is 1 - SS_res/SS_tot, defined as 1.0 when the fit is exact
    (including a constant series, where the flat line has zero residual).
    """
    window = beta_window(series.year)
    vals = _window_values(series, window, "Mar-Apr")
    present = ~np.isnan(vals)
    days = np.arange(window.start + 1, window.stop + 1, dtype=float)[present]
    y = vals[present]
    if len(np.unique(days)) < 3:
        raise DegenerateDesign(
            f"need >= 3 distinct days for the slope, got {len(np.unique(days))}"
        )
    dx = days - days.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    sxy = float(dx @ dy)
    syy = float(dy @ dy)
    slope = sxy / sxx
    ss_res = syy - sxy * sxy / sxx
    r2 = 1.0 if syy == 0 or ss_res <= 0 else 1.0 - ss_res / syy
    return BetaEstimate(slope, r2, int(present.sum()))


def estimate_regime(series: DailyTemperatureSeries) -> RegimeEstimate:
    """Both regime parameters for an already-clipped series."""
    a = estimate_alpha(series)
    b = estimate_beta(series)
    return RegimeEstimate(
        alpha_hat=a.alpha_hat,
        beta_hat=b.beta_hat,
        n_alpha_days=a.n_days,
        n_beta_days=b.n_days,
        r_squared_beta=b.r_squared,
    )
