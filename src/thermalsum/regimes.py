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

import numpy as np

from .errors import InsufficientData, ParameterError

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


@dataclass(frozen=True)
class RegimeEstimate:
    """Point estimates of the site-year temperature regime."""

    alpha_hat: float
    beta_hat: float


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


def _window_values(
    series: DailyTemperatureSeries, window: range, label: str
) -> tuple[np.ndarray, np.ndarray]:
    """The window's present days (1-based day of year) and their values.

    Raises InsufficientData when under MIN_COMPLETENESS of its days are present.
    """
    vals = series.values[window.start : window.stop]
    present = ~np.isnan(vals)
    frac = present.mean()
    if frac < MIN_COMPLETENESS:
        raise InsufficientData(
            f"{label} window for {series.site_id}/{series.year}: "
            f"{present.sum()}/{len(vals)} days present ({frac:.0%} < {MIN_COMPLETENESS:.0%})"
        )
    days = np.arange(window.start + 1, window.stop + 1, dtype=float)
    return days[present], vals[present]


def estimate_alpha(series: DailyTemperatureSeries) -> float:
    """Mean clipped daily temperature over the available January-February days."""
    _, y = _window_values(series, alpha_window(series.year), "Jan-Feb")
    return float(y.mean())


def estimate_beta(series: DailyTemperatureSeries) -> float:
    """OLS slope of clipped daily temperature on day-of-year over March-April.

    The completeness gate leaves at least 49 of the 61 days, so the slope is
    always defined.
    """
    days, y = _window_values(series, beta_window(series.year), "Mar-Apr")
    dx = days - days.mean()
    return float(dx @ (y - y.mean())) / float(dx @ dx)


def estimate_regime(series: DailyTemperatureSeries) -> RegimeEstimate:
    """Both regime parameters for an already-clipped series."""
    return RegimeEstimate(estimate_alpha(series), estimate_beta(series))
