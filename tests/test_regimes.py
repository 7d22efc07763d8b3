import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from thermalsum import regimes
from thermalsum.errors import InsufficientData, ParameterError


def from_day_values(site_id, year, day_values):
    """A series from a {day_of_year: value} mapping; other days missing."""
    n = regimes.days_in_year(year)
    values = np.full(n, np.nan)
    for day, v in day_values.items():
        if not 1 <= day <= n:
            raise ParameterError(f"day {day} outside [1, {n}] for year {year}")
        values[day - 1] = v
    return regimes.DailyTemperatureSeries(site_id=site_id, year=year, values=values)


def completeness(series):
    """Fraction of non-missing days over January-April."""
    window = series.values[: regimes.beta_window(series.year).stop]
    return float(np.mean(~np.isnan(window)))


def full_series(year=2021, fill=5.0, site="S1"):
    values = np.full(regimes.days_in_year(year), fill)
    return regimes.DailyTemperatureSeries(site_id=site, year=year, values=values)


class TestDailyTemperatureSeries:
    def test_length_must_match_calendar(self):
        with pytest.raises(ParameterError):
            regimes.DailyTemperatureSeries("S1", 2021, np.zeros(366))
        regimes.DailyTemperatureSeries("S1", 2020, np.zeros(366))  # leap year

    def test_from_day_values(self):
        s = from_day_values("S1", 2021, {1: 3.0, 59: 4.0})
        assert s.values[0] == 3.0
        assert s.values[58] == 4.0
        assert np.isnan(s.values[1])

    def test_from_day_values_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            from_day_values("S1", 2021, {366: 1.0})

    def test_completeness_over_jan_apr(self):
        s = full_series()
        assert completeness(s) == 1.0
        values = s.values.copy()
        values[: regimes.beta_window(2021).stop] = np.nan
        gappy = regimes.DailyTemperatureSeries("S1", 2021, values)
        assert completeness(gappy) == 0.0


class TestWindows:
    def test_non_leap_windows(self):
        aw, bw = regimes.alpha_window(2021), regimes.beta_window(2021)
        assert (aw.start, aw.stop) == (0, 59)  # Jan 1 - Feb 28
        assert (bw.start, bw.stop) == (59, 120)  # Mar 1 - Apr 30

    def test_leap_windows_shift_by_one(self):
        aw, bw = regimes.alpha_window(2020), regimes.beta_window(2020)
        assert (aw.start, aw.stop) == (0, 60)  # includes Feb 29
        assert (bw.start, bw.stop) == (60, 121)
        assert len(bw) == len(regimes.beta_window(2021)) == 61


class TestClipBase:
    def test_clips_negatives(self):
        s = from_day_values(
            "S1", 2021, {1: -3.0, 2: 2.0, 3: 0.0}
        )
        clipped = regimes.clip_base(s)
        assert clipped.values[:3] == pytest.approx([0.0, 2.0, 0.0])

    def test_all_positive_unchanged(self):
        s = full_series(fill=4.2)
        assert np.array_equal(regimes.clip_base(s).values, s.values)

    def test_all_negative_saturates(self):
        s = full_series(fill=-7.0)
        assert np.all(regimes.clip_base(s).values == 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 10, regimes.days_in_year(2021))
        s = regimes.DailyTemperatureSeries("S1", 2021, values)
        once = regimes.clip_base(s)
        twice = regimes.clip_base(once)
        assert np.array_equal(once.values, twice.values)

    def test_missing_stays_missing(self):
        s = from_day_values("S1", 2021, {1: -2.0})
        clipped = regimes.clip_base(s)
        assert clipped.values[0] == 0.0
        assert np.isnan(clipped.values[1])


class TestEstimateAlpha:
    def test_constant_series(self):
        assert regimes.estimate_alpha(full_series(fill=5.0)) == 5.0

    def test_jan_zero_feb_four(self):
        day_values = {d: 0.0 for d in range(1, 32)}
        day_values.update({d: 4.0 for d in range(32, 60)})
        s = from_day_values("S1", 2021, day_values)
        assert regimes.estimate_alpha(s) == pytest.approx(112 / 59)

    def test_insufficient_data_gate(self):
        # 40 of 59 days present: 68% < 80%
        day_values = {d: 5.0 for d in range(1, 41)}
        s = from_day_values("S1", 2021, day_values)
        with pytest.raises(InsufficientData):
            regimes.estimate_alpha(s)

    def test_gate_passes_at_exactly_80_percent(self):
        # leap-year Jan-Feb has 60 days: 48 present is 80% and passes, 47 fails
        s = from_day_values("S1", 2020, {d: float(d) for d in range(1, 49)})
        assert regimes.estimate_alpha(s) == pytest.approx(24.5)
        with pytest.raises(InsufficientData):
            regimes.estimate_alpha(from_day_values("S1", 2020, {d: 1.0 for d in range(1, 48)}))

    def test_matches_clipped_normal_mean_oracle(self):
        # clipped draws around alpha=8 with sigma=20: the sample mean should
        # land near the clipped-normal population mean from quadrature
        alpha, sigma = 8.0, 20.0
        oracle, _ = integrate.quad(lambda x: x * stats.norm.pdf(x, alpha, sigma), 0, np.inf)
        rng = np.random.default_rng(42)
        values = np.maximum(rng.normal(alpha, sigma, regimes.days_in_year(2021)), 0.0)
        s = regimes.DailyTemperatureSeries("S1", 2021, values)
        assert abs(regimes.estimate_alpha(s) - oracle) < 3 * sigma / np.sqrt(59)


class TestEstimateBeta:
    def test_exact_line_recovery(self):
        s = from_day_values(
            "S1", 2021, {d: 0.1 * (d - 59) for d in range(60, 121)}
        )
        assert regimes.estimate_beta(s) == pytest.approx(0.1, rel=1e-12)

    def test_constant_series_gives_zero_slope(self):
        assert regimes.estimate_beta(full_series(fill=3.0)) == 0.0

    def test_noisy_slope_matches_closed_form_oracle(self):
        rng = np.random.default_rng(7)
        window = regimes.beta_window(2021)
        days = np.arange(window.start + 1, window.stop + 1, dtype=float)
        y = 1.0 + 0.4 * (days - days[0]) + rng.normal(0, 5, len(days))
        s = from_day_values(
            "S1", 2021, dict(zip(days.astype(int), y))
        )
        oracle = np.polyfit(days, y, 1)[0]
        assert regimes.estimate_beta(s) == pytest.approx(oracle, abs=1e-12)

    def test_insufficient_data_gate(self):
        s = from_day_values(
            "S1", 2021, {d: 1.0 for d in range(60, 90)}
        )
        with pytest.raises(InsufficientData):
            regimes.estimate_beta(s)

    def test_degenerate_design(self):
        # two distinct days cannot fit a slope; the completeness gate is what
        # refuses them, and it leaves at least 49 distinct days whenever it passes
        values = np.full(regimes.days_in_year(2021), np.nan)
        window = regimes.beta_window(2021)
        values[window.start] = 1.0
        values[window.start + 1] = 2.0
        s = regimes.DailyTemperatureSeries("S1", 2021, values)
        with pytest.raises(InsufficientData):
            regimes.estimate_beta(s)


class TestEquivariance:
    def test_shift_moves_alpha_not_beta(self):
        rng = np.random.default_rng(3)
        base = np.abs(rng.normal(6, 2, regimes.days_in_year(2021))) + 0.5
        s1 = regimes.DailyTemperatureSeries("S1", 2021, base)
        s2 = regimes.DailyTemperatureSeries("S1", 2021, base + 2.5)
        a1, a2 = regimes.estimate_alpha(s1), regimes.estimate_alpha(s2)
        b1, b2 = regimes.estimate_beta(s1), regimes.estimate_beta(s2)
        assert a2 - a1 == pytest.approx(2.5, abs=1e-12)
        assert b2 == pytest.approx(b1, abs=1e-12)

    def test_estimators_are_deterministic(self):
        s = full_series(fill=4.0)
        assert regimes.estimate_regime(s) == regimes.estimate_regime(s)


class TestEstimateRegime:
    def test_combines_both_estimates(self):
        day_values = {d: 2.0 for d in range(1, 60)}
        day_values.update({d: 2.0 + 0.3 * (d - 59) for d in range(60, 121)})
        s = from_day_values("S1", 2021, day_values)
        est = regimes.estimate_regime(s)
        assert est.alpha_hat == pytest.approx(2.0)
        assert est.beta_hat == pytest.approx(0.3, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_estimates_match_oracles_on_gappy_series(data):
    # a window passing the gate gives the plain mean and the polyfit slope of
    # its present days; one under 80% present raises
    year = data.draw(st.integers(1900, 2100), label="year")
    n = regimes.beta_window(year).stop
    values = np.full(regimes.days_in_year(year), np.nan)
    values[:n] = data.draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n), label="values")
    for window in (regimes.alpha_window(year), regimes.beta_window(year)):
        # up to 24 missing days; the gate allows 11 or 12, by window length
        order = data.draw(st.permutations(range(window.start, window.stop)), label="days")
        values[order[: data.draw(st.integers(0, 24), label="gaps")]] = np.nan
    series = regimes.DailyTemperatureSeries("S1", year, values)
    for window, estimate, oracle in [
        (regimes.alpha_window(year), regimes.estimate_alpha, lambda days, y: math.fsum(y) / len(y)),
        (regimes.beta_window(year), regimes.estimate_beta, lambda days, y: np.polyfit(days, y, 1)[0]),
    ]:
        days = np.arange(window.start + 1, window.stop + 1)
        present = ~np.isnan(values[window.start : window.stop])
        if 5 * present.sum() < 4 * len(present):
            with pytest.raises(InsufficientData):
                estimate(series)
        else:
            y = values[window.start : window.stop][present]
            assert estimate(series) == pytest.approx(oracle(days[present], y), abs=1e-12)
