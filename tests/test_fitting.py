import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalsum import checks, fitting
from thermalsum.errors import NonPositiveEstimate, ParameterError, SingularFit


def synthetic_observations(tau=900.0, sigma=15.0, alphas=(5, 10, 15, 20, 25), n=30):
    return [
        fitting.ForcingObservation(
            alpha=a, n=n, mean_days=tau / a, sd_days=math.sqrt(sigma**2 * tau / a**3)
        )
        for a in alphas
    ]


class TestForcingObservation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0, "n": 30, "mean_days": 10, "sd_days": 1},
            {"alpha": 5.0, "n": 1, "mean_days": 10, "sd_days": 1},
            {"alpha": 5.0, "n": 30, "mean_days": 10, "sd_days": 0.0},
            {"alpha": 5.0, "n": 2.5, "mean_days": 10, "sd_days": 1},
            {"alpha": 5.0, "n": 30.0, "mean_days": 10, "sd_days": 1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            fitting.ForcingObservation(**kwargs)

    def test_accepts_numpy_integer_n(self):
        assert fitting.ForcingObservation(alpha=5.0, n=np.int64(30), mean_days=10.0, sd_days=1.0).n == 30

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["alpha", "mean_days", "sd_days"])
    def test_rejects_non_finite(self, name, value):
        # a NaN alpha or an infinite mean_days would make tau_hat NaN or inf
        kwargs = {"alpha": 5.0, "n": 30, "mean_days": 10.0, "sd_days": 1.0, name: value}
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            fitting.ForcingObservation(**kwargs)


class TestFitWinterWls:
    def test_exact_model_recovery(self):
        fit = fitting.fit_winter_wls(synthetic_observations())
        assert fit.tau_hat == pytest.approx(900.0, rel=1e-9)
        assert fit.sigma_hat == pytest.approx(15.0, rel=1e-9)

    def test_bundled_forcing_rows_closed_form(self):
        fit = fitting.fit_winter_wls(fitting.load_walnut_observations())
        # frozen closed-form values; the grid-search agreement check lives in
        # the acceptance suite
        assert fit.tau_hat == pytest.approx(599.0, rel=1e-9)
        assert fit.sigma_hat == pytest.approx(22.087008849847052, rel=1e-9)
        assert fit.r_squared_weighted == pytest.approx(0.9617453958467164, rel=1e-9)

    # at 1.0998 days the weighted mean of the equal means rounds off them
    @pytest.mark.parametrize("mean_days", [100.0, 1.0998])
    def test_r_squared_undefined_when_observed_means_do_not_vary(self, mean_days):
        # the fit still runs (fitted means fall as 1/alpha), but flat observed
        # means correlate with nothing, so R^2 is NaN and its walnut gate fails
        obs = [fitting.ForcingObservation(a, 20, mean_days, 10.0) for a in (5.0, 10.0, 15.0, 20.0)]
        fit = fitting.fit_winter_wls(obs)
        assert all(x > y for x, y in zip(fit.fitted_means, fit.fitted_means[1:]))
        assert math.isnan(fit.r_squared_weighted)
        r2_gate = checks.walnut_checks(fit)[-1]
        assert r2_gate.name.startswith("walnut weighted R^2") and not r2_gate.ok

    def test_fitted_curves_strictly_decreasing(self):
        obs = fitting.load_walnut_observations()
        fit = fitting.fit_winter_wls(obs)
        assert all(x > y for x, y in zip(fit.fitted_means, fit.fitted_means[1:]))
        assert all(x > y for x, y in zip(fit.fitted_sds, fit.fitted_sds[1:]))
        # mirrors the observed sd decay from 27.28 down to 4.45
        assert obs[0].sd_days > obs[-1].sd_days

    def test_residual_orthogonality(self):
        obs = fitting.load_walnut_observations()
        fit = fitting.fit_winter_wls(obs)
        alphas = np.array([o.alpha for o in obs])
        means = np.array([o.mean_days for o in obs])
        w = np.array([o.n for o in obs]) * alphas**3  # the stage-1 weights n*alpha^3
        resid = means - fit.tau_hat / alphas
        dot = float(np.sum(w * (1 / alphas) * resid))
        scale = float(np.sum(np.abs(w * (1 / alphas) * means)))
        assert abs(dot) / scale < 1e-9

    def test_scale_equivariance(self):
        obs = fitting.load_walnut_observations()
        fit1 = fitting.fit_winter_wls(obs)
        scaled = [
            fitting.ForcingObservation(o.alpha, o.n, 3.0 * o.mean_days, o.sd_days)
            for o in obs
        ]
        fit3 = fitting.fit_winter_wls(scaled)
        assert fit3.tau_hat == pytest.approx(3.0 * fit1.tau_hat, rel=1e-12)

    def test_singular_fit(self):
        obs = [
            fitting.ForcingObservation(10.0, 30, 90.0, 5.0),
            fitting.ForcingObservation(10.0, 30, 85.0, 5.0),
        ]
        with pytest.raises(SingularFit):
            fitting.fit_winter_wls(obs)
        with pytest.raises(SingularFit):
            fitting.fit_winter_wls(obs[:1])

    def test_non_positive_estimate(self):
        obs = [
            fitting.ForcingObservation(5.0, 30, -40.0, 5.0),
            fitting.ForcingObservation(10.0, 30, -20.0, 5.0),
        ]
        with pytest.raises(NonPositiveEstimate):
            fitting.fit_winter_wls(obs)

    def test_variance_underflow_is_non_positive(self):
        # sd_days**2 = 1e-340 underflows to 0, so sigma_hat^2 is 0
        obs = [
            fitting.ForcingObservation(5.0, 30, 40.0, 1e-170),
            fitting.ForcingObservation(10.0, 30, 20.0, 1e-170),
        ]
        with pytest.raises(NonPositiveEstimate, match="sigma_hat"):
            fitting.fit_winter_wls(obs)


class TestQuantileBinEdges:
    def test_linear_interpolation_quartiles(self):
        edges = fitting.quantile_bin_edges(range(1, 9), k=4)
        # type-7 oracle: h = (n-1)q; x[floor(h)] + frac*(x[floor(h)+1]-x[floor(h)])
        x = np.arange(1, 9, dtype=float)
        oracle = []
        for q in (0.25, 0.5, 0.75):
            h = (len(x) - 1) * q
            lo = int(np.floor(h))
            oracle.append(x[lo] + (h - lo) * (x[lo + 1] - x[lo]))
        assert edges == pytest.approx([1.0, *oracle, 8.0])
        assert oracle == pytest.approx([2.75, 4.5, 6.25])

    def test_degenerate_values(self):
        edges = fitting.quantile_bin_edges([3.0] * 10, k=4)
        assert np.all(edges == 3.0)

    def test_rejects_small_k_and_short_input(self):
        with pytest.raises(ParameterError):
            fitting.quantile_bin_edges([1, 2, 3], k=1)
        with pytest.raises(ParameterError):
            fitting.quantile_bin_edges([1, 2, 3], k=4)
        for k in (2.5, 4.0):
            with pytest.raises(ParameterError, match="k must be an integer >= 2"):
                fitting.quantile_bin_edges(range(1, 6), k=k)
            with pytest.raises(ParameterError, match="k must be an integer >= 2"):
                fitting.bin_location_scale([(1.0, 0.5, 100.0)] * 8, k=k)

    def test_accepts_numpy_integer_k(self):
        want = fitting.quantile_bin_edges(range(1, 6), k=2)
        assert fitting.quantile_bin_edges(range(1, 6), k=np.int64(2)).tolist() == want.tolist()


@st.composite
def _edge_inputs(draw):
    """(values, k): ties, values rounded to 0-2 decimals (signed zeros too),
    NaN and infinite values, and n == k."""
    k = draw(st.integers(2, 8))
    n = draw(st.sampled_from([k, k + 1]) | st.integers(k, 60))
    floats = st.floats(-1e6, 1e6)
    cells = st.one_of(
        floats,
        st.tuples(floats.map(lambda v: v / 1e6), st.integers(0, 2)).map(lambda p: round(*p)),
        st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0]),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    return draw(st.lists(cells, min_size=n, max_size=n)), k


@settings(max_examples=300, deadline=None)
@given(inputs=_edge_inputs())
def test_quantile_edges_match_numpy_bit_for_bit(inputs):
    values, k = inputs
    # an infinite value can make the interpolation inf - inf: NaN, on which
    # np.quantile warns too
    with np.errstate(invalid="ignore"):
        edges = fitting.quantile_bin_edges(values, k)
        oracle = np.quantile(np.array(values), [i / k for i in range(1, k)], method="linear")
    assert edges[1:-1].tobytes() == oracle.tobytes()
    outer = [np.min(values), np.max(values)]  # NaN if any value is
    assert np.array_equal(edges[[0, -1]], outer, equal_nan=True)


class TestBinLocationScale:
    def test_two_point_cell(self):
        grid = fitting.bin_location_scale(
            [(1.0, 1.0, 100.0), (1.0, 1.0, 110.0)],
            alpha_edges=[0, 2],
            beta_edges=[0, 2],
        )
        assert grid.counts[0, 0] == 2
        assert grid.means[0, 0] == pytest.approx(105.0)
        assert grid.sds[0, 0] == pytest.approx(7.0710678, rel=1e-6)

    def test_partition_counts(self):
        rng = np.random.default_rng(1)
        obs = [
            (rng.uniform(0, 10), rng.uniform(0, 1), rng.uniform(50, 200))
            for _ in range(500)
        ]
        grid = fitting.bin_location_scale(obs, k=4)
        assert grid.counts.sum() == 500
        assert grid.counts.shape == (4, 4)
        assert grid.clamped == 0

    def test_interval_edge_goes_to_lower_bin(self):
        # left-open right-closed: a value on an interior edge joins the bin
        # below; the lowest bin includes its left endpoint
        grid = fitting.bin_location_scale(
            [(2.0, 0.5, 100.0), (0.0, 0.5, 120.0)],
            alpha_edges=[0.0, 2.0, 4.0],
            beta_edges=[0.0, 1.0],
        )
        assert grid.counts[0, 0] == 2
        assert grid.counts[1, 0] == 0

    def test_out_of_range_clamps_and_counts(self):
        grid = fitting.bin_location_scale(
            [(-1.0, 0.5, 100.0), (9.0, 0.5, 110.0), (1.0, 0.5, 120.0)],
            alpha_edges=[0.0, 2.0, 4.0],
            beta_edges=[0.0, 1.0],
        )
        assert grid.clamped == 2
        assert grid.counts[0, 0] == 2  # -1 clamps into the lowest bin
        assert grid.counts[1, 0] == 1  # 9 clamps into the highest bin

    def test_singleton_cell_sd_missing(self):
        grid = fitting.bin_location_scale(
            [(1.0, 0.5, 100.0), (3.0, 0.5, 110.0)],
            alpha_edges=[0.0, 2.0, 4.0],
            beta_edges=[0.0, 1.0],
        )
        assert grid.counts[0, 0] == 1
        assert np.isnan(grid.sds[0, 0])
        assert grid.means[0, 0] == pytest.approx(100.0)

    def test_degenerate_axis_flagged(self):
        grid = fitting.bin_location_scale(
            [(2.0, 0.5, 100.0)] * 8,
            k=4,
        )
        assert grid.degenerate_alpha and grid.degenerate_beta
        assert grid.counts.sum() == 8
        assert grid.counts[0, 0] == 8

    def test_rejects_bad_doy(self):
        with pytest.raises(ParameterError):
            fitting.bin_location_scale([(1.0, 0.5, 400.0)], alpha_edges=[0, 2], beta_edges=[0, 1])

    def test_rejects_pairs(self):
        with pytest.raises(ParameterError, match="triples"):
            fitting.bin_location_scale([(1.0, 2.0)])

    def test_rejects_decreasing_edges(self):
        with pytest.raises(ParameterError):
            fitting.bin_location_scale(
                [(1.0, 0.5, 100.0)], alpha_edges=[2, 0], beta_edges=[0, 1]
            )

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_observation(self, k, bad):
        obs = [(1, 0.1, 100), (2, 0.2, 120), (3, 0.3, 130), (4, 0.4, 140), (5, 0.5, 150)]
        obs[3] = obs[3][:k] + (bad,) + obs[3][k + 1 :]
        with pytest.raises(ParameterError, match="finite"):
            fitting.bin_location_scale(obs, k=2)
        with pytest.raises(ParameterError, match="finite"):
            fitting.bin_location_scale(obs, alpha_edges=[0, 6], beta_edges=[0, 1])

    @pytest.mark.parametrize("edges", [[], [1.0], [0.0, math.nan], [-math.inf, 0.0, 2.0],
                                       [0.0, math.inf], [[0.0, 1.0], [2.0, 3.0]]])
    @pytest.mark.parametrize("axis", ["alpha_edges", "beta_edges"])
    def test_rejects_explicit_edges_not_finite_or_too_few(self, edges, axis):
        pinned = {"alpha_edges": [0.0, 2.0], "beta_edges": [0.0, 1.0], axis: edges}
        with pytest.raises(ParameterError, match="at least 2 finite"):
            fitting.bin_location_scale([(1.0, 0.5, 100.0)], **pinned)


_values = st.floats(-50.0, 50.0)
_triples = st.lists(
    st.tuples(_values, _values, st.integers(1, 366).map(float)), min_size=4, max_size=60
)
_edges = st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=5).map(sorted)


@settings(max_examples=50, deadline=None)
@given(obs=_triples)
def test_quantile_binning_conserves_counts(obs):
    grid = fitting.bin_location_scale(obs, k=4)
    assert grid.counts.sum() == len(obs)
    assert grid.clamped == 0


@settings(max_examples=50, deadline=None)
@given(obs=_triples, alpha_edges=_edges, beta_edges=_edges)
def test_clamping_edges_conserve_counts(obs, alpha_edges, beta_edges):
    grid = fitting.bin_location_scale(obs, alpha_edges=alpha_edges, beta_edges=beta_edges)
    assert grid.counts.sum() == len(obs)
    outside_a = sum(not alpha_edges[0] <= a <= alpha_edges[-1] for a, _, _ in obs)
    outside_b = sum(not beta_edges[0] <= b <= beta_edges[-1] for _, b, _ in obs)
    assert grid.clamped == outside_a + outside_b


class TestFormatting:
    def test_table_layout(self):
        grid = fitting.bin_location_scale(
            [(1.0, 0.2, 100.0), (3.0, 0.7, 130.0), (1.2, 0.8, 90.0), (2.8, 0.1, 140.0)],
            alpha_edges=[0.0, 2.0, 4.0],
            beta_edges=[0.0, 0.5, 1.0],
        )
        text = grid.format_table("mean")
        assert "[0, 2]" in text
        assert "(2, 4]" in text
        assert "--" in grid.format_table("sd")  # singleton cells

    def test_grid_csv_rows(self):
        grid = fitting.bin_location_scale(
            [(1.0, 0.2, 100.0), (1.5, 0.3, 110.0)],
            alpha_edges=[0.0, 2.0],
            beta_edges=[0.0, 0.5],
        )
        rows = fitting.grid_csv_rows(grid)
        assert rows[0] == "alpha_bin,beta_bin,count,mean,sd"
        assert rows[1].endswith(",2,105,7.07107")


class TestReadForcingCsv:
    def test_bundled_fixture_shape(self):
        obs = fitting.load_walnut_observations()
        assert [o.alpha for o in obs] == [5, 10, 15, 20, 25]
        assert all(o.n == 30 for o in obs)
        assert obs[0].mean_days == 178.0
        assert obs[-1].sd_days == pytest.approx(4.45)
