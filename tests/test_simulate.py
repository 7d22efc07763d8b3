import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from thermalsum import model, simulate
from thermalsum.errors import HorizonExceeded, ParameterError


def linear(alpha, beta, sigma, **kw):
    return simulate.TemperatureProcessSpec(alpha, beta, sigma, **kw)


def seasonal(alpha, beta, sigma):
    return simulate.TemperatureProcessSpec(
        alpha, beta, sigma, breakpoint_day=simulate.SIM2_BREAKPOINT_DAY
    )


def block_plan(spec, tau):
    return simulate._block_plan(spec, tau, simulate._mean_path(spec))


def simulate_hitting_time(spec, tau, rng):
    # the engine on one path: _first_passage on one generator, with the
    # mean path and block plan of the path's cell
    mu = simulate._mean_path(spec)
    plan = simulate._block_plan(spec, tau, mu)
    return int(simulate._first_passage(spec, tau, [rng], plan, mu)[0])


class TestTemperatureProcessSpec:
    def test_rejects_bad_fields(self):
        with pytest.raises(ParameterError):
            simulate.TemperatureProcessSpec(4, 0, 20, noise_law="cauchy")
        with pytest.raises(ParameterError):
            simulate.TemperatureProcessSpec(4, 0, -1)
        with pytest.raises(ParameterError):
            simulate.TemperatureProcessSpec(4, 0, 20, breakpoint_day=-1)

    @pytest.mark.parametrize("field", ["alpha", "beta", "noise_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_fields(self, field, value):
        fields = {"alpha": 4.0, "beta": 0.1, "noise_sigma": 20.0, field: value}
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            simulate.TemperatureProcessSpec(**fields)

    def test_piecewise_mean_profile(self):
        spec = seasonal(4, 0.2, 20)
        days = np.array([1, 90, 91, 180, 250])
        got = spec.mean_at(days)
        assert got == pytest.approx([4.0, 4.0, 4.2, 22.0, 36.0])

    @given(
        alpha=st.floats(-50, 50),
        beta=st.floats(-5, 5),
        sigma=st.floats(0, 50),
        days=st.lists(st.integers(1, 20_000), min_size=1, max_size=50),
    )
    def test_linear_mean_profile(self, alpha, beta, sigma, days):
        # breakpoint_day = 0 must be the linear trend bit for bit: the seeded
        # outputs of the linear-trend runs rest on it
        days = np.array(days)
        got = simulate.TemperatureProcessSpec(alpha, beta, sigma).mean_at(days)
        assert np.array_equal(got, alpha + beta * days)


class TestSimulateHittingTime:
    def test_noiseless_strict_inequality(self):
        # Z_250 = 1000 is not > 1000, so the crossing lands on day 251
        rng = np.random.default_rng(0)
        assert simulate_hitting_time(linear(4, 0, 0), 1000.0, rng) == 251

    def test_noiseless_plain_crossing(self):
        rng = np.random.default_rng(0)
        assert simulate_hitting_time(linear(4, 0, 0), 999.9, rng) == 250

    def test_rejects_non_positive_tau(self):
        with pytest.raises(ParameterError):
            simulate_hitting_time(linear(4, 0, 0), 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_tau(self, tau):
        # before any path is drawn: an infinite tau would otherwise run the
        # whole horizon and end in HorizonExceeded
        with pytest.raises(ParameterError, match="tau must be finite"):
            simulate.simulate_hitting_times(linear(4, 0, 20), tau, 3, seed=1)
        with pytest.raises(ParameterError, match="tau must be finite"):
            simulate_hitting_time(linear(4, 0, 20), tau, np.random.default_rng(0))

    def test_horizon_exceeded(self, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_HORIZON", 100)
        with pytest.raises(HorizonExceeded):
            simulate_hitting_time(linear(0.01, 0, 0), 1000.0, np.random.default_rng(0))

    def test_two_point_small_instance_matches_enumeration(self):
        # alpha=1 with +-1 noise: daily values are 0 or 2; tau=3.
        # Exact law by enumerating all noise paths (oracle).
        exact = _two_point_exact(tau=3.0, alpha=1.0, sigma=1.0, nmax=12)
        times = simulate.simulate_hitting_times(
            linear(1, 0, 1, noise_law="two_point"), 3.0, 20000, seed=11
        )
        for n, p in exact.items():
            if p == 0:
                continue
            emp = float(np.mean(times == n))
            se = np.sqrt(p * (1 - p) / len(times))
            assert abs(emp - p) < 4 * se, f"atom {n}: {emp} vs {p}"


def _two_point_exact(tau, alpha, sigma, nmax):
    frontier = {0.0: 1.0}
    probs = {}
    for n in range(1, nmax + 1):
        nxt, pn = {}, 0.0
        for s, p in frontier.items():
            for inc in (alpha + sigma, alpha - sigma):
                s2 = s + inc
                if s2 > tau:
                    pn += 0.5 * p
                else:
                    nxt[s2] = nxt.get(s2, 0.0) + 0.5 * p
        probs[n] = pn
        frontier = nxt
    return probs


def _one_path_hitting_time(spec, tau, rng):
    # reference: one path, the whole horizon drawn in one call, one 1-D
    # cumsum, the first day with Z_n > tau
    horizon = simulate.MAX_HORIZON
    days = np.arange(1, horizon + 1)
    if spec.noise_law == "gaussian":
        noise = spec.noise_sigma * rng.standard_normal(horizon)
    else:
        noise = spec.noise_sigma * (2.0 * rng.integers(0, 2, size=horizon) - 1.0)
    z = np.cumsum(spec.mean_at(days) + noise)
    if not (z > tau).any():
        raise HorizonExceeded(f"no crossing within {horizon} days")
    return int(np.argmax(z > tau)) + 1


def _rows_drawn(nu, plan):
    # days a row crossing on day nu draws under plan (first, later)
    first, later = plan
    if nu <= first:
        return min(first, simulate.MAX_HORIZON)
    return min(first + later * -(-(nu - first) // later), simulate.MAX_HORIZON)


class TestBatchProperties:
    def test_determinism_same_seed(self):
        spec = linear(4, 0.1, 20)
        a = simulate.simulate_hitting_times(spec, 500.0, 300, seed=5)
        b = simulate.simulate_hitting_times(spec, 500.0, 300, seed=5)
        assert np.array_equal(a, b)

    def test_replicate_i_reads_substream_i(self):
        # the last replicate is the first of a second slab of hashed seed words
        spec = seasonal(4, 0.4, 20)
        times = simulate.simulate_hitting_times(spec, 1000.0, simulate._SLAB + 1, seed=9, cell=3)
        for i in (0, 200, simulate._SLAB - 1, simulate._SLAB):
            alone = simulate_hitting_time(spec, 1000.0, simulate.substream(9, 3, i))
            assert times[i] == alone, f"replicate {i}"

    @pytest.mark.parametrize(
        "spec, tau, cell, expected",
        [
            # winter paths of ~1000 days cross up to the fourth block (day 1792+)
            (linear(2, 0, 20), 2000.0, 1, [1803, 1197, 1115, 1993, 533, 950]),
            # two-point noise, crossing on both sides of day 256; recorded from
            # the one-replicate-at-a-time loop, before replicates were chunked
            (linear(1, 0, 3, noise_law="two_point"), 300.0, 2, [359, 245, 326, 260, 337, 293]),
        ],
    )
    def test_golden_hitting_times(self, spec, tau, cell, expected):
        # recorded under the SeedSequence((seed, cell, i)) contract, when
        # blocks still ran 256 days doubling to 4096; the block plan is not
        # part of the contract, and a change here changes every seeded output
        times = simulate.simulate_hitting_times(spec, tau, len(expected), seed=7, cell=cell)
        assert times.tolist() == expected

    def test_pathwise_monotone_in_tau(self):
        spec = linear(4, 0.1, 20)
        t1 = simulate.simulate_hitting_times(spec, 800.0, 300, seed=21)
        t2 = simulate.simulate_hitting_times(spec, 1600.0, 300, seed=21)
        assert np.all(t1 <= t2)

    def test_pathwise_non_increasing_in_alpha(self):
        # same noise substreams, warmer baseline: never a later crossing.
        # gaussian draws consume the stream identically for both alphas.
        lo = simulate.simulate_hitting_times(linear(3, 0.1, 20), 1000.0, 300, seed=33)
        hi = simulate.simulate_hitting_times(linear(5, 0.1, 20), 1000.0, 300, seed=33)
        assert np.all(hi <= lo)

    def test_crossing_is_on_the_sequential_sum(self):
        # noiseless, so the hitting time is fixed by rounding alone: the
        # sequential Z_258 = 25.800000000000097 already exceeds tau, while a
        # carry added after a block's cumsum can round the crossing to day 259
        res = simulate.run_simulation_1(0.1, 0.0, 25.800000000000093, sigma=0.0,
                                        replicates=3, seed=0)
        assert res.hitting_times.tolist() == [258, 258, 258]
        assert np.cumsum(np.full(258, 0.1))[-1] == 25.800000000000097

    def test_stopping_rule_on_replayed_paths(self):
        spec = seasonal(8, 0.4, 20)
        times = simulate.simulate_hitting_times(spec, 1000.0, 50, seed=13)
        simulate.verify_stopping(spec, 1000.0, 13, 0, times, sample=range(50))

    @settings(max_examples=30, deadline=None)
    @given(
        replicates=st.integers(1, 2 * simulate._CHUNK + 1),
        seed=st.integers(0, 2**32 - 1),
        cell=st.integers(0, 17),
    )
    def test_prefix_of_longer_run(self, replicates, seed, cell):
        # a run's replicates do not depend on how many follow them, on either
        # side of a chunk boundary
        spec = seasonal(8, 0.4, 20)
        longer = simulate.simulate_hitting_times(spec, 1000.0, 2 * simulate._CHUNK + 1, seed, cell)
        times = simulate.simulate_hitting_times(spec, 1000.0, replicates, seed, cell)
        assert np.array_equal(times, longer[:replicates])

    def test_chunk_edges_read_their_own_substreams(self):
        # winter paths crossing in the second to fourth block exercise the
        # carry of rows that stay in the block matrix, and each chunk reloads
        # generators whose earlier rows crossed in later blocks
        spec = linear(2, 0, 20)
        chunk = simulate._CHUNK
        times = simulate.simulate_hitting_times(spec, 2000.0, 2 * chunk + 1, seed=4, cell=1)
        for i in (chunk - 1, chunk, chunk + 1, 2 * chunk):
            alone = simulate_hitting_time(spec, 2000.0, simulate.substream(4, 1, i))
            assert times[i] == alone, f"replicate {i}"
        loop = [_one_path_hitting_time(spec, 2000.0, simulate.substream(4, 1, i))
                for i in range(2 * chunk + 1)]
        assert times.tolist() == loop

    def test_partly_crossed_chunk_raises(self, monkeypatch):
        # within one chunk some paths cross by day 100 and others do not: the
        # run must raise rather than return the uncrossed rows unfilled
        monkeypatch.setattr(simulate, "MAX_HORIZON", 100)
        spec, tau = linear(1, 0, 30), 100.0
        crossed = 0
        for i in range(simulate._CHUNK):
            try:
                _one_path_hitting_time(spec, tau, simulate.substream(2, 0, i))
                crossed += 1
            except HorizonExceeded:
                pass
        assert 0 < crossed < simulate._CHUNK
        with pytest.raises(HorizonExceeded):
            simulate.simulate_hitting_times(spec, tau, simulate._CHUNK, seed=2)

    def test_rejects_zero_replicates(self):
        with pytest.raises(ParameterError):
            simulate.simulate_hitting_times(linear(4, 0, 20), 100.0, 0, seed=1)


# (spec, tau, cell): Gaussian rows crossing in 150-250 days, two-point rows
# near day 300, and a noiseless path whose crossing day a block carry added
# after the cumsum would round away
PLAN_CASES = [
    (linear(4, 0.1, 20), 800.0, 1),
    (linear(1, 0, 3, noise_law="two_point"), 300.0, 2),
    (linear(0.1, 0, 0), 25.800000000000093, 0),
]
PLAN_REPLICATES = simulate._CHUNK + 3


# (first, later) block lengths of every bundled grid cell
SIM1_PLANS = {
    (2.0, 0.0, 1000.0): (949, 224), (2.0, 0.0, 2000.0): (1634, 317),
    (2.0, 0.1, 1000.0): (155, 16), (2.0, 0.1, 2000.0): (208, 16),
    (4.0, 0.0, 1000.0): (410, 80), (4.0, 0.0, 2000.0): (725, 112),
    (4.0, 0.1, 1000.0): (136, 16), (4.0, 0.1, 2000.0): (190, 16),
}
SIM2_PLANS = {
    (4.0, 0.2, 1000.0): (183, 16), (4.0, 0.2, 2000.0): (222, 16),
    (4.0, 0.4, 1000.0): (159, 16), (4.0, 0.4, 2000.0): (186, 16),
    (4.0, 0.8, 1000.0): (139, 16), (4.0, 0.8, 2000.0): (159, 16),
    (8.0, 0.2, 1000.0): (150, 17), (8.0, 0.2, 2000.0): (192, 16),
    (8.0, 0.4, 1000.0): (138, 16), (8.0, 0.4, 2000.0): (168, 16),
    (8.0, 0.8, 1000.0): (127, 16), (8.0, 0.8, 2000.0): (149, 16),
    (10.0, 0.2, 1000.0): (134, 17), (10.0, 0.2, 2000.0): (178, 16),
    (10.0, 0.4, 1000.0): (129, 16), (10.0, 0.4, 2000.0): (159, 16),
    (10.0, 0.8, 1000.0): (123, 16), (10.0, 0.8, 2000.0): (143, 16),
}


class TestBlockPlan:
    def test_bundled_cells_keep_their_plans(self):
        sigma = simulate.DEFAULT_SIGMA
        for (a, b, tau), plan in SIM1_PLANS.items():
            assert block_plan(linear(a, b, sigma), tau) == plan
        for (a, b, tau), plan in SIM2_PLANS.items():
            assert block_plan(seasonal(a, b, sigma), tau) == plan

    def test_first_block_ends_two_sd_past_the_mean_crossing(self):
        # mean path 4n crosses 1000 on day 251; s = 20*sqrt(251)/4 = 79.2
        assert block_plan(linear(4, 0, 20), 1000.0) == (410, 80)

    def test_block_bounds(self, monkeypatch):
        # noiseless: later blocks are never shorter than _MIN_BLOCK
        assert block_plan(linear(4, 0, 0), 1000.0) == (251, simulate._MIN_BLOCK)
        # mean path 0.5n crosses on day 2001 with s = 1789.3: the first block
        # is capped
        assert block_plan(linear(0.5, 0, 20), 1000.0) == (simulate._MAX_BLOCK, 1790)
        # no mean crossing within the horizon: every block is the largest
        monkeypatch.setattr(simulate, "MAX_HORIZON", 100)
        assert block_plan(linear(0.01, 0, 0), 1000.0) == (simulate._MAX_BLOCK,) * 2
        # the mean path 0.25n first exceeds 1024 on day 4097, one day past
        # the first _MAX_BLOCK days
        spec = linear(0.25, 0, 0)
        monkeypatch.setattr(simulate, "MAX_HORIZON", 4096)
        assert block_plan(spec, 1024.0) == (simulate._MAX_BLOCK,) * 2
        monkeypatch.setattr(simulate, "MAX_HORIZON", 4097)
        assert block_plan(spec, 1024.0) == (simulate._MAX_BLOCK, simulate._MIN_BLOCK)

    def test_mean_path_is_read_only(self, monkeypatch):
        # every block of a cell adds its slice of one shared mean path, so a
        # write into it, such as an in-place cumsum, would shift later trends
        spec = seasonal(8, 0.4, 20)
        mu = simulate._mean_path(spec)
        assert np.array_equal(mu, spec.mean_at(np.arange(1, simulate.MAX_HORIZON + 1)))
        with pytest.raises(ValueError, match="read-only"):
            np.cumsum(mu, out=mu)
        first_passage, writeable = simulate._first_passage, []

        def spy(spec, tau, rngs, plan, mu):
            writeable.append(mu.flags.writeable)
            return first_passage(spec, tau, rngs, plan, mu)

        monkeypatch.setattr(simulate, "_first_passage", spy)
        simulate.simulate_hitting_times(spec, 1000.0, 2 * simulate._CHUNK + 1, seed=1)
        assert writeable == [False] * 3

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(range(len(PLAN_CASES))),
        first=st.integers(1, 500),
        later=st.integers(1, 300),
        edge_row=st.none() | st.integers(0, PLAN_REPLICATES - 1),
    )
    @example(case=0, first=1, later=1, edge_row=None)
    @example(case=1, first=1, later=1, edge_row=None)
    @example(case=2, first=256, later=256, edge_row=None)
    def test_hitting_times_do_not_depend_on_the_plan(self, case, first, later, edge_row):
        # day k is the stream's k-th draw and Z_n the sequential sum whatever
        # the block lengths; with edge_row set, that row crosses on the last
        # day of the first block and the first row crossing after it on the
        # last day of a later block
        spec, tau, cell = PLAN_CASES[case]
        expected = [_one_path_hitting_time(spec, tau, simulate.substream(5, cell, i))
                    for i in range(PLAN_REPLICATES)]
        if edge_row is not None:
            first = expected[edge_row]
            after = [nu - first for nu in expected if nu > first]
            if after:
                later = min(after)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_block_plan", lambda *args: (first, later))
            times = simulate.simulate_hitting_times(spec, tau, PLAN_REPLICATES, seed=5, cell=cell)
        assert times.tolist() == expected


def _assert_bulk_seeding_matches(seed, cell, start, stop):
    # each generator's seed words are SeedSequence's PCG64 words, and numpy's
    # PCG64 seeded from them is in substream's state
    rngs = [rng for words in simulate._substreams(seed, cell, start, stop)
            for rng in simulate._generators(words)]
    assert len(rngs) == stop - start
    for i, rng in zip(range(start, stop), rngs):
        # _seed_seq, not the seed_seq property, which numpy has only from 1.25
        words = rng.bit_generator._seed_seq.words
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        expected = np.random.SeedSequence((seed, cell, i)).generate_state(4, np.uint64)
        assert words.tolist() == expected.tolist(), f"replicate {i}"
        assert rng.bit_generator.state == simulate.substream(seed, cell, i).bit_generator.state


class TestBulkSeeding:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**128 - 1),
        cell=st.integers(0, 2**40 - 1),
        i=st.integers(0, 2**33 - 1),
    )
    @example(seed=0, cell=0, i=0)
    @example(seed=2**128 - 1, cell=2**40 - 1, i=2**33 - 1)
    def test_states_equal_seed_sequence(self, seed, cell, i):
        # multi-word entropy runs SeedSequence's mixing past its 4-word pool
        _assert_bulk_seeding_matches(seed, cell, i, i + 1)

    def test_range_across_word_boundary(self):
        # replicate indices from 2**32 on take two entropy words
        start = 2**32 - 2
        _assert_bulk_seeding_matches(7, 3, start, start + 4)

    def test_seed_words_subclass_iseedsequence(self):
        # a class only registered with the ABC sends every PCG64(...)
        # isinstance check through the registry in Python
        words = simulate._seed_words()
        assert np.random.bit_generator.ISeedSequence in words.__mro__
        assert simulate._seed_words() is words

    @pytest.mark.parametrize(
        "args", [(4, np.uint32), (8, np.uint64), (2, np.uint64), (4, np.int64), (4,)],
        ids=["uint32", "eight_words", "two_words", "int64", "default_dtype"],
    )
    def test_seed_words_refuse_any_other_request(self, args):
        # a numpy whose PCG64 asked for other words would fail, not seed another stream
        words = simulate._seed_words()(np.arange(4, dtype=np.uint64))
        assert words.generate_state(4, np.uint64) is words.words
        with pytest.raises(ValueError, match=r"generate_state\(4, uint64\) only"):
            words.generate_state(*args)

    def test_two_point_rows_start_with_empty_buffer(self, monkeypatch):
        # a row that draws an odd number of days from 32-bit halves leaves
        # one buffered in its generator; no replicate of any chunk may start
        # by reading a half left by another
        monkeypatch.setattr(simulate, "MAX_HORIZON", 513)
        spec, tau = linear(1, 0, 3, noise_law="two_point"), 250.0
        plan = block_plan(spec, tau)
        n = simulate._CHUNK + 2
        times = simulate.simulate_hitting_times(spec, tau, n, seed=6, cell=2)
        assert any(_rows_drawn(int(nu), plan) % 2 for nu in times[:2])
        loop = [_one_path_hitting_time(spec, tau, simulate.substream(6, 2, i))
                for i in range(n)]
        assert times.tolist() == loop

    @pytest.mark.parametrize("seed, cell", [(-1, 0), (0, -1)])
    def test_rejects_negative_seed_or_cell(self, seed, cell):
        with pytest.raises(ParameterError, match="must be >= 0"):
            simulate.simulate_hitting_times(linear(4, 0, 20), 100.0, 3, seed=seed, cell=cell)


class TestKsDistance:
    def test_exact_quantile_construction(self):
        # samples placed at the i/(n+1) normal quantiles have a tiny distance
        n = 999
        samples = stats.norm.ppf(np.arange(1, n + 1) / (n + 1))
        assert simulate.ks_distance(samples) < 0.002

    def test_point_mass_at_median(self):
        assert simulate.ks_distance([0.0, 0.0, 0.0]) == pytest.approx(0.5)

    def test_disjoint_support_limit(self):
        assert simulate.ks_distance([-1e6, -1e6 + 1, -1e6 + 2]) == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            simulate.ks_distance([])

    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(17)
        samples = rng.normal(0.3, 1.2, size=500)
        ours = simulate.ks_distance(samples)
        oracle = stats.kstest(samples, "norm").statistic
        assert ours == pytest.approx(oracle, rel=1e-12)


class TestRunSimulation1:
    def test_degenerate_noiseless(self):
        res = simulate.run_simulation_1(4, 0, 1000, sigma=0.0, replicates=50, seed=2)
        assert res.z_values is None and res.ks is None
        assert np.all(res.hitting_times == res.hitting_times[0])

    def test_summary_self_consistency(self):
        res = simulate.run_simulation_1(4, 0.1, 1000, replicates=500, seed=8)
        assert res.mean == pytest.approx(float(res.hitting_times.mean()))
        assert res.sd == pytest.approx(float(res.hitting_times.std(ddof=1)))
        assert res.replicate_count == 500 == len(res.hitting_times)
        assert np.all(res.hitting_times >= 1)
        assert np.all(res.hitting_times <= simulate.MAX_HORIZON)

    def test_z_standardized_against_matching_regime(self):
        res = simulate.run_simulation_1(4, 0.1, 2000, replicates=400, seed=8)
        assert res.z_values is not None
        theory = model.theory_approx(
            model.RegimeParams(alpha=4, beta=0.1, sigma=simulate.DEFAULT_SIGMA, tau=2000)
        )
        z_expected = (res.hitting_times - theory.mean) / theory.sd
        assert res.z_values == pytest.approx(z_expected)
        assert res.ks == pytest.approx(simulate.ks_distance(z_expected))


class TestRunGrid:
    def test_grid_shape_and_accessors(self):
        grid = simulate.run_grid(
            3, (4.0,), (0.2, 0.8), (500.0,),
            breakpoint_day=simulate.SIM2_BREAKPOINT_DAY, replicates=60,
        )
        assert set(grid.cells) == {(4.0, 0.2, 500.0), (4.0, 0.8, 500.0)}
        assert grid.mean(4.0, 0.2, 500.0) > grid.mean(4.0, 0.8, 500.0)
        assert grid.sd(4.0, 0.2, 500.0) > 0

    def test_diagnostics_only_on_linear_trend(self):
        # the closed forms describe the linear trend; a cell of a linear grid
        # is the one-cell run at its own cell number
        axes = ((4.0,), (0.1,), (500.0, 800.0))
        linear_grid = simulate.run_grid(5, *axes, replicates=40)
        seasonal_grid = simulate.run_grid(5, *axes, breakpoint_day=30, replicates=40)
        alone = simulate.run_simulation_1(4.0, 0.1, 800.0, replicates=40, seed=5, cell=1)
        cell = linear_grid.cells[(4.0, 0.1, 800.0)]
        assert np.array_equal(cell.hitting_times, alone.hitting_times)
        assert alone.ks is not None and cell.ks == alone.ks
        assert all(r.ks is None and r.z_values is None for r in seasonal_grid.cells.values())

    def test_format_tables_layout(self):
        grid = simulate.run_grid(
            3, (4.0, 8.0), (0.2,), (500.0,),
            breakpoint_day=simulate.SIM2_BREAKPOINT_DAY, replicates=40,
        )
        text = grid.format_tables()
        assert "mean, tau=500" in text
        assert "sd, tau=500" in text
        assert text.count("alpha\\beta") == 2


class TestCsvHelpers:
    def test_summary_rows(self):
        grid = simulate.run_grid(1, (4.0,), (0.0,), (500.0,), replicates=50)
        rows = simulate.summary_csv_rows(grid)
        assert rows[0] == "alpha,beta,tau,sigma,R,seed,mean,sd,ks"
        assert rows[1].startswith("4,0,500,20,50,1,")

    def test_histogram_rows_cover_counts(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=1000)
        rows = simulate.histogram_csv_rows(z)
        assert rows[0] == "bin_left,bin_right,count"
        total = sum(int(r.split(",")[2]) for r in rows[1:])
        assert total == np.sum((z >= -5) & (z <= 5))
