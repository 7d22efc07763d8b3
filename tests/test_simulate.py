from functools import cache
from itertools import chain, count
from unittest import mock

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
        for day in (float("nan"), float("inf"), 2.5, 90.0, "90", None):
            with pytest.raises(ParameterError, match="breakpoint_day must be an integer >= 0"):
                simulate.TemperatureProcessSpec(4, 0, 20, breakpoint_day=day)

    def test_accepts_numpy_integer_breakpoint_day(self):
        for day in (np.int32(90), np.int64(90)):
            assert simulate.TemperatureProcessSpec(4, 0.2, 20, breakpoint_day=day) == seasonal(4, 0.2, 20)

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
    # days a row crossing on day nu draws: up to the first block end at or
    # past nu, the plan's ends followed by _MAX_BLOCK-day blocks
    step = simulate._MAX_BLOCK
    ends = chain(plan, count((plan[-1] if plan else 0) + step, step))
    return min(next(end for end in ends if end >= nu), simulate.MAX_HORIZON)


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
            # winter paths of 500-2000 days, crossing in different blocks
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
        # winter paths crossing in different blocks exercise the carry of
        # rows that stay in the block matrix, and each chunk reloads
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
        for replicates in (0, 2.5, 3.0, "3", None):
            with pytest.raises(ParameterError, match="replicates must be an integer >= 1"):
                simulate.simulate_hitting_times(linear(4, 0, 20), 100.0, replicates, seed=1)

    def test_accepts_numpy_integer_counts(self):
        spec = linear(4, 0, 20)
        want = simulate.simulate_hitting_times(spec, 100.0, 5, seed=3, cell=2)
        got = simulate.simulate_hitting_times(spec, 100.0, np.int64(5), seed=np.uint32(3), cell=np.int32(2))
        assert got.tolist() == want.tolist()


# (spec, tau, cell): Gaussian rows crossing in 150-250 days, two-point rows
# near day 300, and a noiseless path whose crossing day a block carry added
# after the cumsum would round away
PLAN_CASES = [
    (linear(4, 0.1, 20), 800.0, 1),
    (linear(1, 0, 3, noise_law="two_point"), 300.0, 2),
    (linear(0.1, 0, 0), 25.800000000000093, 0),
]
PLAN_REPLICATES = simulate._CHUNK + 3


# block ends of every bundled grid cell
SIM1_PLANS = {
    (2.0, 0.0, 1000.0): (435, 584, 807, 1030, 1402, 1774, 2146, 2518, 2890, 3262, 3635),
    (2.0, 0.0, 2000.0): (912, 1173, 1434, 1695, 2043, 2479, 2914, 3349, 3784, 4219, 4481),
    (2.0, 0.1, 1000.0): (142, 174, 195, 204),
    (2.0, 0.1, 2000.0): (197, 225, 243, 251),
    (4.0, 0.0, 1000.0): (272, 380, 533, 707, 859, 1012, 1121),
    (4.0, 0.0, 2000.0): (521, 655, 842, 1029, 1216, 1377, 1511),
    (4.0, 0.1, 1000.0): (123, 153, 173, 183),
    (4.0, 0.1, 2000.0): (180, 206, 224, 231),
}
SIM2_PLANS = {
    (4.0, 0.2, 1000.0): (169, 198, 213, 219),
    (4.0, 0.2, 2000.0): (226, 243, 253),
    (4.0, 0.4, 1000.0): (162, 176, 182),
    (4.0, 0.4, 2000.0): (189, 201, 206),
    (4.0, 0.8, 1000.0): (142, 151, 155),
    (4.0, 0.8, 2000.0): (162, 169, 172),
    (8.0, 0.2, 1000.0): (134, 162, 180, 186),
    (8.0, 0.2, 2000.0): (196, 213, 223),
    (8.0, 0.4, 1000.0): (139, 153, 162),
    (8.0, 0.4, 2000.0): (172, 184, 188),
    (8.0, 0.8, 1000.0): (129, 139, 143),
    (8.0, 0.8, 2000.0): (151, 159, 161),
    (10.0, 0.2, 1000.0): (119, 148, 166, 171),
    (10.0, 0.2, 2000.0): (183, 199, 209),
    (10.0, 0.4, 1000.0): (129, 145, 152),
    (10.0, 0.4, 2000.0): (163, 175, 179),
    (10.0, 0.8, 1000.0): (122, 132, 136),
    (10.0, 0.8, 2000.0): (145, 153, 156),
}
BUNDLED_CELLS = [(linear(a, b, simulate.DEFAULT_SIGMA), tau) for a, b, tau in SIM1_PLANS] + [
    (seasonal(a, b, simulate.DEFAULT_SIGMA), tau) for a, b, tau in SIM2_PLANS
]


@cache
def _plan_model(case):
    # candidate days and survival S(n) = P(Z_n <= tau) of a bundled cell,
    # recomputed with scipy's normal CDF over every day
    spec, tau = BUNDLED_CELLS[case]
    days = np.arange(1, simulate.MAX_HORIZON + 1)
    mean = np.cumsum(spec.mean_at(days))
    survival = np.concatenate(([1.0], stats.norm.cdf((tau - mean) / (spec.noise_sigma * np.sqrt(days)))))
    first, last = int(np.argmax(survival < 0.999)), int(np.argmax(survival < 1e-7))
    k = simulate._CANDIDATES - 1
    candidates = sorted({first + i * (last - first) // k for i in range(k + 1)})
    return tuple(candidates), survival


def _modelled_cost(ends, survival):
    # cost per replicate of the blocks (0, e_1], (e_1, e_2], ...
    total, a = 0.0, 0
    for b in ends:
        s = survival[a]
        total += (simulate._C_BLOCK * (1 - (1 - s) ** simulate._CHUNK) / simulate._CHUNK
                  + s * (simulate._C_ROW + simulate._C_DAY * (b - a)))
        a = b
    return total


class TestBlockPlan:
    def test_bundled_cells_keep_their_plans(self):
        sigma = simulate.DEFAULT_SIGMA
        for (a, b, tau), plan in SIM1_PLANS.items():
            assert block_plan(linear(a, b, sigma), tau) == plan
        for (a, b, tau), plan in SIM2_PLANS.items():
            assert block_plan(seasonal(a, b, sigma), tau) == plan

    def test_noiseless_and_uncrossed_cells(self):
        # sigma = 0: one block, ending on the first day the mean path 4n
        # exceeds 1000 (Z_250 = 1000 ties and continues)
        assert block_plan(linear(4, 0, 0), 1000.0) == (251,)
        # no mean crossing: the mean path 0.01n stays below 1000
        assert block_plan(linear(0.01, 0, 20), 1000.0) == ()
        assert block_plan(linear(0.01, 0, 0), 1000.0) == ()
        # the mean path 0.1n crosses 999 on day 9991, but S(10_000) =
        # Phi(-0.0005) never falls below 1e-7
        assert block_plan(linear(0.1, 0, 20), 999.0) == ()

    def test_block_bounds(self, monkeypatch):
        # every block of the bundled cells and of cells crossing past the
        # first _MAX_BLOCK days is 1 to _MAX_BLOCK days, within the horizon;
        # uncapped, the cheapest plan of linear(0.8, 0, 2.5) at 3600 would
        # open with a 4443-day block
        cases = BUNDLED_CELLS + [
            (linear(0.5, 0, 1), 2500.0), (linear(0.25, 0, 0), 1024.0), (linear(0.8, 0, 2.5), 3600.0),
        ]
        for spec, tau in cases:
            plan = block_plan(spec, tau)
            blocks = np.diff((0,) + plan)
            assert len(plan) and plan[-1] <= simulate.MAX_HORIZON
            assert blocks.min() >= 1 and blocks.max() <= simulate._MAX_BLOCK, (spec, tau, plan)
        # the mean path 0.5n crosses 2500 on day 5001: _MAX_BLOCK days run
        # ahead of the first candidate day
        plan = block_plan(linear(0.5, 0, 1), 2500.0)
        assert plan[0] == simulate._MAX_BLOCK < plan[1]
        # the mean path 0.25n first exceeds 1024 on day 4097, one day past
        # the first _MAX_BLOCK days
        spec = linear(0.25, 0, 0)
        assert block_plan(spec, 1024.0) == (simulate._MAX_BLOCK, 4097)
        monkeypatch.setattr(simulate, "MAX_HORIZON", 4096)
        assert block_plan(spec, 1024.0) == ()
        # past the plan's ends, blocks are _MAX_BLOCK days up to MAX_HORIZON
        monkeypatch.setattr(simulate, "MAX_HORIZON", 10_000)
        monkeypatch.setattr(simulate, "_block_plan", lambda *args: (5,))
        block_values, lengths = simulate._block_values, []

        def spy(spec, rngs, mu):
            lengths.append(len(mu))
            return block_values(spec, rngs, mu)

        monkeypatch.setattr(simulate, "_block_values", spy)
        with pytest.raises(HorizonExceeded):
            simulate.simulate_hitting_times(linear(0.01, 0, 0), 1000.0, 3, seed=1)
        assert lengths == [5, 4096, 4096, 1803]

    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from(range(len(BUNDLED_CELLS))), keep=st.lists(st.booleans()))
    @example(case=1, keep=[True] * simulate._CANDIDATES)
    @example(case=1, keep=[])
    def test_plan_is_the_cheapest_chain_of_candidates(self, case, keep):
        # no plan through the same candidate days, ending on the last one,
        # costs less under the model: neither one drawn from the candidates
        # nor one that drops a chosen end or adds a candidate
        candidates, survival = _plan_model(case)
        plan = block_plan(*BUNDLED_CELLS[case])
        assert set(plan) <= set(candidates) and plan[-1] == candidates[-1]
        drawn = tuple(c for c, k in zip(candidates[:-1], keep) if k) + candidates[-1:]
        nearby = [plan[:i] + plan[i + 1:] for i in range(len(plan) - 1)]
        nearby += [tuple(sorted(plan + (c,))) for c in candidates if c not in plan]
        best = _modelled_cost(plan, survival)
        for other in [drawn] + nearby:
            if np.diff((0,) + other).max() <= simulate._MAX_BLOCK:
                assert best <= _modelled_cost(other, survival) * (1 + 1e-9), other

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
        ends=st.lists(st.integers(1, 600), unique=True, max_size=20).map(lambda e: tuple(sorted(e))),
        edge_row=st.none() | st.integers(0, PLAN_REPLICATES - 1),
    )
    @example(case=0, ends=tuple(range(1, 601)), edge_row=None)
    @example(case=1, ends=tuple(range(1, 601)), edge_row=None)
    @example(case=2, ends=(), edge_row=None)
    def test_hitting_times_do_not_depend_on_the_plan(self, case, ends, edge_row):
        # day k is the stream's k-th draw and Z_n the sequential sum whatever
        # the block ends, 1-day blocks and the empty plan included; with
        # edge_row set, that row crosses on the last day of the first block
        # and the first row crossing after it on the last day of the second
        spec, tau, cell = PLAN_CASES[case]
        expected = [_one_path_hitting_time(spec, tau, simulate.substream(5, cell, i))
                    for i in range(PLAN_REPLICATES)]
        if edge_row is not None:
            edge = expected[edge_row]
            after = [nu for nu in expected if nu > edge]
            head = (edge, min(after)) if after else (edge,)
            ends = head + tuple(end for end in ends if end > head[-1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_block_plan", lambda *args: ends)
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

    @pytest.mark.parametrize("seed, cell", [(-1, 0), (0, -1), (1.5, 0), (1.0, 0), (0, 2.5), (0, 2.0)])
    def test_rejects_negative_seed_or_cell(self, seed, cell):
        with pytest.raises(ParameterError, match="(seed|cell) must be an integer >= 0"):
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

    @pytest.mark.parametrize("axes, name", [
        (((4.0, 4.0), (0.1,), (500.0,)), "alphas"),
        (((4.0, 4), (0.1,), (500.0,)), "alphas"),
        (((4.0,), (0.1, 0.2, 0.1), (500.0,)), "betas"),
        (((4.0,), (0.1,), (500.0, 500)), "taus"),
    ])
    def test_rejects_repeated_axis_value(self, axes, name):
        # a repeated value would key two simulated cells alike, and the grid
        # would keep only one of them
        with mock.patch.object(simulate, "_run_cell") as run_cell, \
                pytest.raises(ParameterError, match=f"{name} must be distinct"):
            simulate.run_grid(1, *axes, replicates=20)
        run_cell.assert_not_called()

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
