"""Self-test of the benchmark's own oracles, on inputs checked by hand.

    python3 perfbench/selftest.py

run.py calls main() before every run, so a broken oracle stops the
benchmark in about a second instead of passing or failing the program.
"""

from __future__ import annotations

import math

import numpy as np

import simcheck
import spans
import station


def check_sampler() -> None:
    rng = np.random.default_rng(0)
    # sigma = 0: Z_n = 4n first exceeds 1000 on day 251 (Z_250 == tau continues)
    winter = simcheck.sample_hitting_times(simcheck.linear_trend(4.0, 0.0), 0.0, 1000.0, 3, rng)
    assert winter.tolist() == [251] * 3, winter
    # flat 10/day to day 90, then 10 + 0.8(n - 90): Z_90 == 900 exactly,
    # Z_91 = 910.8; Z_97 = 992.4, Z_98 = 1008.8
    trend = simcheck.piecewise_trend(10.0, 0.8)
    seasonal = [simcheck.sample_hitting_times(trend, 0.0, tau, 2, rng).tolist() for tau in (900.0, 1000.0)]
    assert seasonal == [[91, 91], [98, 98]], seasonal
    # 2n + 0.05 n(n+1): 96.6 at n = 28, 101.5 at n = 29
    spring = simcheck.sample_hitting_times(simcheck.linear_trend(2.0, 0.1), 0.0, 100.0, 2, rng)
    assert spring.tolist() == [29] * 2, spring
    # a small-R grid cell against its published mean and sd: the rule passes
    # the sampler's own draws and rejects them shifted by one day
    key = (4.0, 0.8, 2000.0)
    cell = simcheck.CellSample.of(simcheck.sample_hitting_times(
        simcheck.piecewise_trend(4.0, 0.8), 20.0, 2000.0, 4000, simcheck.sampler_rng(1, "sim2")))
    pub_mean, pub_sd = simcheck.PUBLISHED_MEAN_SD[key]
    ok = simcheck.moment_failures("cell", cell.mean, cell.sd, 4000, cell, simcheck.R_PUBLISHED,
                                  ref_mean=pub_mean, ref_sd=pub_sd)
    assert not ok, ok
    shifted = simcheck.moment_failures("cell", cell.mean + 1.0, cell.sd, 4000, cell,
                                       simcheck.R_PUBLISHED, ref_mean=pub_mean, ref_sd=pub_sd)
    assert len(shifted) == 1 and "mean" in shifted[0], shifted


def check_statistics() -> None:
    d = simcheck.ks_two_sample(np.array([1, 2, 3]), np.array([2, 3, 4]))
    assert math.isclose(d, 1 / 3), d
    assert math.isclose(simcheck.ks_bound(10_000, 10_000), 0.038091, rel_tol=1e-4)
    assert simcheck.ks_normal(np.array([0.0])) == 0.5
    m, s = simcheck.theory_mean_sd(4.0, 0.0, 2000.0)
    assert (m, round(s, 4)) == (500.0, 111.8034)
    m, s = simcheck.theory_mean_sd(4.0, 0.8, 2000.0)
    assert math.isclose(4 * m + 0.4 * m * (m + 1), 2000.0) and round(m, 3) == 65.424, m


def check_station_oracle() -> None:
    # One degree of latitude on a 6371.0088 km sphere is 111.19508 km.
    assert math.isclose(station.haversine_km(42.0, -75.0, 43.0, -75.0), 111.19508, rel_tol=1e-6)
    dates = np.arange("2000-01-01", "2001-01-01", dtype="datetime64[D]")  # leap year
    tmax = np.full((2, 366), np.nan)
    tmin = np.full((2, 366), np.nan)
    # station A, Jan-Feb (60 days): 10 days at midrange -2 (clipped to 0), 50 at 2.0
    tmax[0, :10], tmin[0, :10] = 10, -50
    tmax[0, 10:60], tmin[0, 10:60] = 50, -10
    # station A, Mar-Apr (doy 61-121): midrange 0.1*(doy - 61), 12 of 61 days blank
    ramp = np.arange(61, dtype=float)
    tmax[0, 60:121], tmin[0, 60:121] = ramp + 10, ramp - 10
    tmax[0, 61:121:5] = np.nan  # 49/61 present, just over 80%
    # station B: Jan-Feb has 13 of 60 days blank (78% < 80%)
    tmax[1, :121], tmin[1, :121] = 30, 10
    tmax[1, 5:18] = np.nan
    archive = station.Archive(
        station_lat=np.array([42.0, 43.0]),
        station_lon=np.array([-75.0, -75.0]), dates=dates, tmax_tenths=tmax,
        tmin_tenths=tmin,
        observations=[("S1", 42.05, -75.0, 2000, 130),  # 5.6 km from A
                      ("S2", 42.0, -74.0, 2000, 131),  # 82.6 km from A
                      ("S3", 43.01, -75.0, 2000, 132)],  # 1.1 km from B
    )
    got = station.expected_join(archive)
    assert (got.n_observations, got.n_unmatched, got.n_incomplete) == (3, 1, 1), got
    ((site, year, alpha, beta, bloom),) = got.rows
    assert (site, year, bloom) == ("S1", 2000, 130)
    assert math.isclose(alpha, 100.0 / 60.0) and math.isclose(beta, 0.1), (alpha, beta)
    assert station._close_at_6_digits(float("1.66667"), alpha)
    assert not station._close_at_6_digits(float("1.66668"), alpha)
    assert station._close_at_6_digits(float("-0.000123457"), -0.0001234567)
    assert station._tenths(-5.0) == "-0.5" and station._tenths(123.0) == "12.3"


def check_import_layers() -> None:
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "perfbench: import start",
        "import time:       100 |        100 |     numpy._core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |       _ctypes",
        "import time:        30 |         50 |     scipy.special",
        "import time:         5 |         55 |   scipy",
        "import time:         7 |          7 |   click",
        "import time:        10 |        222 | thermalsum.cli",
        "perfbench: import done",
        "import time:       999 |        999 | late",
    ]) + "\n"
    layers = spans.import_layers(text)
    want = {"numpy": 150e-6, "scipy": 55e-6, "thermalsum": 17e-6}
    assert all(math.isclose(layers[k], want[k]) for k in want), layers


def main() -> None:
    check_sampler()
    check_statistics()
    check_station_oracle()
    check_import_layers()


if __name__ == "__main__":
    main()
    print("perfbench self-test passed")
