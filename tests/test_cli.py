import csv
import datetime
import errno
import functools
import hashlib
import itertools
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from station_csv import StationRecord, write_temperature_csv
import thermalsum
from thermalsum import data_io, fitting, regimes, simulate
from thermalsum.cli import main


@pytest.fixture
def runner():
    return CliRunner()


class TestApprox:
    @pytest.mark.parametrize(
        "args, lines",
        [
            (["--alpha", "4", "--beta", "0.8", "--tau", "2000", "--sigma", "20"],
             ["regime=spring mean=65.2107 variance=8.83883 linearized_variance=8.24469 "
              "m_tau=65.4243 gamma=5.5"]),
            (["--alpha", "4", "--beta", "0.8", "--tau", "100"],
             ["regime=spring mean=10.3114 variance=0 linearized_variance=0 "
              "m_tau=11.2407 gamma=5.5",
              "warning: deterministic crossing under 30 days; large-threshold "
              "approximation is questionable here"]),
            (["--alpha", "4", "--tau", "1000", "--sigma", "20"],
             ["regime=winter mean=250 variance=6250"]),
        ],
        ids=["spring", "spring_short_horizon", "winter"],
    )
    def test_output_lines(self, runner, args, lines):
        result = runner.invoke(main, ["approx"] + args)
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == lines

    @pytest.mark.parametrize(
        "args, field",
        [
            (["--alpha", "4", "--tau", "inf"], "tau"),
            (["--alpha", "inf", "--tau", "10"], "alpha"),
            (["--alpha", "4", "--beta", "0.5", "--tau", "inf"], "tau"),
            (["--alpha", "4", "--beta", "inf", "--tau", "10"], "beta"),
            (["--alpha", "4", "--sigma", "inf", "--tau", "10"], "sigma"),
            (["--alpha", "4", "--sigma", "nan", "--tau", "10"], "sigma"),
        ],
        ids=["winter_tau_inf", "alpha_inf", "spring_tau_inf", "beta_inf", "sigma_inf", "sigma_nan"],
    )
    def test_non_finite_parameter_exits_2(self, runner, args, field):
        result = runner.invoke(main, ["approx"] + args)
        assert result.exit_code == 2, result.output
        assert f"{field} must be finite" in result.output

    def test_winter_output(self, runner):
        result = runner.invoke(
            main, ["approx", "--alpha", "4", "--beta", "0", "--tau", "1000", "--sigma", "20"]
        )
        assert result.exit_code == 0
        assert "regime=winter" in result.output
        assert "mean=250" in result.output
        assert "variance=6250" in result.output

    def test_spring_output(self, runner):
        result = runner.invoke(
            main, ["approx", "--alpha", "4", "--beta", "0.8", "--tau", "2000", "--sigma", "20"]
        )
        assert result.exit_code == 0
        assert "regime=spring" in result.output
        assert "mean=65.2107" in result.output

    def test_invalid_alpha_exits_2_naming_precondition(self, runner):
        result = runner.invoke(main, ["approx", "--alpha", "-1", "--tau", "10"])
        assert result.exit_code == 2
        assert "alpha must be > 0" in result.output

    def test_short_horizon_warning(self, runner):
        result = runner.invoke(
            main, ["approx", "--alpha", "4", "--beta", "0.8", "--tau", "100"]
        )
        assert result.exit_code == 0
        assert "questionable" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["--alpha", "1e200", "--tau", "10", "--sigma", "1"],
            ["--alpha", "1e-300", "--tau", "1e10", "--sigma", "1"],
            ["--alpha", "1", "--beta", "1e-200", "--tau", "1e300", "--sigma", "1"],
        ],
        ids=["alpha_cubed_overflows", "alpha_cubed_underflows", "spring_mean_overflows"],
    )
    def test_result_outside_doubles_exits_2(self, runner, args):
        result = runner.invoke(main, ["approx"] + args)
        assert result.exit_code == 2, result.output
        assert "is not finite at RegimeParams(" in result.output


_log_uniform = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None)
@given(alpha=_log_uniform, beta=st.just(0.0) | _log_uniform,
       sigma=st.just(0.0) | _log_uniform, tau=_log_uniform)
def test_approx_prints_finite_numbers_or_exits_2(alpha, beta, sigma, tau):
    args = ["--alpha", repr(alpha), "--beta", repr(beta), "--sigma", repr(sigma), "--tau", repr(tau)]
    result = CliRunner().invoke(main, ["approx"] + args)
    assert result.exit_code in (0, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    if result.exit_code == 0:
        fields = [f.split("=", 1)[1] for f in result.output.splitlines()[0].split()[1:]]
        assert fields and all(math.isfinite(float(f)) for f in fields), result.output


class TestReproduceSim2:
    def test_writes_artifacts(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["reproduce", "sim2", "--seed", "3", "--r", "60", "--threads", "1",
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        run = tmp_path / "sim2-seed3"
        assert (run / "tables.txt").exists()
        summary = (run / "summary.csv").read_text(encoding="utf-8")
        assert summary.splitlines()[0] == "alpha,beta,tau,sigma,R,seed,mean,sd,ks"
        assert len(summary.splitlines()) == 19  # header + 18 cells

    def test_refuses_overwrite_without_force(self, runner, tmp_path):
        args = ["reproduce", "sim2", "--seed", "3", "--r", "40", "--threads", "1",
                "--out", str(tmp_path)]
        assert runner.invoke(main, args).exit_code == 0
        rerun = runner.invoke(main, args)
        assert rerun.exit_code == 2
        assert "--force" in rerun.output
        assert runner.invoke(main, args + ["--force"]).exit_code == 0

    def test_requires_seed(self, runner, tmp_path):
        result = runner.invoke(main, ["reproduce", "sim2", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "--seed" in result.output


class TestReproduceSim1:
    def test_writes_histograms_and_raw(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["reproduce", "sim1", "--seed", "5", "--r", "50", "--threads", "1",
             "--out", str(tmp_path), "--raw"],
        )
        assert result.exit_code == 0, result.output
        run = tmp_path / "sim1-seed5"
        hists = sorted(p.name for p in run.glob("hist_*.csv"))
        raws = sorted(p.name for p in run.glob("raw_*.txt"))
        assert len(hists) == 8 and len(raws) == 8
        raw = (run / raws[0]).read_text(encoding="utf-8").splitlines()
        assert len(raw) == 50 and all(int(x) >= 1 for x in raw)

    def test_force_replaces_stale_outputs(self, runner, tmp_path):
        # a forced rerun without --raw must not leave the earlier run's raw files
        # beside its own summary
        base = ["reproduce", "sim1", "--seed", "7", "--out", str(tmp_path)]
        assert runner.invoke(main, base + ["--r", "50", "--raw"]).exit_code == 0
        result = runner.invoke(main, base + ["--r", "20", "--force"])
        assert result.exit_code == 0, result.output
        run = tmp_path / "sim1-seed7"
        assert not list(run.glob("raw_*.txt"))
        assert len(list(run.glob("hist_*.csv"))) == 8
        summary = (run / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert all(line.split(",")[4] == "20" for line in summary[1:])

    def test_check_passes_at_reference_seed(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["reproduce", "sim1", "--seed", "7", "--threads", "1", "--out", str(tmp_path),
             "--check"],
        )
        assert result.exit_code == 0, result.output
        ks_lines = [ln for ln in result.output.splitlines() if "sim1 ks a=" in ln]
        assert len(ks_lines) == 8 and all("< bound" in ln for ln in ks_lines)


# sha256 of every file in the run directories of `reproduce sim1 --seed 7
# --r 200 --raw`, `reproduce sim2 --seed 7 --r 200`, `reproduce walnut` and
# `reproduce lilac-bins` on _write_lilac_fixture's data. They pin the outputs
# end to end: substreams, cell numbering, trend, summaries and export; the
# walnut fit; and the lilac parse, join, regime estimates and binning.
GOLDEN_RUN_DIGESTS = {
    "sim1-seed7": {
        "hist_a2_b0.1_tau1000.csv": "4bc8abed25d489698a2ffb59037f4d98818ef2b7a7a0d7fbe474c27f55d234ed",
        "hist_a2_b0.1_tau2000.csv": "995d88cb295f5002504562a2b612b0f2f6e1be190b8049be5e9a612c402e3386",
        "hist_a2_b0_tau1000.csv": "3f22ec872b9979aeee324ca2c795941e6de459ad9d83f2661ae9a45e26de9276",
        "hist_a2_b0_tau2000.csv": "631586c1f2b4853eb9c4251e9b438dfee9c5ae9f67aad9c652bf9c84323c407f",
        "hist_a4_b0.1_tau1000.csv": "7428224b465eb492e5528cb09215c29c2b25d849291ba502ce823106e3a58fbb",
        "hist_a4_b0.1_tau2000.csv": "1f6380502a11da76717fe0fa081f58e3617f0214338b5f105d850057f609f736",
        "hist_a4_b0_tau1000.csv": "a566e791b5add81fbf73e6efed8e9c550a6970e6ee7fefe980ef87d8dc1318fd",
        "hist_a4_b0_tau2000.csv": "fa12e71867d1bba2237d9c81fc13ff17aeec57d9f3ec667ee3e286ed6bc00aeb",
        "raw_a2_b0.1_tau1000.txt": "a70c51b5d3295884a2502539bbf1823dc29ae2ae1ca02c27acaf9a34034408ca",
        "raw_a2_b0.1_tau2000.txt": "420dc8f5b0b175991f099dc2657ef067372eb1b2f5cb06e511e4e04b39360dec",
        "raw_a2_b0_tau1000.txt": "21cb8404875aae949f1637cf5078cfc489c479f2060eacf56b4d4ff023a6f1f6",
        "raw_a2_b0_tau2000.txt": "b89eb18de16eaabeaaa1fc7a11e868a7e9610d5fdfe8a9a42b862f8e57a103f6",
        "raw_a4_b0.1_tau1000.txt": "27f6c6ec337c6e0339141e3472879d4ccbba5cf586d8cbda165049d15c724837",
        "raw_a4_b0.1_tau2000.txt": "cc5ef372f53015f3cfba53126854516d88a230be8b629d9e4267f66b49c1a601",
        "raw_a4_b0_tau1000.txt": "56727d50c019bf984affee32d604586e428d117d1512fa35a2c9dc5d0f02ace1",
        "raw_a4_b0_tau2000.txt": "60501922febfb2de1671efdf78739f0e6efc7024038ac13be13c3f0f6a21765b",
        "summary.csv": "738e72016cb2b75c3dbe8480628c828d1afbd8cd28d854ac7395a4caf94c1c16",
    },
    "sim2-seed7": {
        "summary.csv": "58b9a813ceb59d6af1db0a6a6afc667515d7b384a3ad034d5b8403a7be96503e",
        "tables.txt": "4c7e0b993659c4e14a3efb5005f7a47a4e2729deb08c05f286b698813782e1d8",
    },
    "walnut": {
        "fit.csv": "d8eff80c8ea1981c67bedf2f6545d66066677f09c1f83b4746659434e78b0f6b",
        "fit.txt": "96c9a5520715224b0b495a58011cf7548bf0bad84c4afce1882250ad93992d98",
    },
    "lilac-bins": {
        "analysis_rows.csv": "ab503a5c9271ecca22d9c19d336fc69e7feba27fde15c4e71f493fdb3c9335d4",
        "grid.csv": "8e4e19206ea9709c9ac3438f71f51d0f6fefa16456d2facef320383106821840",
        "tables.txt": "53cc9aaf7bbfb6fa8624ba00e39d59b207278c8e493967566bdb5b770981b7ca",
    },
}


@pytest.mark.parametrize(
    "target, extra",
    [
        ("sim1", ["--seed", "7", "--r", "200", "--raw"]),
        ("sim2", ["--seed", "7", "--r", "200"]),
        ("walnut", []),
        ("lilac-bins", []),
    ],
    ids=["sim1", "sim2", "walnut", "lilac-bins"],
)
def test_golden_run_directory(runner, tmp_path, target, extra):
    if target == "lilac-bins":
        _write_lilac_fixture(tmp_path / "data")
        extra = ["--data-dir", str(tmp_path / "data")]
    out = tmp_path / "runs"
    result = runner.invoke(main, ["reproduce", target, "--out", str(out)] + extra)
    assert result.exit_code == 0, result.output
    (run,) = out.iterdir()
    assert _digests(run) == GOLDEN_RUN_DIGESTS[run.name]


def _digests(run):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in run.iterdir()}


def _rewrite_csv(path, edit=lambda rows: rows, quoting=csv.QUOTE_MINIMAL):
    """Rewrite path through csv.writer with CRLF endings, its rows first passed
    to edit (csv.writer quotes a lone CR only under a CRLF terminator)."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = edit(list(csv.reader(fh)))
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=quoting, lineterminator="\r\n").writerows(rows)


def test_golden_lilac_bins_through_the_csv_path(runner, tmp_path):
    # every cell quoted and CRLF endings: csv.reader reads each file whole
    _write_lilac_fixture(tmp_path / "data")
    for path in (tmp_path / "data").iterdir():
        _rewrite_csv(path, quoting=csv.QUOTE_ALL)
    out = tmp_path / "runs"
    result = runner.invoke(
        main, ["reproduce", "lilac-bins", "--out", str(out), "--data-dir", str(tmp_path / "data")]
    )
    assert result.exit_code == 0, result.output
    assert _digests(out / "lilac-bins") == GOLDEN_RUN_DIGESTS["lilac-bins"]


class TestReproduceWalnut:
    def test_fit_artifacts_and_check(self, runner, tmp_path):
        result = runner.invoke(
            main, ["reproduce", "walnut", "--out", str(tmp_path), "--check"]
        )
        assert result.exit_code == 0, result.output
        run = tmp_path / "walnut"
        assert "tau_hat=599" in (run / "fit.txt").read_text(encoding="utf-8")
        assert (run / "fit.csv").read_text(encoding="utf-8").splitlines()[0] == (
            "alpha,n,mean_obs,sd_obs,mean_fit,sd_fit"
        )
        assert "all " in result.output and "checks passed" in result.output


def _write_lilac_fixture(root, alpha_shift=None):
    # alpha_shift: {(station_id, year): degC added to that station-year's winter mean}
    root.mkdir(parents=True, exist_ok=True)
    records = []
    for sid, lat, base in [("ST1", 40.0, 3.0), ("ST2", 42.0, 6.0)]:
        for year in (2020, 2021):
            alpha = base + (alpha_shift or {}).get((sid, year), 0.0)
            aw_stop = regimes.alpha_window(year).stop
            bw = regimes.beta_window(year)
            for doy in range(1, bw.stop + 1):
                day = datetime.date(year, 1, 1) + datetime.timedelta(days=doy - 1)
                mid = alpha if doy <= aw_stop else alpha + 0.2 * (doy - bw.start)
                records.append(
                    StationRecord(sid, day, lat, -75.0, mid + 1.0, mid - 1.0)
                )
    write_temperature_csv(records, root / "daily_temperatures.csv")
    lines = ["site_id,lat,lon,year,bloom_doy,species,phenophase"]
    doy = 120
    for i, (lat, year) in enumerate(
        [(40.0, 2020), (40.0, 2021), (42.0, 2020), (42.0, 2021)]
    ):
        lines.append(f"L{i},{lat},-75.0,{year},{doy + 5 * i},common lilac,full bloom")
    (root / "lilac_phenology.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _past_one_chunk(lines, monkeypatch):
    """The fixture's header and its rows three times over: more than one parse
    chunk, once chunks are cut to 256 lines."""
    monkeypatch.setattr(data_io, "_PARSE_ROWS", 256)
    assert 3 * (len(lines) - 1) > data_io._PARSE_ROWS + 1
    return lines[:1] + lines[1:] * 3


class TestReproduceLilacBins:
    def test_missing_data_exits_3(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "nowhere")],
        )
        assert result.exit_code == 3
        assert "missing data" in result.output

    def test_with_data_builds_grid(self, runner, tmp_path):
        _write_lilac_fixture(tmp_path / "data")
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "data")],
        )
        assert result.exit_code == 0, result.output
        run = tmp_path / "runs" / "lilac-bins"
        rows = (run / "analysis_rows.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "site,year,alpha,beta,bloom_doy"
        assert len(rows) == 5  # 4 observations all matched
        assert (run / "grid.csv").exists()
        assert (run / "tables.txt").exists()

    def test_check_reports_values_clamped_on_the_reference_edges(self, runner, tmp_path):
        # a winter mean of 20 degC lies above the top published alpha edge, 16.4
        _write_lilac_fixture(tmp_path / "data", alpha_shift={("ST2", 2021): 14.0})
        args = ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
                "--data-dir", str(tmp_path / "data")]
        plain = runner.invoke(main, args)
        assert plain.exit_code == 0, plain.output
        assert "clamped" not in plain.output
        result = runner.invoke(main, args + ["--check", "--force"])
        assert "lilac-bins reference edges: 1 alpha/beta values clamped into boundary bins; " \
               "degenerate alpha=False beta=False" in result.output
        assert result.exit_code == 1  # four rows leave most published bins empty

    def test_rerun_without_force_exits_2_before_reading_inputs(self, runner, tmp_path, monkeypatch):
        _write_lilac_fixture(tmp_path / "data")
        args = ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
                "--data-dir", str(tmp_path / "data")]
        assert runner.invoke(main, args).exit_code == 0
        run = tmp_path / "runs" / "lilac-bins"
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        for name in ("parse_phenology_csv", "parse_temperature_csv"):
            monkeypatch.setattr(data_io, name, _raise_on_call(getattr(data_io, name), 1,
                                                              AssertionError(f"{name} called")))
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"{run} already has outputs; pass --force to overwrite" in result.output
        assert "rows from" not in result.output
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_data_dir_env_fallback(self, runner, tmp_path, monkeypatch):
        _write_lilac_fixture(tmp_path / "envdata")
        monkeypatch.setenv("THERMALSUM_DATA_DIR", str(tmp_path / "envdata"))
        result = runner.invoke(
            main, ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs")]
        )
        assert result.exit_code == 0, result.output

    def test_check_without_data_runs_synthetic_pipeline(self, runner, tmp_path):
        # tiny replicate count: the pipeline itself must run end to end; the
        # full-size tolerance check lives in the acceptance suite
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--seed", "2", "--r", "200", "--threads", "1",
             "--check", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "nowhere")],
        )
        assert "synthetic binning pipeline" in result.output
        assert (tmp_path / "runs" / "lilac-bins-seed2" / "grid.csv").exists()
        assert result.exit_code in (0, 1)  # tolerance is tuned for R=10000

    @pytest.mark.parametrize(
        "edits",
        [
            [("lilac_phenology.csv", ",120,", ",131.5,")],
            [("lilac_phenology.csv", "site_id,", "site,")],
            [("daily_temperatures.csv", "station_id,", "station,")],
            [("lilac_phenology.csv", "L0,40.0,", "L0,95.0,")],
            [("lilac_phenology.csv", "L0,40.0,", "L0,nan,")],
            [("lilac_phenology.csv", "-75.0,2020,120,", "inf,2020,120,")],
            [("lilac_phenology.csv", "2021,125,", "2021,366,")],
            [("lilac_phenology.csv", "L0,40.0,", ",40.0,")],
            # the phenology file is parsed first, so it is the one named
            [("lilac_phenology.csv", "site_id,", "site,"),
             ("daily_temperatures.csv", "station_id,", "station,")],
        ],
        ids=["non_integer_doy", "phenology_header", "temperature_header",
             "site_lat_out_of_range", "site_lat_nan", "site_lon_inf",
             "bloom_doy_366_non_leap", "blank_site_id", "both_headers"],
    )
    def test_malformed_input_exits_2_without_run_dir(self, runner, tmp_path, edits):
        _write_lilac_fixture(tmp_path / "data")
        for filename, old, new in edits:
            path = tmp_path / "data" / filename
            path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "data")],
        )
        assert result.exit_code == 2, result.output
        assert edits[0][0] in result.output
        assert not (tmp_path / "runs").exists()
        if len(edits) > 1:
            assert edits[1][0] not in result.output

    def test_empty_phenology_file_exits_2_without_run_dir(self, runner, tmp_path):
        _write_lilac_fixture(tmp_path / "data")
        path = tmp_path / "data" / "lilac_phenology.csv"
        path.write_text("", encoding="utf-8")
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "data")],
        )
        assert result.exit_code == 2, result.output
        assert f"{path} is empty" in result.output
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("year", [0, -5, 10000])
    def test_year_outside_the_calendar_exits_2_without_run_dir(self, runner, tmp_path, year):
        _write_lilac_fixture(tmp_path / "data")
        path = tmp_path / "data" / "lilac_phenology.csv"
        path.write_text(path.read_text(encoding="utf-8").replace(
            "L0,40.0,-75.0,2020,", f"L0,40.0,-75.0,{year},", 1), encoding="utf-8")
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "data")],
        )
        assert result.exit_code == 2, result.output
        assert f"{path}:2: year {year} outside [1, 9999]" in result.output
        assert not (tmp_path / "runs").exists()

    def test_zero_joined_rows_exits_3_without_run_dir(self, runner, tmp_path):
        _write_lilac_fixture(tmp_path / "data")
        (tmp_path / "data" / "lilac_phenology.csv").write_text(
            "site_id,lat,lon,year,bloom_doy,species,phenophase\n"
            "L9,10.0,-75.0,2021,130,common lilac,full bloom\n",
            encoding="utf-8",
        )
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "data")],
        )
        assert result.exit_code == 3, result.output
        assert "0 rows from 1 observations (1 unmatched" in result.output
        assert "no observation joined a complete station-year" in result.output
        assert not (tmp_path / "runs").exists()

    def test_too_few_joined_rows_exit_3_and_keep_earlier_run(self, runner, tmp_path):
        # two joined rows cannot fill 4 quantile bins: a forced rerun must
        # neither write a partial run nor delete the earlier complete one
        _write_lilac_fixture(tmp_path / "data")
        args = ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
                "--data-dir", str(tmp_path / "data")]
        assert runner.invoke(main, args).exit_code == 0
        run = tmp_path / "runs" / "lilac-bins"
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        phenology = tmp_path / "data" / "lilac_phenology.csv"
        lines = phenology.read_text(encoding="utf-8").splitlines()
        phenology.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
        result = runner.invoke(main, args + ["--force"])
        assert result.exit_code == 3, result.output
        assert "2 rows from 2 observations" in result.output
        assert "missing data: 2 joined rows are too few for 4 quantile bins" in result.output
        assert "Usage:" not in result.output
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize(
        "filename, damage",
        [
            ("lilac_phenology.csv", "byte_e9"),
            ("daily_temperatures.csv", "byte_e9"),
            ("lilac_phenology.csv", "directory"),
            ("daily_temperatures.csv", "directory"),
            ("daily_temperatures.csv", "long_field"),
            ("lilac_phenology.csv", "long_field"),
            ("daily_temperatures.csv", "long_field_late"),
        ],
        ids=["phenology_byte_e9", "temperature_byte_e9", "phenology_directory",
             "temperature_directory", "temperature_long_field", "phenology_long_field",
             "temperature_long_field_late"],
    )
    def test_unreadable_input_exits_2_without_run_dir(self, runner, tmp_path, monkeypatch,
                                                      filename, damage):
        _write_lilac_fixture(tmp_path / "data")
        path = tmp_path / "data" / filename
        if damage == "byte_e9":
            data = path.read_bytes()
            start = data.index(b"\n") + 1  # the first row after the header
            path.write_bytes(data[:start] + b"\xe9" + data[start:])
        elif damage == "directory":
            path.unlink()
            path.mkdir()
        else:
            # past the csv module's 131,072-character field limit, on the first
            # row, or ("long_field_late") on the first row of the second chunk
            lines = path.read_text(encoding="utf-8").splitlines()
            row = 1
            if damage == "long_field_late":
                lines = _past_one_chunk(lines, monkeypatch)
                row = data_io._PARSE_ROWS + 1
            lines[row] = "X" * 200_000 + lines[row]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "data")],
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"cannot read {path}" in result.output
        assert not (tmp_path / "runs").exists()

    def test_nul_past_the_first_chunk_reads_as_csv_does(self, runner, tmp_path, monkeypatch):
        # csv refuses a NUL before Python 3.11 and reads it as a plain
        # character since; here it spoils one tmin reading
        _write_lilac_fixture(tmp_path / "data")
        path = tmp_path / "data" / "daily_temperatures.csv"
        lines = _past_one_chunk(path.read_text(encoding="utf-8").splitlines(), monkeypatch)
        lines[data_io._PARSE_ROWS + 1] += "\0"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "data")],
        )
        if sys.version_info < (3, 11):
            assert result.exit_code == 2, result.output
            assert f"cannot read {path}: line contains NUL" in result.output
            assert not (tmp_path / "runs").exists()
        else:
            assert result.exit_code == 0, result.output
            assert "lilac-bins: 4 rows from 4 observations (0 unmatched, 0 incomplete, " \
                   "1 rejected temperature rows)" in result.output

    def test_quoted_site_ids_read_back(self, runner, tmp_path):
        sites = ["L,0", 'L "1"', "L\n2", "L\r3"]

        def rename(rows):
            return rows[:1] + [[site] + row[1:] for site, row in zip(sites, rows[1:])]

        _write_lilac_fixture(tmp_path / "data")
        _rewrite_csv(tmp_path / "data" / "lilac_phenology.csv", rename)
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "data")],
        )
        assert result.exit_code == 0, result.output
        path = tmp_path / "runs" / "lilac-bins" / "analysis_rows.csv"
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows] == ["site"] + sites
        assert {len(row) for row in rows} == {5}

    def test_undecodable_byte_names_its_line(self, runner, tmp_path):
        # line 400 lies past the decoder's first 8 KiB buffer
        _write_lilac_fixture(tmp_path / "data")
        path = tmp_path / "data" / "daily_temperatures.csv"
        lines = path.read_bytes().split(b"\n")
        lines[399] = lines[399][:5] + b"\xe9" + lines[399][5:]
        path.write_bytes(b"\n".join(lines))
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "data")],
        )
        assert result.exit_code == 2, result.output
        assert f"cannot read {path}:400: byte 0xe9 at column 6" in result.output
        assert not (tmp_path / "runs").exists()

    def test_byte_order_marks_join_as_plain_files(self, runner, tmp_path):
        outputs = []
        for sub, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            _write_lilac_fixture(tmp_path / sub)
            for name in ("lilac_phenology.csv", "daily_temperatures.csv"):
                path = tmp_path / sub / name
                path.write_bytes(bom + path.read_bytes())
            result = runner.invoke(
                main,
                ["reproduce", "lilac-bins", "--out", str(tmp_path / sub / "runs"),
                 "--data-dir", str(tmp_path / sub)],
            )
            assert result.exit_code == 0, result.output
            run = tmp_path / sub / "runs" / "lilac-bins"
            outputs.append({p.name: p.read_bytes() for p in run.iterdir()})
        assert outputs[0] == outputs[1]
        assert outputs[0]["analysis_rows.csv"].count(b"\n") == 5

    def test_check_without_data_requires_seed(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--check", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "nowhere")],
        )
        assert result.exit_code == 2
        assert "--seed" in result.output


_PHENOLOGY = "lilac_phenology.csv"
_LILAC_OUTPUTS = {"analysis_rows.csv", "tables.txt", "grid.csv"}


@functools.cache
def _lilac_input_bytes() -> tuple[tuple[str, bytes], ...]:
    with tempfile.TemporaryDirectory() as tmp:
        _write_lilac_fixture(Path(tmp))
        return tuple((p.name, p.read_bytes()) for p in sorted(Path(tmp).iterdir()))


_year_cell = st.integers(-10**5, 10**5).map(str) | st.text(max_size=8)


@st.composite
def _damaged(draw, data: bytes) -> bytes:
    """data with one byte-level fault: a flip, a cut, an odd byte, a long field, a BOM, CRLF."""
    kind = draw(st.sampled_from(["flip", "truncate", "insert", "long_field", "bom", "crlf"]))
    at = draw(st.integers(0, len(data)))
    if kind == "flip":  # past the end, nothing flips
        bit = 1 << draw(st.integers(0, 7))
        return data[:at] + bytes(b ^ bit for b in data[at:at + 1]) + data[at + 1:]
    if kind == "truncate":
        return data[:at]
    if kind == "insert":
        return data[:at] + draw(st.sampled_from([b"\xe9", b"\x00", b'"'])) + data[at:]
    if kind == "long_field":
        return data[:at] + b"X" * 200_000 + data[at:]
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    return data.replace(b"\n", b"\r\n")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lilac_bins_keeps_its_exit_code_contract(tmp_path_factory, data):
    # damaged inputs end in exit 0, 2 or 3, never in a traceback, and leave
    # either no run directory or a complete one
    files = dict(_lilac_input_bytes())
    lines = files[_PHENOLOGY].split(b"\n")
    for row in data.draw(st.lists(st.integers(1, len(lines) - 2), max_size=2)):
        cells = lines[row].split(b",")
        cells[3] = data.draw(_year_cell).encode("utf-8")
        lines[row] = b",".join(cells)
    files[_PHENOLOGY] = b"\n".join(lines)
    for name in data.draw(st.lists(st.sampled_from(sorted(files)), max_size=3)):
        files[name] = data.draw(_damaged(files[name]))
    root = tmp_path_factory.mktemp("fuzz")
    (root / "data").mkdir()
    for name, content in files.items():
        (root / "data" / name).write_bytes(content)
    result = CliRunner().invoke(
        main, ["reproduce", "lilac-bins", "--out", str(root / "runs"), "--data-dir", str(root / "data")]
    )
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    run = root / "runs" / "lilac-bins"
    assert not run.exists() or {p.name for p in run.iterdir()} == _LILAC_OUTPUTS
    # and no staging directory is left beside it
    assert not run.parent.exists() or [p.name for p in run.parent.iterdir()] == [run.name]


class TestUsageValidation:
    def test_bad_threads(self, runner, tmp_path):
        result = runner.invoke(
            main, ["reproduce", "sim2", "--seed", "1", "--threads", "0", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2

    def test_bad_replicates(self, runner, tmp_path):
        result = runner.invoke(
            main, ["reproduce", "sim2", "--seed", "1", "--r", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2

    def test_replicates_beyond_memory_exit_2_without_run_dir(self, runner, tmp_path):
        # 10^14 hitting times need 728 TiB, past any address space: allocation fails at once
        result = runner.invoke(
            main, ["reproduce", "sim2", "--seed", "1", "--r", str(10**14), "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"--r {10**14}" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_exits_2_without_run_dir(self, runner, tmp_path):
        result = runner.invoke(
            main, ["reproduce", "sim2", "--seed", "-1", "--r", "5", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        assert "--seed" in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_file_at_run_dir_exits_2(self, runner, tmp_path, force):
        blocker = tmp_path / "sim2-seed3"
        blocker.write_text("not a run\n", encoding="utf-8")
        result = runner.invoke(
            main, ["reproduce", "sim2", "--seed", "3", "--r", "20", "--out", str(tmp_path)] + force
        )
        assert result.exit_code == 2
        assert "sim2-seed3" in result.output
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text(encoding="utf-8") == "not a run\n"

    def test_help_available_everywhere(self, runner):
        for args in (["--help"], ["approx", "--help"], ["reproduce", "--help"]):
            assert runner.invoke(main, args).exit_code == 0


def _target_args(target, root):
    """Arguments of a small run of target under root/runs; lilac-bins gets a data fixture."""
    args = {
        "sim1": ["sim1", "--seed", "7", "--r", "20", "--raw"],
        "sim2": ["sim2", "--seed", "7", "--r", "20"],
        "walnut": ["walnut"],
        "lilac-bins": ["lilac-bins"],
        # no data under --data-dir: --check runs the synthetic pipeline
        "synthetic": ["lilac-bins", "--check", "--seed", "7", "--r", "20"],
    }[target]
    if target == "lilac-bins":
        _write_lilac_fixture(root / "data")
    return ["reproduce", *args, "--out", str(root / "runs"), "--data-dir", str(root / "data")]


def _raise_on_call(func, n, exc):
    """func, except that its n-th call raises exc instead."""
    calls = itertools.count(1)

    def wrapper(*args, **kwargs):
        if next(calls) == n:
            raise exc
        return func(*args, **kwargs)
    return wrapper


def _earlier_run(runner, root, args):
    """A complete run made by args, marked so that no rerun could reproduce it."""
    first = runner.invoke(main, args)
    assert first.exit_code in (0, 1), first.output  # the synthetic check may fail at R = 20
    (run,) = (root / "runs").iterdir()
    (run / "earlier.txt").write_text("kept from the earlier run\n", encoding="utf-8")
    return run, {p.name: p.read_bytes() for p in run.iterdir()}


# where each target's computation is interrupted: inside the grid runner, or the step that
# has no grid (walnut's fit; the lilac binning, after analysis_rows.csv is written)
_COMPUTE = {"sim1": (simulate, "run_grid"), "sim2": (simulate, "run_grid"),
            "synthetic": (simulate, "run_grid"), "walnut": (fitting, "fit_winter_wls"),
            "lilac-bins": (fitting, "bin_location_scale")}


class TestStagedRunDirectory:
    @pytest.mark.parametrize("where", ["compute", "swap"])
    @pytest.mark.parametrize("target", sorted(_COMPUTE))
    def test_interrupted_forced_rerun_keeps_earlier_run(self, runner, tmp_path, monkeypatch,
                                                        target, where):
        args = _target_args(target, tmp_path)
        run, before = _earlier_run(runner, tmp_path, args)
        # the swap's second os.replace moves the new run into place
        module, name = _COMPUTE[target] if where == "compute" else (os, "replace")
        n = 1 if where == "compute" else 2
        monkeypatch.setattr(module, name, _raise_on_call(getattr(module, name), n, KeyboardInterrupt()))
        result = runner.invoke(main, args + ["--force"])
        assert result.exit_code == 130, result.output  # the shell's code for SIGINT
        assert "Aborted!" in result.output
        assert [p.name for p in run.parent.iterdir()] == [run.name]
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("target", ["sim2", "walnut"])
    def test_failed_write_exits_2_and_keeps_earlier_run(self, runner, tmp_path, monkeypatch, target):
        args = _target_args(target, tmp_path)
        run, before = _earlier_run(runner, tmp_path, args)
        full = OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(Path, "write_text", _raise_on_call(Path.write_text, 2, full))
        result = runner.invoke(main, args + ["--force"])
        assert result.exit_code == 2, result.output
        assert f"cannot write run directory {run}: No space left on device" in result.output
        assert [p.name for p in run.parent.iterdir()] == [run.name]
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(thermalsum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


class TestRuntimeDependencies:
    @pytest.mark.parametrize("package", ["scipy", "numpy.random"])
    def test_cli_import_loads_no_scipy(self, package):
        # numpy.random is loaded lazily (numpy before 2.0 loads it on import
        # itself), so the CLI may load only what a bare `import numpy` does
        loaded = ("import sys, {}\n"
                  f"print(sorted(m for m in sys.modules if m.startswith({package!r})))")
        bare = _fresh_python(loaded.format("numpy"))
        proc = _fresh_python(loaded.format("thermalsum.cli"))
        assert bare.returncode == 0 and proc.returncode == 0, bare.stderr + proc.stderr
        assert proc.stdout == bare.stdout
        if package == "scipy":
            assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("target", ["lilac-bins", "walnut"])
    def test_reproduce_loads_no_numpy_ma(self, tmp_path, target):
        # np.unique (np.quantile calls it) imports numpy.ma (about 1 MiB);
        # numpy before 2.0 loads it on import itself
        _write_lilac_fixture(tmp_path / "data")
        args = ["reproduce", target, "--out", str(tmp_path / "runs")]
        args += ["--data-dir", str(tmp_path / "data")] if target == "lilac-bins" else []
        proc = _fresh_python(
            "import sys, numpy\n"
            "bare = 'numpy.ma' in sys.modules\n"
            "from thermalsum.cli import main\n"
            f"main({args!r}, standalone_mode=False)\n"
            "print(bare, 'numpy.ma' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        bare, loaded = proc.stdout.split()[-2:]
        assert loaded == bare

    def test_sim1_and_its_checks_run_with_scipy_blocked(self):
        proc = _fresh_python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from thermalsum import checks, simulate\n"
            "grid = simulate.run_grid(3, simulate.SIM1_ALPHAS, simulate.SIM1_BETAS,\n"
            "                         simulate.SIM1_TAUS, replicates=200)\n"
            "checks.sim1_ks_checks(grid)\n"
            "checks.winter_agreement_checks(grid)\n"
            "print('done')"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "done"
