import datetime

import pytest
from click.testing import CliRunner

from thermalsum import data_io, regimes
from thermalsum.cli import main


@pytest.fixture
def runner():
    return CliRunner()


class TestApprox:
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

    def test_check_passes_at_reference_seed(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["reproduce", "sim1", "--seed", "7", "--threads", "1", "--out", str(tmp_path),
             "--check"],
        )
        assert result.exit_code == 0, result.output
        ks_lines = [ln for ln in result.output.splitlines() if "sim1 ks a=" in ln]
        assert len(ks_lines) == 8 and all("< bound" in ln for ln in ks_lines)


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


def _write_lilac_fixture(root):
    root.mkdir(parents=True, exist_ok=True)
    records = []
    for sid, lat, alpha in [("ST1", 40.0, 3.0), ("ST2", 42.0, 6.0)]:
        for year in (2020, 2021):
            aw_stop = regimes.alpha_window(year).stop
            bw = regimes.beta_window(year)
            for doy in range(1, bw.stop + 1):
                day = datetime.date(year, 1, 1) + datetime.timedelta(days=doy - 1)
                mid = alpha if doy <= aw_stop else alpha + 0.2 * (doy - bw.start)
                records.append(
                    data_io.StationRecord(sid, day, lat, -75.0, mid + 1.0, mid - 1.0)
                )
    data_io.write_temperature_csv(records, root / "daily_temperatures.csv")
    lines = ["site_id,lat,lon,year,bloom_doy,species,phenophase"]
    doy = 120
    for i, (lat, year) in enumerate(
        [(40.0, 2020), (40.0, 2021), (42.0, 2020), (42.0, 2021)]
    ):
        lines.append(f"L{i},{lat},-75.0,{year},{doy + 5 * i},common lilac,full bloom")
    (root / "lilac_phenology.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


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
        "filename, old, new",
        [
            ("lilac_phenology.csv", ",120,", ",131.5,"),
            ("lilac_phenology.csv", "site_id,", "site,"),
            ("daily_temperatures.csv", "station_id,", "station,"),
        ],
        ids=["non_integer_doy", "phenology_header", "temperature_header"],
    )
    def test_malformed_input_exits_2_without_run_dir(self, runner, tmp_path, filename, old, new):
        _write_lilac_fixture(tmp_path / "data")
        path = tmp_path / "data" / filename
        path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "data")],
        )
        assert result.exit_code == 2, result.output
        assert filename in result.output
        assert not (tmp_path / "runs").exists()

    def test_check_without_data_requires_seed(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["reproduce", "lilac-bins", "--check", "--out", str(tmp_path / "runs"),
             "--data-dir", str(tmp_path / "nowhere")],
        )
        assert result.exit_code == 2
        assert "--seed" in result.output


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

    def test_help_available_everywhere(self, runner):
        for args in (["--help"], ["approx", "--help"], ["reproduce", "--help"]):
            assert runner.invoke(main, args).exit_code == 0
