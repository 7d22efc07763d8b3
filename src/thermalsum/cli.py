"""Command-line entry point wiring the modules into reproducible pipelines.

Exit codes: 0 success, 1 check failure, 2 usage error or malformed or
unreadable input file, 3 missing data.
Outputs land under a run directory named by subcommand (plus seed for
stochastic targets); reruns with the same seed and flags are byte-identical.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
from pathlib import Path

import click
import numpy as np

from . import checks, data_io, fitting, model, reference, simulate
from .errors import ParameterError, ThermalSumError

DATA_DIR_ENV = "THERMALSUM_DATA_DIR"
PHENOLOGY_FILENAME = "lilac_phenology.csv"
TEMPERATURE_FILENAME = "daily_temperatures.csv"
DEFAULT_SPECIES = "common lilac"
DEFAULT_PHENOPHASE = "full bloom"
# quantile bins per axis of the lilac grid; a join needs at least this many rows
_LILAC_BINS = 4


@click.group()
def main() -> None:
    """Thermal-sum hitting-time model: closed forms, simulation, and fits."""


@main.command()
@click.option("--alpha", type=float, required=True, help="Mean daily temperature at accumulation start (degC/day).")
@click.option("--beta", type=float, default=0.0, show_default=True, help="Daily warming rate (degC/day^2); 0 selects the winter regime.")
@click.option("--sigma", type=float, default=0.0, show_default=True, help="Daily noise standard deviation (degC).")
@click.option("--tau", type=float, required=True, help="Thermal-sum threshold (degree-days).")
def approx(alpha: float, beta: float, sigma: float, tau: float) -> None:
    """Print the closed-form hitting-day approximation for one parameter set."""
    try:
        params = model.RegimeParams(alpha=alpha, beta=beta, sigma=sigma, tau=tau)
        if params.regime is model.Regime.WINTER:
            a = model.approx_winter(params)
            click.echo(f"regime=winter mean={a.mean:.6g} variance={a.variance:.6g}")
        else:
            a = model.approx_spring(params)
            m = model.crossing_time(params)
            click.echo(
                f"regime=spring mean={a.mean:.6g} variance={a.variance:.6g} "
                f"linearized_variance={model.theory_approx(params).variance:.6g} "
                f"m_tau={m.m_tau:.6g} gamma={m.gamma:.6g}"
            )
            if a.short_horizon:
                click.echo(
                    "warning: deterministic crossing under "
                    f"{model.SHORT_HORIZON_DAYS:g} days; large-threshold "
                    "approximation is questionable here"
                )
    except ThermalSumError as exc:
        raise click.UsageError(str(exc))


def _run_dir(out: Path, target: str, seed: int | None, force: bool) -> Path:
    name = target if seed is None else f"{target}-seed{seed}"
    run = out / name
    if run.is_dir() and any(run.iterdir()):
        if not force:
            raise click.UsageError(f"{run} already has outputs; pass --force to overwrite")
        # a forced rerun replaces the directory: no earlier output stays beside it
        shutil.rmtree(run)
    try:
        run.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # e.g. a file already sits at the run directory's path
        raise click.UsageError(f"cannot create run directory {run}: {exc.strerror}") from None
    return run


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _finish_checks(all_checks: list[checks.Check], enabled: bool) -> None:
    if not enabled:
        return
    failed = 0
    for c in all_checks:
        status = "PASS" if c.ok else "FAIL"
        click.echo(f"CHECK {status} {c.name}: {c.detail}")
        failed += not c.ok
    if failed:
        click.echo(f"{failed} of {len(all_checks)} checks failed")
        sys.exit(1)
    click.echo(f"all {len(all_checks)} checks passed")


@main.command()
@click.argument("target", type=click.Choice(["sim1", "sim2", "walnut", "lilac-bins"]))
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Master seed (required for stochastic targets).")
@click.option("--r", "replicates", type=int, default=simulate.DEFAULT_REPLICATES, show_default=True, help="Replicates per grid cell.")
# accepted for compatibility with older command lines; simulation is serial
@click.option("--threads", type=click.IntRange(min=1), default=1, hidden=True, expose_value=False)
@click.option("--out", type=click.Path(path_type=Path), default=Path("runs"), show_default=True, help="Root directory for run outputs.")
@click.option("--force", is_flag=True, help="Replace an existing run directory: its old contents are deleted first.")
@click.option("--check", "check_mode", is_flag=True, help="Verify outputs against the reference tolerances; exit 1 on failure.")
@click.option("--raw", "write_raw", is_flag=True, help="Also write raw hitting times (sim1).")
@click.option("--data-dir", type=click.Path(path_type=Path), default=None, help=f"Directory with pre-downloaded data [default: ${DATA_DIR_ENV} or ./data].")
@click.option("--units", type=click.Choice(["degrees", "tenths"]), default="degrees", show_default=True, help="Units of the temperature file (lilac-bins).")
def reproduce(
    target: str,
    seed: int | None,
    replicates: int,
    out: Path,
    force: bool,
    check_mode: bool,
    write_raw: bool,
    data_dir: Path | None,
    units: str,
) -> None:
    """Rebuild one of the bundled analysis targets and write its artifacts.

    sim1: linear-trend hitting-time runs with normality diagnostics.
    sim2: seasonal piecewise-trend mean/sd grid. walnut: two-stage WLS fit
    of the constant-forcing experiment. lilac-bins: quartile-binned bloom
    grids from pre-downloaded observational data (exits 3 without data or
    when fewer than 4 observations join a complete station-year; with
    --check and no data, runs the synthetic binning pipeline instead).
    Simulations run serially. Exit codes: 0 success, 1 check failure, 2 usage
    error or malformed or unreadable input file, 3 missing data.
    """
    if replicates < 2:
        raise click.UsageError(f"--r must be >= 2, got {replicates}")
    if target in ("sim1", "sim2") and seed is None:
        raise click.UsageError(f"--seed is required for {target}")
    try:
        if target == "sim1":
            _reproduce_sim1(seed, replicates, out, force, check_mode, write_raw)
        elif target == "sim2":
            _reproduce_sim2(seed, replicates, out, force, check_mode)
        elif target == "walnut":
            _reproduce_walnut(out, force, check_mode)
        else:
            _reproduce_lilac_bins(seed, replicates, out, force, check_mode, data_dir, units)
    except ParameterError as exc:
        raise click.UsageError(str(exc))


def _reproduce_sim1(
    seed: int, replicates: int, out: Path, force: bool, check_mode: bool, write_raw: bool
) -> None:
    run = _run_dir(out, "sim1", seed, force)
    grid = simulate.run_grid(
        seed, simulate.SIM1_ALPHAS, simulate.SIM1_BETAS, simulate.SIM1_TAUS, replicates=replicates
    )
    for (a, b, tau), res in grid.cells.items():
        tag = f"a{a:g}_b{b:g}_tau{tau:g}"
        if res.z_values is not None:
            _write_lines(run / f"hist_{tag}.csv", simulate.histogram_csv_rows(res.z_values))
        if write_raw:
            _write_lines(run / f"raw_{tag}.txt", [str(int(t)) for t in res.hitting_times])
    _write_lines(run / "summary.csv", simulate.summary_csv_rows(grid))
    click.echo(f"sim1: {len(grid.cells)} grid cells x {replicates} replicates -> {run}")

    all_checks = checks.sim1_ks_checks(grid)
    all_checks.append(checks.sim1_improvement_check(grid))
    all_checks.extend(
        checks.winter_agreement_checks(
            grid.cells[(4.0, 0.0, 2000.0)], tau=2000.0, alpha=4.0, sigma=grid.sigma
        )
    )
    _finish_checks(all_checks, check_mode)


def _reproduce_sim2(
    seed: int, replicates: int, out: Path, force: bool, check_mode: bool
) -> None:
    run = _run_dir(out, "sim2", seed, force)
    grid = simulate.run_grid(
        seed, simulate.SIM2_ALPHAS, simulate.SIM2_BETAS, simulate.SIM2_TAUS,
        breakpoint_day=simulate.SIM2_BREAKPOINT_DAY, replicates=replicates,
    )
    (run / "tables.txt").write_text(grid.format_tables(), encoding="utf-8", newline="\n")
    _write_lines(run / "summary.csv", simulate.summary_csv_rows(grid))
    click.echo(f"sim2: {len(grid.cells)} grid cells x {replicates} replicates -> {run}")
    _finish_checks(checks.sim2_mean_checks(grid) + checks.sim2_sd_checks(grid), check_mode)


def _reproduce_walnut(out: Path, force: bool, check_mode: bool) -> None:
    run = _run_dir(out, "walnut", None, force)
    obs = fitting.load_walnut_observations()
    fit = fitting.fit_winter_wls(obs)
    lines = [
        f"tau_hat={fit.tau_hat:.6g} sigma_hat={fit.sigma_hat:.6g} "
        f"weighted_r_squared={fit.r_squared_weighted:.6g}",
        "",
        f"{'alpha':>6} {'n':>4} {'mean':>8} {'sd':>8} {'fit_mean':>9} {'fit_sd':>8}",
    ]
    for i, o in enumerate(obs):
        lines.append(
            f"{o.alpha:>6g} {o.n:>4d} {o.mean_days:>8.2f} {o.sd_days:>8.2f} "
            f"{fit.fitted_means[i]:>9.2f} {fit.fitted_sds[i]:>8.2f}"
        )
    _write_lines(run / "fit.txt", lines)
    csv_lines = ["alpha,n,mean_obs,sd_obs,mean_fit,sd_fit"]
    for i, o in enumerate(obs):
        csv_lines.append(
            f"{o.alpha:.6g},{o.n},{o.mean_days:.6g},{o.sd_days:.6g},"
            f"{fit.fitted_means[i]:.6g},{fit.fitted_sds[i]:.6g}"
        )
    _write_lines(run / "fit.csv", csv_lines)
    click.echo(
        f"walnut: tau_hat={fit.tau_hat:.4g}, sigma_hat={fit.sigma_hat:.4g} -> {run}"
    )
    _finish_checks(checks.walnut_checks(fit), check_mode)


def _resolve_data_dir(data_dir: Path | None) -> Path:
    if data_dir is not None:
        return data_dir
    env = os.environ.get(DATA_DIR_ENV)
    return Path(env) if env else Path("data")


def _reproduce_lilac_bins(
    seed: int | None, replicates: int, out: Path, force: bool,
    check_mode: bool, data_dir: Path | None, units: str,
) -> None:
    root = _resolve_data_dir(data_dir)
    phen_path = root / PHENOLOGY_FILENAME
    temp_path = root / TEMPERATURE_FILENAME
    if not (phen_path.exists() and temp_path.exists()):
        if not check_mode:
            click.echo(
                f"missing data: expected {phen_path} and {temp_path} "
                f"(set --data-dir or ${DATA_DIR_ENV}; see docs/DATA.md)"
            )
            sys.exit(3)
        if seed is None:
            raise click.UsageError("--seed is required for the synthetic binning check")
        _lilac_synthetic_fallback(seed, replicates, out, force)
        return

    # phenology first: the temperature parse keeps only the rows its join can read
    path = phen_path
    try:
        observations = data_io.filter_phenology(
            data_io.parse_phenology_csv(path),
            species=DEFAULT_SPECIES, phenophase=DEFAULT_PHENOPHASE,
        )
        path = temp_path
        parsed = data_io.parse_temperature_csv(path, units=units, observations=observations)
    except ThermalSumError as exc:
        raise click.UsageError(str(exc)) from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise click.UsageError(f"cannot read {path}: {exc}") from None
    rows, diag = data_io.build_analysis_rows(observations, parsed.records)
    click.echo(
        f"lilac-bins: {diag.n_rows} rows from {diag.n_observations} observations "
        f"({diag.n_no_station} unmatched, {diag.n_insufficient} incomplete, "
        f"{parsed.rejected} rejected temperature rows)"
    )
    if len(rows) < _LILAC_BINS:
        why = (f"{len(rows)} joined rows are too few for {_LILAC_BINS} quantile bins" if rows
               else "no observation joined a complete station-year")
        click.echo(f"missing data: {why} (see docs/DATA.md); nothing written")
        sys.exit(3)
    run = _run_dir(out, "lilac-bins", None, force)
    data_io.write_analysis_rows(rows, run / "analysis_rows.csv")
    triples = [(r.alpha_hat, r.beta_hat, float(r.bloom_doy)) for r in rows]
    grid = fitting.bin_location_scale(triples, k=_LILAC_BINS)
    (run / "tables.txt").write_text(grid.format_tables(), encoding="utf-8", newline="\n")
    _write_lines(run / "grid.csv", fitting.grid_csv_rows(grid))
    click.echo(f"lilac-bins -> {run}")
    if check_mode:
        ref_grid = fitting.bin_location_scale(
            triples,
            alpha_edges=reference.LILAC_ALPHA_EDGES,
            beta_edges=reference.LILAC_BETA_EDGES,
        )
        _finish_checks(checks.lilac_grid_checks(ref_grid), True)


def _lilac_synthetic_fallback(seed: int, replicates: int, out: Path, force: bool) -> None:
    """End-to-end binning pipeline on seasonal-simulation output.

    Used by --check when the observational data are not on disk: hit days
    from the tau=1000 seasonal grid are binned at their true (alpha, beta)
    and the cell means must land on the reference grid.
    """
    click.echo("lilac data not found; running the synthetic binning pipeline check")
    run = _run_dir(out, "lilac-bins", seed, force)
    grid = simulate.run_grid(
        seed, simulate.SIM2_ALPHAS, simulate.SIM2_BETAS, (1000.0,),
        breakpoint_day=simulate.SIM2_BREAKPOINT_DAY, replicates=replicates,
    )
    triples = []
    for (a, b, _tau), res in sorted(grid.cells.items()):
        triples.extend((a, b, float(t)) for t in res.hitting_times)
    binned = fitting.bin_location_scale(
        triples, alpha_edges=(3.0, 6.0, 9.0, 11.0), beta_edges=(0.1, 0.3, 0.6, 0.9)
    )
    (run / "tables.txt").write_text(binned.format_tables(), encoding="utf-8", newline="\n")
    _write_lines(run / "grid.csv", fitting.grid_csv_rows(binned))
    click.echo(f"lilac-bins (synthetic) -> {run}")
    _finish_checks(checks.synthetic_binning_checks(binned), True)


if __name__ == "__main__":
    main()
