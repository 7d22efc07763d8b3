"""Command-line entry point wiring the modules into reproducible pipelines.

Exit codes: 0 success, 1 check failure, 2 usage error, malformed or
unreadable input file, or an output that cannot be written, 3 missing data,
130 interrupted. Outputs land under a run directory named by subcommand (plus
seed for stochastic targets); reruns with the same seed and flags are
byte-identical. Each run is written into a hidden sibling and moved into place
only when complete, so a failed or interrupted run leaves an earlier one as it was.
"""

from __future__ import annotations

import csv
import functools
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable

import click

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
        if params.beta == 0:
            a = model.approx_winter(params)
            click.echo(f"regime=winter mean={a.mean:.6g} variance={a.variance:.6g}")
        else:
            a = model.approx_spring(params)
            m = model.crossing_time(params)
            click.echo(
                f"regime=spring mean={a.mean:.6g} variance={a.variance:.6g} "
                f"linearized_variance={model.theory_approx(params).variance:.6g} "
                f"m_tau={m:.6g} gamma={params.gamma:.6g}"
            )
            if m < model.SHORT_HORIZON_DAYS:
                click.echo(
                    "warning: deterministic crossing under "
                    f"{model.SHORT_HORIZON_DAYS:g} days; large-threshold "
                    "approximation is questionable here"
                )
    except ThermalSumError as exc:
        raise click.UsageError(str(exc))


def _write(run: Path, name: str, text: str | list[str]) -> None:
    """Write one artifact (text, or lines joined with LF) into run, UTF-8 with LF endings."""
    if not isinstance(text, str):
        text = "\n".join(text) + "\n"
    (run / name).write_text(text, encoding="utf-8", newline="\n")


def _refuse_rerun(run: Path, force: bool) -> None:
    """Usage error if run already has outputs and force is not set."""
    try:  # listed even under --force, so a file at run's path fails before any work
        if any(run.iterdir()) and not force:
            raise click.UsageError(f"{run} already has outputs; pass --force to overwrite")
    except FileNotFoundError:
        pass


def _publish(run: Path, target: Callable[[Path], tuple[str, list[checks.Check]]]) -> tuple[str, list[checks.Check]]:
    """Run target into a fresh hidden sibling of run and move it into place once complete.

    target writes each artifact into the directory it is given and returns its
    summary and checks. An earlier run is set aside only at the swap and deleted
    after it; until the new run is in place, any failure leaves it as it was.
    """
    run.parent.mkdir(parents=True, exist_ok=True)
    # a sibling, so that os.replace stays on one filesystem
    stage = Path(tempfile.mkdtemp(prefix=f".{run.name}.", dir=run.parent))
    new, old = stage / "new", stage / "old"
    try:
        new.mkdir()
        result = target(new)
        if run.exists():
            os.replace(run, old)
        os.replace(new, run)
    finally:
        if old.exists() and new.exists():  # set aside, but the new run is not in place
            os.replace(old, run)
        shutil.rmtree(stage)
    return result


@main.command()
@click.argument("target", type=click.Choice(["sim1", "sim2", "walnut", "lilac-bins"]))
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Master seed (required for stochastic targets).")
@click.option("--r", "replicates", type=click.IntRange(min=2), default=simulate.DEFAULT_REPLICATES, show_default=True, help="Replicates per grid cell.")
# accepted for compatibility with older command lines; simulation is serial
@click.option("--threads", type=click.IntRange(min=1), default=1, hidden=True, expose_value=False)
@click.option("--out", type=click.Path(path_type=Path), default=Path("runs"), show_default=True, help="Root directory for run outputs.")
@click.option("--force", is_flag=True, help="Replace an existing run directory, once the new run is complete.")
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
    Simulations run serially; a run is moved into place only when complete.
    Exit codes: 0 success, 1 check failure, 2 usage error, malformed or
    unreadable input file, or an output that cannot be written, 3 missing data,
    130 interrupted (Ctrl-C; an earlier run is kept).
    """
    if target in ("sim1", "sim2") and seed is None:
        raise click.UsageError(f"--seed is required for {target}")
    paths = _lilac_paths(seed, check_mode, data_dir) if target == "lilac-bins" else None
    run = out / (target if target == "walnut" or paths else f"{target}-seed{seed}")
    try:
        _refuse_rerun(run, force)  # before any input is read
        if target == "sim1":
            make = functools.partial(_sim1, seed, replicates, write_raw)
        elif target == "sim2":
            make = functools.partial(_sim2, seed, replicates)
        elif target == "walnut":
            make = _walnut
        elif paths is None:
            make = functools.partial(_lilac_synthetic, seed, replicates)
        else:
            make = functools.partial(_lilac_bins, _lilac_rows(*paths, units), check_mode)
        summary, found = _publish(run, make)
    except ParameterError as exc:
        raise click.UsageError(str(exc))
    except MemoryError:
        raise click.UsageError(f"out of memory; is --r {replicates} too large?") from None
    except OSError as exc:
        raise click.UsageError(f"cannot write run directory {run}: {exc.strerror}") from None
    except KeyboardInterrupt:  # _publish has removed its stage, if it made one
        click.echo("Aborted!", err=True)
        sys.exit(130)
    click.echo(f"{summary} -> {run}")
    if not check_mode:
        return
    for c in found:
        click.echo(f"CHECK {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    if failed := sum(not c.ok for c in found):
        click.echo(f"{failed} of {len(found)} checks failed")
        sys.exit(1)
    click.echo(f"all {len(found)} checks passed")


def _sim1(seed: int, replicates: int, write_raw: bool, run: Path) -> tuple[str, list[checks.Check]]:
    grid = simulate.run_grid(
        seed, simulate.SIM1_ALPHAS, simulate.SIM1_BETAS, simulate.SIM1_TAUS, replicates=replicates
    )
    for (a, b, tau), res in grid.cells.items():
        tag = f"a{a:g}_b{b:g}_tau{tau:g}"
        if res.z_values is not None:
            _write(run, f"hist_{tag}.csv", simulate.histogram_csv_rows(res.z_values))
        if write_raw:
            _write(run, f"raw_{tag}.txt", [str(int(t)) for t in res.hitting_times])
    _write(run, "summary.csv", simulate.summary_csv_rows(grid))
    found = checks.sim1_ks_checks(grid) + [checks.sim1_improvement_check(grid)]
    return (f"sim1: {len(grid.cells)} grid cells x {replicates} replicates",
            found + checks.winter_agreement_checks(grid))


def _sim2(seed: int, replicates: int, run: Path) -> tuple[str, list[checks.Check]]:
    grid = simulate.run_grid(
        seed, simulate.SIM2_ALPHAS, simulate.SIM2_BETAS, simulate.SIM2_TAUS,
        breakpoint_day=simulate.SIM2_BREAKPOINT_DAY, replicates=replicates,
    )
    _write(run, "tables.txt", grid.format_tables())
    _write(run, "summary.csv", simulate.summary_csv_rows(grid))
    return (f"sim2: {len(grid.cells)} grid cells x {replicates} replicates",
            checks.sim2_mean_checks(grid) + checks.sim2_sd_checks(grid))


def _walnut(run: Path) -> tuple[str, list[checks.Check]]:
    obs = fitting.load_walnut_observations()
    fit = fitting.fit_winter_wls(obs)
    lines = [
        f"tau_hat={fit.tau_hat:.6g} sigma_hat={fit.sigma_hat:.6g} "
        f"weighted_r_squared={fit.r_squared_weighted:.6g}",
        "",
        f"{'alpha':>6} {'n':>4} {'mean':>8} {'sd':>8} {'fit_mean':>9} {'fit_sd':>8}",
    ]
    csv_lines = ["alpha,n,mean_obs,sd_obs,mean_fit,sd_fit"]
    for o, mean, sd in zip(obs, fit.fitted_means, fit.fitted_sds):
        lines.append(f"{o.alpha:>6g} {o.n:>4d} {o.mean_days:>8.2f} {o.sd_days:>8.2f} {mean:>9.2f} {sd:>8.2f}")
        csv_lines.append(f"{o.alpha:.6g},{o.n},{o.mean_days:.6g},{o.sd_days:.6g},{mean:.6g},{sd:.6g}")
    _write(run, "fit.txt", lines)
    _write(run, "fit.csv", csv_lines)
    return f"walnut: tau_hat={fit.tau_hat:.4g}, sigma_hat={fit.sigma_hat:.4g}", checks.walnut_checks(fit)


def _decode_error(path: Path, exc: UnicodeDecodeError) -> str:
    """`<path>:<line>: <reason>` for exc, whose position counts from the decoder's buffer.

    Decoding line by line is exact: no UTF-8 sequence contains the newline byte.
    """
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as e:
                return f"{path}:{number}: byte {line[e.start]:#04x} at column {e.start + 1} ({e.reason})"
    return f"{path}: {exc}"


def _lilac_paths(seed: int | None, check_mode: bool, data_dir: Path | None) -> tuple[Path, Path] | None:
    """The two input files; None when --check runs the synthetic pipeline for want of data."""
    root = data_dir if data_dir is not None else Path(os.environ.get(DATA_DIR_ENV) or "data")
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
        click.echo("lilac data not found; running the synthetic binning pipeline check")
        return None
    return phen_path, temp_path


def _lilac_rows(phen_path: Path, temp_path: Path, units: str) -> list[data_io.AnalysisRow]:
    """The joined lilac rows; exits 3 when too few join to bin."""
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
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"cannot read {_decode_error(path, exc)}") from None
    except (OSError, csv.Error) as exc:
        raise click.UsageError(f"cannot read {path}: {exc}") from None
    rows, diag = data_io.build_analysis_rows(observations, parsed.records)
    click.echo(
        f"lilac-bins: {len(rows)} rows from {diag.n_observations} observations "
        f"({diag.n_no_station} unmatched, {diag.n_insufficient} incomplete, "
        f"{parsed.rejected} rejected temperature rows)"
    )
    if len(rows) < _LILAC_BINS:
        why = (f"{len(rows)} joined rows are too few for {_LILAC_BINS} quantile bins" if rows
               else "no observation joined a complete station-year")
        click.echo(f"missing data: {why} (see docs/DATA.md); nothing written")
        sys.exit(3)
    return rows


def _lilac_bins(rows: list[data_io.AnalysisRow], check_mode: bool, run: Path) -> tuple[str, list[checks.Check]]:
    _write(run, "analysis_rows.csv", data_io.analysis_rows_csv(rows))
    triples = [(r.alpha_hat, r.beta_hat, float(r.bloom_doy)) for r in rows]
    grid = fitting.bin_location_scale(triples, k=_LILAC_BINS)
    _write(run, "tables.txt", grid.format_tables())
    _write(run, "grid.csv", fitting.grid_csv_rows(grid))
    if not check_mode:
        return "lilac-bins", []
    ref_grid = fitting.bin_location_scale(
        triples, alpha_edges=reference.LILAC_ALPHA_EDGES, beta_edges=reference.LILAC_BETA_EDGES,
    )
    click.echo(
        f"lilac-bins reference edges: {ref_grid.clamped} alpha/beta values clamped into boundary "
        f"bins; degenerate alpha={ref_grid.degenerate_alpha} beta={ref_grid.degenerate_beta}"
    )
    return "lilac-bins", checks.lilac_grid_checks(ref_grid)


def _lilac_synthetic(seed: int, replicates: int, run: Path) -> tuple[str, list[checks.Check]]:
    """End-to-end binning pipeline on seasonal-simulation output.

    Used by --check when the observational data are not on disk: hit days
    from the seasonal grid at reference.SYNTHETIC_TAU are binned at their
    true (alpha, beta) and the cell means must land on the reference grid.
    """
    grid = simulate.run_grid(
        seed, simulate.SIM2_ALPHAS, simulate.SIM2_BETAS, (reference.SYNTHETIC_TAU,),
        breakpoint_day=simulate.SIM2_BREAKPOINT_DAY, replicates=replicates,
    )
    triples = []
    for (a, b, _tau), res in sorted(grid.cells.items()):
        triples.extend((a, b, float(t)) for t in res.hitting_times)
    binned = fitting.bin_location_scale(
        triples, alpha_edges=reference.SYNTHETIC_ALPHA_EDGES,
        beta_edges=reference.SYNTHETIC_BETA_EDGES,
    )
    _write(run, "tables.txt", binned.format_tables())
    _write(run, "grid.csv", fitting.grid_csv_rows(binned))
    return "lilac-bins (synthetic)", checks.synthetic_binning_checks(binned)


if __name__ == "__main__":
    main()
