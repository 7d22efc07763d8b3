"""Winter-regime weighted least squares and quartile-binned location-scale grids.

fit_winter_wls fits the constant-forcing model (event-time mean tau/alpha,
variance sigma^2 tau/alpha^3) to per-temperature summary rows in two
closed-form stages. quantile_bin_edges / bin_location_scale build the
grouped (count, mean, sd) grid over a quartile grid of (alpha, beta) used to
summarize observational bloom data.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NonPositiveEstimate, ParameterError, SingularFit, require_integer


@dataclass(frozen=True)
class ForcingObservation:
    """Summary row of a constant-temperature forcing experiment.

    alpha: forcing temperature (degC); n: replicate count; mean_days /
    sd_days: observed mean and sd of the response time.
    """

    alpha: float
    n: int
    mean_days: float
    sd_days: float

    def __post_init__(self) -> None:
        for name in ("alpha", "mean_days", "sd_days"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha <= 0:
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")
        require_integer("n", self.n, 2)
        if self.sd_days <= 0:
            raise ParameterError(f"sd_days must be > 0, got {self.sd_days}")


@dataclass(frozen=True)
class WinterFit:
    """Two-stage WLS fit of the winter-regime mean/variance laws.

    Stage 1 regresses observed means on 1/alpha through the origin with
    weights n*alpha^3 (inverse of the model variance of a mean up to a
    constant), giving tau_hat. Stage 2 regresses observed variances on
    tau_hat/alpha^3 through the origin with weights (n-1)*alpha^6 (inverse
    sampling variance of s^2 up to a constant), giving sigma_hat^2.
    r_squared_weighted is the squared weighted correlation between observed
    and fitted means under the stage-1 weights (the centered SS form is not
    meaningful for a through-origin fit). It is NaN when the observed means
    do not vary, where the correlation is undefined.
    """

    tau_hat: float
    sigma_hat: float
    fitted_means: tuple[float, ...]
    fitted_sds: tuple[float, ...]
    r_squared_weighted: float


def fit_winter_wls(observations: Sequence[ForcingObservation]) -> WinterFit:
    """Closed-form two-stage WLS estimate of (tau, sigma) from forcing rows."""
    if len(observations) < 2:
        raise SingularFit("need at least two observations")
    alpha = np.array([o.alpha for o in observations], dtype=float)
    n = np.array([o.n for o in observations], dtype=float)
    mean = np.array([o.mean_days for o in observations], dtype=float)
    var = np.array([o.sd_days for o in observations], dtype=float) ** 2
    if alpha.min() == alpha.max():
        raise SingularFit("all forcing temperatures are equal; tau/alpha is unidentified")

    # Stage 1: mean ~ tau * (1/alpha), weights n*alpha^3
    w = n * alpha**3
    x = 1.0 / alpha
    tau_hat = float(np.sum(w * x * mean) / np.sum(w * x * x))
    if tau_hat <= 0:
        raise NonPositiveEstimate(f"tau_hat = {tau_hat:.6g} <= 0")

    # Stage 2: var ~ sigma^2 * (tau_hat/alpha^3), weights (n-1)*alpha^6
    u = (n - 1.0) * alpha**6
    v = tau_hat / alpha**3
    sigma2_hat = float(np.sum(u * v * var) / np.sum(u * v * v))
    if sigma2_hat <= 0:
        raise NonPositiveEstimate(f"sigma_hat^2 = {sigma2_hat:.6g} <= 0")

    fitted_means = tau_hat / alpha
    fitted_sds = np.sqrt(sigma2_hat * tau_hat / alpha**3)
    r2 = _weighted_corr_sq(mean, fitted_means, w)
    return WinterFit(
        tau_hat=tau_hat,
        sigma_hat=float(np.sqrt(sigma2_hat)),
        fitted_means=tuple(fitted_means),
        fitted_sds=tuple(fitted_sds),
        r_squared_weighted=r2,
    )


def _weighted_corr_sq(y: np.ndarray, yhat: np.ndarray, w: np.ndarray) -> float:
    """Squared weighted correlation of y and yhat; NaN unless both vary."""
    if y.min() == y.max():  # the weighted mean of equal values may round off them
        return math.nan
    wsum = w.sum()
    dy = y - np.sum(w * y) / wsum
    dh = yhat - np.sum(w * yhat) / wsum
    num = np.sum(w * dy * dh)
    den = np.sqrt(np.sum(w * dy * dy) * np.sum(w * dh * dh))
    return float((num / den) ** 2) if den > 0 else math.nan


def load_walnut_observations() -> list[ForcingObservation]:
    """Bundled alpha,n,mean,sd rows of the walnut constant-forcing experiment."""
    ref = importlib.resources.files("thermalsum").joinpath("data/walnut_forcing.csv")
    with importlib.resources.as_file(ref) as path, open(path, newline="", encoding="utf-8") as fh:
        return [
            ForcingObservation(alpha=float(row["alpha"]), n=int(row["n"]),
                               mean_days=float(row["mean"]), sd_days=float(row["sd"]))
            for row in csv.DictReader(fh)
        ]


def quantile_bin_edges(values: Iterable[float], k: int = 4) -> np.ndarray:
    """k-quantile bin edges: data min/max outside, linear-interpolation quantiles inside.

    Returns k+1 non-decreasing edges. Bins are left-open right-closed except
    the lowest, which includes its left endpoint.
    """
    require_integer("k", k, 2)
    x = np.asarray(list(values), dtype=float)
    n = len(x)
    if n < k:
        raise ParameterError(f"need at least k={k} values, got {n}")
    # np.quantile(x, q, method="linear") step by step, without the np.unique
    # call that would import numpy.ma; partitioned as it partitions, so
    # even the sign of a zero edge is the same
    q = np.array([i / k for i in range(1, k)])
    index = (n - 1) * q
    below = np.floor(index).astype(np.intp)
    t = index - below
    part = np.partition(x, sorted({0, n - 1, *below.tolist(), *(below + 1).tolist()}))
    a, b = part[below], part[below + 1]
    interior = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    if np.isnan(part[-1]):  # NaN partitions last; np.quantile gives NaN
        interior[:] = np.nan
    return np.concatenate(([x.min()], interior, [x.max()]))


@dataclass
class BinnedGrid:
    """Per-cell (count, mean, sd) over an alpha x beta grid of quantile bins.

    sds are NaN where a cell holds fewer than two observations. clamped
    counts observations whose alpha or beta fell outside the outer edges and
    were pushed into the nearest boundary bin. degenerate_alpha/beta flag an
    axis whose edges collapsed (all values equal): every observation then
    lands in that axis's single valid bin.
    """

    alpha_edges: np.ndarray
    beta_edges: np.ndarray
    counts: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    clamped: int
    degenerate_alpha: bool
    degenerate_beta: bool

    def row_labels(self) -> list[str]:
        return _interval_labels(self.alpha_edges)

    def col_labels(self) -> list[str]:
        return _interval_labels(self.beta_edges)

    def format_table(self, kind: str = "mean") -> str:
        """Aligned text table of cell means, sds, or counts."""
        grid = {"mean": self.means, "sd": self.sds, "count": self.counts}[kind]
        rows = self.row_labels()
        cols = self.col_labels()
        width = max(12, *(len(c) + 2 for c in cols))
        lines = [f"{kind} by alpha (rows) x beta (cols)"]
        lines.append(" " * 16 + "".join(f"{c:>{width}}" for c in cols))
        for i, label in enumerate(rows):
            cells = []
            for j in range(len(cols)):
                v = grid[i, j]
                if kind == "count":
                    cells.append(f"{int(v):>{width}}")
                else:
                    cells.append(f"{'--':>{width}}" if np.isnan(v) else f"{v:>{width}.2f}")
            lines.append(f"{label:<16}" + "".join(cells))
        return "\n".join(lines) + "\n"

    def format_tables(self) -> str:
        """The mean, sd and count tables, separated by blank lines."""
        return "\n".join(self.format_table(kind) for kind in ("mean", "sd", "count"))


def _interval_labels(edges: np.ndarray) -> list[str]:
    labels = []
    for i in range(len(edges) - 1):
        left = "[" if i == 0 else "("
        labels.append(f"{left}{edges[i]:.4g}, {edges[i + 1]:.4g}]")
    return labels


def _bin_index(values: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, int]:
    # left-open right-closed bins; values at an interior edge go to the lower
    # bin; values beyond the outer edges clamp into the boundary bins
    idx = np.searchsorted(edges[1:-1], values, side="left")
    clamped = int(np.sum((values < edges[0]) | (values > edges[-1])))
    return idx, clamped


def bin_location_scale(
    observations: Iterable[tuple[float, float, float]],
    alpha_edges: Sequence[float] | None = None,
    beta_edges: Sequence[float] | None = None,
    k: int = 4,
) -> BinnedGrid:
    """Grouped (count, mean, sd) of bloom day-of-year over an (alpha, beta) grid.

    observations are finite (alpha, beta, bloom_doy) triples with bloom_doy
    in [1, 366]. Edges default to the k-quantile edges of the supplied
    values; pass explicit edges, at least 2 finite non-decreasing values,
    to pin the grid. Cells with fewer than two observations report a
    missing (NaN) sd.
    """
    obs = np.asarray(list(observations), dtype=float)
    if obs.ndim != 2 or obs.shape[1] != 3:
        raise ParameterError("observations must be (alpha, beta, bloom_doy) triples")
    if not np.isfinite(obs).all():
        raise ParameterError("alpha, beta and bloom_doy must be finite")
    doy = obs[:, 2]
    if np.any((doy < 1) | (doy > 366)):
        raise ParameterError("bloom_doy must lie in [1, 366]")
    a_edges = (
        quantile_bin_edges(obs[:, 0], k) if alpha_edges is None
        else np.asarray(alpha_edges, dtype=float)
    )
    b_edges = (
        quantile_bin_edges(obs[:, 1], k) if beta_edges is None
        else np.asarray(beta_edges, dtype=float)
    )
    for edges in (a_edges, b_edges):
        if edges.ndim != 1 or len(edges) < 2 or not np.isfinite(edges).all():
            raise ParameterError("bin edges must be at least 2 finite values")
        if np.any(np.diff(edges) < 0):
            raise ParameterError("bin edges must be non-decreasing")

    ai, clamp_a = _bin_index(obs[:, 0], a_edges)
    bi, clamp_b = _bin_index(obs[:, 1], b_edges)
    na, nb = len(a_edges) - 1, len(b_edges) - 1
    counts = np.zeros((na, nb), dtype=np.int64)
    means = np.full((na, nb), np.nan)
    sds = np.full((na, nb), np.nan)
    for i in range(na):
        for j in range(nb):
            sel = (ai == i) & (bi == j)
            c = int(sel.sum())
            counts[i, j] = c
            if c >= 1:
                means[i, j] = doy[sel].mean()
            if c >= 2:
                sds[i, j] = doy[sel].std(ddof=1)
    return BinnedGrid(
        alpha_edges=a_edges,
        beta_edges=b_edges,
        counts=counts,
        means=means,
        sds=sds,
        clamped=clamp_a + clamp_b,
        degenerate_alpha=bool(np.all(a_edges == a_edges[0])),
        degenerate_beta=bool(np.all(b_edges == b_edges[0])),
    )


def grid_csv_rows(grid: BinnedGrid) -> list[str]:
    """CSV lines (alpha_bin,beta_bin,count,mean,sd) for a binned grid."""
    lines = ["alpha_bin,beta_bin,count,mean,sd"]
    rows = grid.row_labels()
    cols = grid.col_labels()
    for i, rl in enumerate(rows):
        for j, cl in enumerate(cols):
            mean = "" if np.isnan(grid.means[i, j]) else f"{grid.means[i, j]:.6g}"
            sd = "" if np.isnan(grid.sds[i, j]) else f"{grid.sds[i, j]:.6g}"
            lines.append(f'"{rl}","{cl}",{int(grid.counts[i, j])},{mean},{sd}')
    return lines
