"""Expected values, bounds and gate inputs for the bundled reproduction targets.

These are the published reference numbers the `reproduce` subcommands check
against in --check mode: the seasonal-simulation mean/sd grids (R = 10,000
replicates, sigma = 20) and the binned lilac bloom-date grids. Keys of the
simulation tables are (alpha, beta, tau). Every bound and cell a check reads is set here.
"""

from __future__ import annotations

SIM2_MEANS: dict[tuple[float, float, float], float] = {
    (4.0, 0.2, 1000.0): 151.66, (4.0, 0.4, 1000.0): 136.83, (4.0, 0.8, 1000.0): 124.86,
    (8.0, 0.2, 1000.0): 114.87, (8.0, 0.4, 1000.0): 111.27, (8.0, 0.8, 1000.0): 106.85,
    (10.0, 0.2, 1000.0): 98.45, (10.0, 0.4, 1000.0): 97.20, (10.0, 0.8, 1000.0): 95.72,
    (4.0, 0.2, 2000.0): 199.54, (4.0, 0.4, 2000.0): 171.15, (4.0, 0.8, 2000.0): 149.16,
    (8.0, 0.2, 2000.0): 169.81, (8.0, 0.4, 2000.0): 152.43, (8.0, 0.8, 2000.0): 137.37,
    (10.0, 0.2, 2000.0): 156.22, (10.0, 0.4, 2000.0): 143.40, (10.0, 0.8, 2000.0): 131.34,
}

SIM2_SDS: dict[tuple[float, float, float], float] = {
    (4.0, 0.2, 1000.0): 15.48, (4.0, 0.4, 1000.0): 10.42, (4.0, 0.8, 1000.0): 7.21,
    (8.0, 0.2, 1000.0): 16.53, (8.0, 0.4, 1000.0): 13.27, (8.0, 0.8, 1000.0): 10.50,
    (10.0, 0.2, 1000.0): 15.94, (10.0, 0.4, 1000.0): 14.45, (10.0, 0.8, 1000.0): 12.71,
    (4.0, 0.2, 2000.0): 10.96, (4.0, 0.4, 2000.0): 7.22, (4.0, 0.8, 2000.0): 4.84,
    (8.0, 0.2, 2000.0): 10.93, (8.0, 0.4, 2000.0): 7.50, (8.0, 0.8, 2000.0): 5.11,
    (10.0, 0.2, 2000.0): 10.69, (10.0, 0.4, 2000.0): 7.66, (10.0, 0.8, 2000.0): 5.36,
}

# Tolerances for the simulation reproduction checks: means within 3 standard
# errors (sd/sqrt(R), bounded by 0.6 days); sds within 5% relative.
SIM2_MEAN_TOL_DAYS = 0.6
SIM2_SD_REL_TOL = 0.05

# Normality bound for the linear-trend run. A winter cell's bound widens to
# the normal-vs-inverse-Gaussian gap plus the DKW half-width at this level.
SIM1_KS_BOUND = 0.05
SIM1_KS_DKW_LEVEL = 0.001

# Winter agreement at the sim1 cell (alpha, beta, tau) below: the mean within
# 3 standard errors (sd_theory/sqrt(R)) of the overshoot-corrected target,
# the variance within 10% relative.
WINTER_CELL = (4.0, 0.0, 2000.0)
WINTER_MEAN_TOL_SE = 3.0
WINTER_VARIANCE_REL_TOL = 0.10

# The two-stage walnut fit's weighted R^2 must reach this.
WALNUT_R2_MIN = 0.95

# Synthetic binning check: the seasonal grid at this tau, one (alpha, beta) per bin.
SYNTHETIC_TAU = 1000.0
SYNTHETIC_ALPHA_EDGES = (3.0, 6.0, 9.0, 11.0)
SYNTHETIC_BETA_EDGES = (0.1, 0.3, 0.6, 0.9)

# Binned lilac bloom-date grids: rows are alpha bins, columns beta bins.
LILAC_ALPHA_EDGES = (0.0, 0.7, 1.9, 4.7, 16.4)
LILAC_BETA_EDGES = (-0.28, 0.07, 0.11, 0.15, 0.68)

LILAC_MEAN_BINS = (
    (157.70, 152.07, 147.60, 142.20),
    (151.12, 146.88, 141.64, 136.15),
    (136.30, 131.92, 127.58, 124.94),
    (109.56, 109.77, 107.36, 105.71),
)

LILAC_SD_BINS = (
    (12.80, 11.94, 10.90, 10.95),
    (12.76, 11.91, 12.67, 12.99),
    (16.68, 14.97, 14.45, 12.55),
    (19.39, 17.06, 15.31, 12.35),
)

LILAC_MEAN_TOL_DAYS = 2.0
LILAC_SD_TOL_DAYS = 1.5
