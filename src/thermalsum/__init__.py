"""Thermal-sum phenology as a stopped random walk.

Closed-form hitting-time approximations for stationary (winter) and
linearly warming (spring) daily temperatures, exact Monte Carlo
verification, regime estimation from daily temperature series, and the
weighted least-squares / quartile-binning analyses built on them.
"""

from .errors import (
    ApproximationDomainError,
    EmptyFile,
    HorizonExceeded,
    InsufficientData,
    MissingHeader,
    NonPositiveEstimate,
    ParameterError,
    SingularFit,
    ThermalSumError,
)
from .model import (
    HittingTimeApprox,
    RegimeParams,
    approx_spring,
    approx_winter,
    crossing_time,
    sensitivity,
    theory_approx,
)
from .simulate import (
    SimulationGrid,
    SimulationResult,
    TemperatureProcessSpec,
    ks_distance,
    run_grid,
    simulate_hitting_times,
)
from .regimes import (
    DailyTemperatureSeries,
    RegimeEstimate,
    clip_base,
    estimate_alpha,
    estimate_beta,
    estimate_regime,
)
from .fitting import (
    BinnedGrid,
    ForcingObservation,
    WinterFit,
    bin_location_scale,
    fit_winter_wls,
    load_walnut_observations,
    quantile_bin_edges,
)
from .data_io import (
    AnalysisRow,
    PhenologyObservation,
    StationTable,
    build_analysis_rows,
    haversine_km,
    match_station,
    midrange_series,
    parse_phenology_csv,
    parse_temperature_csv,
)

__version__ = "0.1.0"
