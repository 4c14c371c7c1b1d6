"""Calibration assessment for binary risk predictions via cumulative sums.

The library turns a validation sample of (predicted risk, binary outcome)
pairs into a standardized random walk of cumulative prediction errors and
tests whether that walk behaves like Brownian motion, as it must when the
model is calibrated.  It ships the walk-maximum test, the more powerful
bridge test (joint inference on mean and moderate calibration), classical
comparators, Monte Carlo variants, simulation study runners, and SVG
renderings of the cumulative calibration plot.
"""

from ._version import __version__
from .data import (
    CalibrationDataset,
    CumulativeProcess,
    WalkLocation,
    WalkStatistics,
    build_dataset,
    cumulative_process,
    walk_statistics,
)
from .distributions import (
    chi_square_sf,
    conditional_sup_cdf,
    critical_value,
    kolmogorov_cdf,
    kolmogorov_sf,
    std_normal_cdf,
    sup_abs_bm_cdf,
    sup_abs_bm_sf,
)
from .stattests import (
    BBTestResult,
    BMTestResult,
    HLTestResult,
    MonteCarloResult,
    RecalibrationFit,
    WeakCalibResult,
    fit_logistic_recalibration,
    hosmer_lemeshow_test,
    monte_carlo_test,
    weak_calibration_lr_test,
)
from .simulation import (
    SimulationScenario,
    SimulationSummary,
    generate_dataset,
    pvalue_ecdf,
    run_null_study,
    run_power_study,
)
from .svgplot import (
    render_binned_calibration_plot,
    render_cumulative_plot,
    render_study_figures,
)
from .dataio import (
    AnalysisReport,
    DatasetSummary,
    analyze,
    read_dataset_csv,
    write_report_json,
    write_study_json,
)

__all__ = [
    "__version__",
    "CalibrationDataset",
    "CumulativeProcess",
    "WalkLocation",
    "WalkStatistics",
    "build_dataset",
    "cumulative_process",
    "walk_statistics",
    "chi_square_sf",
    "conditional_sup_cdf",
    "critical_value",
    "kolmogorov_cdf",
    "kolmogorov_sf",
    "std_normal_cdf",
    "sup_abs_bm_cdf",
    "sup_abs_bm_sf",
    "BBTestResult",
    "BMTestResult",
    "HLTestResult",
    "MonteCarloResult",
    "RecalibrationFit",
    "WeakCalibResult",
    "fit_logistic_recalibration",
    "hosmer_lemeshow_test",
    "monte_carlo_test",
    "weak_calibration_lr_test",
    "SimulationScenario",
    "SimulationSummary",
    "generate_dataset",
    "pvalue_ecdf",
    "run_null_study",
    "run_power_study",
    "render_binned_calibration_plot",
    "render_cumulative_plot",
    "render_study_figures",
    "AnalysisReport",
    "DatasetSummary",
    "analyze",
    "read_dataset_csv",
    "write_report_json",
    "write_study_json",
]
