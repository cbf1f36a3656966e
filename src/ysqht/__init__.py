"""Hypothesis testing of a polarization-measurement box under Gaussian
preparation noise.

The library computes exact outcome probabilities and ratio curves for the
two measurement hypotheses, decides when aggregating counts over an unknown
preparation reverses the partitioned comparison (a Yule-Simpson reversal),
locates the noise and weight thresholds of that reversal, and emulates the
whole photon-counting experiment with seeded Monte Carlo.
"""

from .counting import (
    AcquisitionConfig,
    AggregateResult,
    Counts,
    EstimationError,
    RatioEstimate,
    RatioSummary,
    SimulatedSweep,
    aggregate,
    aggregation_seed,
    estimate_ratios,
    point_seed,
    run_acquisition,
    simulate_sweep,
)
from .logio import (
    LogFormatError,
    ManifestVersionError,
    RunManifest,
    format_record_line,
    read_count_log,
    sweep_table,
    write_count_log,
    write_sweep_csv,
)
from .qubit import (
    Analyzer,
    NoiseParams,
    QubitState,
    born_probability,
    dephase,
    dephase_oracle,
    mix,
    pure_state,
    tilt,
)
from .theory import (
    DeltaThreshold,
    Gamma2Threshold,
    OutcomeProbabilities,
    ScenarioParams,
    Sweep,
    SweepRow,
    YsVerdict,
    delta_threshold,
    gamma2_threshold,
    outcome_probabilities,
    reversal_pairs_exist,
    small_angle_threshold,
    sweep_delta,
    sweep_gamma2,
    ys_reversal,
)
from .version import __version__

__all__ = [
    "__version__",
    # states and channels
    "Analyzer",
    "NoiseParams",
    "QubitState",
    "born_probability",
    "dephase",
    "dephase_oracle",
    "mix",
    "pure_state",
    "tilt",
    # closed forms and thresholds
    "DeltaThreshold",
    "Gamma2Threshold",
    "OutcomeProbabilities",
    "ScenarioParams",
    "Sweep",
    "SweepRow",
    "YsVerdict",
    "delta_threshold",
    "gamma2_threshold",
    "outcome_probabilities",
    "reversal_pairs_exist",
    "small_angle_threshold",
    "sweep_delta",
    "sweep_gamma2",
    "ys_reversal",
    # photon-counting emulation
    "AcquisitionConfig",
    "AggregateResult",
    "Counts",
    "EstimationError",
    "RatioEstimate",
    "RatioSummary",
    "SimulatedSweep",
    "aggregate",
    "aggregation_seed",
    "estimate_ratios",
    "point_seed",
    "run_acquisition",
    "simulate_sweep",
    # file formats
    "LogFormatError",
    "ManifestVersionError",
    "RunManifest",
    "format_record_line",
    "read_count_log",
    "sweep_table",
    "write_count_log",
    "write_sweep_csv",
]
