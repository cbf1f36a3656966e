"""Hypothesis testing of a polarization-measurement box under Gaussian
preparation noise.

The library computes exact outcome probabilities and ratio curves for the
two measurement hypotheses, decides when aggregating counts over an unknown
preparation reverses the partitioned comparison (a Yule-Simpson reversal),
locates the noise and weight thresholds of that reversal, and emulates the
whole photon-counting experiment with seeded Monte Carlo.

Each public name is imported from its module on first access (PEP 562), so
that importing the package, and using only the closed forms, loads no numpy.
The names the command line needs before any command runs are defined here:
the version, the errors it maps to exit codes and the aggregation modes its
options offer; ``cli``, ``logio`` and ``counting`` import them from here.
"""

import importlib

__version__ = "0.1.0"

AGGREGATION_MODES = ("stochastic", "expected")


class LogFormatError(ValueError):
    """A log file line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ManifestVersionError(ValueError):
    """The file's manifest schema is not supported by this tool version."""


#: Module of each public name, by topic.
_PUBLIC = {
    # states and channels
    "qubit": (
        "Analyzer",
        "NoiseParams",
        "QubitState",
        "born_probability",
        "dephase",
        "dephase_oracle",
        "mix",
        "pure_state",
        "tilt",
    ),
    # closed forms and thresholds
    "theory": (
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
    ),
    # photon-counting emulation
    "counting": (
        "AcquisitionConfig",
        "AggregateResult",
        "Counts",
        "RatioEstimate",
        "SimulatedSweep",
        "aggregate",
        "aggregation_seed",
        "point_seed",
        "run_acquisition",
        "simulate_sweep",
    ),
    # file formats
    "logio": (
        "RunManifest",
        "read_count_log",
        "sweep_table",
        "write_count_log",
        "write_sweep_csv",
    ),
}

_MODULE_OF = {
    name: module for module, names in _PUBLIC.items() for name in names
}

__all__ = [
    "__version__", "LogFormatError", "ManifestVersionError", *_MODULE_OF
]


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
