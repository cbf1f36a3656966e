"""Seeded Monte Carlo emulation of the photon-counting acquisition.

Each iteration draws one Gaussian preparation tilt ``alpha`` and four
independent Poisson counts behind the phase-modulator settings 0, 2*theta,
-2*alpha, and 2*(theta - alpha); a photon passes the final 45-degree
polarizer with probability (1 + cos(phi))/2.  The count at phase 0 has unit
pass probability and serves as the per-iteration normalization for all ratio
estimates.  The counts of a whole acquisition are held as columns
(``Counts``), and estimation and aggregation work on those columns.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .qubit import (
    NoiseParams,
    _require_distinct_probabilities,
    _require_finite,
    _require_probability,
)

#: Per-grid-point seed stride for sweep runs (odd 64-bit constant), so any
#: single point can be re-run in isolation: seed_i = base ^ (i * stride).
SEED_STRIDE = 0x9E3779B97F4A7C15

#: Salt separating aggregation draws from acquisition draws at the same point.
AGGREGATION_SALT = 0xD1342543DE82EF95

_UINT64 = 2**64

#: Below this many expected counts per window the per-iteration ratio
#: estimators become ill-conditioned.
RECOMMENDED_MIN_COUNTS = 100.0

AGGREGATION_MODES = ("stochastic", "expected")


class EstimationError(RuntimeError):
    """No usable iterations were left to estimate from."""


@dataclass(frozen=True)
class AcquisitionConfig:
    """One acquisition run: ``iterations`` repetitions of the four gated
    counts, each gathered over ``window_seconds`` at ``mean_rate`` expected
    detector counts per second at unit pass probability."""

    theta: float
    noise: NoiseParams
    seed: int
    iterations: int = 200
    mean_rate: float = 1e4
    window_seconds: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self.theta, "theta")
        if not isinstance(self.seed, int) or not 0 <= self.seed < _UINT64:
            raise ValueError(
                f"seed must be an unsigned 64-bit integer, got {self.seed!r}"
            )
        if not isinstance(self.iterations, int) or self.iterations < 1:
            raise ValueError(
                f"iterations must be a positive integer, got {self.iterations!r}"
            )
        rate = _require_finite(self.mean_rate, "mean_rate")
        window = _require_finite(self.window_seconds, "window_seconds")
        if rate <= 0.0 or window <= 0.0:
            raise ValueError("mean_rate and window_seconds must be positive")
        if self.expected_counts < RECOMMENDED_MIN_COUNTS:
            warnings.warn(
                f"expected counts per window = {self.expected_counts:g} < "
                f"{RECOMMENDED_MIN_COUNTS:g}; ratio estimators may be "
                f"ill-conditioned",
                stacklevel=2,
            )

    @property
    def expected_counts(self) -> float:
        return self.mean_rate * self.window_seconds


@dataclass(frozen=True, eq=False)
class Counts:
    """Counts of one acquisition as columns: row i of ``alpha`` (float64,
    shape (n,)) and of ``counts`` (int64, shape (n, 4), columns n1p, n1q,
    n2p, n2q) is iteration i, its shared tilt draw and its four raw counts.
    Compare two values with ``np.array_equal`` on their columns."""

    alpha: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=np.float64)
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got {counts.dtype}")
        counts = counts.astype(np.int64, copy=False)
        if alpha.ndim != 1 or counts.shape != (alpha.size, 4):
            raise ValueError(
                f"need alpha of shape (n,) and counts of shape (n, 4), got "
                f"{alpha.shape} and {counts.shape}"
            )
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return self.alpha.size


@dataclass(frozen=True)
class RatioEstimate:
    """Ratio estimate: mean of the per-iteration ratios, with the standard
    error of that mean (0.0 when only one usable iteration exists).

    ``poisson_error`` is a first-order counting-statistics cross-check,
    (Na/Nb)*sqrt(1/Na + 1/Nb) on the summed counts; None for estimates that
    are not plain ratios of summed counts."""

    value: float
    std_error: float
    n_samples: int
    poisson_error: float | None = None


@dataclass(frozen=True)
class RatioSummary:
    """Normalized count ratios from one acquisition, all normalized by the
    unit-probability count n1p; ``q2_over_p2`` is the derived ratio of the q2
    and p2 means with their relative errors added in quadrature."""

    q1_over_p1: RatioEstimate
    p2: RatioEstimate
    q2: RatioEstimate
    q2_over_p2: RatioEstimate
    excluded: int


@dataclass(frozen=True)
class AggregateResult:
    """Aggregated-hypothesis estimates after mixing clean and noisy counts."""

    p: RatioEstimate
    q: RatioEstimate
    q_over_p: RatioEstimate
    excluded: int


def detection_probability(phi: float) -> float:
    """Probability that a photon passes the 45-degree polarizer after a
    relative H/V phase shift ``phi``: (1 + cos(phi))/2."""
    return 0.5 * (1.0 + math.cos(_require_finite(phi, "phi")))


def run_acquisition(config: AcquisitionConfig) -> Counts:
    """All iterations of one acquisition; bitwise reproducible for a fixed
    seed.

    Draw order ("RNG stream 2", count-log schema version 2): all n tilts in
    one call, ``alpha = normal(0, delta_std, n)``, then all counts in one
    Poisson call over the row-major (n, 4) phases 0, 2*theta, -2*alpha,
    2*(theta - alpha)."""
    rng = np.random.default_rng(config.seed)
    n = config.iterations
    alpha = rng.normal(0.0, config.noise.delta_std, n)
    phases = np.zeros((n, 4))
    phases[:, 1] = 2.0 * config.theta
    phases[:, 2] = -2.0 * alpha
    phases[:, 3] = 2.0 * (config.theta - alpha)
    lam = config.expected_counts * 0.5 * (1.0 + np.cos(phases))
    return Counts(alpha, rng.poisson(lam))


def _usable(counts: Counts) -> tuple[np.ndarray, int]:
    """The n1p, n1q, n2p, n2q columns (as contiguous float rows) of the
    iterations whose normalization count n1p is positive, and how many
    iterations were dropped."""
    if not len(counts):
        raise EstimationError("no records to estimate from")
    keep = counts.counts[:, 0] > 0
    kept = int(keep.sum())
    if not kept:
        raise EstimationError(
            "every iteration had n1p = 0; nothing to normalize by"
        )
    columns = np.ascontiguousarray(counts.counts[keep].T, dtype=float)
    return columns, len(counts) - kept


def _mean_estimate(
    per_iteration: np.ndarray, poisson_error: float | None = None
) -> RatioEstimate:
    n = int(per_iteration.size)
    value = float(per_iteration.mean())
    if n > 1:
        std_error = float(per_iteration.std(ddof=1) / math.sqrt(n))
    else:
        std_error = 0.0
    return RatioEstimate(value, std_error, n, poisson_error)


def _poisson_ratio_error(num_total: float, den_total: float) -> float:
    # sqrt form of (Na/Nb)*sqrt(1/Na + 1/Nb), well defined at Na = 0.
    return math.sqrt(num_total * (1.0 + num_total / den_total)) / den_total


def _propagated_ratio(
    num: RatioEstimate,
    den: RatioEstimate,
    poisson_error: float | None,
) -> RatioEstimate:
    if den.value == 0.0:
        raise EstimationError(
            "cannot form a derived ratio: the denominator estimate vanished"
        )
    value = num.value / den.value
    std_error = (
        math.sqrt(num.std_error**2 + (value * den.std_error) ** 2)
        / abs(den.value)
    )
    return RatioEstimate(value, std_error, num.n_samples, poisson_error)


def estimate_ratios(counts: Counts) -> RatioSummary:
    """Per-iteration ratio estimates normalized by n1p.

    Iterations with n1p = 0 are excluded and counted; estimating from no
    usable iterations raises EstimationError."""
    (n1p, n1q, n2p, n2q), excluded = _usable(counts)

    sums = {name: float(arr.sum()) for name, arr in
            (("n1p", n1p), ("n1q", n1q), ("n2p", n2p), ("n2q", n2q))}

    q1 = _mean_estimate(
        n1q / n1p, _poisson_ratio_error(sums["n1q"], sums["n1p"])
    )
    p2 = _mean_estimate(
        n2p / n1p, _poisson_ratio_error(sums["n2p"], sums["n1p"])
    )
    q2 = _mean_estimate(
        n2q / n1p, _poisson_ratio_error(sums["n2q"], sums["n1p"])
    )
    q2_over_p2_poisson = (
        _poisson_ratio_error(sums["n2q"], sums["n2p"])
        if sums["n2p"] > 0.0
        else None
    )
    q2_over_p2 = _propagated_ratio(q2, p2, q2_over_p2_poisson)
    return RatioSummary(q1, p2, q2, q2_over_p2, excluded)


def aggregate(
    counts: Counts,
    gamma1: float,
    gamma2: float,
    rng: np.random.Generator | None = None,
    mode: str = "stochastic",
) -> AggregateResult:
    """Emulate ignorance of the preparation by mixing clean and noisy counts.

    stochastic mode picks, per iteration, the clean count with probability
    gamma (fresh Bernoulli draws for each hypothesis; needs ``rng``);
    expected mode uses the deterministic weighted average
    gamma*clean + (1-gamma)*noisy.  Both are normalized by n1p and averaged
    over iterations; both converge to the aggregated q/p as the number of
    iterations grows."""
    _require_probability(gamma1, "gamma1")
    _require_probability(gamma2, "gamma2")
    if mode not in AGGREGATION_MODES:
        raise ValueError(
            f"mode must be one of {AGGREGATION_MODES}, got {mode!r}"
        )
    (n1p, n1q, n2p, n2q), excluded = _usable(counts)

    if mode == "stochastic":
        if rng is None:
            raise ValueError("stochastic aggregation needs a random generator")
        pick_clean_a = rng.random(n1p.size) < gamma1
        pick_clean_b = rng.random(n1p.size) < gamma2
        numerator_a = np.where(pick_clean_a, n1p, n2p)
        numerator_b = np.where(pick_clean_b, n1q, n2q)
    else:
        numerator_a = gamma1 * n1p + (1.0 - gamma1) * n2p
        numerator_b = gamma2 * n1q + (1.0 - gamma2) * n2q

    p_hat = _mean_estimate(numerator_a / n1p)
    q_hat = _mean_estimate(numerator_b / n1p)
    q_over_p = _propagated_ratio(q_hat, p_hat, None)
    return AggregateResult(p_hat, q_hat, q_over_p, excluded)


def point_seed(base_seed: int, index: int) -> int:
    """Deterministic per-grid-point acquisition seed for sweep runs."""
    return (base_seed ^ (index * SEED_STRIDE)) % _UINT64


def aggregation_seed(acquisition_seed: int, gamma1_index: int = 0) -> int:
    """Deterministic seed for the Bernoulli mixing draws at one grid point
    and gamma1 column: a SeedSequence hash of (acquisition seed,
    AGGREGATION_SALT, column), so distinct points and columns collide only
    by chance (about 2**-64 per pair)."""
    entropy = [acquisition_seed, AGGREGATION_SALT, gamma1_index]
    return int(
        np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0]
    )


@dataclass(frozen=True)
class SimulatedPoint:
    """Estimates from the fresh acquisition at one grid point ``x`` of the
    swept parameter, drawn with ``seed``."""

    x: float
    seed: int
    q2_over_p2: RatioEstimate
    q_over_p: tuple[RatioEstimate, ...]


@dataclass(frozen=True)
class SimulatedSweep:
    """Monte Carlo counterpart of an analytic sweep; ``q_over_p`` entries
    align with ``gamma1_values``."""

    gamma1_values: tuple[float, ...]
    mode: str
    base_seed: int
    points: tuple[SimulatedPoint, ...]


def _simulate_sweep(
    base_config: AcquisitionConfig,
    grid: Sequence[float],
    gamma1_values: Sequence[float],
    mode: str,
    noises: Iterable[NoiseParams],
    gamma2s: Iterable[float],
) -> SimulatedSweep:
    """Fresh acquisition per grid point, with that point's noise from
    ``noises`` and a seed derived from the base seed and the grid index,
    estimated once and aggregated once per gamma1 at that point's weight
    from ``gamma2s``."""
    gamma1_values = _require_distinct_probabilities(gamma1_values, "gamma1")
    points = []
    for i, (x, noise, gamma2) in enumerate(zip(grid, noises, gamma2s)):
        seed = point_seed(base_config.seed, i)
        counts = run_acquisition(replace(base_config, noise=noise, seed=seed))
        ratios = tuple(
            aggregate(
                counts, g1, gamma2,
                np.random.default_rng(aggregation_seed(seed, k)), mode,
            ).q_over_p
            for k, g1 in enumerate(gamma1_values)
        )
        points.append(SimulatedPoint(
            float(x), seed, estimate_ratios(counts).q2_over_p2, ratios
        ))
    return SimulatedSweep(
        gamma1_values, mode, base_config.seed, tuple(points)
    )


def simulate_delta_sweep(
    base_config: AcquisitionConfig,
    delta_grid: Sequence[float],
    gamma1_values: Sequence[float],
    gamma2: float,
    mode: str = "stochastic",
) -> SimulatedSweep:
    """Fresh acquisition per noise grid point (seed derived from the base
    seed and the grid index), estimated and aggregated once per gamma1."""
    return _simulate_sweep(
        base_config, delta_grid, gamma1_values, mode,
        (NoiseParams(float(d)) for d in delta_grid),
        itertools.repeat(float(gamma2)),
    )


def simulate_gamma2_sweep(
    base_config: AcquisitionConfig,
    gamma2_grid: Sequence[float],
    gamma1_values: Sequence[float],
    mode: str = "stochastic",
) -> SimulatedSweep:
    """Fresh acquisition per weight grid point, aggregated once per gamma1.

    The counts themselves do not depend on the weights, so each grid point is
    an independent repetition of the same acquisition, exactly like repeated
    lab runs."""
    return _simulate_sweep(
        base_config, gamma2_grid, gamma1_values, mode,
        itertools.repeat(base_config.noise),
        (float(g2) for g2 in gamma2_grid),
    )
