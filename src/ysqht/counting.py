"""Seeded Monte Carlo emulation of the photon-counting acquisition.

Each iteration draws one Gaussian preparation tilt ``alpha`` and four
independent Poisson counts behind the phase-modulator settings 0, 2*theta,
-2*alpha, and 2*(theta - alpha); a photon passes the final 45-degree
polarizer with probability (1 + cos(phi))/2.  The count at phase 0 has unit
pass probability and serves as the normalization for the ratio estimates.
The counts of a whole acquisition are held as columns (``Counts``), and
estimation and aggregation work on those columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .qubit import NoiseParams, _require_finite, _require_probability
from .theory import Sweep

#: Per-grid-point seed stride for sweep runs (odd 64-bit constant), so any
#: single point can be re-run in isolation: seed_i = base ^ (i * stride).
SEED_STRIDE = 0x9E3779B97F4A7C15

#: Salt separating aggregation draws from acquisition draws at the same point.
AGGREGATION_SALT = 0xD1342543DE82EF95

_UINT64 = 2**64

AGGREGATION_MODES = ("stochastic", "expected")


def _require_seed(seed: int) -> int:
    if not isinstance(seed, int) or not 0 <= seed < _UINT64:
        raise ValueError(
            f"seed must be an unsigned 64-bit integer, got {seed!r}"
        )
    return seed


class EstimationError(RuntimeError):
    """An estimate has nothing to divide by: a summed n1p of 0 (as with no
    records), or a derived ratio whose summed denominator is 0."""


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
        _require_seed(self.seed)
        if not isinstance(self.iterations, int) or self.iterations < 1:
            raise ValueError(
                f"iterations must be a positive integer, got {self.iterations!r}"
            )
        rate = _require_finite(self.mean_rate, "mean_rate")
        window = _require_finite(self.window_seconds, "window_seconds")
        if rate <= 0.0 or window <= 0.0:
            raise ValueError("mean_rate and window_seconds must be positive")

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
    """Ratio estimate r = sum(a)/sum(b) over the ``n_samples`` iterations
    of an acquisition, with its delta-method standard error
    sqrt(n/(n-1) * sum((a - r*b)**2)) / sum(b), a one-sigma interval (0.0
    from a single iteration).

    ``poisson_error`` is a first-order counting-statistics cross-check,
    (Na/Nb)*sqrt(1/Na + 1/Nb) on the summed counts; None for estimates
    whose sums are not raw counts (the mixed counts of an aggregation)."""

    value: float
    std_error: float
    n_samples: int
    poisson_error: float | None = None


@dataclass(frozen=True)
class RatioSummary:
    """Count ratios from one acquisition: q1/p1, p2 and q2 normalized by
    the unit-probability count n1p, and q2/p2 formed directly as summed n2q
    over summed n2p.  ``excluded`` is always 0, as every iteration is used;
    it keeps the shape of the reports."""

    q1_over_p1: RatioEstimate
    p2: RatioEstimate
    q2: RatioEstimate
    q2_over_p2: RatioEstimate
    excluded: int


@dataclass(frozen=True)
class AggregateResult:
    """Aggregated-hypothesis estimates after mixing clean and noisy counts;
    ``excluded`` is always 0, as in ``RatioSummary``."""

    p: RatioEstimate
    q: RatioEstimate
    q_over_p: RatioEstimate
    excluded: int


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


def _poisson_ratio_error(num_total: np.ndarray, den_total: np.ndarray
                         ) -> np.ndarray:
    # sqrt form of (Na/Nb)*sqrt(1/Na + 1/Nb), well defined at Na = 0.
    return np.sqrt(num_total * (1.0 + num_total / den_total)) / den_total


def _estimate(
    counts: np.ndarray,
    clean: bool,
    gamma1: Sequence[float] = (),
    gamma2: np.ndarray | None = None,
    rngs: Sequence[Sequence[np.random.Generator]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The estimator kernel behind ``estimate_ratios``, ``aggregate`` and
    the simulated sweeps: P acquisitions (``counts``, int64 of shape
    (P, n, 4)) estimated at once from all their iterations.

    Returns ``value``, ``std_error`` and ``poisson_error`` (NaN where there
    is none), each of shape (J, P): one row per estimator, one column per
    acquisition.  Each estimator is a ratio of sums r = sum(a)/sum(b) with
    its delta-method standard error sqrt(n/(n-1) * sum((a - r*b)**2)) /
    sum(b) (0.0 from one iteration).  The (a, b) pairs are, when ``clean``,
    (n1q, n1p), (n2p, n1p), (n2q, n1p) and (n2q, n2p), with the Poisson
    cross-check of their sums; then for each gamma1 value (A, n1p), (B,
    n1p) and (B, A), where A and B are the mixed counts at that gamma1 and
    the acquisition's weight ``gamma2[i]``: picked clean or noisy by two
    ``rngs[i][k].random(n)`` draws, A's first (stochastic mode), or their
    weighted averages when ``rngs`` is None (expected mode)."""
    points, n, _ = counts.shape
    # One C-contiguous (P, n) block per column: a sum along the last axis
    # gives each row the bits that row gets on its own.
    n1p, n1q, n2p, n2q = np.ascontiguousarray(
        np.moveaxis(counts, -1, 0), dtype=float
    )
    if not n1p.sum(axis=-1).all():
        raise EstimationError(
            "every iteration had n1p = 0; nothing to normalize by"
        )

    def pairs():
        if clean:
            yield from ((n1q, n1p), (n2p, n1p), (n2q, n1p), (n2q, n2p))
        weight = None if gamma2 is None else gamma2[:, np.newaxis]
        for k, g1 in enumerate(gamma1):
            if rngs is None:
                mixed_a = g1 * n1p + (1.0 - g1) * n2p
                mixed_b = weight * n1q + (1.0 - weight) * n2q
            else:
                pick_a, pick_b = np.empty((2, points, n), dtype=bool)
                for i in range(points):
                    pick_a[i] = rngs[i][k].random(n) < g1
                    pick_b[i] = rngs[i][k].random(n) < gamma2[i]
                mixed_a = np.where(pick_a, n1p, n2p)
                mixed_b = np.where(pick_b, n1q, n2q)
            yield from ((mixed_a, n1p), (mixed_b, n1p), (mixed_b, mixed_a))

    shape = ((4 if clean else 0) + 3 * len(gamma1), points)
    value, std_error = np.empty(shape), np.empty(shape)
    poisson_error = np.full(shape, np.nan)
    scale = n / (n - 1) if n > 1 else 0.0
    # One estimator at a time, so that only one residual block is alive.
    for j, (a, b) in enumerate(pairs()):
        total_a, total_b = a.sum(axis=-1), b.sum(axis=-1)
        if not total_b.all():
            raise EstimationError(
                "cannot form a derived ratio: the denominator estimate "
                "vanished"
            )
        value[j] = total_a / total_b
        residual = a - value[j, :, np.newaxis] * b
        residual *= residual
        std_error[j] = np.sqrt(residual.sum(axis=-1) * scale) / total_b
        if clean and j < 4:
            poisson_error[j] = _poisson_ratio_error(total_a, total_b)
    return value, std_error, poisson_error


def _estimate_one(counts: Counts, *args) -> list[RatioEstimate]:
    """The kernel's estimates of one acquisition, in its row order."""
    rows = _estimate(counts.counts[np.newaxis], *args)
    return [
        RatioEstimate(float(v), float(e), len(counts),
                      None if math.isnan(p) else float(p))
        for v, e, p in zip(*(row[:, 0] for row in rows))
    ]


def _require_mode(mode: str) -> None:
    if mode not in AGGREGATION_MODES:
        raise ValueError(
            f"mode must be one of {AGGREGATION_MODES}, got {mode!r}"
        )


def estimate_ratios(counts: Counts) -> RatioSummary:
    """Ratio-of-sums estimates over all iterations, normalized by n1p, by
    the estimator kernel that the simulated sweeps run on all their grid
    points at once.

    Raises EstimationError when the summed n1p (or, for q2/p2, the summed
    n2p) is 0."""
    return RatioSummary(*_estimate_one(counts, True), excluded=0)


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
    gamma*clean + (1-gamma)*noisy.  Both sum the mixed counts over all
    iterations and divide by the summed n1p (q/p by the summed mixed p
    counts); both converge to the aggregated q/p as the number of iterations
    grows.  The simulated sweeps run the same estimator kernel on all their
    grid points at once."""
    gamma1 = _require_probability(gamma1, "gamma1")
    gamma2 = _require_probability(gamma2, "gamma2")
    _require_mode(mode)
    if mode == "stochastic" and rng is None:
        raise ValueError("stochastic aggregation needs a random generator")
    return AggregateResult(*_estimate_one(
        counts, False, (gamma1,), np.array([gamma2]),
        None if mode == "expected" else [[rng]],
    ), excluded=0)


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


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class SimulatedSweep:
    """Monte Carlo counterpart of the analytic ``sweep``, run by
    ``simulate_sweep``: per grid point, one acquisition of ``iterations``
    iterations at ``mean_rate`` over ``window_seconds``, seeded from
    ``seed``, and aggregated in ``mode`` (these five names are also the
    sweep manifest's).  The results are read-only columns over the sweep's
    grid (P points): each point's acquisition ``seeds`` (uint64), the q2/p2
    estimate ``q2_over_p2`` with its standard error ``q2_over_p2_err``, each
    of shape (P,), and the q/p estimate ``q_over_p`` with its
    ``q_over_p_err``, of shape (len(sweep.gamma1_values), P), one row per
    gamma1.  Compare two values with ``np.array_equal`` on their columns."""

    sweep: Sweep
    mode: str
    seed: int
    iterations: int
    mean_rate: float
    window_seconds: float
    seeds: np.ndarray
    q2_over_p2: np.ndarray
    q2_over_p2_err: np.ndarray
    q_over_p: np.ndarray
    q_over_p_err: np.ndarray


def simulate_sweep(
    sweep: Sweep,
    seed: int,
    iterations: int = 200,
    mean_rate: float = 1e4,
    window_seconds: float = 1.0,
    mode: str = "stochastic",
) -> SimulatedSweep:
    """Fresh acquisition per grid point of ``sweep``, at its theta, with a
    seed derived from ``seed`` and the grid index, aggregated once per
    gamma1.  A point's noise and weight gamma2 are its grid value and
    ``sweep.fixed`` on the delta axis, and ``sweep.fixed`` and its grid
    value on the gamma2 axis.  The counting parameters and ``mode`` are
    checked before any acquisition runs, even on an empty grid.

    All points are estimated at once by the kernel that ``estimate_ratios``
    and ``aggregate`` run on one acquisition, with the mixing draws of point
    i and gamma1 column k from ``aggregation_seed(seed_i, k)``, so every
    point holds the bits of a re-run of that point through those
    functions."""
    base = AcquisitionConfig(sweep.theta, NoiseParams(0.0), seed, iterations,
                             mean_rate, window_seconds)
    _require_mode(mode)
    grid = sweep.x.tolist()
    if sweep.axis == "delta":
        noises = map(NoiseParams, grid)
        gamma2 = np.full(len(grid), sweep.fixed)
    else:
        noises = itertools.repeat(NoiseParams(sweep.fixed))
        gamma2 = sweep.x
    seeds = [point_seed(seed, i) for i in range(len(grid))]
    counts = np.empty((len(grid), iterations, 4), np.int64)
    for i, (noise, point) in enumerate(zip(noises, seeds)):
        counts[i] = run_acquisition(
            replace(base, noise=noise, seed=point)
        ).counts
    rngs = None if mode == "expected" else [
        [np.random.default_rng(aggregation_seed(point, k))
         for k in range(len(sweep.gamma1_values))]
        for point in seeds
    ]
    value, std_error, _ = _estimate(
        counts, True, sweep.gamma1_values, gamma2, rngs
    )
    return SimulatedSweep(
        sweep, mode, seed, iterations, mean_rate, window_seconds,
        _read_only(np.array(seeds, dtype=np.uint64)),
        _read_only(value[3].copy()), _read_only(std_error[3].copy()),
        _read_only(value[6::3].copy()), _read_only(std_error[6::3].copy()),
    )
