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
                stacklevel=3,  # past the generated __init__ to its caller
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


@dataclass(frozen=True, eq=False)
class _Estimates:
    """Estimator rows of a batch of P acquisitions: ``value``,
    ``std_error`` and ``poisson_error`` (NaN where there is none) of shape
    (J, P), one row per estimator and one column per acquisition, with each
    acquisition's ``n_samples`` and ``excluded`` iterations (shape (P,))."""

    value: np.ndarray
    std_error: np.ndarray
    poisson_error: np.ndarray
    n_samples: np.ndarray
    excluded: np.ndarray

    def single(self, rows: range) -> list[RatioEstimate]:
        """The estimates of the given rows of a batch of one acquisition."""
        n = int(self.n_samples[0])
        return [
            RatioEstimate(
                float(self.value[j, 0]),
                float(self.std_error[j, 0]),
                n,
                None if math.isnan(p := float(self.poisson_error[j, 0]))
                else p,
            )
            for j in rows
        ]


def _poisson_ratio_error(num_total: np.ndarray, den_total: np.ndarray
                         ) -> np.ndarray:
    # sqrt form of (Na/Nb)*sqrt(1/Na + 1/Nb), well defined at Na = 0; NaN
    # where Nb = 0.
    num, den = np.broadcast_arrays(num_total, den_total)
    out = np.full(num.shape, np.nan)
    ok = den > 0.0
    num, den = num[ok], den[ok]
    out[ok] = np.sqrt(num * (1.0 + num / den)) / den
    return out


def _propagated_ratio(
    num: np.ndarray, num_error: np.ndarray,
    den: np.ndarray, den_error: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The ratios num/den and their standard errors, the relative errors
    added in quadrature.  The squares are taken by Python's ``**`` (the C
    library's pow), which rounds differently from numpy's x*x in about one
    case in a thousand, so each value keeps the bits of the scalar
    formula."""
    if (den == 0.0).any():
        raise EstimationError(
            "cannot form a derived ratio: the denominator estimate vanished"
        )
    value = num / den
    error = [
        math.sqrt(a**2 + (v * b) ** 2) / abs(d)
        for a, v, b, d in zip(num_error.tolist(), value.tolist(),
                              den_error.tolist(), den.tolist())
    ]
    return value, np.array(error)


def _estimate(
    counts: np.ndarray,
    clean: bool,
    gamma1: Sequence[float] = (),
    gamma2: np.ndarray | None = None,
    rngs: Sequence[Sequence[np.random.Generator]] | None = None,
) -> _Estimates:
    """The estimator kernel behind ``estimate_ratios``, ``aggregate`` and
    the simulated sweeps: P acquisitions (``counts``, int64 of shape
    (P, n, 4)) estimated at once from their kept (n1p > 0) iterations.

    Each estimator is the mean of a per-iteration ratio over n1p with the
    standard error of that mean (ddof 1; 0.0 from one iteration), or a ratio
    of two of them.  The rows are, when ``clean``, q1/p1, p2, q2 and q2/p2
    (with the Poisson cross-check of the summed counts), then for each
    gamma1 value p, q and q/p of the mixed counts at that gamma1 and the
    acquisition's weight ``gamma2[i]``: picked clean or noisy by two
    ``rngs[i][k].random(kept)`` draws (stochastic mode), or their weighted
    averages when ``rngs`` is None (expected mode)."""
    points, n, _ = counts.shape
    if not n:
        raise EstimationError("no records to estimate from")
    keep = counts[:, :, 0] > 0
    kept = np.count_nonzero(keep, axis=1)
    if not kept.all():
        raise EstimationError(
            "every iteration had n1p = 0; nothing to normalize by"
        )
    # A reduction along the last axis of a C-contiguous block gives each row
    # the bits that row gets on its own, so the acquisitions with nothing
    # excluded share one block.  One with exclusions is reduced alone, on
    # its kept iterations: zeros or padding in their place would regroup
    # numpy's pairwise sums and change the last bits.
    whole = kept == n
    blocks = [(np.array([i]), counts[i, keep[i]][np.newaxis])
              for i in np.flatnonzero(~whole)]
    if whole.all():
        blocks.append((np.arange(points), counts))
    elif whole.any():
        blocks.append((np.flatnonzero(whole), counts[whole]))

    first = 4 if clean else 0  # estimator row of p at the first gamma1
    shape = (first + 3 * len(gamma1), points)
    value, std_error = np.empty(shape), np.empty(shape)
    poisson_error = np.full(shape, np.nan)
    # The estimator rows that are ratios of two others (q2/p2 and q/p), and
    # those that are means of per-iteration ratios, in the order of the rows
    # of ``ratios``.
    derived = range(3 if clean else 2, shape[0], 3)
    means = [j for j in range(shape[0]) if j not in derived]
    for rows, block in blocks:
        m = block.shape[1]
        # Only n1p is copied to floats; the other columns are read in place.
        n1p = block[..., 0].astype(float, order="C")
        n1q, n2p, n2q = np.moveaxis(block[..., 1:], -1, 0)
        # C order, so that each row of ratios is reduced as on its own.
        ratios = np.empty((len(means), rows.size, m))
        if clean:
            ratios[:3] = np.moveaxis(block[..., 1:], -1, 0)
            sums = block.sum(axis=1, dtype=float).T  # exact: whole counts
            poisson_error[:3, rows] = _poisson_ratio_error(sums[1:], sums[0])
            poisson_error[3, rows] = _poisson_ratio_error(sums[3], sums[2])
        weight = None if gamma2 is None else gamma2[rows, np.newaxis]
        for k, g1 in enumerate(gamma1):
            a, b = ratios[means.index(first + 3 * k):][:2]
            if rngs is None:
                np.multiply(n1p, g1, out=a)
                a += (1.0 - g1) * n2p
                np.multiply(n1q, weight, out=b)
                b += (1.0 - weight) * n2q
            else:
                pick_a, pick_b = np.empty((2, rows.size, m), dtype=bool)
                for r, i in enumerate(rows):
                    pick_a[r] = rngs[i][k].random(m) < g1
                    pick_b[r] = rngs[i][k].random(m) < weight[r]
                np.copyto(a, n2p)
                np.copyto(a, n1p, where=pick_a)
                np.copyto(b, n2q)
                np.copyto(b, n1q, where=pick_b)
        ratios /= n1p
        cells = np.ix_(means, rows)
        value[cells] = ratios.mean(axis=-1)
        std_error[cells] = (
            ratios.std(axis=-1, ddof=1) / math.sqrt(m) if m > 1 else 0.0
        )
    for j in derived:
        value[j], std_error[j] = _propagated_ratio(
            value[j - 1], std_error[j - 1], value[j - 2], std_error[j - 2]
        )
    return _Estimates(value, std_error, poisson_error, kept, n - kept)


def _require_mode(mode: str) -> None:
    if mode not in AGGREGATION_MODES:
        raise ValueError(
            f"mode must be one of {AGGREGATION_MODES}, got {mode!r}"
        )


def estimate_ratios(counts: Counts) -> RatioSummary:
    """Per-iteration ratio estimates normalized by n1p, by the estimator
    kernel that the simulated sweeps run on all their grid points at once.

    Iterations with n1p = 0 are excluded and counted; estimating from no
    usable iterations raises EstimationError."""
    est = _estimate(counts.counts[np.newaxis], clean=True)
    return RatioSummary(*est.single(range(4)), int(est.excluded[0]))


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
    iterations grows.  The simulated sweeps run the same estimator kernel on
    all their grid points at once."""
    gamma1 = _require_probability(gamma1, "gamma1")
    gamma2 = _require_probability(gamma2, "gamma2")
    _require_mode(mode)
    if mode == "stochastic" and rng is None:
        raise ValueError("stochastic aggregation needs a random generator")
    est = _estimate(
        counts.counts[np.newaxis], False, (gamma1,), np.array([gamma2]),
        None if mode == "expected" else [[rng]],
    )
    return AggregateResult(*est.single(range(3)), int(est.excluded[0]))


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
    """Monte Carlo counterpart of an analytic sweep, as read-only columns over
    the grid ``x`` (shape (P,)): each point's acquisition ``seeds`` (uint64)
    and its usable iterations ``n_samples``; the q2/p2 estimate
    ``q2_over_p2`` with its standard error ``q2_over_p2_err`` and Poisson
    cross-check ``q2_over_p2_poisson`` (NaN where the summed n2p is 0), each
    of shape (P,); and the q/p estimate ``q_over_p`` with its
    ``q_over_p_err``, of shape (len(gamma1_values), P), one row per gamma1.
    Compare two values with ``np.array_equal`` on their columns
    (``equal_nan=True`` for the cross-check)."""

    gamma1_values: tuple[float, ...]
    mode: str
    base_seed: int
    x: np.ndarray
    seeds: np.ndarray
    n_samples: np.ndarray
    q2_over_p2: np.ndarray
    q2_over_p2_err: np.ndarray
    q2_over_p2_poisson: np.ndarray
    q_over_p: np.ndarray
    q_over_p_err: np.ndarray


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
    aggregated once per gamma1 at that point's weight from ``gamma2s``.

    All points are estimated at once by the kernel that ``estimate_ratios``
    and ``aggregate`` run on one acquisition, with the mixing draws of point
    i and gamma1 column k from ``aggregation_seed(seed_i, k)``, so every
    point holds the bits of a re-run of that point through those
    functions."""
    gamma1_values = _require_distinct_probabilities(gamma1_values, "gamma1")
    _require_mode(mode)
    points = list(zip(grid, noises, gamma2s))
    gamma2 = np.array([_require_probability(g2, "gamma2")
                       for _, _, g2 in points])
    seeds = [point_seed(base_config.seed, i) for i in range(len(points))]
    counts = np.empty((len(points), base_config.iterations, 4), np.int64)
    with warnings.catch_warnings():
        # Every point shares the base configuration's rate and window, and
        # that configuration has warned of low counts already.
        warnings.filterwarnings(
            "ignore", "expected counts per window", UserWarning
        )
        for i, ((_, noise, _), seed) in enumerate(zip(points, seeds)):
            counts[i] = run_acquisition(
                replace(base_config, noise=noise, seed=seed)
            ).counts
    rngs = None if mode == "expected" else [
        [np.random.default_rng(aggregation_seed(seed, k))
         for k in range(len(gamma1_values))]
        for seed in seeds
    ]
    est = _estimate(counts, True, gamma1_values, gamma2, rngs)
    return SimulatedSweep(
        gamma1_values, mode, base_config.seed,
        _read_only(np.array([float(x) for x, _, _ in points])),
        _read_only(np.array(seeds, dtype=np.uint64)),
        _read_only(est.n_samples),
        *(_read_only(column[3].copy()) for column in
          (est.value, est.std_error, est.poisson_error)),
        _read_only(est.value[6::3].copy()),
        _read_only(est.std_error[6::3].copy()),
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
