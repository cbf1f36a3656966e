"""Seeded Monte Carlo emulation of the photon-counting acquisition.

Each iteration draws one Gaussian preparation tilt ``alpha`` and four
independent Poisson counts behind the phase-modulator settings 0, 2*theta,
-2*alpha, and 2*(theta - alpha); a photon passes the final 45-degree
polarizer with probability (1 + cos(phi))/2.  The count at phase 0 has unit
pass probability and serves as the normalization for the ratio estimates.
The counts of a whole acquisition are held as columns (``Counts``), and
estimation and aggregation work on those columns; the tilts, which no
estimate reads, are drawn and dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import AGGREGATION_MODES
from .qubit import NoiseParams, _require_finite, _require_probability
from .theory import ESTIMATORS, Sweep

#: Per-grid-point seed stride for sweep runs (odd 64-bit constant), so any
#: single point can be re-run in isolation: seed_i = base ^ (i * stride).
SEED_STRIDE = 0x9E3779B97F4A7C15

#: Salt separating aggregation draws from acquisition draws at the same point.
AGGREGATION_SALT = 0xD1342543DE82EF95

_UINT64 = 2**64

#: The largest Poisson mean numpy draws from: it keeps a count inside the
#: 64-bit range a record line holds.
_POISSON_MEAN_MAX = 2**63 - 1 - 10 * math.sqrt(2**63 - 1)


def _require_seed(seed: int) -> int:
    if not isinstance(seed, int) or not 0 <= seed < _UINT64:
        raise ValueError(
            f"seed must be an unsigned 64-bit integer, got {seed!r}"
        )
    return seed


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
        # A window's clean count is drawn with mean rate * window.
        if rate * window > _POISSON_MEAN_MAX:
            raise ValueError(
                f"mean_rate * window_seconds must be at most "
                f"{_POISSON_MEAN_MAX:.6g}, got {rate!r} * {window!r} = "
                f"{rate * window!r}"
            )

    @property
    def expected_counts(self) -> float:
        return self.mean_rate * self.window_seconds


@dataclass(frozen=True, eq=False)
class Counts:
    """Counts of one acquisition as a column block: row i of ``counts``
    (int64, shape (n, 4), columns n1p, n1q, n2p, n2q) holds the four raw
    counts of iteration i.  Its tilt is not kept: no estimate reads it, and
    ``run_acquisition`` draws it again from the seed.  Compare two values
    with ``np.array_equal`` on their ``counts``."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got {counts.dtype}")
        counts = counts.astype(np.int64, copy=False)
        if counts.ndim != 2 or counts.shape[1] != 4:
            raise ValueError(
                f"need counts of shape (n, 4), got {counts.shape}")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class RatioEstimate:
    """Ratio estimate r = sum(a)/sum(b) over the ``n_samples`` iterations
    of an acquisition, with its delta-method standard error
    sqrt(n/(n-1) * sum((a - r*b)**2)) / sum(b), a one-sigma interval: NaN,
    undefined, over a single iteration and where it is at most 4 * 2**-52 *
    abs(r), the rounding error of r itself (as where every residual a - r*b
    is 0, and wherever sum(a) is 0; see the README), but for p at gamma1 = 1
    over more iterations, exact with error 0.0 as a is b by construction.
    Where r has no finite value (sum(b) is 0, as over no iterations, or so
    small that r overflows) it is undefined: ``value`` and ``std_error`` are
    both NaN."""

    value: float
    std_error: float
    n_samples: int


@dataclass(frozen=True)
class AggregateResult:
    """The seven estimates of one acquisition, in ``ESTIMATORS`` order: the
    partitioned q1/p1, p2, q2 and q2/p2 from the clean and noisy counts
    alone, and the aggregated p, q and q/p from the mixed counts.
    ``excluded`` is always 0, as every iteration is used; it keeps the shape
    of the reports."""

    q1_over_p1: RatioEstimate
    p2: RatioEstimate
    q2: RatioEstimate
    q2_over_p2: RatioEstimate
    p: RatioEstimate
    q: RatioEstimate
    q_over_p: RatioEstimate
    excluded: int


def run_acquisition(config: AcquisitionConfig) -> Counts:
    """All iterations of one acquisition; bitwise reproducible for a fixed
    seed.

    Draw order ("RNG stream 2", count-log schema versions 2 and 3): all n
    tilts in one call, ``alpha = normal(0, delta_std, n)``, then all counts
    in one Poisson call over the row-major (n, 4) phases 0, 2*theta,
    -2*alpha, 2*(theta - alpha).  The tilts are not returned: the first
    call of ``default_rng(seed)`` gives them again."""
    rng = np.random.default_rng(config.seed)
    n = config.iterations
    alpha = rng.normal(0.0, config.noise.delta_std, n)
    phases = np.zeros((n, 4))
    phases[:, 1] = 2.0 * config.theta
    phases[:, 2] = -2.0 * alpha
    phases[:, 3] = 2.0 * (config.theta - alpha)
    lam = config.expected_counts * 0.5 * (1.0 + np.cos(phases))
    return Counts(rng.poisson(lam))


def _mixing_picks(rng: np.random.Generator, n: int, gamma1: float,
                  gamma2: float, out: np.ndarray | None = None) -> np.ndarray:
    """The stochastic mixing picks of one acquisition at one gamma1: bools of
    shape (2, n) from one ``rng.random((2, n))`` call over its n iterations.
    Row 0 takes the clean n1p into the hypothesis-A counts (below gamma1),
    row 1 the clean n1q into the hypothesis-B counts (below gamma2)."""
    return np.less(rng.random((2, n)), [[gamma1], [gamma2]], out=out)


def _estimate(
    counts: np.ndarray,
    gamma1: Sequence[float],
    gamma2: np.ndarray,
    picks: np.ndarray | None,
) -> dict[str, np.ndarray]:
    """The estimator kernel behind ``aggregate`` and the simulated sweeps: P
    acquisitions (``counts``, int64 of shape (P, n, 4)) estimated at once
    from all their iterations.

    Returns, by its name in ``ESTIMATORS``, each estimator's value and
    standard error stacked, of shape (2, rows, P): one column per
    acquisition, and one row for each estimator of n1p, n1q, n2p and n2q
    alone (the estimates of p1, q1, p2 and q2), or one row per gamma1 for
    each that reads the mixed counts A and B (the estimates of p and q) at
    that gamma1 and the acquisition's weight ``gamma2[i]``, each estimated
    as ``RatioEstimate`` states: NaN, value and error, where it has no
    finite value.  In stochastic mode ``picks`` (shape
    (len(gamma1), P, 2, n)) holds the ``_mixing_picks`` of each gamma1 and
    acquisition: A takes n1p where row 0 is True, else n2p, and B takes n1q
    where row 1 is, else n2q.  In expected mode (``picks`` None) A and B
    are the weighted averages."""
    n = counts.shape[1]
    # One C-contiguous (P, n) block per column, keyed by the probability it
    # estimates: a sum along the last axis gives each row the bits that row
    # gets on its own.
    column = dict(zip(("p1", "q1", "p2", "q2"), np.ascontiguousarray(
        np.moveaxis(counts, -1, 0), dtype=float
    )))
    n1p, n1q, n2p, n2q = column.values()

    def pairs():
        yield from ((name, column[a], column[b])
                    for name, a, b in ESTIMATORS if {a, b} <= column.keys())
        weight = gamma2[:, np.newaxis]
        for k, g1 in enumerate(gamma1):
            if picks is None:
                mixed = {**column, "p": g1 * n1p + (1.0 - g1) * n2p,
                         "q": weight * n1q + (1.0 - weight) * n2q}
            else:
                mixed = {**column, "p": np.where(picks[k, :, 0], n1p, n2p),
                         "q": np.where(picks[k, :, 1], n1q, n2q)}
            if g1 == 1.0:  # every mixed p count is n1p: p is exactly 1
                mixed["p"] = n1p
            yield from ((name, mixed[a], mixed[b])
                        for name, a, b in ESTIMATORS
                        if not {a, b} <= column.keys())

    rows: dict[str, list] = {}
    scale = n / (n - 1) if n > 1 else np.inf  # one iteration: no bar
    # One estimator at a time, so that only one residual block is alive.
    for name, a, b in pairs():
        total_a, total_b = a.sum(axis=-1), b.sum(axis=-1)
        # A number with no finite value (r where sum(b) is 0, or so small
        # that r overflows, and then its bar) is undefined: NaN, quietly.
        with np.errstate(all="ignore"):
            value = total_a / total_b
            residual = a - value[:, np.newaxis] * b
            residual *= residual
            std_error = np.sqrt(residual.sum(axis=-1) * scale) / total_b
        value[~np.isfinite(value)] = np.nan
        std_error[~np.isfinite(std_error)] = np.nan
        if a is not b:
            # A bar within the rounding error of r (every residual 0, or a
            # proportional to b and r*b rounding off a) measures no spread;
            # it would claim an exact estimate.
            std_error[std_error <= 4 * 2.0**-52 * np.abs(value)] = np.nan
        rows.setdefault(name, []).append((value, std_error))
    return {name: np.stack(found, axis=1) for name, found in rows.items()}


def aggregate(
    counts: Counts,
    gamma1: float,
    gamma2: float,
    rng: np.random.Generator | None = None,
) -> AggregateResult:
    """The seven estimates of one acquisition: the partitioned ratios of its
    clean and noisy counts, and the aggregated ones after mixing them to
    emulate ignorance of the preparation.

    Each sums its counts over all iterations and divides by the summed n1p
    (q2/p2 by the summed n2p, q/p by the summed mixed p counts).  With
    ``rng`` (stochastic mode), each iteration takes the clean count with
    probability gamma, by one ``rng.random((2, n))`` call over the n
    iterations: row 0 picks the hypothesis-A counts (clean below gamma1),
    row 1 the hypothesis-B counts (clean below gamma2).  Without it
    (expected mode), the deterministic weighted average
    gamma*clean + (1-gamma)*noisy.  Both converge to the aggregated q/p as
    the number of iterations grows; the partitioned estimates depend on
    neither the mode nor the weights.  The simulated sweeps run the same
    kernel on all their grid points at once.

    An estimate with no finite value, as where its summed denominator is
    0, is NaN, value and error; the others are still formed."""
    gamma1 = _require_probability(gamma1, "gamma1")
    gamma2 = _require_probability(gamma2, "gamma2")
    picks = (None if rng is None
             else _mixing_picks(rng, len(counts), gamma1, gamma2)[None, None])
    estimates = _estimate(counts.counts[np.newaxis], (gamma1,),
                          np.array([gamma2]), picks)
    return AggregateResult(**{
        name: RatioEstimate(*pair.ravel().tolist(), len(counts))
        for name, pair in estimates.items()
    }, excluded=0)


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

    All points are estimated at once by the kernel that ``aggregate`` runs
    on one acquisition.  In stochastic mode the mixing draws of point i and
    gamma1 column k are one ``random((2, iterations))`` call of
    ``default_rng(aggregation_seed(seed_i, k))``, laid out as in
    ``aggregate``, so every point holds the bits of a re-run of that point
    through those functions."""
    base = AcquisitionConfig(sweep.theta, NoiseParams(0.0), seed, iterations,
                             mean_rate, window_seconds)
    if mode not in AGGREGATION_MODES:
        raise ValueError(
            f"mode must be one of {AGGREGATION_MODES}, got {mode!r}")
    grid = sweep.x
    fixed = np.full(grid.size, sweep.fixed)
    delta_std, gamma2 = ((grid, fixed) if sweep.axis == "delta"
                         else (fixed, grid))
    columns = len(sweep.gamma1_values)
    seeds = np.array([point_seed(seed, i) for i in range(grid.size)],
                     dtype=np.uint64)
    counts = np.empty((grid.size, iterations, 4), np.int64)
    picks = (None if mode == "expected"
             else np.empty((columns, grid.size, 2, iterations), bool))
    for i, (std, point, weight) in enumerate(zip(
            delta_std.tolist(), seeds.tolist(), gamma2.tolist())):
        counts[i] = run_acquisition(
            replace(base, noise=NoiseParams(std), seed=point)
        ).counts
        if picks is not None:
            for k, g1 in enumerate(sweep.gamma1_values):
                rng = np.random.default_rng(aggregation_seed(point, k))
                _mixing_picks(rng, iterations, g1, weight, picks[k, i])
    estimates = _estimate(counts, sweep.gamma1_values, gamma2, picks)
    for column in (seeds, *estimates.values()):
        column.flags.writeable = False
    return SimulatedSweep(
        sweep, mode, seed, iterations, mean_rate, window_seconds, seeds,
        *estimates["q2_over_p2"][:, 0], *estimates["q_over_p"],
    )
