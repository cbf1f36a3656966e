"""Closed-form outcome probabilities, the aggregation-reversal predicate, and
the noise/weight thresholds that govern it.

The scenario: a detector box measures linear polarization either along the
reference axis (hypothesis A) or tilted by ``theta`` (hypothesis B).  The
probe is clean with probability ``gamma1`` under A and ``gamma2`` under B,
otherwise its polarization angle has been smeared by Gaussian noise.  Counts
partitioned by preparation always favor A; after aggregation the comparison
can flip.  All reversal inequalities are strict: ties count as no reversal.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qubit import (
    NoiseParams,
    _require_distinct_probabilities,
    _require_finite,
    _require_probability,
    _smearing,
)


def _threshold_cos(theta: float) -> float:
    """cos(2*theta) for threshold formulas, which require 0 < theta < pi/4."""
    t = _require_finite(theta, "theta")
    if not 0.0 < t < math.pi / 4.0:
        raise ValueError(
            f"threshold formulas require 0 < theta < pi/4 "
            f"(hypotheses only slightly tilted), got {t}"
        )
    return math.cos(2.0 * t)


def _require_tilt(theta: float) -> float:
    t = _require_finite(theta, "theta")
    if not 0.0 <= t <= math.pi / 2.0:
        raise ValueError(f"theta must lie in [0, pi/2], got {t}")
    return t


@dataclass(frozen=True)
class ScenarioParams:
    """One full parameter point: tilt of hypothesis B, preparation noise, and
    the per-hypothesis clean-preparation weights."""

    theta: float
    noise: NoiseParams
    gamma1: float
    gamma2: float

    def __post_init__(self) -> None:
        _require_tilt(self.theta)
        _require_probability(self.gamma1, "gamma1")
        _require_probability(self.gamma2, "gamma2")


@dataclass(frozen=True)
class OutcomeProbabilities:
    """The six "0"-outcome probabilities: clean probe (p1, q1), noisy probe
    (p2, q2), and aggregated (p, q), under hypotheses A and B."""

    p1: float
    q1: float
    p2: float
    q2: float
    p: float
    q: float


@dataclass(frozen=True)
class YsVerdict:
    """Verdict of the aggregation-reversal test at one parameter point.

    ``reversal`` is true exactly when both partitions favor A while the
    aggregated counts favor B."""

    clean_favors_a: bool
    noisy_favors_a: bool
    aggregated_favors_b: bool

    @property
    def reversal(self) -> bool:
        return (
            self.clean_favors_a
            and self.noisy_favors_a
            and self.aggregated_favors_b
        )


def outcome_probabilities(params: ScenarioParams) -> OutcomeProbabilities:
    """Closed forms for all six probabilities.

    p1 = 1, q1 = (1+cos 2theta)/2, p2 = (1+delta)/2,
    q2 = (1+delta*cos 2theta)/2 with delta the smearing factor; p and q are
    the gamma1- and gamma2-weighted aggregates."""
    return _closed_forms(
        math.cos(2.0 * params.theta), params.noise.smearing,
        params.gamma1, params.gamma2,
    )


def _closed_forms(
    c: float,
    delta: float | np.ndarray,
    gamma1: float | np.ndarray,
    gamma2: float | np.ndarray,
) -> OutcomeProbabilities:
    """The six probabilities from c = cos(2 theta), the smearing factor
    delta and the weights; delta and the weights may be numpy arrays, which
    broadcast."""
    p1 = 1.0
    q1 = 0.5 * (1.0 + c)
    p2 = 0.5 * (1.0 + delta)
    q2 = 0.5 * (1.0 + delta * c)
    p = gamma1 * p1 + (1.0 - gamma1) * p2
    q = gamma2 * q1 + (1.0 - gamma2) * q2
    return OutcomeProbabilities(p1, q1, p2, q2, p, q)


def ys_reversal(params: ScenarioParams) -> YsVerdict:
    """Strict-inequality reversal test: p1 > q1, p2 > q2, and q > p."""
    o = outcome_probabilities(params)
    return YsVerdict(o.p1 > o.q1, o.p2 > o.q2, o.q > o.p)


@dataclass(frozen=True)
class Gamma2Threshold:
    """Critical clean-preparation weight under hypothesis B.

    The reversal occurs for gamma2 strictly above ``value``.  ``reachable``
    is False when ``value`` is 1 or larger, i.e. no admissible weight
    triggers the effect."""

    value: float
    reachable: bool


def gamma2_threshold(
    gamma1: float, theta: float, noise: NoiseParams
) -> Gamma2Threshold:
    """gamma1/cos(2 theta) + (delta/(1-delta)) * (1-cos(2 theta))/cos(2 theta).

    Requires 0 < theta < pi/4 and a strictly noisy preparation (smearing
    below 1); a noiseless probe admits no reversal at any weight."""
    _require_probability(gamma1, "gamma1")
    c = _threshold_cos(theta)
    delta = noise.smearing
    if delta >= 1.0:
        raise ValueError(
            "noiseless preparation (delta_std = 0) admits no reversal: "
            "the weight threshold is undefined"
        )
    value = gamma1 / c + (delta / (1.0 - delta)) * ((1.0 - c) / c)
    return Gamma2Threshold(value, value < 1.0)


@dataclass(frozen=True)
class DeltaThreshold:
    """Critical preparation noise for fixed weights.

    The reversal occurs when the smearing factor drops strictly below
    ``smearing``, i.e. when the tilt spread exceeds ``delta_std``.
    ``reachable`` is False when the formula value falls outside (0, 1), in
    which case no noise level triggers the effect and ``delta_std`` is None.
    ``feasible`` reports the weight-pair existence bound
    smearing < 2*cos(2*theta) evaluated at the threshold."""

    smearing: float
    delta_std: float | None
    reachable: bool
    feasible: bool


def delta_threshold(
    gamma1: float, gamma2: float, theta: float
) -> DeltaThreshold:
    """(gamma1 - gamma2*c) / (gamma1 - 1 - (gamma2 - 1)*c) with c = cos(2 theta),
    converted to a tilt spread via delta_std = sqrt(-ln(smearing)/2).

    Returns an unreachable marker whenever the formula value is not a valid
    smearing factor (in particular for gamma2 <= gamma1, where reversing the
    weights can never favor B)."""
    _require_probability(gamma1, "gamma1")
    _require_probability(gamma2, "gamma2")
    c = _threshold_cos(theta)
    num = gamma1 - gamma2 * c
    den = gamma1 - 1.0 - (gamma2 - 1.0) * c
    if den == 0.0:
        return DeltaThreshold(math.inf, None, False, False)
    value = num / den
    reachable = 0.0 < value < 1.0
    delta_std = math.sqrt(-math.log(value) / 2.0) if reachable else None
    feasible = reachable and value < 2.0 * c
    return DeltaThreshold(value, delta_std, reachable, feasible)


def small_angle_threshold(gamma1: float, gamma2: float, theta: float) -> float:
    """Small-tilt expansion of the critical smearing factor:
    1 - 2*theta**2/(gamma2 - gamma1).  Accurate to O(theta^4)."""
    _require_probability(gamma1, "gamma1")
    _require_probability(gamma2, "gamma2")
    if gamma2 <= gamma1:
        raise ValueError(
            f"small-angle threshold needs gamma2 > gamma1, "
            f"got gamma1={gamma1}, gamma2={gamma2}"
        )
    t = _require_finite(theta, "theta")
    return 1.0 - 2.0 * t * t / (gamma2 - gamma1)


def reversal_pairs_exist(noise: NoiseParams, theta: float) -> bool:
    """Existence bound for reversal-triggering weight pairs at this noise
    level: smearing below twice cos(2*theta)."""
    c = _threshold_cos(theta)
    return noise.smearing < 2.0 * c


@dataclass(frozen=True)
class SweepRow:
    """Closed forms at one grid point ``x`` of the swept parameter;
    ``q_over_p`` and ``reversal`` entries align with the sweep's
    ``gamma1_values``."""

    x: float
    q1_over_p1: float
    q2_over_p2: float
    q_over_p: tuple[float, ...]
    reversal: tuple[bool, ...]


@dataclass(frozen=True, eq=False)
class Sweep:
    """Analytic curves along one axis: the noise spread delta_std at a fixed
    gamma2 (``axis`` "delta"), or the hypothesis-B clean weight gamma2 at a
    fixed noise (``axis`` "gamma2").

    The curves are read-only columns over the ascending grid ``x`` (shape
    (n,)): ``q2_over_p2`` (n,), and ``q_over_p`` and ``reversal`` of shape
    (len(gamma1_values), n), one row per gamma1; ``q1_over_p1`` is a single
    float, as it depends on neither axis.  ``rows`` gives the same values
    point by point.  Where q/p crosses 1 is given in closed form by
    ``delta_threshold`` and ``gamma2_threshold``."""

    axis: str
    theta: float
    gamma1_values: tuple[float, ...]
    x: np.ndarray
    q1_over_p1: float
    q2_over_p2: np.ndarray
    q_over_p: np.ndarray
    reversal: np.ndarray

    @functools.cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        """One ``SweepRow`` per grid point, built on first use."""
        return tuple(map(
            SweepRow,
            self.x.tolist(),
            itertools.repeat(self.q1_over_p1),
            self.q2_over_p2.tolist(),
            map(tuple, self.q_over_p.T.tolist()),
            map(tuple, self.reversal.T.tolist()),
        ))


def _checked_grid(values: Sequence[float], name: str) -> np.ndarray:
    """A read-only float copy of ``values``, checked to be finite and sorted
    ascending."""
    grid = np.array(values, dtype=np.float64)
    if grid.ndim != 1:
        raise ValueError(f"{name} grid must be a flat sequence of numbers")
    bad = ~np.isfinite(grid)
    if bad.any():  # the scalar check names the first bad value
        _require_finite(grid[bad.argmax()].item(), name)
    if (grid[1:] < grid[:-1]).any():
        raise ValueError(f"{name} grid must be sorted ascending")
    grid.flags.writeable = False
    return grid


def _sweep(
    axis: str,
    theta: float,
    gamma1_values: Sequence[float],
    grid: np.ndarray,
    smearing: float | np.ndarray,
    gamma2: float | np.ndarray,
) -> Sweep:
    """The closed forms of ``outcome_probabilities`` on all grid points and
    gamma1 values at once.  One of ``smearing`` and ``gamma2`` holds a value
    per grid point, the other is fixed."""
    theta = _require_tilt(theta)
    gamma1_values = _require_distinct_probabilities(gamma1_values, "gamma1")
    o = _closed_forms(
        math.cos(2.0 * theta), smearing,
        np.array(gamma1_values)[:, np.newaxis], gamma2,
    )
    # broadcast_to also makes the columns read-only views.
    shape = (len(gamma1_values), grid.size)
    q_over_p = np.broadcast_to(o.q / o.p, shape)
    reversal = np.broadcast_to(
        (o.p1 > o.q1) & (o.p2 > o.q2) & (o.q > o.p), shape
    )
    return Sweep(
        axis, theta, gamma1_values, grid, o.q1 / o.p1,
        np.broadcast_to(o.q2 / o.p2, grid.shape), q_over_p, reversal,
    )


def sweep_delta(
    theta: float,
    gamma1_values: Sequence[float],
    gamma2: float,
    delta_grid: Sequence[float],
) -> Sweep:
    """Evaluate the ratio curves on an ascending grid of noise spreads, one
    q/p column per gamma1.

    Rows are exact closed-form values at the grid points (no interpolation);
    ``delta_threshold`` gives the exact spread at which q/p crosses 1."""
    grid = _checked_grid(delta_grid, "delta_std")
    if (grid < 0.0).any():
        raise ValueError("delta_std grid must be non-negative")
    gamma2 = _require_probability(gamma2, "gamma2")
    smearing = np.array(list(map(_smearing, grid.tolist())))
    return _sweep("delta", theta, gamma1_values, grid, smearing, gamma2)


def sweep_gamma2(
    theta: float,
    noise: NoiseParams,
    gamma1_values: Sequence[float],
    gamma2_grid: Sequence[float],
) -> Sweep:
    """Evaluate the ratio curves on an ascending grid of hypothesis-B clean
    weights, one q/p column per gamma1.

    q2/p2 does not depend on the weights, so that column is constant;
    ``gamma2_threshold`` gives the exact weight at which q/p crosses 1."""
    grid = _checked_grid(gamma2_grid, "gamma2")
    bad = (grid < 0.0) | (grid > 1.0)
    if bad.any():  # the scalar check names the first bad value
        _require_probability(grid[bad.argmax()].item(), "gamma2")
    return _sweep("gamma2", theta, gamma1_values, grid, noise.smearing, grid)
