"""Property tests of the batched simulated sweeps: every column equals, bit
for bit, a re-run of its grid point through ``run_acquisition``,
``estimate_ratios`` and ``aggregate``, and those equal the scalar
ratio-of-sums estimators computed one acquisition at a time."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ysqht import (
    AcquisitionConfig,
    EstimationError,
    NoiseParams,
    RatioEstimate,
    aggregate,
    aggregation_seed,
    estimate_ratios,
    point_seed,
    run_acquisition,
    simulate_delta_sweep,
    simulate_gamma2_sweep,
)

THETA_B = 5.0 * math.pi / 36.0

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

probability = st.floats(0.0, 1.0)
#: Rates low enough that many iterations have n1p = 0, and the desk rate,
#: at which none has.
rates = st.floats(1.0, 12.0) | st.just(1e4)


def base_config(axis, spread, seed, iterations, rate):
    return AcquisitionConfig(
        theta=THETA_B, noise=NoiseParams(0.0 if axis == "delta" else spread),
        seed=seed, iterations=iterations, mean_rate=rate,
    )


def simulate(axis, base, grid, gamma1_values, fixed, mode):
    """The sweep along ``axis``; ``fixed`` is gamma2 on the noise axis."""
    if axis == "delta":
        return simulate_delta_sweep(base, grid, gamma1_values, fixed, mode)
    return simulate_gamma2_sweep(base, grid, gamma1_values, mode)


def mixing_rng(seed, k, mode):
    if mode == "expected":
        return None
    return np.random.default_rng(aggregation_seed(seed, k))


def scalar_estimates(counts, gamma1, gamma2, rng, mode):
    """q2/p2 and q/p as the per-acquisition scalar code computes them: 1-D
    numpy sums over all iterations, each ratio of sums and its delta-method
    error in Python floats."""
    n1p, n1q, n2p, n2q = np.ascontiguousarray(counts.counts.T, dtype=float)
    if not n1p.sum():
        raise EstimationError("every iteration had n1p = 0")
    n = int(n1p.size)

    def ratio_of_sums(a, b, with_poisson):
        total_a, total_b = float(a.sum()), float(b.sum())
        if total_b == 0.0:
            raise EstimationError("the denominator estimate vanished")
        value = total_a / total_b
        residual = a - value * b
        squares = float((residual * residual).sum())
        error = math.sqrt(squares * (n / (n - 1))) / total_b if n > 1 else 0.0
        poisson = (
            math.sqrt(total_a * (1.0 + total_a / total_b)) / total_b
            if with_poisson else None
        )
        return RatioEstimate(value, error, n, poisson)

    q2_over_p2 = ratio_of_sums(n2q, n2p, True)
    if mode == "stochastic":
        mixed_a = np.where(rng.random(n) < gamma1, n1p, n2p)
        mixed_b = np.where(rng.random(n) < gamma2, n1q, n2q)
    else:
        mixed_a = gamma1 * n1p + (1.0 - gamma1) * n2p
        mixed_b = gamma2 * n1q + (1.0 - gamma2) * n2q
    q_over_p = ratio_of_sums(mixed_b, mixed_a, False)
    return q2_over_p2, q_over_p


def same_bits(column, values):
    return column.tobytes() == np.array(values, dtype=column.dtype).tobytes()


@pytest.mark.parametrize("axis", ["delta", "gamma2"])
@pytest.mark.parametrize("mode", ["stochastic", "expected"])
@SETTINGS
@given(
    grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).map(sorted),
    gamma1_values=st.lists(probability, min_size=1, max_size=3, unique=True),
    fixed=probability,
    spread=st.floats(0.0, 1.5),
    seed=st.integers(0, 2**64 - 1),
    iterations=st.integers(2, 30),
    rate=rates,
)
def test_sweep_columns_equal_per_point_reruns(
    axis, mode, grid, gamma1_values, fixed, spread, seed, iterations, rate
):
    base = base_config(axis, spread, seed, iterations, rate)
    reference = []
    try:
        for i, x in enumerate(grid):
            point = point_seed(seed, i)
            noise = NoiseParams(x) if axis == "delta" else base.noise
            gamma2 = fixed if axis == "delta" else x
            counts = run_acquisition(replace(base, noise=noise, seed=point))
            summary = estimate_ratios(counts)
            ratios = []
            for k, gamma1 in enumerate(gamma1_values):
                agg = aggregate(counts, gamma1, gamma2,
                                mixing_rng(point, k, mode), mode)
                assert (summary.q2_over_p2, agg.q_over_p) == scalar_estimates(
                    counts, gamma1, gamma2, mixing_rng(point, k, mode), mode
                )
                ratios.append(agg.q_over_p)
            reference.append((point, summary.q2_over_p2, ratios))
    except EstimationError:
        with pytest.raises(EstimationError):
            simulate(axis, base, grid, gamma1_values, fixed, mode)
        return

    sweep = simulate(axis, base, grid, gamma1_values, fixed, mode)
    assert same_bits(sweep.x, grid)
    assert same_bits(sweep.seeds, [point for point, _, _ in reference])
    clean = [q2 for _, q2, _ in reference]
    assert same_bits(sweep.n_samples, [e.n_samples for e in clean])
    assert same_bits(sweep.q2_over_p2, [e.value for e in clean])
    assert same_bits(sweep.q2_over_p2_err, [e.std_error for e in clean])
    assert same_bits(
        sweep.q2_over_p2_poisson,
        [math.nan if e.poisson_error is None else e.poisson_error
         for e in clean],
    )
    for k in range(len(gamma1_values)):
        mixed = [ratios[k] for _, _, ratios in reference]
        assert all(e.n_samples == n for e, n in zip(mixed, sweep.n_samples))
        assert same_bits(sweep.q_over_p[k], [e.value for e in mixed])
        assert same_bits(sweep.q_over_p_err[k], [e.std_error for e in mixed])


@pytest.mark.parametrize("axis", ["delta", "gamma2"])
@pytest.mark.parametrize("mode", ["stochastic", "expected"])
def test_mid_grid_point_without_usable_iterations_raises(axis, mode):
    grid, mid = [0.1, 0.4, 0.6, 0.9], 2

    def point_counts(base, i):
        noise = NoiseParams(grid[i]) if axis == "delta" else base.noise
        return run_acquisition(
            replace(base, noise=noise, seed=point_seed(base.seed, i))
        )

    def usable(base, i):
        counts = point_counts(base, i)
        rng = mixing_rng(point_seed(base.seed, i), 0, mode)
        gamma2 = 0.8 if axis == "delta" else grid[i]
        try:
            estimate_ratios(counts)
            aggregate(counts, 0.3, gamma2, rng, mode)
        except EstimationError:
            return False
        return True

    # The first base seed at which the mid-grid point alone has no usable
    # iteration.
    for seed in range(10_000):
        base = base_config(axis, 0.7, seed, 3, 1.0)
        if not point_counts(base, mid).counts[:, 0].any() and all(
            usable(base, i) for i in range(len(grid)) if i != mid
        ):
            break
    else:
        pytest.fail("no base seed leaves only the mid-grid point unusable")
    with pytest.raises(EstimationError, match="every iteration had n1p = 0"):
        simulate(axis, base, grid, [0.3], 0.8, mode)
