"""Property tests of the batched simulated sweeps: every column, and every
``sim_*`` cell of the written table, equals, bit for bit, a re-run of its
grid point through ``run_acquisition`` and ``aggregate`` at the point's
parameters, and those equal the scalar ratio-of-sums estimators computed
one acquisition at a time, NaN where a denominator sums to 0."""

import csv
import json
import math
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ysqht import (
    AcquisitionConfig,
    NoiseParams,
    RatioEstimate,
    aggregate,
    aggregation_seed,
    point_seed,
    run_acquisition,
    simulate_sweep,
    sweep_delta,
    sweep_gamma2,
    write_sweep_csv,
)

THETA_B = 5.0 * math.pi / 36.0

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

probability = st.floats(0.0, 1.0)
#: Rates low enough that many iterations have n1p = 0, and the desk rate,
#: at which none has.
rates = st.floats(1.0, 12.0) | st.just(1e4)


def analytic(axis, grid, gamma1_values, gamma2, spread):
    """The analytic sweep along ``axis``: over the noise ``grid`` at weight
    ``gamma2``, or over the weight ``grid`` at noise ``spread``."""
    if axis == "delta":
        return sweep_delta(THETA_B, gamma1_values, gamma2, grid)
    return sweep_gamma2(THETA_B, NoiseParams(spread), gamma1_values, grid)


def rerun(theta, delta_std, gamma2, gamma1_values, seed, i, iterations,
          rate, window, mode):
    """Point ``i`` of a simulated sweep run again on its own, at the given
    theta, noise spread and weight: its acquisition seed, its q2/p2 estimate
    and its q/p estimate per gamma1."""
    point = point_seed(seed, i)
    counts = run_acquisition(AcquisitionConfig(
        theta, NoiseParams(delta_std), point, iterations, rate, window))
    ratios = []
    for k, gamma1 in enumerate(gamma1_values):
        agg = aggregate(counts, gamma1, gamma2, mixing_rng(point, k, mode))
        assert same_estimates((agg.q2_over_p2, agg.q_over_p),
                              scalar_estimates(counts, gamma1, gamma2,
                                               mixing_rng(point, k, mode),
                                               mode))
        ratios.append(agg.q_over_p)
    return point, agg.q2_over_p2, ratios


def mixing_rng(seed, k, mode):
    if mode == "expected":
        return None
    return np.random.default_rng(aggregation_seed(seed, k))


def scalar_estimates(counts, gamma1, gamma2, rng, mode):
    """q2/p2 and q/p as the per-acquisition scalar code computes them: 1-D
    numpy sums over all iterations, each ratio of sums and its delta-method
    error in Python floats, both NaN where the ratio has no finite value."""
    n1p, n1q, n2p, n2q = np.ascontiguousarray(counts.T, dtype=float)
    n = int(n1p.size)

    def ratio_of_sums(a, b):
        total_a, total_b = float(a.sum()), float(b.sum())
        value = total_a / total_b if total_b else math.inf
        if not math.isfinite(value):  # no finite ratio: undefined
            return RatioEstimate(math.nan, math.nan, n)
        with np.errstate(over="ignore"):
            residual = a - value * b
            squares = float((residual * residual).sum())
        if n == 1:  # a single iteration has no spread to measure
            return RatioEstimate(value, math.nan, n)
        error = math.sqrt(squares * (n / (n - 1))) / total_b
        # An overflowed bar, or one of no spread, is undefined.
        if not error < math.inf or error <= 4 * 2.0**-52 * abs(value):
            error = math.nan
        return RatioEstimate(value, error, n)

    q2_over_p2 = ratio_of_sums(n2q, n2p)
    if mode == "stochastic":
        mixed_a = np.where(rng.random(n) < gamma1, n1p, n2p)
        mixed_b = np.where(rng.random(n) < gamma2, n1q, n2q)
    else:
        mixed_a = gamma1 * n1p + (1.0 - gamma1) * n2p
        mixed_b = gamma2 * n1q + (1.0 - gamma2) * n2q
    q_over_p = ratio_of_sums(mixed_b, mixed_a)
    return q2_over_p2, q_over_p


def same_bits(column, values):
    return column.tobytes() == np.array(values, dtype=column.dtype).tobytes()


def same_estimates(a, b):
    """Estimates equal field by field and bit for bit, so that an undefined
    error bar (NaN) equals itself."""
    return same_bits(np.array(list(map(astuple, a))), list(map(astuple, b)))


sweep_cases = dict(
    grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).map(sorted),
    gamma1_values=st.lists(probability, min_size=1, max_size=3, unique=True),
    gamma2=probability,
    spread=st.floats(0.0, 1.5),
    seed=st.integers(0, 2**64 - 1),
    iterations=st.integers(1, 30),
    rate=rates,
)


@pytest.mark.parametrize("axis", ["delta", "gamma2"])
@pytest.mark.parametrize("mode", ["stochastic", "expected"])
@SETTINGS
@given(**sweep_cases)
def test_sweep_columns_equal_per_point_reruns(
    axis, mode, grid, gamma1_values, gamma2, spread, seed, iterations, rate
):
    sweep = analytic(axis, grid, gamma1_values, gamma2, spread)
    reference = [
        rerun(THETA_B, x if axis == "delta" else spread,
              gamma2 if axis == "delta" else x, gamma1_values, seed, i,
              iterations, rate, 1.0, mode)
        for i, x in enumerate(grid)
    ]
    sim = simulate_sweep(sweep, seed, iterations, rate, mode=mode)
    assert sim.sweep is sweep
    assert (sim.mode, sim.seed, sim.iterations, sim.mean_rate,
            sim.window_seconds) == (mode, seed, iterations, rate, 1.0)
    assert same_bits(sim.seeds, [point for point, _, _ in reference])
    clean = [q2 for _, q2, _ in reference]
    assert all(e.n_samples == iterations for e in clean)
    assert same_bits(sim.q2_over_p2, [e.value for e in clean])
    assert same_bits(sim.q2_over_p2_err, [e.std_error for e in clean])
    for k in range(len(gamma1_values)):
        mixed = [ratios[k] for _, _, ratios in reference]
        assert all(e.n_samples == iterations for e in mixed)
        assert same_bits(sim.q_over_p[k], [e.value for e in mixed])
        assert same_bits(sim.q_over_p_err[k], [e.std_error for e in mixed])


def written(sim):
    """The manifest and the rows (header first) that ``write_sweep_csv``
    writes of ``sim``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        manifest = json.loads(write_sweep_csv(path, sim).read_text())
        with path.open(newline="") as fh:
            return manifest, list(csv.reader(fh))


@pytest.mark.parametrize("axis", ["delta", "gamma2"])
@pytest.mark.parametrize("mode", ["stochastic", "expected"])
@settings(SETTINGS, max_examples=50)
@given(**sweep_cases, window=st.sampled_from([0.5, 1.0, 3.0]))
def test_written_cells_equal_reruns_from_the_manifest(
    axis, mode, grid, gamma1_values, gamma2, spread, seed, iterations, rate,
    window
):
    # Each point is re-run from the parameters the manifest records: the
    # fixed gamma2 or delta_std, theta and the acquisition's, and the grid
    # value of its row.
    sweep = analytic(axis, grid, gamma1_values, gamma2, spread)
    sim = simulate_sweep(sweep, seed, iterations, rate, window, mode)
    manifest, rows = written(sim)
    assert manifest["mode"] == mode and manifest["seed"] == seed
    columns = dict(zip(rows[0], zip(*rows[1:])))
    suffixes = ([""] if len(gamma1_values) == 1 else
                [f"_gamma1_{g!r}" for g in manifest["gamma1"]])
    for i, x in enumerate(manifest["grid"]):
        _, q2, ratios = rerun(
            manifest["theta"], manifest.get("delta_std", x),
            manifest.get("gamma2", x), manifest["gamma1"], manifest["seed"],
            i, manifest["iterations"], manifest["mean_rate"],
            manifest["window_seconds"], manifest["mode"],
        )
        cells = [columns["sim_q2_over_p2"][i], columns["sim_q2_over_p2_err"][i]]
        expected = [q2.value, q2.std_error]
        for s, ratio in zip(suffixes, ratios):
            cells += [columns[f"sim_q_over_p{s}"][i],
                      columns[f"sim_q_over_p_err{s}"][i]]
            expected += [ratio.value, ratio.std_error]
        assert same_bits(np.array([float(c) for c in cells]), expected)


@pytest.mark.parametrize("axis", ["delta", "gamma2"])
@pytest.mark.parametrize("mode", ["stochastic", "expected"])
def test_mid_grid_point_without_n1p_leaves_the_others(axis, mode):
    grid, mid = [0.1, 0.4, 0.6, 0.9], 2

    def point(seed, i):
        noise = grid[i] if axis == "delta" else 0.7
        gamma2 = 0.8 if axis == "delta" else grid[i]
        return rerun(THETA_B, noise, gamma2, [0.3], seed, i, 3, 1.0, 1.0,
                     mode)

    def defined(seed, i):
        _, q2, (ratio,) = point(seed, i)
        return not math.isnan(q2.value) and not math.isnan(ratio.value)

    def no_p_count(seed):
        return not run_acquisition(AcquisitionConfig(
            THETA_B, NoiseParams(grid[mid] if axis == "delta" else 0.7),
            point_seed(seed, mid), 3, 1.0))[:, [0, 2]].any()

    # The first base seed at which the mid-grid point has neither an n1p
    # nor an n2p count, so that its q1/p1, q2/p2 and q/p are undefined,
    # and every other point has both of its ratios.
    for seed in range(10_000):
        if no_p_count(seed) and all(
            defined(seed, i) for i in range(len(grid)) if i != mid
        ):
            break
    else:
        pytest.fail("no base seed leaves only the mid-grid point undefined")
    sim = simulate_sweep(analytic(axis, grid, [0.3], 0.8, 0.7), seed, 3, 1.0,
                         mode=mode)
    reference = [point(seed, i) for i in range(len(grid))]
    _, q2, (ratio,) = reference[mid]
    assert all(map(math.isnan, (q2.value, q2.std_error, ratio.value,
                                ratio.std_error)))
    # The undefined point stops nothing: every point, it too, holds the
    # bits of its re-run.
    assert same_bits(sim.q2_over_p2, [q2.value for _, q2, _ in reference])
    assert same_bits(sim.q2_over_p2_err,
                     [q2.std_error for _, q2, _ in reference])
    assert same_bits(sim.q_over_p[0], [r.value for _, _, (r,) in reference])
    assert same_bits(sim.q_over_p_err[0],
                     [r.std_error for _, _, (r,) in reference])
