"""Tests for the photon-counting emulator, estimators, and aggregation."""

import math

import numpy as np
import pytest

from ysqht import counting
from ysqht import (
    AcquisitionConfig,
    Counts,
    EstimationError,
    NoiseParams,
    RatioEstimate,
    ScenarioParams,
    aggregate,
    aggregation_seed,
    estimate_ratios,
    outcome_probabilities,
    point_seed,
    run_acquisition,
    simulate_sweep,
    sweep_delta,
    sweep_gamma2,
)

THETA_B = 5.0 * math.pi / 36.0
DELTA_FIG2 = 2.0 * math.pi / 9.0

# Frozen analytic values (direct evaluation of the closed forms).
Q1 = 0.8213938048432696
Q2_FIG2 = 0.6212544747469197
Q2_OVER_P2_FIG2 = 0.902148945883963
Q_OVER_P_AT_0P7 = 1.086730351349884


def config(**kwargs):
    defaults = dict(theta=THETA_B, noise=NoiseParams(DELTA_FIG2), seed=1)
    defaults.update(kwargs)
    return AcquisitionConfig(**defaults)


class TestSampleAlpha:
    """The tilt column that run_acquisition draws."""

    def test_zero_spread_is_exactly_zero(self):
        counts = run_acquisition(config(noise=NoiseParams(0.0), seed=0))
        assert (counts.alpha == 0.0).all()

    def test_moments_match_spread(self):
        cfg = config(noise=NoiseParams(0.5), seed=101, iterations=100_000)
        draws = run_acquisition(cfg).alpha
        assert abs(draws.mean()) < 0.01            # ~6 standard errors
        assert abs(draws.std(ddof=1) - 0.5) < 0.005


class TestAcquisitionConfig:
    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError, match="iterations"):
            config(iterations=0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            config(seed=-1)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError, match="positive"):
            config(mean_rate=0.0)


class TestAcquireIteration:
    """What each iteration of run_acquisition draws."""

    def test_shared_tilt_draw(self, monkeypatch):
        # A scripted generator proves that n2p and n2q see their row's alpha
        # and that exactly one tilt is drawn per iteration.
        class ScriptedRng:
            def __init__(self, alpha):
                self.alpha = alpha
                self.normal_sizes = []

            def normal(self, loc, scale, size):
                self.normal_sizes.append(size)
                return self.alpha

            def poisson(self, lam):
                return np.rint(lam).astype(np.int64)

        alpha = np.linspace(-0.5, 0.5, 7)
        rng = ScriptedRng(alpha)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
        cfg = config(iterations=7)
        counts = run_acquisition(cfg)
        lam = cfg.expected_counts
        rate = np.vectorize(
            lambda phi: round(lam * 0.5 * (1.0 + math.cos(phi)))
        )
        assert rng.normal_sizes == [7]
        assert np.array_equal(counts.alpha, alpha)
        assert np.array_equal(counts.counts[:, 0], np.full(7, round(lam)))
        assert np.array_equal(
            counts.counts[:, 1],
            np.full(7, round(lam * 0.5 * (1.0 + math.cos(2 * THETA_B)))),
        )
        assert np.array_equal(counts.counts[:, 2], rate(-2 * alpha))
        assert np.array_equal(counts.counts[:, 3], rate(2 * (THETA_B - alpha)))

    def test_stream_2_draw_order(self):
        # All tilts in one normal call, then all counts in one Poisson call
        # over the row-major (n, 4) phases.
        cfg = config(iterations=50, seed=3)
        counts = run_acquisition(cfg)
        rng = np.random.default_rng(cfg.seed)
        alpha = rng.normal(0.0, cfg.noise.delta_std, 50)
        phases = np.column_stack([
            np.zeros(50), np.full(50, 2 * THETA_B), -2 * alpha,
            2 * (THETA_B - alpha),
        ])
        lam = cfg.expected_counts * 0.5 * (1.0 + np.cos(phases))
        assert np.array_equal(counts.alpha, alpha)
        assert np.array_equal(counts.counts, rng.poisson(lam))

    def test_no_noise_no_tilt_all_counts_equal_rate(self):
        n = 300
        cfg = config(theta=0.0, noise=NoiseParams(0.0), seed=8, iterations=n)
        lam = cfg.expected_counts
        totals = run_acquisition(cfg).counts.sum(axis=0)
        # all four settings sit at phase 0, so each total is Poisson(n*lam)
        for total in totals:
            assert abs(total - n * lam) < 6.0 * math.sqrt(n * lam)


class TestCounts:
    def test_columns_and_length(self):
        counts = Counts([0.1, -0.2], [[1, 2, 3, 4], [5, 6, 7, 8]])
        assert len(counts) == 2
        assert counts.alpha.dtype == np.float64
        assert counts.counts.dtype == np.int64

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            Counts([0.0], [[1, -1, 1, 1]])

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValueError, match="integers"):
            Counts([0.0], [[1.5, 1.0, 1.0, 1.0]])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            Counts([0.0, 0.1], [[1, 1, 1, 1]])


class TestRunAcquisition:
    def test_record_count_and_indexing(self):
        counts = run_acquisition(config(iterations=50))
        assert len(counts) == 50
        assert counts.alpha.shape == (50,)
        assert counts.counts.shape == (50, 4)

    def test_bitwise_reproducible(self):
        a = run_acquisition(config())
        b = run_acquisition(config())
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        a = run_acquisition(config(seed=1))
        b = run_acquisition(config(seed=2))
        assert not np.array_equal(a.alpha, b.alpha)
        assert not np.array_equal(a.counts, b.counts)

    def test_count_bookkeeping(self):
        counts = run_acquisition(config(seed=3))
        lam = 1e4
        total = counts.counts.sum()
        # mean probabilities: 1, q1, p2, q2
        expected = 200 * lam * (1.0 + Q1 + 0.6886384754772271 + Q2_FIG2)
        assert abs(total - expected) / expected < 0.1


class TestEstimateRatios:
    def test_clean_probe_ratio(self):
        cfg = config(noise=NoiseParams(0.0), seed=5, iterations=3000)
        summary = estimate_ratios(run_acquisition(cfg))
        assert abs(summary.q1_over_p1.value - Q1) <= (
            4.0 * summary.q1_over_p1.std_error
        )

    def test_no_noise_normalization_is_unity(self):
        cfg = config(noise=NoiseParams(0.0), seed=5)
        summary = estimate_ratios(run_acquisition(cfg))
        assert abs(summary.p2.value - 1.0) <= 3.0 * summary.p2.std_error

    def test_noisy_probe_ratio(self):
        cfg = config(seed=6, iterations=4000)
        summary = estimate_ratios(run_acquisition(cfg))
        assert abs(summary.q2.value - Q2_FIG2) <= 4.0 * summary.q2.std_error

    def test_derived_ratio_at_figure_point(self):
        summary = estimate_ratios(run_acquisition(config(seed=1)))
        assert abs(summary.q2_over_p2.value - Q2_OVER_P2_FIG2) <= (
            3.0 * summary.q2_over_p2.std_error
        )

    def test_poisson_cross_check_present(self):
        summary = estimate_ratios(run_acquisition(config(seed=1)))
        for est in (summary.q1_over_p1, summary.p2, summary.q2,
                    summary.q2_over_p2):
            assert est.poisson_error is not None
            assert est.poisson_error > 0.0

    def test_two_seeds_agree_within_combined_errors(self):
        a = estimate_ratios(run_acquisition(config(seed=1)))
        b = estimate_ratios(run_acquisition(config(seed=2)))
        assert a.q2_over_p2.value != b.q2_over_p2.value
        combined = math.hypot(
            a.q2_over_p2.std_error, b.q2_over_p2.std_error
        )
        assert abs(a.q2_over_p2.value - b.q2_over_p2.value) <= 3.0 * combined

    def test_consistency_improves_with_rate(self):
        previous_error = math.inf
        for rate in (1e3, 1e4, 1e5):
            cfg = config(noise=NoiseParams(0.0), seed=9, mean_rate=rate)
            summary = estimate_ratios(run_acquisition(cfg))
            assert abs(summary.p2.value - 1.0) <= max(
                4.0 * summary.p2.std_error, 1e-6
            )
            assert abs(summary.p2.value - 1.0) <= 0.5 / math.sqrt(rate)
            assert summary.p2.std_error < previous_error
            previous_error = summary.p2.std_error

    def test_excludes_vanished_normalization(self):
        # Windows with n1p = 0 stay in the sums: a ratio of sums needs only
        # a summed n1p above 0.
        cfg = config(noise=NoiseParams(0.0), seed=12, mean_rate=0.5)
        counts = run_acquisition(cfg)
        assert (counts.counts[:, 0] == 0).any()
        summary = estimate_ratios(counts)
        agg = aggregate(counts, 0.5, 0.5, mode="expected")
        assert summary.excluded == agg.excluded == 0
        for est in (summary.q1_over_p1, summary.p2, summary.q2,
                    summary.q2_over_p2, agg.p, agg.q, agg.q_over_p):
            assert est.n_samples == 200
            assert math.isfinite(est.value)
            assert math.isfinite(est.std_error) and est.std_error > 0.0

    def test_all_excluded_raises(self):
        cfg = config(
            noise=NoiseParams(0.0), seed=4, iterations=5, mean_rate=1e-6
        )
        with pytest.raises(EstimationError, match="n1p = 0"):
            estimate_ratios(run_acquisition(cfg))

    def test_empty_records_raise(self):
        with pytest.raises(EstimationError):
            estimate_ratios(Counts(np.empty(0), np.empty((0, 4), np.int64)))

    def test_matches_per_iteration_loop(self):
        # A scalar ratio of sums in Python floats, with the delta-method
        # error of the residuals a - r*b.
        counts = run_acquisition(config(seed=1))
        summary = estimate_ratios(counts)
        rows = counts.counts.tolist()
        n = len(rows)
        for est, k, m in ((summary.q1_over_p1, 1, 0), (summary.p2, 2, 0),
                          (summary.q2, 3, 0), (summary.q2_over_p2, 3, 2)):
            total_a = sum(row[k] for row in rows)
            total_b = sum(row[m] for row in rows)
            ratio = total_a / total_b
            squares = math.fsum((row[k] - ratio * row[m]) ** 2
                                for row in rows)
            assert est.value == ratio  # exact: sums of integers
            assert est.std_error == pytest.approx(
                math.sqrt(squares * n / (n - 1)) / total_b, rel=1e-9
            )
            assert est.poisson_error == pytest.approx(
                ratio * math.sqrt(1.0 / total_a + 1.0 / total_b), rel=1e-12
            )


class TestAggregate:
    def test_degenerate_weights_reduce_to_clean_ratio(self):
        counts = run_acquisition(config(seed=1))
        summary = estimate_ratios(counts)
        for mode, rng in (
            ("expected", None),
            ("stochastic", np.random.default_rng(0)),
        ):
            agg = aggregate(counts, 1.0, 1.0, rng, mode)
            assert agg.p.value == 1.0
            assert agg.p.std_error == 0.0
            assert agg.q_over_p.value == summary.q1_over_p1.value
            assert agg.q_over_p.std_error == summary.q1_over_p1.std_error

    def test_expected_mode_hits_reversal_point(self):
        cfg = config(noise=NoiseParams(0.7), seed=2)
        agg = aggregate(run_acquisition(cfg), 0.1, 0.8, mode="expected")
        assert agg.q_over_p.value > 1.0
        assert abs(agg.q_over_p.value - Q_OVER_P_AT_0P7) <= (
            3.0 * agg.q_over_p.std_error
        )

    def test_stochastic_matches_expected_with_more_spread(self):
        counts = run_acquisition(config(noise=NoiseParams(0.7), seed=2))
        expected = aggregate(counts, 0.1, 0.8, mode="expected")
        stochastic = aggregate(
            counts, 0.1, 0.8, np.random.default_rng(77), "stochastic"
        )
        combined = math.hypot(
            expected.q_over_p.std_error, stochastic.q_over_p.std_error
        )
        assert abs(
            stochastic.q_over_p.value - expected.q_over_p.value
        ) <= 3.0 * combined
        # Bernoulli selection adds variance on top of the count noise.
        assert stochastic.p.std_error >= expected.p.std_error
        assert stochastic.q.std_error >= expected.q.std_error
        assert stochastic.q_over_p.std_error >= expected.q_over_p.std_error

    def test_stochastic_mode_reproducible(self):
        counts = run_acquisition(config(seed=1))
        a = aggregate(counts, 0.1, 0.8, np.random.default_rng(5), "stochastic")
        b = aggregate(counts, 0.1, 0.8, np.random.default_rng(5), "stochastic")
        assert a == b

    def test_expected_mode_unbiased_across_seeds(self):
        values = []
        for seed in range(300, 400):
            cfg = config(noise=NoiseParams(0.7), seed=seed)
            agg = aggregate(run_acquisition(cfg), 0.1, 0.8, mode="expected")
            values.append(agg.q_over_p.value)
        values = np.array(values)
        standard_error = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - Q_OVER_P_AT_0P7) <= 3.0 * standard_error

    def test_stochastic_without_rng_rejected(self):
        counts = run_acquisition(config(seed=1))
        with pytest.raises(ValueError, match="generator"):
            aggregate(counts, 0.1, 0.8, None, "stochastic")

    def test_bad_mode_rejected(self):
        counts = run_acquisition(config(seed=1))
        with pytest.raises(ValueError, match="mode"):
            aggregate(counts, 0.1, 0.8, None, "weighted")

    def test_bad_weights_rejected(self):
        counts = run_acquisition(config(seed=1))
        with pytest.raises(ValueError):
            aggregate(counts, 1.5, 0.5, None, "expected")


class TestCalibration:
    """Every error bar is a one-sigma interval: over a fixed set of 400
    acquisitions of 200 iterations at the reversal point of the desk
    parameters, the pulls (estimate - closed form) / std_error of all seven
    estimators, in both aggregation modes, have a standard deviation within
    [0.9, 1.1] and a mean within 0.2 of 0."""

    def test_pulls_of_all_estimators_in_both_modes(self):
        noise, gamma1, gamma2 = NoiseParams(0.7), 0.1, 0.8
        o = outcome_probabilities(
            ScenarioParams(THETA_B, noise, gamma1, gamma2)
        )
        truth = {"q1_over_p1": o.q1 / o.p1, "p2": o.p2 / o.p1,
                 "q2": o.q2 / o.p1, "q2_over_p2": o.q2 / o.p2,
                 "p": o.p / o.p1, "q": o.q / o.p1, "q_over_p": o.q / o.p}
        pulls = {}
        for seed in range(400):
            counts = run_acquisition(config(noise=noise, seed=seed))
            results = {"clean": estimate_ratios(counts)}
            for mode, rng in (
                ("stochastic", np.random.default_rng(aggregation_seed(seed))),
                ("expected", None),
            ):
                results[mode] = aggregate(counts, gamma1, gamma2, rng, mode)
            for mode, result in results.items():
                for name, est in vars(result).items():
                    if isinstance(est, RatioEstimate):
                        pulls.setdefault(f"{mode} {name}", []).append(
                            (est.value - truth[name]) / est.std_error
                        )
        assert len(pulls) == 10
        off = {
            name: (round(float(values.mean()), 3),
                   round(float(values.std(ddof=1)), 3))
            for name, values in ((k, np.array(v)) for k, v in pulls.items())
            if not (abs(values.mean()) < 0.2
                    and 0.9 <= values.std(ddof=1) <= 1.1)
        }
        assert off == {}, "(pull mean, pull std) out of bounds"


class TestSweepSeeds:
    def test_point_seeds_distinct(self):
        seeds = {point_seed(1, i) for i in range(200)}
        assert len(seeds) == 200

    def test_first_point_uses_base_seed(self):
        assert point_seed(1234, 0) == 1234

    def test_aggregation_seed_differs_from_acquisition(self):
        assert aggregation_seed(1234) != 1234
        assert aggregation_seed(1234, 0) != aggregation_seed(1234, 1)

    @pytest.mark.parametrize("points, columns", [(23, 3), (1000, 8)])
    def test_mixing_seeds_distinct_over_grid(self, points, columns):
        # An XOR of point seed, salt and column would be symmetric in the
        # point and column indices (point i in column k meets point k in
        # column i); the hashed seeds must not repeat.
        seeds = {
            aggregation_seed(point_seed(1, i), k)
            for i in range(points) for k in range(columns)
        }
        assert len(seeds) == points * columns


#: The columns of a SimulatedSweep, in field order.
SIM_COLUMNS = (
    "seeds", "q2_over_p2", "q2_over_p2_err", "q_over_p", "q_over_p_err",
)

#: Its sweep and acquisition parameters, as the sweep manifest names them.
SIM_PARAMETERS = ("mode", "seed", "iterations", "mean_rate", "window_seconds")


def assert_same_sweep(a, b):
    assert [getattr(a, name) for name in SIM_PARAMETERS] == \
        [getattr(b, name) for name in SIM_PARAMETERS]
    for name in SIM_COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y, equal_nan=True), name


class TestSimulatedSweeps:
    GRID = [0.0, 0.3, 0.7, 1.0]

    def delta(self, gamma1_values=(0.1,), grid=GRID):
        return sweep_delta(THETA_B, gamma1_values, 0.8, grid)

    def gamma2(self, grid=GRID):
        return sweep_gamma2(THETA_B, NoiseParams(0.7), [0.05, 0.4], grid)

    def test_delta_sweep_reproducible(self):
        sweep = self.delta()
        assert_same_sweep(simulate_sweep(sweep, 21), simulate_sweep(sweep, 21))

    def test_sweeps_carry_their_base_config(self):
        # The sweep itself, and the acquisition parameters its points share.
        for sweep in (self.delta(), self.gamma2()):
            sim = simulate_sweep(sweep, 21, 50, 2e3, 0.5, "expected")
            assert sim.sweep is sweep
            assert [getattr(sim, name) for name in SIM_PARAMETERS] == [
                "expected", 21, 50, 2e3, 0.5]

    def test_delta_sweep_point_isolated_rerun(self):
        sweep = simulate_sweep(self.delta(), 21)
        cfg = config(noise=NoiseParams(self.GRID[2]), seed=int(sweep.seeds[2]))
        summary = estimate_ratios(run_acquisition(cfg))
        assert summary.q2_over_p2.value == sweep.q2_over_p2[2]
        assert summary.q2_over_p2.std_error == sweep.q2_over_p2_err[2]

    def test_delta_sweep_first_column_stable_under_extra_gamma1(self):
        single = simulate_sweep(self.delta([0.1]), 21)
        double = simulate_sweep(self.delta([0.1, 0.4]), 21)
        assert np.array_equal(single.q_over_p[0], double.q_over_p[0])
        assert np.array_equal(single.q_over_p_err[0], double.q_over_p_err[0])

    def test_gamma2_sweep_shapes(self):
        sweep = simulate_sweep(self.gamma2([0.0, 0.5, 1.0]), 22)
        for name in SIM_COLUMNS[:3]:
            assert getattr(sweep, name).shape == (3,), name
        assert sweep.q_over_p.shape == sweep.q_over_p_err.shape == (2, 3)
        for name in SIM_COLUMNS:
            assert not getattr(sweep, name).flags.writeable, name

    @pytest.mark.parametrize("grid", [[], [0.0, 0.5, 1.0]],
                             ids=["empty", "three-point"])
    @pytest.mark.parametrize("axis", ["delta", "gamma2"])
    @pytest.mark.parametrize("bad, match", [
        (dict(seed=-1), "seed"),
        (dict(seed=2**64), "seed"),
        (dict(seed=1.0), "seed"),
        (dict(iterations=0), "iterations"),
        (dict(iterations=2.0), "iterations"),
        (dict(mean_rate=0.0), "positive"),
        (dict(mean_rate=math.nan), "mean_rate"),
        (dict(window_seconds=-1.0), "positive"),
        (dict(window_seconds=math.inf), "window_seconds"),
        (dict(mode="mean"), "mode"),
    ])
    def test_counting_parameters_checked_first(
        self, monkeypatch, grid, axis, bad, match
    ):
        # No acquisition runs before the check, even on an empty grid.
        sweep = getattr(self, axis)(grid=grid)
        monkeypatch.setattr(
            counting, "run_acquisition",
            lambda config: pytest.fail("an acquisition ran"))
        with pytest.raises(ValueError, match=match):
            simulate_sweep(sweep, **{"seed": 1, **bad})
