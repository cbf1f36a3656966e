"""Tests for the photon-counting emulator, estimators, and aggregation."""

import copy
import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from ysqht import counting
from ysqht import (
    AcquisitionConfig,
    AggregateResult,
    NoiseParams,
    ScenarioParams,
    aggregate,
    aggregation_seed,
    outcome_probabilities,
    point_seed,
    run_acquisition,
    simulate_sweep,
    sweep_delta,
    sweep_gamma2,
    sweep_table,
    write_count_log,
    write_sweep_csv,
)
from ysqht.theory import ESTIMATORS

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


@pytest.fixture
def drawn_tilts(monkeypatch):
    """``run_acquisition`` of a config, and the tilts that it drew and did
    not return, as its generator's ``normal`` gave them."""
    default_rng = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng, self.tilts = default_rng(seed), []

        def normal(self, *args):
            self.tilts.append(self.rng.normal(*args))
            return self.tilts[-1]

        def poisson(self, lam):
            return self.rng.poisson(lam)

    def run(cfg):
        rngs = []
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng",
                          lambda seed: rngs.append(Recording(seed)) or rngs[-1])
            counts = run_acquisition(cfg)
        [rng] = rngs
        [tilts] = rng.tilts
        return counts, tilts
    return run


class TestSampleAlpha:
    """The tilts that run_acquisition draws."""

    def test_zero_spread_is_exactly_zero(self, drawn_tilts):
        cfg = config(noise=NoiseParams(0.0), seed=0)
        counts, tilts = drawn_tilts(cfg)
        assert (tilts == 0.0).all()
        assert np.array_equal(counts, run_acquisition(cfg))

    def test_moments_match_spread(self, drawn_tilts):
        cfg = config(noise=NoiseParams(0.5), seed=101, iterations=100_000)
        _, draws = drawn_tilts(cfg)
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

    def test_rejects_a_mean_count_too_large_to_draw(self):
        # numpy draws no Poisson count of a larger mean, which keeps each
        # count inside the 64-bit range a record line holds.
        limit = 2**63 - 1 - 10 * math.sqrt(2**63 - 1)
        assert len(run_acquisition(config(mean_rate=limit, iterations=1))) == 1
        for rate, window, product in [
            (math.nextafter(limit, math.inf), 1.0, "9.223372006484772e+18"),
            (1e10, 1e10, "1e+20"),
            (1e300, 1e300, "inf"),
        ]:
            with pytest.raises(ValueError, match=re.escape(
                f"mean_rate * window_seconds must be at most 9.22337e+18, "
                f"got {rate!r} * {window!r} = {product}"
            )):
                config(mean_rate=rate, window_seconds=window)


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
        assert np.array_equal(counts[:, 0], np.full(7, round(lam)))
        assert np.array_equal(
            counts[:, 1],
            np.full(7, round(lam * 0.5 * (1.0 + math.cos(2 * THETA_B)))),
        )
        assert np.array_equal(counts[:, 2], rate(-2 * alpha))
        assert np.array_equal(counts[:, 3], rate(2 * (THETA_B - alpha)))

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
        assert np.array_equal(counts, rng.poisson(lam))

    @pytest.mark.parametrize("seed, spread, n", [
        (1, DELTA_FIG2, 200), (2024, 0.0, 7), (2**64 - 1, 1.5, 1),
        (9, 0.3, 100_000),
    ])
    def test_tilts_drawn_again_from_the_seed_give_the_counts(
        self, drawn_tilts, seed, spread, n
    ):
        # A count log keeps no tilt: default_rng(seed).normal(0, delta_std,
        # n) gives the tilts back, and the stream-2 Poisson call over their
        # phases, made by hand, the counts bit for bit.
        cfg = config(noise=NoiseParams(spread), seed=seed, iterations=n)
        counts, drawn = drawn_tilts(cfg)
        rng = np.random.default_rng(seed)
        alpha = rng.normal(0.0, spread, n)
        assert alpha.tobytes() == drawn.tobytes()
        theta = np.full(n, THETA_B)
        phases = np.stack([np.zeros(n), 2 * theta, -2 * alpha,
                           2 * (theta - alpha)], axis=1)
        again = rng.poisson(cfg.expected_counts * 0.5 * (1.0 + np.cos(phases)))
        assert again.dtype == counts.dtype
        assert again.tobytes() == counts.tobytes()

    def test_no_noise_no_tilt_all_counts_equal_rate(self):
        n = 300
        cfg = config(theta=0.0, noise=NoiseParams(0.0), seed=8, iterations=n)
        lam = cfg.expected_counts
        totals = run_acquisition(cfg).sum(axis=0)
        # all four settings sit at phase 0, so each total is Poisson(n*lam)
        for total in totals:
            assert abs(total - n * lam) < 6.0 * math.sqrt(n * lam)


#: Counts that are not those of an acquisition, each with a fragment of the
#: ValueError that rejects them.
BAD_COUNTS = {
    "float": (np.full((2, 4), 1.5), "integers"),
    "negative": (np.array([[1, 1, 1, 1], [1, -1, 1, 1]]), "non-negative"),
    "above-int64": (np.full((2, 4), 2**63, np.uint64), "non-negative"),
    "flat": (np.ones(8, np.int64), "shape"),
    "three-columns": (np.ones((2, 3), np.int64), "shape"),
    "five-columns": (np.ones((2, 5), np.int64), "shape"),
    "three-axes": (np.ones((1, 2, 4), np.int64), "shape"),
}

#: The entry points of counts from outside the program, each called on
#: counts and a path in an empty directory.
ENTRY_POINTS = {
    "aggregate": lambda counts, path: aggregate(counts, 0.1, 0.8),
    "write_count_log": lambda counts, path: write_count_log(
        path, config(iterations=2), counts),
}


class TestCheckedCounts:
    """Counts from outside the program are checked where they come in."""

    @pytest.mark.parametrize("bad", BAD_COUNTS)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_rejects_counts_no_acquisition_gives(
        self, tmp_path, entry, bad
    ):
        counts, fragment = BAD_COUNTS[bad]
        with pytest.raises(ValueError, match=fragment):
            ENTRY_POINTS[entry](counts, tmp_path / "run.jsonl")
        assert list(tmp_path.iterdir()) == []  # no log, no companion

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.uint64])
    def test_integer_counts_of_any_type_read_as_int64(self, tmp_path, dtype):
        counts = run_acquisition(config(iterations=2, mean_rate=100.0))
        assert aggregate(counts.astype(dtype), 0.1, 0.8) == aggregate(
            counts, 0.1, 0.8)
        for name, data in (("int64", counts), ("other", counts.astype(dtype))):
            write_count_log(tmp_path / name, config(iterations=2), data)
        assert (tmp_path / "int64").read_bytes().split(b"\n")[1:] == (
            tmp_path / "other").read_bytes().split(b"\n")[1:]


class TestRunAcquisition:
    def test_record_count_and_indexing(self):
        counts = run_acquisition(config(iterations=50))
        assert counts.dtype == np.int64
        assert counts.shape == (50, 4)

    def test_holds_only_the_means_and_the_counts_at_its_peak(self):
        # The Poisson means are formed in the phases' own array, and the
        # tilts are dropped before the draw.
        run_acquisition(config(iterations=10))  # numpy's first-call caches
        tracemalloc.start()
        try:
            counts = run_acquisition(config(iterations=100_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * counts.nbytes

    def test_bitwise_reproducible(self):
        a = run_acquisition(config())
        b = run_acquisition(config())
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = run_acquisition(config(seed=1))
        b = run_acquisition(config(seed=2))
        assert not np.array_equal(a, b)

    def test_count_bookkeeping(self):
        counts = run_acquisition(config(seed=3))
        lam = 1e4
        total = counts.sum()
        # mean probabilities: 1, q1, p2, q2
        expected = 200 * lam * (1.0 + Q1 + 0.6886384754772271 + Q2_FIG2)
        assert abs(total - expected) / expected < 0.1


class TestPartitionedEstimates:
    """The four estimates of the clean and noisy counts alone, which
    ``aggregate`` gives beside the aggregated ones."""

    def test_clean_probe_ratio(self):
        cfg = config(noise=NoiseParams(0.0), seed=5, iterations=3000)
        result = aggregate(run_acquisition(cfg), 0.1, 0.8)
        assert abs(result.q1_over_p1.value - Q1) <= (
            4.0 * result.q1_over_p1.std_error
        )

    def test_no_noise_normalization_is_unity(self):
        cfg = config(noise=NoiseParams(0.0), seed=5)
        result = aggregate(run_acquisition(cfg), 0.1, 0.8)
        assert abs(result.p2.value - 1.0) <= 3.0 * result.p2.std_error

    def test_noisy_probe_ratio(self):
        cfg = config(seed=6, iterations=4000)
        result = aggregate(run_acquisition(cfg), 0.1, 0.8)
        assert abs(result.q2.value - Q2_FIG2) <= 4.0 * result.q2.std_error

    def test_derived_ratio_at_figure_point(self):
        result = aggregate(run_acquisition(config(seed=1)), 0.1, 0.8)
        assert abs(result.q2_over_p2.value - Q2_OVER_P2_FIG2) <= (
            3.0 * result.q2_over_p2.std_error
        )

    def test_two_seeds_agree_within_combined_errors(self):
        a = aggregate(run_acquisition(config(seed=1)), 0.1, 0.8)
        b = aggregate(run_acquisition(config(seed=2)), 0.1, 0.8)
        assert a.q2_over_p2.value != b.q2_over_p2.value
        combined = math.hypot(
            a.q2_over_p2.std_error, b.q2_over_p2.std_error
        )
        assert abs(a.q2_over_p2.value - b.q2_over_p2.value) <= 3.0 * combined

    def test_consistency_improves_with_rate(self):
        previous_error = math.inf
        for rate in (1e3, 1e4, 1e5):
            cfg = config(noise=NoiseParams(0.0), seed=9, mean_rate=rate)
            result = aggregate(run_acquisition(cfg), 0.1, 0.8)
            assert abs(result.p2.value - 1.0) <= max(
                4.0 * result.p2.std_error, 1e-6
            )
            assert abs(result.p2.value - 1.0) <= 0.5 / math.sqrt(rate)
            assert result.p2.std_error < previous_error
            previous_error = result.p2.std_error

    def test_excludes_vanished_normalization(self):
        # Windows with n1p = 0 stay in the sums: a ratio of sums needs only
        # a summed n1p above 0.
        cfg = config(noise=NoiseParams(0.0), seed=12, mean_rate=0.5)
        counts = run_acquisition(cfg)
        assert (counts[:, 0] == 0).any()
        agg = aggregate(counts, 0.5, 0.5)
        assert agg.excluded == 0
        for name, _, _ in ESTIMATORS:
            est = getattr(agg, name)
            assert est.n_samples == 200
            assert math.isfinite(est.value)
            assert math.isfinite(est.std_error) and est.std_error > 0.0

    def test_zero_numerator_has_no_error_bar(self):
        # n * lambda = 4: no n2q count in 20 windows, so q2 = q2/p2 = 0 and
        # every residual is 0.  The delta method has no answer there, and an
        # error bar of 0 would claim an exact estimate.
        counts = run_acquisition(AcquisitionConfig(
            0.43633, NoiseParams(0.7), 156, 20, 0.2, 1.0))
        assert counts[:, 3].sum() == 0
        result = aggregate(counts, 0.1, 0.8)
        for est in (result.q2, result.q2_over_p2):
            assert est.value == 0.0
            assert math.isnan(est.std_error)
        for est in (result.q1_over_p1, result.p2):
            assert est.value > 0.0 and est.std_error > 0.0
        # A single window has no spread to measure: no estimate has an error
        # bar, in either mode, not even p at gamma1 = 1.
        one = counts[:1] + [1, 0, 1, 0]
        for gamma1 in (0.1, 1.0):
            for rng in (None, np.random.default_rng(1)):
                result = aggregate(one, gamma1, 0.8, rng)
                for name, _, _ in ESTIMATORS:
                    assert math.isfinite(getattr(result, name).value)
                    assert math.isnan(getattr(result, name).std_error)

    def test_vanishing_residuals_give_no_error_bar(self):
        # The README's n * lambda = 4 row: 20 windows at 0.2 counts, seeds
        # 0..399.  In these three acquisitions the summed numerator is
        # positive, yet every window holds a = b, so r = 1 and every residual
        # a - r*b is 0: no spread to measure, so no error bar.
        def acquisition(seed):
            return run_acquisition(AcquisitionConfig(
                THETA_B, NoiseParams(0.7), seed, 20, 0.2, 1.0))

        def stochastic(seed, gamma1=0.1):
            return aggregate(acquisition(seed), gamma1, 0.8,
                             np.random.default_rng(aggregation_seed(seed)))

        for est in (stochastic(36).q2_over_p2, stochastic(120).q,
                    stochastic(356).p):
            assert est.value == 1.0
            assert math.isnan(est.std_error)
        # Only p at gamma1 = 1 is exact: every mixed count is n1p itself.
        for agg in (stochastic(356, 1.0),
                    aggregate(acquisition(356), 1.0, 0.8)):
            assert (agg.p.value, agg.p.std_error) == (1.0, 0.0)

    def test_no_counts_give_undefined_estimates(self):
        # Every denominator sums to 0: each value and its bar are NaN.
        cfg = config(
            noise=NoiseParams(0.0), seed=4, iterations=5, mean_rate=1e-6
        )
        counts = run_acquisition(cfg)
        assert not counts.any()
        for rng in (None, np.random.default_rng(4)):
            result = aggregate(counts, 0.1, 0.8, rng)
            for name, _, _ in ESTIMATORS:
                est = getattr(result, name)
                assert math.isnan(est.value), name
                assert math.isnan(est.std_error), name
                assert est.n_samples == 5

    def test_zero_iterations_give_seven_nan_estimates(self):
        # Over no iterations every sum is 0, and the bar divides 0 by 0:
        # both must come out NaN without a RuntimeWarning.
        empty = np.empty((0, 4), np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rng in (None, np.random.default_rng(0)):
                result = aggregate(empty, 0.1, 0.8, rng)
                for name, _, _ in ESTIMATORS:
                    est = getattr(result, name)
                    assert math.isnan(est.value), name
                    assert math.isnan(est.std_error), name
                    assert est.n_samples == 0

    def test_matches_per_iteration_loop(self):
        # A scalar ratio of sums in Python floats, with the delta-method
        # error of the residuals a - r*b.
        counts = run_acquisition(config(seed=1))
        result = aggregate(counts, 0.1, 0.8)
        rows = counts.tolist()
        n = len(rows)
        for est, k, m in ((result.q1_over_p1, 1, 0), (result.p2, 2, 0),
                          (result.q2, 3, 0), (result.q2_over_p2, 3, 2)):
            total_a = sum(row[k] for row in rows)
            total_b = sum(row[m] for row in rows)
            ratio = total_a / total_b
            squares = math.fsum((row[k] - ratio * row[m]) ** 2
                                for row in rows)
            assert est.value == ratio  # exact: sums of integers
            assert est.std_error == pytest.approx(
                math.sqrt(squares * n / (n - 1)) / total_b, rel=1e-9
            )

    def test_same_in_every_mode_and_at_every_weight(self):
        # The partitioned estimates read the clean and noisy counts alone:
        # neither the weights nor the mixing draws touch their bits.
        for counts in (run_acquisition(config(seed=1)),
                       run_acquisition(AcquisitionConfig(
                           0.43633, NoiseParams(0.7), 156, 20, 0.2, 1.0))):
            results = [aggregate(counts, gamma1, gamma2, rng)
                       for gamma1, gamma2 in ((0.1, 0.8), (1.0, 0.0),
                                              (0.5, 1.0))
                       for rng in (None, np.random.default_rng(3))]
            for name, _, _ in ESTIMATORS[:4]:
                first, *others = (dataclasses.astuple(getattr(r, name))
                                  for r in results)
                for other in others:
                    assert np.array_equal(first, other, equal_nan=True), name

    def test_rounding_level_error_bar_is_undefined(self):
        # Two equal windows: a is proportional to b, so every residual
        # a - r*b is 0 but for the rounding of r*b (0.28 * 25 rounds to
        # 7.000000000000001).  A bar of that size, about 1e-17, measures no
        # spread; only p at gamma1 = 1, where a is b, is exact.
        counts = np.array([[25, 7, 1, 1]] * 2)
        result = aggregate(counts, 0.1, 0.8)
        for name, _, _ in ESTIMATORS:
            assert math.isnan(getattr(result, name).std_error), name
        assert aggregate(counts, 1.0, 0.8).p.std_error == 0.0

    @pytest.mark.parametrize("seed", [26, 60, 103, 181, 224, 232, 289, 314])
    def test_no_n2p_count_leaves_the_other_estimates(self, seed):
        # The README's n * lambda = 4 row.  These acquisitions have no n2p
        # count, so q2/p2 has no denominator, in either mode: it alone is
        # undefined.  Expected mode gives p = gamma1 but for rounding, and
        # its bar of about 1e-17 is that rounding, so undefined too.
        counts = run_acquisition(AcquisitionConfig(
            THETA_B, NoiseParams(0.7), seed, 20, 0.2, 1.0))
        assert counts[:, 0].sum() > 0
        assert counts[:, 2].sum() == 0
        for rng in (None, np.random.default_rng(aggregation_seed(seed))):
            result = aggregate(counts, 0.1, 0.8, rng)
            assert math.isnan(result.q2_over_p2.value)
            assert math.isnan(result.q2_over_p2.std_error)
            assert result.p2.value == 0.0
            for est in (result.q1_over_p1, result.q2, result.q):
                assert math.isfinite(est.value)
        expected = aggregate(counts, 0.1, 0.8)
        assert expected.p.value == pytest.approx(0.1, rel=1e-15)
        assert math.isnan(expected.p.std_error)
        assert expected.q_over_p.value > 0.0
        assert expected.q_over_p.std_error > 0.0


class TestAggregate:
    def test_degenerate_weights_reduce_to_clean_ratio(self):
        counts = run_acquisition(config(seed=1))
        for rng in (None, np.random.default_rng(0)):
            agg = aggregate(counts, 1.0, 1.0, rng)
            assert agg.p.value == 1.0
            assert agg.p.std_error == 0.0
            assert agg.q_over_p.value == agg.q1_over_p1.value
            assert agg.q_over_p.std_error == agg.q1_over_p1.std_error

    def test_expected_mode_hits_reversal_point(self):
        cfg = config(noise=NoiseParams(0.7), seed=2)
        agg = aggregate(run_acquisition(cfg), 0.1, 0.8)
        assert agg.q_over_p.value > 1.0
        assert abs(agg.q_over_p.value - Q_OVER_P_AT_0P7) <= (
            3.0 * agg.q_over_p.std_error
        )

    def test_stochastic_matches_expected_with_more_spread(self):
        counts = run_acquisition(config(noise=NoiseParams(0.7), seed=2))
        expected = aggregate(counts, 0.1, 0.8)
        stochastic = aggregate(counts, 0.1, 0.8, np.random.default_rng(77))
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
        a = aggregate(counts, 0.1, 0.8, np.random.default_rng(5))
        b = aggregate(counts, 0.1, 0.8, np.random.default_rng(5))
        assert a == b

    def test_expected_mode_unbiased_across_seeds(self):
        values = []
        for seed in range(300, 400):
            cfg = config(noise=NoiseParams(0.7), seed=seed)
            agg = aggregate(run_acquisition(cfg), 0.1, 0.8)
            values.append(agg.q_over_p.value)
        values = np.array(values)
        standard_error = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - Q_OVER_P_AT_0P7) <= 3.0 * standard_error

    def test_generator_selects_stochastic_mode(self):
        # Without a generator the weights are their expectations, the same
        # on every call; with one they are drawn from it.
        counts = run_acquisition(config(seed=1))
        expected = aggregate(counts, 0.1, 0.8)
        assert aggregate(counts, 0.1, 0.8, None) == expected
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        stochastic = aggregate(counts, 0.1, 0.8, rng)
        assert rng.bit_generator.state != state
        assert stochastic != expected
        assert stochastic.excluded == expected.excluded

    def test_stochastic_draw_layout(self):
        # One rng.random((2, n)) call: row 0 picks the clean n1p for A below
        # gamma1, row 1 the clean n1q for B below gamma2.  The sums are of
        # whole numbers below 2**53, so any summation order gives these bits.
        counts = run_acquisition(config(seed=1))
        n1p, n1q, n2p, n2q = counts.T.astype(float)
        rng = np.random.default_rng(5)
        twin = copy.deepcopy(rng)
        u = twin.random((2, len(counts)))
        mixed_a = np.where(u[0] < 0.1, n1p, n2p)
        mixed_b = np.where(u[1] < 0.8, n1q, n2q)
        agg = aggregate(counts, 0.1, 0.8, rng)
        assert agg.p.value == mixed_a.sum() / n1p.sum()
        assert agg.q.value == mixed_b.sum() / n1p.sum()
        assert agg.q_over_p.value == mixed_b.sum() / mixed_a.sum()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_kernel_takes_picks_built_by_hand(self):
        # The picks alone choose the counts, whatever the weights: all clean
        # gives p = 1 and the clean q1/p1, none the noisy p2, q2 and q2/p2.
        counts = run_acquisition(config(seed=1))[np.newaxis]

        def values(picks=None):
            estimates = counting._estimate(counts, (0.3,), np.array([0.6]),
                                           picks)
            return {name: pair[0].item() for name, pair in estimates.items()}

        clean = values()
        for pick, expected in [
            (True, [1.0, clean["q1_over_p1"], clean["q1_over_p1"]]),
            (False, [clean["p2"], clean["q2"], clean["q2_over_p2"]]),
        ]:
            picks = np.full((1, 1, 2, counts.shape[1]), pick)
            assert values(picks) == {**clean, **dict(
                zip(["p", "q", "q_over_p"], expected))}

    def test_bad_weights_rejected(self):
        counts = run_acquisition(config(seed=1))
        with pytest.raises(ValueError):
            aggregate(counts, 1.5, 0.5)


class TestEstimatorTable:
    """``ESTIMATORS`` is the one list of the estimators: the result of
    ``aggregate`` takes its fields from it."""

    def test_names_are_the_result_fields_in_order(self):
        fields = [field.name for field in dataclasses.fields(AggregateResult)
                  if field.name != "excluded"]
        assert [name for name, _, _ in ESTIMATORS] == fields

    @pytest.mark.parametrize("renamed", ["q2_over_p2", "q_over_p"],
                             ids=["partitioned", "aggregated"])
    def test_a_name_the_results_lack_is_refused(self, monkeypatch, renamed):
        table = tuple((f"{name}_x" if name == renamed else name, a, b)
                      for name, a, b in ESTIMATORS)
        monkeypatch.setattr(counting, "ESTIMATORS", table)
        with pytest.raises(TypeError, match=f"{renamed}_x"):
            aggregate(run_acquisition(config(seed=1)), 0.1, 0.8)


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
        truth = {name: getattr(o, a) / getattr(o, b)
                 for name, a, b in ESTIMATORS}
        pulls = {}
        for seed in range(400):
            counts = run_acquisition(config(noise=noise, seed=seed))
            stochastic = aggregate(
                counts, gamma1, gamma2,
                np.random.default_rng(aggregation_seed(seed)))
            expected = aggregate(counts, gamma1, gamma2)
            # The four partitioned estimates are the same in both modes.
            for mode, result, rows in (("clean", expected, ESTIMATORS[:4]),
                                       ("stochastic", stochastic,
                                        ESTIMATORS[4:]),
                                       ("expected", expected, ESTIMATORS[4:])):
                for name, _, _ in rows:
                    est = getattr(result, name)
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
        result = aggregate(run_acquisition(cfg), 0.1, 0.8)
        assert result.q2_over_p2.value == sweep.q2_over_p2[2]
        assert result.q2_over_p2.std_error == sweep.q2_over_p2_err[2]

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

    @pytest.mark.parametrize("mode", ["stochastic", "expected"])
    @pytest.mark.parametrize("axis", ["delta", "gamma2"])
    def test_empty_grid_simulates(self, tmp_path, axis, mode):
        sweep = (self.delta([0.1, 0.4], grid=[]) if axis == "delta"
                 else self.gamma2(grid=[]))
        sim = simulate_sweep(sweep, 1, mode=mode)
        assert sim.q_over_p.shape == sim.q_over_p_err.shape == (2, 0)
        assert sim.q2_over_p2.shape == sim.q2_over_p2_err.shape == (0,)
        assert sim.seeds.shape == (0,)
        assert sim.seeds.dtype == np.uint64
        for name in SIM_COLUMNS:
            assert not getattr(sim, name).flags.writeable, name
        out = tmp_path / "table.csv"
        write_sweep_csv(out, sim)
        assert out.read_text() == ",".join(sweep_table(sim)[0]) + "\n"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
            "mode must be one of ('stochastic', 'expected'), got 'weighted'"
        )):
            simulate_sweep(self.delta(), 1, mode="weighted")

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
