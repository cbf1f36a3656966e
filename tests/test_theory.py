"""Tests for the closed forms, the reversal predicate, and the thresholds."""

import dataclasses
import math

import numpy as np
import pytest

from ysqht import (
    Analyzer,
    NoiseParams,
    OutcomeProbabilities,
    ScenarioParams,
    YsVerdict,
    born_probability,
    delta_threshold,
    dephase,
    gamma2_threshold,
    mix,
    outcome_probabilities,
    pure_state,
    reversal_pairs_exist,
    small_angle_threshold,
    sweep_delta,
    sweep_gamma2,
    ys_reversal,
)
from ysqht.theory import ESTIMATORS

THETA_B = 5.0 * math.pi / 36.0
DELTA_FIG2 = 2.0 * math.pi / 9.0

# Frozen by direct evaluation of the defining formulas.
Q1 = 0.8213938048432696
Q2_OVER_P2_FIG2 = 0.902148945883963
P_AT_0P7 = 0.7188899944831297     # theta 5pi/36, delta_std 0.7, gamma1 0.1
Q_AT_0P7 = 0.7812395762865677     # same point, gamma2 0.8
Q_OVER_P_AT_0P7 = 1.086730351349884
GAMMA2_THRESHOLD_FIG2 = 0.41447164291252375   # gamma1 0.05
GAMMA2_THRESHOLD_G1_04 = 0.9589749823136681   # gamma1 0.4
SMEARING_THRESHOLD_FIG2 = 0.536955248808024   # gamma1 0.1, gamma2 0.8
DELTA_STD_THRESHOLD_FIG2 = 0.5576022433145783
SMEARING_THRESHOLD_SMALL_TILT = 0.9716849443326497  # theta 0.1 rad

#: Frozen regression constant for the small-angle error bound
#: |approx - exact| <= C * theta^4 / (gamma2 - gamma1), fitted once over the
#: grid below (weight gaps >= 0.3) and padded ~10%.
SMALL_ANGLE_C = 11.0

def first_sign_change(sweep, k=0):
    """The first grid interval on which q/p - 1 changes sign for the k-th
    gamma1 of ``sweep``, read from its ``q_over_p`` column."""
    below = sweep.q_over_p[k] <= 1.0
    i = np.flatnonzero(below[1:] != below[:-1])[0]
    return sweep.x[i], sweep.x[i + 1]


def scenario(theta=THETA_B, delta_std=DELTA_FIG2, gamma1=0.1, gamma2=0.8):
    return ScenarioParams(theta, NoiseParams(delta_std), gamma1, gamma2)


class TestOutcomeProbabilities:
    def test_fig2_ratio_point(self):
        o = outcome_probabilities(scenario())
        assert o.p1 == 1.0
        assert o.q1 == pytest.approx(Q1, abs=1e-15)
        assert o.q2 / o.p2 == pytest.approx(Q2_OVER_P2_FIG2, abs=1e-12)

    def test_estimator_table_gives_the_closed_forms(self):
        # The one statement of the seven closed forms by hand, the check of
        # the table that every estimator, report and test reads.
        o = outcome_probabilities(scenario(delta_std=0.7))
        assert [(name, getattr(o, a) / getattr(o, b))
                for name, a, b in ESTIMATORS] == [
            ("q1_over_p1", o.q1 / o.p1), ("p2", o.p2 / o.p1),
            ("q2", o.q2 / o.p1), ("q2_over_p2", o.q2 / o.p2),
            ("p", o.p / o.p1), ("q", o.q / o.p1), ("q_over_p", o.q / o.p),
        ]

    def test_zero_noise_collapses_to_clean(self):
        o = outcome_probabilities(scenario(delta_std=0.0))
        assert o.p2 == 1.0
        assert o.q2 == pytest.approx(o.q1, abs=1e-15)

    def test_reversal_point(self):
        o = outcome_probabilities(scenario(delta_std=0.7))
        assert o.p == pytest.approx(P_AT_0P7, abs=1e-12)
        assert o.q == pytest.approx(Q_AT_0P7, abs=1e-12)
        assert o.q / o.p == pytest.approx(Q_OVER_P_AT_0P7, abs=1e-12)
        assert o.p2 > o.q2 and o.q > o.p

    def test_aggregation_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            params = scenario(
                theta=rng.uniform(0.0, math.pi / 2.0),
                delta_std=rng.uniform(0.0, 2.0),
                gamma1=rng.uniform(0.0, 1.0),
                gamma2=rng.uniform(0.0, 1.0),
            )
            o = outcome_probabilities(params)
            assert o.p == pytest.approx(
                params.gamma1 * o.p1 + (1.0 - params.gamma1) * o.p2, abs=1e-12
            )
            assert o.q == pytest.approx(
                params.gamma2 * o.q1 + (1.0 - params.gamma2) * o.q2, abs=1e-12
            )

    def test_matches_state_level_composition(self):
        # Closed forms against the compositional route:
        # mix(gamma, clean, dephased) measured by each analyzer.
        rng = np.random.default_rng(13)
        clean = pure_state(0.0)
        for _ in range(300):
            params = scenario(
                theta=rng.uniform(0.0, math.pi / 2.0),
                delta_std=rng.uniform(0.0, 2.0),
                gamma1=rng.uniform(0.0, 1.0),
                gamma2=rng.uniform(0.0, 1.0),
            )
            o = outcome_probabilities(params)
            noisy = dephase(clean, params.noise)
            a_ref = Analyzer(0.0)
            a_tilt = Analyzer(params.theta)
            assert o.p1 == born_probability(clean, a_ref)
            assert o.q1 == pytest.approx(
                born_probability(clean, a_tilt), abs=1e-12
            )
            assert o.p2 == pytest.approx(
                born_probability(noisy, a_ref), abs=1e-12
            )
            assert o.q2 == pytest.approx(
                born_probability(noisy, a_tilt), abs=1e-12
            )
            assert o.p == pytest.approx(
                born_probability(mix(params.gamma1, clean, noisy), a_ref),
                abs=1e-12,
            )
            assert o.q == pytest.approx(
                born_probability(mix(params.gamma2, clean, noisy), a_tilt),
                abs=1e-12,
            )

    def test_partitions_always_favor_a(self):
        rng = np.random.default_rng(37)
        for _ in range(500):
            params = scenario(
                theta=rng.uniform(1e-9, math.pi / 4.0),
                delta_std=rng.uniform(0.0, 2.0),
            )
            o = outcome_probabilities(params)
            assert o.p1 >= o.q1
            assert o.p2 >= o.q2

    def test_rejects_theta_outside_half_pi(self):
        with pytest.raises(ValueError, match="theta"):
            scenario(theta=2.0)


class TestYsReversal:
    def test_reversal_above_noise_threshold(self):
        assert ys_reversal(scenario(delta_std=0.7)).reversal is True

    def test_no_reversal_below_noise_threshold(self):
        assert ys_reversal(scenario(delta_std=0.4)).reversal is False

    def test_equal_weights_never_reverse(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            gamma = rng.uniform(0.0, 1.0)
            verdict = ys_reversal(
                scenario(
                    theta=rng.uniform(1e-3, math.pi / 2.0),
                    delta_std=rng.uniform(0.0, 2.0),
                    gamma1=gamma,
                    gamma2=gamma,
                )
            )
            assert verdict.reversal is False

    def test_verdict_components(self):
        v = ys_reversal(scenario(delta_std=0.7))
        assert v.clean_favors_a and v.noisy_favors_a
        assert v.aggregated_favors_b
        assert v.reversal == (
            v.clean_favors_a and v.noisy_favors_a and v.aggregated_favors_b
        )

    def test_verdict_of_arrays_is_the_verdict_of_each_point(self):
        # One row per point: the reversal, then each inequality a tie, so
        # that the strict test finds no reversal there.
        rows = [(1.0, 0.8, 0.9, 0.7, 0.7, 0.8), (1.0, 1.0, 0.9, 0.7, 0.7, 0.8),
                (1.0, 0.8, 0.7, 0.7, 0.7, 0.8), (1.0, 0.8, 0.9, 0.7, 0.8, 0.8)]
        verdict = YsVerdict.of(OutcomeProbabilities(*np.array(rows).T))
        assert verdict.reversal.tolist() == [True, False, False, False]
        for i, row in enumerate(rows):
            point = YsVerdict.of(OutcomeProbabilities(*row))
            assert point.reversal is verdict.reversal[i].item()
            assert dataclasses.astuple(point) == tuple(
                column[i].item() for column in dataclasses.astuple(verdict))


class TestGamma2Threshold:
    def test_fig2_right_checkpoint(self):
        thr = gamma2_threshold(0.05, THETA_B, NoiseParams(DELTA_FIG2))
        assert thr.value == pytest.approx(GAMMA2_THRESHOLD_FIG2, abs=1e-12)
        assert thr.reachable

    def test_large_gamma1_still_below_one(self):
        thr = gamma2_threshold(0.4, THETA_B, NoiseParams(DELTA_FIG2))
        assert thr.value == pytest.approx(GAMMA2_THRESHOLD_G1_04, abs=1e-12)
        assert thr.reachable

    def test_unreachable_near_quarter_turn(self):
        thr = gamma2_threshold(
            0.0, math.pi / 4.0 - 1e-6, NoiseParams(DELTA_FIG2)
        )
        assert not thr.reachable
        assert thr.value > 1.0

    def test_rejects_wide_tilt(self):
        with pytest.raises(ValueError, match="pi/4"):
            gamma2_threshold(0.1, math.pi / 4.0, NoiseParams(DELTA_FIG2))

    def test_rejects_noiseless_preparation(self):
        with pytest.raises(ValueError, match="noiseless"):
            gamma2_threshold(0.1, THETA_B, NoiseParams(0.0))


class TestDeltaThreshold:
    def test_fig2_left_checkpoint(self):
        thr = delta_threshold(0.1, 0.8, THETA_B)
        assert thr.reachable
        assert thr.smearing == pytest.approx(SMEARING_THRESHOLD_FIG2, abs=1e-12)
        assert thr.delta_std == pytest.approx(
            DELTA_STD_THRESHOLD_FIG2, abs=1e-12
        )
        assert thr.feasible

    def test_reversed_weights_unreachable(self):
        thr = delta_threshold(0.8, 0.1, THETA_B)
        assert not thr.reachable
        assert thr.delta_std is None

    def test_small_tilt_value(self):
        thr = delta_threshold(0.1, 0.8, 0.1)
        assert thr.smearing == pytest.approx(
            SMEARING_THRESHOLD_SMALL_TILT, abs=1e-12
        )

    def test_rejects_wide_tilt(self):
        with pytest.raises(ValueError, match="pi/4"):
            delta_threshold(0.1, 0.8, 1.0)


class TestThresholdConsistency:
    def test_gamma2_threshold_is_an_equality_point(self):
        # Plugging the critical weight back in lands exactly on q = p.
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 300:
            theta = rng.uniform(1e-3, math.pi / 4.0 - 1e-3)
            noise = NoiseParams(rng.uniform(1e-3, 1.2))
            gamma1 = rng.uniform(0.0, 1.0)
            thr = gamma2_threshold(gamma1, theta, noise)
            if not thr.reachable:
                continue
            o = outcome_probabilities(
                ScenarioParams(theta, noise, gamma1, thr.value)
            )
            assert o.q - o.p == pytest.approx(0.0, abs=1e-10)
            checked += 1

    def test_both_threshold_forms_agree_with_predicate(self):
        rng = np.random.default_rng(47)
        for _ in range(1000):
            theta = rng.uniform(1e-3, math.pi / 4.0 - 1e-3)
            delta_std = rng.uniform(1e-3, 1.2)
            noise = NoiseParams(delta_std)
            gamma1, gamma2 = rng.uniform(0.0, 1.0, size=2)
            verdict = ys_reversal(
                ScenarioParams(theta, noise, gamma1, gamma2)
            )
            weight_form = gamma2 > gamma2_threshold(gamma1, theta, noise).value
            dth = delta_threshold(gamma1, gamma2, theta)
            noise_form = dth.reachable and noise.smearing < dth.smearing
            assert verdict.reversal == weight_form == noise_form


class TestSmallAngleThreshold:
    def test_benchmark_point(self):
        approx = small_angle_threshold(0.1, 0.8, 0.1)
        assert approx == pytest.approx(0.9714285714285714, abs=1e-15)
        exact = delta_threshold(0.1, 0.8, 0.1).smearing
        assert abs(approx - exact) <= 3e-4

    def test_degenerate_tilt(self):
        assert small_angle_threshold(0.1, 0.8, 0.0) == 1.0

    def test_tiny_tilt_convergence(self):
        approx = small_angle_threshold(0.1, 0.8, 0.01)
        exact = delta_threshold(0.1, 0.8, 0.01).smearing
        assert abs(approx - exact) <= 1e-6

    def test_rejects_non_increasing_weights(self):
        with pytest.raises(ValueError, match="gamma2 > gamma1"):
            small_angle_threshold(0.8, 0.1, 0.1)

    def test_frozen_quartic_error_bound(self):
        for gamma1 in (0.0, 0.05, 0.1, 0.2, 0.3):
            for gap in (0.3, 0.4, 0.5, 0.7, 1.0 - gamma1):
                gamma2 = gamma1 + gap
                if not gamma1 < gamma2 <= 1.0:
                    continue
                for theta in (0.01, 0.02, 0.05, 0.1, 0.15, 0.2):
                    exact = delta_threshold(gamma1, gamma2, theta).smearing
                    approx = small_angle_threshold(gamma1, gamma2, theta)
                    bound = SMALL_ANGLE_C * theta**4 / (gamma2 - gamma1)
                    assert abs(approx - exact) <= bound


class TestPairsExist:
    def test_fig2_point_is_feasible(self):
        assert reversal_pairs_exist(NoiseParams(DELTA_FIG2), THETA_B)

    def test_infeasible_when_barely_noisy(self):
        # near pi/4 the bound 2 cos 2theta is tiny, high smearing fails it
        assert not reversal_pairs_exist(NoiseParams(0.05), 0.78)


class TestSweepDelta:
    GRID = [round(0.05 * i, 10) for i in range(23)]   # 0 .. 1.1

    def test_noisy_ratio_monotone_in_noise(self):
        sweep = sweep_delta(THETA_B, [0.1], 0.8, self.GRID)
        ratios = [row.q2_over_p2 for row in sweep.rows]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_noiseless_row_cannot_reverse(self):
        sweep = sweep_delta(THETA_B, [0.1], 0.8, self.GRID)
        first = sweep.rows[0]
        assert first.x == 0.0
        assert first.q_over_p[0] < 1.0
        assert not first.reversal[0]

    def test_crossing_brackets_the_threshold(self):
        sweep = sweep_delta(THETA_B, [0.1], 0.8, self.GRID)
        lo, hi = first_sign_change(sweep)
        assert lo <= DELTA_STD_THRESHOLD_FIG2 <= hi
        assert lo <= delta_threshold(0.1, 0.8, THETA_B).delta_std <= hi

    def test_reversal_flag_matches_ratio(self):
        sweep = sweep_delta(THETA_B, [0.1], 0.8, self.GRID)
        for row in sweep.rows:
            assert row.reversal[0] == (row.q_over_p[0] > 1.0 and row.x > 0)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="sorted"):
            sweep_delta(THETA_B, [0.1], 0.8, [0.2, 0.1])


class TestSweepGamma2:
    GRID = [round(0.05 * i, 10) for i in range(21)]   # 0 .. 1

    def test_noisy_ratio_independent_of_weights(self):
        sweep = sweep_gamma2(
            THETA_B, NoiseParams(DELTA_FIG2), [0.05, 0.4], self.GRID
        )
        ratios = {row.q2_over_p2 for row in sweep.rows}
        assert ratios == {sweep.rows[0].q2_over_p2}
        assert sweep.rows[0].q2_over_p2 == pytest.approx(
            Q2_OVER_P2_FIG2, abs=1e-12
        )

    def test_crossing_near_paper_threshold(self):
        sweep = sweep_gamma2(
            THETA_B, NoiseParams(DELTA_FIG2), [0.05, 0.4], self.GRID
        )
        lo, hi = first_sign_change(sweep)
        assert lo <= GAMMA2_THRESHOLD_FIG2 <= hi
        thr = gamma2_threshold(0.05, THETA_B, NoiseParams(DELTA_FIG2))
        assert lo <= thr.value <= hi

    def test_aggregated_ratio_strictly_increasing(self):
        sweep = sweep_gamma2(
            THETA_B, NoiseParams(DELTA_FIG2), [0.05], self.GRID
        )
        ratios = [row.q_over_p[0] for row in sweep.rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_rejects_empty_gamma1(self):
        with pytest.raises(ValueError, match="gamma1"):
            sweep_gamma2(THETA_B, NoiseParams(DELTA_FIG2), [], self.GRID)


class TestSweepColumns:
    GRID = [0.0, 0.25, 0.5, 0.75, 1.0]

    def sweeps(self):
        return [
            sweep_delta(THETA_B, [0.1, 0.3], 0.8, self.GRID),
            sweep_gamma2(THETA_B, NoiseParams(DELTA_FIG2), [0.05, 0.2, 0.4],
                         self.GRID),
        ]

    def test_shapes(self):
        for sweep in self.sweeps():
            n, g = len(self.GRID), len(sweep.gamma1_values)
            assert sweep.x.tolist() == self.GRID
            assert isinstance(sweep.q1_over_p1, float)
            assert sweep.q2_over_p2.shape == (n,)
            assert sweep.q_over_p.shape == (g, n)
            assert sweep.reversal.shape == (g, n)
            assert sweep.reversal.dtype == bool

    def test_fixed_holds_the_other_axis(self):
        delta, gamma2 = self.sweeps()
        assert (delta.axis, delta.fixed) == ("delta", 0.8)
        assert (gamma2.axis, gamma2.fixed) == ("gamma2", DELTA_FIG2)

    def test_columns_are_read_only(self):
        for sweep in self.sweeps():
            for column in (sweep.x, sweep.q2_over_p2, sweep.q_over_p,
                           sweep.reversal):
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 0

    def test_rows_are_the_columns_point_by_point(self):
        for sweep in self.sweeps():
            assert sweep.rows is sweep.rows  # built once
            assert len(sweep.rows) == len(self.GRID)
            for i, row in enumerate(sweep.rows):
                assert row.x == sweep.x[i]
                assert row.q1_over_p1 == sweep.q1_over_p1
                assert row.q2_over_p2 == sweep.q2_over_p2[i]
                assert row.q_over_p == tuple(sweep.q_over_p[:, i].tolist())
                assert row.reversal == tuple(sweep.reversal[:, i].tolist())

    def test_caller_grid_is_copied(self):
        grid = np.array(self.GRID)
        sweep = sweep_delta(THETA_B, [0.1], 0.8, grid)
        grid[0] = 9.0
        assert sweep.x[0] == 0.0
        assert grid.flags.writeable

    @pytest.mark.parametrize("sweep, message", [
        (lambda g: sweep_delta(THETA_B, [0.1], 0.8, g),
         "delta_std must be finite, got nan"),
        (lambda g: sweep_gamma2(THETA_B, NoiseParams(DELTA_FIG2), [0.1], g),
         "gamma2 must be finite, got nan"),
    ], ids=["delta", "gamma2"])
    def test_non_finite_grid_value_named(self, sweep, message):
        with pytest.raises(ValueError, match=message):
            sweep([0.0, math.nan, math.inf])

    def test_first_weight_outside_unit_interval_named(self):
        with pytest.raises(ValueError, match=r"gamma2 must be in \[0, 1\], "
                                             r"got 1.5"):
            sweep_gamma2(THETA_B, NoiseParams(DELTA_FIG2), [0.1],
                         [-0.0, 0.5, 1.5, 2.5])

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            sweep_delta(THETA_B, [0.1], 0.8, [-0.1, 0.5])

    def test_nested_grid_rejected(self):
        with pytest.raises(ValueError, match="flat sequence"):
            sweep_delta(THETA_B, [0.1], 0.8, [[0.0, 0.5]])


@pytest.mark.parametrize("sweep", [
    lambda g1: sweep_delta(THETA_B, g1, 0.8, [0.0, 0.5]),
    lambda g1: sweep_gamma2(THETA_B, NoiseParams(DELTA_FIG2), g1, [0.0, 0.5]),
], ids=["sweep_delta", "sweep_gamma2"])
def test_duplicate_gamma1_rejected(sweep):
    # 0.1 and 0.10 are one weight: their columns would share a name.
    with pytest.raises(ValueError, match="gamma1 value 0.1 is given more"):
        sweep([0.05, 0.1, 0.10])
