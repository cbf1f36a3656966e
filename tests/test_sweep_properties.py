"""Property tests of the analytic sweeps against the point-wise closed forms
and the two threshold formulas, over the whole admissible domain."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ysqht import (
    NoiseParams,
    ScenarioParams,
    delta_threshold,
    gamma2_threshold,
    outcome_probabilities,
    sweep_delta,
    sweep_gamma2,
    ys_reversal,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)

probability = st.floats(0.0, 1.0)
thetas = st.floats(0.0, math.pi / 2.0)
#: Tilts for which the threshold formulas apply.
threshold_thetas = st.floats(1e-3, math.pi / 4.0 - 1e-3)
gamma1_lists = st.lists(probability, min_size=1, max_size=3, unique=True)


def grids(lo, hi):
    return st.lists(
        st.floats(lo, hi), min_size=2, max_size=25
    ).map(sorted)


#: (theta, gamma1 values, gamma2 or noise spread, grid) per axis.
CASES = {
    "delta": st.tuples(thetas, gamma1_lists, probability, grids(0.0, 2.0)),
    "gamma2": st.tuples(
        thetas, gamma1_lists, st.floats(0.0, 2.0), grids(0.0, 1.0)
    ),
}


def point(sweep, x, gamma1, fixed):
    """ScenarioParams of one sweep cell; ``fixed`` is gamma2 on the noise
    axis and the noise spread on the weight axis."""
    if sweep.axis == "delta":
        return ScenarioParams(sweep.theta, NoiseParams(x), gamma1, fixed)
    return ScenarioParams(sweep.theta, NoiseParams(fixed), gamma1, x)


def brute_force_brackets(sweep, fixed):
    """Per gamma1: the first grid interval on which the point-wise q/p - 1
    changes sign (as ``q/p - 1 <= 0``), or None."""
    xs = [row.x for row in sweep.rows]
    brackets = []
    for gamma1 in sweep.gamma1_values:
        below = []
        for x in xs:
            o = outcome_probabilities(point(sweep, x, gamma1, fixed))
            below.append(o.q / o.p - 1.0 <= 0.0)
        change = [i for i in range(len(xs) - 1) if below[i] != below[i + 1]]
        brackets.append((xs[change[0]], xs[change[0] + 1]) if change else None)
    return brackets


def draw_sweep(axis, data):
    """A sweep drawn from ``CASES[axis]``, its grid, and its fixed value."""
    theta, gamma1_values, fixed, grid = data.draw(CASES[axis])
    if axis == "delta":
        sweep = sweep_delta(theta, gamma1_values, fixed, grid)
    else:
        sweep = sweep_gamma2(theta, NoiseParams(fixed), gamma1_values, grid)
    return sweep, grid, fixed


@pytest.mark.parametrize("axis", sorted(CASES))
@SETTINGS
@given(data=st.data())
def test_sweeps_match_point_queries(axis, data):
    sweep, grid, fixed = draw_sweep(axis, data)
    assert [row.x for row in sweep.rows] == grid
    for row in sweep.rows:
        for k, gamma1 in enumerate(sweep.gamma1_values):
            params = point(sweep, row.x, gamma1, fixed)
            o = outcome_probabilities(params)
            assert row.q1_over_p1 == o.q1 / o.p1
            assert row.q2_over_p2 == o.q2 / o.p2
            assert row.q_over_p[k] == o.q / o.p
            assert row.reversal[k] is ys_reversal(params).reversal


# In exact arithmetic q - p is linear in the smearing and in gamma2, so q/p
# crosses 1 at most once on either axis, at the closed-form threshold; the
# first grid interval on which the point-wise q/p - 1 changes sign holds it.
# Rounding can put that sign change next to the exact root instead of around
# it, so the bracket's point nearest the threshold is compared with rel 1e-12.


def assert_bracket_holds(bracket, threshold):
    assert bracket is not None
    lo, hi = bracket
    assert min(max(threshold, lo), hi) == pytest.approx(threshold, rel=1e-12)


@SETTINGS
@given(threshold_thetas, probability, probability, grids(0.0, 2.0))
def test_noise_crossing_is_the_noise_threshold(theta, gamma1, gamma2, grid):
    thr = delta_threshold(gamma1, gamma2, theta)
    assume(thr.reachable and grid[0] < thr.delta_std < grid[-1])
    sweep = sweep_delta(theta, [gamma1], gamma2, grid)
    assert_bracket_holds(brute_force_brackets(sweep, gamma2)[0], thr.delta_std)


@SETTINGS
@given(threshold_thetas, st.floats(1e-3, 2.0), probability, grids(0.0, 1.0))
def test_weight_crossing_is_the_weight_threshold(theta, delta_std, gamma1,
                                                 grid):
    noise = NoiseParams(delta_std)
    thr = gamma2_threshold(gamma1, theta, noise)
    assume(thr.reachable and grid[0] < thr.value < grid[-1])
    sweep = sweep_gamma2(theta, noise, [gamma1], grid)
    assert_bracket_holds(brute_force_brackets(sweep, delta_std)[0], thr.value)
