#!/usr/bin/env python3
"""Locate the reversal thresholds in both directions.

For fixed weights the reversal switches on once the preparation noise
exceeds a critical spread; for fixed noise it switches on once the
hypothesis-B clean weight exceeds a critical value.  Both thresholds have
closed forms, and the noise threshold has a handy small-angle expansion.
"""

import math

import numpy as np

from ysqht import (
    NoiseParams,
    delta_threshold,
    gamma2_threshold,
    reversal_pairs_exist,
    small_angle_threshold,
    sweep_delta,
    sweep_gamma2,
)


def first_sign_change(sweep, k=0):
    """The first grid interval on which q/p - 1 changes sign for the k-th
    gamma1 of ``sweep``; the closed-form threshold lies inside it."""
    below = sweep.q_over_p[k] <= 1.0
    i = np.flatnonzero(below[1:] != below[:-1])[0]
    return sweep.x[i], sweep.x[i + 1]


theta = 5.0 * math.pi / 36.0
noise = NoiseParams(2.0 * math.pi / 9.0)

print("== noise threshold at gamma1 = 0.1, gamma2 = 0.8 ==")
thr = delta_threshold(0.1, 0.8, theta)
print(f"critical smearing        : {thr.smearing:.6f}")
print(f"critical tilt spread     : {thr.delta_std:.6f} rad")
print(f"reachable / feasible     : {thr.reachable} / {thr.feasible}")

print("\n== weight threshold at delta_std = 2 pi / 9 ==")
for gamma1 in (0.05, 0.4, 0.8):
    thr2 = gamma2_threshold(gamma1, theta, noise)
    tail = "reachable" if thr2.reachable else "unreachable for any gamma2"
    print(f"gamma1 = {gamma1:4}: gamma2 must exceed {thr2.value:.6f}  ({tail})")
print(f"weight pairs exist at this noise: {reversal_pairs_exist(noise, theta)}")

print("\n== the thresholds are where the sweeps cross q/p = 1 ==")
grid = [0.05 * i for i in range(23)]
lo, hi = first_sign_change(sweep_delta(theta, [0.1], 0.8, grid))
print(f"noise sweep crossing     : bracket ({lo:.2f}, {hi:.2f}), "
      f"exact {thr.delta_std:.6f} rad")
gamma_grid = [0.05 * i for i in range(21)]
lo, hi = first_sign_change(sweep_gamma2(theta, noise, [0.05], gamma_grid))
exact = gamma2_threshold(0.05, theta, noise).value
print(f"weight sweep crossing    : bracket ({lo:.2f}, {hi:.2f}), "
      f"exact {exact:.6f}")

print("\n== small-angle expansion of the noise threshold ==")
print(f"{'theta':>8} {'exact':>12} {'1 - 2t^2/gap':>14} {'error':>10}")
for t in (0.01, 0.05, 0.1, 0.2):
    exact = delta_threshold(0.1, 0.8, t).smearing
    approx = small_angle_threshold(0.1, 0.8, t)
    print(f"{t:8.2f} {exact:12.8f} {approx:14.8f} {abs(exact - approx):10.2e}")
print("the error shrinks like theta^4")
