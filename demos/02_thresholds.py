#!/usr/bin/env python3
"""Locate the reversal thresholds in both directions.

For fixed weights the reversal switches on once the preparation noise
exceeds a critical spread; for fixed noise it switches on once the
hypothesis-B clean weight exceeds a critical value.  Both thresholds have
closed forms, and the noise threshold has a handy small-angle expansion.
"""

import math

from ysqht import (
    NoiseParams,
    delta_threshold,
    gamma2_threshold,
    reversal_pairs_exist,
    small_angle_threshold,
    sweep_delta,
    sweep_gamma2,
)

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
crossing = sweep_delta(theta, [0.1], 0.8, grid).crossings[0]
print(f"noise sweep crossing     : bracket ({crossing.below:.2f}, "
      f"{crossing.above:.2f}), exact {crossing.refined:.6f} rad")
gamma_grid = [0.05 * i for i in range(21)]
crossing2 = sweep_gamma2(theta, noise, [0.05], gamma_grid).crossings[0]
print(f"weight sweep crossing    : bracket ({crossing2.below:.2f}, "
      f"{crossing2.above:.2f}), exact {crossing2.refined:.6f}")

print("\n== small-angle expansion of the noise threshold ==")
print(f"{'theta':>8} {'exact':>12} {'1 - 2t^2/gap':>14} {'error':>10}")
for t in (0.01, 0.05, 0.1, 0.2):
    exact = delta_threshold(0.1, 0.8, t).smearing
    approx = small_angle_threshold(0.1, 0.8, t)
    print(f"{t:8.2f} {exact:12.8f} {approx:14.8f} {abs(exact - approx):10.2e}")
print("the error shrinks like theta^4")
