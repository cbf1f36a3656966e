#!/usr/bin/env python3
"""Emulate the photon-counting acquisition and recover the analytic ratios.

Each of the 200 iterations draws one Gaussian tilt alpha and four Poisson
counts behind phase-modulator settings 0, 2*theta, -2*alpha and
2*(theta - alpha); the run comes back as columns (one alpha array, one
(200, 4) count array).  The phase-0 count has unit pass probability, so every
other probability is estimated as a ratio of summed counts against it, with
a delta-method one-sigma error bar.
"""

import math

import numpy as np

from ysqht import (
    AcquisitionConfig,
    NoiseParams,
    ScenarioParams,
    aggregate,
    estimate_ratios,
    outcome_probabilities,
    run_acquisition,
)

theta = 5.0 * math.pi / 36.0
noise = NoiseParams(2.0 * math.pi / 9.0)
gamma1, gamma2 = 0.05, 0.8

config = AcquisitionConfig(
    theta=theta, noise=noise, seed=2024, iterations=200, mean_rate=1e4,
)
counts = run_acquisition(config)
print(f"acquired {len(counts)} iterations at ~{config.expected_counts:.0f} "
      "counts per window")
n1p, n1q, n2p, n2q = counts.counts[0]
print(f"first iteration: alpha = {counts.alpha[0]:+.4f} rad, counts "
      f"{n1p}, {n1q}, {n2p}, {n2q}")

analytic = outcome_probabilities(
    ScenarioParams(theta, noise, gamma1, gamma2)
)
summary = estimate_ratios(counts)

print("\n== normalized ratios vs closed forms ==")
rows = [
    ("q1/p1", summary.q1_over_p1, analytic.q1 / analytic.p1),
    ("p2", summary.p2, analytic.p2),
    ("q2", summary.q2, analytic.q2),
    ("q2/p2", summary.q2_over_p2, analytic.q2 / analytic.p2),
]
for label, est, true in rows:
    pull = (est.value - true) / est.std_error
    print(f"{label:>6}: {est.value:.4f} +- {est.std_error:.4f}  "
          f"(analytic {true:.4f}, pull {pull:+.2f} sigma)")

print("\n== aggregation over an unknown preparation ==")
for mode, rng in (("expected", None),
                  ("stochastic", np.random.default_rng(99))):
    agg = aggregate(counts, gamma1, gamma2, rng, mode)
    pull = (agg.q_over_p.value - analytic.q / analytic.p) / (
        agg.q_over_p.std_error
    )
    print(f"{mode:>10}: q/p = {agg.q_over_p.value:.4f} +- "
          f"{agg.q_over_p.std_error:.4f}  (analytic "
          f"{analytic.q / analytic.p:.4f}, pull {pull:+.2f} sigma)")
print("\nstochastic mixing re-rolls which preparation each iteration counts")
print("as, so its error bar is the wider of the two")
