#!/usr/bin/env python3
"""Emulate the photon-counting acquisition and recover the analytic ratios.

Each of the 200 iterations draws one Gaussian tilt alpha and four Poisson
counts behind phase-modulator settings 0, 2*theta, -2*alpha and
2*(theta - alpha); the run comes back as one (200, 4) count array.  The
tilts are not kept: the first draw of the seeded generator gives them
again.  The phase-0 count has unit pass probability, so every
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
    outcome_probabilities,
    run_acquisition,
)
from ysqht.theory import ESTIMATORS

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
# The tilts are the generator's first draw, all 200 in one call.
alpha = np.random.default_rng(2024).normal(0.0, noise.delta_std, 200)
print(f"first iteration: alpha = {alpha[0]:+.4f} rad, counts "
      f"{n1p}, {n1q}, {n2p}, {n2q}")

analytic = outcome_probabilities(
    ScenarioParams(theta, noise, gamma1, gamma2)
)
# One call per aggregation mode gives all seven estimates.
results = {mode: aggregate(counts, gamma1, gamma2, rng)
           for mode, rng in (("expected", None),
                             ("stochastic", np.random.default_rng(99)))}

# Each estimator's closed form, from the table of estimators.
closed_form = {name: getattr(analytic, a) / getattr(analytic, b)
               for name, a, b in ESTIMATORS}

print("\n== normalized ratios vs closed forms ==")
# The first four read the clean and noisy counts alone, the same in either
# mode.
for name, _, _ in ESTIMATORS[:4]:
    est, true = getattr(results["expected"], name), closed_form[name]
    pull = (est.value - true) / est.std_error
    print(f"{name.replace('_over_', '/'):>6}: {est.value:.4f} +- "
          f"{est.std_error:.4f}  (analytic {true:.4f}, pull "
          f"{pull:+.2f} sigma)")

print("\n== aggregation over an unknown preparation ==")
for mode, agg in results.items():
    true = closed_form["q_over_p"]
    pull = (agg.q_over_p.value - true) / agg.q_over_p.std_error
    print(f"{mode:>10}: q/p = {agg.q_over_p.value:.4f} +- "
          f"{agg.q_over_p.std_error:.4f}  (analytic "
          f"{true:.4f}, pull {pull:+.2f} sigma)")
print("\nstochastic mixing re-rolls which preparation each iteration counts")
print("as, so its error bar is the wider of the two")
