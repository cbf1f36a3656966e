#!/usr/bin/env python3
"""Walk through the aggregation reversal at a single parameter point.

A detector box measures linear polarization either along the reference axis
(hypothesis A) or tilted by theta (hypothesis B).  We probe it with a clean
vertically polarized photon and with a noisy one whose polarization angle
was smeared by a Gaussian.  Partitioned by preparation, hypothesis A always
wins; aggregated with mismatched clean-preparation weights, the comparison
can flip.
"""

import math

from ysqht import (
    Analyzer,
    NoiseParams,
    ScenarioParams,
    born_probability,
    dephase,
    dephase_oracle,
    mix,
    outcome_probabilities,
    pure_state,
    ys_reversal,
)

theta = 5.0 * math.pi / 36.0          # 25 degrees tilt of hypothesis B
noise = NoiseParams(0.7)              # Gaussian tilt spread, radians
gamma1, gamma2 = 0.1, 0.8             # clean-preparation weights under A, B

print("== states and measurements ==")
clean = pure_state(0.0)
noisy = dephase(clean, noise)
print(f"clean probe Bloch vector : ({clean.bloch_x:.6f}, {clean.bloch_z:.6f})")
print(f"noisy probe Bloch vector : ({noisy.bloch_x:.6f}, {noisy.bloch_z:.6f})")
print(f"smearing factor          : {noise.smearing:.6f}  (exp(-2 delta^2))")

analyzer_a = Analyzer(0.0)
analyzer_b = Analyzer(theta)
print("\n== outcome probabilities, one preparation at a time ==")
print(f"clean probe, analyzer A  : {born_probability(clean, analyzer_a):.6f}")
print(f"clean probe, analyzer B  : {born_probability(clean, analyzer_b):.6f}")
print(f"noisy probe, analyzer A  : {born_probability(noisy, analyzer_a):.6f}")
print(f"noisy probe, analyzer B  : {born_probability(noisy, analyzer_b):.6f}")

# the closed-form channel action can be cross-checked by a Gauss-Hermite
# average over rigidly tilted states
quad = dephase_oracle(clean, noise, analyzer_b)
closed = born_probability(noisy, analyzer_b)
print(f"quadrature cross-check   : {quad:.12f} vs closed {closed:.12f}")

print("\n== aggregation with mismatched weights ==")
params = ScenarioParams(theta, noise, gamma1, gamma2)
o = outcome_probabilities(params)
print(f"p1, q1 (clean)           : {o.p1:.6f}, {o.q1:.6f}   -> A ahead")
print(f"p2, q2 (noisy)           : {o.p2:.6f}, {o.q2:.6f}   -> A ahead")
print(f"p,  q  (aggregated)      : {o.p:.6f}, {o.q:.6f}")
print(f"q/p                      : {o.q / o.p:.6f}")

verdict = ys_reversal(params)
print(f"\nreversal                 : {verdict.reversal}")
print("Both partitions favor A, yet the aggregated counts favor B: the")
print("mismatch gamma2 > gamma1 overweights the clean probe exactly where")
print("hypothesis B scores best.")

# the aggregated numbers are nothing but the Born rule on the mixed probe
mixed_a = mix(gamma1, clean, noisy)
mixed_b = mix(gamma2, clean, noisy)
assert abs(born_probability(mixed_a, analyzer_a) - o.p) < 1e-12
assert abs(born_probability(mixed_b, analyzer_b) - o.q) < 1e-12
print("\n(aggregated p and q verified against the mixed-state Born rule)")
