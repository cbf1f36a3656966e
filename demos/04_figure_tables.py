#!/usr/bin/env python3
"""Regenerate both ratio-curve tables (analytic plus Monte Carlo) as CSVs.

Left table: ratios versus the preparation-noise spread at gamma1 = 0.1,
gamma2 = 0.8.  Right table: ratios versus gamma2 at fixed noise for two
values of gamma1.  ``simulate_sweep(sweep, seed=1)`` runs the Monte Carlo
twin of each analytic ``Sweep`` at the sweep's own theta, noise and
weights, and ``write_sweep_csv(path, sweep, sim)`` writes the table and its
companion ``<path>.manifest.json`` from the two records: the sweep's
parameters from the ``Sweep``, and the seed, iterations, rate, window and
mode from the ``SimulatedSweep``.  The CSVs are plot-ready; the command
line writes the same tables, through the same functions, via

    ysqht sweep delta 0:1.1:23 --theta 0.43633 --gamma1 0.1 --gamma2 0.8 \
        --with-sim --out left.csv
    ysqht sweep gamma2 0:1:21 --theta 0.43633 --delta-std 0.69813 \
        --gamma1 0.05,0.4 --with-sim --out right.csv

(with the exact angles of this script, --theta 0.4363323129985824 and
--delta-std 0.6981317007977318, and --seed 1, the bytes are the same).
"""

import math
from pathlib import Path

import numpy as np

from ysqht import (
    NoiseParams,
    delta_threshold,
    gamma2_threshold,
    simulate_sweep,
    sweep_delta,
    sweep_gamma2,
    write_sweep_csv,
)


def first_sign_change(sweep, k=0):
    """The first grid interval on which q/p - 1 changes sign for the k-th
    gamma1 of ``sweep``; the closed-form threshold lies inside it."""
    below = sweep.q_over_p[k] <= 1.0
    i = np.flatnonzero(below[1:] != below[:-1])[0]
    return sweep.x[i], sweep.x[i + 1]


theta = 5.0 * math.pi / 36.0
noise = NoiseParams(2.0 * math.pi / 9.0)
out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

print("== left table: ratios versus noise spread ==")
grid = [float(d) for d in np.linspace(0.0, 1.1, 23)]
analytic = sweep_delta(theta, [0.1], 0.8, grid)
sim = simulate_sweep(analytic, seed=1)
left = out_dir / "ratios_vs_noise.csv"
write_sweep_csv(left, analytic, sim)
lo, hi = first_sign_change(analytic)
exact = delta_threshold(0.1, 0.8, theta).delta_std
print(f"wrote {left}")
print(f"q/p crosses 1 between {lo:.2f} and {hi:.2f} "
      f"rad (exactly at {exact:.4f})")

print("\n== right table: ratios versus gamma2 ==")
gamma_grid = [float(g) for g in np.linspace(0.0, 1.0, 21)]
analytic2 = sweep_gamma2(theta, noise, [0.05, 0.4], gamma_grid)
sim2 = simulate_sweep(analytic2, seed=1)
right = out_dir / "ratios_vs_gamma2.csv"
write_sweep_csv(right, analytic2, sim2)
print(f"wrote {right}")
lo, hi = first_sign_change(analytic2)
exact = gamma2_threshold(0.05, theta, noise).value
print(f"gamma1 = 0.05: q/p crosses 1 between {lo:.2f} and "
      f"{hi:.2f} (exactly at {exact:.4f})")
stays_below = bool(np.all(analytic2.q_over_p[1][analytic2.x <= 0.9] < 1))
print(f"gamma1 = 0.4 : q/p stays below 1 up to gamma2 = 0.9 ({stays_below})")
print("\nthe q2/p2 column is identical in every row: the noisy-probe ratio")
print("does not depend on the aggregation weights")
