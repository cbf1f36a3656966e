#!/usr/bin/env python3
"""Regenerate both ratio-curve tables (analytic plus Monte Carlo) as CSVs.

Left table: ratios versus the preparation-noise spread at gamma1 = 0.1,
gamma2 = 0.8.  Right table: ratios versus gamma2 at fixed noise for two
values of gamma1.  The CSVs are plot-ready; the same tables come out of the
command line via

    ysqht sweep delta 0:1.1:23 --theta 0.43633 --gamma1 0.1 --gamma2 0.8 \
        --with-sim --out left.csv
    ysqht sweep gamma2 0:1:21 --theta 0.43633 --delta-std 0.69813 \
        --gamma1 0.05,0.4 --with-sim --out right.csv
"""

import math
from pathlib import Path

import numpy as np

from ysqht import (
    AcquisitionConfig,
    NoiseParams,
    RunManifest,
    simulate_delta_sweep,
    simulate_gamma2_sweep,
    sweep_delta,
    sweep_gamma2,
    sweep_table,
    write_sweep_csv,
)

theta = 5.0 * math.pi / 36.0
noise = NoiseParams(2.0 * math.pi / 9.0)
out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

print("== left table: ratios versus noise spread ==")
grid = [float(d) for d in np.linspace(0.0, 1.1, 23)]
analytic = sweep_delta(theta, [0.1], 0.8, grid)
base = AcquisitionConfig(theta=theta, noise=NoiseParams(0.0), seed=1)
sim = simulate_delta_sweep(base, grid, [0.1], 0.8)
left = out_dir / "ratios_vs_noise.csv"
write_sweep_csv(
    left, *sweep_table(analytic, sim),
    RunManifest(kind="sweep", theta=theta, gamma1=(0.1,), gamma2=0.8,
                axis="delta", grid=tuple(grid), with_sim=True, seed=1,
                iterations=200, mean_rate=1e4, window_seconds=1.0,
                mode="stochastic"),
)
crossing = analytic.crossings[0]
print(f"wrote {left}")
print(f"q/p crosses 1 between {crossing.below:.2f} and {crossing.above:.2f} "
      f"rad (exactly at {crossing.refined:.4f})")

print("\n== right table: ratios versus gamma2 ==")
gamma_grid = [float(g) for g in np.linspace(0.0, 1.0, 21)]
analytic2 = sweep_gamma2(theta, noise, [0.05, 0.4], gamma_grid)
base2 = AcquisitionConfig(theta=theta, noise=noise, seed=1)
sim2 = simulate_gamma2_sweep(base2, gamma_grid, [0.05, 0.4])
right = out_dir / "ratios_vs_gamma2.csv"
write_sweep_csv(
    right, *sweep_table(analytic2, sim2),
    RunManifest(kind="sweep", theta=theta, delta_std=noise.delta_std,
                gamma1=(0.05, 0.4), axis="gamma2", grid=tuple(gamma_grid),
                with_sim=True, seed=1, iterations=200, mean_rate=1e4,
                window_seconds=1.0, mode="stochastic"),
)
print(f"wrote {right}")
crossing2 = analytic2.crossings[0]
print(f"gamma1 = 0.05: q/p crosses 1 between {crossing2.below:.2f} and "
      f"{crossing2.above:.2f} (exactly at {crossing2.refined:.4f})")
print(f"gamma1 = 0.4 : q/p stays below 1 up to gamma2 = 0.9 "
      f"({all(r.q_over_p[1] < 1 for r in analytic2.rows if r.x <= 0.9)})")
print("\nthe q2/p2 column is identical in every row: the noisy-probe ratio")
print("does not depend on the aggregation weights")
