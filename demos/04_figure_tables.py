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
    delta_threshold,
    gamma2_threshold,
    simulate_delta_sweep,
    simulate_gamma2_sweep,
    sweep_delta,
    sweep_gamma2,
    sweep_table,
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
lo, hi = first_sign_change(analytic)
exact = delta_threshold(0.1, 0.8, theta).delta_std
print(f"wrote {left}")
print(f"q/p crosses 1 between {lo:.2f} and {hi:.2f} "
      f"rad (exactly at {exact:.4f})")

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
lo, hi = first_sign_change(analytic2)
exact = gamma2_threshold(0.05, theta, noise).value
print(f"gamma1 = 0.05: q/p crosses 1 between {lo:.2f} and "
      f"{hi:.2f} (exactly at {exact:.4f})")
stays_below = bool(np.all(analytic2.q_over_p[1][analytic2.x <= 0.9] < 1))
print(f"gamma1 = 0.4 : q/p stays below 1 up to gamma2 = 0.9 ({stays_below})")
print("\nthe q2/p2 column is identical in every row: the noisy-probe ratio")
print("does not depend on the aggregation weights")
