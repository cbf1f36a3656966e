"""Acceptance suite: the checkpoints this artifact must reproduce.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Criteria 1-2 pin the two published
threshold values, 3 cross-checks the dephasing closed form against direct
quadrature, 4-5 reproduce both figure panels at desk scale with a fixed
seed, 6 checks the reversal predicate against both threshold formulations
on a random grid, 7 locks the determinism and round-trip contracts of the
CLI, and 8 bounds the small-angle expansion error.
"""

import json
import math

import numpy as np

from ysqht import (
    AcquisitionConfig,
    Analyzer,
    NoiseParams,
    ScenarioParams,
    aggregate,
    aggregation_seed,
    born_probability,
    delta_threshold,
    dephase,
    dephase_oracle,
    gamma2_threshold,
    outcome_probabilities,
    pure_state,
    run_acquisition,
    simulate_sweep,
    small_angle_threshold,
    sweep_delta,
    sweep_gamma2,
    ys_reversal,
)
from ysqht.cli import main

THETA_B = 5.0 * math.pi / 36.0
DELTA_FIG2 = 2.0 * math.pi / 9.0

DELTA_STD_THRESHOLD = 0.5576022433145783   # rounds to the published 0.558
GAMMA2_THRESHOLD = 0.41447164291252375     # rounds to the published 0.414

#: Fixed seed of the desk-scale figure reproductions (criteria 4 and 5).
FIGURE_SEED = 1


def report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion} {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_noise_threshold_checkpoint():
    thr = delta_threshold(0.1, 0.8, THETA_B)
    ok = thr.reachable and abs(thr.delta_std - 0.5576) <= 1e-3
    report(1, "noise threshold 0.558 rad", ok,
           f"delta_std_threshold={thr.delta_std:.6f}")


def test_criterion_2_weight_threshold_checkpoint():
    thr = gamma2_threshold(0.05, THETA_B, NoiseParams(DELTA_FIG2))
    ok = thr.reachable and abs(thr.value - 0.4145) <= 1e-3
    report(2, "weight threshold 0.414", ok, f"gamma2_threshold={thr.value:.6f}")


def test_criterion_3_closed_form_vs_quadrature():
    clean = pure_state(0.0)
    worst = 0.0
    for delta_std in np.linspace(1.2 / 20.0, 1.2, 20):
        noise = NoiseParams(float(delta_std))
        contracted = dephase(clean, noise)
        for theta in np.linspace(0.0, math.pi / 4.0, 20):
            analyzer = Analyzer(float(theta))
            closed = born_probability(contracted, analyzer)
            quad = dephase_oracle(clean, noise, analyzer)
            worst = max(worst, abs(closed - quad))
    report(3, "closed form vs quadrature (20x20 grid)", worst <= 1e-8,
           f"max deviation {worst:.2e}")


def test_criterion_4_noise_sweep_reproduction():
    grid = [float(d) for d in np.linspace(0.0, 1.1, 23)]
    analytic = sweep_delta(THETA_B, [0.1], 0.8, grid)
    sim = simulate_sweep(analytic, FIGURE_SEED, iterations=200,
                         mean_rate=1e4, mode="stochastic")

    pulls = []
    for i, arow in enumerate(analytic.rows):
        pulls.append(
            abs(sim.q2_over_p2[i] - arow.q2_over_p2) / sim.q2_over_p2_err[i]
        )
        pulls.append(
            abs(sim.q_over_p[0, i] - arow.q_over_p[0])
            / sim.q_over_p_err[0, i]
        )
    pulls = np.array(pulls)
    within_3 = bool((pulls <= 3.0).all())
    coverage_2 = float((pulls <= 2.0).mean())

    flips = [
        (analytic.rows[i].x, analytic.rows[i + 1].x)
        for i in range(len(grid) - 1)
        if analytic.rows[i].reversal != analytic.rows[i + 1].reversal
    ]
    flip_ok = len(flips) == 1 and (
        flips[0][0] <= DELTA_STD_THRESHOLD <= flips[0][1]
    )
    ok = within_3 and coverage_2 >= 0.95 and flip_ok
    report(4, "noise-sweep panel at desk scale", ok,
           f"max pull {pulls.max():.2f} sigma, {coverage_2:.1%} within 2 "
           f"sigma, flag flips in {flips}")


def test_criterion_5_weight_sweep_reproduction():
    grid = [float(g) for g in np.linspace(0.0, 1.0, 21)]
    analytic = sweep_gamma2(THETA_B, NoiseParams(DELTA_FIG2), [0.05, 0.4], grid)
    sim = simulate_sweep(analytic, FIGURE_SEED, iterations=200,
                         mean_rate=1e4, mode="stochastic")

    constant = analytic.q2_over_p2[0]
    noisy_column_ok = all(
        abs(value - constant) <= 3.0 * error
        for value, error in zip(sim.q2_over_p2, sim.q2_over_p2_err)
    )
    agg_ok = bool(np.all(
        np.abs(sim.q_over_p - analytic.q_over_p) <= 3.0 * sim.q_over_p_err
    ))
    # The first grid interval on which q/p - 1 changes sign for gamma1 0.05.
    below = analytic.q_over_p[0] <= 1.0
    change = np.flatnonzero(below[1:] != below[:-1])
    bracket = (
        tuple(analytic.x[change[0]:change[0] + 2].tolist())
        if change.size else None
    )
    crossing_ok = (
        bracket is not None and bracket[0] <= GAMMA2_THRESHOLD <= bracket[1]
    )
    below_one_ok = bool(np.all(analytic.q_over_p[1][analytic.x <= 0.9] < 1.0))
    ok = noisy_column_ok and agg_ok and crossing_ok and below_one_ok
    report(
        5, "weight-sweep panel at desk scale", ok,
        f"q2/p2 constant within errors: {noisy_column_ok}, "
        f"q/p within 3 sigma: {agg_ok}, crossing bracket {bracket} "
        f"contains 0.414: {crossing_ok}, "
        f"gamma1=0.4 stays below 1 up to 0.9: {below_one_ok}",
    )


def test_criterion_6_reversal_predicate_equivalence():
    rng = np.random.default_rng(20260810)
    equivalent = True
    partitions_favor_a = True
    for _ in range(1000):
        theta = float(rng.uniform(1e-3, math.pi / 4.0 - 1e-9))
        noise = NoiseParams(float(rng.uniform(1e-3, 1.2)))
        gamma1 = float(rng.uniform(0.0, 1.0))
        gamma2 = float(rng.uniform(0.0, 1.0))
        params = ScenarioParams(theta, noise, gamma1, gamma2)
        verdict = ys_reversal(params)

        weight_form = gamma2 > gamma2_threshold(gamma1, theta, noise).value
        dth = delta_threshold(gamma1, gamma2, theta)
        noise_form = dth.reachable and noise.smearing < dth.smearing
        equivalent &= verdict.reversal == weight_form == noise_form
        partitions_favor_a &= verdict.clean_favors_a and verdict.noisy_favors_a

    # the partition ordering also holds at the edge theta = pi/4
    for _ in range(100):
        params = ScenarioParams(
            math.pi / 4.0,
            NoiseParams(float(rng.uniform(0.0, 2.0))),
            0.5,
            0.5,
        )
        o = outcome_probabilities(params)
        partitions_favor_a &= o.p1 >= o.q1 and o.p2 >= o.q2

    ok = equivalent and partitions_favor_a
    report(6, "reversal predicate equals both thresholds (1000 points)", ok,
           f"equivalence: {equivalent}, partitions favor A: "
           f"{partitions_favor_a}")


def test_criterion_7_determinism_and_round_trip(tmp_path, capsys):
    argv = [
        "simulate", "--theta", repr(THETA_B), "--delta-std", repr(DELTA_FIG2),
        "--seed", "7",
    ]
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    identical = (
        first.read_bytes().split(b"\n")[1:]
        == second.read_bytes().split(b"\n")[1:]
    )

    capsys.readouterr()
    code = main([
        "analyze", str(first), "--gamma1", "0.1", "--gamma2", "0.8",
        "--mode", "stochastic", "--seed", "13", "--json",
    ])
    reported = json.loads(capsys.readouterr().out)

    config = AcquisitionConfig(
        theta=THETA_B, noise=NoiseParams(DELTA_FIG2), seed=7
    )
    counts = run_acquisition(config)
    agg = aggregate(counts, 0.1, 0.8,
                    np.random.default_rng(aggregation_seed(13)))
    round_trip = (
        code == 0
        and reported["q1_over_p1"]["value"] == agg.q1_over_p1.value
        and reported["p2"]["value"] == agg.p2.value
        and reported["q2"]["value"] == agg.q2.value
        and reported["q2_over_p2"]["value"] == agg.q2_over_p2.value
        and reported["q2_over_p2"]["std_error"] == agg.q2_over_p2.std_error
        and reported["q_over_p"]["value"] == agg.q_over_p.value
        and reported["q_over_p"]["std_error"] == agg.q_over_p.std_error
    )
    ok = identical and round_trip
    report(7, "seeded determinism and exact analyze round trip", ok,
           f"byte-identical records: {identical}, exact round trip: "
           f"{round_trip}")


def test_criterion_8_small_angle_expansion():
    exact_01 = delta_threshold(0.1, 0.8, 0.1).smearing
    approx_01 = small_angle_threshold(0.1, 0.8, 0.1)
    benchmark_ok = abs(exact_01 - approx_01) <= 3e-4

    # quartic shrinkage: the error scaled by theta^-4 stays flat
    scaled = []
    for theta in (0.05, 0.1, 0.2):
        exact = delta_threshold(0.1, 0.8, theta).smearing
        approx = small_angle_threshold(0.1, 0.8, theta)
        scaled.append(abs(exact - approx) / theta**4)
    center = scaled[1]
    quartic_ok = all(abs(s - center) <= 0.15 * center for s in scaled)

    ok = benchmark_ok and quartic_ok
    report(8, "small-angle threshold expansion", ok,
           f"|error| at 0.1 rad = {abs(exact_01 - approx_01):.2e}, "
           f"error/theta^4 = {[f'{s:.3f}' for s in scaled]}")
