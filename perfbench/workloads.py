"""The benchmark's three workloads: the CLI commands of one pass and the checks
made on their outputs.

Every workload is a closed loop with one client: ``ysqht.cli.main`` is called
once per command, back to back, in the benchmark's own process.  Parameters
are the paper's desk-scale ones (theta = 5pi/36, delta_std = 2pi/9), exactly
as in the README.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ysqht import logio, theory
from ysqht.qubit import NoiseParams
from ysqht.theory import ScenarioParams

THETA = 0.43633
DELTA_STD = 0.69813
ACQ_ITERATIONS = 100_000
FIG_ITERATIONS = 200
DENSE_POINTS = 10_000

#: A simulated estimate may sit this many standard errors from the closed form.
MAX_PULL = 5.0
#: Relative tolerance between CSV cells and the closed forms.
CELL_RTOL = 1e-12
CROSSING_TOL = getattr(theory, "CROSSING_TOL", 1e-6)


@dataclass
class Command:
    label: str
    argv: list[str]
    expected_exit: int = 0
    #: Called with the command's captured stdout; returns failure messages.
    check: Callable[[str], list[str]] = lambda stdout: []


@dataclass
class Workload:
    name: str
    #: Builds one pass's commands from the output directory, the seed and
    #: state shared by the passes of one run (such as a reference digest).
    commands: Callable[[Path, int, dict], list[Command]]
    #: Work items in one pass, and what an item is.
    items: int
    item_unit: str
    sizes: dict


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=CELL_RTOL, abs_tol=CELL_RTOL)


def _pull_failures(label: str, values, errors, expected) -> list[str]:
    """Estimates (scalars or arrays) whose error bar is unusable or which sit
    more than MAX_PULL standard errors from the closed form."""
    values, errors = np.atleast_1d(values), np.atleast_1d(errors)
    with np.errstate(divide="ignore", invalid="ignore"):
        pulls = (values - expected) / errors
    usable = np.isfinite(values) & np.isfinite(errors) & (errors > 0.0)
    bad = np.flatnonzero(~usable | ~(np.abs(pulls) <= MAX_PULL))
    if not bad.size:
        return []
    i = bad[0]
    where = f" row {i}" if values.size > 1 else ""
    return [f"{label}{where}: {values[i]} +- {errors[i]} is {pulls[i]:.2f} "
            f"sigma from the closed form ({bad.size} such)"]


# ---------------------------------------------------------------- acquisition

def _manifest(log: Path) -> dict:
    with log.open() as fh:
        return json.loads(fh.readline())


def _record_digest(log: Path) -> str:
    with log.open("rb") as fh:
        fh.readline()  # manifest: carries a timestamp
        return hashlib.sha256(fh.read()).hexdigest()


def _check_simulate(log: Path, state: dict) -> list[str]:
    manifest = _manifest(log)
    failures = []
    if manifest.get("iterations") != ACQ_ITERATIONS:
        failures.append(f"simulate: manifest iterations "
                        f"{manifest.get('iterations')} != {ACQ_ITERATIONS}")
    digest = _record_digest(log)
    reference = state.setdefault("record_digest", digest)
    if digest != reference:
        failures.append("simulate: record lines differ from an earlier run "
                        "with the same seed")
    return failures


def _check_analyze(log: Path, stdout: str, mode: str) -> list[str]:
    report = json.loads(stdout)
    manifest = _manifest(log)
    label = f"analyze {mode}"
    failures = []
    seen = report["q1_over_p1"]["n_samples"] + report["excluded"]
    if seen != manifest["iterations"]:
        failures.append(f"{label}: n_samples + excluded = {seen} != "
                        f"manifest iterations {manifest['iterations']}")
    o = theory.outcome_probabilities(ScenarioParams(
        manifest["theta"], NoiseParams(manifest["delta_std"]),
        report["gamma1"], report["gamma2"],
    ))
    expected = {
        "q1_over_p1": o.q1 / o.p1, "p2": o.p2, "q2": o.q2,
        "q2_over_p2": o.q2 / o.p2, "p": o.p, "q": o.q, "q_over_p": o.q / o.p,
    }
    for key, value in expected.items():
        est = report[key]
        failures += _pull_failures(f"{label} {key}", est["value"],
                                   est["std_error"], value)
    return failures


def acquisition_commands(out: Path, seed: int, state: dict) -> list[Command]:
    log = out / "acquisition.jsonl"
    analyze = ["analyze", str(log), "--gamma1", "0.05", "--gamma2", "0.8",
               "--json"]
    return [
        Command("simulate",
                ["simulate", "--theta", str(THETA), "--delta-std",
                 str(DELTA_STD), "--iterations", str(ACQ_ITERATIONS),
                 "--seed", str(seed), "--out", str(log)],
                check=lambda _: _check_simulate(log, state)),
        Command("analyze stochastic",
                analyze + ["--mode", "stochastic", "--seed", str(seed)],
                check=lambda s: _check_analyze(log, s, "stochastic")),
        Command("analyze expected", analyze + ["--mode", "expected"],
                check=lambda s: _check_analyze(log, s, "expected")),
    ]


# ------------------------------------------------------------- sweep tables

def _suffixes(gamma1_values: list[float]) -> list[str]:
    if len(gamma1_values) == 1:
        return [""]
    return [f"_gamma1_{g!r}" for g in gamma1_values]


def _expected_header(axis: str, gamma1_values: list[float],
                     with_sim: bool) -> list[str]:
    """The frozen sweep-table column names, spelled out independently of
    the library so that a renamed header function cannot hide a format
    change."""
    suffixes = _suffixes(gamma1_values)
    header = ["delta_std" if axis == "delta" else "gamma2", "q1_over_p1",
              "q2_over_p2"]
    header += [f"q_over_p{s}" for s in suffixes]
    header += [f"reversal{s}" for s in suffixes]
    if with_sim:
        header += ["sim_q2_over_p2", "sim_q2_over_p2_err"]
        for s in suffixes:
            header += [f"sim_q_over_p{s}", f"sim_q_over_p_err{s}"]
    return header


def _header_failures(path: Path, axis: str, header: list[str],
                     gamma1_values: list[float], with_sim: bool) -> list[str]:
    failures = []
    expected = _expected_header(axis, gamma1_values, with_sim)
    library = getattr(logio, f"{axis}_sweep_header", None)
    if library is not None and library(gamma1_values, with_sim) != expected:
        failures.append(f"{path.name}: {axis}_sweep_header disagrees with "
                        "the frozen column names")
    if header != expected:
        failures.append(f"{path.name}: header {header} != {expected}")
    return failures


def _crossing_failures(path: Path, grid: np.ndarray, ratio: np.ndarray,
                       threshold: float | None, label: str) -> list[str]:
    """The grid brackets where q/p crosses 1 must hold the closed-form
    threshold, within CROSSING_TOL, and be the only bracket."""
    below = ratio - 1.0 <= 0.0
    brackets = np.flatnonzero(below[:-1] != below[1:])
    inside = threshold is not None and grid[0] <= threshold <= grid[-1]
    if not inside:
        if brackets.size:
            return [f"{path.name} {label}: q/p crosses 1 on the grid, but "
                    f"the threshold {threshold} lies outside it"]
        return []
    if brackets.size != 1:
        return [f"{path.name} {label}: {brackets.size} crossings of q/p = 1, "
                f"expected one at {threshold}"]
    lo, hi = grid[brackets[0]], grid[brackets[0] + 1]
    if not lo - CROSSING_TOL <= threshold <= hi + CROSSING_TOL:
        return [f"{path.name} {label}: crossing bracket [{lo}, {hi}] misses "
                f"the threshold {threshold}"]
    return []


def _reference(axis: str, grid: np.ndarray, gamma1: float,
               gamma2: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Library closed forms on a sweep grid, one point at a time: columns
    q1/p1, q2/p2 and q/p, and the reversal flags."""
    noise = NoiseParams(DELTA_STD)
    expected = np.empty((grid.size, 3))
    reversal = np.empty(grid.size, dtype=bool)
    for i, x in enumerate(grid.tolist()):
        if axis == "delta":
            params = ScenarioParams(THETA, NoiseParams(x), gamma1, gamma2)
        else:
            params = ScenarioParams(THETA, noise, gamma1, x)
        o = theory.outcome_probabilities(params)
        expected[i] = (o.q1 / o.p1, o.q2 / o.p2, o.q / o.p)
        # ys_reversal's strict predicate, on the same probabilities.
        reversal[i] = o.p1 > o.q1 and o.p2 > o.q2 and o.q > o.p
    return expected, reversal


def _check_sweep(path: Path, axis: str, lo: float, hi: float, points: int,
                 gamma1_values: list[float], with_sim: bool, state: dict,
                 gamma2: float | None = None) -> list[str]:
    """Header, grid, analytic cells, crossings and (with simulation) pulls of
    a sweep table written by ``ysqht sweep``.  The library's closed forms on
    the grid are computed once per run and kept in ``state``."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    failures = _header_failures(path, axis, header, gamma1_values, with_sim)
    if failures:
        return failures
    if not Path(str(path) + ".manifest.json").is_file():
        failures.append(f"{path.name}: companion manifest is missing")
    if len(body) != points or any(len(r) != len(header) for r in body):
        return failures + [f"{path.name}: expected {points} rows of "
                           f"{len(header)} cells"]
    cells = dict(zip(header, zip(*body)))

    def column(name: str) -> np.ndarray:
        return np.array(cells[name], dtype=float)

    grid = column(header[0])
    if not np.allclose(grid, np.linspace(lo, hi, points), rtol=CELL_RTOL,
                       atol=CELL_RTOL):
        failures.append(f"{path.name}: grid column differs from the range")

    noise = NoiseParams(DELTA_STD)
    for k, (g1, s) in enumerate(zip(gamma1_values, _suffixes(gamma1_values))):
        key = (axis, lo, hi, points, g1, gamma2)
        if key not in state:
            state[key] = _reference(axis, np.linspace(lo, hi, points), g1,
                                    gamma2)
        expected, reversal = state[key]
        shared = [("q1_over_p1", 0), ("q2_over_p2", 1)] if k == 0 else []
        for name, j in shared + [(f"q_over_p{s}", 2)]:
            bad = np.flatnonzero(~np.isclose(column(name), expected[:, j],
                                             rtol=CELL_RTOL, atol=CELL_RTOL))
            if bad.size:
                failures.append(f"{path.name} {name}: {bad.size} cells differ "
                                f"from outcome_probabilities, first at row "
                                f"{bad[0]}")
        flags = np.array(cells[f"reversal{s}"])
        if not np.array_equal(flags, np.where(reversal, "true", "false")):
            failures.append(f"{path.name} reversal{s}: differs from the "
                            "reversal predicate")
        if with_sim:
            failures += _pull_failures(
                f"{path.name} sim_q_over_p{s}", column(f"sim_q_over_p{s}"),
                column(f"sim_q_over_p_err{s}"), expected[:, 2])
            if k == 0:
                failures += _pull_failures(
                    f"{path.name} sim_q2_over_p2", column("sim_q2_over_p2"),
                    column("sim_q2_over_p2_err"), expected[:, 1])
        if axis == "delta":
            thr = theory.delta_threshold(g1, gamma2, THETA)
            threshold = thr.delta_std if thr.reachable else None
        else:
            threshold = theory.gamma2_threshold(g1, THETA, noise).value
        failures += _crossing_failures(path, grid, column(f"q_over_p{s}"),
                                       threshold, f"gamma1={g1}")
    return failures


def _sweep_commands(out: Path, seed: int, state: dict, points_delta: int,
                    points_gamma2: int, gamma1_right: list[float],
                    with_sim: bool, tag: str) -> list[Command]:
    left, right = out / f"{tag}_noise.csv", out / f"{tag}_gamma2.csv"
    sim = ["--with-sim"] if with_sim else []
    return [
        Command("sweep delta",
                ["sweep", "delta", f"0:1.1:{points_delta}", "--theta",
                 str(THETA), "--gamma1", "0.1", "--gamma2", "0.8", *sim,
                 "--seed", str(seed), "--out", str(left)],
                check=lambda _: _check_sweep(left, "delta", 0.0, 1.1,
                                             points_delta, [0.1], with_sim,
                                             state, gamma2=0.8)),
        Command("sweep gamma2",
                ["sweep", "gamma2", f"0:1:{points_gamma2}", "--theta",
                 str(THETA), "--delta-std", str(DELTA_STD), "--gamma1",
                 ",".join(str(g) for g in gamma1_right), *sim,
                 "--seed", str(seed), "--out", str(right)],
                check=lambda _: _check_sweep(right, "gamma2", 0.0, 1.0,
                                             points_gamma2, gamma1_right,
                                             with_sim, state)),
    ]


# ------------------------------------------------------------------ figures

def _check_theory(stdout: str, gamma1: float, gamma2: float,
                  delta_std: float | None, published: float) -> list[str]:
    """A threshold query matches the library and rounds to the published
    value: the noise threshold without ``delta_std``, the weight threshold
    (and the six probabilities) with it."""
    report = json.loads(stdout)
    failures = []
    if delta_std is None:
        label = "theory delta_threshold"
        got = report["delta_threshold"]["delta_std"]
        ref = theory.delta_threshold(gamma1, gamma2, THETA).delta_std
    else:
        label = "theory gamma2_threshold"
        got = report["gamma2_threshold"]["value"]
        ref = theory.gamma2_threshold(gamma1, THETA,
                                      NoiseParams(delta_std)).value
        o = theory.outcome_probabilities(
            ScenarioParams(THETA, NoiseParams(delta_std), gamma1, gamma2))
        for name in ("p1", "q1", "p2", "q2", "p", "q"):
            if not _close(report["probabilities"][name], getattr(o, name)):
                failures.append(f"{label}: {name} "
                                f"{report['probabilities'][name]} != "
                                f"{getattr(o, name)!r}")
    if not _close(got, ref):
        failures.append(f"{label}: {got} != library value {ref!r}")
    if round(got, 3) != published:
        failures.append(f"{label}: {got} does not round to the published "
                        f"{published}")
    return failures


def figures_commands(out: Path, seed: int, state: dict) -> list[Command]:
    theory_args = ["theory", "--theta", str(THETA)]
    return _sweep_commands(out, seed, state, 23, 21, [0.05, 0.4], True,
                           "fig") + [
        Command("theory noise checkpoint",
                theory_args + ["--gamma1", "0.1", "--gamma2", "0.8", "--json"],
                check=lambda s: _check_theory(s, 0.1, 0.8, None, 0.558)),
        Command("theory weight checkpoint",
                theory_args + ["--delta-std", str(DELTA_STD), "--gamma1",
                               "0.05", "--gamma2", "0.8", "--json"],
                check=lambda s: _check_theory(s, 0.05, 0.8, DELTA_STD,
                                              0.414)),
        Command("theory check-reversal",
                theory_args + ["--delta-std", "0.7", "--gamma1", "0.1",
                               "--gamma2", "0.8", "--check-reversal"],
                expected_exit=3),
    ]


def dense_commands(out: Path, seed: int, state: dict) -> list[Command]:
    return _sweep_commands(out, seed, state, DENSE_POINTS, DENSE_POINTS,
                           [0.05, 0.2, 0.4], False, "dense")


ACQUISITION = Workload(
    "acquisition", acquisition_commands,
    items=3 * ACQ_ITERATIONS, item_unit="count-log iterations simulated, "
    "then analysed in two modes",
    sizes={"iterations": ACQ_ITERATIONS, "analyze_modes": 2},
)
FIGURES = Workload(
    "figures", figures_commands,
    items=(23 + 21) * FIG_ITERATIONS, item_unit="simulated iterations",
    sizes={"delta_points": 23, "gamma2_points": 21, "gamma1_right": 2,
           "iterations_per_point": FIG_ITERATIONS, "theory_queries": 3},
)
DENSE = Workload(
    "dense-analytic", dense_commands,
    items=DENSE_POINTS * (1 + 3), item_unit="q/p cells computed and written",
    sizes={"delta_points": DENSE_POINTS, "gamma2_points": DENSE_POINTS,
           "gamma1_right": 3},
)

WORKLOADS = {w.name: w for w in (ACQUISITION, FIGURES, DENSE)}
