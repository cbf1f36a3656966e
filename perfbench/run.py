"""Benchmark of the ysqht command line.

    python3 perfbench/run.py --workload acquisition --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  One workload runs per process: passes of
its CLI commands, called through ``ysqht.cli.main`` back to back, repeat until
they have taken ``--seconds`` seconds (at least three passes).  Every output
is checked after its pass, outside the timed commands, and the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a separate traced run.
``--workload all`` runs every workload, each in its own process, and prints a
table.  Scratch files, span dumps and full results go under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
PYCACHE = BUILD / "pycache"

#: Fresh interpreters timed for ``setup_s``, after one warm-up, and runs of
#: ``-X importtime`` for the ``import.*`` metrics.
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
MIN_PASSES = 3

#: Pass times are reported by their 90th percentile.  On a shared machine
#: the speed of all code drifts by a third and more over minutes, between a
#: slow state that recurs at much the same speed and faster states whose
#: share of a run varies, so the median pass time of one run spreads across
#: runs well beyond the regression bound while the 90th percentile stays
#: within it.  The median is printed and kept in the result file.

#: ``import.*`` metric -> module.  numpy and scipy report the time spent
#: importing the package wherever it was first imported, submodules included
#: (numpy modules that only scipy pulls in count as scipy's); ysqht modules
#: report self time.  scipy is imported only for ``scipy.integrate``.
IMPORT_METRICS = {
    "import.numpy_s": "numpy",
    "import.scipy_integrate_s": "scipy",
    "import.ysqht.qubit_s": "ysqht.qubit",
    "import.ysqht.counting_s": "ysqht.counting",
    "import.ysqht.theory_s": "ysqht.theory",
    "import.ysqht.logio_s": "ysqht.logio",
    "import.ysqht.cli_s": "ysqht.cli",
}
THIRD_PARTY = ("numpy", "scipy")


def _interpreter_env() -> dict[str, str]:
    """Fresh interpreters import the checkout's sources and keep their
    bytecode cache under BUILD, written even where the caller's environment
    turns bytecode writing off, so that set-up is timed with a warm cache."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    path = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return dict(env, PYTHONPATH=path, PYTHONPYCACHEPREFIX=str(PYCACHE))


def _fresh_import(*flags: str) -> tuple[float, str]:
    """Wall time of a fresh interpreter that imports ``ysqht.cli``, and its
    standard error."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *flags, "-c", "import ysqht.cli"],
        env=_interpreter_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"fresh import failed: {done.stderr.strip()}")
    return elapsed, done.stderr


def measure_setup() -> float:
    _fresh_import()  # writes the bytecode cache
    return statistics.median(_fresh_import()[0] for _ in range(SETUP_SAMPLES))


def import_seconds(report: str) -> dict[str, float]:
    """Seconds per IMPORT_METRICS module from one ``-X importtime`` report.

    A third-party package is charged the cumulative time of each of its
    outermost lines, those not nested in another third-party import."""
    seconds = dict.fromkeys(IMPORT_METRICS.values(), 0.0)
    waiting: dict[int, list[tuple[str, int]]] = {}

    def charge(children: list[tuple[str, int]], importer: str) -> None:
        for child, cumulative_us in children:
            package = child.split(".")[0]
            if package in THIRD_PARTY and importer not in THIRD_PARTY:
                seconds[package] += cumulative_us / 1e6

    for line in report.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].strip()
        package = name.split(".")[0]
        depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        # A line's children are printed before it, one level deeper.
        charge(waiting.pop(depth + 1, []), package)
        waiting.setdefault(depth, []).append((name, int(parts[1])))
        if name in seconds and package not in THIRD_PARTY:
            seconds[name] = int(parts[0]) / 1e6
    charge(waiting.pop(0, []), "")
    return seconds


def measure_imports() -> dict[str, float]:
    _fresh_import()
    runs = [import_seconds(_fresh_import("-X", "importtime")[1])
            for _ in range(IMPORTTIME_SAMPLES)]
    return {metric: statistics.median(run[module] for run in runs)
            for metric, module in IMPORT_METRICS.items()}


def run_pass(workload, out: Path, seed: int, state: dict, cli,
             failures: list[str], context=contextlib.nullcontext()
             ) -> tuple[float, int, int]:
    """Run one pass of the workload's commands inside ``context``, then
    check their outputs outside it.

    Returns the wall time of the commands (checks excluded), the number of
    commands attempted and the number that failed: a wrong exit status, an
    exception or a failed check on its output each fail the command."""
    commands = workload.commands(out, seed, state)
    results = []
    with context:
        start = time.perf_counter()
        for command in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli.main(command.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash fails the command, not the run
                code = f"{type(exc).__name__}: {exc}"
            results.append((command, code, stdout.getvalue(),
                            stderr.getvalue()))
        wall = time.perf_counter() - start

    failed = 0
    for command, code, stdout, stderr in results:
        if code != command.expected_exit:
            problems = [f"{command.label}: exit {code!r}, expected "
                        f"{command.expected_exit} ({stderr.strip()[-200:]})"]
        else:
            try:
                problems = command.check(stdout)
            except Exception as exc:  # an unreadable output fails its check
                problems = [f"{command.label}: check raised "
                            f"{type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            failures.extend(problems)
    return wall, len(commands), failed


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(workload, seed: int, why: str) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "workload": workload.name,
        "why": why,
        "seed": seed,
        "sizes": workload.sizes,
        "items_per_pass": workload.items,
        "item": workload.item_unit,
    }


def run_workload(name: str, why: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    sys.pycache_prefix = str(PYCACHE)
    sys.path.insert(0, str(SRC))
    import ysqht.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported ysqht from {cli.__file__}, not {SRC}")
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    state: dict = {}
    failures: list[str] = []
    attempted = failed = 0
    BUILD.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BUILD))
    result: dict = {"provenance": provenance(workload, seed, why)}
    try:
        if not trace:
            setup = measure_setup()
            walls: list[float] = []
            while len(walls) < MIN_PASSES or sum(walls) < seconds:
                wall, n, bad = run_pass(workload, out, seed, state, cli,
                                        failures)
                walls.append(wall)
                attempted, failed = attempted + n, failed + bad
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": setup,
                "pass_p90_s": statistics.quantiles(
                    walls, n=10, method="inclusive")[-1],
                "peak_rss_mb": rss_kb / 1024.0,
            }
            median = statistics.median(walls)
            result["pass_median"] = {"pass_s": median,
                                     "items_per_s": workload.items / median}
            result["pass_walls_s"] = walls
        else:
            layers = measure_imports()
            tracer = tracing.Tracer()
            traced: dict[int, float] = {}
            untraced: list[float] = []
            while (len(traced) < MIN_PASSES
                   or sum(untraced) + sum(traced.values()) < seconds):
                wall, n, bad = run_pass(workload, out, seed, state, cli,
                                        failures)
                untraced.append(wall)
                attempted, failed = attempted + n, failed + bad
                pass_id = len(traced)
                wall, n, bad = run_pass(workload, out, seed, state, cli,
                                        failures,
                                        tracer.tracing_pass(pass_id))
                traced[pass_id] = wall
                attempted, failed = attempted + n, failed + bad
            peaks: dict[str, float] = {}
            _, n, bad = run_pass(workload, out, seed, state, cli, failures,
                                 tracing.alloc_pass(peaks))
            attempted, failed = attempted + n, failed + bad
            metrics = layers | tracing.layer_metrics(tracer, traced,
                                                     untraced, peaks)
            spans = BUILD / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans)
            result["spans"] = str(spans.relative_to(ROOT))
            result["pass_walls_s"] = {"traced": list(traced.values()),
                                      "untraced": untraced}
    finally:
        shutil.rmtree(out, ignore_errors=True)

    result.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        failures=failures[:50],
        metrics=metrics,
    )
    return result


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in its own process; prints a table and one merged
    result whose metric names are prefixed with the workload's."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            print(f"workload {w['name']} did not finish", file=sys.stderr)
            return 1
        one = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        print(f"{w['name']}: attempted {one['attempted']} failed "
              f"{one['failed']}")
        for key, m in one["metrics"].items():
            print(f"  {key:<40} {m['value']:.6g} {m['unit']}")
            merged["metrics"][f"{w['name']}/{key}"] = m
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workload", required=True, choices=[
        *(w["name"] for w in spec["workloads"]), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "ysqht" / "cli.py").is_file():
        print(f"error: no ysqht sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    why = next(w["why"] for w in spec["workloads"]
               if w["name"] == args.workload)
    result = run_workload(args.workload, why, args.seed, args.seconds,
                          bool(args.trace))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"measured {sorted(result['metrics'])}, "
                           f"BENCHMARK.json lists {sorted(units)}")
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": unit} for name, unit in units.items()}

    BUILD.mkdir(parents=True, exist_ok=True)
    (BUILD / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1))
    walls = result["pass_walls_s"]
    passes = len(walls) if not args.trace else len(walls["traced"])
    print(f"{args.workload} seed {args.seed}: {passes} "
          f"{'traced ' if args.trace else ''}passes, {result['attempted']} "
          f"commands, {result['failed']} failed "
          f"(failed_frac {result['failed_frac']:g})")
    for failure in result["failures"]:
        print(f"  FAIL {failure}")
    for key, m in result["metrics"].items():
        print(f"  {key:<40} {m['value']:.6g} {m['unit']}")
    if "pass_median" in result:
        print("  median pass (not gated): " + ", ".join(
            f"{k} {v:.6g}" for k, v in result["pass_median"].items()))
    print("provenance " + json.dumps(result["provenance"]))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
