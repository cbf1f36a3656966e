"""Command-line interface: analytic reports, acquisition simulation, count-log
analysis, and sweep tables.

Exit codes: 0 ok (also when the reader of the output closes it early), 2 usage
error, 3 reversal present (with --check-reversal), 4 io error, 5 corrupt log
line, 6 incompatible manifest version, 7 no usable iterations (no
iteration of a count log or of a simulated grid point had n1p > 0, or a
derived ratio had a vanishing summed denominator).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import asdict
from typing import Any, NoReturn, Sequence

import numpy as np

from .counting import (
    AGGREGATION_MODES,
    AcquisitionConfig,
    EstimationError,
    RatioEstimate,
    _require_seed,
    aggregate,
    estimate_ratios,
    run_acquisition,
    simulate_sweep,
)
from .logio import (
    LogFormatError,
    ManifestVersionError,
    read_count_log,
    write_count_log,
    write_sweep_csv,
)
from .qubit import NoiseParams
from .theory import (
    ScenarioParams,
    delta_threshold,
    gamma2_threshold,
    outcome_probabilities,
    reversal_pairs_exist,
    sweep_delta,
    sweep_gamma2,
    ys_reversal,
)
from .version import __version__

#: Built-in seed used when neither --seed nor YSQHT_SEED is given.
DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REVERSAL = 3
EXIT_IO = 4
EXIT_CORRUPT = 5
EXIT_VERSION = 6
EXIT_NO_USABLE = 7


def _resolve_seed(value: int | None) -> int:
    if value is None:
        env = os.environ.get("YSQHT_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            value = int(env)
        except ValueError as err:
            raise ValueError(f"YSQHT_SEED must be an integer, got {env!r}") from err
    return _require_seed(value)


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _gamma_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from err
    return values


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"range must be MIN:MAX:POINTS, got {text!r}"
        )
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {err}") from err
    if points < 2:
        raise argparse.ArgumentTypeError("range needs at least 2 points")
    if not lo < hi:
        raise argparse.ArgumentTypeError("range needs MIN < MAX")
    return lo, hi, points


def _threshold(query, *args) -> dict[str, Any]:
    """A threshold's fields, or its error where its formulas do not apply."""
    try:
        return asdict(query(*args))
    except ValueError as err:
        return {"error": str(err)}


def cmd_theory(args: argparse.Namespace) -> int:
    if args.check_reversal and args.delta_std is None:
        raise ValueError("--check-reversal needs --delta-std")
    theta = _angle(args.theta, args.degrees)
    noise = (None if args.delta_std is None
             else NoiseParams(_angle(args.delta_std, args.degrees)))
    # Probabilities of the clean probe need only theta.
    params = ScenarioParams(theta, noise or NoiseParams(0.0), args.gamma1,
                            args.gamma2)
    o = asdict(outcome_probabilities(params))

    report: dict[str, Any] = {
        "theta": theta,
        "delta_std": noise.delta_std if noise else None,
        "smearing": noise.smearing if noise else None,
        "gamma1": args.gamma1,
        "gamma2": args.gamma2,
        "probabilities": {"p1": o["p1"], "q1": o["q1"]},
        "verdict": None,
        "gamma2_threshold": None,
        "pairs_feasible": None,
    }
    if noise is not None:
        verdict = ys_reversal(params)
        report["probabilities"] = o
        report["ratios"] = {
            f"{q}_over_{p}": o[q] / o[p]
            for p, q in (("p1", "q1"), ("p2", "q2"), ("p", "q"))
        }
        report["verdict"] = {**asdict(verdict), "reversal": verdict.reversal}
        report["gamma2_threshold"] = _threshold(gamma2_threshold, args.gamma1,
                                                theta, noise)
        try:
            report["pairs_feasible"] = reversal_pairs_exist(noise, theta)
        except ValueError:
            pass

    dth = _threshold(delta_threshold, args.gamma1, args.gamma2, theta)
    if dth.get("smearing") == math.inf:
        # The formula diverges, and standard JSON has no Infinity.
        dth["smearing"] = None
    report["delta_threshold"] = dth

    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        _print_theory_report(report)
    if args.check_reversal and report["verdict"]["reversal"]:
        return EXIT_REVERSAL
    return EXIT_OK


def _print_theory_report(report: dict[str, Any]) -> None:
    def show(label: str, value: Any) -> None:
        print(f"{label:<22} {value}")

    show("theta (rad)", f"{report['theta']:.6f}")
    if report["delta_std"] is not None:
        show("delta_std (rad)", f"{report['delta_std']:.6f}")
        show("smearing", f"{report['smearing']:.6f}")
    show("gamma1", report["gamma1"])
    show("gamma2", report["gamma2"])
    for name, value in report["probabilities"].items():
        show(name, f"{value:.6f}")
    for name, value in report.get("ratios", {}).items():
        show(name, f"{value:.6f}")

    thr = report["gamma2_threshold"]
    if thr is None:
        show("gamma2_threshold", "needs --delta-std")
    elif "error" in thr:
        show("gamma2_threshold", f"unavailable ({thr['error']})")
    else:
        tail = "reachable" if thr["reachable"] else "unreachable"
        show("gamma2_threshold", f"{thr['value']:.6f} ({tail})")

    dth = report["delta_threshold"]
    if "error" in dth:
        show("delta_threshold", f"unavailable ({dth['error']})")
    elif not dth["reachable"]:
        show("delta_threshold", "unreachable (no noise level reverses)")
    else:
        show(
            "delta_threshold",
            f"smearing {dth['smearing']:.6f} -> delta_std "
            f"{dth['delta_std']:.6f} rad",
        )

    if report["pairs_feasible"] is not None:
        show(
            "pairs_feasible",
            f"{str(report['pairs_feasible']).lower()} "
            "(smearing < 2 cos 2theta)",
        )
    verdict = report["verdict"]
    if verdict is not None:
        show("reversal", str(verdict["reversal"]).lower())


def cmd_simulate(args: argparse.Namespace) -> int:
    config = AcquisitionConfig(
        theta=_angle(args.theta, args.degrees),
        noise=NoiseParams(_angle(args.delta_std, args.degrees)),
        seed=_resolve_seed(args.seed), iterations=args.iterations,
        mean_rate=args.rate, window_seconds=args.window,
    )
    counts = run_acquisition(config)
    write_count_log(args.out, config, counts)
    print(f"wrote {len(counts)} records to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    manifest, counts = read_count_log(args.log)
    summary = estimate_ratios(counts)
    # Only stochastic mixing draws, so only it needs the seed.
    rng = (np.random.default_rng(_resolve_seed(args.seed))
           if args.mode == "stochastic" else None)
    agg = aggregate(counts, args.gamma1, args.gamma2, rng, args.mode)
    # The seven estimates, q1_over_p1 to q_over_p, in the records' order.
    estimates = {
        name: value for result in (summary, agg)
        for name, value in vars(result).items()
        if isinstance(value, RatioEstimate)
    }

    if args.json:
        print(json.dumps({
            "log_seed": manifest.seed,
            "gamma1": args.gamma1,
            "gamma2": args.gamma2,
            "mode": args.mode,
            "excluded": summary.excluded,
            **{name: asdict(e) for name, e in estimates.items()},
        }, sort_keys=True))
        return EXIT_OK

    print(f"{len(counts)} iterations from {args.log} "
          f"({summary.excluded} excluded for n1p = 0)")
    for name, estimate in estimates.items():
        line = (f"{name.replace('_over_', '/'):<12} {estimate.value:.6f} "
                f"+- {estimate.std_error:.2g}")
        if estimate.poisson_error is not None:
            line += f"  (poisson cross-check +- {estimate.poisson_error:.2g})"
        print(line)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    theta = _angle(args.theta, args.degrees)
    lo, hi, points = args.range
    if args.axis == "delta" and args.degrees:
        lo, hi = math.radians(lo), math.radians(hi)
    grid = np.linspace(lo, hi, points).tolist()
    seed = _resolve_seed(args.seed) if args.with_sim else None

    if args.axis == "delta":
        if args.gamma2 is None:
            raise ValueError("sweep delta needs --gamma2")
        if args.delta_std is not None:
            raise ValueError(
                "sweep delta takes its noise values from the range; "
                "drop --delta-std"
            )
        sweep = sweep_delta(theta, args.gamma1, args.gamma2, grid)
    else:
        if args.delta_std is None:
            raise ValueError("sweep gamma2 needs --delta-std")
        if args.gamma2 is not None:
            raise ValueError(
                "sweep gamma2 takes its weights from the range; drop --gamma2"
            )
        noise = NoiseParams(_angle(args.delta_std, args.degrees))
        sweep = sweep_gamma2(theta, noise, args.gamma1, grid)
    sim = None if seed is None else simulate_sweep(
        sweep, seed, args.iterations, args.rate, args.window, args.mode
    )

    manifest_path = write_sweep_csv(args.out, sweep, sim)
    companion = f" (manifest {manifest_path})" if manifest_path else ""
    print(f"wrote {len(grid)} rows to {args.out}{companion}",
          file=sys.stderr)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors say how to give a value that
    starts with '-' and is not a negative number as argparse knows one (a
    '-', digits and at most one '.'), such as the range -0.1:1:5, the list
    -0.1,0.2 or -1e-3: argparse reads it as an option, and then reports the
    value it expected as missing."""

    def parse_known_args(self, args=None, namespace=None):
        self._args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str) -> NoReturn:
        options = itertools.takewhile("--".__ne__, self._args)
        dashed = next((arg for arg in options if re.match(r"-[\d.]", arg)
                       and not re.fullmatch(r"-\d+|-\d*\.\d+", arg)), None)
        if dashed is not None:
            message += (
                f" ({dashed!r} starts with '-', so it was read as an option: "
                "a value that starts with '-' must follow '--' at the end of "
                "the command, or be joined to its option by '=', as in "
                "--gamma1=-0.1,0.2)"
            )
        super().error(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    more than most commands, and ``parse_args`` fills a fresh namespace on
    every call."""
    parser = _Parser(
        prog="ysqht",
        description=(
            "Polarization-measurement hypothesis testing under Gaussian "
            "preparation noise: exact ratio curves, aggregation-reversal "
            "thresholds, and a seeded photon-counting emulator."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    theory = sub.add_parser(
        "theory", help="closed-form probabilities, thresholds, and verdict"
    )
    theory.add_argument("--theta", type=float, required=True,
                        help="tilt of hypothesis B (radians)")
    theory.add_argument("--delta-std", type=float, default=None,
                        help="preparation-noise spread (radians)")
    theory.add_argument("--gamma1", type=float, required=True)
    theory.add_argument("--gamma2", type=float, required=True)
    theory.add_argument("--degrees", action="store_true",
                        help="interpret angle inputs as degrees")
    theory.add_argument("--json", action="store_true")
    theory.add_argument("--check-reversal", action="store_true",
                        help="exit with code 3 when the reversal is present")
    theory.set_defaults(handler=cmd_theory)

    simulate = sub.add_parser(
        "simulate", help="run one acquisition and write a count log"
    )
    simulate.add_argument("--theta", type=float, required=True)
    simulate.add_argument("--delta-std", type=float, required=True)
    simulate.add_argument("--iterations", type=int, default=200)
    simulate.add_argument("--rate", type=float, default=1e4,
                          help="expected counts per second at unit probability")
    simulate.add_argument("--window", type=float, default=1.0,
                          help="counting window in seconds")
    simulate.add_argument("--seed", type=int, default=None,
                          help="acquisition seed (default: YSQHT_SEED or "
                               f"{DEFAULT_SEED})")
    simulate.add_argument("--degrees", action="store_true")
    simulate.add_argument("--out", required=True)
    simulate.set_defaults(handler=cmd_simulate)

    analyze = sub.add_parser(
        "analyze", help="estimate ratios from a count log"
    )
    analyze.add_argument("log", help="count log written by simulate")
    analyze.add_argument("--gamma1", type=float, required=True)
    analyze.add_argument("--gamma2", type=float, required=True)
    analyze.add_argument("--mode", choices=AGGREGATION_MODES,
                         default="stochastic")
    analyze.add_argument("--seed", type=int, default=None,
                         help="seed for the stochastic mixing draws")
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(handler=cmd_analyze)

    sweep = sub.add_parser(
        "sweep", help="write an analytic (optionally simulated) sweep table"
    )
    sweep.add_argument("axis", choices=("delta", "gamma2"))
    sweep.add_argument("range", type=_parse_range, help="MIN:MAX:POINTS")
    sweep.add_argument("--theta", type=float, required=True)
    sweep.add_argument("--delta-std", type=float, default=None,
                       help="noise spread (gamma2 axis only)")
    sweep.add_argument("--gamma1", type=_gamma_list, required=True,
                       help="one value or a comma-separated list")
    sweep.add_argument("--gamma2", type=float, default=None,
                       help="hypothesis-B clean weight (delta axis only)")
    sweep.add_argument("--with-sim", action="store_true",
                       help="add Monte Carlo columns")
    sweep.add_argument("--mode", choices=AGGREGATION_MODES,
                       default="stochastic")
    sweep.add_argument("--iterations", type=int, default=200)
    sweep.add_argument("--rate", type=float, default=1e4)
    sweep.add_argument("--window", type=float, default=1.0)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--degrees", action="store_true")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(handler=cmd_sweep)

    return parser


#: Exit code of each error, tried in order: the first two are ValueErrors.
_ERROR_EXITS = {
    LogFormatError: EXIT_CORRUPT,
    ManifestVersionError: EXIT_VERSION,
    EstimationError: EXIT_NO_USABLE,
    OSError: EXIT_IO,
    ValueError: EXIT_USAGE,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of our output has gone (as in `ysqht ... | head -1`):
        # stop quietly, and send what is still buffered nowhere so that the
        # flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except tuple(_ERROR_EXITS) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS.items()
                    if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
