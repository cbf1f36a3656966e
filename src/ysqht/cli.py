"""Command-line interface: analytic reports, acquisition simulation, count-log
analysis, and sweep tables.

Exit codes: 0 ok (also when the reader of the output closes it early), 2 usage
error, 3 reversal present (with --check-reversal), 4 io error, 5 corrupt log
line, 6 incompatible manifest version, 130 interrupted (Ctrl-C).  A ratio
whose summed denominator is 0 is no error: it is undefined, as is an error
bar the delta method cannot give, and reads null in JSON, n/a in text and
nan in a sweep table.
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

# numpy, counting and logio are imported by the commands that use them, so
# that ``theory``, ``--help`` and ``--version`` start without numpy.
from . import (
    AGGREGATION_MODES,
    LogFormatError,
    ManifestVersionError,
    __version__,
)
from .qubit import NoiseParams
from .theory import (
    ESTIMATORS,
    ScenarioParams,
    delta_threshold,
    gamma2_threshold,
    outcome_probabilities,
    reversal_pairs_exist,
    sweep_delta,
    sweep_gamma2,
    ys_reversal,
)

#: Built-in seed used when neither --seed nor YSQHT_SEED is given.
DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REVERSAL = 3
EXIT_IO = 4
EXIT_CORRUPT = 5
EXIT_VERSION = 6
EXIT_INTERRUPTED = 130


def _resolve_seed(value: int | None) -> int:
    from .counting import _require_seed

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
        return tuple(float(part) for part in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from err


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
    if not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError(
            f"range {text!r} must span a finite interval")
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
        report["ratios"] = {name: o[a] / o[b] for name, a, b in ESTIMATORS
                            if "_over_" in name}
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
    from .counting import AcquisitionConfig, run_acquisition
    from .logio import write_count_log

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
    import numpy as np

    from .counting import aggregate, aggregation_seed
    from .logio import read_count_log

    manifest, counts = read_count_log(args.log)
    # Only stochastic mixing draws, so only it needs the seed.  It draws
    # from the seed derivation of a sweep's first gamma1 column, not the
    # generator the log's tilts came from.
    rng = (np.random.default_rng(aggregation_seed(_resolve_seed(args.seed)))
           if args.mode == "stochastic" else None)
    result = aggregate(counts, args.gamma1, args.gamma2, rng)
    estimates = {name: getattr(result, name) for name, _, _ in ESTIMATORS}

    if args.json:
        print(json.dumps({
            "log_seed": manifest.seed,
            "gamma1": args.gamma1,
            "gamma2": args.gamma2,
            "mode": args.mode,
            "excluded": result.excluded,
            # An undefined value or error bar is NaN, which standard JSON
            # lacks.
            **{name: {key: None if math.isnan(x) else x
                      for key, x in asdict(e).items()}
               for name, e in estimates.items()},
        }, sort_keys=True))
        return EXIT_OK

    def show(x: float, spec: str) -> str:
        return "n/a" if math.isnan(x) else format(x, spec)

    print(f"{len(counts)} iterations from {args.log}")
    for name, e in estimates.items():
        print(f"{name.replace('_over_', '/'):<12} {show(e.value, '.6f')} "
              f"+- {show(e.std_error, '.2g')}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    import numpy as np

    from .counting import simulate_sweep
    from .logio import write_sweep_csv

    theta = _angle(args.theta, args.degrees)
    lo, hi, points = args.range
    if args.axis == "delta" and args.degrees:
        lo, hi = math.radians(lo), math.radians(hi)
    grid = np.linspace(lo, hi, points)

    if args.axis == "delta":
        table = sweep_delta(theta, args.gamma1, args.gamma2, grid)
    else:
        noise = NoiseParams(_angle(args.delta_std, args.degrees))
        table = sweep_gamma2(theta, noise, args.gamma1, grid)
    if args.with_sim:
        table = simulate_sweep(table, _resolve_seed(args.seed),
                               args.iterations, args.rate, args.window,
                               args.mode)

    manifest_path = write_sweep_csv(args.out, table)
    companion = f" (manifest {manifest_path})" if manifest_path else ""
    print(f"wrote {len(grid)} rows to {args.out}{companion}",
          file=sys.stderr)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors say how to give a value that
    starts with '-' and is not a negative number as argparse knows one (a
    '-', digits and at most one '.'), such as the range -0.1:1:5, the list
    -0.1,0.2 or -1e-3: argparse reads it as an option, and then reports the
    value it expected as missing.  A sweep axis names, wherever it stands,
    an option of the other axis, also given as a prefix of that option and
    of none of its own, which argparse may read as the range."""

    #: Option -> prog of the command that takes it instead of this one.
    foreign: dict[str, str] = {}

    def parse_known_args(self, args=None, namespace=None):
        self._options = list(itertools.takewhile(
            "--".__ne__, sys.argv[1:] if args is None else args))
        for arg in self._options:
            given = arg.partition("=")[0]
            # argparse reads an unambiguous prefix of an option as that
            # option, so a prefix of none of ours may name a foreign one.
            if given[:2] != "--" or any(
                    own.startswith(given)
                    for own in self._option_string_actions):
                continue
            for option, prog in self.foreign.items():
                if option.startswith(given):
                    super().error(  # no dashed-value hint: nothing is parsed
                        f"{option} is an option of '{prog}': "
                        "this axis sweeps that value over its range")
        return super().parse_known_args(args, namespace)

    def error(self, message: str) -> NoReturn:
        dashed = next((arg for arg in self._options if re.match(r"-[\d.]", arg)
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
    every call.  An option that several commands take is declared once, in
    a parent parser that each of them names."""
    options = functools.partial(argparse.ArgumentParser, add_help=False)
    angles = options()
    angles.add_argument("--theta", type=float, required=True,
                        help="tilt of hypothesis B (radians)")
    angles.add_argument("--degrees", action="store_true",
                        help="interpret angle inputs as degrees")
    gamma1 = options()
    gamma1.add_argument("--gamma1", type=float, required=True)
    gamma2 = options()
    gamma2.add_argument("--gamma2", type=float, required=True,
                        help="clean-preparation weight under B")
    noise = options()
    noise.add_argument("--delta-std", type=float, required=True,
                       help="preparation-noise spread (radians)")
    seed = options()
    seed.add_argument("--seed", type=int, default=None,
                      help="seed of the draws (default: YSQHT_SEED or "
                           f"{DEFAULT_SEED})")
    acquisition = options(parents=[seed])
    acquisition.add_argument("--iterations", type=int, default=200)
    acquisition.add_argument("--rate", type=float, default=1e4,
                             help="expected counts per second at unit "
                                  "probability")
    acquisition.add_argument("--window", type=float, default=1.0,
                             help="counting window in seconds")
    acquisition.add_argument("--out", required=True)
    mode = options()
    mode.add_argument("--mode", choices=AGGREGATION_MODES,
                      default="stochastic")
    as_json = options()
    as_json.add_argument("--json", action="store_true")

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
        "theory", parents=[angles, gamma1, gamma2, as_json],
        help="closed-form probabilities, thresholds, and verdict",
    )
    theory.add_argument("--delta-std", type=float, default=None,
                        help="preparation-noise spread (radians)")
    theory.add_argument("--check-reversal", action="store_true",
                        help="exit with code 3 when the reversal is present")
    theory.set_defaults(handler=cmd_theory)

    sub.add_parser(
        "simulate", parents=[angles, noise, acquisition],
        help="run one acquisition and write a count log",
    ).set_defaults(handler=cmd_simulate)

    analyze = sub.add_parser(
        "analyze", parents=[gamma1, gamma2, mode, seed, as_json],
        help="estimate ratios from a count log",
    )
    analyze.add_argument("log", help="count log written by simulate")
    analyze.set_defaults(handler=cmd_analyze)

    table = options(parents=[angles, acquisition, mode])
    table.add_argument("range", type=_parse_range, help="MIN:MAX:POINTS")
    table.add_argument("--gamma1", type=_gamma_list, required=True,
                       help="one value or a comma-separated list")
    table.add_argument("--with-sim", action="store_true",
                       help="add Monte Carlo columns")
    table.set_defaults(handler=cmd_sweep)
    axes = sub.add_parser(
        "sweep", help="write an analytic (optionally simulated) sweep table"
    ).add_subparsers(dest="axis", required=True)
    by_delta = axes.add_parser("delta", parents=[table, gamma2],
                               help="noise spreads at a fixed --gamma2")
    by_gamma2 = axes.add_parser("gamma2", parents=[table, noise],
                                help="weights under B at a fixed --delta-std")
    by_delta.foreign = {"--delta-std": by_gamma2.prog}
    by_gamma2.foreign = {"--gamma2": by_delta.prog}
    return parser


#: Exit code of each error, tried in order: the first two are ValueErrors.
_ERROR_EXITS = {
    LogFormatError: EXIT_CORRUPT,
    ManifestVersionError: EXIT_VERSION,
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
    except KeyboardInterrupt:
        # Raised, not returned, so that an in-process caller stops too, as
        # on a usage error; outputs in progress are already cleaned up.
        print("error: interrupted", file=sys.stderr)
        raise SystemExit(EXIT_INTERRUPTED) from None


if __name__ == "__main__":
    sys.exit(main())
