"""End-to-end tests of the command-line interface and its exit-code protocol."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ysqht
from ysqht import (
    AcquisitionConfig,
    NoiseParams,
    ScenarioParams,
    aggregate,
    aggregation_seed,
    delta_threshold,
    gamma2_threshold,
    outcome_probabilities,
    read_count_log,
    point_seed,
    run_acquisition,
)
from ysqht import cli, logio
from ysqht.theory import ESTIMATORS
from ysqht.cli import main

THETA_B = 5.0 * math.pi / 36.0
DELTA_FIG2 = 2.0 * math.pi / 9.0

THETA_FLAG = repr(THETA_B)
DELTA_FLAG = repr(DELTA_FIG2)


#: The figure tables that demo 04 writes, as tracked.
DEMO_OUTPUT = Path(__file__).parents[1] / "demos" / "output"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


FRESH_ENV = dict(os.environ, PYTHONPATH=str(Path(ysqht.__file__).parents[1]))

#: Runs ``main`` quietly and prints its exit code; each probe ends by
#: printing which of numpy and scipy.integrate it loaded.
PROBE_PRELUDE = """\
import contextlib, io, sys

def run(argv):
    from ysqht.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
    print(code)
"""
PROBE_LOADED = (
    "print([m for m in ('numpy', 'scipy.integrate') if m in sys.modules])"
)
THEORY_ARGV = ["theory", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
               "--gamma1", "0.1", "--gamma2", "0.8"]


def fresh_probe(statement):
    result = subprocess.run(
        [sys.executable, "-c",
         "\n".join([PROBE_PRELUDE, statement, PROBE_LOADED])],
        capture_output=True, text=True, env=FRESH_ENV, check=True,
        timeout=60,
    )
    return result.stdout.splitlines()


@pytest.mark.parametrize("statement, printed", [
    ("import ysqht", []),
    ("from ysqht import outcome_probabilities", []),
    ("import ysqht.cli", []),
    (f"run({THEORY_ARGV!r})", ["0"]),
    (f"run({THEORY_ARGV + ['--json']!r})", ["0"]),
    (f"run({THEORY_ARGV + ['--check-reversal']!r})", ["3"]),
    ("run(['--help'])", ["0"]),
    ("run(['--version'])", ["0"]),
    ("run(['sweep', 'delta', '--help'])", ["0"]),
])
def test_start_loads_no_numpy(statement, printed):
    # theory needs only math.  Nothing in the package imports scipy; the
    # probe keeps it so, as scipy.integrate would add about 50 MB and 0.6 s
    # to every command.
    assert fresh_probe(statement) == printed + ["[]"]


def test_commands_that_need_numpy_load_it_when_they_run(tmp_path):
    out = tmp_path / "table.csv"
    argv = ["sweep", "gamma2", "0:1:3", "--theta", THETA_FLAG, "--delta-std",
            DELTA_FLAG, "--gamma1", "0.05", "--out", str(out)]
    assert fresh_probe(f"run({argv!r})") == ["0", "['numpy']"]


def test_public_names_resolve_on_first_access():
    statement = (
        "import ysqht\n"
        "listed = set(dir(ysqht))\n"
        "print([n for n in ysqht.__all__ if n not in listed])\n"
        "namespace = {}\n"
        "exec('from ysqht import *', namespace)\n"
        "print(sorted(set(ysqht.__all__) - set(namespace)))"
    )
    assert fresh_probe(statement) == ["[]", "[]", "['numpy']"]


def test_every_public_name_is_its_module_attribute():
    for name in ysqht.__all__:
        value = getattr(ysqht, name)
        if name != "__version__":
            module = sys.modules[value.__module__]
            assert getattr(module, name) is value, name
    assert set(ysqht.__all__) <= set(dir(ysqht))
    # logio re-exports the errors the command line maps, so imports and
    # isinstance checks through either module see one class.
    assert ysqht.counting.AGGREGATION_MODES is cli.AGGREGATION_MODES
    assert ysqht.logio.LogFormatError is ysqht.LogFormatError
    assert ysqht.logio.ManifestVersionError is ysqht.ManifestVersionError


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        ysqht.nope
    # An undefined ratio is NaN, not an error.
    with pytest.raises(AttributeError):
        ysqht.EstimationError
    with pytest.raises(ImportError):
        from ysqht import nope  # noqa: F401
    assert not hasattr(ysqht, "_private")


def test_exit_codes_in_a_fresh_process(tmp_path, capsys):
    # The errors come from modules that the commands import when they run;
    # each must still map to its exit code.
    def log(name, rate="1e4"):
        path = tmp_path / name
        assert main(["simulate", "--theta", THETA_FLAG, "--delta-std",
                     DELTA_FLAG, "--iterations", "5", "--rate", rate,
                     "--seed", "1", "--out", str(path)]) == 0
        return path

    corrupt, future = log("corrupt.jsonl"), log("future.jsonl")
    lines = corrupt.read_text().splitlines()
    corrupt.write_text("\n".join(lines[:2] + ["not json"] + lines[3:]) + "\n")
    head = json.loads(future.read_text().splitlines()[0])
    future.write_text(json.dumps({**head, "schema_version": 99}) + "\n")
    empty = log("empty.jsonl", rate="0.001")
    capsys.readouterr()
    analyze = ["analyze", "--gamma1", "0.1", "--gamma2", "0.8"]
    cases = [
        (["simulate", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
          "--seed", "-3", "--out", str(tmp_path / "never.jsonl")], 2),
        (analyze + [str(tmp_path / "missing.jsonl")], 4),
        (analyze + [str(corrupt)], 5),
        (analyze + [str(future)], 6),
    ]

    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "ysqht.cli", *argv], capture_output=True,
            text=True, env=FRESH_ENV, timeout=60,
        )

    for argv, code in cases:
        result = run(argv)
        assert (result.returncode, result.stdout) == (code, ""), argv
        assert result.stderr.startswith("error: "), argv
    # A log without an n1p count is no error: every ratio over a summed
    # count of 0 is undefined, written null.
    result = run(analyze + [str(empty), "--json"])
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["q1_over_p1"] == {
        "value": None, "std_error": None, "n_samples": 5,
    }


def run_main(argv, capsys, out):
    """Exit code, stdout, stderr and the bytes of ``out`` (None when it does
    not exist) of one ``main`` call; usage errors and ``--version`` end in
    SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exit:
        code = exit.code
    captured = capsys.readouterr()
    written = out.read_bytes() if out.exists() else None
    return code, captured.out, captured.err, written


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("YSQHT_SEED", raising=False)
    out = tmp_path / "table.csv"
    sweep = [
        "sweep", "gamma2", "0:1:4", "--theta", THETA_FLAG,
        "--delta-std", DELTA_FLAG, "--gamma1", "0.05,0.4", "--out", str(out),
    ]
    calls = [
        sweep + ["--with-sim", "--iterations", "30", "--mode", "expected",
                 "--seed", "5"],
        sweep,
        ["theory", "--theta", "0.43633", "--delta-std", "0.7",
         "--gamma1", "0.1", "--gamma2", "0.8", "--check-reversal"],
        ["theory", "--theta", "0.43633", "--gamma1", "0.1"],
        ["--version"],
        sweep + ["--with-sim", "--iterations", "20"],
        ["theory", "--theta", "0.43633", "--gamma1", "0.1", "--gamma2", "0.8",
         "--json"],
    ]
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        out.unlink(missing_ok=True)
        alone.append(run_main(argv, capsys, out))
    assert [result[0] for result in alone] == [0, 0, 3, 2, 0, 0, 0]

    cli._build_parser.cache_clear()
    out.unlink(missing_ok=True)
    in_turn = []
    for argv in calls:
        in_turn.append(run_main(argv, capsys, out))
        out.unlink(missing_ok=True)
    assert in_turn == alone
    assert cli._build_parser.cache_info().misses == 1


#: Every default of one valid command line per command and per sweep axis.
PINNED_NAMESPACES = [
    (["theory", "--theta", "0.4", "--gamma1", "0.1", "--gamma2", "0.8"],
     dict(command="theory", handler=cli.cmd_theory, theta=0.4, degrees=False,
          gamma1=0.1, gamma2=0.8, json=False, delta_std=None,
          check_reversal=False)),
    (["simulate", "--theta", "0.4", "--delta-std", "0.7", "--out", "x.jsonl"],
     dict(command="simulate", handler=cli.cmd_simulate, theta=0.4,
          degrees=False, delta_std=0.7, seed=None, iterations=200,
          rate=1e4, window=1.0, out="x.jsonl")),
    (["analyze", "x.jsonl", "--gamma1", "0.1", "--gamma2", "0.8"],
     dict(command="analyze", handler=cli.cmd_analyze, log="x.jsonl",
          gamma1=0.1, gamma2=0.8, mode="stochastic", seed=None, json=False)),
    (["sweep", "delta", "0:1:5", "--theta", "0.4", "--gamma1", "0.1",
      "--gamma2", "0.8", "--out", "x.csv"],
     dict(command="sweep", axis="delta", handler=cli.cmd_sweep,
          range=(0.0, 1.0, 5), theta=0.4, degrees=False, gamma1=(0.1,),
          gamma2=0.8, with_sim=False, mode="stochastic", seed=None,
          iterations=200, rate=1e4, window=1.0, out="x.csv")),
    (["sweep", "gamma2", "0:1:5", "--theta", "0.4", "--delta-std", "0.7",
      "--gamma1", "0.1,0.2", "--out", "x.csv"],
     dict(command="sweep", axis="gamma2", handler=cli.cmd_sweep,
          range=(0.0, 1.0, 5), theta=0.4, degrees=False, gamma1=(0.1, 0.2),
          delta_std=0.7, with_sim=False, mode="stochastic", seed=None,
          iterations=200, rate=1e4, window=1.0, out="x.csv")),
]


@pytest.mark.parametrize(
    "argv, expected", PINNED_NAMESPACES,
    ids=["theory", "simulate", "analyze", "sweep-delta", "sweep-gamma2"],
)
def test_parsed_namespace_is_pinned(argv, expected):
    assert vars(cli._build_parser().parse_args(argv)) == expected


class TestBrokenPipe:
    """A reader that stops early (``ysqht ... | head -1``) ends the command
    quietly with exit 0."""

    ENV = dict(os.environ, PYTHONPATH=str(Path(ysqht.__file__).parents[1]))
    CLI = [sys.executable, "-m", "ysqht.cli"]

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_pipe_before_any_output(self, unbuffered):
        # Buffered, the report is written by the flush at exit; unbuffered,
        # by the print itself.
        env = {k: v for k, v in self.ENV.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                self.CLI + ["theory", "--theta", THETA_FLAG, "--gamma1",
                            "0.1", "--gamma2", "0.8", "--json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 0
        assert result.stderr == b""

    def test_reader_closes_pipe_mid_table(self, tmp_path):
        # The table goes into a named pipe, as `--out /dev/stdout | head -1`
        # sends it into an anonymous one.  20000 rows are far more than a
        # pipe buffer holds, so the table is still being written when the
        # reader goes.
        fifo = tmp_path / "table.csv"
        os.mkfifo(fifo)
        with subprocess.Popen(
            self.CLI + ["sweep", "gamma2", "0:1:20000", "--theta", THETA_FLAG,
                        "--delta-std", DELTA_FLAG, "--gamma1", "0.05",
                        "--out", str(fifo)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.ENV,
        ) as proc:
            with fifo.open("rb") as reader:
                first = reader.readline()
            _, stderr = proc.communicate(timeout=60)
        assert first.startswith(b"gamma2,q1_over_p1,")
        assert proc.returncode == 0
        assert stderr == b""
        assert not (tmp_path / "table.csv.manifest.json").exists()


class TestStreamOutputs:
    """Status lines go to stderr, so a log or table can be written to
    /dev/stdout, and a stream gets no companion manifest."""

    ENV = TestBrokenPipe.ENV
    CLI = TestBrokenPipe.CLI
    SIMULATE = ["simulate", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
                "--iterations", "3", "--seed", "5", "--out", "/dev/stdout"]

    def test_simulate_into_redirected_stdout(self, tmp_path):
        log = tmp_path / "s.jsonl"
        with log.open("wb") as out:
            result = subprocess.run(
                self.CLI + self.SIMULATE, stdout=out, stderr=subprocess.PIPE,
                env=self.ENV, timeout=60,
            )
        assert result.returncode == 0
        assert b"wrote 3 records to /dev/stdout" in result.stderr
        # /dev/stdout is a link: it gets no companion, here or in /dev.
        assert list(tmp_path.iterdir()) == [log]
        assert not Path("/dev/stdout.columns.npz").exists()
        manifest, counts = ysqht.read_count_log(log)
        assert manifest.seed == 5
        assert len(counts) == 3

    def test_simulate_piped_into_analyze(self):
        with subprocess.Popen(
            self.CLI + self.SIMULATE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=self.ENV,
        ) as simulate:
            analyze = subprocess.run(
                self.CLI + ["analyze", "/dev/stdin", "--gamma1", "0.1",
                            "--gamma2", "0.8", "--json"],
                stdin=simulate.stdout, capture_output=True, env=self.ENV,
                timeout=60,
            )
            simulate.stdout.close()
            assert simulate.wait(timeout=60) == 0
        assert analyze.returncode == 0, analyze.stderr
        report = json.loads(analyze.stdout)
        assert report["log_seed"] == 5
        assert report["q1_over_p1"]["n_samples"] + report["excluded"] == 3

    def test_analyze_reads_a_log_redirected_into_stdin(self, tmp_path):
        # /dev/stdin then opens the log file itself, which has no companion
        # under that name, so it is parsed; expected mode draws nothing.
        log = tmp_path / "run.jsonl"
        assert main(self.SIMULATE[:-1] + [str(log)]) == 0
        argv = ["--gamma1", "0.05", "--gamma2", "0.8", "--mode", "expected",
                "--json"]
        with log.open("rb") as stdin:
            piped = subprocess.run(
                self.CLI + ["analyze", "/dev/stdin", *argv], stdin=stdin,
                capture_output=True, env=self.ENV, timeout=60,
            )
        direct = subprocess.run(
            self.CLI + ["analyze", str(log), *argv], capture_output=True,
            env=self.ENV, timeout=60,
        )
        assert (piped.returncode, piped.stderr) == (0, b"")
        assert direct.returncode == 0
        assert piped.stdout == direct.stdout

    def test_simulate_into_a_pipe_writes_no_companion(self, tmp_path):
        fifo = tmp_path / "run.jsonl"
        os.mkfifo(fifo)
        with subprocess.Popen(
            self.CLI + self.SIMULATE[:-1] + [str(fifo)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.ENV,
        ) as proc:
            with fifo.open("rb") as reader:
                log = reader.read().splitlines()
            stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert len(log) == 4
        assert list(tmp_path.iterdir()) == [fifo]
        assert (stdout, stderr) == (b"", f"wrote 3 records to {fifo}\n".encode())

    def test_sweep_into_a_pipe_writes_no_manifest(self, tmp_path):
        fifo = tmp_path / "table.csv"
        os.mkfifo(fifo)
        with subprocess.Popen(
            self.CLI + ["sweep", "gamma2", "0:1:5", "--theta", THETA_FLAG,
                        "--delta-std", DELTA_FLAG, "--gamma1", "0.05",
                        "--out", str(fifo)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.ENV,
        ) as proc:
            with fifo.open("rb") as reader:
                table = reader.read().splitlines()
            stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert table[0].startswith(b"gamma2,q1_over_p1,")
        assert len(table) == 6
        assert not (tmp_path / "table.csv.manifest.json").exists()
        assert stdout == b""
        assert stderr == f"wrote 5 rows to {fifo}\n".encode()


class TestTheory:
    def test_fig2_right_report(self, capsys):
        code, report = run_json(capsys, [
            "theory", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
            "--gamma1", "0.05", "--gamma2", "0.8", "--json",
        ])
        assert code == 0
        assert report["gamma2_threshold"]["value"] == pytest.approx(
            0.41447164291252375, abs=1e-12
        )
        assert report["gamma2_threshold"]["reachable"] is True
        assert report["verdict"]["reversal"] is True
        assert report["probabilities"]["p1"] == 1.0
        assert report["pairs_feasible"] is True

    def test_threshold_query_without_noise(self, capsys):
        code, report = run_json(capsys, [
            "theory", "--theta", THETA_FLAG,
            "--gamma1", "0.1", "--gamma2", "0.8", "--json",
        ])
        assert code == 0
        assert report["delta_threshold"]["delta_std"] == pytest.approx(
            0.5576022433145783, abs=1e-12
        )
        assert report["verdict"] is None
        assert report["gamma2_threshold"] is None

    def test_equal_weights_no_reversal(self, capsys):
        code, report = run_json(capsys, [
            "theory", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
            "--gamma1", "0.5", "--gamma2", "0.5", "--json",
        ])
        assert code == 0
        assert report["verdict"]["reversal"] is False

    def test_check_reversal_exit_code(self, capsys):
        argv = [
            "theory", "--theta", THETA_FLAG, "--delta-std", "0.7",
            "--gamma1", "0.1", "--gamma2", "0.8", "--check-reversal",
        ]
        assert main(argv) == 3
        argv[argv.index("0.7")] = "0.4"
        assert main(argv) == 0

    def test_check_reversal_without_noise_prints_nothing(self, capsys):
        # The usage error comes before the report, not after it.
        code = main([
            "theory", "--theta", THETA_FLAG, "--gamma1", "0.1",
            "--gamma2", "0.8", "--check-reversal",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --check-reversal needs --delta-std\n"

    def test_wide_tilt_reports_threshold_unavailable(self, capsys):
        code, report = run_json(capsys, [
            "theory", "--theta", "1.0", "--delta-std", "0.5",
            "--gamma1", "0.1", "--gamma2", "0.8", "--json",
        ])
        assert code == 0
        assert "error" in report["gamma2_threshold"]
        assert "error" in report["delta_threshold"]

    def test_degrees_flag_matches_radians(self, capsys):
        code_deg, report_deg = run_json(capsys, [
            "theory", "--theta", "25", "--delta-std", "40", "--degrees",
            "--gamma1", "0.1", "--gamma2", "0.8", "--json",
        ])
        code_rad, report_rad = run_json(capsys, [
            "theory", "--theta", repr(math.radians(25.0)),
            "--delta-std", repr(math.radians(40.0)),
            "--gamma1", "0.1", "--gamma2", "0.8", "--json",
        ])
        assert code_deg == code_rad == 0
        assert report_deg == report_rad

    def test_malformed_flags_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["theory", "--theta"])
        assert err.value.code == 2

    def test_invalid_weight_exit_2(self, capsys):
        code = main([
            "theory", "--theta", THETA_FLAG, "--delta-std", "0.7",
            "--gamma1", "1.5", "--gamma2", "0.8",
        ])
        assert code == 2
        assert "gamma1" in capsys.readouterr().err


class TestSimulate:
    def test_default_iterations_and_layout(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code = main([
            "simulate", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 201   # manifest + 200 records
        head = json.loads(lines[0])
        assert head["kind"] == "count-log"
        assert head["seed"] == 7
        assert head["schema_version"] == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.jsonl", "run.jsonl.columns.npz",
        ]

    def test_same_seed_identical_records(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        argv = [
            "simulate", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
            "--seed", "11",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]

    def test_single_noiseless_iteration(self, tmp_path, capsys):
        out = tmp_path / "one.jsonl"
        code = main([
            "simulate", "--theta", THETA_FLAG, "--delta-std", "0",
            "--iterations", "1", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        record = json.loads(out.read_text().splitlines()[1])
        assert list(record) == ["i", "n1p", "n1q", "n2p", "n2q"]
        # both p settings sit at phase 0; only Poisson noise separates them
        lam = 1e4
        assert abs(record["n2p"] - record["n1p"]) < 6.0 * math.sqrt(2 * lam)

    def test_unwritable_path_exit_4(self, tmp_path, capsys):
        code = main([
            "simulate", "--theta", THETA_FLAG, "--delta-std", "0",
            "--seed", "5", "--out", str(tmp_path / "missing-dir" / "x.jsonl"),
        ])
        assert code == 4
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["simulate", "--theta", THETA_FLAG, "--delta-std", "0", "--seed", "5",
         "--iterations", "10"],
        ["sweep", "delta", "0:1:5", "--theta", THETA_FLAG, "--gamma1", "0.1",
         "--gamma2", "0.8"],
    ])
    def test_failed_write_exit_4_leaves_no_file(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def refuse(*args):
            raise OSError("injected failure")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(command + ["--out", str(tmp_path / "out")]) == 4
        assert "injected failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, got", [
        (["simulate", "--iterations", "3", "--rate", "1e10", "--window",
          "1e10"], "10000000000.0 * 10000000000.0 = 1e+20"),
        (["sweep", "gamma2", "0:1:3", "--gamma1", "0.1", "--with-sim",
          "--rate", "1e300", "--window", "1e300"], "1e+300 * 1e+300 = inf"),
    ], ids=["simulate", "sweep"])
    def test_mean_count_too_large_to_draw_exit_2_leaves_no_file(
        self, tmp_path, capsys, command, got
    ):
        assert main(command + ["--theta", "0.43633", "--delta-std", "0.7",
                               "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", (
            f"error: mean_rate * window_seconds must be at most 9.22337e+18, "
            f"got {got}\n"))
        assert list(tmp_path.iterdir()) == []

    def test_failed_companion_write_exit_4_keeps_the_new_log(
        self, tmp_path, capsys, monkeypatch
    ):
        replace = os.replace

        def refuse_companion(source, target):
            if str(target).endswith(".columns.npz"):
                raise OSError("injected failure")
            replace(source, target)

        monkeypatch.setattr(os, "replace", refuse_companion)
        out = tmp_path / "run.jsonl"
        assert main(["simulate", "--theta", THETA_FLAG, "--delta-std", "0",
                     "--seed", "5", "--iterations", "10",
                     "--out", str(out)]) == 4
        assert "injected failure" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]
        assert read_count_log(out)[0].seed == 5

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_interrupt_exits_130_with_one_line(
        self, tmp_path, capsys, monkeypatch, block
    ):
        # Blocks of 3 records cut a 12-record log into four; the interrupt
        # comes as block 1, 2 or 3 is formatted.
        record_block = logio._record_block

        def interrupted(start, *args):
            if start == 3 * block:
                raise KeyboardInterrupt
            return record_block(start, *args)

        monkeypatch.setattr(logio, "BLOCK_LINES", 3)
        monkeypatch.setattr(logio, "_record_block", interrupted)
        out = tmp_path / "run.jsonl"
        out.write_text("old log\n")
        with pytest.raises(SystemExit) as exit:
            main(["simulate", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
                  "--iterations", "12", "--seed", "1", "--out", str(out)])
        assert exit.value.code == 130
        assert capsys.readouterr() == ("", "error: interrupted\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]
        assert out.read_text() == "old log\n"

    def test_env_var_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("YSQHT_SEED", "321")
        out = tmp_path / "env.jsonl"
        assert main([
            "simulate", "--theta", THETA_FLAG, "--delta-std", "0",
            "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text().splitlines()[0])["seed"] == 321


class TestAnalyze:
    def write_log(self, tmp_path, seed=7):
        out = tmp_path / "run.jsonl"
        assert main([
            "simulate", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
            "--seed", str(seed), "--out", str(out),
        ]) == 0
        return out

    def test_round_trips_in_memory_estimates_exactly(self, tmp_path, capsys):
        log = self.write_log(tmp_path)
        capsys.readouterr()
        code, report = run_json(capsys, [
            "analyze", str(log), "--gamma1", "0.1", "--gamma2", "0.8",
            "--mode", "stochastic", "--seed", "13", "--json",
        ])
        assert code == 0

        config = AcquisitionConfig(
            theta=THETA_B, noise=NoiseParams(DELTA_FIG2), seed=7
        )
        counts = run_acquisition(config)
        agg = aggregate(counts, 0.1, 0.8,
                        np.random.default_rng(aggregation_seed(13)))
        assert report["q1_over_p1"]["value"] == agg.q1_over_p1.value
        assert report["q1_over_p1"]["std_error"] == agg.q1_over_p1.std_error
        assert report["q2_over_p2"]["value"] == agg.q2_over_p2.value
        assert report["q_over_p"]["value"] == agg.q_over_p.value
        assert report["q_over_p"]["std_error"] == agg.q_over_p.std_error
        assert report["excluded"] == 0

    def test_mixing_draws_do_not_reuse_the_log_seed(
        self, tmp_path, capsys, monkeypatch
    ):
        # simulate and analyze fall back to the same seed.  analyze mixes
        # from aggregation_seed(seed), as a sweep's first gamma1 column
        # does, not from the generator that drew the log's tilts.
        monkeypatch.delenv("YSQHT_SEED", raising=False)
        log = tmp_path / "run.jsonl"
        assert main(["simulate", "--theta", THETA_FLAG, "--delta-std",
                     DELTA_FLAG, "--out", str(log)]) == 0
        capsys.readouterr()
        code, report = run_json(capsys, [
            "analyze", str(log), "--gamma1", "0.1", "--gamma2", "0.8",
            "--json",
        ])
        counts = read_count_log(log)[1]

        def q_over_p(seed):
            rng = np.random.default_rng(seed)
            return aggregate(counts, 0.1, 0.8, rng).q_over_p.value

        assert code == 0
        assert report["q_over_p"]["value"] == q_over_p(
            aggregation_seed(cli.DEFAULT_SEED))
        assert report["q_over_p"]["value"] != q_over_p(cli.DEFAULT_SEED)

    @pytest.mark.parametrize("mode", ["stochastic", "expected"])
    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_output_does_not_depend_on_the_companion(
        self, tmp_path, capsys, mode, form
    ):
        log = self.write_log(tmp_path)
        argv = ["analyze", str(log), "--gamma1", "0.05", "--gamma2", "0.8",
                "--mode", mode, "--seed", "13", *form]
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
            Path(f"{log}.columns.npz").unlink(missing_ok=True)
        assert outputs[0] == outputs[1]

    def test_changed_count_beside_its_companion_exit_5(
        self, tmp_path, capsys
    ):
        log = self.write_log(tmp_path)
        lines = log.read_text().splitlines()
        lines[3] = re.sub(r'"n1q": \d+', '"n1q": -1', lines[3])
        log.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(log), "--gamma1", "0.05", "--gamma2",
                     "0.8"]) == 5
        assert capsys.readouterr().err == (
            "error: line 4: n1q must be a non-negative 64-bit integer, "
            "got -1\n")

    def test_statistics_match_analytic_point(self, tmp_path, capsys):
        log = self.write_log(tmp_path)
        capsys.readouterr()
        code, report = run_json(capsys, [
            "analyze", str(log), "--gamma1", "0.05", "--gamma2", "0.8",
            "--json",
        ])
        assert code == 0
        est = report["q2_over_p2"]
        assert abs(est["value"] - 0.902148945883963) <= 3 * est["std_error"]

    def test_degenerate_weights_equal_clean_ratio(self, tmp_path, capsys):
        log = self.write_log(tmp_path)
        capsys.readouterr()
        code, report = run_json(capsys, [
            "analyze", str(log), "--gamma1", "1", "--gamma2", "1", "--json",
        ])
        assert code == 0
        assert report["q_over_p"]["value"] == report["q1_over_p1"]["value"]

    def test_corrupt_line_exit_5(self, tmp_path, capsys):
        log = self.write_log(tmp_path)
        lines = log.read_text().splitlines()
        lines[3] = "not json at all"
        log.write_text("\n".join(lines) + "\n")
        code = main([
            "analyze", str(log), "--gamma1", "0.1", "--gamma2", "0.8",
        ])
        assert code == 5
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("key, digits", [("n1p", 401), ("n1p", 5001)])
    def test_huge_number_exit_5(self, tmp_path, capsys, key, digits):
        # Too large for 64 bits, or too many digits for the JSON parser.
        log = self.write_log(tmp_path)
        lines = log.read_text().splitlines()
        lines[3] = re.sub(rf'"{key}": [^,]+', f'"{key}": 1{"0" * (digits - 1)}',
                          lines[3])
        log.write_text("\n".join(lines) + "\n")
        code = main([
            "analyze", str(log), "--gamma1", "0.1", "--gamma2", "0.8",
        ])
        assert code == 5
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="the interpreter parses integers of any length")
    def test_huge_manifest_number_exit_5(self, tmp_path, capsys):
        # More digits than the JSON parser takes, on the manifest line.
        log = self.write_log(tmp_path)
        lines = log.read_text().splitlines()
        lines[0] = re.sub(r'"seed": \d+', f'"seed": 1{"0" * 5000}', lines[0])
        log.write_text("\n".join(lines) + "\n")
        code = main([
            "analyze", str(log), "--gamma1", "0.1", "--gamma2", "0.8",
        ])
        assert code == 5
        assert "line 1" in capsys.readouterr().err

    def test_manifest_line_not_an_object_exit_5(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        log.write_text("[1]\n")
        code = main(["analyze", str(log), "--gamma1", "0.1", "--gamma2",
                     "0.8"])
        assert (code, capsys.readouterr().err) == (
            5, "error: line 1: manifest line must be a JSON object\n")

    DEEP = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize("line, edit, message", [
        (0, lambda head: head.replace('"gamma1": []', '"gamma1": 0.5'),
         "line 1: manifest field 'gamma1' must be a list of finite numbers"),
        (0, lambda head: head.replace('"gamma1": []', '"gamma1": [[1]]'),
         "line 1: manifest field 'gamma1' must be a list of finite numbers"),
        (0, lambda head: head.replace('"gamma1": []', '"gamma1": ["a"]'),
         "line 1: manifest field 'gamma1' must be a list of finite numbers"),
        (0, lambda head: re.sub(r'"seed": \d+', '"seed": "x"', head),
         "line 1: manifest field 'seed' must be an integer in [0, 2**64)"),
        (0, lambda head: head.replace('"gamma1": []',
                                      f'"gamma1": {TestAnalyze.DEEP}'),
         "line 1: manifest is not valid JSON: maximum recursion depth"),
        (2, lambda line: line.replace('"i": 1', f'"i": {TestAnalyze.DEEP}'),
         "line 3: not valid JSON: maximum recursion depth"),
    ], ids=["gamma1-number", "gamma1-nested", "gamma1-string", "seed-string",
            "deep-manifest", "deep-record"])
    def test_malformed_manifest_or_deep_line_exit_5(
        self, tmp_path, capsys, line, edit, message
    ):
        log = tmp_path / "run.jsonl"
        assert main([
            "simulate", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
            "--iterations", "3", "--seed", "7", "--out", str(log),
        ]) == 0
        lines = log.read_text().splitlines()
        # A count-log manifest has no gamma1; give it one to spoil.
        lines[0] = lines[0].replace('"delta_std"', '"gamma1": [], "delta_std"')
        lines[line] = edit(lines[line])
        log.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["analyze", str(log), "--gamma1", "0.1", "--gamma2", "0.8",
                     "--mode", "expected", "--json"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (5, "")
        assert captured.err.startswith(f"error: {message}")

    def test_version_mismatch_exit_6(self, tmp_path, capsys):
        log = self.write_log(tmp_path)
        lines = log.read_text().splitlines()
        head = json.loads(lines[0])
        head["schema_version"] = 99
        lines[0] = json.dumps(head, sort_keys=True)
        log.write_text("\n".join(lines) + "\n")
        code = main([
            "analyze", str(log), "--gamma1", "0.1", "--gamma2", "0.8",
        ])
        assert code == 6

    def test_missing_file_exit_4(self, tmp_path, capsys):
        code = main([
            "analyze", str(tmp_path / "nope.jsonl"),
            "--gamma1", "0.1", "--gamma2", "0.8",
        ])
        assert code == 4

    @pytest.mark.parametrize("env, flag", [
        ("abc", []), (None, ["--seed", "-3"]),
    ])
    def test_only_stochastic_mode_resolves_the_seed(
        self, tmp_path, capsys, monkeypatch, env, flag
    ):
        # Expected mode draws nothing, so a bad mixing seed cannot stop it.
        monkeypatch.delenv("YSQHT_SEED", raising=False)
        log = self.write_log(tmp_path)
        argv = ["analyze", str(log), "--gamma1", "0.1", "--gamma2", "0.8",
                "--json", "--mode"]
        assert main(argv + ["expected"]) == 0
        clean = capsys.readouterr().out
        if env is not None:
            monkeypatch.setenv("YSQHT_SEED", env)
        assert main(argv + ["expected"] + flag) == 0
        assert capsys.readouterr().out == clean
        assert main(argv + ["stochastic"] + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("seed", ["-3", str(2**64 + 1)])
    def test_out_of_range_seed_exit_2_as_in_simulate(
        self, tmp_path, capsys, seed
    ):
        log = self.write_log(tmp_path)
        capsys.readouterr()
        message = f"error: seed must be an unsigned 64-bit integer, got {seed}\n"
        for argv in (
            ["analyze", str(log), "--gamma1", "0.1", "--gamma2", "0.8",
             "--mode", "stochastic", "--seed", seed],
            ["simulate", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
             "--seed", seed, "--out", str(tmp_path / "never.jsonl")],
        ):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "never.jsonl").exists()

    @pytest.mark.parametrize("source", ["companion", "parse"])
    @pytest.mark.parametrize("mode, q_over_p", [
        ("stochastic", None), ("expected", 3.6),
    ])
    def test_no_n2p_count_reports_every_other_estimate(
        self, tmp_path, capsys, mode, q_over_p, source
    ):
        # Three windows at one count per second: no n2p count, so q2/p2 is
        # undefined.  In stochastic mode no mixed p count is drawn either,
        # so q/p is too; expected mode weighs in the clean n1p.  Without its
        # companion the log is parsed, as a log read from a pipe is.
        log = tmp_path / "seed3.jsonl"
        assert main([
            "simulate", "--theta", "0.43633", "--delta-std", "0.69813",
            "--iterations", "3", "--rate", "1", "--seed", "3",
            "--out", str(log),
        ]) == 0
        if source == "parse":
            Path(f"{log}.columns.npz").unlink()
        capsys.readouterr()
        argv = ["analyze", str(log), "--gamma1", "0.1", "--gamma2", "0.8",
                "--seed", "3", "--mode", mode]
        code, report = run_sorted_json(capsys, argv + ["--json"])
        assert code == 0
        assert report["q1_over_p1"]["value"] == 0.4
        assert report["q2_over_p2"] == {
            "value": None, "std_error": None, "n_samples": 3,
        }
        assert report["q_over_p"]["value"] == q_over_p
        assert report["q2"]["value"] == 0.2
        code, out = run_text(capsys, argv)
        assert code == 0
        assert "q2/p2        n/a +- n/a\n" in out
        assert "q1/p1        0.400000 +- 0.24\n" in out
        # A mixed p of a few times 5e-324 overflows q/p: no finite value,
        # so null, and the output stays standard JSON.
        code, report = run_sorted_json(
            capsys, argv[:2] + ["--gamma1", "5e-324"] + argv[4:] + ["--json"])
        assert code == 0
        if mode == "expected":
            assert report["q_over_p"]["value"] is None

    @pytest.mark.parametrize("mode", ["stochastic", "expected"])
    def test_no_counts_give_undefined_estimates(self, tmp_path, capsys, mode):
        # No count at all: every estimate divides by a summed count of 0,
        # so each value and bar is undefined, null in JSON and n/a in text.
        log = tmp_path / "empty.jsonl"
        assert main([
            "simulate", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
            "--iterations", "3", "--rate", "0.001", "--seed", "1",
            "--out", str(log),
        ]) == 0
        capsys.readouterr()
        argv = ["analyze", str(log), "--gamma1", "0.1", "--gamma2", "0.8",
                "--mode", mode]
        code, report = run_sorted_json(capsys, argv + ["--json"])
        assert code == 0
        undefined = {"value": None, "std_error": None, "n_samples": 3}
        assert {name: report[name] for name, _, _ in ESTIMATORS} == {
            name: undefined for name, _, _ in ESTIMATORS
        }
        code, out = run_text(capsys, argv)
        assert code == 0
        assert out == f"3 iterations from {log}\n" + "".join(
            f"{name.replace('_over_', '/'):<12} n/a +- n/a\n"
            for name, _, _ in ESTIMATORS
        )


class TestSweep:
    def test_figure_table_of_many_blocks_is_the_tracked_one(
        self, tmp_path, capsys, monkeypatch
    ):
        # Blocks of 3 rows cut demo 04's 21-point weight sweep into 7; the
        # table, formatted block by block, is the one tracked.
        monkeypatch.setattr(logio, "BLOCK_LINES", 3)
        out = tmp_path / "t.csv"
        assert main(["sweep", "gamma2", "0:1:21", "--theta", THETA_FLAG,
                     "--delta-std", DELTA_FLAG, "--gamma1", "0.05,0.4",
                     "--seed", "1", "--with-sim", "--out", str(out)]) == 0

        def manifest(path):
            fields = json.loads(Path(f"{path}.manifest.json").read_text())
            del fields["created"]
            return fields

        tracked = DEMO_OUTPUT / "ratios_vs_gamma2.csv"
        assert out.read_bytes() == tracked.read_bytes()
        assert manifest(out) == manifest(tracked)

    def test_delta_axis_reversal_flips_at_threshold(self, tmp_path, capsys):
        out = tmp_path / "left.csv"
        code = main([
            "sweep", "delta", "0:1.1:23", "--theta", THETA_FLAG,
            "--gamma1", "0.1", "--gamma2", "0.8", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        rev = header.index("reversal")
        axis = header.index("delta_std")
        flags = []
        for line in lines[1:]:
            cells = line.split(",")
            flags.append((float(cells[axis]), cells[rev] == "true"))
        flips = [
            (flags[i][0], flags[i + 1][0])
            for i in range(len(flags) - 1)
            if flags[i][1] != flags[i + 1][1]
        ]
        assert len(flips) == 1
        lo, hi = flips[0]
        assert lo <= 0.5576022433145783 <= hi
        assert (tmp_path / "left.csv.manifest.json").exists()

    def test_readme_recipe_reruns_one_point_exactly(self, tmp_path, capsys):
        # "Reproducibility" in the README: simulate and analyze, both at
        # --seed <point seed>, give point i's counts and its stochastic
        # estimates at the first gamma1 bit for bit; the k-th gamma1 column
        # comes back from aggregate on default_rng(aggregation_seed(point
        # seed, k)).
        table = tmp_path / "right.csv"
        point = ["--theta", "0.43633", "--delta-std", "0.69813"]
        assert main(["sweep", "gamma2", "0:1:21", *point, "--gamma1",
                     "0.05,0.4", "--with-sim", "--seed", "9",
                     "--out", str(table)]) == 0
        with table.open(newline="") as fh:
            row = list(csv.DictReader(fh))[7]
        seed = point_seed(9, 7)
        log = tmp_path / "point.jsonl"
        assert main(["simulate", *point, "--seed", str(seed),
                     "--out", str(log)]) == 0
        capsys.readouterr()
        code, report = run_json(capsys, [
            "analyze", str(log), "--gamma1", "0.05", "--gamma2", row["gamma2"],
            "--seed", str(seed), "--json",
        ])
        assert code == 0
        agg = aggregate(read_count_log(log)[1], 0.4, float(row["gamma2"]),
                        np.random.default_rng(aggregation_seed(seed, 1)))
        assert [report[name][key]
                for name in ("q2_over_p2", "q_over_p")
                for key in ("value", "std_error")] + [
            agg.q_over_p.value, agg.q_over_p.std_error
        ] == [
            float(row[column]) for column in (
                "sim_q2_over_p2", "sim_q2_over_p2_err",
                "sim_q_over_p_gamma1_0.05", "sim_q_over_p_err_gamma1_0.05",
                "sim_q_over_p_gamma1_0.4", "sim_q_over_p_err_gamma1_0.4")
        ]

    def test_gamma2_axis_constant_noisy_column(self, tmp_path, capsys):
        out = tmp_path / "right.csv"
        code = main([
            "sweep", "gamma2", "0:1:21", "--theta", THETA_FLAG,
            "--delta-std", DELTA_FLAG, "--gamma1", "0.05,0.4",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("q2_over_p2")
        values = {line.split(",")[col] for line in lines[1:]}
        assert len(values) == 1
        assert float(values.pop()) == pytest.approx(
            0.902148945883963, abs=1e-12
        )

    def test_weights_against_reversal_never_flip(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = main([
            "sweep", "delta", "0:1.1:12", "--theta", THETA_FLAG,
            "--gamma1", "0.8", "--gamma2", "0.1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        rev = lines[0].split(",").index("reversal")
        assert all(line.split(",")[rev] == "false" for line in lines[1:])

    def test_with_sim_adds_monte_carlo_columns(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main([
            "sweep", "gamma2", "0:1:5", "--theta", THETA_FLAG,
            "--delta-std", DELTA_FLAG, "--gamma1", "0.05",
            "--with-sim", "--seed", "3", "--iterations", "50",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert "sim_q_over_p" in lines[0].split(",")
        manifest = json.loads(
            (tmp_path / "sim.csv.manifest.json").read_text()
        )
        assert manifest["with_sim"] is True
        assert manifest["seed"] == 3
        assert manifest["mode"] == "stochastic"

    def test_invalid_range_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main([
                "sweep", "delta", "0:1.1:1", "--theta", THETA_FLAG,
                "--gamma1", "0.1", "--gamma2", "0.8", "--out", "x.csv",
            ])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["delta", "0:inf:3", "--theta", "0.4", "--gamma1", "0.1",
         "--gamma2", "0.8", "--out", "x.csv"],
        ["gamma2", "--theta", "0.4", "--delta-std", "0.7", "--gamma1", "0.1",
         "--out", "x.csv", "--", "-1e308:1e308:3"],
    ], ids=["infinite-max", "overflowing-span"])
    def test_non_finite_range_span_exit_2(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as err:
                main(["sweep", *argv])
        assert err.value.code == 2
        given = argv[1] if argv[0] == "delta" else argv[-1]
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"ysqht sweep {argv[0]}: error: argument range: range "
            f"'{given}' must span a finite interval")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("range_, gamma1, fault", [
        ("0:1", "0.1",
         "argument range: range must be MIN:MAX:POINTS, got '0:1'"),
        ("a:1:5", "0.1", "argument range: bad range 'a:1:5': could not "
                         "convert string to float: 'a'"),
        ("1:0:5", "0.1", "argument range: range needs MIN < MAX"),
        ("0:1:5", "0.1,x", "argument --gamma1: expected comma-separated "
                           "numbers, got '0.1,x'"),
    ], ids=["two-fields", "bad-number", "reversed", "bad-gamma1-list"])
    def test_bad_range_or_gamma1_list_exit_2(
        self, tmp_path, capsys, range_, gamma1, fault
    ):
        out = tmp_path / "x.csv"
        code, stdout, err, _ = run_main([
            "sweep", "delta", range_, "--theta", "0.4", "--gamma1", gamma1,
            "--gamma2", "0.8", "--out", str(out),
        ], capsys, out)
        assert (code, stdout) == (2, "")
        assert err.splitlines()[-1] == f"ysqht sweep delta: error: {fault}"
        assert list(tmp_path.iterdir()) == []

    def test_delta_axis_degrees_convert_the_range(self, tmp_path, capsys):
        out = tmp_path / "deg.csv"
        assert main(["sweep", "delta", "10:40:4", "--degrees", "--theta",
                     "25", "--gamma1", "0.1", "--gamma2", "0.8",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "deg.csv.manifest.json").read_text())
        assert manifest["theta"] == math.radians(25)
        assert manifest["grid"] == np.linspace(
            math.radians(10), math.radians(40), 4).tolist()

    def test_gamma2_axis_degrees_leave_the_weights(self, tmp_path, capsys):
        out = tmp_path / "deg.csv"
        assert main(["sweep", "gamma2", "0.2:0.8:4", "--degrees", "--theta",
                     "25", "--delta-std", "40", "--gamma1", "0.1",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "deg.csv.manifest.json").read_text())
        assert (manifest["theta"], manifest["delta_std"]) == (
            math.radians(25), math.radians(40))
        assert manifest["grid"] == np.linspace(0.2, 0.8, 4).tolist()

    def test_delta_axis_needs_gamma2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, stdout, err, written = run_main([
            "sweep", "delta", "0:1:5", "--theta", THETA_FLAG,
            "--gamma1", "0.1", "--out", str(out),
        ], capsys, out)
        assert (code, stdout, written) == (2, "", None)
        assert err.splitlines()[-1] == (
            "ysqht sweep delta: error: the following arguments are "
            "required: --gamma2"
        )

    def test_negative_delta_range_exit_2_leaves_no_file(
        self, tmp_path, capsys
    ):
        # "--" ends the options, so that the range may start with "-".
        code = main([
            "sweep", "delta", "--theta", THETA_FLAG, "--gamma1", "0.1",
            "--gamma2", "0.8", "--with-sim", "--iterations", "20",
            "--out", str(tmp_path / "neg.csv"), "--", "-0.1:1:5",
        ])
        assert code == 2
        assert "delta_std grid must be non-negative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, dashed, fault", [
        (["sweep", "delta", "-0.1:1:5", "--theta", "0.4", "--gamma1", "0.1",
          "--gamma2", "0.8", "--out", "x.csv"], "-0.1:1:5",
         "sweep delta: error: the following arguments are required: range"),
        (["sweep", "gamma2", "0:1:5", "--theta", "0.4", "--delta-std", "0.7",
          "--gamma1", "-0.1,0.2", "--out", "x.csv"], "-0.1,0.2",
         "sweep gamma2: error: argument --gamma1: expected one argument"),
        (["theory", "--theta", "-1e-3", "--gamma1", "0.1", "--gamma2",
          "0.8"], "-1e-3",
         "theory: error: argument --theta: expected one argument"),
    ], ids=["range", "gamma1-list", "exponent"])
    def test_dashed_value_usage_error_says_how_to_give_it(
        self, tmp_path, capsys, monkeypatch, argv, dashed, fault
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit:
            main(argv)
        assert exit.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"ysqht {fault} ('{dashed}' starts with '-', so it was read as an "
            "option: a value that starts with '-' must follow '--' at the end "
            "of the command, or be joined to its option by '=', as in "
            "--gamma1=-0.1,0.2)"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, fault", [
        (["sweep", "delta", "--theta", "0.4", "--gamma1", "0.1", "--gamma2",
          "0.8", "--out", "x.csv", "--", "-0.1:1:5"],
         "delta_std grid must be non-negative"),
        (["sweep", "gamma2", "0:1:5", "--theta", "0.4", "--delta-std", "0.7",
          "--gamma1=-0.1,0.2", "--out", "x.csv"],
         "gamma1 must be in [0, 1], got -0.1"),
    ], ids=["range-after-dashes", "joined-gamma1-list"])
    def test_dashed_value_given_as_told_reaches_its_check(
        self, tmp_path, capsys, monkeypatch, argv, fault
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {fault}\n"
        assert list(tmp_path.iterdir()) == []

    def test_other_usage_errors_get_no_dash_hint(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, err, _ = run_main(
            ["sweep", "gamma2", "0:1:5", "--theta", "-0.4", "--delta-std",
             "0.7", "--gamma1", "0.1"], capsys, out)
        assert code == 2
        assert err.splitlines()[-1] == (
            "ysqht sweep gamma2: error: the following arguments are "
            "required: --out"
        )

    def test_duplicate_gamma1_exit_2(self, tmp_path, capsys):
        out = tmp_path / "dup.csv"
        code = main([
            "sweep", "gamma2", "0:1:5", "--theta", THETA_FLAG,
            "--delta-std", DELTA_FLAG, "--gamma1", "0.1,0.10",
            "--out", str(out),
        ])
        assert code == 2
        assert "gamma1 value 0.1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["stochastic", "expected"])
    def test_no_counts_write_undefined_sim_cells(self, tmp_path, capsys,
                                                 mode):
        # No grid point draws a count: each sim_* cell divides by a summed
        # count of 0 and reads nan, as an undefined error bar already did.
        out = tmp_path / "sim.csv"
        code = main([
            "sweep", "gamma2", "0:1:3", "--theta", THETA_FLAG,
            "--delta-std", DELTA_FLAG, "--gamma1", "0.05", "--with-sim",
            "--iterations", "3", "--rate", "0.001", "--mode", mode,
            "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            sim = [cell for name, cell in row.items()
                   if name.startswith("sim_")]
            assert sim == ["nan"] * 4

    def test_low_rate_runs_quietly(self, tmp_path, capsys):
        # The error bars follow the summed counts, so a low rate per window
        # is no reason to warn.
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            AcquisitionConfig(
                theta=0.4, noise=NoiseParams(0.7), seed=1, mean_rate=2.0
            )
            assert main([
                "simulate", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
                "--iterations", "40", "--rate", "2", "--seed", "3",
                "--out", str(tmp_path / "low.jsonl"),
            ]) == 0
        assert record == []

    def test_gamma2_axis_needs_delta_std(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, stdout, err, written = run_main([
            "sweep", "gamma2", "0:1:5", "--theta", THETA_FLAG,
            "--gamma1", "0.1", "--out", str(out),
        ], capsys, out)
        assert (code, stdout, written) == (2, "", None)
        assert err.splitlines()[-1] == (
            "ysqht sweep gamma2: error: the following arguments are "
            "required: --delta-std"
        )

    @pytest.mark.parametrize("order", ["after-range", "before-range"])
    @pytest.mark.parametrize("axis, fixed, other, owner", [
        ("delta", ["--gamma2", "0.8"], ["--delta-std", "0.7"], "gamma2"),
        ("gamma2", ["--delta-std", "0.7"], ["--gamma2", "0.3"], "delta"),
        # argparse reads an unambiguous prefix of an option as the option.
        ("delta", ["--gamma2", "0.8"], ["--delta-s", "0.7"], "gamma2"),
        ("delta", ["--gamma2", "0.8"], ["--delta", "0.7"], "gamma2"),
        ("delta", ["--gamma2", "0.8"], ["--del=0.7"], "gamma2"),
    ])
    def test_axis_refuses_the_other_axis_fixed_value(
        self, tmp_path, capsys, axis, fixed, other, owner, order
    ):
        # Each axis fixes one parameter and takes the other from the range.
        # Before the range, argparse alone would skip the unknown option and
        # report its value as a bad range.
        option = {"gamma2": "--delta-std", "delta": "--gamma2"}[owner]
        out = tmp_path / "x.csv"
        options = ["--theta", THETA_FLAG, "--gamma1", "0.1", *fixed,
                   "--out", str(out)]
        argv = ([*other, "0:1:5", *options] if order == "before-range"
                else ["0:1:5", *options, *other])
        code, stdout, err, _ = run_main(["sweep", axis, *argv], capsys, out)
        assert (code, stdout) == (2, "")
        assert err.splitlines()[-1] == (
            f"ysqht sweep {axis}: error: {option} is an option of "
            f"'ysqht sweep {owner}': this axis sweeps that value over its "
            "range"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("axis, given, name, value", [
        ("delta", ["--deg", "--gamma1", "0.1", "--gamma2", "0.8"],
         "degrees", True),
        ("delta", ["--d", "--gamma1", "0.1", "--gamma2", "0.8"],
         "degrees", True),
        ("gamma2", ["--gamma", "0.1", "--delta-std", "0.7"], "gamma1",
         (0.1,)),
    ])
    def test_axis_keeps_prefixes_of_its_own_options(
        self, axis, given, name, value
    ):
        # A prefix of one of the axis's own options is that option, also
        # where it is a prefix of the other axis's option too.
        args = cli._build_parser().parse_args([
            "sweep", axis, "0:1:5", "--theta", "0.4", *given,
            "--out", "x.csv",
        ])
        assert getattr(args, name) == value

    @pytest.mark.parametrize("axis, listed, absent", [
        ("delta", "--gamma2", "--delta-std"),
        ("gamma2", "--delta-std", "--gamma2"),
    ])
    def test_axis_help_lists_only_its_fixed_value(
        self, capsys, axis, listed, absent
    ):
        with pytest.raises(SystemExit) as exit:
            main(["sweep", axis, "--help"])
        assert exit.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: ysqht sweep {axis} ")
        assert f" {listed} " in text and absent not in text


FIG2_POINT = ["--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
              "--gamma1", "0.05", "--gamma2", "0.8"]
NOISELESS_POINT = ["--theta", THETA_FLAG, "--gamma1", "0.1", "--gamma2", "0.8"]
WIDE_TILT_POINT = ["--theta", "1.0", "--delta-std", "0.5",
                   "--gamma1", "0.1", "--gamma2", "0.8"]
# Equal weights of 1 make the noise threshold's denominator vanish.
DIVERGING_POINT = ["--theta", "0.4", "--gamma1", "1", "--gamma2", "1"]

WIDE_TILT_ERROR = (
    "threshold formulas require 0 < theta < pi/4 (hypotheses only slightly "
    "tilted), got 1.0"
)

THEORY_TEXT = {
    "fig2": """\
theta (rad)            0.436332
delta_std (rad)        0.698132
smearing               0.377277
gamma1                 0.05
gamma2                 0.8
p1                     1.000000
q1                     0.821394
p2                     0.688638
q2                     0.621254
p                      0.704207
q                      0.781366
q1_over_p1             0.821394
q2_over_p2             0.902149
q_over_p               1.109569
gamma2_threshold       0.414472 (reachable)
delta_threshold        smearing 0.565140 -> delta_std 0.534173 rad
pairs_feasible         true (smearing < 2 cos 2theta)
reversal               true
""",
    "noiseless": """\
theta (rad)            0.436332
gamma1                 0.1
gamma2                 0.8
p1                     1.000000
q1                     0.821394
gamma2_threshold       needs --delta-std
delta_threshold        smearing 0.536955 -> delta_std 0.557602 rad
""",
    "wide": f"""\
theta (rad)            1.000000
delta_std (rad)        0.500000
smearing               0.606531
gamma1                 0.1
gamma2                 0.8
p1                     1.000000
q1                     0.291927
p2                     0.803265
q2                     0.373797
p                      0.822939
q                      0.308301
q1_over_p1             0.291927
q2_over_p2             0.465347
q_over_p               0.374634
gamma2_threshold       unavailable ({WIDE_TILT_ERROR})
delta_threshold        unavailable ({WIDE_TILT_ERROR})
reversal               false
""",
    "diverging": """\
theta (rad)            0.400000
gamma1                 1.0
gamma2                 1.0
p1                     1.000000
q1                     0.848353
gamma2_threshold       needs --delta-std
delta_threshold        unreachable (no noise level reverses)
""",
}

THEORY_POINTS = {
    "fig2": FIG2_POINT,
    "noiseless": NOISELESS_POINT,
    "wide": WIDE_TILT_POINT,
    "diverging": DIVERGING_POINT,
}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run_text(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


def run_sorted_json(capsys, argv):
    """Exit code and parsed report of a ``--json`` command, whose output is
    one line of standard JSON with sorted keys."""
    code, out = run_text(capsys, argv)
    report = strict_json(out)
    assert out == json.dumps(report, sort_keys=True) + "\n"
    return code, report


def estimate_fields(estimate):
    return {
        "value": estimate.value,
        "std_error": estimate.std_error,
        "n_samples": estimate.n_samples,
    }


def library_analysis(log, gamma1, gamma2, mode, seed):
    """The seven estimates of ``analyze`` by name, in the order of
    ``ESTIMATORS``, and the result they come from, computed in process."""
    _, counts = read_count_log(log)
    rng = (np.random.default_rng(aggregation_seed(seed))
           if mode == "stochastic" else None)
    result = aggregate(counts, gamma1, gamma2, rng)
    return result, {name: getattr(result, name) for name, _, _ in ESTIMATORS}


class TestPinnedOutput:
    """The exact text and values each command writes."""

    @pytest.fixture(scope="class")
    def logs(self, tmp_path_factory):
        """A seeded 300-iteration log, and a 40-iteration log at a rate so
        low that 4 iterations have n1p = 0."""
        folder = tmp_path_factory.mktemp("logs")
        plain, sparse = folder / "plain.jsonl", folder / "sparse.jsonl"
        assert main(["simulate", "--theta", THETA_FLAG, "--delta-std",
                     DELTA_FLAG, "--iterations", "300", "--seed", "7",
                     "--out", str(plain)]) == 0
        assert main(["simulate", "--theta", THETA_FLAG, "--delta-std",
                     DELTA_FLAG, "--iterations", "40", "--rate", "2",
                     "--seed", "3", "--out", str(sparse)]) == 0
        return {"plain": plain, "sparse": sparse}

    @pytest.mark.parametrize("point", sorted(THEORY_TEXT))
    def test_theory_text(self, capsys, point):
        code, out = run_text(capsys, ["theory"] + THEORY_POINTS[point])
        assert code == 0
        assert out == THEORY_TEXT[point]

    def test_theory_json_noisy(self, capsys):
        code, report = run_sorted_json(capsys, ["theory"] + FIG2_POINT
                                       + ["--json"])
        noise = NoiseParams(DELTA_FIG2)
        o = outcome_probabilities(ScenarioParams(THETA_B, noise, 0.05, 0.8))
        thr = gamma2_threshold(0.05, THETA_B, noise)
        dth = delta_threshold(0.05, 0.8, THETA_B)
        assert code == 0
        assert report == {
            "theta": THETA_B,
            "delta_std": DELTA_FIG2,
            "smearing": noise.smearing,
            "gamma1": 0.05,
            "gamma2": 0.8,
            "probabilities": {"p1": o.p1, "q1": o.q1, "p2": o.p2,
                              "q2": o.q2, "p": o.p, "q": o.q},
            "ratios": {"q1_over_p1": o.q1 / o.p1, "q2_over_p2": o.q2 / o.p2,
                       "q_over_p": o.q / o.p},
            "verdict": {"clean_favors_a": True, "noisy_favors_a": True,
                        "aggregated_favors_b": True, "reversal": True},
            "gamma2_threshold": {"value": thr.value, "reachable": True},
            "delta_threshold": {"smearing": dth.smearing,
                                "delta_std": dth.delta_std,
                                "reachable": True, "feasible": True},
            "pairs_feasible": True,
        }

    def test_theory_json_noiseless(self, capsys):
        code, report = run_sorted_json(capsys, ["theory"] + NOISELESS_POINT
                                       + ["--json"])
        o = outcome_probabilities(
            ScenarioParams(THETA_B, NoiseParams(0.0), 0.1, 0.8)
        )
        dth = delta_threshold(0.1, 0.8, THETA_B)
        assert code == 0
        assert report == {
            "theta": THETA_B,
            "delta_std": None,
            "smearing": None,
            "gamma1": 0.1,
            "gamma2": 0.8,
            "probabilities": {"p1": o.p1, "q1": o.q1},
            "verdict": None,
            "gamma2_threshold": None,
            "delta_threshold": {"smearing": dth.smearing,
                                "delta_std": dth.delta_std,
                                "reachable": True, "feasible": True},
            "pairs_feasible": None,
        }

    def test_theory_json_wide_tilt(self, capsys):
        code, report = run_sorted_json(capsys, ["theory"] + WIDE_TILT_POINT
                                       + ["--json"])
        noise = NoiseParams(0.5)
        o = outcome_probabilities(ScenarioParams(1.0, noise, 0.1, 0.8))
        assert code == 0
        assert report == {
            "theta": 1.0,
            "delta_std": 0.5,
            "smearing": noise.smearing,
            "gamma1": 0.1,
            "gamma2": 0.8,
            "probabilities": {"p1": o.p1, "q1": o.q1, "p2": o.p2,
                              "q2": o.q2, "p": o.p, "q": o.q},
            "ratios": {"q1_over_p1": o.q1 / o.p1, "q2_over_p2": o.q2 / o.p2,
                       "q_over_p": o.q / o.p},
            "verdict": {"clean_favors_a": True, "noisy_favors_a": True,
                        "aggregated_favors_b": False, "reversal": False},
            "gamma2_threshold": {"error": WIDE_TILT_ERROR},
            "delta_threshold": {"error": WIDE_TILT_ERROR},
            "pairs_feasible": None,
        }

    def test_theory_json_diverging_threshold_is_null(self, capsys):
        code, report = run_sorted_json(capsys, ["theory"] + DIVERGING_POINT
                                       + ["--json"])
        assert code == 0
        assert report["delta_threshold"] == {
            "smearing": None, "delta_std": None,
            "reachable": False, "feasible": False,
        }

    @pytest.mark.parametrize("argv", [
        ["theory"] + point + ["--json"] for point in THEORY_POINTS.values()
    ] + [
        ["analyze", "sparse", "--gamma1", "0.05", "--gamma2", "0.8",
         "--mode", mode, "--json"] for mode in ("stochastic", "expected")
    ], ids=[*THEORY_POINTS, "analyze-stochastic", "analyze-expected"])
    def test_json_output_is_standard(self, capsys, logs, argv):
        argv = [str(logs.get(arg, arg)) for arg in argv]
        assert main(argv) == 0
        strict_json(capsys.readouterr().out)

    @pytest.mark.parametrize("mode", ["stochastic", "expected"])
    @pytest.mark.parametrize("log", ["plain", "sparse"])
    def test_analyze_json(self, capsys, logs, log, mode):
        code, report = run_sorted_json(capsys, [
            "analyze", str(logs[log]), "--gamma1", "0.05", "--gamma2", "0.8",
            "--mode", mode, "--seed", "13", "--json",
        ])
        result, estimates = library_analysis(logs[log], 0.05, 0.8, mode, 13)
        assert code == 0
        assert result.excluded == 0
        assert report == {
            "log_seed": 7 if log == "plain" else 3,
            "gamma1": 0.05,
            "gamma2": 0.8,
            "mode": mode,
            "excluded": result.excluded,
            **{name: estimate_fields(estimate)
               for name, estimate in estimates.items()},
        }

    @pytest.mark.parametrize("mode", ["stochastic", "expected"])
    def test_analyze_text(self, capsys, logs, mode):
        log = logs["plain"]
        code, out = run_text(capsys, [
            "analyze", str(log), "--gamma1", "0.05", "--gamma2", "0.8",
            "--mode", mode, "--seed", "13",
        ])
        _, estimates = library_analysis(log, 0.05, 0.8, mode, 13)
        lines = [f"300 iterations from {log}"]
        for name, estimate in estimates.items():
            lines.append(f"{name.replace('_over_', '/'):<12} "
                         f"{estimate.value:.6f} "
                         f"+- {estimate.std_error:.2g}")
        assert code == 0
        assert out == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("mode, aggregated", [
        ("stochastic", """\
p            0.619565 +- 0.11
q            0.597826 +- 0.082
q/p          0.964912 +- 0.19
"""),
        ("expected", """\
p            0.638587 +- 0.11
q            0.634783 +- 0.082
q/p          0.994043 +- 0.19
"""),
    ], ids=["stochastic", "expected"])
    def test_analyze_text_with_exclusions(self, capsys, logs, mode,
                                          aggregated):
        log = logs["sparse"]
        code, out = run_text(capsys, [
            "analyze", str(log), "--gamma1", "0.05", "--gamma2", "0.8",
            "--mode", mode, "--seed", "13",
        ])
        assert code == 0
        assert out == f"""\
40 iterations from {log}
q1/p1        0.673913 +- 0.095
p2           0.619565 +- 0.11
q2           0.478261 +- 0.081
q2/p2        0.771930 +- 0.16
""" + aggregated

    def test_analyze_zero_numerator_has_no_error_bar(self, tmp_path, capsys):
        # n * lambda = 4: no n2q count in 20 windows, so q2 and q2/p2 are 0
        # with an undefined error bar, written n/a and null.
        log = tmp_path / "zero.jsonl"
        assert main(["simulate", "--theta", "0.43633", "--delta-std", "0.7",
                     "--iterations", "20", "--rate", "0.2", "--seed", "156",
                     "--out", str(log)]) == 0
        capsys.readouterr()
        argv = ["analyze", str(log), "--gamma1", "0.1", "--gamma2", "0.8",
                "--mode", "expected"]
        code, out = run_text(capsys, argv)
        assert code == 0
        assert out == f"""\
20 iterations from {log}
q1/p1        1.750000 +- 1.1
p2           0.250000 +- 0.29
q2           0.000000 +- n/a
q2/p2        0.000000 +- n/a
p            0.325000 +- 0.26
q            1.400000 +- 0.91
q/p          4.307692 +- 2.5
"""
        code, report = run_sorted_json(capsys, argv + ["--json"])
        assert code == 0
        assert report["q2"] == report["q2_over_p2"] == {
            "value": 0.0, "std_error": None, "n_samples": 20,
        }
        assert report["p2"]["std_error"] > 0.0

    def test_simulate_status_line(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert main(["simulate", "--theta", THETA_FLAG, "--delta-std",
                     DELTA_FLAG, "--iterations", "30", "--seed", "7",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"wrote 30 records to {out}\n"

    @pytest.mark.parametrize("extra", [
        [], ["--with-sim", "--iterations", "20", "--seed", "3"],
    ])
    def test_sweep_status_line(self, tmp_path, capsys, extra):
        out = tmp_path / "table.csv"
        assert main(["sweep", "gamma2", "0:1:5", "--theta", THETA_FLAG,
                     "--delta-std", DELTA_FLAG, "--gamma1", "0.05",
                     "--out", str(out)] + extra) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"wrote 5 rows to {out} (manifest {out}.manifest.json)\n"
        )
