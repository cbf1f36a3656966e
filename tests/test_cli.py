"""End-to-end tests of the command-line interface and its exit-code protocol."""

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
    delta_threshold,
    estimate_ratios,
    gamma2_threshold,
    outcome_probabilities,
    read_count_log,
    run_acquisition,
)
from ysqht import cli
from ysqht.cli import main

THETA_B = 5.0 * math.pi / 36.0
DELTA_FIG2 = 2.0 * math.pi / 9.0

THETA_FLAG = repr(THETA_B)
DELTA_FLAG = repr(DELTA_FIG2)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate serves only the quadrature cross-check; loading it
    # with the CLI would add about 50 MB and 0.6 s to every command.
    env = dict(os.environ, PYTHONPATH=str(Path(ysqht.__file__).parents[1]))
    probe = "import sys, ysqht.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=env, check=True,
    )
    assert result.stdout.strip() == "False"


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
        assert head["schema_version"] == 2

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
        assert record["alpha"] == 0.0
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
        summary = estimate_ratios(counts)
        agg = aggregate(
            counts, 0.1, 0.8, np.random.default_rng(13), "stochastic"
        )
        assert report["q1_over_p1"]["value"] == summary.q1_over_p1.value
        assert report["q1_over_p1"]["std_error"] == summary.q1_over_p1.std_error
        assert report["q2_over_p2"]["value"] == summary.q2_over_p2.value
        assert report["q_over_p"]["value"] == agg.q_over_p.value
        assert report["q_over_p"]["std_error"] == agg.q_over_p.std_error
        assert report["excluded"] == 0

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

    @pytest.mark.parametrize("key, digits", [("alpha", 401), ("n1p", 5001)])
    def test_huge_number_exit_5(self, tmp_path, capsys, key, digits):
        # Too large for a float, or too many digits for the JSON parser.
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

    @pytest.mark.parametrize("mode", ["stochastic", "expected"])
    def test_no_usable_iterations_exit_7(self, tmp_path, capsys, mode):
        log = tmp_path / "empty.jsonl"
        assert main([
            "simulate", "--theta", THETA_FLAG, "--delta-std", DELTA_FLAG,
            "--iterations", "3", "--rate", "0.001", "--seed", "1",
            "--out", str(log),
        ]) == 0
        capsys.readouterr()
        code = main([
            "analyze", str(log), "--gamma1", "0.1", "--gamma2", "0.8",
            "--mode", mode, "--json",
        ])
        captured = capsys.readouterr()
        assert code == 7
        assert captured.out == ""
        assert captured.err == (
            "error: every iteration had n1p = 0; nothing to normalize by\n"
        )


class TestSweep:
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

    def test_delta_axis_needs_gamma2(self, tmp_path, capsys):
        code = main([
            "sweep", "delta", "0:1:5", "--theta", THETA_FLAG,
            "--gamma1", "0.1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "gamma2" in capsys.readouterr().err

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
    def test_no_usable_iterations_exit_7_leaves_no_file(
        self, tmp_path, capsys, mode
    ):
        out = tmp_path / "sim.csv"
        code = main([
            "sweep", "gamma2", "0:1:3", "--theta", THETA_FLAG,
            "--delta-std", DELTA_FLAG, "--gamma1", "0.05", "--with-sim",
            "--iterations", "3", "--rate", "0.001", "--mode", mode,
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 7
        assert captured.out == ""
        assert captured.err == (
            "error: every iteration had n1p = 0; nothing to normalize by\n"
        )
        assert list(tmp_path.iterdir()) == []

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
        code = main([
            "sweep", "gamma2", "0:1:5", "--theta", THETA_FLAG,
            "--gamma1", "0.1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2


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
        "poisson_error": estimate.poisson_error,
    }


def library_analysis(log, gamma1, gamma2, mode, seed):
    """The seven estimates of ``analyze``, labelled as its text output labels
    them, and the summary they come from, computed in process."""
    _, counts = read_count_log(log)
    summary = estimate_ratios(counts)
    agg = aggregate(counts, gamma1, gamma2, np.random.default_rng(seed), mode)
    return summary, {
        "q1/p1": summary.q1_over_p1,
        "p2": summary.p2,
        "q2": summary.q2,
        "q2/p2": summary.q2_over_p2,
        "p": agg.p,
        "q": agg.q,
        "q/p": agg.q_over_p,
    }


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
        summary, estimates = library_analysis(logs[log], 0.05, 0.8, mode, 13)
        assert code == 0
        assert summary.excluded == 0
        assert report == {
            "log_seed": 7 if log == "plain" else 3,
            "gamma1": 0.05,
            "gamma2": 0.8,
            "mode": mode,
            "excluded": summary.excluded,
            **{label.replace("/", "_over_"): estimate_fields(estimate)
               for label, estimate in estimates.items()},
        }

    @pytest.mark.parametrize("mode", ["stochastic", "expected"])
    def test_analyze_text(self, capsys, logs, mode):
        log = logs["plain"]
        code, out = run_text(capsys, [
            "analyze", str(log), "--gamma1", "0.05", "--gamma2", "0.8",
            "--mode", mode, "--seed", "13",
        ])
        _, estimates = library_analysis(log, 0.05, 0.8, mode, 13)
        lines = [f"300 iterations from {log} (0 excluded for n1p = 0)"]
        for label, estimate in estimates.items():
            line = (f"{label:<12} {estimate.value:.6f} "
                    f"+- {estimate.std_error:.2g}")
            if estimate.poisson_error is not None:
                line += (f"  (poisson cross-check "
                         f"+- {estimate.poisson_error:.2g})")
            lines.append(line)
        assert code == 0
        assert out == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("mode, aggregated", [
        ("stochastic", """\
p            0.673913 +- 0.11
q            0.706522 +- 0.11
q/p          1.048387 +- 0.21
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
40 iterations from {log} (0 excluded for n1p = 0)
q1/p1        0.673913 +- 0.095  (poisson cross-check +- 0.11)
p2           0.619565 +- 0.11  (poisson cross-check +- 0.1)
q2           0.478261 +- 0.081  (poisson cross-check +- 0.088)
q2/p2        0.771930 +- 0.16  (poisson cross-check +- 0.15)
""" + aggregated

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
