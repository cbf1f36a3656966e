"""End-to-end tests of the command-line interface and its exit-code protocol."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ysqht
from ysqht import (
    AcquisitionConfig,
    NoiseParams,
    aggregate,
    estimate_ratios,
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

    @pytest.mark.parametrize("mode", ["stochastic", "expected"])
    def test_no_usable_iterations_exit_7(self, tmp_path, capsys, mode):
        log = tmp_path / "empty.jsonl"
        with pytest.warns(UserWarning, match="expected counts per window"):
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
        with pytest.warns(UserWarning, match="expected counts per window"):
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

    def test_low_count_warning_names_the_command_once(self, tmp_path,
                                                      capsys):
        # One warning for the base configuration, none for the per-point
        # configurations that share its rate and window.
        with pytest.warns(UserWarning) as record:
            assert main([
                "sweep", "delta", "0:1:4", "--theta", THETA_FLAG,
                "--gamma1", "0.05", "--gamma2", "0.8", "--with-sim",
                "--iterations", "40", "--rate", "20", "--seed", "2",
                "--out", str(tmp_path / "low.csv"),
            ]) == 0
        assert [w.filename for w in record] == [cli.__file__]
        assert "expected counts per window = 20" in str(record[0].message)

    def test_gamma2_axis_needs_delta_std(self, tmp_path, capsys):
        code = main([
            "sweep", "gamma2", "0:1:5", "--theta", THETA_FLAG,
            "--gamma1", "0.1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
