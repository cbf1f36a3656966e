"""Tests for the count-log and sweep-table file formats."""

import contextlib
import dataclasses
import errno
import hashlib
import itertools
import json
import math
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

from ysqht import (
    AcquisitionConfig,
    Counts,
    LogFormatError,
    ManifestVersionError,
    NoiseParams,
    RunManifest,
    Sweep,
    read_count_log,
    run_acquisition,
    simulate_sweep,
    sweep_delta,
    sweep_gamma2,
    sweep_table,
    write_count_log,
    write_sweep_csv,
)
from ysqht import logio
from ysqht.logio import READ_CHUNK_LINES, RECORD_LINE

THETA_B = 5.0 * math.pi / 36.0


def make_config(**kwargs):
    defaults = dict(
        theta=THETA_B, noise=NoiseParams(0.3), seed=99, iterations=20
    )
    defaults.update(kwargs)
    return AcquisitionConfig(**defaults)


def write_log(path, **kwargs):
    """Simulate a run into ``path``; returns its config and counts."""
    config = make_config(**kwargs)
    counts = run_acquisition(config)
    write_count_log(path, config, counts)
    return config, counts


def assert_same_counts(a, b):
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.counts, b.counts)


def companion_of(path):
    return path.with_name(path.name + logio.COLUMNS_SUFFIX)


def read_counting_parses(path):
    """``read_count_log(path)`` and the number of record chunks it parsed,
    0 when it took the columns from the log's companion."""
    calls = []
    parse = logio._parse_chunk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logio, "_parse_chunk",
                      lambda *args: calls.append(args) or parse(*args))
        return read_count_log(path), len(calls)


def assert_same_bits(a, b):
    """Two ``read_count_log`` results are equal bit for bit, so that a
    negative zero tilt differs from a positive one."""
    (manifest_a, counts_a), (manifest_b, counts_b) = a, b
    assert manifest_a == manifest_b
    for x, y in [(counts_a.alpha, counts_b.alpha),
                 (counts_a.counts, counts_b.counts)]:
        assert (x.dtype, x.shape) == (y.dtype, y.shape)
        assert x.tobytes() == y.tobytes()


def read_both_ways(path):
    """The log at ``path`` read through the companion its writer left, and
    again parsed once the companion is gone: the two must agree bit for
    bit.  Returns the parsed result."""
    cached, parses = read_counting_parses(path)
    assert parses == 0
    companion_of(path).unlink()
    parsed, parses = read_counting_parses(path)
    assert parses > 0
    assert_same_bits(cached, parsed)
    return parsed


class TestRecordLines:
    def test_alpha_survives_17_digit_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        alpha = rng.normal(0.0, 1.0, 200) * 10.0 ** rng.integers(-8, 3, 200)
        path = tmp_path / "run.jsonl"
        write_count_log(path, make_config(iterations=alpha.size),
                        Counts(alpha, np.ones((alpha.size, 4), np.int64)))
        lines = path.read_text().splitlines()[1:]
        assert [json.loads(line)["alpha"] for line in lines] == alpha.tolist()

    def test_line_is_flat_json(self):
        line = RECORD_LINE % (7, -0.25, 10, 9, 8, 7)
        assert json.loads(line) == {
            "i": 7, "alpha": -0.25, "n1p": 10, "n1q": 9, "n2p": 8, "n2q": 7,
        }

    def test_negative_zero_tilt_keeps_its_sign(self, tmp_path):
        # "-0" would read back as the integer 0, a positive zero.
        alpha = [-0.0, 0.0, -1.5, -0.0]
        config = make_config(iterations=len(alpha))
        path = tmp_path / "run.jsonl"
        write_count_log(path, config, Counts(alpha, [[1, 1, 1, 1]] * 4))
        lines = path.read_text().splitlines()
        assert [json.loads(line)["alpha"] for line in lines[1:]] == alpha
        assert '"alpha": -0.0,' in lines[1] and '"alpha": 0,' in lines[2]
        assert [math.copysign(1.0, json.loads(line)["alpha"])
                for line in lines[1:]] == [-1.0, 1.0, -1.0, -1.0]
        loaded = read_both_ways(path)[1].alpha
        assert np.signbit(loaded).tolist() == [True, False, True, True]
        assert np.array_equal(loaded, alpha)

    def test_negative_zero_written_as_minus_0_still_reads(self, tmp_path):
        # Older writers wrote a negative zero tilt as "-0": it reads as zero.
        config = make_config(iterations=1)
        path = tmp_path / "run.jsonl"
        manifest = logio.manifest_for_acquisition(config)
        path.write_text(manifest.to_json() + "\n"
                        '{"i": 0, "alpha": -0, "n1p": 1, "n1q": 1, '
                        '"n2p": 1, "n2q": 1}\n')
        assert read_count_log(path)[1].alpha.tolist() == [0.0]

    def test_negative_zero_keeps_its_sign_across_a_chunk_boundary(
        self, tmp_path
    ):
        n = READ_CHUNK_LINES + 2
        alpha = np.full(n, 0.5)
        alpha[[READ_CHUNK_LINES - 1, READ_CHUNK_LINES]] = -0.0
        path = tmp_path / "run.jsonl"
        write_count_log(path, make_config(iterations=n),
                        Counts(alpha, np.ones((n, 4), np.int64)))
        lines = path.read_text().splitlines()
        for k in (READ_CHUNK_LINES - 1, READ_CHUNK_LINES):
            assert f'{{"i": {k}, "alpha": -0.0,' in lines[k + 1]
        assert '"alpha": 0.5,' in lines[READ_CHUNK_LINES + 2]
        loaded = read_both_ways(path)[1].alpha
        assert np.flatnonzero(np.signbit(loaded)).tolist() == [
            READ_CHUNK_LINES - 1, READ_CHUNK_LINES,
        ]
        assert np.array_equal(loaded, alpha)

    def test_record_bytes_pinned_across_write_chunks(self, tmp_path):
        # 10,000 records take three write chunks; the digest is that of the
        # record lines written in one piece, before the writes were chunked.
        path = tmp_path / "run.jsonl"
        write_log(path, seed=1, iterations=10_000)
        records = path.read_bytes().split(b"\n", 1)[1]
        assert records.count(b"\n") == 10_000
        assert hashlib.sha256(records).hexdigest() == (
            "3315fa5114339d2cb67ab079f5263685fd5df0501f77b19a9cc96c525c0d4f21"
        )

    def test_write_memory_does_not_grow_with_the_log(self, tmp_path):
        def write_peak(n):
            config = make_config(seed=1, iterations=n)
            counts = run_acquisition(config)
            tracemalloc.start()
            try:
                write_count_log(tmp_path / f"run{n}.jsonl", config, counts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = write_peak(10_000), write_peak(150_000)
        assert large < 4e6
        assert large <= 1.2 * small


class TestCountLogRoundTrip:
    def test_records_round_trip_exactly(self, tmp_path):
        path = tmp_path / "run.jsonl"
        config, counts = write_log(path)
        manifest, loaded = read_both_ways(path)
        assert_same_counts(loaded, counts)
        assert manifest.schema_version == 2
        assert manifest.seed == config.seed
        assert manifest.iterations == config.iterations
        assert manifest.theta == config.theta
        assert manifest.delta_std == config.noise.delta_std

    def test_strided_counts_round_trip_exactly(self, tmp_path):
        # Every other iteration of a run: columns that are views with a
        # stride, which the companion stores as contiguous members.
        config, counts = write_log(tmp_path / "full.jsonl", iterations=40)
        strided = Counts(counts.alpha[::2], counts.counts[::2, ::-1])
        assert not strided.alpha.flags.c_contiguous
        assert not strided.counts.flags.c_contiguous
        path = tmp_path / "run.jsonl"
        write_count_log(path, dataclasses.replace(config, iterations=20),
                        strided)
        assert_same_counts(read_both_ways(path)[1], strided)

    def test_rerun_is_identical_except_timestamp(self, tmp_path):
        config = make_config()
        counts = run_acquisition(config)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_count_log(first, config, counts)
        write_count_log(second, config, counts)
        a_lines = first.read_text().splitlines()
        b_lines = second.read_text().splitlines()
        assert a_lines[1:] == b_lines[1:]
        a_head = json.loads(a_lines[0])
        b_head = json.loads(b_lines[0])
        a_head.pop("created")
        b_head.pop("created")
        assert a_head == b_head

    def test_corrupt_line_reports_number(self, tmp_path):
        config = make_config(iterations=3)
        path = tmp_path / "run.jsonl"
        write_count_log(path, config, run_acquisition(config))
        lines = path.read_text().splitlines()
        lines[2] = '{"i": 1, "alpha": 0.1, "n1p": -3, "n1q": 1, "n2p": 1, "n2q": 1}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError, match="line 3") as err:
            read_count_log(path)
        assert err.value.line_number == 3

    def test_truncated_json_reports_number(self, tmp_path):
        config = make_config(iterations=3)
        path = tmp_path / "run.jsonl"
        write_count_log(path, config, run_acquisition(config))
        with path.open("a") as handle:
            handle.write('{"i": 3, "alpha"\n')
        with pytest.raises(LogFormatError, match="line 5"):
            read_count_log(path)

    def test_unknown_schema_version_rejected(self, tmp_path):
        config = make_config(iterations=2)
        path = tmp_path / "run.jsonl"
        write_count_log(path, config, run_acquisition(config))
        lines = path.read_text().splitlines()
        head = json.loads(lines[0])
        head["schema_version"] = 99
        lines[0] = json.dumps(head, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestVersionError, match="schema_version"):
            read_count_log(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "sweep-as-log.jsonl"
        manifest = RunManifest(kind="sweep")
        path.write_text(manifest.to_json() + "\n")
        with pytest.raises(LogFormatError, match="count-log"):
            read_count_log(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(LogFormatError, match="manifest"):
            read_count_log(path)


V1_LOG = """\
{"created": "2026-10-17T21:56:43+00:00", "delta_std": 0.3, "iterations": 3, \
"kind": "count-log", "mean_rate": 10000.0, "schema_version": 1, "seed": 4, \
"theta": 0.4363323129985824, "tool": "ysqht", "version": "0.1.0", \
"window_seconds": 1.0}
{"i": 0, "alpha": -0.19553734578350687, "n1p": 10003, "n1q": 8059, "n2p": 9588, "n2q": 6426}
{"i": 1, "alpha": 0.072531563063055388, "n1p": 10153, "n1q": 8196, "n2p": 9843, "n2q": 8791}
{"i": 2, "alpha": 0.11405672767469752, "n1p": 9873, "n1q": 8212, "n2p": 10124, "n2q": 8916}
"""


class TestCountLogIntegrity:
    def test_reads_version_1_log(self, tmp_path):
        # Written by the schema-1 tool (RNG stream 1) with --seed 4.
        path = tmp_path / "v1.jsonl"
        path.write_text(V1_LOG)
        manifest, counts = read_count_log(path)
        assert manifest.schema_version == 1
        assert manifest.seed == 4
        assert counts.alpha.tolist() == [
            -0.19553734578350687, 0.072531563063055388, 0.11405672767469752,
        ]
        assert counts.counts.tolist() == [
            [10003, 8059, 9588, 6426],
            [10153, 8196, 9843, 8791],
            [9873, 8212, 10124, 8916],
        ]

    def test_log_cut_at_line_boundary_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_log(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(LogFormatError, match="17 records") as err:
            read_count_log(path)
        assert err.value.line_number == 19
        assert "promises 20" in str(err.value)

    def test_duplicated_record_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_log(path)
        lines = path.read_text().splitlines()
        lines.insert(6, lines[5])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError, match="i = 4 where 5") as err:
            read_count_log(path)
        assert err.value.line_number == 7

    def test_extra_record_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_log(path, iterations=3)
        with path.open("ab") as handle:
            handle.write(RECORD_LINE % (3, 0.0, 1, 1, 1, 1))
        with pytest.raises(LogFormatError, match="than the 3 its manifest "
                                                 "promises") as err:
            read_count_log(path)
        assert err.value.line_number == 5

    def test_extra_record_is_named_before_a_later_damaged_line(
        self, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        write_log(path, iterations=3)
        with path.open("ab") as handle:
            handle.write(RECORD_LINE % (3, 0.0, 1, 1, 1, 1) + b"{\n")
        with pytest.raises(LogFormatError, match="than the 3 its manifest "
                                                 "promises") as err:
            read_count_log(path)
        assert err.value.line_number == 5

    def test_boolean_index_in_its_place_rejected(self, tmp_path):
        # Line 3 holds record 1, and True == 1.
        path = tmp_path / "run.jsonl"
        write_log(path)
        lines = path.read_text().splitlines()
        lines[2] = set_value("i", "true")(lines[2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError, match="i must be a non-negative "
                                                 "64-bit integer, got True"
                           ) as err:
            read_count_log(path)
        assert err.value.line_number == 3

    def test_two_records_joined_on_one_line_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_log(path)
        lines = path.read_text().splitlines()
        lines[3:5] = [lines[3] + ", " + lines[4]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError, match="not valid JSON") as err:
            read_count_log(path)
        assert err.value.line_number == 4

    def test_split_record_rejected(self, tmp_path):
        # Two half-records that are valid JSON only once joined by a comma.
        path = tmp_path / "run.jsonl"
        write_log(path)
        lines = path.read_text().splitlines()
        head, tail = lines[5].split(', "n2q"')
        halves = [head, '"n2q"' + tail]
        assert len(json.loads("[" + ",".join(halves) + "]")) == 1
        lines[5:6] = halves
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError, match="not valid JSON") as err:
            read_count_log(path)
        assert err.value.line_number == 6

    def test_records_shifted_across_lines_rejected(self, tmp_path):
        # Two records on one line and one record split over two lines: every
        # record is there once and the joined lines parse to one object per
        # line, but line 4 is not one record.
        path = tmp_path / "run.jsonl"
        write_log(path)
        lines = path.read_text().splitlines()
        head, tail = lines[9].split(', "n2q"')
        lines[9:10] = [head, '"n2q"' + tail]
        lines[3:5] = [lines[3] + ", " + lines[4]]
        body = lines[1:]
        assert len(json.loads("[" + ",".join(body) + "]")) == len(body)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError, match="line 4"):
            read_count_log(path)

    def test_blank_padded_and_reordered_lines_read_like_clean(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _, counts = write_log(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[4])
        lines[4] = json.dumps(dict(reversed(list(record.items()))))
        lines[2] = "  " + lines[2] + " "
        lines.insert(7, "")
        path.write_text("\n".join(lines) + "\n\n")
        _, loaded = read_count_log(path)
        assert_same_counts(loaded, counts)

    def test_corrupt_line_in_later_chunk_reports_number(self, tmp_path):
        path = tmp_path / "run.jsonl"
        n = READ_CHUNK_LINES + 500
        write_log(path, iterations=n)
        lines = path.read_text().splitlines()
        lines[n - 10] = lines[n - 10].replace('"n1q": ', '"n1q": -')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError, match="n1q") as err:
            read_count_log(path)
        assert err.value.line_number == n - 9

    def test_long_log_round_trips(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _, counts = write_log(path, iterations=2 * READ_CHUNK_LINES + 7)
        _, loaded = read_both_ways(path)
        assert_same_counts(loaded, counts)

    def test_manifest_without_iterations_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(RunManifest(kind="count-log").to_json() + "\n")
        with pytest.raises(LogFormatError, match="iterations"):
            read_count_log(path)

    def test_write_rejects_counts_of_another_run(self, tmp_path):
        counts = Counts([0.0], [[1, 1, 1, 1]])
        with pytest.raises(ValueError, match="iterations"):
            write_count_log(tmp_path / "x.jsonl", make_config(), counts)
        assert list(tmp_path.iterdir()) == []


def set_value(key, text):
    """A damage that replaces the value of ``key`` in a record line."""
    return lambda line: re.sub(rf'"{key}": [^,}}]+', f'"{key}": {text}', line)


#: One way to damage a record line each, with a fragment of the message
#: that names it.
DAMAGES = {
    "bool-count": (set_value("n1q", "true"),
                   "n1q must be a non-negative 64-bit integer, got True"),
    "float-count": (set_value("n2p", "7.0"),
                    "n2p must be a non-negative 64-bit integer, got 7.0"),
    "count-2**63": (set_value("n2q", str(2**63)),
                    f"n2q must be a non-negative 64-bit integer, got {2**63}"),
    "nan-alpha": (set_value("alpha", "NaN"), "alpha must be finite, got nan"),
    "infinite-alpha": (set_value("alpha", "-Infinity"),
                       "alpha must be finite, got -inf"),
    "string-alpha": (set_value("alpha", '"0.5"'),
                     "alpha must be finite, got '0.5'"),
    "bool-alpha": (set_value("alpha", "false"),
                   "alpha must be finite, got False"),
    "missing-key": (lambda line: re.sub(r', "n2q": \d+', "", line),
                    "record must have exactly the keys"),
    "extra-key": (lambda line: line[:-1] + ', "n3p": 1}',
                  "record must have exactly the keys"),
    "array-line": (lambda line: json.dumps(list(json.loads(line).values())),
                   "record line must be a JSON object"),
    "two-records": (lambda line: line + ", " + line, "not valid JSON"),
    "float-index": (lambda line: re.sub(r'"i": (\d+)', r'"i": \1.0', line),
                    "i must be a non-negative 64-bit integer"),
    "nested-object": (set_value("n1p", '{"n": 1}'),
                      "n1p must be a non-negative 64-bit integer, got {'n': 1}"),
    # Beyond the float range: no float can hold it.
    "huge-alpha": (set_value("alpha", "1" + "0" * 400),
                   "alpha must be finite, got 1000000000"),
    # Beyond the interpreter's limit on integer digits, where it has one.
    "huge-count": (set_value("n1p", "1" + "0" * 5000),
                   "value has 5001 digits"
                   if hasattr(sys, "set_int_max_str_digits")
                   else "n1p must be a non-negative 64-bit integer"),
}


@pytest.fixture(scope="module")
def long_log_lines(tmp_path_factory):
    """The lines of a log two chunks long."""
    path = tmp_path_factory.mktemp("log") / "run.jsonl"
    write_log(path, iterations=READ_CHUNK_LINES + 200)
    return path.read_text().splitlines()


class TestRecordRejection:
    @pytest.mark.parametrize("line_number", [4, READ_CHUNK_LINES + 101])
    @pytest.mark.parametrize("damage", DAMAGES)
    def test_damaged_record_names_its_line(
        self, tmp_path, long_log_lines, damage, line_number
    ):
        transform, fragment = DAMAGES[damage]
        lines = list(long_log_lines)
        lines[line_number - 1] = transform(lines[line_number - 1])
        assert lines[line_number - 1] != long_log_lines[line_number - 1]
        path = tmp_path / "damaged.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError) as err:
            read_count_log(path)
        assert err.value.line_number == line_number
        assert fragment in str(err.value)

    @pytest.mark.parametrize("key, value, fragment", [
        ("n1p", "-1", "n1p must be"),
        ("i", "0", "record index i = 0 where"),
    ])
    def test_line_numbers_count_blank_and_padded_lines(
        self, tmp_path, long_log_lines, key, value, fragment
    ):
        # A padded line and a blank one just before the damaged record.
        line_number = READ_CHUNK_LINES + 101
        lines = list(long_log_lines)
        lines[line_number - 3] = "  " + lines[line_number - 3] + "\t"
        lines.insert(line_number - 2, "")
        lines[line_number - 1] = set_value(key, value)(lines[line_number - 1])
        path = tmp_path / "damaged.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError, match=fragment) as err:
            read_count_log(path)
        assert err.value.line_number == line_number

    def test_misplaced_record_is_named_before_a_later_chunk(
        self, tmp_path, long_log_lines
    ):
        # Line 3 holds record 1; a damaged line follows in the next chunk.
        lines = list(long_log_lines)
        lines[2] = set_value("i", "0")(lines[2])
        line_number = READ_CHUNK_LINES + 101
        lines[line_number - 1] = DAMAGES["nan-alpha"][0](lines[line_number - 1])
        path = tmp_path / "damaged.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError,
                           match="i = 0 where 1 belongs") as err:
            read_count_log(path)
        assert err.value.line_number == 3

    def test_reader_stops_at_the_chunk_of_the_first_fault(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.jsonl"
        write_log(path, iterations=10)
        companion_of(path).unlink()
        lines = path.read_text().splitlines()
        lines[2] = set_value("i", "0")(lines[2])
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(logio, "READ_CHUNK_LINES", 3)
        calls = []
        parse = logio._parse_chunk
        monkeypatch.setattr(logio, "_parse_chunk",
                            lambda *args: calls.append(args) or parse(*args))
        with pytest.raises(LogFormatError, match="i = 0 where 1") as err:
            read_count_log(path)
        assert err.value.line_number == 3
        assert len(calls) == 1

    def test_blank_padded_and_reordered_lines_take_the_single_parse(
        self, tmp_path, monkeypatch, long_log_lines
    ):
        lines = list(long_log_lines)
        lines[1] = "  " + lines[1] + "\t"
        lines.insert(2, "")
        record = json.loads(lines[-5])
        lines[-5] = json.dumps(dict(reversed(list(record.items()))))
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(lines) + "\n\n")
        record_lines = len(path.read_text().splitlines()) - 1
        calls = []
        loads = json.loads
        monkeypatch.setattr(
            logio.json, "loads", lambda text: calls.append(text) or loads(text)
        )
        read_count_log(path)
        # The manifest line, then one parse per chunk.
        assert len(calls) == 1 + math.ceil(record_lines / READ_CHUNK_LINES)


def read_through_fifo(tmp_path, data):
    """``read_count_log`` of a FIFO down which ``data``, a few kB that the
    pipe holds at once, is written."""
    fifo = tmp_path / "fifo.jsonl"
    os.mkfifo(fifo)
    feeder = threading.Thread(target=lambda: fifo.write_bytes(data),
                              daemon=True)
    feeder.start()
    try:
        return read_count_log(fifo)
    finally:
        feeder.join(timeout=60)


class TestLogBytes:
    """A count log is read as bytes: its text must be UTF-8, and a line
    ends at a line feed."""

    @pytest.mark.parametrize("source", ["alone", "stale-companion", "fifo"])
    @pytest.mark.parametrize("byte", [b"\x80", b"\xc3", b"\xff"])
    def test_undecodable_record_byte_names_its_line(
        self, tmp_path, source, byte
    ):
        path = tmp_path / "run.jsonl"
        write_log(path)
        lines = path.read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b'"n1p"', b'"n1' + byte + b'p"')
        path.write_bytes(b"\n".join(lines))
        if source == "alone":
            companion_of(path).unlink()
        assert companion_of(path).is_file() == (source != "alone")
        with pytest.raises(LogFormatError, match="^line 5: ") as err:
            if source == "fifo":
                read_through_fifo(tmp_path, path.read_bytes())
            else:
                read_count_log(path)
        assert err.value.line_number == 5

    @pytest.mark.parametrize("via_fifo", [False, True])
    def test_undecodable_manifest_byte_names_line_1(self, tmp_path, via_fifo):
        path = tmp_path / "run.jsonl"
        write_log(path)
        data = path.read_bytes().replace(b'"ysqht"', b'"ysq\xffht"', 1)
        path.write_bytes(data)
        with pytest.raises(LogFormatError, match="^line 1: manifest") as err:
            read_through_fifo(tmp_path, data) if via_fifo \
                else read_count_log(path)
        assert err.value.line_number == 1

    def test_byte_order_mark_is_rejected_on_line_1(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_log(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        with pytest.raises(LogFormatError, match="BOM") as err:
            read_count_log(path)
        assert err.value.line_number == 1

    def test_lone_carriage_return_ends_no_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_log(path, iterations=3)
        head, records = path.read_bytes().split(b"\n", 1)
        path.write_bytes(head + b"\n" + records.replace(b"\n", b"\r", 1))
        with pytest.raises(LogFormatError, match="not valid JSON") as err:
            read_count_log(path)
        assert err.value.line_number == 2


class TestManifest:
    def test_json_round_trip(self):
        manifest = RunManifest(
            kind="count-log",
            theta=THETA_B,
            delta_std=0.7,
            iterations=200,
            mean_rate=1e4,
            window_seconds=1.0,
            seed=7,
        )
        loaded = RunManifest.from_json_dict(json.loads(manifest.to_json()))
        assert loaded == manifest

    def test_sweep_manifest_round_trip(self):
        manifest = RunManifest(
            kind="sweep",
            theta=THETA_B,
            gamma1=(0.05, 0.4),
            axis="gamma2",
            grid=(0.0, 0.5, 1.0),
            with_sim=True,
            seed=3,
            mode="stochastic",
            iterations=200,
            mean_rate=1e4,
            window_seconds=1.0,
            delta_std=0.7,
        )
        loaded = RunManifest.from_json_dict(json.loads(manifest.to_json()))
        assert loaded == manifest

    def test_json_matches_the_dataclass_fields(self):
        manifest = RunManifest(
            kind="sweep", theta=THETA_B, gamma1=(0.05, 0.4), axis="gamma2",
            grid=(0.0, -0.0, 5e-324, 1.0), with_sim=False,
        )
        reference = {
            k: v for k, v in dataclasses.asdict(manifest).items()
            if v is not None
        }
        assert manifest.to_json() == json.dumps(reference, sort_keys=True)

    def test_unknown_field_rejected(self):
        manifest = RunManifest(kind="count-log")
        payload = json.loads(manifest.to_json())
        payload["detector_model"] = "x"
        with pytest.raises(ManifestVersionError, match="unknown fields"):
            RunManifest.from_json_dict(payload)

    @pytest.mark.parametrize("key, value, wanted", [
        ("theta", "0.4", "a finite number"),
        ("theta", True, "a finite number"),
        ("mean_rate", math.inf, "a finite number"),
        ("delta_std", 10**400, "a finite number"),
        ("iterations", 2.5, "an integer in [0, 2**64)"),
        ("seed", -1, "an integer in [0, 2**64)"),
        ("seed", 2**64, "an integer in [0, 2**64)"),
        ("grid", "0.1", "a list of finite numbers"),
        ("grid", [0.1, None], "a list of finite numbers"),
        ("gamma1", [math.nan], "a list of finite numbers"),
        ("with_sim", 1, "true or false"),
        ("mode", None, "a string"),
        ("created", 0, "a string"),
    ])
    def test_field_of_another_json_type_rejected(self, key, value, wanted):
        payload = json.loads(RunManifest(kind="sweep").to_json())
        payload[key] = value
        with pytest.raises(LogFormatError) as err:
            RunManifest.from_json_dict(payload)
        assert err.value.line_number == 1
        assert str(err.value).startswith(
            f"line 1: manifest field {key!r} must be {wanted}, got ")

    def test_integers_read_as_numbers(self):
        payload = json.loads(RunManifest(kind="sweep").to_json())
        payload.update(theta=0, grid=[0, 1], gamma1=[1], seed=2**64 - 1)
        manifest = RunManifest.from_json_dict(payload)
        assert (manifest.theta, manifest.grid, manifest.gamma1,
                manifest.seed) == (0, (0.0, 1.0), (1.0,), 2**64 - 1)
        assert type(manifest.grid[0]) is float

    def test_missing_kind_rejected(self):
        payload = json.loads(RunManifest(kind="count-log").to_json())
        payload.pop("kind")
        with pytest.raises(ManifestVersionError, match="kind"):
            RunManifest.from_json_dict(payload)


class TestSweepHeaders:
    DELTA_GRID = [0.0, 0.7]
    GAMMA2_GRID = [0.2, 0.9]

    def delta_sim(self):
        analytic = sweep_delta(THETA_B, [0.1], 0.8, self.DELTA_GRID)
        return simulate_sweep(analytic, 99, 20)

    def gamma2_sim(self):
        analytic = sweep_gamma2(THETA_B, NoiseParams(0.7), [0.05, 0.4],
                                self.GAMMA2_GRID)
        return simulate_sweep(analytic, 99, 20)

    def test_delta_axis_single_weight(self):
        assert sweep_table(self.delta_sim().sweep)[0] == [
            "delta_std", "q1_over_p1", "q2_over_p2", "q_over_p", "reversal",
        ]

    def test_delta_axis_single_weight_with_sim(self):
        assert sweep_table(self.delta_sim())[0] == [
            "delta_std", "q1_over_p1", "q2_over_p2", "q_over_p", "reversal",
            "sim_q2_over_p2", "sim_q2_over_p2_err",
            "sim_q_over_p", "sim_q_over_p_err",
        ]

    def test_gamma2_axis_two_weights_with_sim(self):
        assert sweep_table(self.gamma2_sim())[0] == [
            "gamma2", "q1_over_p1", "q2_over_p2",
            "q_over_p_gamma1_0.05", "q_over_p_gamma1_0.4",
            "reversal_gamma1_0.05", "reversal_gamma1_0.4",
            "sim_q2_over_p2", "sim_q2_over_p2_err",
            "sim_q_over_p_gamma1_0.05", "sim_q_over_p_err_gamma1_0.05",
            "sim_q_over_p_gamma1_0.4", "sim_q_over_p_err_gamma1_0.4",
        ]

    def test_rows_follow_the_header(self):
        sim = self.gamma2_sim()
        header, columns = sweep_table(sim)
        assert len(columns) == len(header)
        rows = [list(row) for row in zip(*columns)]
        assert len(rows) == len(self.GAMMA2_GRID)
        for i, (row, arow) in enumerate(zip(rows, sim.sweep.rows)):
            assert row == [
                arow.x, arow.q1_over_p1, arow.q2_over_p2, *arow.q_over_p,
                *arow.reversal,
                sim.q2_over_p2[i], sim.q2_over_p2_err[i],
                sim.q_over_p[0, i], sim.q_over_p_err[0, i],
                sim.q_over_p[1, i], sim.q_over_p_err[1, i],
            ]

    @pytest.mark.parametrize("axis", ["delta", "gamma2"])
    def test_sim_columns_span_the_grid_and_weights(self, axis):
        # Three grid points and two gamma1 values: every column, analytic
        # or simulated, is as long as the sweep's grid, and each gamma1 adds
        # a simulated q/p and its error after the analytic columns.
        analytic = sweep_at(axis, 0.8, [0.1, 0.4], [0.0, 0.5, 1.0])
        header, columns = sweep_table(simulate_sweep(analytic, 99, 20))
        analytic_header = sweep_table(analytic)[0]
        assert header[:len(analytic_header)] == analytic_header
        assert len(header) == len(columns) == len(analytic_header) + 2 + 2 * 2
        assert [np.shape(column) for column in columns] == [(3,)] * len(header)


def sweep_at(axis, fixed, gamma1, grid):
    """A sweep at ``THETA_B`` along ``axis``, at the fixed gamma2 (delta
    axis) or delta_std (gamma2 axis) ``fixed``."""
    if axis == "delta":
        return sweep_delta(THETA_B, gamma1, fixed, grid)
    return sweep_gamma2(THETA_B, NoiseParams(fixed), gamma1, grid)


def sweep_of(x, q1_over_p1=0.5, q2_over_p2=None, q_over_p=None,
             reversal=None):
    """A delta-axis ``Sweep`` record at gamma2 = 0.8 and one gamma1 (0.1),
    built straight from its columns: q2/p2 and q/p are 0.25 and the
    reversal flags false where not given."""
    x = np.array(x, dtype=float)
    n = x.size
    return Sweep(
        "delta", THETA_B, 0.8, (0.1,), x, q1_over_p1,
        np.full(n, 0.25) if q2_over_p2 is None else np.array(q2_over_p2),
        np.full((1, n), 0.25) if q_over_p is None else np.array(q_over_p),
        np.zeros((1, n), bool) if reversal is None else np.array(reversal),
    )


class TestSweepCsv:
    HEADER = "delta_std,q1_over_p1,q2_over_p2,q_over_p,reversal"

    def test_cells_round_trip_and_manifest_written(self, tmp_path):
        path = tmp_path / "table.csv"
        sweep = sweep_delta(THETA_B, [0.1], 0.8, [0.1, 0.6000000000000001])
        manifest_path = write_sweep_csv(path, sweep)
        text = path.read_text().splitlines()
        assert text[0] == self.HEADER
        cells = text[2].split(",")
        assert float(cells[0]) == sweep.x[1]
        assert float(cells[1]) == sweep.q1_over_p1
        assert float(cells[2]) == sweep.q2_over_p2[1]
        assert float(cells[3]) == sweep.q_over_p[0, 1]
        assert cells[4] == "true" and sweep.reversal[0, 1]
        assert manifest_path.name == "table.csv.manifest.json"
        loaded = RunManifest.from_json_dict(
            json.loads(manifest_path.read_text())
        )
        assert (loaded.axis, loaded.gamma2, loaded.grid) == (
            "delta", 0.8, (0.1, 0.6000000000000001))

    def test_link_gets_no_manifest(self, tmp_path):
        # As /dev/stdout, a link to wherever standard output goes.
        target = tmp_path / "target.csv"
        target.write_text("")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert write_sweep_csv(link, sweep_of([0.1])) is None
        assert target.read_text() == (
            self.HEADER + "\n0.1,0.5,0.25,0.25,false\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link.csv", "target.csv",
        ]

    @pytest.mark.parametrize("axis", ["delta", "gamma2"])
    @pytest.mark.parametrize("fixed", [0.3, 0.8])
    def test_simulated_table_extends_its_sweeps_table(self, tmp_path, axis,
                                                      fixed):
        # A simulated table is the table of the sweep it holds with the
        # simulated columns appended; its manifest names that sweep's
        # theta, fixed value, gamma1 values and grid, and the simulation's
        # own fields.
        analytic = sweep_at(axis, fixed, [0.1], [0.2, 0.9])
        sim = simulate_sweep(analytic, 99, 20)
        manifests = [
            json.loads(write_sweep_csv(tmp_path / name, table).read_text())
            for name, table in (("analytic.csv", analytic), ("sim.csv", sim))
        ]
        lines = [(tmp_path / name).read_text().splitlines()
                 for name in ("analytic.csv", "sim.csv")]
        assert len(lines[0]) == len(lines[1]) == 3
        for line, sim_line in zip(*lines):
            assert sim_line.startswith(line + ",")
        analytic_manifest, sim_manifest = manifests
        for name in logio.SIM_MANIFEST_FIELDS:
            assert sim_manifest.pop(name) == getattr(sim, name)
        assert (analytic_manifest.pop("with_sim"),
                sim_manifest.pop("with_sim")) == (False, True)
        del analytic_manifest["created"], sim_manifest["created"]
        assert sim_manifest == analytic_manifest
        fixed_name = "gamma2" if axis == "delta" else "delta_std"
        assert sim_manifest[fixed_name] == fixed

    def test_numpy_scalars_written_as_python_values(self, tmp_path):
        path = tmp_path / "table.csv"
        sweep = sweep_of([0.1, 0.2], q2_over_p2=[0.25, 1e-300],
                         q_over_p=[[-0.0, 0.1]], reversal=[[True, False]])
        write_sweep_csv(path, sweep)
        assert path.read_text().splitlines()[1:] == [
            "0.1,0.5,0.25,-0.0,true", "0.2,0.5,1e-300,0.1,false",
        ]

    def test_no_rows_writes_the_header(self, tmp_path):
        path = tmp_path / "table.csv"
        write_sweep_csv(path, sweep_delta(THETA_B, [0.1], 0.8, []))
        assert path.read_text() == self.HEADER + "\n"

    def test_constant_columns_formatted_once_keep_their_sign(self, tmp_path):
        n = 5
        columns = [[-0.0] * n, [0.0] * n, [math.nan] * n,
                   [0.0, -0.0, 0.0, 0.0, 0.0], [0.1] * n, [-0.0] + [0.0] * 4]
        cells = [logio._cells(np.array(column)) for column in columns]
        assert [type(c) is itertools.repeat for c in cells] == [
            True, True, True, False, True, False,
        ]
        assert list(map(list, cells)) == [
            ["-0.0"] * n, ["0.0"] * n, ["nan"] * n,
            ["0.0", "-0.0", "0.0", "0.0", "0.0"], ["0.1"] * n,
            ["-0.0"] + ["0.0"] * 4,
        ]
        path = tmp_path / "table.csv"
        write_sweep_csv(path, sweep_of(range(n), q1_over_p1=-0.0,
                                       q2_over_p2=[0.0] * n,
                                       q_over_p=[columns[3]]))
        assert path.read_text().splitlines()[1:] == [
            "0.0,-0.0,0.0,0.0,false", "1.0,-0.0,0.0,-0.0,false",
            *[f"{k}.0,-0.0,0.0,0.0,false" for k in range(2, n)],
        ]


def written_manifest(path, table):
    """The text of the manifest ``write_sweep_csv`` writes beside ``path``,
    and the first column of the table, as written."""
    manifest_path = write_sweep_csv(path, table)
    x_cells = [line.split(",")[0]
               for line in path.read_text().splitlines()[1:]]
    return manifest_path.read_text(), x_cells


def reference_manifest_json(text, **fields):
    """What ``json.dumps`` writes of a sweep manifest of ``fields`` (those
    not None) with the ``created`` of the written manifest ``text``."""
    manifest = RunManifest(kind="sweep", created=json.loads(text)["created"],
                           **fields)
    payload = {k: v for k, v in dataclasses.asdict(manifest).items()
               if v is not None}
    return json.dumps(payload, sort_keys=True) + "\n"


class TestSweepManifestBytes:
    """The companion manifest takes its grid from the table's first-column
    cells, and its bytes are those of ``json.dumps``."""

    DELTA_FIELDS = dict(theta=THETA_B, axis="delta", gamma1=(0.1,),
                        gamma2=0.8, with_sim=False)

    @pytest.mark.parametrize("grid", [
        [-0.0, 5e-324, 1e-7, 1.0, 1e300],
        [0.0, 0.1, 0.30000000000000004],
        [-0.0],
        [0.5],
    ], ids=["extremes", "shortest-repr", "negative-zero", "one-point"])
    def test_grid_written_as_json_writes_it(self, tmp_path, grid):
        text, x_cells = written_manifest(
            tmp_path / "table.csv", sweep_delta(THETA_B, [0.1], 0.8, grid))
        assert text == reference_manifest_json(
            text, grid=tuple(grid), **self.DELTA_FIELDS)
        assert f'"grid": [{", ".join(x_cells)}]' in text

    def test_with_sim_manifest(self, tmp_path):
        grid = [0.2, 0.9]
        analytic = sweep_gamma2(THETA_B, NoiseParams(0.7), [0.05, 0.4], grid)
        text, x_cells = written_manifest(
            tmp_path / "table.csv",
            simulate_sweep(analytic, 99, 20, 2e3, 0.5, "expected"),
        )
        assert text == reference_manifest_json(
            text, theta=THETA_B, delta_std=0.7, gamma1=(0.05, 0.4),
            iterations=20, mean_rate=2e3, window_seconds=0.5, seed=99,
            mode="expected", axis="gamma2", grid=tuple(grid), with_sim=True,
        )
        assert x_cells == ["0.2", "0.9"]

    def test_numpy_floats_share_their_cells(self, tmp_path):
        text, x_cells = written_manifest(tmp_path / "table.csv",
                                         sweep_of(np.array([-0.0, 0.1])))
        assert x_cells == ["-0.0", "0.1"]
        assert '"grid": [-0.0, 0.1]' in text
        assert text == reference_manifest_json(
            text, grid=(-0.0, 0.1), **self.DELTA_FIELDS)

    def test_manifest_without_grid(self, tmp_path):
        # A sweep of no points: its grid is the empty list.
        text, x_cells = written_manifest(
            tmp_path / "table.csv", sweep_delta(THETA_B, [0.1], 0.8, []))
        assert x_cells == []
        assert text == reference_manifest_json(text, grid=(),
                                               **self.DELTA_FIELDS)


@pytest.fixture
def umask():
    """Run the test under umask 027, so that a file's mode shows whether the
    umask set it; yields the mode ``Path.write_text`` gives a new file."""
    old = os.umask(0o027)
    try:
        yield 0o640
    finally:
        os.umask(old)


def snapshot(directory):
    """Name -> (bytes, permission bits) of each file in ``directory``."""
    return {path.name: (path.read_bytes(), mode_of(path))
            for path in directory.iterdir()}


def mode_of(path):
    return stat.S_IMODE(path.stat().st_mode)


def fail_on(function, bad, directory):
    """``function``, raising OSError when its first argument is ``bad``; the
    sizes of the files in ``directory`` at that moment go to ``.seen``."""
    def failing(value, *args):
        if value == bad:
            failing.seen = {p.name: p.stat().st_size
                            for p in directory.iterdir()}
            raise OSError("injected failure")
        return function(value, *args)
    return failing


def refuse(*args):
    raise OSError("injected failure")


def assert_failed_mid_write(seen, before):
    """When the failure came, one temporary file beside the target already
    held written lines."""
    temporary = set(seen) - set(before)
    assert len(temporary) == 1
    assert seen[temporary.pop()] > 0


class TestCrashSafeWrites:
    """A write that fails part way leaves the old file, or none, and no
    temporary file; a new file gets the mode ``Path.write_text`` gives."""

    def test_new_files_get_the_mode_of_write_text(self, tmp_path, umask):
        reference = tmp_path / "reference"
        reference.write_text("")
        assert mode_of(reference) == umask
        write_log(tmp_path / "run.jsonl")
        write_sweep_csv(tmp_path / "t.csv", sweep_of([0.1]))
        assert {name: mode for name, (_, mode) in snapshot(tmp_path).items()} \
            == dict.fromkeys(["reference", "run.jsonl",
                              "run.jsonl.columns.npz", "t.csv",
                              "t.csv.manifest.json"], umask)

    def test_replaced_file_keeps_its_mode(self, tmp_path, umask):
        reference = tmp_path / "reference"
        path = tmp_path / "run.jsonl"
        for target in (reference, path):
            target.write_text("old\n")
            target.chmod(0o600)
        reference.write_text("new\n")
        write_log(path)
        assert mode_of(path) == mode_of(reference) == 0o600
        assert path.read_text().count("\n") == 21

    @pytest.mark.parametrize("existing", [False, True])
    def test_count_log_failing_in_a_later_chunk(
        self, tmp_path, umask, monkeypatch, existing
    ):
        path = tmp_path / "run.jsonl"
        if existing:
            path.write_text("old log\n")
        before = snapshot(tmp_path)
        # The block of records READ_CHUNK_LINES on, written after the
        # manifest and the block of the first READ_CHUNK_LINES records.
        failing = fail_on(logio._record_block, READ_CHUNK_LINES, tmp_path)
        monkeypatch.setattr(logio, "_record_block", failing)
        with pytest.raises(OSError, match="injected"):
            write_log(path, iterations=2 * READ_CHUNK_LINES)
        assert_failed_mid_write(failing.seen, before)
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("existing", [False, True])
    def test_count_log_failing_to_replace(
        self, tmp_path, umask, monkeypatch, existing
    ):
        path = tmp_path / "run.jsonl"
        if existing:
            path.write_text("old log\n")
        before = snapshot(tmp_path)
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="injected"):
            write_log(path)
        assert snapshot(tmp_path) == before

    def test_file_is_whole_when_renamed(self, tmp_path, monkeypatch):
        sizes = []
        replace = os.replace

        def spy(source, target):
            sizes.append(os.path.getsize(source))
            replace(source, target)

        monkeypatch.setattr(os, "replace", spy)
        path = tmp_path / "run.jsonl"
        # The last chunk, one short line, is still buffered after the write.
        write_log(path, iterations=READ_CHUNK_LINES + 1)
        companion = tmp_path / "run.jsonl.columns.npz"
        assert sizes == [path.stat().st_size, companion.stat().st_size]

    @staticmethod
    def write_table(path):
        """A table of 2 * READ_CHUNK_LINES rows, whose grid holds k and
        whose q2/p2 column holds k + 0.5 in row k."""
        grid = np.arange(2.0 * READ_CHUNK_LINES)
        return write_sweep_csv(path, sweep_of(grid, q2_over_p2=grid + 0.5))

    @pytest.mark.parametrize("existing", [False, True])
    def test_sweep_csv_failing_in_a_later_chunk(
        self, tmp_path, umask, monkeypatch, existing
    ):
        path = tmp_path / "t.csv"
        if existing:
            path.write_text("old table\n")
            (tmp_path / "t.csv.manifest.json").write_text("old manifest\n")
        before = snapshot(tmp_path)
        # The grid is formatted before the file is opened, and the other
        # columns as their rows are written.
        failing = fail_on(str, repr(READ_CHUNK_LINES + 3.5), tmp_path)
        cells = logio._cells
        monkeypatch.setattr(logio, "_cells",
                            lambda column: map(failing, cells(column)))
        with pytest.raises(OSError, match="injected"):
            self.write_table(path)
        assert_failed_mid_write(failing.seen, before)
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("existing", [False, True])
    def test_sweep_csv_failing_to_replace(
        self, tmp_path, umask, monkeypatch, existing
    ):
        path = tmp_path / "t.csv"
        if existing:
            path.write_text("old table\n")
            (tmp_path / "t.csv.manifest.json").write_text("old manifest\n")
        before = snapshot(tmp_path)
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="injected"):
            self.write_table(path)
        assert snapshot(tmp_path) == before

    def test_sweep_table_lands_before_its_manifest(
        self, tmp_path, umask, monkeypatch
    ):
        (tmp_path / "t.csv.manifest.json").write_text("old manifest\n")
        replace = os.replace

        def refuse_manifest(source, target):
            if str(target).endswith(".manifest.json"):
                raise OSError("injected failure")
            replace(source, target)

        monkeypatch.setattr(os, "replace", refuse_manifest)
        with pytest.raises(OSError, match="injected"):
            self.write_table(tmp_path / "t.csv")
        table = (tmp_path / "t.csv").read_text().splitlines()
        assert len(table) == 1 + 2 * READ_CHUNK_LINES
        assert snapshot(tmp_path) == {
            "t.csv": ((tmp_path / "t.csv").read_bytes(), 0o640),
            "t.csv.manifest.json": (b"old manifest\n", 0o640),
        }

    def test_missing_directory_error_names_the_output(self, tmp_path):
        path = tmp_path / "missing" / "run.jsonl"
        with pytest.raises(FileNotFoundError) as err:
            write_log(path)
        assert err.value.filename == str(path)
        assert list(tmp_path.iterdir()) == []

    def test_count_log_through_a_link_written_in_place(self, tmp_path):
        target = tmp_path / "target.jsonl"
        target.write_text("old log\n")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        _, counts = write_log(link)
        assert link.is_symlink()
        assert_same_counts(read_count_log(target)[1], counts)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link.jsonl", "target.jsonl",
        ]


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child that ``os.fork`` makes during the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def write_through_fifo(path, config, counts):
    """The bytes ``write_count_log`` writes to a FIFO at ``path``."""
    os.mkfifo(path)
    received = []
    drain = threading.Thread(
        target=lambda: received.append(path.read_bytes()), daemon=True)
    drain.start()
    write_count_log(path, config, counts)
    drain.join(timeout=60)
    return received[0]


class TestSplitWrite:
    """A log of ``logio._SPLIT_BLOCKS`` blocks or more is formatted by two
    processes, this one the even blocks and a forked child the odd ones:
    the bytes are those of one process, a failure in either process is
    raised here, and no child outlives a write."""

    @pytest.fixture(autouse=True)
    def fixed_created(self, monkeypatch):
        # The manifest's timestamp would make two writes' bytes differ.
        manifest = logio.manifest_for_acquisition
        monkeypatch.setattr(
            logio, "manifest_for_acquisition",
            lambda config: dataclasses.replace(
                manifest(config), created="2026-01-01T00:00:00+00:00"))

    @staticmethod
    def check_bytes(tmp_path, monkeypatch, forks, n, to_fifo):
        """A log of ``n`` records, a negative zero tilt in its first, second
        and last blocks, holds the lines of one ``_record_block`` over all
        of them; a regular file and its companion are those that one
        process writes."""
        config = make_config(seed=1, iterations=n)
        counts = run_acquisition(config)
        alpha = counts.alpha.copy()
        zeros = {0, min(logio.READ_CHUNK_LINES, n - 1), n - 1}
        alpha[list(zeros)] = -0.0
        counts = Counts(alpha, counts.counts)
        expected = (logio.manifest_for_acquisition(config).to_json()
                    + "\n").encode() + logio._record_block(0, alpha,
                                                           counts.counts)
        assert expected.count(b'"alpha": -0.0,') == len(zeros)
        split = n > (logio._SPLIT_BLOCKS - 1) * logio.READ_CHUNK_LINES
        path = tmp_path / "run.jsonl"
        if to_fifo:
            assert write_through_fifo(path, config, counts) == expected
        else:
            write_count_log(path, config, counts)
            assert path.read_bytes() == expected
        assert len(forks) == split
        assert_reaped(forks)
        if not to_fifo:
            companion = companion_of(path).read_bytes()
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            write_count_log(path, config, counts)  # in this process alone
            assert path.read_bytes() == expected
            assert companion_of(path).read_bytes() == companion
            assert len(forks) == split

    @pytest.mark.parametrize("to_fifo", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 9, 10, 12, 13, 16])
    def test_split_write_gives_the_bytes_of_one_process(
        self, tmp_path, monkeypatch, forks, n, to_fifo
    ):
        # Blocks of 3 records: sizes 1, B - 1, B, B + 1, 2B, 2B + 1, 3B,
        # 3B + 1 (the fewest records that are split), 4B, 4B + 1, 5B + 1.
        monkeypatch.setattr(logio, "READ_CHUNK_LINES", 3)
        assert logio._SPLIT_BLOCKS == 4
        self.check_bytes(tmp_path, monkeypatch, forks, n, to_fifo)

    @pytest.mark.parametrize("to_fifo", [False, True])
    def test_benchmark_size_log_gives_the_bytes_of_one_process(
        self, tmp_path, monkeypatch, forks, to_fifo
    ):
        self.check_bytes(tmp_path, monkeypatch, forks, 100_000, to_fifo)

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_failure_in_either_process_is_raised_here(
        self, tmp_path, monkeypatch, forks, block, existing
    ):
        # Of four blocks of 3 records, this process formats blocks 0 and 2
        # and the child blocks 1 and 3.
        monkeypatch.setattr(logio, "READ_CHUNK_LINES", 3)
        path = tmp_path / "run.jsonl"
        if existing:
            write_log(path, seed=1, iterations=3)  # one block: no fork
        before = snapshot(tmp_path)
        monkeypatch.setattr(logio, "_record_block", fail_on(
            logio._record_block, 3 * block, tmp_path))
        with pytest.raises(OSError) as err:
            write_log(path, seed=2, iterations=12)
        assert type(err.value) is OSError
        assert str(err.value) == "injected failure"
        assert snapshot(tmp_path) == before
        assert len(forks) == 1
        assert_reaped(forks)

    def test_child_failure_that_does_not_pickle_fails_the_write(
        self, tmp_path, monkeypatch, forks
    ):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def record_block(start, *args):
            if start == 9:  # the child's second block
                raise LocalError("no pickle")
            return b"x\n"

        monkeypatch.setattr(logio, "READ_CHUNK_LINES", 3)
        monkeypatch.setattr(logio, "_record_block", record_block)
        with pytest.raises(ChildProcessError,
                           match="records 9 to 11 ended without a result"):
            write_log(tmp_path / "run.jsonl", iterations=12)
        assert list(tmp_path.iterdir()) == []
        assert_reaped(forks)

    def test_closed_pipe_reaps_the_child(self, monkeypatch, forks):
        # The first block, larger than the stream's buffer, meets the
        # closed pipe while the child may still be formatting.
        reader, writer = os.pipe()
        os.close(reader)
        try:
            with pytest.raises(BrokenPipeError) as err:
                write_log(f"/dev/fd/{writer}",
                          iterations=4 * READ_CHUNK_LINES)
        finally:
            os.close(writer)
        # While its traceback, which holds the write's frames, is alive.
        assert err.value.errno == errno.EPIPE
        assert len(forks) == 1
        assert_reaped(forks)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="finds the child through /proc")
    def test_child_ends_when_the_writer_is_killed(self):
        # The writer blocks on a stdout that is never read, its child on
        # the pipe between them.  SIGKILL leaves the writer no finally to
        # reap the child in: the child must end by itself, as the send that
        # has no reader left fails.
        command = [sys.executable, "-m", "ysqht.cli", "simulate", "--theta",
                   "0.43633", "--delta-std", "0.69813", "--iterations",
                   "100000", "--seed", "1", "--out", "/dev/stdout"]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(logio.__file__).parents[1]))

        def forked_child(pid):  # a fork keeps its parent's command line
            for kid in Path(f"/proc/{pid}/task/{pid}/children").read_text() \
                    .split():
                with contextlib.suppress(FileNotFoundError):
                    if Path(f"/proc/{kid}/cmdline").read_bytes() \
                            == Path(f"/proc/{pid}/cmdline").read_bytes():
                        return int(kid)
            return None

        def running(pid):
            try:
                stat_line = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat_line.rsplit(")", 1)[1].split()[0] != "Z"

        with subprocess.Popen(command, stdout=subprocess.PIPE, env=env) \
                as writer:
            deadline = time.monotonic() + 60
            while (child := forked_child(writer.pid)) is None:
                assert time.monotonic() < deadline and writer.poll() is None
                time.sleep(0.01)
            writer.kill()
        deadline = time.monotonic() + 10
        while running(child) and time.monotonic() < deadline:
            time.sleep(0.01)
        ended = not running(child)
        if not ended:
            os.kill(child, signal.SIGKILL)
        assert ended

    @pytest.mark.parametrize("fails", [False, True])
    def test_the_child_leaves_only_by_exit(self, tmp_path, forks, fails):
        def body():
            if fails:
                raise OSError("injected failure")

        parent = os.getpid()
        marker = tmp_path / "returned into the caller's frames"
        with logio._forked(body):
            if os.getpid() != parent:
                marker.touch()
                os._exit(0)
            # Wait for the child to end, but leave it to be reaped.
            status = os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
        assert not marker.exists()
        assert (status.si_code, status.si_status) == (os.CLD_EXITED, fails)
        assert_reaped(forks)

    def test_interrupt_at_the_fork_stays_out_of_the_callers_frames(
        self, tmp_path, monkeypatch
    ):
        # A SIGINT that reaches the child as soon as it exists, as Ctrl-C
        # to the process group may: it must not run its handler before the
        # child is inside the try that ends it, or the KeyboardInterrupt
        # would unwind through the write's frames, which remove the
        # temporary file, and on into this test.
        parent, pids, fork = os.getpid(), [], os.fork
        marker = tmp_path / "interrupted in the caller's frames"

        def interrupted_fork():
            pid = fork()
            if pid:
                pids.append(pid)
                return pid
            try:
                os.kill(os.getpid(), signal.SIGINT)
                signal.pthread_sigmask(signal.SIG_BLOCK, [])  # runs handlers
            except KeyboardInterrupt:
                marker.touch()
                os._exit(1)
            return pid

        monkeypatch.setattr(os, "fork", interrupted_fork)
        monkeypatch.setattr(logio, "READ_CHUNK_LINES", 3)
        path = tmp_path / "run.jsonl"
        write_log(path, seed=1, iterations=3)  # one block: no fork
        before = snapshot(tmp_path)
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
        try:
            with pytest.raises(ChildProcessError, match="records 3 to 5"):
                write_log(path, seed=2, iterations=12)
        finally:
            if os.getpid() != parent:  # a child that got out
                os._exit(1)
        assert snapshot(tmp_path) == before
        assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == mask
        assert len(pids) == 1
        assert_reaped(pids)


def save_companion(path, **columns):
    """Write ``columns`` as the companion of the log at ``path``, under the
    digest of that log's bytes."""
    digest = hashlib.sha256(path.read_bytes()).digest()
    with companion_of(path).open("wb") as fh:
        np.savez(fh, sha256=np.frombuffer(digest, np.uint8), **columns)


def flip_a_count(path, counts):
    """Flip one bit of the stored counts, leaving the member's CRC-32."""
    data = bytearray(companion_of(path).read_bytes())
    data[data.index(counts.counts.tobytes()) + 8] ^= 1
    companion_of(path).write_bytes(bytes(data))


def other_logs_companion(path, counts):
    other = path.with_name("other.jsonl")
    write_log(other, seed=100)
    companion_of(other).replace(companion_of(path))


def with_first(array, value):
    array = array.copy()
    array.flat[0] = value
    return array


#: Each fault of a companion beside an intact log, made from the log's path
#: and counts.
COMPANION_FAULTS = {
    "missing": lambda path, counts: companion_of(path).unlink(),
    "truncated": lambda path, counts: companion_of(path).write_bytes(
        companion_of(path).read_bytes()[:300]),
    "garbage": lambda path, counts: companion_of(path).write_bytes(
        b"not an npz archive\n" * 20),
    "crc-damaged-member": flip_a_count,
    "another-log": other_logs_companion,
    "float32-alpha": lambda path, counts: save_companion(
        path, alpha=counts.alpha.astype(np.float32), counts=counts.counts),
    "big-endian-alpha": lambda path, counts: save_companion(
        path, alpha=counts.alpha.astype(">f8"), counts=counts.counts),
    "int32-counts": lambda path, counts: save_companion(
        path, alpha=counts.alpha, counts=counts.counts.astype(np.int32)),
    "transposed-counts": lambda path, counts: save_companion(
        path, alpha=counts.alpha, counts=counts.counts.T.copy()),
    "short-columns": lambda path, counts: save_companion(
        path, alpha=counts.alpha[:-1], counts=counts.counts[:-1]),
    "object-alpha": lambda path, counts: save_companion(
        path, alpha=counts.alpha.astype(object), counts=counts.counts),
    "nan-alpha": lambda path, counts: save_companion(
        path, alpha=with_first(counts.alpha, np.nan), counts=counts.counts),
    "negative-count": lambda path, counts: save_companion(
        path, alpha=counts.alpha, counts=with_first(counts.counts, -1)),
}


class TestColumnsCompanion:
    """``write_count_log`` leaves ``<log>.columns.npz`` beside a regular
    file, and ``read_count_log`` takes the columns from it only when it is
    valid for the exact bytes of the log; otherwise it parses the log."""

    def test_companion_holds_the_columns_and_the_logs_digest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _, counts = write_log(path)
        with np.load(companion_of(path), allow_pickle=False) as columns:
            assert sorted(columns.files) == ["alpha", "counts", "sha256"]
            assert columns["sha256"].tobytes() == hashlib.sha256(
                path.read_bytes()).digest()
            assert_same_counts(Counts(columns["alpha"], columns["counts"]),
                               counts)

    @pytest.mark.parametrize("fault", COMPANION_FAULTS)
    def test_faulty_companion_falls_back_to_the_parse(self, tmp_path, fault):
        path = tmp_path / "run.jsonl"
        _, counts = write_log(path)
        COMPANION_FAULTS[fault](path, counts)
        read, parses = read_counting_parses(path)
        assert parses > 0
        companion_of(path).unlink(missing_ok=True)
        assert_same_bits(read, read_count_log(path))
        assert_same_counts(read[1], counts)

    @pytest.mark.parametrize("damage", ["nan-alpha", "missing-key",
                                        "two-records", "count-2**63"])
    def test_damaged_log_beside_a_stale_companion_is_rejected(
        self, tmp_path, damage
    ):
        path = tmp_path / "run.jsonl"
        write_log(path)
        lines = path.read_text().splitlines()
        lines[5] = DAMAGES[damage][0](lines[5])
        path.write_text("\n".join(lines) + "\n")
        assert companion_of(path).is_file()
        with pytest.raises(LogFormatError) as stale:
            read_count_log(path)
        companion_of(path).unlink()
        with pytest.raises(LogFormatError) as alone:
            read_count_log(path)
        assert (stale.value.line_number, str(stale.value)) == (
            alone.value.line_number, str(alone.value))
        assert stale.value.line_number == 6

    def test_truncated_log_beside_its_companion_is_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_log(path)
        path.write_bytes(path.read_bytes()[:-30])
        with pytest.raises(LogFormatError, match="not valid JSON") as err:
            read_count_log(path)
        assert err.value.line_number == 21

    def test_fifo_gets_no_companion_and_is_read_once(self, tmp_path):
        # A valid companion for the very bytes that come down the pipe is
        # ignored: a stream can be neither hashed nor read twice.
        source = tmp_path / "source.jsonl"
        _, counts = write_log(source)
        fifo = tmp_path / "run.jsonl"
        os.mkfifo(fifo)
        companion_of(source).replace(companion_of(fifo))
        feeder = threading.Thread(
            target=lambda: fifo.write_bytes(source.read_bytes()), daemon=True)
        feeder.start()
        (_, loaded), parses = read_counting_parses(fifo)
        feeder.join(timeout=60)
        assert parses > 0
        assert_same_counts(loaded, counts)

        received = []
        drain = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True)
        drain.start()
        companion_of(fifo).unlink()
        write_log(fifo)
        drain.join(timeout=60)
        # The same run: only the manifest line, with its timestamp, may differ.
        assert received[0].split(b"\n", 1)[1] == \
            source.read_bytes().split(b"\n", 1)[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.jsonl", "source.jsonl",
        ]

    def test_failed_log_write_writes_no_companion(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.jsonl"
        write_log(path, seed=1)
        before = snapshot(tmp_path)
        failing = fail_on(logio._record_block, READ_CHUNK_LINES, tmp_path)
        monkeypatch.setattr(logio, "_record_block", failing)
        with pytest.raises(OSError, match="injected"):
            write_log(path, seed=2, iterations=READ_CHUNK_LINES + 1)
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("where", ["member", "replace"])
    def test_failed_companion_write_leaves_the_new_log(
        self, tmp_path, monkeypatch, where
    ):
        path = tmp_path / "run.jsonl"
        write_log(path, seed=1)
        old_companion = companion_of(path).read_bytes()
        if where == "member":
            # The first column's data fails after its header and part of
            # its bytes are in the archive.
            write = zipfile._ZipWriteFile.write

            def write_part(member, data):
                if isinstance(data, memoryview):
                    write(member, data[:8])
                    raise OSError("injected failure")
                return write(member, data)
            monkeypatch.setattr(zipfile._ZipWriteFile, "write", write_part)
        else:
            replace = os.replace

            def refuse_companion(source, target):
                if str(target).endswith(logio.COLUMNS_SUFFIX):
                    raise OSError("injected failure")
                replace(source, target)
            monkeypatch.setattr(os, "replace", refuse_companion)
        with pytest.raises(OSError, match="injected"):
            write_log(path, seed=2)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.jsonl", "run.jsonl.columns.npz",
        ]
        assert companion_of(path).read_bytes() == old_companion
        (_, loaded), parses = read_counting_parses(path)
        assert parses > 0
        assert_same_counts(loaded, run_acquisition(make_config(seed=2)))

    def test_companion_gets_the_logs_mode(self, tmp_path, umask):
        path = tmp_path / "run.jsonl"
        path.write_text("old\n")
        path.chmod(0o600)
        write_log(path)
        assert mode_of(companion_of(path)) == 0o600
