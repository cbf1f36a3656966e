"""Property tests of the count-log format: whatever counts are written, the
reader returns them unchanged, also from lines that are blank, padded or
have their keys in another order, the bytes
written do not depend on the writer's block size, each record line written
a block at a time is ``RECORD_LINE`` of its record, the counts read from a
log's companion are the bits its parse gives, a record out of place is
named before any damaged line after it, and a version 2 log, whatever its
finite tilts, reads as the counts its records hold."""

import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ysqht import (
    AcquisitionConfig,
    Counts,
    LogFormatError,
    NoiseParams,
    read_count_log,
    write_count_log,
)
from ysqht import logio

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

alphas = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320,
                     2.2250738585072014e-308, 1e-300, -1e-300, 1e16, -1e22,
                     1e308, -1e308, 1.7e308, -1.7e308, sys.float_info.max,
                     -sys.float_info.max]),
)
counts = st.integers(0, 2**63 - 1)
records = st.lists(st.lists(counts, min_size=4, max_size=4),
                   min_size=1, max_size=12)
#: How a record line is rewritten: blank lines before it, ASCII whitespace
#: before and after it (each byte the reader skips), an order of its keys,
#: and its line ending.
layouts = st.tuples(
    st.integers(0, 2),
    st.text(" \t\x0b\x0c", max_size=3),
    st.text(" \t\x0b\x0c", max_size=3),
    st.permutations(range(len(logio.RECORD_KEYS))),
    st.sampled_from(["\n", "\r\n"]),
)


def config_of(n):
    return AcquisitionConfig(
        theta=0.4, noise=NoiseParams(0.3), seed=1, iterations=n)


def write_log(directory, rows):
    """Write ``rows`` of four counts as a count log; returns its path and
    the counts."""
    data = Counts(rows)
    config = config_of(len(data))
    path = Path(directory) / "run.jsonl"
    write_count_log(path, config, data)
    return path, data


def companion_of(path):
    return path.with_name(path.name + logio.COLUMNS_SUFFIX)


def read_back(path):
    """The counts parsed from ``path``, its companion removed."""
    companion_of(path).unlink(missing_ok=True)
    return read_count_log(path)[1]


def assert_same_counts(a, b):
    assert np.array_equal(a.counts, b.counts)


def bits(counts):
    """The counts of ``counts``, their type and shape as bytes."""
    return (counts.counts.dtype, counts.counts.shape, counts.counts.tobytes())


@SETTINGS
@given(records)
def test_companion_gives_the_bits_of_the_parse(rows):
    with tempfile.TemporaryDirectory() as directory:
        path, data = write_log(directory, rows)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(logio, "_fault", None)  # must not be called
            manifest, cached = read_count_log(path)
        parsed = read_back(path)
        assert read_count_log(path)[0] == manifest
    assert bits(cached) == bits(parsed) == bits(data)


@SETTINGS
@given(records)
def test_written_counts_read_back_unchanged(rows):
    with tempfile.TemporaryDirectory() as directory:
        path, data = write_log(directory, rows)
        assert_same_counts(read_back(path), data)


@SETTINGS
@given(records)
def test_written_bytes_do_not_depend_on_the_block_size(rows):
    with tempfile.TemporaryDirectory() as directory:
        path, _ = write_log(directory, rows)
        whole = path.read_text().splitlines()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(logio, "BLOCK_LINES", 3)
            path, _ = write_log(directory, rows)
        in_blocks = path.read_text().splitlines()
    assert in_blocks[1:] == whole[1:]


@pytest.mark.parametrize("target", ["file", "link"])
@SETTINGS
@given(records)
def test_each_record_line_is_the_template_of_its_record(target, rows):
    # A link is a stream: it is written in place and gets no companion.
    with tempfile.TemporaryDirectory() as directory:
        if target == "link":
            (Path(directory) / "run.jsonl").symlink_to("records.jsonl")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(logio, "BLOCK_LINES", 3)
            path, data = write_log(directory, rows)
        assert path.is_symlink() == (target == "link")
        assert companion_of(path).exists() == (target == "file")
        head, *lines, end = path.read_bytes().decode().split("\n")
    assert end == ""
    assert lines == [(logio.RECORD_LINE % (i, *row)).decode()[:-1]
                     for i, row in enumerate(data.counts.tolist())]


@SETTINGS
@given(records.flatmap(
    lambda rows: st.tuples(st.just(rows), st.lists(
        layouts, min_size=len(rows), max_size=len(rows)))
))
def test_blank_padded_and_reordered_lines_read_back_unchanged(case):
    rows, line_layouts = case
    with tempfile.TemporaryDirectory() as directory:
        path, data = write_log(directory, rows)
        head, *lines = path.read_text().splitlines()
        text = head + "\n"
        for line, (blanks, left, right, order, end) in zip(lines, line_layouts):
            pairs = line[1:-1].split(", ")
            line = "{" + ", ".join(pairs[k] for k in order) + "}"
            text += blanks * end + left + line + right + end
        path.write_bytes(text.encode())
        assert_same_counts(read_back(path), data)


@st.composite
def misplaced_logs(draw):
    """Rows of a log, its record lines with one record out of place (dropped,
    duplicated, swapped with the next, or one appended past the last), the
    index of the first line out of place, and the message it must raise."""
    rows = draw(records)
    n = len(rows)
    kinds = ["duplicated", "appended"] + (["dropped", "swapped"] if n > 1
                                          else [])
    kind = draw(st.sampled_from(kinds))
    j = draw(st.integers(0, n - 2 if kind in ("dropped", "swapped") else n - 1))
    lines = [(logio.RECORD_LINE % (i, *row)).decode()[:-1]
             for i, row in enumerate(rows)]
    if kind == "dropped":  # record j + 1 stands where j belongs
        del lines[j]
        return rows, lines, j, f"i = {j + 1} where {j} belongs"
    if kind == "swapped":
        lines[j:j + 2] = lines[j + 1], lines[j]
        return rows, lines, j, f"i = {j + 1} where {j} belongs"
    if kind == "duplicated":
        lines.insert(j, lines[j])
        return rows, lines, j + 1, f"i = {j} where {j + 1} belongs"
    lines.append((logio.RECORD_LINE % (n, 1, 1, 1, 1)).decode()[:-1])
    return rows, lines, n, f"than the {n} its manifest promises"


#: Ways to damage a line, each a fault of the line alone.
line_damages = st.sampled_from([
    lambda line: line[:-1],
    lambda line: line.replace('"n1q": ', '"n1q": -1'),
    lambda line: line.replace('"n1p": ', '"alpha": 0.5, "n1p": '),
])


@SETTINGS
@given(misplaced_logs(), line_damages, st.data())
def test_first_record_out_of_place_is_named_before_later_damage(
    case, damage, data
):
    rows, lines, bad, fragment = case
    # One damaged line after the one out of place: one of the lines that
    # follow it, or one more line at the end.
    k = data.draw(st.integers(bad + 1, len(lines)))
    lines[k:k + 1] = [damage(lines[k] if k < len(lines) else lines[bad])]
    with tempfile.TemporaryDirectory() as directory:
        path, _ = write_log(directory, rows)
        head = path.read_text().splitlines()[0]
        path.write_text("\n".join([head, *lines]) + "\n")
        with pytest.raises(LogFormatError, match=fragment) as err:
            read_back(path)
    assert err.value.line_number == bad + 2


@SETTINGS
@given(st.lists(st.tuples(alphas, st.lists(counts, min_size=4, max_size=4)),
                min_size=1, max_size=12))
def test_version_2_log_reads_as_its_counts(rows):
    # A version 2 record holds a tilt, written with %.17g as that version
    # wrote it (a negative zero as -0.0); it is checked and dropped.
    data = Counts([c for _, c in rows])
    manifest = dataclasses.replace(
        logio.manifest_for_acquisition(config_of(len(data))),
        schema_version=2)
    lines = [
        (b'{"i": %d, "alpha": %.17g, "n1p": %d, "n1q": %d, "n2p": %d, '
         b'"n2q": %d}' % (i, alpha, *row)).replace(b'"alpha": -0,',
                                                  b'"alpha": -0.0,')
        for i, (alpha, row) in enumerate(rows)]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "v2.jsonl"
        path.write_bytes(b"\n".join([manifest.to_json().encode(), *lines])
                         + b"\n")
        assert bits(read_count_log(path)[1]) == bits(data)
