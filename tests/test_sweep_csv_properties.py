"""Property tests of the sweep-table CSV format: every float cell reads back
bit for bit, boolean cells read back as true/false, and the column-at-once
writer (which formats a column of one value once) gives the bytes of a plain
per-cell formatter, and the companion manifest, whose grid is written from
the first column's cells, gives the bytes of ``json.dumps``.  The tables
are written from ``Sweep`` and ``SimulatedSweep`` records built straight
from drawn columns."""

import csv
import dataclasses
import json
import math
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ysqht import (
    RunManifest,
    SimulatedSweep,
    Sweep,
    sweep_table,
    write_sweep_csv,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

THETA = 5.0 * math.pi / 36.0

floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.2250738585072014e-308, sys.float_info.max,
                     -sys.float_info.max]),
)


@st.composite
def float_columns(draw, n):
    """A float column of ``n`` cells; it may repeat one value, as a sweep's
    constant ratio columns do."""
    if draw(st.booleans()):
        return np.full(n, draw(floats))
    return np.array(draw(st.lists(floats, min_size=n, max_size=n)),
                    dtype=float)


def bool_columns(n):
    return st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda cells: np.array(cells, dtype=bool))


@st.composite
def sweeps(draw):
    """A ``Sweep`` on either axis, on an ascending grid of up to 8 finite
    floats with one to three gamma1 values, or a ``SimulatedSweep`` of such
    a sweep in either mode."""
    grid = np.array(sorted(draw(st.lists(floats, max_size=8))), dtype=float)
    n = grid.size
    gamma1 = tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                 max_size=3, unique=True)))

    def rows(column):
        """One drawn column per gamma1 value, of shape (len(gamma1), n)."""
        return np.array([draw(column(n)) for _ in gamma1]).reshape(
            len(gamma1), n)

    axis = draw(st.sampled_from(["delta", "gamma2"]))
    sweep = Sweep(axis, THETA, draw(st.floats(0.0, 1.0)), gamma1, grid,
                  draw(floats), draw(float_columns(n)), rows(float_columns),
                  rows(bool_columns))
    if not draw(st.booleans()):
        return sweep
    return SimulatedSweep(
        sweep, draw(st.sampled_from(["stochastic", "expected"])),
        draw(st.integers(0, 2**64 - 1)), draw(st.integers(1, 10**6)),
        draw(st.floats(1e-3, 1e6)), draw(st.floats(1e-3, 1e3)),
        np.zeros(n, np.uint64), *(draw(float_columns(n)) for _ in range(2)),
        rows(float_columns), rows(float_columns),
    )


def reference_cell(value):
    """The cell format spelled out per value: ``repr`` of the Python float,
    lower-case booleans."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return repr(float(value))


def bits(value):
    return struct.pack("<d", value)


def write_and_read(drawn):
    """The bytes of the table written by ``write_sweep_csv``, its rows read
    back by ``csv``, and the text of its manifest."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        manifest_path = write_sweep_csv(path, drawn)
        data = path.read_bytes()
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        return data, rows, manifest_path.read_text()


@SETTINGS
@given(drawn=sweeps())
def test_cells_read_back_exactly(drawn):
    header, columns = sweep_table(drawn)
    _, rows, _ = write_and_read(drawn)
    assert rows[0] == header
    assert len(rows) == 1 + columns[0].size
    for column, cells in zip(columns, zip(*rows[1:])):
        if column.dtype == bool:
            assert list(cells) == ["true" if v else "false" for v in column]
        else:
            assert [bits(float(c)) for c in cells] == \
                [bits(v) for v in column.tolist()]


@SETTINGS
@given(drawn=sweeps())
def test_bytes_match_a_per_cell_formatter(drawn):
    header, columns = sweep_table(drawn)
    data, _, _ = write_and_read(drawn)
    lines = [header] + [[reference_cell(v) for v in row]
                        for row in zip(*columns)]
    assert data == "".join(",".join(line) + "\n" for line in lines).encode()


@SETTINGS
@given(drawn=sweeps())
def test_manifest_bytes_match_json(drawn):
    sim = drawn if isinstance(drawn, SimulatedSweep) else None
    sweep = drawn if sim is None else sim.sweep
    _, _, text = write_and_read(drawn)
    fixed = "gamma2" if sweep.axis == "delta" else "delta_std"
    acquisition = {} if sim is None else dict(
        iterations=sim.iterations, mean_rate=sim.mean_rate,
        window_seconds=sim.window_seconds, seed=sim.seed, mode=sim.mode,
    )
    manifest = RunManifest(
        kind="sweep", theta=sweep.theta, gamma1=sweep.gamma1_values,
        axis=sweep.axis, grid=tuple(sweep.x.tolist()),
        with_sim=sim is not None, created=json.loads(text)["created"],
        **{fixed: sweep.fixed}, **acquisition,
    )
    payload = {k: v for k, v in dataclasses.asdict(manifest).items()
               if v is not None}
    assert text == json.dumps(payload, sort_keys=True) + "\n"
