"""Property tests of the sweep-table CSV format: every float cell reads back
bit for bit, boolean cells read back as true/false, and the column-at-once
writer (which formats a column of one value once) gives the bytes of a plain
per-cell formatter, and the companion manifest, whose grid is written from
the first column's cells, gives the bytes of ``json.dumps``."""

import csv
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ysqht import RunManifest, write_sweep_csv

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.2250738585072014e-308, sys.float_info.max,
                     -sys.float_info.max]),
)
#: Cells of each column kind; numpy scalars take the cell-by-cell path.
CELLS = {
    "float": floats,
    "bool": st.booleans(),
    "float64": floats.map(np.float64),
    "bool_": st.booleans().map(np.bool_),
}


@st.composite
def tables(draw):
    """(kinds, columns): up to five columns of one kind each, all of the
    same length; a float column may repeat one value, as a sweep's constant
    ratio columns do."""
    n = draw(st.integers(0, 8))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1,
                          max_size=5))
    columns = []
    for kind in kinds:
        if kind == "float" and draw(st.booleans()):
            columns.append([draw(floats)] * n)
        else:
            columns.append(draw(st.lists(CELLS[kind], min_size=n,
                                         max_size=n)))
    return kinds, columns


def reference_cell(value):
    """The cell format spelled out per value: ``repr`` of the Python float,
    lower-case booleans."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return repr(float(value))


def bits(value):
    return struct.pack("<d", value)


def write_and_read(header, columns):
    """The bytes of the table written by ``write_sweep_csv`` and its rows
    read back by ``csv``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        write_sweep_csv(path, header, columns, RunManifest(kind="sweep"))
        data = path.read_bytes()
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    return data, rows


@SETTINGS
@given(table=tables())
def test_cells_read_back_exactly(table):
    kinds, columns = table
    header = [f"c{k}" for k in range(len(columns))]
    _, rows = write_and_read(header, columns)
    assert rows[0] == header
    assert len(rows) == 1 + len(columns[0])
    for kind, column, cells in zip(kinds, columns, zip(*rows[1:])):
        if kind.startswith("bool"):
            assert list(cells) == ["true" if v else "false" for v in column]
        else:
            assert [bits(float(c)) for c in cells] == \
                [bits(float(v)) for v in column]


@SETTINGS
@given(table=tables())
def test_bytes_match_a_per_cell_formatter(table):
    _, columns = table
    header = [f"c{k}" for k in range(len(columns))]
    data, _ = write_and_read(header, columns)
    lines = [header] + [[reference_cell(v) for v in row]
                        for row in zip(*columns)]
    assert data == "".join(",".join(line) + "\n" for line in lines).encode()



@st.composite
def sweeps(draw):
    """(grid, columns): an ascending grid of finite floats, which is the
    first column, then up to four columns of any kind on it."""
    grid = sorted(draw(st.lists(floats, max_size=12)))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), max_size=4))
    return grid, [grid] + [
        draw(st.lists(CELLS[kind], min_size=len(grid), max_size=len(grid)))
        for kind in kinds
    ]


@SETTINGS
@given(sweep=sweeps())
def test_manifest_bytes_match_json(sweep):
    grid, columns = sweep
    manifest = RunManifest(kind="sweep", axis="delta", grid=tuple(grid),
                           created="2026-01-01T00:00:00+00:00")
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        write_sweep_csv(path, [f"c{k}" for k in range(len(columns))],
                        columns, manifest)
        text = Path(directory, "table.csv.manifest.json").read_text()
    payload = {k: v for k, v in vars(manifest).items() if v is not None}
    assert text == json.dumps(payload, sort_keys=True) + "\n"
