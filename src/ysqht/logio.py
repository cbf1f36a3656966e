"""Bit-stable file formats: run manifests, count logs, and sweep tables.

Count logs are JSON lines (streamable, append-safe): the first line is the
run manifest, every following line one acquisition record; in memory the
records are one columnar ``Counts`` value.  Sweep tables are CSV with frozen
header names and a companion ``<name>.manifest.json``, both built by
``write_sweep_csv(path, table)`` from one record: a ``Sweep``, or the
``SimulatedSweep`` that holds one.  Record lines hold integers alone and
CSV cells use the shortest round-trip decimal form, so parsing a file back
reproduces the in-memory values exactly.

Both writers send their lines through one block pipeline, ``_blocks``,
``BLOCK_LINES`` lines at a time (a count log's formatted by one ``%`` on
``RECORD_LINE`` repeated), so a count-log write's memory does not grow
with the file, and a sweep write holds, beside its columns, its grid's
cells, which the manifest's ``grid`` reuses, and one block.
A regular file is written to a new file beside it that then replaces it,
so that a write that fails part way leaves the old file or none, never
half of one; streams (pipes, devices, links such as ``/dev/stdout``) are
written in place.

A count log written to a regular file gets a companion,
``<log>.columns.npz``: its ``counts`` column and the SHA-256 of the log's
bytes, digested as they are written.  The log alone is authoritative.
``read_count_log`` reads it as bytes through one handle,
always parses and checks the manifest line, and takes the records from the
companion only when the log it opened and the companion are regular files,
the companion holds the log's digest, and its columns are of the right
dtypes and shapes and make a valid ``Counts``; otherwise it decodes and
checks the record lines one at a time, in file order, each record straight
into the counts, and reads no line past the first bad one, so that a
stream's bad line is reported as it arrives: the only path that raises
``LogFormatError``.
Deleting a companion costs only time; streams and links get none, and are
never hashed or read twice.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import stat
import zipfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator

import numpy as np
from numpy.lib import format as npy

from . import LogFormatError, ManifestVersionError, __version__
from .counting import AcquisitionConfig, Counts, SimulatedSweep
from .theory import Sweep

#: Version 3: a count log's records hold counts alone, no tilt.  Version 2
#: logs also hold each record's tilt ``alpha``; their counts were drawn by
#: RNG stream 2 (see ``run_acquisition``), as version 3's are.  Sweeps of
#: both versions use hashed mixing seeds.
SCHEMA_VERSION = 3
#: Version 1 files have version 2's layout; their counts came from the
#: older, per-iteration interleaved draws and analyse the same way.  The
#: tilt of a version 1 or 2 record is checked, then dropped.
READABLE_SCHEMA_VERSIONS = (1, 2, 3)
TOOL_NAME = "ysqht"

KIND_COUNT_LOG = "count-log"
KIND_SWEEP = "sweep"


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _finite(value: Any) -> bool:
    """Whether ``value`` is a finite int or float (not a bool)."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


#: What the JSON value of a manifest field of each annotated type must be
#: (the annotations are strings, as this module's first import makes them).
_FIELD_CHECKS = {
    "float": ("a finite number", _finite),
    "tuple[float, ...]": ("a list of finite numbers",
                          lambda v: type(v) is list and all(map(_finite, v))),
    "int": ("an integer in [0, 2**64)",
            lambda v: type(v) is int and 0 <= v < 2**64),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
}


@dataclass(frozen=True)
class RunManifest:
    """Resolved parameters of a run, embedded in every output file.

    Re-running a manifest reproduces the file byte for byte except for the
    ``created`` timestamp, which is excluded from the reproducibility
    contract."""

    kind: str
    theta: float | None = None
    delta_std: float | None = None
    gamma1: tuple[float, ...] | None = None
    gamma2: float | None = None
    iterations: int | None = None
    mean_rate: float | None = None
    window_seconds: float | None = None
    seed: int | None = None
    mode: str | None = None
    axis: str | None = None
    grid: tuple[float, ...] | None = None
    with_sim: bool | None = None
    created: str = field(default_factory=_timestamp)
    schema_version: int = SCHEMA_VERSION
    tool: str = TOOL_NAME
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps({key: value for key, value in vars(self).items()
                           if value is not None}, sort_keys=True)

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "RunManifest":
        data = dict(payload)
        schema = data.get("schema_version")
        if schema not in READABLE_SCHEMA_VERSIONS:
            raise ManifestVersionError(
                f"unsupported manifest schema_version {schema!r}; "
                f"this tool reads versions {READABLE_SCHEMA_VERSIONS}"
            )
        if "kind" not in data:
            raise ManifestVersionError("manifest is missing its 'kind' field")
        unknown = set(data) - cls.__dataclass_fields__.keys()
        if unknown:
            raise ManifestVersionError(
                f"manifest carries unknown fields {sorted(unknown)}"
            )
        for key, value in payload.items():
            kind = cls.__dataclass_fields__[key].type.removesuffix(" | None")
            wanted, check = _FIELD_CHECKS[kind]
            if not check(value):
                raise LogFormatError(1, f"manifest field {key!r} must be "
                                        f"{wanted}, got {value!r:.80}")
            if type(value) is list:
                data[key] = tuple(map(float, value))
        return cls(**data)


def manifest_for_acquisition(config: AcquisitionConfig) -> RunManifest:
    return RunManifest(
        kind=KIND_COUNT_LOG,
        theta=config.theta,
        delta_std=config.noise.delta_std,
        iterations=config.iterations,
        mean_rate=config.mean_rate,
        window_seconds=config.window_seconds,
        seed=config.seed,
    )


#: Keys of a record line, in the order they are written.
RECORD_KEYS = ("i", "n1p", "n1q", "n2p", "n2q")
#: Keys of a record line of a version 1 or 2 log, whose tilt is read and
#: checked but not kept.
TILTED_RECORD_KEYS = ("i", "alpha", "n1p", "n1q", "n2p", "n2q")
#: A record line, its fields in the order of ``RECORD_KEYS``.
RECORD_LINE = b'{"i": %d, "n1p": %d, "n1q": %d, "n2p": %d, "n2q": %d}\n'

#: Suffix of the companion that ``write_count_log`` writes beside a count
#: log that is a regular file: an npz archive, as ``np.savez`` writes one,
#: of the log's ``counts`` column and the SHA-256 of its bytes.  A version
#: 1 or 2 companion also holds an ``alpha`` column.
COLUMNS_SUFFIX = ".columns.npz"

#: Lines in a block, as ``write_count_log`` and ``write_sweep_csv`` format
#: and write them; ``read_count_log`` reads a count log a line at a time.
BLOCK_LINES = 4096


def _replace(path: Path, mode: int | None,
             write: Callable[[BinaryIO], object]) -> None:
    """Write a new file in the directory of ``path`` by ``write``, then
    rename it over ``path`` (``os.replace``); if anything fails first, the
    new file is removed and ``path`` keeps its old bytes, or stays absent.
    The new file gets the permission bits of ``mode``, or, when it is None,
    those the umask leaves of 0666, as ``open`` would give."""
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    except OSError as err:  # name the output, not its temporary file
        err.filename = str(path)
        raise
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            write(fh)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_blocks(path: Path, blocks: Iterable[bytes],
                  digest: Any = None) -> bool:
    """Write ``blocks`` of bytes to ``path``; returns whether ``path`` is a
    regular file.  One, or a path where nothing is yet, is written through
    ``_replace``, keeping the old file's permission bits, and ``digest`` (a
    ``hashlib`` object), when given, takes its bytes as they are written.
    Anything else at ``path``, such as a pipe, a device or a link
    (``/dev/stdout``), is written in place."""
    try:
        mode = path.lstat().st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with path.open("wb") as fh:
            fh.writelines(blocks)
        return False
    if digest is not None:  # each block as it goes to be written
        blocks = (digest.update(block) or block for block in blocks)
    _replace(path, mode, lambda fh: fh.writelines(blocks))
    return True


def _record_block(start: int, counts: np.ndarray) -> bytes:
    """The record lines of the (m, 4) ``counts``, numbered from ``start``,
    by one ``%`` on ``RECORD_LINE * m``."""
    rows = np.column_stack((np.arange(start, start + len(counts)), counts))
    return RECORD_LINE * len(counts) % tuple(rows.ravel().tolist())


def _blocks(n: int, block: Callable[[int, int], bytes]) -> Iterator[bytes]:
    """``block(start, stop)``, lines ``start`` to ``stop - 1`` of ``n``, for
    each block of ``BLOCK_LINES`` lines."""
    return (block(start, min(start + BLOCK_LINES, n))
            for start in range(0, n, BLOCK_LINES))


def write_count_log(
    path: str | Path,
    config: AcquisitionConfig,
    counts: Counts,
) -> RunManifest:
    """Write ``counts`` as a count log under the manifest of ``config``, a
    block of ``BLOCK_LINES`` record lines at a time, so that the memory
    the lines take does not grow with the number of records; a regular file
    is replaced only once the whole log is written, and then gets its
    companion ``<path>.columns.npz``, with the log's permission bits."""
    if len(counts) != config.iterations:
        raise ValueError(
            f"{len(counts)} records for a run of {config.iterations} "
            f"iterations"
        )
    manifest = manifest_for_acquisition(config)
    path = Path(path)
    digest = hashlib.sha256()
    head = (manifest.to_json() + "\n").encode()
    blocks = _blocks(len(counts), lambda k, stop: _record_block(
        k, counts.counts[k:stop]))
    if _write_blocks(path, itertools.chain([head], blocks), digest):
        _replace(_columns_path(path), path.stat().st_mode,
                 lambda fh: _write_npz(
                     fh, counts=counts.counts,
                     sha256=np.frombuffer(digest.digest(), np.uint8)))
    return manifest


def _write_npz(fh: BinaryIO, **columns: np.ndarray) -> None:
    """Write ``columns`` as ``np.savez`` does, an uncompressed zip archive
    of one ``<name>.npy`` member per column that ``np.load`` reads, but
    each member straight from its column's buffer: ``np.savez`` copies a
    column in blocks of up to 16 MiB, so its memory grows with the log."""
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as archive:
        for name, column in columns.items():
            column = np.ascontiguousarray(column)
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                npy.write_array_header_1_0(
                    member, npy.header_data_from_array_1_0(column))
                member.write(memoryview(column).cast("B"))


def _columns_path(log: Path) -> Path:
    return log.with_name(log.name + COLUMNS_SUFFIX)


def _companion_counts(fh: BinaryIO, log: Path, n: int,
                      tilted: bool) -> Counts | None:
    """The counts of the log open in ``fh`` as its companion holds them, or
    None unless that log is a regular file and its companion is valid: it
    loads without pickle, its ``sha256`` is the digest of the log's exact
    bytes, and its columns have the dtypes and shapes of ``n`` records and
    make a valid ``Counts``; the companion of a ``tilted`` log, one of
    version 1 or 2, must also hold ``n`` finite float64 tilts ``alpha``.
    ``fh`` is left where it was."""
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return None  # a stream is read once, and never hashed
    position = fh.tell()
    try:
        # O_NONBLOCK: a FIFO at the companion's path is opened without
        # waiting for a writer, then passed over as not a regular file.
        with open(os.open(_columns_path(log), os.O_RDONLY | os.O_NONBLOCK),
                  "rb") as raw:
            if not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
                return None
            with np.load(raw, allow_pickle=False) as columns:
                expected = columns["sha256"].tobytes()
                digest = hashlib.sha256()
                fh.seek(0)
                while block := fh.read(1 << 20):
                    digest.update(block)
                if digest.digest() != expected:
                    return None
                counts = columns["counts"]
                tilts_valid = not tilted or (
                    (alpha := columns["alpha"]).dtype == np.float64
                    and alpha.shape == (n,) and np.isfinite(alpha).all())
                if tilts_valid and counts.dtype == np.int64 \
                        and counts.shape == (n, 4):
                    return Counts(counts)
    # The log alone is authoritative: whatever is wrong with its companion
    # (missing, not a regular file, truncated, not an npz, a bad member or
    # value), it is parsed.
    except Exception:
        return None
    finally:
        fh.seek(position)
    return None


def _fault(payload: Any, place: int, stop: int,
           keys: tuple[str, ...]) -> str | None:
    """Why a parsed record line is not a valid record with exactly the
    ``keys``, the record at ``place`` of a log of ``stop``; None if it is
    one.  A tilt ``alpha``, where ``keys`` has one, must be finite."""
    if not isinstance(payload, dict):
        return "record line must be a JSON object"
    if set(payload) != set(keys):
        return (f"record must have exactly the keys {sorted(keys)}, "
                f"got {sorted(payload)}")
    if "alpha" in keys and not _finite(alpha := payload["alpha"]):
        return f"alpha must be finite, got {alpha!r}"
    for key in RECORD_KEYS:
        value = payload[key]
        if type(value) is not int or not 0 <= value < 2**63:
            return f"{key} must be a non-negative 64-bit integer, got {value!r}"
    if payload["i"] != place:
        return (f"record index i = {payload['i']} where {place} belongs: "
                f"records are missing, duplicated or out of order")
    if place == stop:
        return f"more records than the {stop} its manifest promises"
    return None


def read_count_log(path: str | Path) -> tuple[RunManifest, Counts]:
    """Parse a count log back into its manifest and counts, taking the
    counts from the log's companion when it is valid for the log's bytes.

    Otherwise the record lines are read in one pass straight into the
    counts: blank lines are skipped and surrounding ASCII whitespace is
    ignored, and every other line is decoded and checked by ``_fault`` on
    its own, in file order.  Raises LogFormatError naming the first bad
    line: one that is not UTF-8 or not one valid record, a record whose
    index ``i`` is not its place (record k holds ``i == k``), a record of a
    version 1 or 2 log whose tilt ``alpha`` is not a finite number (it is
    then dropped), a record past
    the manifest's ``iterations``, or, after the last line, too few
    records.  No line past the bad one is read, so a stream's bad line is
    reported as it arrives.  Raises ManifestVersionError on manifests this
    version cannot read.  A line ends at a line feed, and is read as bytes
    that must be UTF-8."""
    with Path(path).open("rb") as fh:
        head_line = fh.readline()
        if not head_line:
            raise LogFormatError(1, "empty file, expected a manifest line")
        try:
            head = json.loads(head_line.decode())
        except (ValueError, RecursionError) as err:  # or nested too deep
            raise LogFormatError(
                1, f"manifest is not valid JSON: {err}"
            ) from err
        if not isinstance(head, dict):
            raise LogFormatError(1, "manifest line must be a JSON object")
        manifest = RunManifest.from_json_dict(head)
        if manifest.kind != KIND_COUNT_LOG:
            raise LogFormatError(
                1,
                f"expected a {KIND_COUNT_LOG!r} manifest, got {manifest.kind!r}",
            )
        iterations = manifest.iterations
        if iterations is None or iterations < 1:
            raise LogFormatError(
                1, f"manifest iterations must be a positive integer, got "
                   f"{iterations!r}"
            )
        tilted = manifest.schema_version < SCHEMA_VERSION
        cached = _companion_counts(fh, Path(path), iterations, tilted)
        if cached is not None:
            return manifest, cached
        from array import array  # loaded by a parse alone: it maps a library
        keys = TILTED_RECORD_KEYS if tilted else RECORD_KEYS
        counts, line_number = array("q"), 1
        for line_number, line in enumerate(fh, 2):
            if not (text := line.strip()):
                continue
            try:  # a UnicodeDecodeError is a ValueError
                payload = json.loads(text.decode())
            except (ValueError, RecursionError) as err:  # or nested too deep
                raise LogFormatError(
                    line_number, f"not valid JSON: {err}") from err
            fault = _fault(payload, len(counts) // 4, iterations, keys)
            if fault is not None:
                raise LogFormatError(line_number, fault)
            counts.extend([payload[key] for key in RECORD_KEYS[1:]])
    if len(counts) < 4 * iterations:
        raise LogFormatError(
            line_number + 1, f"log holds {len(counts) // 4} records but "
                             f"its manifest promises {iterations}",
        )
    return manifest, Counts(np.frombuffer(counts, np.int64).reshape(-1, 4))


#: Header of the swept-value column of each sweep axis.
AXIS_COLUMNS = {"delta": "delta_std", "gamma2": "gamma2"}

#: The fields a sweep manifest copies, by name, from its ``SimulatedSweep``.
SIM_MANIFEST_FIELDS = ("mode", "seed", "iterations", "mean_rate",
                       "window_seconds")


def sweep_table(
    table: Sweep | SimulatedSweep,
) -> tuple[list[str], list[np.ndarray]]:
    """Frozen column names and the column of each, a float or bool array
    over the grid: the swept value, q1/p1, q2/p2, then a q/p and a reversal
    column per gamma1 (suffixed ``_gamma1_<value>`` when there are
    several), all from the analytic sweep, and for a ``SimulatedSweep`` its
    simulated q2/p2 and q/p, each followed by its standard error."""
    sim = table if isinstance(table, SimulatedSweep) else None
    sweep = table if sim is None else sim.sweep
    suffixes = ([""] if len(sweep.gamma1_values) == 1 else
                [f"_gamma1_{g!r}" for g in sweep.gamma1_values])
    header = [AXIS_COLUMNS[sweep.axis], "q1_over_p1", "q2_over_p2"]
    header += [f"q_over_p{s}" for s in suffixes]
    header += [f"reversal{s}" for s in suffixes]
    columns = [
        sweep.x, np.broadcast_to(sweep.q1_over_p1, sweep.x.shape),
        sweep.q2_over_p2, *sweep.q_over_p, *sweep.reversal,
    ]
    if sim is not None:
        header += ["sim_q2_over_p2", "sim_q2_over_p2_err"]
        columns += [sim.q2_over_p2, sim.q2_over_p2_err]
        for s, values, errors in zip(suffixes, sim.q_over_p, sim.q_over_p_err):
            header += [f"sim_q_over_p{s}", f"sim_q_over_p_err{s}"]
            columns += [values, errors]
    return header, columns


def _cells(column: np.ndarray) -> Iterable[str]:
    """The CSV cells of a float or bool column: each float's shortest
    round-trip decimal form, or true/false.  A float column of bit-equal
    cells (so ``-0.0`` stays apart from ``0.0``) is formatted once."""
    if column.dtype == np.bool_:
        return map(("false", "true").__getitem__, column.tolist())
    bits = column.view(np.uint64)
    if bits.size and (bits == bits[0]).all():
        return itertools.repeat(float.__repr__(column.item(0)), bits.size)
    return map(float.__repr__, column.tolist())


def write_sweep_csv(
    path: str | Path, table: Sweep | SimulatedSweep
) -> Path | None:
    """Write ``sweep_table(table)`` and, when ``path`` is a regular file,
    its companion ``<path>.manifest.json``, which holds the analytic sweep's
    parameters and, for a ``SimulatedSweep``, its ``SIM_MANIFEST_FIELDS``;
    returns the manifest's path, or None for a stream such as a pipe or
    ``/dev/stdout`` (a link, not a file).  The table is in place before its
    manifest is written.  The rows go through ``_blocks``, as a count
    log's do, so the write holds the grid's cells and one block of rows."""
    sim = table if isinstance(table, SimulatedSweep) else None
    sweep = table if sim is None else sim.sweep
    header, columns = sweep_table(table)
    x_cells = list(_cells(sweep.x))  # for the table and the manifest

    def rows(k: int, stop: int) -> bytes:
        cells = (_cells(column[k:stop]) for column in columns[1:])
        return ("\n".join(map(",".join, zip(x_cells[k:stop], *cells)))
                + "\n").encode()

    out = Path(path)
    head = (",".join(header) + "\n").encode()
    if not _write_blocks(out, itertools.chain([head],
                                              _blocks(len(x_cells), rows))):
        return None
    manifest = RunManifest(
        kind=KIND_SWEEP, theta=sweep.theta, gamma1=sweep.gamma1_values,
        axis=sweep.axis, grid=(), with_sim=sim is not None,
        **{"gamma2" if sweep.axis == "delta" else "delta_std": sweep.fixed},
        **{name: getattr(sim, name) for name in SIM_MANIFEST_FIELDS
           if sim is not None},
    )
    # json writes a finite float, as every grid value is, as float.__repr__
    # does.  Every quote inside a JSON string is escaped, so the key and
    # its empty list occur only as themselves.
    text = manifest.to_json().replace(
        '"grid": []', f'"grid": [{", ".join(x_cells)}]', 1)
    manifest_path = out.with_name(out.name + ".manifest.json")
    _write_blocks(manifest_path, [f"{text}\n".encode()])
    return manifest_path
