"""Bit-stable file formats: run manifests, count logs, and sweep tables.

Count logs are JSON lines (streamable, append-safe): the first line is the
run manifest, every following line one acquisition record; in memory the
records are one columnar ``Counts`` value.  Sweep tables are CSV with frozen
header names and a companion ``<name>.manifest.json``, both built by
``write_sweep_csv(path, sweep, sim=None)`` from a ``Sweep`` and, optionally,
its ``SimulatedSweep``.  Floats in record lines carry 17 significant digits
and CSV cells use the shortest round-trip decimal form, so parsing a file
back reproduces the in-memory values exactly.

Both writers format and write ``READ_CHUNK_LINES`` lines at a time, so the
memory a count-log write takes does not grow with the length of the file;
a sweep write also holds its grid's cells, which the manifest's ``grid``
reuses.  A regular file is written to a new file beside it that then
replaces it, so that a write that fails part way leaves the old file or
none, never half of one; streams (pipes, devices, links such as
``/dev/stdout``) are written in place.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import stat
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .counting import AcquisitionConfig, Counts, SimulatedSweep
from .theory import Sweep
from .version import __version__

#: Version 2: count logs hold counts drawn by RNG stream 2 (see
#: ``run_acquisition``) and sweeps use hashed mixing seeds.
SCHEMA_VERSION = 2
#: Version 1 files have the same layout; their counts came from the older,
#: per-iteration interleaved draws and analyse the same way.
READABLE_SCHEMA_VERSIONS = (1, 2)
TOOL_NAME = "ysqht"

KIND_COUNT_LOG = "count-log"
KIND_SWEEP = "sweep"


class LogFormatError(ValueError):
    """A log file line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ManifestVersionError(ValueError):
    """The file's manifest schema is not supported by this tool version."""


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
RECORD_KEYS = ("i", "alpha", "n1p", "n1q", "n2p", "n2q")

#: Record lines parsed per ``json.loads`` call by ``read_count_log``, and
#: lines formatted per write by ``write_count_log`` and ``write_sweep_csv``.
READ_CHUNK_LINES = 4096


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write ``lines``, each ended by a newline, to ``path``, joined and
    written ``READ_CHUNK_LINES`` lines at a time.

    A regular file, or a path where nothing is yet, is written to a new
    file in the same directory, which then replaces it (``os.replace``); if
    anything fails first, the new file is removed and ``path`` keeps its old
    bytes, or stays absent.  The new file gets the old one's permission bits,
    or, for a new path, those the umask leaves of 0666, as ``open`` would
    give.  Anything else at ``path``, such as a pipe, a device or a link
    (``/dev/stdout``), is written in place."""
    lines = iter(lines)
    chunks = iter(lambda: list(itertools.islice(lines, READ_CHUNK_LINES)), [])
    text = ("\n".join(chunk) + "\n" for chunk in chunks)
    try:
        mode = path.lstat().st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with path.open("w") as fh:
            fh.writelines(text)
        return
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    except OSError as err:  # name the output, not its temporary file
        err.filename = str(path)
        raise
    try:
        with open(fd, "w") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            fh.writelines(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def format_record_line(
    index: int, alpha: float, n1p: int, n1q: int, n2p: int, n2q: int
) -> str:
    """One record as a JSON line with the tilt at 17 significant digits
    (enough to reproduce the double exactly).  A negative zero tilt comes
    out as ``-0``, which JSON reads as the integer 0; ``write_count_log``
    writes it as ``-0.0``."""
    return (
        f'{{"i": {index}, "alpha": {alpha:.17g}, "n1p": {n1p}, '
        f'"n1q": {n1q}, "n2p": {n2p}, "n2q": {n2q}}}'
    )


def _record_lines(counts: Counts) -> Iterator[str]:
    """The record lines of ``counts``, made ``READ_CHUNK_LINES`` at a time,
    so that only the columns of one chunk are turned into Python values at
    once."""
    alpha = counts.alpha
    negative_zero = np.signbit(alpha) & (alpha == 0.0)
    for start in range(0, len(counts), READ_CHUNK_LINES):
        stop = start + READ_CHUNK_LINES
        lines = list(map(format_record_line, range(start, stop),
                         alpha[start:stop].tolist(),
                         *counts.counts[start:stop].T.tolist()))
        for k in np.flatnonzero(negative_zero[start:stop]).tolist():
            lines[k] = lines[k].replace('"alpha": -0,', '"alpha": -0.0,', 1)
        yield from lines


def write_count_log(
    path: str | Path,
    config: AcquisitionConfig,
    counts: Counts,
) -> RunManifest:
    """Write ``counts`` as a count log under the manifest of ``config``, a
    chunk of ``READ_CHUNK_LINES`` record lines at a time, so that the memory
    the write takes does not grow with the number of records; a regular file
    is replaced only once the whole log is written."""
    if len(counts) != config.iterations:
        raise ValueError(
            f"{len(counts)} records for a run of {config.iterations} "
            f"iterations"
        )
    manifest = manifest_for_acquisition(config)
    _write_lines(Path(path),
                 itertools.chain([manifest.to_json()], _record_lines(counts)))
    return manifest


def _columns(
    payloads: list[Any], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """i, alpha and the (n, 4) counts of ``n`` record payloads, validated
    column by column; None unless every payload is a valid record."""
    if len(payloads) != n or not set(map(type, payloads)) <= {dict} \
            or not set(map(len, payloads)) <= {len(RECORD_KEYS)}:
        return None
    try:
        index, alpha, *counts = (
            [payload[key] for payload in payloads] for key in RECORD_KEYS
        )
    except KeyError:
        return None
    if not set(map(type, alpha)) <= {int, float} \
            or not set(map(type, itertools.chain(index, *counts))) <= {int}:
        return None
    try:
        ints = np.array([index, *counts], dtype=np.int64)
        alpha = np.array(alpha, dtype=np.float64)
    except OverflowError:
        return None
    if (ints < 0).any() or not np.isfinite(alpha).all():
        return None
    return ints[0], alpha, ints[1:].T


def _fault(payload: Any) -> str | None:
    """Why a parsed record line is not a valid record; None if it is one."""
    if not isinstance(payload, dict):
        return "record line must be a JSON object"
    if set(payload) != set(RECORD_KEYS):
        return (f"record must have exactly the keys {sorted(RECORD_KEYS)}, "
                f"got {sorted(payload)}")
    if not _finite(alpha := payload["alpha"]):
        return f"alpha must be finite, got {alpha!r}"
    for key in ("i", "n1p", "n1q", "n2p", "n2q"):
        value = payload[key]
        if type(value) is not int or not 0 <= value < 2**63:
            return f"{key} must be a non-negative 64-bit integer, got {value!r}"
    return None


def _parse_chunk(
    lines: list[str], first_line: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Line numbers, i, alpha and counts of the records in ``lines``, whose
    first line is ``first_line`` of the file.  Blank lines are skipped and
    surrounding whitespace is ignored; a bad line raises LogFormatError with
    its number.

    One ``json.loads`` parses the chunk when every line begins with '{' and
    ends with '}'.  A valid record nests nothing, so when that gives one
    valid record per line, no line holds two records or half of one."""
    records = {number: text for number, line in enumerate(lines, first_line)
               if (text := line.strip())}
    joined = "\n,".join(records.values())
    columns = None
    # No stripped line holds a newline, so "}\n,{" occurs only between lines.
    if joined.startswith("{") and joined.endswith("}") \
            and joined.count("}\n,{") == len(records) - 1:
        try:
            columns = _columns(json.loads("[" + joined + "]"), len(records))
        except (ValueError, RecursionError):  # or nested too deep
            pass
    if columns is None:  # parse line by line to name the first bad one
        payloads = []
        for line_number, record in records.items():
            try:
                payloads.append(json.loads(record))
            except (ValueError, RecursionError) as err:  # or nested too deep
                raise LogFormatError(
                    line_number, f"not valid JSON: {err}"
                ) from err
            if (fault := _fault(payloads[-1])) is not None:
                raise LogFormatError(line_number, fault)
        columns = _columns(payloads, len(records))
    return (np.array(list(records), dtype=np.int64), *columns)


def read_count_log(path: str | Path) -> tuple[RunManifest, Counts]:
    """Parse a count log back into its manifest and counts.

    Raises LogFormatError (with the offending line number) on corrupt lines,
    and then on logs whose record indices ``i`` do not run 0..n-1 or whose
    record count differs from the manifest's ``iterations``; raises
    ManifestVersionError on manifests this version cannot read."""
    with Path(path).open() as fh:
        head_line = fh.readline()
        if not head_line:
            raise LogFormatError(1, "empty file, expected a manifest line")
        try:
            head = json.loads(head_line)
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
        parts = [_parse_chunk([], 2)]  # so that a log of no records concatenates
        next_line = 2
        while chunk := list(itertools.islice(fh, READ_CHUNK_LINES)):
            parts.append(_parse_chunk(chunk, next_line))
            next_line += len(chunk)
    numbers, index, alpha, counts = (np.concatenate(c) for c in zip(*parts))

    out_of_place = np.flatnonzero(index != np.arange(index.size))
    if out_of_place.size:
        k = out_of_place[0]
        raise LogFormatError(
            int(numbers[k]),
            f"record index i = {index[k]} where {k} belongs: records are "
            f"missing, duplicated or out of order",
        )
    if index.size != iterations:
        line_number = (
            int(numbers[iterations]) if index.size > iterations else next_line
        )
        raise LogFormatError(
            line_number,
            f"log holds {index.size} records but its manifest promises "
            f"{iterations}",
        )
    return manifest, Counts(alpha, counts)


#: Header of the swept-value column of each sweep axis.
AXIS_COLUMNS = {"delta": "delta_std", "gamma2": "gamma2"}

#: The fields a sweep manifest copies, by name, from its ``SimulatedSweep``.
SIM_MANIFEST_FIELDS = ("mode", "seed", "iterations", "mean_rate",
                       "window_seconds")


def sweep_table(
    sweep: Sweep, sim: SimulatedSweep | None = None
) -> tuple[list[str], list[np.ndarray]]:
    """Frozen column names and the column of each, a float or bool array
    over the grid: the swept value, q1/p1, q2/p2, then a q/p and a reversal
    column per gamma1 (suffixed ``_gamma1_<value>`` when there are
    several), and with ``sim`` the simulated q2/p2 and q/p, each followed by
    its standard error.  ``sim`` must be the simulated sweep run from
    ``sweep`` itself; any other raises ValueError."""
    suffixes = ([""] if len(sweep.gamma1_values) == 1 else
                [f"_gamma1_{g!r}" for g in sweep.gamma1_values])
    header = [AXIS_COLUMNS[sweep.axis], "q1_over_p1", "q2_over_p2"]
    header += [f"q_over_p{s}" for s in suffixes]
    header += [f"reversal{s}" for s in suffixes]
    columns = [
        sweep.x, np.broadcast_to(sweep.q1_over_p1, sweep.x.shape),
        sweep.q2_over_p2, *sweep.q_over_p, *sweep.reversal,
    ]
    if sim is None:
        return header, columns
    if sim.sweep is not sweep:
        raise ValueError(
            "the simulated sweep was not run from this analytic sweep: "
            "give the sweep that simulate_sweep(sweep, ...) ran"
        )
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
    path: str | Path, sweep: Sweep, sim: SimulatedSweep | None = None
) -> Path | None:
    """Write the table of ``sweep_table(sweep, sim)`` and, when ``path`` is
    a regular file, its companion ``<path>.manifest.json``, which holds the
    sweep's parameters and, with ``sim``, its ``SIM_MANIFEST_FIELDS``;
    returns the manifest's path, or None for a stream such as a pipe or
    ``/dev/stdout`` (a link, not a file).  The table is in place before its
    manifest is written."""
    header, columns = sweep_table(sweep, sim)
    x_cells = list(_cells(sweep.x))  # for the table and the manifest
    out = Path(path)
    _write_lines(out, itertools.chain([",".join(header)], map(
        ",".join, zip(x_cells, *map(_cells, columns[1:])))))
    if not stat.S_ISREG(out.lstat().st_mode):
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
    _write_lines(manifest_path, [text])
    return manifest_path
