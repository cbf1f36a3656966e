"""Bit-stable file formats: run manifests, count logs, and sweep tables.

Count logs are JSON lines (streamable, append-safe): the first line is the
run manifest, every following line one acquisition record; in memory the
records are one columnar ``Counts`` value.  Sweep tables are CSV with frozen
header names and a companion ``<name>.manifest.json``, both built by
``write_sweep_csv(path, table)`` from one record: a ``Sweep``, or the
``SimulatedSweep`` that holds one.  Floats in record lines carry 17
significant digits and CSV cells use the shortest round-trip decimal form,
so parsing a file back reproduces the in-memory values exactly.

Both writers write blocks of ``READ_CHUNK_LINES`` lines, a count log's
each formatted by one ``%`` on ``RECORD_LINE`` repeated, so the memory a
count-log write takes does not grow with the length of the file; a sweep
write also holds its grid's cells, which the manifest's ``grid`` reuses.
A count log of four blocks or more is formatted by two processes when the
writer may run on two CPUs: a forked child formats the odd blocks and
sends each down a pipe, while the writing process formats the even ones
and hashes and writes every block in order.  The pipe's small buffer keeps
the child at most about one block ahead, so this memory does not grow with
the file either.  The bytes are those one process writes, a failure in the
child is raised in the writer, and the child never outlives the write;
this needs POSIX (``os.fork``).
A regular file is written to a new file beside it that then replaces it,
so that a write that fails part way leaves the old file or none, never
half of one; streams (pipes, devices, links such as ``/dev/stdout``) are
written in place.

A count log written to a regular file gets a companion,
``<log>.columns.npz``: its ``alpha`` and ``counts`` columns and the SHA-256
of the log's bytes, digested as they are written.  The log alone is
authoritative.  ``read_count_log`` reads it as bytes through one handle,
always parses and checks the manifest line, and takes the records from the
companion only when the log it opened is a regular file whose digest the
companion holds, and the companion's columns are of the right dtypes and
shapes and make a valid ``Counts``; otherwise it parses the record lines,
the only path that raises ``LogFormatError``, up to the first bad one.
Deleting a companion costs only time; streams and links get none, and are
never hashed or read twice.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import pickle
import signal
import stat
import warnings
import zipfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator

import numpy as np
from numpy.lib import format as npy

from .base import LogFormatError, ManifestVersionError
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
#: A record line, its fields in the order of ``RECORD_KEYS``; ``%.17g``
#: gives a tilt the 17 significant digits that reproduce the double.
RECORD_LINE = (b'{"i": %d, "alpha": %.17g, "n1p": %d, "n1q": %d, '
               b'"n2p": %d, "n2q": %d}\n')

#: Suffix of the companion that ``write_count_log`` writes beside a count
#: log that is a regular file: an npz archive, as ``np.savez`` writes one,
#: of the log's ``alpha`` and ``counts`` columns and the SHA-256 of its
#: bytes.
COLUMNS_SUFFIX = ".columns.npz"

#: Record lines parsed per ``json.loads`` call by ``read_count_log``, and
#: lines formatted per write by ``write_count_log`` and ``write_sweep_csv``.
READ_CHUNK_LINES = 4096


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


def _line_blocks(lines: Iterable[str]) -> Iterator[bytes]:
    """``lines``, each ended by a newline, in blocks of READ_CHUNK_LINES."""
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, READ_CHUNK_LINES)):
        yield ("\n".join(chunk) + "\n").encode()


def _record_block(start: int, alpha: np.ndarray, counts: np.ndarray) -> bytes:
    """The record lines of the tilts ``alpha`` and the (m, 4) ``counts``,
    numbered from ``start``, by one ``%`` on ``RECORD_LINE * m``, in
    whichever of the two processes of a write formats them.  That writes a
    negative zero tilt ``-0``, which JSON reads as the integer 0, so it is
    rewritten ``-0.0``; no other tilt gives ``-0`` and a comma."""
    block = RECORD_LINE * alpha.size % tuple(itertools.chain.from_iterable(
        zip(itertools.count(start), alpha.tolist(), *counts.T.tolist())))
    return block if alpha.all() else block.replace(b'"alpha": -0,',
                                                   b'"alpha": -0.0,')


#: The fewest blocks of a count log that two processes format: below it,
#: the fork and the reaping take about as long as the child saves.
_SPLIT_BLOCKS = 4


def _record_blocks(counts: Counts) -> Iterator[bytes]:
    """The record lines of ``counts``, a ``_record_block`` of
    ``READ_CHUNK_LINES`` records at a time.  When there are
    ``_SPLIT_BLOCKS`` blocks or more and this process may run on two CPUs,
    a forked child formats the odd blocks and sends each down a pipe,
    pickled, while this process formats the even ones; between two of its
    own blocks it takes one of the child's from the pipe, whose small
    buffer keeps the child at most about one block ahead.  An exception the
    child raised comes down the pipe in place of its block and is raised
    here.  The bytes are those that one process writes.  However the
    generator ends, the child is killed if it is still running, and
    reaped."""
    step = READ_CHUNK_LINES
    starts = range(0, len(counts), step)

    def block(k: int) -> bytes:
        return _record_block(k, counts.alpha[k:k + step],
                             counts.counts[k:k + step])

    # The CPUs this process may run on; os.sched_getaffinity is Linux only.
    cpus = getattr(os, "sched_getaffinity",
                   lambda pid: range(os.cpu_count() or 1))(0)
    if len(starts) < _SPLIT_BLOCKS or len(cpus) < 2:
        yield from map(block, starts)
        return

    def send() -> None:
        """The child's part: each odd block down the pipe, pickled, or the
        exception that stopped one, for this process to raise."""
        pipe.close()  # so that a send fails once this process is gone
        try:
            for start in starts[1::2]:
                pickle.dump(block(start), sink)
                sink.flush()
        except BaseException as err:
            pickle.dump(err, sink)
            sink.flush()

    reader, writer = os.pipe()
    with open(reader, "rb") as pipe, open(writer, "wb") as sink:
        with _forked(send):
            sink.close()  # so that the pipe ends when the child's end does
            for k, start in enumerate(starts):
                if k % 2 == 0:
                    yield block(start)
                    continue
                try:
                    reply = pickle.load(pipe)
                # Empty or cut short: the child died, or its exception
                # would not pickle.
                except Exception:
                    raise ChildProcessError(
                        f"the process formatting records {start} to "
                        f"{min(start + step, len(counts)) - 1} ended without "
                        f"a result") from None
                if isinstance(reply, BaseException):
                    raise reply
                yield reply


#: The signals blocked from before a fork until the child is inside the
#: ``try`` that ends it by ``os._exit``.
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


@contextlib.contextmanager
def _forked(body: Callable[[], object]) -> Iterator[None]:
    """Run ``body`` in a forked child while the block runs here; when the
    block ends, however it ends, the child is killed if it is still
    running, and reaped.  The child never returns into its caller's frames,
    whose handlers would remove the caller's files: it leaves only by
    ``os._exit``, 0 once ``body`` returns.  ``SIGINT`` and ``SIGTERM`` are
    blocked from before the fork until the child is inside the ``try`` that
    ends it, and in this process until the ``try`` that reaps the child is
    entered."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
    pid, code = -1, 1
    try:
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns on a fork beside a live thread, such as
                # the one OpenBLAS starts.  The child only formats arrays
                # already in memory with %, writes to its own pipe and
                # leaves by os._exit: it takes no lock that another thread
                # can hold.
                warnings.filterwarnings(
                    "ignore", r"This process .* is multi-threaded, use of "
                    r"fork\(\) may lead to deadlocks in the child",
                    DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                body()
                code = 0
        finally:
            if pid == 0:
                os._exit(code)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield
    finally:
        if pid > 0:
            os.kill(pid, signal.SIGKILL)  # one that has exited is a zombie
            os.waitpid(pid, 0)


def write_count_log(
    path: str | Path,
    config: AcquisitionConfig,
    counts: Counts,
) -> RunManifest:
    """Write ``counts`` as a count log under the manifest of ``config``, a
    block of ``READ_CHUNK_LINES`` record lines at a time, so that the memory
    the lines take does not grow with the number of records; a regular file
    is replaced only once the whole log is written, and then gets its
    companion ``<path>.columns.npz``, with the log's permission bits.

    A log of four blocks or more is formatted by two processes (see
    ``_record_blocks``): this one formats the even blocks while a forked
    child formats the odd ones, and this one hashes and writes them all in
    order.  The bytes are those of one process; the write needs POSIX
    (``os.fork``)."""
    if len(counts) != config.iterations:
        raise ValueError(
            f"{len(counts)} records for a run of {config.iterations} "
            f"iterations"
        )
    manifest = manifest_for_acquisition(config)
    path = Path(path)
    digest = hashlib.sha256()
    head = (manifest.to_json() + "\n").encode()
    with contextlib.closing(_record_blocks(counts)) as blocks:
        regular = _write_blocks(path, itertools.chain([head], blocks), digest)
    if regular:
        _replace(_columns_path(path), path.stat().st_mode,
                 lambda fh: _write_npz(
                     fh, alpha=counts.alpha, counts=counts.counts,
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


def _companion_counts(fh: BinaryIO, log: Path, n: int) -> Counts | None:
    """The counts of the log open in ``fh`` as its companion holds them, or
    None unless that log is a regular file and its companion is valid: it
    loads without pickle, its ``sha256`` is the digest of the log's exact
    bytes, and its columns have the dtypes and shapes of ``n`` records and
    make a valid ``Counts``.  ``fh`` is left where it was."""
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return None  # a stream is read once, and never hashed
    position = fh.tell()
    try:
        with _columns_path(log).open("rb") as raw, \
                np.load(raw, allow_pickle=False) as columns:
            expected = columns["sha256"].tobytes()
            digest = hashlib.sha256()
            fh.seek(0)
            while block := fh.read(1 << 20):
                digest.update(block)
            if digest.digest() != expected:
                return None
            alpha, counts = columns["alpha"], columns["counts"]
            if alpha.dtype == np.float64 and counts.dtype == np.int64 \
                    and alpha.shape == (n,) and counts.shape == (n, 4):
                return Counts(alpha, counts)
    # The log alone is authoritative: whatever is wrong with its companion
    # (missing, truncated, not an npz, a bad member or value), it is parsed.
    except Exception:
        return None
    finally:
        fh.seek(position)
    return None


def _columns(
    payloads: list[Any], start: int, stop: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """alpha and the (n, 4) counts of the payloads of records ``start``,
    ``start + 1``, ... of a log of ``stop``, validated column by column;
    None unless every payload is a valid record in its place."""
    if start + len(payloads) > stop or not set(map(type, payloads)) <= {dict} \
            or not set(map(len, payloads)) <= {len(RECORD_KEYS)}:
        return None
    try:
        index, alpha, *counts = (
            [payload[key] for payload in payloads] for key in RECORD_KEYS
        )
    except KeyError:
        return None
    # The types first: 1.0 == 1 and True == 1 would pass the place check.
    if not set(map(type, alpha)) <= {int, float} \
            or not set(map(type, itertools.chain(index, *counts))) <= {int}:
        return None
    try:
        ints = np.array([index, *counts], dtype=np.int64)
        alpha = np.array(alpha, dtype=np.float64)
    except OverflowError:
        return None
    if (ints < 0).any() or not np.isfinite(alpha).all() or not np.array_equal(
            ints[0], np.arange(start, start + len(payloads))):
        return None
    return alpha, ints[1:].T


def _fault(payload: Any, place: int, stop: int) -> str | None:
    """Why a parsed record line is not a valid record, the record at
    ``place`` of a log of ``stop``; None if it is one."""
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
    if payload["i"] != place:
        return (f"record index i = {payload['i']} where {place} belongs: "
                f"records are missing, duplicated or out of order")
    if place == stop:
        return f"more records than the {stop} its manifest promises"
    return None


def _parse_chunk(
    lines: list[bytes], first_line: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """alpha and counts of the records in ``lines``, whose first line is
    ``first_line`` of the file and whose first record is record ``start``
    of a log of ``stop``.  Blank lines are skipped and surrounding ASCII
    whitespace is ignored.  The first bad line raises LogFormatError with
    its number: one that is not UTF-8, not one valid record, or a record
    whose index ``i`` is not its place or that is past the ``stop``-th.

    One ``json.loads`` parses the chunk when every line begins with '{' and
    ends with '}'.  A valid record nests nothing, so when that gives one
    valid record per line, no line holds two records or half of one."""
    records = {number: text for number, line in enumerate(lines, first_line)
               if (text := line.strip())}
    joined = b"\n,".join(records.values())
    columns = None
    # No stripped line holds a newline, so "}\n,{" occurs only between lines.
    if joined.startswith(b"{") and joined.endswith(b"}") \
            and joined.count(b"}\n,{") == len(records) - 1:
        try:  # a UnicodeDecodeError is a ValueError
            payloads = json.loads(f"[{joined.decode()}]")
            # Two records on one line give one payload more than lines.
            if len(payloads) == len(records):
                columns = _columns(payloads, start, stop)
        except (ValueError, RecursionError):  # or nested too deep
            pass
    if columns is None:  # parse line by line to name the first bad one
        payloads = []
        for place, (line_number, record) in enumerate(records.items(), start):
            try:
                payloads.append(json.loads(record.decode()))
            except (ValueError, RecursionError) as err:  # or nested too deep
                raise LogFormatError(
                    line_number, f"not valid JSON: {err}"
                ) from err
            if (fault := _fault(payloads[-1], place, stop)) is not None:
                raise LogFormatError(line_number, fault)
        columns = _columns(payloads, start, stop)
    return columns


def read_count_log(path: str | Path) -> tuple[RunManifest, Counts]:
    """Parse a count log back into its manifest and counts, taking the
    counts from the log's companion when it is valid for the log's bytes.

    Raises LogFormatError naming the first bad line: a corrupt line, a
    record whose index ``i`` is not its place (record k holds ``i == k``),
    a record past the manifest's ``iterations``, or, after the last line,
    too few records; no chunk past the bad line is read.  Raises
    ManifestVersionError on manifests this version cannot read.  A line
    ends at a line feed, and is read as bytes that must be UTF-8."""
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
        cached = _companion_counts(fh, Path(path), iterations)
        if cached is not None:
            return manifest, cached
        parts, n, next_line = [], 0, 2
        while chunk := list(itertools.islice(fh, READ_CHUNK_LINES)):
            parts.append(_parse_chunk(chunk, next_line, n, iterations))
            n += parts[-1][0].size
            next_line += len(chunk)
    if n < iterations:
        raise LogFormatError(
            next_line,
            f"log holds {n} records but its manifest promises {iterations}",
        )
    return manifest, Counts(*map(np.concatenate, zip(*parts)))


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
    manifest is written."""
    sim = table if isinstance(table, SimulatedSweep) else None
    sweep = table if sim is None else sim.sweep
    header, columns = sweep_table(table)
    x_cells = list(_cells(sweep.x))  # for the table and the manifest
    out = Path(path)
    if not _write_blocks(out, _line_blocks(itertools.chain(
            [",".join(header)],
            map(",".join, zip(x_cells, *map(_cells, columns[1:])))))):
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
    _write_blocks(manifest_path, _line_blocks([text]))
    return manifest_path
