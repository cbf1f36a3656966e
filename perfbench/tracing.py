"""Per-layer spans and counters, recorded from outside the package.

The public functions of each ysqht module are replaced, at their module
attributes and at the copies other modules imported by name, with wrappers
that record a span (name, start, end, parent, pass id) and a few counters.
Nothing under ``src/`` is edited; ``patched`` restores every attribute on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterator

MB = 1024.0 * 1024.0

#: Span name -> layer metric whose self time it adds to.
LAYER_OF = {
    "cli.main": "cli.main",
    "counting.run_acquisition": "counting.run_acquisition",
    "counting.estimate_ratios": "counting.estimate_ratios",
    "counting.aggregate": "counting.aggregate",
    "counting.simulate_delta_sweep": "counting.simulate_sweep",
    "counting.simulate_gamma2_sweep": "counting.simulate_sweep",
    "logio.write_count_log": "logio.write_count_log",
    "logio.read_count_log": "logio.read_count_log",
    "logio.write_sweep_csv": "logio.write_sweep_csv",
    "theory.sweep_delta": "theory.sweep_delta",
    "theory.sweep_gamma2": "theory.sweep_gamma2",
    "theory.outcome_probabilities": "theory.point_query",
    "theory.ys_reversal": "theory.point_query",
    "theory.delta_threshold": "theory.point_query",
    "theory.gamma2_threshold": "theory.point_query",
}

#: Point queries are recorded only when no theory span is open: inside a
#: sweep they run once per grid point and their time stays in the sweep's.
POINT_QUERIES = {
    name for name, layer in LAYER_OF.items() if layer == "theory.point_query"
}

#: Layers whose ``.calls`` count is reported.
CALL_COUNTS = (
    "cli.main",
    "counting.run_acquisition",
    "counting.estimate_ratios",
    "counting.aggregate",
)

#: Functions whose allocation peak the tracemalloc pass reports.
ALLOC_TARGETS = ("counting.run_acquisition", "logio.read_count_log")


def _file_size(path: Any) -> int:
    return Path(path).stat().st_size


def _count(name: str, counters: Counter, args: tuple, result: Any) -> None:
    """Work counters taken at the span boundary, after the span closed."""
    if name == "counting.run_acquisition":
        counters["counting.run_acquisition.iterations"] += args[0].iterations
    elif name in ("counting.estimate_ratios", "counting.aggregate"):
        counters["usable.attempted"] += len(args[0])
        counters["usable.kept"] += len(args[0]) - result.excluded
    elif name == "logio.write_count_log":
        counters["logio.count_log_bytes"] += _file_size(args[0])
    elif name == "logio.read_count_log":
        counters["logio.records_read"] += len(result[1])
    elif name == "logio.write_sweep_csv":
        counters["logio.csv_bytes"] += _file_size(args[0])
    elif name == "theory.sweep_delta":
        counters["theory.cells"] += len(result.rows)
    elif name == "theory.sweep_gamma2":
        columns = len(result.gamma1_values)
        counters["theory.cells"] += len(result.rows) * columns


class Tracer:
    """In-memory span store for the traced passes of one run."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.pass_ids: list[int] = []
        self.open: list[int] = []
        self.pass_id = -1
        self.counters: dict[int, Counter] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        point_query = name in POINT_QUERIES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if point_query and self.open and \
                    self.names[self.open[-1]].startswith("theory."):
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self.open[-1] if self.open else -1)
            self.pass_ids.append(self.pass_id)
            self.ends.append(0.0)
            self.open.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self.open.pop()
            _count(name, self.counters[self.pass_id], args, result)
            return result

        return traced

    @contextlib.contextmanager
    def tracing_pass(self, pass_id: int) -> Iterator[None]:
        self.pass_id = pass_id
        self.counters[pass_id] = Counter()
        with patched(self.wrap):
            yield

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        return [
            self.ends[i] - self.starts[i] - covered[i]
            for i in range(len(self.names))
        ]

    def per_pass(self) -> dict[int, Counter]:
        """Per traced pass: self seconds per layer, call counts, main time,
        and the work counters."""
        out = {pid: Counter(c) for pid, c in self.counters.items()}
        for i, own in enumerate(self.self_times()):
            layer = LAYER_OF[self.names[i]]
            c = out[self.pass_ids[i]]
            c[layer + ".self"] += own
            c[layer + ".calls"] += 1
            if layer == "cli.main":
                c["cli.main.wall"] += self.ends[i] - self.starts[i]
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name,
                    "start": self.starts[i] - self.t0,
                    "end": self.ends[i] - self.t0,
                    "parent": self.parents[i],
                    "pass": self.pass_ids[i],
                }) + "\n")


def _targets() -> Iterator[tuple[str, Any, str, Callable]]:
    """(span name, module, attribute, original) for every binding of a traced
    function: its defining module, ``ysqht.cli`` and the ``ysqht`` package."""
    package = sys.modules["ysqht"]
    for name in LAYER_OF:
        module_name, attr = name.split(".")
        module = sys.modules[f"ysqht.{module_name}"]
        original = getattr(module, attr, None)
        if original is None:
            continue
        for holder in dict.fromkeys((module, sys.modules["ysqht.cli"],
                                     package)):
            if getattr(holder, attr, None) is original:
                yield name, holder, attr, original


@contextlib.contextmanager
def patched(make_wrapper: Callable[[str, Callable], Callable],
            only: tuple[str, ...] | None = None) -> Iterator[None]:
    """Bind ``make_wrapper(name, original)`` in place of each traced function
    (or of those named in ``only``) and restore the originals on exit."""
    saved = []
    wrappers: dict[str, Callable] = {}
    try:
        for name, holder, attr, original in list(_targets()):
            if only is not None and name not in only:
                continue
            if name not in wrappers:
                wrappers[name] = make_wrapper(name, original)
            saved.append((holder, attr, original))
            setattr(holder, attr, wrappers[name])
        yield
    finally:
        for holder, attr, original in saved:
            setattr(holder, attr, original)


@contextlib.contextmanager
def alloc_pass(peaks: dict[str, float]) -> Iterator[None]:
    """Trace allocations of ALLOC_TARGETS; ``peaks`` gets the largest rise in
    traced memory, in MB, seen during any one call of each."""

    def make(name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            rise = (tracemalloc.get_traced_memory()[1] - base) / MB
            peaks[name] = max(peaks.get(name, 0.0), rise)
            return result

        return measured

    tracemalloc.start()
    try:
        with patched(make, only=ALLOC_TARGETS):
            yield
    finally:
        tracemalloc.stop()


def layer_metrics(tracer: Tracer, traced_walls: dict[int, float],
                  untraced_walls: list[float],
                  alloc_peaks: dict[str, float]) -> dict[str, float]:
    """Medians over traced passes of each layer metric, plus the tracing
    overhead and the share of each pass covered by ``cli.main`` spans."""
    passes = tracer.per_pass()

    def median(key: str) -> float:
        return statistics.median(passes[pid][key] for pid in traced_walls)

    out: dict[str, float] = {}
    for layer in sorted(set(LAYER_OF.values())):
        if layer == "cli.main":
            out["cli.main.self_s"] = median("cli.main.self")
        else:
            out[layer + ".s"] = median(layer + ".self")
    for layer in CALL_COUNTS:
        out[layer + ".calls"] = median(layer + ".calls")
    for key in ("counting.run_acquisition.iterations",
                "logio.count_log_bytes", "logio.records_read",
                "logio.csv_bytes", "theory.cells"):
        out[key] = median(key)
    attempted = median("usable.attempted")
    out["counting.usable_frac"] = (
        median("usable.kept") / attempted if attempted else 0.0
    )
    for name in ALLOC_TARGETS:
        out[name + ".alloc_peak_mb"] = alloc_peaks.get(name, 0.0)
    out["trace.overhead_frac"] = (
        statistics.median(traced_walls.values())
        / statistics.median(untraced_walls) - 1.0
    )
    out["trace.main_coverage_frac"] = min(
        passes[pid]["cli.main.wall"] / wall
        for pid, wall in traced_walls.items()
    )
    return out
