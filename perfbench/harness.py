"""Measurement pieces shared by the workloads.

Spans, quantiles, the open-loop schedule, the host-speed probe, and the
process/shared-memory hygiene checks.  Nothing here imports the program
under test except :mod:`repro.obs.tracing`, whose ``TraceContext`` the
benchmark activates so the program's own spans nest under its spans.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.tracing import TraceContext, trace_context

#: Segment-name prefix of ``multiprocessing.shared_memory`` on POSIX.
SHM_DIR = "/dev/shm"
SHM_PREFIX = "psm_"

#: Program span names per layer, for self-time accounting.  Benchmark
#: spans are named ``<layer>.<call>`` and map by prefix instead.
PROGRAM_SPAN_LAYERS = {
    "partition": "engine.cluster",
    "stream": "engine.cluster",
    "packed-stream": "engine.cluster",
    "join-build": "engine.cluster",
    "join-probe": "engine.cluster",
    "having-sketch": "engine.cluster",
    "having-refetch": "engine.cluster",
    "skyline-stream": "engine.cluster",
    "master-complete": "engine.cluster",
    "shard-stream": "parallel",
    "serve-request": "serve",
    "serve-queued": "serve",
    "serve-execute": "serve",
}
LAYERS = (
    "harness",
    "engine.sql",
    "engine.cluster",
    "engine.reference",
    "serve",
    "parallel",
    "fleet",
)

#: Span names whose durations make up a Cheetah pass's streaming time.
STREAM_SPANS = frozenset(
    (
        "stream",
        "packed-stream",
        "join-build",
        "join-probe",
        "having-sketch",
        "having-refetch",
        "skyline-stream",
    )
)


# -- statistics ------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """Median, or 0.0 for no samples."""
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[str, float, int]:
    """The highest of p99/p95/p90 with at least 10 samples beyond it.

    Small samples fall back to p75, then p50, so a value always exists.
    Returns ``(label, value, samples_beyond)``.
    """
    if not values:
        return "p50", 0.0, 0
    ordered = np.sort(np.asarray(values, dtype=float))
    count = len(ordered)
    for label, q in (("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p75", 0.75)):
        if count * (1.0 - q) >= 10:
            value = float(np.quantile(ordered, q))
            return label, value, int(np.count_nonzero(ordered > value))
    value = float(np.quantile(ordered, 0.5))
    return "p50", value, int(np.count_nonzero(ordered > value))


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (0.0 for none)."""
    logs = [np.log(v) for v in values if v > 0]
    return float(np.exp(np.mean(logs))) if logs else 0.0


# -- open-loop schedule -------------------------------------------------------


def poisson_schedule(rng: np.random.Generator, count: int, seconds: float) -> np.ndarray:
    """Arrival offsets of a Poisson process conditioned on ``count`` arrivals.

    Given its count, a Poisson process's arrival times are uniform order
    statistics over the window, so the run length is fixed while the
    gaps stay exponential.
    """
    return np.sort(rng.uniform(0.0, seconds, size=count))


def sleep_until(deadline: float) -> None:
    """Sleep until the monotonic clock reaches ``deadline``."""
    remaining = deadline - time.monotonic()
    if remaining > 0:
        time.sleep(remaining)


# -- host probe ---------------------------------------------------------------


def host_probe_ms(blocks: int = 5) -> float:
    """Median time of a fixed numpy sort, in ms.

    Reported beside the results so drift in host speed can be told from
    a regression; it never rescales any metric.
    """
    data = np.random.default_rng(12345).random(1_000_000)
    times = []
    for _ in range(blocks):
        start = time.perf_counter()
        np.sort(data)
        times.append(time.perf_counter() - start)
    return median(times) * 1e3


# -- hygiene ------------------------------------------------------------------


def shm_segments() -> set:
    """Names of the shared-memory segments that exist right now."""
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def _pss_kb(pid: str) -> int:
    """Proportional set size of one process in kB (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _child_pids() -> List[str]:
    """Pids of this process's children, whichever thread forked them."""
    pids: List[str] = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
                pids.extend(handle.read().split())
        except OSError:
            continue
    return pids


def resident_mb() -> float:
    """Resident memory of this process and its children, in MB.

    Summed proportional set sizes: a page shared by several processes
    (the tables the shard workers inherit at fork, a shared-memory
    segment they all map) is split among them, so the sum counts it
    once.
    """
    return sum(_pss_kb(pid) for pid in ["self", *_child_pids()]) / 1024.0


class MemorySampler:
    """The peak of :func:`resident_mb`, sampled by a background thread.

    A sample takes about a millisecond per process; a peak shorter than
    ``interval`` can fall between two samples.
    """

    def __init__(self, interval: float = 1.0) -> None:
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-memory", daemon=True)

    def _run(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(self.interval):
                return

    def sample(self) -> None:
        self.peak_mb = max(self.peak_mb, resident_mb())

    def start(self) -> "MemorySampler":
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop sampling, wait for the thread, take one last sample."""
        self._stop.set()
        self._thread.join()
        self.sample()
        return self.peak_mb


# -- spans --------------------------------------------------------------------


class Tracer:
    """In-memory spans of the benchmark, plus imported program spans.

    Each benchmark span has a name, start, end, parent and trace id; the
    ``TraceContext`` it activates makes the program's own spans (which
    carry only a duration) its children.  Spans are written out as JSONL
    when the run ends.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[dict] = []

    @contextmanager
    def span(self, name: str, parent: Optional[TraceContext] = None, **labels):
        """Time the block as a span; yields its (active) trace context."""
        context = parent.child() if parent is not None else TraceContext.root()
        start = time.monotonic()
        try:
            with trace_context(context):
                yield context
        finally:
            self.record(name, context, start, time.monotonic(), **labels)

    def record(self, name: str, context: TraceContext, start: float, end: float, **labels) -> None:
        """Add a span measured elsewhere (e.g. from a request timeline)."""
        self.spans.append(
            {
                "name": name,
                "trace_id": context.trace_id,
                "span_id": context.span_id,
                "parent_id": context.parent_id,
                "start": start,
                "end": end,
                "seconds": end - start,
                "labels": {k: str(v) for k, v in labels.items()},
            }
        )

    def absorb(self, spans: Iterable, roots: Optional[Dict[str, str]] = None) -> None:
        """Import trace-placed program spans (``Span`` objects or dicts).

        ``roots`` maps a program trace id to the benchmark span its root
        span should hang under (the service starts its own trace per
        request, so its trees are grafted onto the benchmark's).
        """
        for span in spans:
            dump = span if isinstance(span, dict) else span.to_dict()
            if dump.get("trace_id") is None:
                continue
            entry = dict(dump)
            entry["seconds"] = float(dump["seconds"])
            entry["program"] = True
            if entry.get("parent_id") is None and roots:
                entry["parent_id"] = roots.get(entry["trace_id"])
            self.spans.append(entry)

    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: span duration minus its children's.

        Program spans carry durations but no start, so the time children
        cover is the sum of their durations, capped at the parent's.
        """
        children: Dict[str, float] = {}
        for span in self.spans:
            parent = span.get("parent_id")
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + span["seconds"]
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            own = span["seconds"]
            covered = min(own, children.get(span["span_id"], 0.0))
            layer = span_layer(span)
            if layer in totals:
                totals[layer] += own - covered
        return totals

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


class NullTracer:
    """The untraced mode: no spans, no trace context activated."""

    enabled = False

    @contextmanager
    def span(self, name: str, parent=None, **labels):
        yield None

    def absorb(self, spans, roots=None) -> None:
        pass


def span_layer(span: dict) -> str:
    """The layer a span's self time is charged to."""
    name = span["name"]
    if span.get("program"):
        return PROGRAM_SPAN_LAYERS.get(name, "other")
    layer = name.rsplit(".", 1)[0]
    return layer if layer in LAYERS else "other"
