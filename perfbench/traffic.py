"""The open-loop client of ``fleet-hot-update``.

Requests are sent on a seeded Poisson schedule whatever the system's
state, and each is timed from the moment it was *due*, so a stall counts
against every request queued behind it.  How late the generator itself
ran is reported separately as ``harness.lag_ms``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.sql import parse
from repro.errors import Overloaded
from repro.obs.tracing import TraceContext

from harness import median, sleep_until, tail

#: How long the client waits for one answer before counting an error.
RESULT_TIMEOUT_S = 60.0


@dataclass
class Sent:
    """One request of the open loop and everything measured about it."""

    sql: str
    tenant: str
    due: float
    lag_s: float = 0.0
    parse_s: float = 0.0
    submit_s: float = 0.0
    plan: object = None
    ticket: object = None
    context: Optional[TraceContext] = None
    shed: bool = False
    error: Optional[str] = None
    output: object = None
    correct: bool = False
    #: Table version the answer matched (the fleet has several).
    version: int = 0

    @property
    def answered(self) -> bool:
        return self.ticket is not None and self.error is None

    @property
    def latency_ms(self) -> float:
        return (self.ticket.timeline["completed"] - self.due) * 1e3

    @property
    def hit(self) -> bool:
        """Answered from the result cache (all phase stamps identical)."""
        timeline = self.ticket.timeline
        return timeline.get("queued") == timeline.get("scheduled") == timeline.get("executed")


def open_loop(submit: Callable, requests: Sequence[Tuple[str, str]], start: float, offsets, tracer, span: str) -> List[Sent]:
    """Send ``(sql, tenant)`` requests ``offsets`` seconds after ``start``."""
    sent: List[Sent] = []
    for (sql, tenant), offset in zip(requests, offsets):
        record = Sent(sql, tenant, start + float(offset))
        sleep_until(record.due)
        began = time.monotonic()
        record.lag_s = began - record.due
        root = TraceContext.root() if tracer.enabled else None
        record.context = root
        with tracer.span("engine.sql.parse", root):
            record.plan = parse(sql)
        parsed = time.monotonic()
        record.parse_s = parsed - began
        try:
            with tracer.span(span, root):
                record.ticket = submit(record.plan, tenant)
        except Overloaded as shed:
            record.shed = True
            record.error = f"shed: {shed}"
        record.submit_s = time.monotonic() - parsed
        sent.append(record)
    return sent


def collect(sent: Sequence[Sent], tracer) -> Dict[str, str]:
    """Wait for every answer; returns {service trace id: request span id}."""
    roots: Dict[str, str] = {}
    for record in sent:
        if record.ticket is None:
            continue
        try:
            record.output = record.ticket.result(RESULT_TIMEOUT_S)
        except Exception as error:  # counted as a failure, never aborts the run
            record.error = f"{type(error).__name__}: {error}"
            continue
        if record.context is not None:
            tracer.record(
                "harness.request",
                record.context,
                record.due,
                record.ticket.timeline["completed"],
                tenant=record.tenant,
            )
            if record.ticket.trace is not None:
                roots[record.ticket.trace.trace_id] = record.context.span_id
    return roots


def client_metrics(sent: Sequence[Sent], start: float, limit_ms: float) -> Tuple[dict, List[str]]:
    """Latency and goodput over one open loop, as the client saw them."""
    answered = [r for r in sent if r.answered]
    latencies = [r.latency_ms for r in answered]
    good = [r for r in answered if r.correct and r.latency_ms <= limit_ms]
    finished = max((r.ticket.timeline["completed"] for r in answered), default=start + 1.0)
    label, tail_ms, beyond = tail(latencies)
    correct = sum(r.correct for r in sent)
    metrics = {
        "harness.latency_p50_ms": (median(latencies), "ms"),
        "harness.latency_tail_ms": (tail_ms, "ms"),
        "harness.goodput_qps": (len(good) / (finished - start), "1/s"),
    }
    notes = [
        f"requests={len(sent)} answered={len(answered)} correct={correct} in-limit={len(good)}",
        f"latency tail is {label} of {len(latencies)} requests ({beyond} beyond)",
    ]
    return metrics, notes


def serve_layers(sent: Sequence[Sent]) -> dict:
    """Client-side serve, engine.sql and harness layer metrics."""
    answered = [r for r in sent if r.answered]
    misses = [r for r in answered if not r.hit]
    queue_ms = [(r.ticket.timeline["scheduled"] - r.ticket.timeline["queued"]) * 1e3 for r in misses]
    execute_ms = [(r.ticket.timeline["executed"] - r.ticket.timeline["scheduled"]) * 1e3 for r in misses]
    lag_ms = [r.lag_s * 1e3 for r in sent]
    keys = [(r.plan.cache_key(), r.version) for r in misses]
    duplicates = len(keys) - len(set(keys))
    return {
        "sql.parse_us": (median([r.parse_s * 1e6 for r in sent]), "us"),
        "serve.submit_us": (median([r.submit_s * 1e6 for r in sent if r.ticket is not None]), "us"),
        "serve.queue_wait_ms.p50": (median(queue_ms), "ms"),
        "serve.queue_wait_ms.tail": (tail(queue_ms)[1], "ms"),
        "serve.execute_ms.p50": (median(execute_ms), "ms"),
        "serve.execute_ms.tail": (tail(execute_ms)[1], "ms"),
        "serve.cache_hit_ratio": ((len(answered) - len(misses)) / max(1, len(answered)), "fraction"),
        "serve.duplicate_miss_fraction": (duplicates / max(1, len(misses)), "fraction"),
        "serve.shed": (float(sum(r.shed for r in sent)), "count"),
        "harness.lag_ms.p50": (median(lag_ms), "ms"),
        "harness.lag_ms.tail": (tail(lag_ms)[1], "ms"),
    }


def service_metrics(before: Sequence[dict], after: Sequence[dict], traces: set, plans_before: dict, plans_after: dict) -> Tuple[float, dict]:
    """Forwarded fraction and serve/parallel layer metrics of one open loop.

    ``before`` and ``after`` are the ``QueryService.report()`` of every
    fleet replica's service taken around the traffic;
    ``plans_*`` are the shard-plan cache stats at the same instants.
    """

    def delta(key: str) -> float:
        return sum(r["summary"][key] for r in after) - sum(r["summary"][key] for r in before)

    def events(kind: str) -> float:
        return sum(counter_total(r["metrics"], "events_total", kind=kind) for r in after) - sum(
            counter_total(r["metrics"], "events_total", kind=kind) for r in before
        )

    spans = [span for report in after for span in report["metrics"]["spans"]]
    plan_hits = plans_after["hits"] - plans_before["hits"]
    plan_lookups = plan_hits + plans_after["misses"] - plans_before["misses"]
    layers = {
        "serve.packed_fraction": (delta("packed_queries") / max(1, delta("completed")), "fraction"),
        "parallel.partition_ms.p50": (median(span_ms(spans, "partition", traces)), "ms"),
        "parallel.shard_stream_ms.p50": (median(span_ms(spans, "shard-stream", traces)), "ms"),
        "parallel.shard_plan_hit_ratio": (plan_hits / max(1, plan_lookups), "fraction"),
        "parallel.pool_respawns": (events("pool-respawn"), "count"),
        "parallel.shard_timeouts": (events("shard-timeout"), "count"),
    }
    return delta("forwarded") / max(1.0, delta("streamed")), layers


class ResidentTally:
    """Resident-store exports and reuses over one open loop.

    A store live when the loop starts counts from its stats at that
    moment; a store installed during the loop (each table update
    installs one per service) counts whole.  Call :meth:`observe` before
    each update so no store is missed; every store seen is held until
    the end so its final tallies can be read after it retires (a closed
    store holds no tables or segments).
    """

    def __init__(self, services: Sequence) -> None:
        self.services = list(services)
        #: token -> (store, stats when first seen live at the start)
        self.stores: Dict[str, tuple] = {}
        self.observe(baseline=True)

    def observe(self, baseline: bool = False) -> None:
        for service in self.services:
            store = service.cluster.resident
            if store is not None and store.token not in self.stores:
                self.stores[store.token] = (store, store.stats() if baseline else {})

    def layers(self) -> dict:
        self.observe()
        exports = reuses = 0
        for store, start in self.stores.values():
            stats = store.stats()
            exports += stats["exports"] - start.get("exports", 0)
            reuses += stats["reuses"] - start.get("reuses", 0)
        current = [service.cluster.resident for service in self.services]
        resident_bytes = sum(store.stats()["resident_bytes"] for store in current if store is not None)
        return {
            "parallel.resident_exports": (float(exports), "count"),
            "parallel.resident_reuses": (float(reuses), "count"),
            "parallel.resident_mb": (resident_bytes / 2**20, "MB"),
        }


def counter_total(metrics_dump: dict, name: str, **labels: str) -> float:
    """Sum of a counter family's samples matching ``labels`` in a registry dump."""
    total = 0.0
    for counter in metrics_dump.get("counters", []):
        if counter["name"] == name and all(counter["labels"].get(k) == v for k, v in labels.items()):
            total += counter["value"]
    return total


def span_ms(spans, name: str, traces: set) -> List[float]:
    """Durations (ms) of program spans called ``name`` inside ``traces``."""
    return [
        span["seconds"] * 1e3
        for span in spans
        if span["name"] == name and span.get("trace_id") in traces
    ]
