"""Workload ``fleet-hot-update``: a hot dashboard catalog beside table updates.

Why: the 32-plan working set fits the fleet's result cache, and every
update empties it for the new table version.  About two thirds of
reads are hits (each run prints its hit ratio and its share of
duplicate misses).
``serve.cache``, ``fleet.router``/``tenancy`` and the update path
(drain, version fence, resident re-export, cache sweep) do the work;
the misses after each update run through the pruners in the shard
processes.

A reader sends Poisson arrivals over the catalog with Zipf(1.1)
popularity, split evenly between two tenants (each plan's and each
tenant's number of requests is fixed; their order is drawn); a writer
thread calls ``rolling_update`` with the next seed's tables at fixed
offsets from the traffic start, the same on every commit.  The popularity ranking is fixed and interleaves
the plan kinds, so every seed has the same cost mix among its hot plans.
An answer is correct if it matches a table version that was live at some
point between its submission and its completion.  After the traffic,
paired rounds of the nine Big Data items run at this workload's table
sizes, over four datasets of their own, through a sequential batch
cluster.

The p95 is set by the execution time of the GROUP BY and DISTINCT
misses after each update, so it moves with how many of them a run holds
and with the host's speed while they run.  With ``parallelism=1``
misses stream scalar in threads and hold the interpreter lock: the
misses after one update over 20k rows outlasted 8 s between updates,
even hits waited behind them, and the p95 swung by a third between
seeds.  With ``parallelism=2`` a miss runs batched in the shard
processes in tens of ms.  At 20 qps with an update every 3 s a 50 s
run holds seven updates and about two thirds of reads are hits; every 2 s
only 58% were hits.  Faster traffic makes the misses after an update
overlap more, which amplifies the host's own speed drift: run
interleaved on the same seeds, the p95's spread between seeds was 0.15
at 20 qps and 0.24 at 30 qps.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

import numpy as np

from repro.engine.reference import run_reference
from repro.fleet import FleetController
from repro.parallel.shard import shard_plan_cache_stats
from repro.workloads import bigdata, tpch

import pairs
import traffic
from harness import median, poisson_schedule, sleep_until

SCALE = bigdata.BigDataScale(rankings_rows=5_000, uservisits_rows=20_000)
TPCH_SCALE = tpch.TpchScale(customers=500)
PARALLELISM = 2
RATE_QPS = 20.0
#: The writer updates the tables this often, starting with the traffic;
#: an update empties the result cache, so this sets the hit ratio.
UPDATE_PERIOD_S = 3.0
#: Share of the run spent on traffic; the paired rounds, whose ratios
#: are the end-to-end metrics, get the rest (30 s of a 50 s run).  At
#: these table sizes a ratio moves with the host's state (Q2's median
#: over ten seeds shifted by 16% between two sets with 20 s of pairs),
#: so the pairs get the larger share.
TRAFFIC_SHARE = 0.4
LATENCY_LIMIT_MS = 1_000.0
ZIPF_EXPONENT = 1.1
#: Fair-share weights; traffic is split evenly between the tenants.
TENANTS = {"analytics": 2.0, "dashboard": 1.0}
#: Datasets the paired rounds rotate over, one per round.  At these table
#: sizes a ratio moves with the data (a SKYLINE's size, a join's
#: selectivity) as much as with the code: one seed's SKYLINE ratio read
#: 5.3-5.9 on three runs, another's 7.3-8.0.
PAIR_DATASETS = 4
REPS = {"q1_filter": 16, "q2_distinct": 4, "q4_topn": 2, "q5_groupby": 2, "q6_join": 3, "q7_having": 2, "tpch_q3_join": 2}

_DURATIONS = (200, 600, 1_000, 1_400, 1_800, 2_200, 2_600, 3_000)
_PAGE_RANKS = (1_000, 2_000, 3_000, 4_000, 5_000, 6_000, 7_000, 8_000)
#: The catalog in popularity order: rank r holds kind r mod 4.
CATALOG = [
    sql
    for duration, page_rank in zip(_DURATIONS, _PAGE_RANKS)
    for sql in (
        f"SELECT COUNT(*) FROM UserVisits WHERE duration > {duration}",
        f"SELECT DISTINCT userAgent FROM UserVisits WHERE duration > {duration}",
        f"SELECT userAgent, MAX(adRevenue) FROM UserVisits WHERE duration > {duration} GROUP BY userAgent",
        f"SELECT COUNT(*) FROM Rankings WHERE pageRank > {page_rank}",
    )
]
#: One warm-up plan per kind, outside the catalog.
WARM_UP = [
    "SELECT COUNT(*) FROM UserVisits WHERE duration > 0",
    "SELECT DISTINCT userAgent FROM UserVisits WHERE duration > 0",
    "SELECT userAgent, MAX(adRevenue) FROM UserVisits WHERE duration > 0 GROUP BY userAgent",
    "SELECT COUNT(*) FROM Rankings WHERE pageRank > 0",
]


class Version:
    """One table version and the interval in which it was live."""

    def __init__(self, tables: dict, live_from: float) -> None:
        self.tables = tables
        self.live_from = live_from
        self.live_until: Optional[float] = None
        self.answers: dict = {}

    def overlaps(self, start: float, end: float) -> bool:
        return self.live_from <= end and (self.live_until is None or self.live_until >= start)

    def answer(self, plan):
        key = plan.cache_key()
        if key not in self.answers:
            self.answers[key] = run_reference(plan, self.tables)
        return self.answers[key]


class Workload:
    """Data, set-up and measurement of ``fleet-hot-update``."""

    name = "fleet-hot-update"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        tables = bigdata.tables(SCALE, seed)
        self.versions: List[Version] = [Version(tables, float("-inf"))]
        self.sets = pairs.item_sets(SCALE, TPCH_SCALE, seed, PAIR_DATASETS, REPS)
        self.rng = np.random.default_rng(seed)
        weights = np.arange(1, len(CATALOG) + 1, dtype=float) ** -ZIPF_EXPONENT
        self.popularity = weights / weights.sum()
        self.fleet = None
        self.pair_cluster = None

    def setup(self) -> None:
        self.fleet = FleetController(
            self.versions[-1].tables, replicas=2, parallelism=PARALLELISM, resident=True, weights=TENANTS
        )
        for sql in WARM_UP:
            self.fleet.query(sql, tenant="analytics")

    def teardown(self) -> None:
        self.fleet.shutdown()
        self.fleet = None
        self.pair_cluster = None

    def _quota(self, count: int) -> np.ndarray:
        """Catalog ranks, each repeated in proportion to its popularity.

        The counts are the Zipf shares of ``count`` rounded by largest
        remainder; only their order is drawn.  Drawing every request
        independently let the number of GROUP BY and DISTINCT misses,
        which set the p95, vary from seed to seed.
        """
        shares = self.popularity * count
        counts = np.floor(shares).astype(int)
        short = count - counts.sum()
        counts[np.argsort(counts - shares, kind="stable")[:short]] += 1
        return np.repeat(np.arange(len(CATALOG)), counts)

    def _writer(self, start: float, offsets, pending: list, timings: list, errors: list, resident, tracer) -> None:
        for offset, tables in zip(offsets, pending):
            sleep_until(start + offset)
            resident.observe()
            version = Version(tables, time.monotonic())
            self.versions.append(version)
            try:
                with tracer.span("fleet.rolling_update"):
                    self.fleet.rolling_update(tables)
            except Exception as error:  # counted as a failure, never aborts the run
                errors.append(f"{type(error).__name__}: {error}")
            self.versions[-2].live_until = time.monotonic()
            timings.append((self.versions[-2].live_until - version.live_from) * 1e3)

    def _reports(self) -> dict:
        return {
            "fleet": self.fleet.report(),
            "replicas": [replica.service.report() for replica in self.fleet.replicas],
        }

    def measure(self, seconds: float, tracer) -> dict:
        # The paired rounds' cluster is the benchmark's, not the service's:
        # it is built here, outside set-up and before the clock starts.
        if self.pair_cluster is None:
            self.pair_cluster = pairs.warmed_cluster(self.sets[0])
        began = time.monotonic()
        traffic_s = TRAFFIC_SHARE * seconds
        count = int(round(RATE_QPS * traffic_s))
        picks = self.rng.permutation(self._quota(count))
        tenants = self.rng.permutation(np.resize(sorted(TENANTS), count))
        requests = [(CATALOG[p], str(t)) for p, t in zip(picks, tenants)]
        offsets = poisson_schedule(self.rng, count, traffic_s)
        update_offsets = np.arange(0.0, traffic_s, UPDATE_PERIOD_S)
        first_seed = self.seed + len(self.versions)
        pending = [bigdata.tables(SCALE, first_seed + k) for k in range(len(update_offsets))]
        before = self._reports()
        plans_before = shard_plan_cache_stats()
        resident = traffic.ResidentTally([replica.service for replica in self.fleet.replicas])

        start = time.monotonic() + 0.05
        timings: List[float] = []
        errors: List[str] = []
        writer = threading.Thread(
            target=self._writer,
            args=(start, update_offsets, pending, timings, errors, resident, tracer),
            name="bench-writer",
        )
        writer.start()
        sent = traffic.open_loop(self.fleet.submit, requests, start, offsets, tracer, "fleet.submit")
        roots = traffic.collect(sent, tracer)
        writer.join()
        after = self._reports()
        plans_after = shard_plan_cache_stats()
        pairs_s = seconds - (time.monotonic() - began)

        for record in sent:
            if not record.answered:
                continue
            timeline = record.ticket.timeline
            for number in reversed(range(len(self.versions))):
                version = self.versions[number]
                if version.overlaps(timeline["submitted"], timeline["completed"]) and (
                    record.output == version.answer(record.plan)
                ):
                    record.correct, record.version = True, number
                    break
        client, notes = traffic.client_metrics(sent, start, LATENCY_LIMIT_MS)
        traces = {r.ticket.trace.trace_id for r in sent if r.answered and r.ticket.trace is not None}
        spans = [span for report in after["replicas"] for span in report["metrics"]["spans"]]
        tracer.absorb((s for s in spans if s.get("trace_id") in traces), roots)
        forwarded, service_layers = traffic.service_metrics(
            before["replicas"], after["replicas"], traces, plans_before, plans_after
        )
        e2e = {"forwarded_fraction": (forwarded, "fraction")}
        layers = traffic.serve_layers(sent)
        layers.update(client)
        layers.update(service_layers)
        layers.update(resident.layers())
        fleet_now, fleet_then = after["fleet"]["summary"], before["fleet"]["summary"]
        routes = {k: n - fleet_then["routes"].get(k, 0) for k, n in fleet_now["routes"].items()}
        total_routes = max(1, sum(routes.values()))
        reroutes = traffic.counter_total(after["fleet"]["metrics"], "fleet_overload_reroutes_total")
        reroutes -= traffic.counter_total(before["fleet"]["metrics"], "fleet_overload_reroutes_total")
        layers.update(
            {
                "fleet.rolling_update_ms.p50": (median(timings), "ms"),
                "fleet.rolling_update_ms.max": (max(timings, default=0.0), "ms"),
                "fleet.locality_fraction": (routes.get("locality", 0) / total_routes, "fraction"),
                "fleet.spillover_fraction": (routes.get("spillover", 0) / total_routes, "fraction"),
                "fleet.reroutes": (reroutes, "count"),
                "fleet.starvation_events": (
                    float(fleet_now["starvation_events"] - fleet_then["starvation_events"]),
                    "count",
                ),
            }
        )
        for tenant in TENANTS:
            latencies = [r.latency_ms for r in sent if r.answered and r.tenant == tenant]
            layers[f"fleet.tenant.{tenant}.p50_ms"] = (median(latencies), "ms")
        notes.append(
            f"rolling updates={len(timings)} errors={len(errors)}; "
            f"cache hit ratio {layers['serve.cache_hit_ratio'][0]:.3f}, "
            f"duplicate misses {layers['serve.duplicate_miss_fraction'][0]:.3f} of misses"
        )
        for error in errors:
            notes.append(f"rolling update failed: {error}")

        stats = pairs.run_rounds(self.pair_cluster, self.sets, pairs_s, tracer)
        e2e.update(pairs.gap_metrics(stats))
        layers.update(pairs.layer_metrics(stats))
        notes.append(f"paired rounds={stats.rounds} pairs={stats.attempted} in {stats.seconds:.1f}s")
        return {
            "e2e": e2e,
            "layers": layers,
            "attempted": len(sent) + len(update_offsets) + stats.attempted,
            "failed": sum(not r.correct for r in sent) + len(errors) + stats.wrong + stats.errors,
            "headline": pairs.headline(stats),
            "notes": notes,
        }
