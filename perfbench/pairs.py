"""Paired Cheetah-versus-reference rounds over the nine Big Data items.

Each pair runs ``run_reference`` and then the same query on the same
tables through a :class:`~repro.engine.cluster.Cluster`, back to back in
one process.  Host speed drifts by about a quarter within a minute, so
the per-pair ratio of the two wall times is far steadier than either
time alone; the ``<item>_x`` metrics are medians of these ratios.
Outputs are compared after both timings, outside the timed region.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.expressions import col
from repro.engine.plan import CountOp, Query
from repro.engine.reference import run_reference
from repro.workloads import bigdata, tpch

from harness import STREAM_SPANS, geomean, median

ITEMS = (
    "q1_filter",
    "q2_distinct",
    "q3_skyline",
    "q4_topn",
    "q5_groupby",
    "q6_join",
    "q7_having",
    "tpch_q3_join",
    "packed4",
)
FALLBACK_REASONS = (
    "randomized-topn",
    "fingerprint-distinct",
    "multi-column-key",
    "where-stage",
    "unsupported-operator",
)


@dataclass
class Item:
    """One measured item: a query (or a packed group) over its tables."""

    name: str
    queries: List[Query]
    tables: dict
    #: Pairs per round; cheap items repeat so timer resolution and
    #: per-call jitter do not dominate their ratio.
    reps: int = 1

    @property
    def packed(self) -> bool:
        return len(self.queries) > 1


def build_items(bd_tables: dict, tpch_tables: dict, uservisits_rows: int, reps: Dict[str, int]) -> List[Item]:
    """The seven Appendix B queries, TPC-H Q3's join and ``packed4``."""
    skyline_tables = dict(bd_tables, Rankings=bigdata.permuted(bd_tables["Rankings"]))
    queries = {
        "q1_filter": (bigdata.query1_filter_count(), bd_tables),
        "q2_distinct": (bigdata.query2_distinct(), bd_tables),
        "q3_skyline": (bigdata.query3_skyline(), skyline_tables),
        "q4_topn": (bigdata.query4_topn(), bd_tables),
        "q5_groupby": (bigdata.query5_groupby(), bd_tables),
        "q6_join": (bigdata.query6_join(), bd_tables),
        "q7_having": (bigdata.query7_having(uservisits_rows / 2), bd_tables),
        "tpch_q3_join": (tpch.q3_join_query(), tpch_tables),
    }
    items = [Item(name, [query], tables, reps.get(name, 1)) for name, (query, tables) in queries.items()]
    packed = [
        Query(CountOp("UserVisits", col("duration") > 3000)),
        bigdata.query2_distinct(),
        bigdata.query4_topn(),
        bigdata.query5_groupby(),
    ]
    items.append(Item("packed4", packed, bd_tables, reps.get("packed4", 1)))
    return items


@dataclass
class ItemStats:
    """Everything one item's pairs measured in a run."""

    ratios: List[float] = field(default_factory=list)
    cheetah_ms: List[float] = field(default_factory=list)
    reference_ms: List[float] = field(default_factory=list)
    stream_ms: List[float] = field(default_factory=list)
    master_ms: List[float] = field(default_factory=list)
    processed: int = 0
    pruned: int = 0


@dataclass
class PairStats:
    """Totals of a run of paired rounds."""

    items: Dict[str, ItemStats] = field(default_factory=lambda: {n: ItemStats() for n in ITEMS})
    rounds: int = 0
    attempted: int = 0
    wrong: int = 0
    errors: int = 0
    streamed: int = 0
    forwarded: int = 0
    fused_passes: int = 0
    fallbacks: Dict[str, int] = field(default_factory=lambda: {r: 0 for r in FALLBACK_REASONS})
    #: First pair of each item per round: the closed-loop completion
    #: times behind the olap latency and goodput metrics.
    latencies_ms: List[float] = field(default_factory=list)
    seconds: float = 0.0


def _registries(result) -> list:
    """The distinct metrics registries of a run or packed-run result."""
    found = []
    for registry in [getattr(result, "metrics", None)] + [r.metrics for r in getattr(result, "results", [])]:
        if registry is not None and all(registry is not seen for seen in found):
            found.append(registry)
    return found


def _account(stats: PairStats, item_stats: ItemStats, result) -> None:
    """Fold one Cheetah pass's spans and counters into the run totals."""
    stream = master = 0.0
    fused = False
    reasons = set()
    for registry in _registries(result):
        for span in registry.spans:
            if span.name in STREAM_SPANS:
                stream += span.seconds
            elif span.name == "master-complete":
                master += span.seconds
        dump = registry.to_dict()
        for counter in dump["counters"]:
            name, value = counter["name"], counter["value"]
            if name == "fused_batches_total" and value > 0:
                fused = True
            elif name == "fused_fallback_total" and value > 0:
                reasons.add(counter["labels"].get("reason"))
            elif name == "pruner_entries_processed_total":
                item_stats.processed += value
            elif name == "pruner_entries_pruned_total":
                item_stats.pruned += value
    item_stats.stream_ms.append(stream * 1e3)
    item_stats.master_ms.append(master * 1e3)
    stats.streamed += result.total_streamed
    stats.forwarded += result.total_forwarded
    stats.fused_passes += int(fused)
    for reason in reasons:
        if reason in stats.fallbacks:
            stats.fallbacks[reason] += 1


def run_pair(cluster, item: Item, stats: PairStats, tracer, parent, first: bool) -> None:
    """Time reference then Cheetah on one item, then check the answer."""
    item_stats = stats.items[item.name]
    stats.attempted += 1
    # Start each pair with an empty young generation, so a collection
    # inside the timed region is paid for by that pair's own garbage.
    gc.collect()
    with tracer.span("harness.pair", parent, item=item.name) as pair:
        with tracer.span("engine.reference.run", pair):
            start = time.perf_counter()
            expected = [run_reference(query, item.tables) for query in item.queries]
            reference_s = time.perf_counter() - start
        try:
            if item.packed:
                with tracer.span("engine.cluster.run_packed", pair):
                    start = time.perf_counter()
                    result = cluster.run_packed(item.queries, item.tables)
                    cheetah_s = time.perf_counter() - start
                outputs = [r.output for r in result.results]
            else:
                with tracer.span("engine.cluster.run", pair):
                    start = time.perf_counter()
                    result = cluster.run(item.queries[0], item.tables)
                    cheetah_s = time.perf_counter() - start
                outputs = [result.output]
        except Exception as error:  # counted as a failure, never aborts the run
            print(f"error: {item.name}: {type(error).__name__}: {error}")
            stats.errors += 1
            return
    if outputs != expected:
        print(f"wrong answer: {item.name}")
        stats.wrong += 1
        return
    tracer.absorb(span for registry in _registries(result) for span in registry.spans)
    item_stats.ratios.append(cheetah_s / reference_s)
    item_stats.cheetah_ms.append(cheetah_s * 1e3)
    item_stats.reference_ms.append(reference_s * 1e3)
    if first:
        stats.latencies_ms.append(cheetah_s * 1e3)
    _account(stats, item_stats, result)


def item_sets(scale, tpch_scale, seed: int, count: int, reps: Dict[str, int]) -> List[List[Item]]:
    """The items over ``count`` datasets generated from ``seed``.

    Dataset ``k`` is generated from seed ``seed * count + k``, so two
    seeds never share a dataset.
    """
    sets = []
    for number in range(seed * count, (seed + 1) * count):
        bd_tables = bigdata.tables(scale, number)
        tpch_tables = tpch.q3_filtered_tables(tpch.tables(tpch_scale, number))
        sets.append(build_items(bd_tables, tpch_tables, scale.uservisits_rows, reps))
    return sets


def run_rounds(cluster, sets: Sequence[Sequence[Item]], seconds: float, tracer) -> PairStats:
    """Whole rounds over every item until ``seconds`` have passed.

    Round ``r`` runs over dataset ``r mod len(sets)``.  A run ends on a
    whole round, not a whole cycle over the datasets: a cycle can take
    as long as the whole budget, and ending on one would double the
    length of some runs.
    """
    stats = PairStats()
    start = time.perf_counter()
    while stats.rounds < 2 or time.perf_counter() - start < seconds:
        items = sets[stats.rounds % len(sets)]
        with tracer.span("harness.round", round=stats.rounds) as round_context:
            for item in items:
                for rep in range(item.reps):
                    run_pair(cluster, item, stats, tracer, round_context, first=rep == 0)
        stats.rounds += 1
    stats.seconds = time.perf_counter() - start
    return stats


def warm_up(cluster, items: Sequence[Item], rows: int = 2048) -> None:
    """One pass per plan kind over the first ``rows`` rows of each table.

    Fills the compile and fused-plan caches without paying a full round.
    """
    for item in items:
        tables = {name: table.head(rows) for name, table in item.tables.items()}
        if item.packed:
            cluster.run_packed(item.queries, tables)
        else:
            cluster.run(item.queries[0], tables)


def warmed_cluster(items: Sequence[Item]):
    """The sequential batch cluster the paired rounds run on, warmed up."""
    cluster = Cluster(5, ClusterConfig(batch_size=65_536))
    warm_up(cluster, items)
    return cluster


def gap_metrics(stats: PairStats) -> Dict[str, tuple]:
    """The nine ``<item>_x`` end-to-end metrics."""
    return {f"{name}_x": (median(stats.items[name].ratios), "x") for name in ITEMS}


def headline(stats: PairStats) -> float:
    """Geometric mean of the nine ratios, the figure the traced and the
    untraced halves of a ``--trace 1`` run are compared on."""
    return geomean(value for value, _ in gap_metrics(stats).values())


def layer_metrics(stats: PairStats) -> Dict[str, tuple]:
    """The engine.cluster, engine.reference, core and switch layer metrics."""
    metrics = {}
    for name in ITEMS:
        item = stats.items[name]
        metrics[f"cluster.{name}.wall_ms"] = (median(item.cheetah_ms), "ms")
        metrics[f"cluster.{name}.stream_ms"] = (median(item.stream_ms), "ms")
        metrics[f"cluster.{name}.master_ms"] = (median(item.master_ms), "ms")
        metrics[f"reference.{name}.wall_ms"] = (median(item.reference_ms), "ms")
        metrics[f"core.{name}.pruned_fraction"] = (
            item.pruned / item.processed if item.processed else 0.0,
            "fraction",
        )
    rounds = max(1, stats.rounds)
    metrics["switch.fused_passes"] = (stats.fused_passes / rounds, "count")
    for reason in FALLBACK_REASONS:
        metrics[f"switch.fallback.{reason}"] = (stats.fallbacks[reason] / rounds, "count")
    return metrics
