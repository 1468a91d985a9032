"""The Cheetah cluster runner: workers → switch pruner → master.

:class:`Cluster` executes a :class:`~repro.engine.plan.Query` the way the
paper's testbed does: the table is partitioned across workers, each
CWorker streams only the queried columns as one-entry packets, the switch
pruner decides PRUNE/FORWARD per entry, and the CMaster completes the
query on the survivors.  The runner returns both the output (asserted
equal to :func:`~repro.engine.reference.run_reference`) and the traffic
volumes each phase moved, which the cost model turns into completion
times.

Multi-pass operators are faithful: JOIN streams the key columns of both
tables to build the Bloom filters before the pruning pass; HAVING's
master issues the partial second pass for candidate keys; SKYLINE drains
the switch-resident points at FIN.
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.base import PassthroughPruner, PruneDecision, Pruner
from ..core.distinct import DistinctPruner, FingerprintDistinctPruner
from ..core.filtering import FilterPruner, TruthTable
from ..core.groupby import GroupByPruner, master_groupby
from ..core.having import HavingPruner, master_having
from ..core.join import JoinPruner
from ..core.skyline import SkylinePruner, master_skyline
from ..core.summary import is_reboot_safe
from ..core.topn import TopNDeterministicPruner, TopNRandomizedPruner, master_topn
from ..errors import ConfigurationError, PlanError
from ..faults.injector import FaultInjector
from ..faults.plan import FaultEvent, FaultPlan
from ..obs import MetricsRegistry, ratio
from ..switch.fuse import (
    FUSED_DEFAULT_BATCH,
    FusedProgram,
    plan_fused,
    record_fallback,
)
from ..switch.resources import ResourceModel, TOFINO
from .plan import (
    CountOp,
    DistinctOp,
    FilterOp,
    GroupByOp,
    HavingOp,
    JoinOp,
    Query,
    SkylineOp,
    TopNOp,
)
from .reference import TableMap, outputs_match, run_reference
from .table import Table


@dataclass
class PhaseVolume:
    """Traffic of one execution phase."""

    name: str
    streamed: int = 0
    forwarded: int = 0

    @property
    def pruned(self) -> int:
        """Entries the switch removed in this phase."""
        return self.streamed - self.forwarded


@dataclass
class _ChaosState:
    """Mutable degradation flags one chaos run threads through its phases.

    ``passthrough`` latches on when the switch can no longer prune soundly
    (stage exhaustion, or a reboot-unsafe operator choosing forward-all);
    every later entry is forwarded unfiltered and the master completes the
    query itself — superset-safety keeps the output unchanged.
    """

    passthrough: bool = False


@dataclass
class RunResult:
    """Outcome of one cluster execution."""

    query: str
    output: object
    phases: List[PhaseVolume]
    used_cheetah: bool
    workers: int
    op_kind: str = "filter"
    #: Per-run metrics registry (phase spans, per-worker volumes, and the
    #: absorbed pruner counters/gauges); None for hand-built results.
    metrics: Optional[MetricsRegistry] = None
    #: Fault account (plan size, injected events, degradations) when the
    #: run executed under a :class:`~repro.faults.plan.FaultPlan`; None
    #: for fault-free runs.
    faults: Optional[dict] = None

    @property
    def total_streamed(self) -> int:
        """Entries sent by workers across all phases."""
        return sum(phase.streamed for phase in self.phases)

    @property
    def total_forwarded(self) -> int:
        """Entries that reached the master across all phases."""
        return sum(phase.forwarded for phase in self.phases)

    @property
    def pruning_rate(self) -> float:
        """Overall fraction of streamed entries pruned."""
        return ratio(self.total_streamed - self.total_forwarded, self.total_streamed)

    def report(self) -> dict:
        """Structured, JSON-ready run report.

        Joins each phase's traffic volumes with its wall-time (spans are
        recorded under the phase's name) and embeds the full metrics dump
        — the shape the CLI's ``--metrics-out`` writes and the ``metrics``
        subcommand pretty-prints.
        """
        seconds_by_name: Dict[str, float] = {}
        if self.metrics is not None:
            for span in self.metrics.spans:
                seconds_by_name[span.name] = (
                    seconds_by_name.get(span.name, 0.0) + span.seconds
                )
        return {
            "query": self.query,
            "op_kind": self.op_kind,
            "used_cheetah": self.used_cheetah,
            "workers": self.workers,
            "totals": {
                "streamed": self.total_streamed,
                "forwarded": self.total_forwarded,
                "pruned": self.total_streamed - self.total_forwarded,
                "pruning_rate": self.pruning_rate,
            },
            "phases": [
                {
                    "name": phase.name,
                    "streamed": phase.streamed,
                    "forwarded": phase.forwarded,
                    "pruned": phase.pruned,
                    "seconds": seconds_by_name.get(phase.name),
                }
                for phase in self.phases
            ],
            "metrics": self.metrics.to_dict() if self.metrics is not None else {},
            "faults": self.faults,
            "compile_cache": _compile_cache_report(),
        }


@dataclass
class PackedRunResult:
    """Outcome of a §6 packed multi-query pass."""

    results: List[RunResult]
    phase: PhaseVolume
    #: Registry of the shared streaming pass (per-query pruner counters
    #: live on each result's own ``metrics`` — per-query isolation).
    metrics: Optional[MetricsRegistry] = None

    @property
    def total_streamed(self) -> int:
        """Entries streamed once for all packed queries."""
        return self.phase.streamed

    @property
    def total_forwarded(self) -> int:
        """Entries any packed query forwarded."""
        return self.phase.forwarded

    @property
    def pruning_rate(self) -> float:
        """Fraction of the shared stream pruned for every query."""
        return ratio(self.phase.streamed - self.phase.forwarded, self.phase.streamed)

    def report(self) -> dict:
        """Structured, JSON-ready packed-run report.

        Same top-level shape as :meth:`RunResult.report` (so the CLI's
        ``metrics`` subcommand and ``scripts/check_metrics_schema.py``
        accept it unchanged), with ``op_kind="packed"`` and one extra
        ``queries`` list holding each packed query's own full report —
        the per-query isolation :meth:`Cluster.run_packed` maintains.
        The top-level ``metrics`` dump combines the shared streaming
        pass's registry with every per-query registry folded in under a
        ``packed_query`` index label.
        """
        combined = MetricsRegistry()
        if self.metrics is not None:
            combined.absorb(self.metrics)
        for index, result in enumerate(self.results):
            if result.metrics is not None:
                combined.absorb(result.metrics, packed_query=index)
        seconds_by_name: Dict[str, float] = {}
        for span in combined.spans:
            seconds_by_name[span.name] = (
                seconds_by_name.get(span.name, 0.0) + span.seconds
            )
        return {
            "query": " ; ".join(result.query for result in self.results),
            "op_kind": "packed",
            "used_cheetah": True,
            "workers": self.results[0].workers if self.results else 0,
            "totals": {
                "streamed": self.total_streamed,
                "forwarded": self.total_forwarded,
                "pruned": self.total_streamed - self.total_forwarded,
                "pruning_rate": self.pruning_rate,
            },
            "phases": [
                {
                    "name": self.phase.name,
                    "streamed": self.phase.streamed,
                    "forwarded": self.phase.forwarded,
                    "pruned": self.phase.pruned,
                    "seconds": seconds_by_name.get(self.phase.name),
                }
            ],
            "metrics": combined.to_dict(),
            "faults": None,
            "compile_cache": _compile_cache_report(),
            "queries": [result.report() for result in self.results],
        }


def _compile_cache_report() -> dict:
    """Hit/miss totals of the switch compiler's memoization layers.

    Surfaced on every run report so callers see cache effectiveness
    without reaching for the module-level helpers: ``fit_pack`` is the
    fit-check/pack memo (:func:`~repro.switch.compiler.compile_cache_stats`)
    and ``fused_plans`` the fused-plan memo
    (:func:`~repro.switch.fuse.fused_cache_stats`).
    """
    from ..switch.compiler import compile_cache_stats

    from ..switch.fuse import fused_cache_stats

    return {"fit_pack": compile_cache_stats(), "fused_plans": fused_cache_stats()}


@dataclass
class ClusterConfig:
    """Per-operator pruner parameters (paper defaults from Table 2 / §8).

    ``batch_size`` switches the streaming loops to the vectorized batch
    dataplane: workers hand the pruner column slices of up to this many
    rows instead of one-entry packets.  Decisions, outputs and phase
    volumes are identical to the scalar path (``None``, the default).

    ``parallelism`` > 1 executes Cheetah runs across that many OS
    processes (:mod:`repro.parallel`), each owning one pruner shard laid
    out by ``shard_policy`` (``"auto"``: multiswitch hash partitioning
    for keyed stateful operators, contiguous replicas otherwise).  Runs
    fall back to this sequential path when a fault plan is active,
    shared memory is unavailable, or the run is a baseline
    (``use_cheetah=False``).
    """

    batch_size: Optional[int] = None
    #: Wall-clock seconds one parallel shard task may run before the
    #: runner retries it (once on the pool, then sequentially in the
    #: parent).  ``None`` (the default) disables shard timeouts.
    shard_timeout: Optional[float] = None
    #: Execute via the fused single-pass dataplane
    #: (:mod:`repro.switch.fuse`) where possible: the packed multi-query
    #: path always (default batch ``FUSED_DEFAULT_BATCH`` when
    #: ``batch_size`` is None), and the batched single-pass path when
    #: ``batch_size`` is set.  Programs the fusion layer cannot compile
    #: (fingerprint/multi-column DISTINCT, a stateful operator behind a
    #: WHERE stage) fall back to the per-pruner path automatically,
    #: counted by ``fused_fallback_total{reason}``.
    fused: bool = True
    parallelism: int = 1
    shard_policy: str = "auto"
    distinct_rows: int = 4096
    distinct_cols: int = 2
    distinct_policy: str = "lru"
    distinct_fingerprint: bool = False
    distinct_delta: float = 1e-4
    topn_randomized: bool = True
    topn_rows: int = 4096
    topn_cols: Optional[int] = None
    topn_thresholds: int = 4
    topn_delta: float = 1e-4
    groupby_rows: int = 4096
    groupby_cols: int = 8
    join_memory_bits: int = 4 * 1024 * 1024 * 8
    join_hashes: int = 3
    join_variant: str = "bf"
    having_width: int = 1024
    having_depth: int = 3
    skyline_points: int = 10
    skyline_score: str = "aph"
    worker_assist_filters: bool = False
    seed: int = 0
    #: Optional fault schedule: when set, Cheetah runs execute on the
    #: chaos path (scalar streaming, per-entry fault cursor, graceful
    #: degradation).  Baseline (``use_cheetah=False``) runs ignore it.
    fault_plan: Optional[FaultPlan] = None
    #: What a reboot-unsafe JOIN does when its Bloom filters are lost
    #: mid-probe: ``"rebuild"`` re-streams the build pass,
    #: ``"passthrough"`` forwards the remaining probes unfiltered, and
    #: ``"auto"`` picks by the filters' fill ratio (a nearly-full filter
    #: barely prunes, so rebuilding it is wasted traffic).
    degrade_policy: str = "auto"
    #: Sample every Nth fused kernel batch as a ``fused-batch`` trace
    #: span (0, the default, disables per-batch spans entirely).  Only
    #: meaningful when a request :class:`~repro.obs.TraceContext` is
    #: active; keep the stride large — per-batch spans are the most
    #: voluminous signal the tracer can produce.
    fused_trace_sample: int = 0
    #: Keep this cluster's tables resident in shared memory across runs
    #: (:mod:`repro.parallel.resident`): columns and hash-shard plans
    #: are exported once per table version and reused by parallel shard
    #: processes, the sequential path, and packed slots alike.  The
    #: serving layer versions residency explicitly (``ensure_resident``
    #: on every ``update_tables``); standalone clusters build a store
    #: lazily on the first Cheetah run.
    resident: bool = False

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive or None, got {self.batch_size}"
            )
        if self.fused_trace_sample < 0:
            raise ConfigurationError(
                f"fused_trace_sample must be >= 0, got {self.fused_trace_sample}"
            )
        if self.degrade_policy not in ("auto", "rebuild", "passthrough"):
            raise ConfigurationError(
                f"degrade_policy must be 'auto', 'rebuild' or 'passthrough', "
                f"got {self.degrade_policy!r}"
            )
        if self.parallelism < 1:
            raise ConfigurationError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ConfigurationError(
                f"shard_timeout must be positive or None, got {self.shard_timeout}"
            )
        if self.shard_policy not in ("auto", "contiguous", "hash"):
            raise ConfigurationError(
                f"shard_policy must be 'auto', 'contiguous' or 'hash', "
                f"got {self.shard_policy!r}"
            )
    model: ResourceModel = TOFINO
    validate_resources: bool = True


class Cluster:
    """A rack of workers behind one Cheetah switch, plus a master."""

    def __init__(self, workers: int = 5, config: Optional[ClusterConfig] = None) -> None:
        if workers <= 0:
            raise PlanError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.config = config or ClusterConfig()
        #: Optional :class:`~repro.adapt.store.AdaptiveConfigStore`: when
        #: attached, runs consult it for per-signature configuration
        #: overrides, pinned for the duration of each pass (the batch-
        #: boundary fence remediation hot-swaps rely on).
        self.adaptive = None
        #: Optional :class:`~repro.obs.events.EventLog` for engine-level
        #: structured events (shard timeouts, pool respawns); the serving
        #: layer points this at its own log.
        self.events = None
        #: Optional :class:`~repro.parallel.resident.ResidentTableStore`
        #: installed by :meth:`ensure_resident` when
        #: :attr:`ClusterConfig.resident` is on.
        self.resident = None

    # -- public API ----------------------------------------------------------

    def run(
        self, query: Query, tables: TableMap, use_cheetah: bool = True
    ) -> RunResult:
        """Execute ``query`` with or without switch pruning.

        Without Cheetah the same streaming path runs with a passthrough
        pruner, so volumes reflect the software baseline's data movement.

        When :attr:`ClusterConfig.fault_plan` is set, the Cheetah path
        runs under a :class:`~repro.faults.injector.FaultInjector`: link
        and worker faults perturb the entry streams, switch faults fire
        against the pruner as the global entry cursor crosses them, and
        every graceful-degradation decision is recorded on the result's
        ``faults`` report.

        With an :attr:`adaptive` store attached, the signature's active
        configuration override (if any) is leased for the whole pass:
        a remediation hot-swap staged mid-run only takes effect at the
        next pass — configurations never change under a streaming pruner.
        """
        if use_cheetah and self.adaptive is not None:
            with self.adaptive.lease(query.cache_key()) as override:
                if override is not None and override is not self.config:
                    return self._with_config(override)._run_resolved(
                        query, tables, use_cheetah
                    )
                return self._run_resolved(query, tables, use_cheetah)
        return self._run_resolved(query, tables, use_cheetah)

    def _with_config(self, config: ClusterConfig) -> "Cluster":
        """A lightweight clone running one pass under an override config."""
        clone = Cluster(self.workers, config)
        clone.events = self.events
        clone.resident = self.resident
        return clone

    # -- table residency -----------------------------------------------------

    def ensure_resident(self, tables: TableMap, version: Optional[int] = None):
        """Install (or reuse) a resident store covering ``tables``.

        A no-op (returns ``None``) unless :attr:`ClusterConfig.resident`
        is set.  The current store is reused when it is live, covers
        every table by identity, and — when ``version`` is given (the
        serving layer's ``tables_version``) — carries that version;
        otherwise it is retired (segments unlinked once in-flight runs
        drain) and a fresh store is built for the new epoch.  A host
        without shared memory returns ``None``: every path already
        treats "no resident store" as the per-run export mode.
        """
        if not self.config.resident:
            return None
        from ..errors import SharedMemoryUnavailable
        from ..parallel.resident import ResidentTableStore

        store = self.resident
        if (
            store is not None
            and not store.retired
            and store.matches(tables)
            and (version is None or store.version == version)
        ):
            return store
        next_version = (
            version
            if version is not None
            else (store.version + 1 if store is not None else 0)
        )
        self.resident = None
        if store is not None:
            store.retire()
        try:
            self.resident = ResidentTableStore(tables, version=next_version)
        except SharedMemoryUnavailable:
            self.resident = None
        return self.resident

    def release_resident(self):
        """Retire the resident store (if any); segments unlink when the
        last leased run drains.  Returns the retired store."""
        store, self.resident = self.resident, None
        if store is not None:
            store.retire()
        return store

    def _resident_projection(
        self, name: str, table: Table, columns: Sequence[str]
    ) -> Optional[Table]:
        """A zero-copy resident view of ``table`` for in-process streaming.

        ``None`` whenever the store is absent, retired, or does not own
        this exact ``table`` object (the identity version fence) — the
        caller streams the original columns, which is always exact.  The
        lease taken here lives exactly as long as the projection object:
        it is released by a finalizer when the run drops its last
        reference, so a concurrent retire can never unmap pages a
        streaming pass is still reading (closing a segment invalidates
        every view over it, even ones numpy still holds).
        """
        import weakref

        from ..errors import SharedMemoryUnavailable

        store = self.resident
        if store is None or not store.owns(name, table):
            return None
        if not store.acquire():
            return None
        try:
            projection = store.project(name, columns)
        except SharedMemoryUnavailable:
            store.release()
            return None
        weakref.finalize(projection, store.release)
        return projection

    def _run_resolved(
        self, query: Query, tables: TableMap, use_cheetah: bool = True
    ) -> RunResult:
        operator = query.operator
        injector: Optional[FaultInjector] = None
        if use_cheetah and self.config.fault_plan is not None:
            injector = FaultInjector(self.config.fault_plan)
        if (
            use_cheetah
            and injector is None
            and self.config.resident
            and self.resident is None
        ):
            # Lazy standalone residency — built only when no store exists
            # at all.  A store that doesn't cover this run's tables is
            # left alone (a request holding a stale snapshot must not
            # retire the current epoch); the run just takes the per-run
            # export path, which is always exact.
            self.ensure_resident(tables)
        if use_cheetah and self.config.parallelism > 1 and injector is None:
            from ..errors import SharedMemoryUnavailable
            from ..parallel.runner import run_parallel

            try:
                return run_parallel(self, query, tables)
            except SharedMemoryUnavailable:
                pass  # no shared memory here; the sequential path is exact
        if isinstance(operator, JoinOp):
            result = self._run_join(query, tables, use_cheetah, injector)
        elif isinstance(operator, HavingOp):
            result = self._run_having(query, tables, use_cheetah, injector)
        elif isinstance(operator, SkylineOp):
            result = self._run_skyline(query, tables, use_cheetah, injector)
        else:
            result = self._run_single_pass(query, tables, use_cheetah, injector)
        if injector is not None and result.metrics is not None:
            result.metrics.absorb(injector.metrics)
            result.faults = injector.summary()
        return result

    def run_verified(self, query: Query, tables: TableMap) -> RunResult:
        """Run with Cheetah and assert the pruning contract against reference."""
        result = self.run(query, tables, use_cheetah=True)
        expected = run_reference(query, tables)
        if not outputs_match(result.output, expected):
            raise AssertionError(
                f"pruning contract violated for {query.describe()}: "
                f"got {result.output!r}, expected {expected!r}"
            )
        return result

    def run_packed(
        self, queries: Sequence[Query], tables: TableMap
    ) -> "PackedRunResult":
        """Run several single-pass queries over ONE streaming pass (§6).

        All queries must scan the same table with single-pass operators
        (filter/COUNT, DISTINCT, TOP N, GROUP BY) and no separate WHERE.
        The switch evaluates every query's pruner on each entry, yielding
        one prune/no-prune bit per query; the packet is forwarded if any
        query needs it, and the master completes each query from the
        entries forwarded *for it*.  The combined footprint is validated
        with the §6 packing before anything runs.

        With an :attr:`adaptive` store attached, each member query's
        override is leased for the pass (its pruner is built from its
        own effective config); the fused plan is compiled conservatively
        so a variant override can only ever force the per-pruner path,
        never a wrong fused kernel.
        """
        if not queries:
            raise PlanError("run_packed needs at least one query")
        if self.adaptive is not None:
            with ExitStack() as stack:
                overrides = [
                    stack.enter_context(self.adaptive.lease(q.cache_key()))
                    for q in queries
                ]
                return self._run_packed_resolved(queries, tables, overrides)
        return self._run_packed_resolved(queries, tables, None)

    def _run_packed_resolved(
        self,
        queries: Sequence[Query],
        tables: TableMap,
        overrides: Optional[List[Optional[ClusterConfig]]],
    ) -> "PackedRunResult":
        ops = [q.operator for q in queries]
        if any(q.where is not None for q in queries):
            raise PlanError("packed queries must fold WHERE into the operator")
        if any(isinstance(op, (JoinOp, HavingOp, SkylineOp)) for op in ops):
            raise PlanError(
                "packed execution supports single-pass operators only "
                "(filter/COUNT, DISTINCT, TOP N, GROUP BY)"
            )
        table_names = {op.table for op in ops}
        if len(table_names) != 1:
            raise PlanError(
                f"packed queries must scan one table, got {sorted(table_names)}"
            )
        table = tables[ops[0].table]
        columns: List[str] = []
        for query in queries:
            for column in query.stream_columns():
                if column not in columns:
                    columns.append(column)
        effective = (
            [override or self.config for override in overrides]
            if overrides is not None
            else [self.config] * len(queries)
        )
        pruners = [
            self._build_pruner(q, tables, columns=columns, config=effective[i])
            for i, q in enumerate(queries)
        ]
        if self.config.validate_resources:
            from ..switch.compiler import pack

            pack([p.footprint() for p in pruners], self.config.model)
        # Of the variant axes, only fingerprint DISTINCT changes what the
        # fused plan can compile (it does not fuse).  With mixed
        # per-query overrides, OR-ing it is conservative: a query whose
        # override needs it forces the (exact) per-pruner fallback for
        # the whole slot.  Both TOP N variants fuse into one kernel kind
        # that drives whichever pruner the query's own config built.
        if all(cfg == effective[0] for cfg in effective):
            plan_config = effective[0]
        else:
            plan_config = dataclass_replace(
                self.config,
                distinct_fingerprint=any(
                    cfg.distinct_fingerprint for cfg in effective
                ),
            )
        shared = MetricsRegistry()
        phase = PhaseVolume("packed-stream")
        per_query: List[List[Tuple[int, Tuple]]] = [[] for _ in queries]
        # Packed slots stream through resident views too (same fence and
        # fallback semantics as the sequential single-pass path; lazy
        # build only when no store exists, so a stale-snapshot slot can
        # never retire the current epoch).
        if self.config.resident and self.resident is None:
            self.ensure_resident(tables)
        stream_table = table
        projection = self._resident_projection(ops[0].table, table, columns)
        if projection is not None:
            stream_table = projection
        with shared.trace("partition"):
            parts = self._partitions(stream_table)
        # Fused dataplane: compile the packed program once; when every
        # query fuses, one vectorized pass accumulates all keep-masks and
        # survivors stay row-id arrays (no per-entry tuples at all).
        program: Optional[FusedProgram] = None
        if self.config.fused:
            plan = plan_fused(queries, columns, plan_config)
            if plan.fused:
                program = FusedProgram(
                    plan,
                    pruners,
                    registry=shared,
                    trace_sample=self.config.fused_trace_sample,
                )
            else:
                record_fallback(shared, plan.fallback_reason)
        survivor_ids: Optional[List[np.ndarray]] = None
        with shared.trace("packed-stream"):
            if program is not None:
                survivor_ids = self._stream_fused(
                    program,
                    parts,
                    columns,
                    phase,
                    shared,
                    self.config.batch_size or FUSED_DEFAULT_BATCH,
                )
            elif self.config.batch_size is not None:
                self._stream_packed_batched(
                    queries,
                    pruners,
                    parts,
                    columns,
                    phase,
                    shared,
                    per_query,
                    self.config.batch_size,
                )
            else:
                row_base = 0
                for worker, part in enumerate(parts):
                    streamed_before = phase.streamed
                    forwarded_before = phase.forwarded
                    for offset, payload in enumerate(part.iter_rows(columns)):
                        phase.streamed += 1
                        any_forward = False
                        for i, (query, pruner) in enumerate(zip(queries, pruners)):
                            entry = self._payload_to_entry(
                                query.operator, columns, payload
                            )
                            if pruner.process(entry) is PruneDecision.FORWARD:
                                any_forward = True
                                per_query[i].append((row_base + offset, payload))
                        if any_forward:
                            phase.forwarded += 1
                    _record_worker_volume(
                        shared,
                        phase.name,
                        worker,
                        phase.streamed - streamed_before,
                        phase.forwarded - forwarded_before,
                    )
                    row_base += part.num_rows
        _record_phase(shared, phase)
        results = []
        for i, (query, pruner) in enumerate(zip(queries, pruners)):
            # Per-query isolation: each result carries a registry holding
            # only its own pruner's counters and completion span.
            registry = MetricsRegistry()
            kind = _op_kind(query.operator)
            with registry.trace("master-complete"):
                if survivor_ids is not None:
                    output = self._complete_single_pass_arrays(
                        query, columns, table, survivor_ids[i]
                    )
                else:
                    output = self._complete_single_pass(
                        query, columns, per_query[i], pruner
                    )
            _absorb_pruner(registry, pruner, query=kind, role="primary")
            results.append(
                RunResult(
                    query=query.describe(),
                    output=output,
                    phases=[phase],
                    used_cheetah=True,
                    workers=self.workers,
                    op_kind=kind,
                    metrics=registry,
                )
            )
        return PackedRunResult(results=results, phase=phase, metrics=shared)

    # -- shared plumbing -------------------------------------------------------

    def _filtered_table(self, query: Query, tables: TableMap) -> Table:
        table = tables[query.operator.table]
        return table

    def _partitions(self, table: Table) -> List[Table]:
        return table.partition(self.workers)

    def _record_worker_shares(
        self,
        registry: MetricsRegistry,
        phase: str,
        total: int,
        forwarded: Optional[int] = None,
    ) -> None:
        """Per-worker streamed attribution for unpartitioned streams.

        The multi-pass operators (JOIN, HAVING, SKYLINE) drive whole
        column arrays rather than explicit per-worker partitions; their
        traffic is attributed to workers by the *same* split
        ``Table.partition`` uses (remainder rows on the later workers),
        so per-worker counters match the partition sizes an explicitly
        partitioned phase would record, and their sum is exactly
        ``total``.  ``forwarded``, when given, is attributed the same
        way (the parallel runner uses it for schema parity with the
        sequential single-pass counters).
        """
        bounds = np.linspace(0, total, self.workers + 1, dtype=int)
        shares = np.diff(bounds)
        forward_shares = (
            np.diff(np.linspace(0, forwarded, self.workers + 1, dtype=int))
            if forwarded is not None
            else None
        )
        for worker in range(self.workers):
            registry.counter(
                "worker_entries_streamed_total",
                "Entries streamed by each worker per phase.",
                worker=worker,
                phase=phase,
            ).inc(int(shares[worker]))
            if forward_shares is not None:
                registry.counter(
                    "worker_entries_forwarded_total",
                    "Entries forwarded by each worker per phase.",
                    worker=worker,
                    phase=phase,
                ).inc(int(forward_shares[worker]))

    def _where_columns(self, query: Query) -> List[str]:
        return query.where.columns() if query.where is not None else []

    def _where_keep(self, query: Query, columns: Sequence[str], entry: Tuple) -> bool:
        """Full (master-side) WHERE check on a streamed entry."""
        if query.where is None:
            return True
        formula = query.where.to_formula(columns)
        return formula.evaluate(entry)

    def _build_pruner(
        self,
        query: Query,
        tables: TableMap,
        columns: Optional[Sequence[str]] = None,
        config: Optional[ClusterConfig] = None,
    ) -> Pruner:
        """Instantiate the pruner for the primary operator.

        ``columns`` overrides the payload layout (used by the packed
        multi-query path, where several queries share one wider stream);
        ``config`` overrides the cluster config (the packed path builds
        each member query's pruner from its own adaptive override).
        """
        op = query.operator
        cfg = config if config is not None else self.config
        if isinstance(op, (CountOp, FilterOp)):
            if columns is None:
                columns = query.stream_columns()
            formula = op.predicate.to_formula(columns)
            if query.where is not None:
                formula = formula & query.where.to_formula(columns)
            return FilterPruner(formula, worker_assist=cfg.worker_assist_filters)
        if isinstance(op, DistinctOp):
            if cfg.distinct_fingerprint:
                return FingerprintDistinctPruner(
                    rows=cfg.distinct_rows,
                    cols=cfg.distinct_cols,
                    delta=cfg.distinct_delta,
                    policy=cfg.distinct_policy,
                    seed=cfg.seed,
                    model=cfg.model,
                )
            return DistinctPruner(
                rows=cfg.distinct_rows,
                cols=cfg.distinct_cols,
                policy=cfg.distinct_policy,
                seed=cfg.seed,
                model=cfg.model,
            )
        if isinstance(op, TopNOp):
            if cfg.topn_randomized:
                return TopNRandomizedPruner(
                    n=op.n,
                    rows=cfg.topn_rows,
                    cols=cfg.topn_cols,
                    delta=cfg.topn_delta,
                    seed=cfg.seed,
                )
            return TopNDeterministicPruner(n=op.n, thresholds=cfg.topn_thresholds)
        if isinstance(op, GroupByOp):
            return GroupByPruner(
                aggregate=op.aggregate,
                rows=cfg.groupby_rows,
                cols=cfg.groupby_cols,
                seed=cfg.seed,
            )
        raise PlanError(f"no single-pass pruner for {type(op).__name__}")

    def _maybe_validate(self, pruner: Pruner) -> None:
        if self.config.validate_resources:
            pruner.validate(self.config.model)

    def _build_where_stage(
        self, query: Query, columns: Sequence[str]
    ) -> Optional[FilterPruner]:
        """The packed pre-filter stage for a stateful primary operator.

        A WHERE-violating row must not reach a stateful pruner (it could
        shadow a passing row in a DISTINCT/GROUP BY cache).  A fully
        switch-supported WHERE filters exactly; unsupported predicates
        require worker assist (the CWorker computes them and ships the
        result bit, §4.1) — without it we refuse rather than risk a wrong
        answer.
        """
        op = query.operator
        if query.where is None or isinstance(op, (CountOp, FilterOp)):
            return None
        formula = query.where.to_formula(columns)
        has_unsupported = any(not atom.supported for atom in formula.atoms())
        if has_unsupported and not self.config.worker_assist_filters:
            raise PlanError(
                "WHERE contains switch-unsupported predicates before a stateful "
                "operator; enable ClusterConfig.worker_assist_filters"
            )
        return FilterPruner(formula, worker_assist=self.config.worker_assist_filters)

    # -- graceful degradation (fault injection) --------------------------------

    def _apply_single_pass_fault(
        self,
        event: FaultEvent,
        kind: str,
        pruner: Pruner,
        injector: FaultInjector,
        state: _ChaosState,
    ) -> None:
        """Apply one switch fault on the single-pass path.

        Every single-pass operator (filter/COUNT, DISTINCT, TOP N,
        GROUP BY) is reboot-safe per Table 4: emptied dataplane state only
        ever makes the switch forward *more*, so the sound recovery is to
        continue with empty state.  Stage exhaustion instead disables the
        pruning program outright — the stage fails open and the remainder
        of the stream is forwarded unfiltered.
        """
        if event.kind == "exhaust":
            injector.record(event.kind, event.at, op=kind)
            state.passthrough = True
            injector.record_degradation(
                kind,
                "passthrough-remainder",
                event.at,
                "pipeline stage exhausted; stage fails open, remainder forwarded",
            )
            return
        if event.kind == "bitflip":
            description = pruner.corrupt_state(injector.rng)
            injector.record(event.kind, event.at, op=kind, hit=description)
            if description is None:
                return  # landed in unallocated SRAM; nothing to recover
            reason = f"parity-detected bit flip ({description})"
        else:  # reboot
            injector.record(event.kind, event.at, op=kind)
            reason = "switch reboot"
        if is_reboot_safe(kind):
            pruner.reboot()
            injector.record_degradation(
                kind,
                "continue-empty-state",
                event.at,
                f"{reason}; {kind} is reboot-safe (Table 4) — superset forwarded",
            )
        else:  # pragma: no cover - single-pass operators are all reboot-safe
            state.passthrough = True
            injector.record_degradation(
                kind,
                "passthrough-remainder",
                event.at,
                f"{reason}; {kind} is not reboot-safe — forward-all fallback",
            )

    def _apply_join_fault(
        self,
        event: FaultEvent,
        pruner: JoinPruner,
        injector: FaultInjector,
        state: _ChaosState,
        rebuild: PhaseVolume,
        left_keys: List,
        right_keys: List,
        during: str,
    ) -> None:
        """Apply one switch fault to the JOIN pruner (not reboot-safe).

        Losing the Bloom filters mid-*build* simply restarts the build
        pass.  Losing them mid-*probe* is the Table 4 hazard: an empty
        filter would prune every remaining probe, silently losing join
        rows.  :attr:`ClusterConfig.degrade_policy` decides between
        re-streaming the build pass (extra ``join-rebuild`` traffic) and
        forwarding the remaining probes unfiltered; ``"auto"`` consults
        the filters' fill ratio — a nearly-full filter barely prunes, so
        rebuilding it buys nothing.
        """
        if event.kind == "exhaust":
            injector.record(event.kind, event.at, op="join")
            state.passthrough = True
            injector.record_degradation(
                "join",
                "passthrough-remainder",
                event.at,
                "pipeline stage exhausted; remaining probes forward unfiltered",
            )
            return
        if event.kind == "bitflip":
            description = pruner.corrupt_state(injector.rng)
            injector.record(event.kind, event.at, op="join", hit=description)
            if description is None:
                return
            reason = f"parity-detected bit flip ({description})"
        else:  # reboot
            injector.record(event.kind, event.at, op="join")
            reason = "switch reboot"
        rebuild_volume = len(left_keys) + len(right_keys)
        if during == "build":
            pruner.reboot()
            pruner.build(left_keys, right_keys)
            rebuild.streamed += rebuild_volume
            injector.record_degradation(
                "join",
                "rebuild-build",
                event.at,
                f"{reason} during the build pass; both key columns re-streamed",
            )
            return
        # Health gauges survive a reboot (the controller keeps metrics),
        # so capture the fill ratio before wiping the filters.
        pruner.observe_health()
        fill = max(f.fill_ratio() for f in pruner._filters.values())
        action = self.config.degrade_policy
        if action == "auto":
            action = "passthrough" if fill > 0.5 else "rebuild"
        pruner.reboot()
        if action == "rebuild":
            pruner.build(left_keys, right_keys)
            rebuild.streamed += rebuild_volume
            injector.record_degradation(
                "join",
                "rebuild",
                event.at,
                f"{reason} during probe; bloom fill {fill:.3f} — "
                "build pass re-streamed",
            )
        else:
            state.passthrough = True
            injector.record_degradation(
                "join",
                "passthrough",
                event.at,
                f"{reason} during probe; bloom fill {fill:.3f} — "
                "remaining probes forward unfiltered",
            )

    def _apply_having_fault(
        self,
        event: FaultEvent,
        pruner: HavingPruner,
        injector: FaultInjector,
        state: _ChaosState,
    ) -> bool:
        """Apply one switch fault to HAVING's sketch pass; True → refetch all.

        HAVING is not reboot-safe (Table 4): a key whose entries all
        arrived before the fault may never re-cross the threshold, so no
        amount of forward-from-here-on recovers it.  The only sound
        fallback is to treat *every* key as a candidate — the partial
        second pass becomes a full one (baseline traffic, correct output).
        """
        if event.kind == "bitflip":
            description = pruner.corrupt_state(injector.rng)
            injector.record(event.kind, event.at, op="having", hit=description)
            if description is None:
                return False
            reason = f"parity-detected bit flip ({description})"
            pruner.reboot()
        elif event.kind == "reboot":
            injector.record(event.kind, event.at, op="having")
            reason = "switch reboot"
            pruner.reboot()
        else:  # exhaust: the sketch stops updating but keeps its state
            injector.record(event.kind, event.at, op="having")
            reason = "pipeline stage exhausted"
        state.passthrough = True
        injector.record_degradation(
            "having",
            "refetch-all",
            event.at,
            f"{reason}; HAVING is not reboot-safe — every key becomes a "
            "candidate for the second pass",
        )
        return True

    def _apply_skyline_fault(
        self,
        event: FaultEvent,
        pruner: SkylinePruner,
        injector: FaultInjector,
        state: _ChaosState,
        replay: List,
    ) -> bool:
        """Apply one switch fault to SKYLINE's stream; True → replay prefix.

        SKYLINE is not reboot-safe (Table 4): pruned points were dominated
        by *cached* points, so losing the cache before the FIN drain could
        lose their dominators from the master's view.  Recovery re-streams
        every point processed since the last reboot through the fresh
        cache (duplicates are superset-safe).  Stage exhaustion keeps the
        register cache intact — it still drains at FIN — so forwarding the
        remainder unfiltered is sound without a replay.
        """
        if event.kind == "exhaust":
            injector.record(event.kind, event.at, op="skyline")
            state.passthrough = True
            injector.record_degradation(
                "skyline",
                "passthrough-remainder",
                event.at,
                "pipeline stage exhausted; cache intact and drains at FIN",
            )
            return False
        if event.kind == "bitflip":
            description = pruner.corrupt_state(injector.rng)
            injector.record(event.kind, event.at, op="skyline", hit=description)
            if description is None:
                return False
            reason = f"parity-detected bit flip ({description})"
        else:  # reboot
            injector.record(event.kind, event.at, op="skyline")
            reason = "switch reboot"
        pruner.reboot()
        injector.record_degradation(
            "skyline",
            "restart-replay",
            event.at,
            f"{reason}; {len(replay)} processed points re-streamed through "
            "the fresh cache",
        )
        return True

    # -- single-pass operators -------------------------------------------------

    def _run_single_pass(
        self,
        query: Query,
        tables: TableMap,
        use_cheetah: bool,
        injector: Optional[FaultInjector] = None,
    ) -> RunResult:
        op = query.operator
        table = tables[op.table]
        columns = query.stream_columns()
        kind = _op_kind(op)
        registry = MetricsRegistry()
        pruner: Pruner = (
            self._build_pruner(query, tables) if use_cheetah else PassthroughPruner()
        )
        self._maybe_validate(pruner)
        where_pruner = (
            self._build_where_stage(query, columns) if use_cheetah else None
        )
        phase = PhaseVolume("stream")
        survivors: List[Tuple[int, Tuple]] = []  # (row_id, payload)
        row_base = 0
        # Fault injection needs per-entry granularity; force the scalar path.
        batch_size = self.config.batch_size if injector is None else None
        chaos = _ChaosState()
        # Stream through resident views when the store owns this exact
        # table: the sequential path then reads the same physical pages
        # the shard processes map.  Completion still gathers from the
        # original table (identical values either way).
        stream_table = table
        if use_cheetah and injector is None:
            projection = self._resident_projection(op.table, table, columns)
            if projection is not None:
                stream_table = projection
        with registry.trace("partition"):
            parts = self._partitions(stream_table)
        # The fused dataplane engages only on batched Cheetah runs (so a
        # batch_size=None run keeps its exact counter schema) and only
        # when the single-query program compiles; unfusable programs are
        # counted and take the per-pruner batched path below.
        program: Optional[FusedProgram] = None
        if use_cheetah and batch_size is not None and self.config.fused:
            plan = plan_fused([query], columns, self.config)
            if plan.fused:
                program = FusedProgram(
                    plan,
                    [pruner],
                    registry=registry,
                    trace_sample=self.config.fused_trace_sample,
                )
            else:
                record_fallback(registry, plan.fallback_reason)
        fused_ids: Optional[List[np.ndarray]] = None
        with registry.trace("stream"):
            if program is not None:
                fused_ids = self._stream_fused(
                    program, parts, columns, phase, registry, batch_size
                )
                parts = []  # fused pass consumed the partitions
            for worker, part in enumerate(parts):
                streamed_before = phase.streamed
                forwarded_before = phase.forwarded
                if batch_size is not None:
                    self._stream_partition_batched(
                        op, part, columns, pruner, where_pruner, phase,
                        survivors, row_base, batch_size,
                    )
                elif injector is not None:
                    stream = [
                        (row_base + offset, payload)
                        for offset, payload in enumerate(part.iter_rows(columns))
                    ]
                    stream = injector.perturb_partition(
                        stream, injector.cursor, worker, phase.name
                    )
                    for row_id, payload in stream:
                        phase.streamed += 1
                        for event in injector.advance(1):
                            self._apply_single_pass_fault(
                                event, kind, pruner, injector, chaos
                            )
                        if chaos.passthrough:
                            phase.forwarded += 1
                            survivors.append((row_id, payload))
                            continue
                        if (
                            where_pruner is not None
                            and where_pruner.process(payload) is PruneDecision.PRUNE
                        ):
                            continue
                        entry = self._payload_to_entry(op, columns, payload)
                        if pruner.process(entry) is PruneDecision.FORWARD:
                            phase.forwarded += 1
                            survivors.append((row_id, payload))
                else:
                    for offset, payload in enumerate(part.iter_rows(columns)):
                        phase.streamed += 1
                        # The packed filter stage (§6) runs first, so
                        # WHERE-violating rows never pollute the stateful
                        # operator's caches.
                        if (
                            where_pruner is not None
                            and where_pruner.process(payload) is PruneDecision.PRUNE
                        ):
                            continue
                        entry = self._payload_to_entry(op, columns, payload)
                        if pruner.process(entry) is PruneDecision.FORWARD:
                            phase.forwarded += 1
                            survivors.append((row_base + offset, payload))
                _record_worker_volume(
                    registry,
                    phase.name,
                    worker,
                    phase.streamed - streamed_before,
                    phase.forwarded - forwarded_before,
                )
                row_base += part.num_rows
        with registry.trace("master-complete"):
            if fused_ids is not None:
                output = self._complete_single_pass_arrays(
                    query, columns, table, fused_ids[0]
                )
            else:
                output = self._complete_single_pass(
                    query, columns, survivors, pruner
                )
        _record_phase(registry, phase)
        _absorb_pruner(registry, pruner, query=kind, role="primary")
        if where_pruner is not None:
            _absorb_pruner(registry, where_pruner, query=kind, role="where")
        return RunResult(
            query=query.describe(),
            output=output,
            phases=[phase],
            used_cheetah=use_cheetah,
            workers=self.workers,
            op_kind=kind,
            metrics=registry,
        )

    def _stream_partition_batched(
        self,
        op,
        part: Table,
        columns: Sequence[str],
        pruner: Pruner,
        where_pruner: Optional[FilterPruner],
        phase: PhaseVolume,
        survivors: List[Tuple[int, Tuple]],
        row_base: int,
        batch_size: int,
    ) -> None:
        """Stream one worker partition as column slices (batch dataplane).

        Mirrors the scalar loop exactly: the packed WHERE stage sees every
        row, the primary pruner sees only WHERE-passing rows, and
        survivors carry the same ``(row_id, payload)`` tuples — so phase
        volumes, pruner stats and the master's input are unchanged.
        """
        arrays = [part.column(name) for name in columns]
        total = part.num_rows
        for lo in range(0, total, batch_size):
            hi = min(lo + batch_size, total)
            slices = tuple(array[lo:hi] for array in arrays)
            phase.streamed += hi - lo
            if where_pruner is not None:
                keep = where_pruner.process_batch(slices)
                where_idx = np.flatnonzero(keep)
                if len(where_idx) == 0:
                    continue
                subset = tuple(column[where_idx] for column in slices)
            else:
                where_idx = None
                subset = slices
            entries = self._entries_batch(op, columns, subset)
            forward = pruner.process_batch(entries)
            forwarded_positions = np.flatnonzero(forward)
            phase.forwarded += len(forwarded_positions)
            for j in forwarded_positions:
                local = int(where_idx[j]) if where_idx is not None else int(j)
                survivors.append(
                    (
                        row_base + lo + local,
                        tuple(column[local] for column in slices),
                    )
                )

    def _stream_fused(
        self,
        program: FusedProgram,
        parts: Sequence[Table],
        columns: Sequence[str],
        phase: PhaseVolume,
        registry: MetricsRegistry,
        batch_size: int,
    ) -> List[np.ndarray]:
        """One fused vectorized pass over all partitions.

        Each batch is a tuple of column slices (views into the partition
        arrays — no copies); :meth:`FusedProgram.run_batch` returns every
        query's keep-mask plus their union, which is the §6 forward bit.
        Survivors stay global row-id arrays — the caller does exactly one
        columnar gather per query at completion time, so no intermediate
        entry tuples exist anywhere on this path.
        """
        per_kernel: List[List[np.ndarray]] = [[] for _ in program.plan.specs]
        row_base = 0
        for worker, part in enumerate(parts):
            streamed_before = phase.streamed
            forwarded_before = phase.forwarded
            arrays = [part.column(name) for name in columns]
            total = part.num_rows
            for lo in range(0, total, batch_size):
                hi = min(lo + batch_size, total)
                slices = tuple(array[lo:hi] for array in arrays)
                masks, any_forward = program.run_batch(slices)
                phase.streamed += hi - lo
                phase.forwarded += int(np.count_nonzero(any_forward))
                base = row_base + lo
                for i, mask in enumerate(masks):
                    ids = np.flatnonzero(mask)
                    if len(ids):
                        per_kernel[i].append(ids.astype(np.int64) + base)
            _record_worker_volume(
                registry,
                phase.name,
                worker,
                phase.streamed - streamed_before,
                phase.forwarded - forwarded_before,
            )
            row_base += part.num_rows
        return [
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            for chunks in per_kernel
        ]

    def _stream_packed_batched(
        self,
        queries: Sequence[Query],
        pruners: Sequence[Pruner],
        parts: Sequence[Table],
        columns: Sequence[str],
        phase: PhaseVolume,
        registry: MetricsRegistry,
        per_query: List[List[Tuple[int, Tuple]]],
        batch_size: int,
    ) -> None:
        """Per-pruner batched packed pass (the fused path's fallback).

        Each pruner sees the batch through its own entry materialization
        and survivors are gathered as ``(row_id, payload)`` tuples per
        query — decisions match the scalar packed loop exactly (each
        ``process_batch`` is scalar-equivalent), only the dispatch is
        vectorized.  This is also the fair baseline the fused benchmark
        races against.
        """
        row_base = 0
        for worker, part in enumerate(parts):
            streamed_before = phase.streamed
            forwarded_before = phase.forwarded
            arrays = [part.column(name) for name in columns]
            total = part.num_rows
            for lo in range(0, total, batch_size):
                hi = min(lo + batch_size, total)
                slices = tuple(array[lo:hi] for array in arrays)
                phase.streamed += hi - lo
                any_forward = np.zeros(hi - lo, dtype=bool)
                for i, (query, pruner) in enumerate(zip(queries, pruners)):
                    entries = self._entries_batch(query.operator, columns, slices)
                    forward = pruner.process_batch(entries)
                    np.logical_or(any_forward, forward, out=any_forward)
                    for j in np.flatnonzero(forward):
                        local = int(j)
                        per_query[i].append(
                            (
                                row_base + lo + local,
                                tuple(column[local] for column in slices),
                            )
                        )
                phase.forwarded += int(np.count_nonzero(any_forward))
            _record_worker_volume(
                registry,
                phase.name,
                worker,
                phase.streamed - streamed_before,
                phase.forwarded - forwarded_before,
            )
            row_base += part.num_rows

    def _complete_single_pass_arrays(
        self,
        query: Query,
        columns: Sequence[str],
        table: Table,
        ids: np.ndarray,
    ) -> object:
        """Columnar CMaster completion for fused survivors.

        ``ids`` are unique ascending global row ids (the fused pass emits
        each row at most once per query, in stream order), so the scalar
        path's fault dedup is a no-op here and one gather per column
        reconstructs the survivor stream exactly.
        """
        op = query.operator
        gathered = tuple(table.column(name)[ids] for name in columns)
        count = len(ids)
        if isinstance(op, (CountOp, FilterOp)):
            formula = op.predicate.to_formula(columns)
            keep = TruthTable.from_formula(formula).accepts_batch(gathered, count)
            if query.where is not None:
                where_formula = query.where.to_formula(columns)
                keep &= TruthTable.from_formula(where_formula).accepts_batch(
                    gathered, count
                )
            if isinstance(op, CountOp):
                return int(np.count_nonzero(keep))
            return set(ids[keep].tolist())
        if query.where is not None:
            where_formula = query.where.to_formula(columns)
            keep = TruthTable.from_formula(where_formula).accepts_batch(
                gathered, count
            )
            gathered = tuple(column[keep] for column in gathered)
        if isinstance(op, DistinctOp):
            if len(op.columns) == 1:
                return set(gathered[columns.index(op.columns[0])].tolist())
            parts = [gathered[columns.index(c)] for c in op.columns]
            return set(zip(*(p.tolist() for p in parts)))
        if isinstance(op, TopNOp):
            values = gathered[columns.index(op.order_by)].astype(np.float64)
            if not op.descending:
                values = -values
            top = master_topn(values.tolist(), op.n)
            return top if op.descending else [-v for v in top]
        if isinstance(op, GroupByOp):
            keys = gathered[columns.index(op.key)].tolist()
            values = gathered[columns.index(op.value)].astype(np.float64).tolist()
            return master_groupby(list(zip(keys, values)), op.aggregate)
        raise PlanError(f"no completion for {type(op).__name__}")

    def _entries_batch(self, op, columns: Sequence[str], slices: Tuple):
        """Columnar analog of :meth:`_payload_to_entry` for a row batch."""
        if isinstance(op, (CountOp, FilterOp)):
            return slices
        if isinstance(op, DistinctOp):
            if len(op.columns) == 1:
                return slices[columns.index(op.columns[0])]
            parts = [slices[columns.index(c)] for c in op.columns]
            return list(zip(*parts))
        if isinstance(op, TopNOp):
            values = slices[columns.index(op.order_by)].astype(np.float64)
            return values if op.descending else -values
        if isinstance(op, GroupByOp):
            return (
                slices[columns.index(op.key)],
                slices[columns.index(op.value)].astype(np.float64),
            )
        raise PlanError(f"no entry mapping for {type(op).__name__}")

    def _payload_to_entry(self, op, columns: Sequence[str], payload: Tuple):
        """Map the streamed payload to the pruner's entry shape."""
        if isinstance(op, (CountOp, FilterOp)):
            return payload
        if isinstance(op, DistinctOp):
            if len(op.columns) == 1:
                return payload[columns.index(op.columns[0])]
            return tuple(payload[columns.index(c)] for c in op.columns)
        if isinstance(op, TopNOp):
            value = float(payload[columns.index(op.order_by)])
            # Ascending order ("bottom N") negates into the max-domain
            # the pruners are built for.
            return value if op.descending else -value
        if isinstance(op, GroupByOp):
            return (
                payload[columns.index(op.key)],
                float(payload[columns.index(op.value)]),
            )
        raise PlanError(f"no entry mapping for {type(op).__name__}")

    def _complete_single_pass(
        self,
        query: Query,
        columns: Sequence[str],
        survivors: List[Tuple[int, Tuple]],
        pruner: Pruner,
    ) -> object:
        """The CMaster's completion step for single-pass operators.

        Survivors are deduplicated by row id first: under fault injection
        the same row can arrive more than once (duplicated packets, a
        crashed worker replaying its partition), and a double-counted row
        would corrupt COUNT/SUM results.  Fault-free streams carry unique
        row ids, so the dedup is a no-op there.
        """
        seen_rows: Set[int] = set()
        deduped: List[Tuple[int, Tuple]] = []
        for row_id, payload in survivors:
            if row_id in seen_rows:
                continue
            seen_rows.add(row_id)
            deduped.append((row_id, payload))
        survivors = deduped
        op = query.operator
        if isinstance(op, (CountOp, FilterOp)):
            formula = op.predicate.to_formula(columns)
            kept = [
                (row_id, payload)
                for row_id, payload in survivors
                if formula.evaluate(payload)
                and self._where_keep(query, columns, payload)
            ]
            if isinstance(op, CountOp):
                return len(kept)
            return {row_id for row_id, _ in kept}
        kept_payloads = [
            payload
            for _, payload in survivors
            if self._where_keep(query, columns, payload)
        ]
        if isinstance(op, DistinctOp):
            entries = [
                self._payload_to_entry(op, columns, payload)
                for payload in kept_payloads
            ]
            return set(entries)
        if isinstance(op, TopNOp):
            values = [
                self._payload_to_entry(op, columns, payload)
                for payload in kept_payloads
            ]
            top = master_topn(values, op.n)
            return top if op.descending else [-v for v in top]
        if isinstance(op, GroupByOp):
            entries = [
                self._payload_to_entry(op, columns, payload)
                for payload in kept_payloads
            ]
            return master_groupby(entries, op.aggregate)
        raise PlanError(f"no completion for {type(op).__name__}")

    # -- JOIN: two passes --------------------------------------------------------

    def _run_join(
        self,
        query: Query,
        tables: TableMap,
        use_cheetah: bool,
        injector: Optional[FaultInjector] = None,
    ) -> RunResult:
        op = query.operator
        assert isinstance(op, JoinOp)
        if query.where is not None:
            raise PlanError("pre-filtered JOIN is not modeled; filter the table first")
        left = tables[op.table]
        right = tables[op.right_table]
        left_col = left.column(op.left_on)
        right_col = right.column(op.right_on)
        left_keys = left_col.tolist()
        right_keys = right_col.tolist()
        batch_size = self.config.batch_size if injector is None else None
        registry = MetricsRegistry()
        phases = []
        if use_cheetah:
            pruner = JoinPruner(
                left=op.table,
                right=op.right_table,
                memory_bits=self.config.join_memory_bits,
                hashes=self.config.join_hashes,
                variant=self.config.join_variant,
                seed=self.config.seed,
            )
            self._maybe_validate(pruner)
            build = PhaseVolume("join-build", streamed=len(left_keys) + len(right_keys))
            chaos = _ChaosState()
            rebuild = PhaseVolume("join-rebuild")
            with registry.trace("join-build"):
                if batch_size is not None:
                    pruner.build(left_col, right_col)
                else:
                    pruner.build(left_keys, right_keys)
                if injector is not None:
                    # Build-pass entries advance the fault cursor in one
                    # step; a reboot/bitflip inside the span restarts the
                    # whole build (re-streamed traffic lands on rebuild).
                    for event in injector.advance(build.streamed):
                        self._apply_join_fault(
                            event, pruner, injector, chaos, rebuild,
                            left_keys, right_keys, during="build",
                        )
            phases.append(build)
            probe = PhaseVolume("join-probe")
            left_survivors: List = []
            right_survivors: List = []
            with registry.trace("join-probe"):
                if injector is not None:
                    probe_stream = [
                        (op.table, key, rid)
                        for rid, key in enumerate(left_keys)
                    ] + [
                        (op.right_table, key, len(left_keys) + rid)
                        for rid, key in enumerate(right_keys)
                    ]
                    probe_stream = injector.perturb_partition(
                        probe_stream, injector.cursor, 0, probe.name
                    )
                    seen_rids: Set[int] = set()
                    for side, key, rid in probe_stream:
                        probe.streamed += 1
                        for event in injector.advance(1):
                            self._apply_join_fault(
                                event, pruner, injector, chaos, rebuild,
                                left_keys, right_keys, during="probe",
                            )
                        if chaos.passthrough:
                            forward = True
                        else:
                            forward = (
                                pruner.process((side, key))
                                is PruneDecision.FORWARD
                            )
                        if forward:
                            probe.forwarded += 1
                            if rid in seen_rids:
                                continue  # master dedups replayed probes
                            seen_rids.add(rid)
                            if side == op.table:
                                left_survivors.append(key)
                            else:
                                right_survivors.append(key)
                elif batch_size is not None:
                    # Pass 2, batched: each side probes as column chunks.
                    for side, keys_array, side_survivors in (
                        (op.table, left_col, left_survivors),
                        (op.right_table, right_col, right_survivors),
                    ):
                        for lo in range(0, len(keys_array), batch_size):
                            chunk = keys_array[lo : lo + batch_size]
                            forward = pruner.process_batch((side, chunk))
                            probe.streamed += len(chunk)
                            probe.forwarded += int(forward.sum())
                            side_survivors.extend(chunk[forward].tolist())
                else:
                    for key in left_keys:
                        probe.streamed += 1
                        if pruner.process((op.table, key)) is PruneDecision.FORWARD:
                            probe.forwarded += 1
                            left_survivors.append(key)
                    for key in right_keys:
                        probe.streamed += 1
                        if (
                            pruner.process((op.right_table, key))
                            is PruneDecision.FORWARD
                        ):
                            probe.forwarded += 1
                            right_survivors.append(key)
            phases.append(probe)
            if rebuild.streamed:
                phases.append(rebuild)
            for phase in phases:
                self._record_worker_shares(registry, phase.name, phase.streamed)
            _absorb_pruner(registry, pruner, query=_op_kind(op), role="primary")
        else:
            stream = PhaseVolume(
                "join-stream",
                streamed=len(left_keys) + len(right_keys),
                forwarded=len(left_keys) + len(right_keys),
            )
            phases.append(stream)
            self._record_worker_shares(
                registry, stream.name, len(left_keys) + len(right_keys)
            )
            left_survivors, right_survivors = left_keys, right_keys
        with registry.trace("master-complete"):
            left_counts = Counter(left_survivors)
            right_counts = Counter(right_survivors)
            output = Counter(
                {
                    key: left_counts[key] * right_counts[key]
                    for key in left_counts
                    if key in right_counts
                }
            )
        for phase in phases:
            _record_phase(registry, phase)
        return RunResult(
            query=query.describe(),
            output=output,
            phases=phases,
            used_cheetah=use_cheetah,
            workers=self.workers,
            op_kind=_op_kind(op),
            metrics=registry,
        )

    # -- HAVING: sketch pass + partial second pass --------------------------------

    def _run_having(
        self,
        query: Query,
        tables: TableMap,
        use_cheetah: bool,
        injector: Optional[FaultInjector] = None,
    ) -> RunResult:
        op = query.operator
        assert isinstance(op, HavingOp)
        table = tables[op.table]
        if query.where is not None:
            table = table.mask(query.where.mask(table))
        keys_col = table.column(op.key)
        values_col = table.column(op.value)
        keys = keys_col.tolist()
        values = values_col.tolist()
        data = list(zip(keys, values))
        batch_size = self.config.batch_size if injector is None else None
        registry = MetricsRegistry()
        phases = []
        if use_cheetah:
            pruner = HavingPruner(
                threshold=op.threshold,
                aggregate=op.aggregate,
                width=self.config.having_width,
                depth=self.config.having_depth,
                seed=self.config.seed,
            )
            self._maybe_validate(pruner)
            sketch_pass = PhaseVolume("having-sketch")
            candidates: Set = set()
            chaos = _ChaosState()
            refetch_all = False
            with registry.trace("having-sketch"):
                if injector is not None:
                    stream = injector.perturb_partition(
                        data, injector.cursor, 0, sketch_pass.name
                    )
                    for key, value in stream:
                        sketch_pass.streamed += 1
                        for event in injector.advance(1):
                            refetch_all |= self._apply_having_fault(
                                event, pruner, injector, chaos
                            )
                        if chaos.passthrough:
                            sketch_pass.forwarded += 1
                            candidates.add(key)
                            continue
                        if pruner.process((key, value)) is PruneDecision.FORWARD:
                            sketch_pass.forwarded += 1
                            candidates.add(key)
                    if refetch_all:
                        candidates.update(key for key, _ in data)
                elif batch_size is not None:
                    for lo in range(0, len(keys_col), batch_size):
                        key_chunk = keys_col[lo : lo + batch_size]
                        value_chunk = values_col[lo : lo + batch_size]
                        forward = pruner.process_batch((key_chunk, value_chunk))
                        sketch_pass.streamed += len(key_chunk)
                        sketch_pass.forwarded += int(forward.sum())
                        candidates.update(key_chunk[forward].tolist())
                else:
                    for entry in data:
                        sketch_pass.streamed += 1
                        if pruner.process(entry) is PruneDecision.FORWARD:
                            sketch_pass.forwarded += 1
                            candidates.add(entry[0])
            phases.append(sketch_pass)
            # Partial second pass: only entries of candidate keys re-stream.
            second = PhaseVolume("having-refetch")
            with registry.trace("having-refetch"):
                second.streamed = sum(1 for key, _ in data if key in candidates)
                second.forwarded = second.streamed
            phases.append(second)
            self._record_worker_shares(
                registry, sketch_pass.name, sketch_pass.streamed
            )
            self._record_worker_shares(registry, second.name, second.streamed)
            with registry.trace("master-complete"):
                output = set(
                    master_having(candidates, data, op.threshold, op.aggregate)
                )
            _absorb_pruner(registry, pruner, query=_op_kind(op), role="primary")
        else:
            stream = PhaseVolume(
                "having-stream", streamed=len(data), forwarded=len(data)
            )
            phases.append(stream)
            self._record_worker_shares(registry, stream.name, len(data))
            with registry.trace("master-complete"):
                output = set(
                    master_having(
                        (key for key, _ in data), data, op.threshold, op.aggregate
                    )
                )
        for phase in phases:
            _record_phase(registry, phase)
        return RunResult(
            query=query.describe(),
            output=output,
            phases=phases,
            used_cheetah=use_cheetah,
            workers=self.workers,
            op_kind=_op_kind(op),
            metrics=registry,
        )

    # -- SKYLINE: stream + drain -------------------------------------------------

    def _run_skyline(
        self,
        query: Query,
        tables: TableMap,
        use_cheetah: bool,
        injector: Optional[FaultInjector] = None,
    ) -> RunResult:
        op = query.operator
        assert isinstance(op, SkylineOp)
        table = tables[op.table]
        if query.where is not None:
            table = table.mask(query.where.mask(table))
        columns = list(op.columns)
        points = [
            tuple(float(v) for v in payload) for payload in table.iter_rows(columns)
        ]
        phase = PhaseVolume("skyline-stream")
        received: List[Tuple[float, ...]] = []
        batch_size = self.config.batch_size if injector is None else None
        registry = MetricsRegistry()
        pruner = None
        if use_cheetah:
            pruner = SkylinePruner(
                dims=len(columns),
                points=self.config.skyline_points,
                score=self.config.skyline_score,
            )
            self._maybe_validate(pruner)
            with registry.trace("skyline-stream"):
                if injector is not None:
                    chaos = _ChaosState()
                    queue = injector.perturb_partition(
                        points, injector.cursor, 0, phase.name
                    )
                    replay: List[Tuple[float, ...]] = []
                    index = 0
                    while index < len(queue):
                        point = queue[index]
                        index += 1
                        phase.streamed += 1
                        for event in injector.advance(1):
                            if self._apply_skyline_fault(
                                event, pruner, injector, chaos, replay
                            ):
                                # Restart: the processed prefix re-enters
                                # the work queue behind the remainder.
                                queue.extend(replay)
                                replay = []
                        if chaos.passthrough:
                            phase.forwarded += 1
                            received.append(point)
                            continue
                        replay.append(point)
                        if pruner.process(point) is PruneDecision.FORWARD:
                            phase.forwarded += 1
                            carried = pruner.last_carried
                            assert carried is not None
                            received.append(carried)
                elif batch_size is not None:
                    point_matrix = np.asarray(points, dtype=np.float64).reshape(
                        -1, len(columns)
                    )
                    for lo in range(0, len(point_matrix), batch_size):
                        chunk = point_matrix[lo : lo + batch_size]
                        forward = pruner.process_batch(chunk)
                        phase.streamed += len(chunk)
                        phase.forwarded += int(forward.sum())
                        for k in np.flatnonzero(forward):
                            carried = pruner.last_batch_carried[k]
                            assert carried is not None
                            received.append(tuple(float(v) for v in carried))
                else:
                    for point in points:
                        phase.streamed += 1
                        if pruner.process(point) is PruneDecision.FORWARD:
                            phase.forwarded += 1
                            carried = pruner.last_carried
                            assert carried is not None
                            received.append(carried)
                drained = pruner.drain()
                received.extend(drained)
                phase.forwarded += len(drained)
        else:
            phase.streamed = len(points)
            phase.forwarded = len(points)
            received = points
        self._record_worker_shares(registry, phase.name, phase.streamed)
        with registry.trace("master-complete"):
            output = set(master_skyline(received))
        _record_phase(registry, phase)
        if pruner is not None:
            _absorb_pruner(registry, pruner, query=_op_kind(op), role="primary")
        return RunResult(
            query=query.describe(),
            output=output,
            phases=[phase],
            used_cheetah=use_cheetah,
            workers=self.workers,
            op_kind=_op_kind(op),
            metrics=registry,
        )


def _record_worker_volume(
    registry: MetricsRegistry,
    phase: str,
    worker: int,
    streamed: int,
    forwarded: int,
) -> None:
    """Account one worker's share of a phase's traffic."""
    registry.counter(
        "worker_entries_streamed_total",
        "Entries streamed by each worker per phase.",
        worker=worker,
        phase=phase,
    ).inc(streamed)
    registry.counter(
        "worker_entries_forwarded_total",
        "Entries forwarded by each worker per phase.",
        worker=worker,
        phase=phase,
    ).inc(forwarded)


def _record_phase(registry: MetricsRegistry, phase: PhaseVolume) -> None:
    """Mirror a phase's final traffic volumes into registry counters."""
    registry.counter(
        "phase_entries_streamed_total",
        "Entries streamed in each phase.",
        phase=phase.name,
    ).inc(phase.streamed)
    registry.counter(
        "phase_entries_forwarded_total",
        "Entries forwarded in each phase.",
        phase=phase.name,
    ).inc(phase.forwarded)


def _absorb_pruner(
    registry: MetricsRegistry, pruner: Pruner, **labels: object
) -> None:
    """Refresh a pruner's health gauges, then fold its registry in."""
    pruner.observe_health()
    registry.absorb(pruner.metrics, **labels)


def _op_kind(op) -> str:
    """Short operator-kind tag used by the cost model."""
    mapping = {
        CountOp: "filter",
        FilterOp: "filter",
        DistinctOp: "distinct",
        TopNOp: "topn",
        GroupByOp: "groupby",
        HavingOp: "having",
        JoinOp: "join",
        SkylineOp: "skyline",
    }
    return mapping[type(op)]
