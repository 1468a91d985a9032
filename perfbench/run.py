"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload olap-bigdata --seed 1 --seconds 50 --trace 0

Workloads (the reason for each is in its module and in BENCHMARK.json):

* ``olap-bigdata`` (:mod:`olap`): the seven Appendix B queries, TPC-H
  Q3's join and a four-query packed pass, closed loop.
* ``fleet-hot-update`` (:mod:`fleet_hot`): a hot dashboard catalog
  through ``FleetController`` while a writer rolls table updates.

Every workload reports every end-to-end metric.  The ``<item>_x``
metrics are medians of per-pair Cheetah/reference wall-time ratios: on
``olap-bigdata`` they are the workload; on ``fleet-hot-update`` a
quiet phase after the traffic measures them at the workload's own table
sizes.  A ratio cancels the host's speed, which drifts by a quarter
within tens of seconds; absolute latency and goodput follow it (over
ten seeds their quartiles spread by up to 0.29 of the median on
olap-bigdata and 0.35 on fleet-hot-update, against a bound of 0.25), so
they are the per-layer ``harness.latency_*`` and ``harness.goodput_qps``,
timed from each request's due time (closed loop: from issue).  ``answered_fraction`` is the share of attempted operations
answered correctly; sheds, errors, wrong answers and leaked
shared-memory segments all count against it.  Leaks are counted after
the workload is torn down and the shard pools have exited, and before
the shared-memory resource tracker stops (stopping it unlinks whatever
is still registered).  ``peak_rss_mb`` is the highest summed
proportional set size of this process and its children, sampled every
1 s from before the data is generated until the last set-up ends.

``--trace 0`` measures with tracing off and prints the end-to-end
metrics.  ``--trace 1`` measures half the time untraced and half traced,
prints the per-layer metrics (per-layer self time included), reports as
``harness.trace_overhead`` how much the geometric mean of the nine
ratios grew from the untraced half to the traced one, and writes the
spans to ``perfbench/out/trace-<workload>-<seed>.jsonl``.

Set-up (building the cluster or fleet, pool spawn, resident export, and
one warm-up pass per plan kind) runs four times before the measurement
and four times after it, and ``setup_s`` is the median of the eight: the
host's speed drifts over tens of seconds, and set-ups taken at both ends
of a run sample two of its states.  Each set-up starts with the switch
compiler's caches cleared; the shard process pool is forked once per
process, so only the first set-up pays for it.  Data generation,
reference answers and, on ``fleet-hot-update``, the sequential cluster
of the paired rounds are not part of set-up.  After set-up the surviving
objects are frozen out of the garbage collector's generations, and every
measured pair starts after a collection.

The last line of standard output is the JSON result; everything above
it is a human-readable account of the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-ups timed before the measurement, and again after it.
SETUPS = 4


def _import_program():
    """Put the checkout's ``src`` on the path; exit 2 without it."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program from {os.path.join(ROOT, 'src')}: {error}", file=sys.stderr)
        sys.exit(2)


def _workloads() -> dict:
    import fleet_hot
    import olap

    return {module.Workload.name: module for module in (olap, fleet_hot)}


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _clear_compile_caches() -> None:
    from repro.switch.compiler import clear_compile_cache
    from repro.switch.fuse import clear_fused_cache

    clear_compile_cache()
    clear_fused_cache()


def _stop_pools() -> None:
    """Shut down every shard process pool and wait for its processes."""
    from repro.parallel.runner import _POOLS

    for pool in list(_POOLS.values()):
        pool.shutdown(wait=True)
    _POOLS.clear()


def _stop_tracker() -> None:
    """Stop the shared-memory resource tracker and wait for it.

    The tracker unlinks every segment still registered when it stops,
    so leaks must be counted before this runs.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    spec = _benchmark_spec()
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from harness import MemorySampler, NullTracer, Tracer, host_probe_ms, shm_segments

    probe_before = host_probe_ms()
    segments_before = shm_segments()
    memory = MemorySampler().start()
    workload = workloads[args.workload].Workload(args.seed)

    setup_times = []

    def set_up() -> None:
        _clear_compile_caches()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    for attempt in range(SETUPS):
        if attempt:
            workload.teardown()
        set_up()

    # Long-lived objects (tables, modules, the set-up) move out of the
    # collector's reach, so its pauses depend on the measured work only.
    gc.collect()
    gc.freeze()
    tracer = None
    try:
        if args.trace:
            untraced = workload.measure(args.seconds / 2, NullTracer())
            tracer = Tracer()
            outcome = workload.measure(args.seconds / 2, tracer)
        else:
            outcome = workload.measure(args.seconds, NullTracer())
        for _ in range(SETUPS):
            workload.teardown()
            set_up()
    finally:
        peak_mb = memory.stop()
        workload.teardown()
        _stop_pools()
        leaked = len(shm_segments() - segments_before)
        _stop_tracker()
    probe_after = host_probe_ms()

    from harness import median

    attempted = outcome["attempted"]
    failed = outcome["failed"] + leaked
    if args.trace:
        attempted += untraced["attempted"]
        failed += untraced["failed"]
    e2e = dict(outcome["e2e"])
    e2e["answered_fraction"] = ((attempted - failed) / max(1, attempted), "fraction")
    e2e["setup_s"] = (median(setup_times), "s")
    e2e["peak_rss_mb"] = (peak_mb, "MB")

    for note in outcome["notes"]:
        print(note)
    print(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setup_times)}")
    print(f"host probe: {probe_before:.2f} ms before, {probe_after:.2f} ms after")
    print(f"leaked shared-memory segments: {leaked}")

    if args.trace:
        layers = dict(outcome["layers"])
        layers["parallel.leaked_segments"] = (float(leaked), "count")
        layers["harness.host_probe_ms"] = ((probe_before + probe_after) / 2, "ms")
        baseline = untraced["headline"]
        layers["harness.trace_overhead"] = (
            (outcome["headline"] - baseline) / baseline if baseline else 0.0,
            "fraction",
        )
        attempted_traced = max(1, outcome["attempted"])
        for layer, seconds in tracer.self_seconds().items():
            layers[f"self.{layer}.ms_per_op"] = (seconds * 1e3 / attempted_traced, "ms")
        path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write_jsonl(path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = e2e

    metrics = {}
    absent = []
    for entry in wanted:
        name = entry["name"]
        if name in values:
            value = values[name][0]
        else:
            value = 0.0
            absent.append(name)
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    if absent:
        print(f"not exercised by {args.workload} (reported as 0): {', '.join(absent)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": int(attempted), "failed": int(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
