"""Streaming service throughput — events/sec at shards ∈ {1, 2, 4}.

Not a paper figure: this benchmarks the `repro.stream` serving layer on
the synthetic Access workload so future scaling PRs (async ingest,
replication, cheaper graph maintenance) have a perf trajectory to beat.
Emits a table plus ``benchmarks/results/stream_throughput.json``.

Sharding helps twice: rounds on an N-times-smaller graph are cheaper
than 1/N of one big round (graph maintenance and candidate scoring are
super-linear), and shards are independent, so a future async layer can
run them concurrently — the wall-clock numbers here are single-threaded
lower bounds.

The headline rows run the serving configuration: the ``least-loaded``
router with placement chunks aligned to the micro-batch (one batch of
new objects wakes one engine, not all N) and continuous retraining
(``retrain_every``) so serve-time rejections actually reach the models —
without it a shard whose model over-predicts merges re-verifies and
re-rejects the same candidates every round, forever. A ``hash``-router
comparison block is recorded alongside: its N=2 pathology (the dense
similarity component concentrates on one shard, and per-round cost
grows super-linearly with component size) is what the balance-aware
router exists to fix.
"""

from __future__ import annotations

import json
import time

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC, DynamicCConfig
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.eval import render_table
from repro.stream import ClusteringService, StreamConfig

from conftest import RESULTS_DIR

SHARD_COUNTS = (1, 2, 4)
RETRAIN_EVERY = 4
#: Measured passes per configuration; the fastest is reported. The
#: engines are deterministic, so repeated passes differ only by host
#: noise — best-of-N keeps the recorded trajectory comparable across
#: runs.
PASSES = 2


def _run_once(factory, events, n_shards: int, router: str):
    service = ClusteringService(
        factory,
        StreamConfig(
            n_shards=n_shards, batch_max_ops=64, train_rounds=2, router=router
        ),
    )
    start = time.perf_counter()
    service.ingest(events)
    service.flush()
    wall = time.perf_counter() - start
    stats = service.stats()
    assert stats["applied_seq"] == len(events)
    assert stats["backlog"] == 0
    return wall, stats


def _run(factory, events, n_shards: int, router: str) -> dict:
    wall, stats = min(
        (_run_once(factory, events, n_shards, router) for _ in range(PASSES)),
        key=lambda pair: pair[0],
    )
    return {
        "n_shards": n_shards,
        "router": router,
        "events": len(events),
        "wall_s": wall,
        "events_per_s_wall": len(events) / wall,
        "events_per_s_busy": stats["throughput_events_per_s"],
        "batches": stats["batches_applied"],
        # Percentiles ride along free now that LatencyStat is
        # histogram-backed: p50/p95/p99 of per-batch apply latency.
        "batch_latency": stats["batch_latency"],
        "round_latency": [
            shard["round_latency"] for shard in stats["shards"]
        ],
        "clusters": stats["num_clusters"],
        "objects": stats["num_objects"],
        "shard_objects": [shard["objects"] for shard in stats["shards"]],
    }


def test_stream_throughput(emit):
    dataset = generate_access(n_profiles=10, n_records=700, seed=9)
    workload = build_workload(
        dataset,
        initial_count=250,
        n_snapshots=8,
        mixes=OperationMix(add=0.12, remove=0.03, update=0.03),
        seed=4,
    )
    events = workload.event_stream()

    def factory():
        return DynamicC(
            dataset.graph(),
            DBIndexObjective(),
            seed=0,
            config=DynamicCConfig(retrain_every=RETRAIN_EVERY),
        )

    results = [_run(factory, events, n, "least-loaded") for n in SHARD_COUNTS]
    hash_results = [_run(factory, events, n, "hash") for n in SHARD_COUNTS]

    emit(
        render_table(
            [
                "router", "shards", "events", "wall s", "ev/s (wall)",
                "ev/s (busy)", "batch p95 ms", "clusters",
            ],
            [
                [
                    r["router"],
                    r["n_shards"],
                    r["events"],
                    r["wall_s"],
                    r["events_per_s_wall"],
                    r["events_per_s_busy"],
                    r["batch_latency"]["p95_s"] * 1e3,
                    r["clusters"],
                ]
                for r in results + hash_results
            ],
            title="\n== repro.stream ingest throughput on Access (single-threaded) ==",
            precision=1,
        )
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "stream_throughput.json", "w") as handle:
        json.dump(
            {
                "workload": "access",
                "engine": {"retrain_every": RETRAIN_EVERY},
                "results": results,
                "hash_router_comparison": hash_results,
            },
            handle,
            indent=2,
        )
        handle.write("\n")

    # Sanity floor only — absolute and comparative numbers are too
    # machine/noise-dependent to gate CI on; the trajectory lives in
    # the JSON artefact.
    for r in results + hash_results:
        assert r["events_per_s_wall"] > 0
