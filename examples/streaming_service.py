"""Serving DynamicC as a durable, sharded streaming service.

Ingests a dynamic workload as an event stream, queries memberships,
takes a checkpoint, simulates a crash, and recovers:

    python examples/streaming_service.py
"""

import pathlib
import tempfile

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.stream import ClusteringService, StreamConfig

# ---------------------------------------------------------------------------
# 1. A workload, an engine factory, a durable two-shard service.
# ---------------------------------------------------------------------------
dataset = generate_access(n_profiles=8, n_records=500, seed=3)
workload = build_workload(
    dataset,
    initial_count=150,
    n_snapshots=8,
    mixes=OperationMix(add=0.14, remove=0.03, update=0.04),
    seed=2,
)
events = workload.event_stream()
print(f"workload: {len(workload.initial)} initial records, {len(events)} events total")


def factory():
    return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)


state_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-stream-"))
config = StreamConfig(
    n_shards=2,
    batch_max_ops=48,
    train_rounds=2,
    oplog_path=state_dir / "oplog.jsonl",
    checkpoint_dir=state_dir / "checkpoints",
)
service = ClusteringService(factory, config)

# ---------------------------------------------------------------------------
# 2. Ingest most of the stream; each shard observes its first rounds with
#    the batch algorithm, trains, then serves predictions.
# ---------------------------------------------------------------------------
cut = (len(events) * 2) // 3
service.ingest(events[:cut])
service.checkpoint()  # snapshot all shard state, compact the oplog
service.ingest(events[cut : cut + 50])

stats = service.stats()
print(
    f"ingested {stats['ops_total']} events in {stats['batches_applied']} rounds, "
    f"{stats['num_objects']} live objects in {stats['num_clusters']} clusters"
)
print(
    "per-shard (observed, predicted, mean round ms):",
    [
        (s["rounds_observed"], s["rounds_predicted"], round(s["round_latency"]["mean_s"] * 1e3, 1))
        for s in stats["shards"]
    ],
)

# ---------------------------------------------------------------------------
# 3. Crash. Only the oplog and the checkpoint survive.
# ---------------------------------------------------------------------------
service.close()
del service
print("crash! recovering from", state_dir)

service = ClusteringService.recover(factory, config)
service.ingest(events[cut + 50 :])
service.flush()

some_id = sorted(service.membership.live_ids())[0]
gcid = service.cluster_of(some_id)
print(f"recovered: object {some_id} lives in cluster {gcid} with {len(service.members(gcid))} members")
print(f"final: {service.num_objects()} objects, {len(service.clusters())} clusters, "
      f"throughput {service.stats()['throughput_events_per_s']:.0f} events/s")
