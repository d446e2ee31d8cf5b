"""Replicated DynamicC: tenant replicas, lagging reads, compaction.

One durable ``Service`` ingests a dynamic workload into a tenant in
bursts while two read replicas — attached with ``add_replica()``, the
one replication path — tail the shared operation log. Along the way:
explicit lag before/after each catch-up, membership equality after
catch-up, and — after the log has been compacted — a late replica that
bootstraps from the tenant's newest checkpoint and is shipped only the
suffix:

    python examples/replicated_service.py

Follower→primary failover is a ``ReadReplica.promote()`` on a durable
follower, or the cross-process ``python -m repro.replica.follower``
daemon; ``tests/test_chaos.py`` drills both.
"""

import pathlib
import tempfile

from repro.clustering.objectives import DBIndexObjective
from repro.core import DynamicC
from repro.data.generators import generate_access
from repro.data.workload import OperationMix, build_workload
from repro.serve import Service

# ---------------------------------------------------------------------------
# 1. A workload, an engine factory, a durable service with two replicas.
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
print(f"workload: {len(events)} events")

def factory():
    return DynamicC(dataset.graph(), DBIndexObjective(), seed=0)

state_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-replica-"))
service = Service.open(
    engine_factory=factory,
    n_shards=2,
    batch_max_ops=48,
    train_rounds=2,
    root_dir=state_dir,
)
tenant = service.tenant("access")
replicas = [tenant.add_replica(name="r0"), tenant.add_replica(name="r1")]

# ---------------------------------------------------------------------------
# 2. Ingest in bursts; replicas answer (stale) reads and catch up on
#    every sync().
# ---------------------------------------------------------------------------
burst = len(events) // 4
for start in range(0, len(events), burst):
    tenant.ingest(events[start : start + burst])
    # Two views of lag: the shipper knows how far each follower's cursor
    # trails the log; lag() is each replica's own (last-heard) view.
    behind = [s["behind"] for s in service.stats()["shipping"]]
    service.sync()
    after = [(r.name, r.lag()["seq_delta"]) for r in replicas]
    print(f"burst at {start:4d}: followers behind by {behind} ops -> after sync {after}")

tenant.flush()
service.sync()

# Membership equality after catch-up. Cluster ids are replica-relative,
# so a compound query (id -> cluster -> members) resolves on ONE node.
assert all(r.partition() == tenant.partition() for r in replicas)
some_id = min(obj_id for members in tenant.partition() for obj_id in members)
reader = replicas[0]
peers = reader.members(reader.cluster_of(some_id))
print(
    f"caught up: {tenant.num_objects()} objects on all nodes; object {some_id} "
    f"has {len(peers)} cluster peers (served by {reader.name})"
)

# ---------------------------------------------------------------------------
# 3. Compaction, then a late joiner: checkpoint the tenant, truncate the
#    shared log to the safe floor (oldest retained checkpoint, every
#    replica cursor), and attach a new replica. It bootstraps from the
#    tenant's newest checkpoint and is shipped only the suffix.
# ---------------------------------------------------------------------------
service.checkpoint()
checkpoint_seq = service.manager.activate("access").service.applied_seq
report = service.compact()
print(
    f"compaction: log truncated through seq {report['truncated_through']}, "
    f"{report['reclaimed_bytes']} bytes reclaimed, {report['log_bytes']} left"
)

late_updates = [("update", some_id, dataset.records[0].payload)]
tenant.ingest(late_updates)
tenant.flush()
joiner = tenant.add_replica(name="late-joiner")
assert joiner.received_seq == checkpoint_seq  # seeded by the checkpoint
service.sync()
assert joiner.partition() == tenant.partition()
print(
    f"late joiner: bootstrapped from the checkpoint at seq {checkpoint_seq}, "
    f"then {joiner.segments_applied} shipped segment(s); lag "
    f"{joiner.lag()['seq_delta']} — partition equal to the tenant's"
)
service.close()
