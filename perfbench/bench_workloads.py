"""The benchmark's workloads: generated inputs and the closed-loop client.

A workload is generated from a seed into a :class:`Plan` before any
timing starts: per tenant an initial bulk load, the training rounds and
the final live payloads, plus one ordered list of requests (writes,
reads, replica syncs and checkpoint+compact maintenance). The service
sees only those operations.

One *episode* opens a fresh :class:`repro.serve.Service`, sets it up
(open, bulk load, training rounds, model fit), drives the request list
through one client in a closed loop (each request starts when the
previous one returned), then checks the outputs. Every episode of a
plan is the same fixed amount of work, so the oplog and each tenant's
state grow by the same amount however fast the program is.
"""

from __future__ import annotations

import functools
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.data.workload import zipf_weights

from bench_checks import (
    check_accounting,
    check_partition,
    check_same_partitions,
    check_write_visible,
)
from bench_host import probe_s
from bench_trace import LayerTracer

#: Ids looked up by one read request (then the members of the first
#: id's cluster are fetched).
READ_IDS = 3
#: Write requests per run: every latency percentile of a run is taken
#: over at least this many samples, ten of them beyond p90.
MIN_WRITES = 110
#: Observe rounds before the model fit; the bulk load is the first
#: (``DBINDEX_TRAIN_ROUNDS``/``DBSCAN_TRAIN_ROUNDS`` of the repository's
#: experiment harness, ``benchmarks/_config.py``).
TRAIN_ROUNDS = 3
#: Zipf exponent of write traffic over tenants.
TENANT_SKEW = 1.1


@dataclass(frozen=True)
class Spec:
    """Everything that defines one workload, at one size.

    The data shapes, bulk-load sizes, round counts and operation mixes
    are those of the repository's experiment harness
    (``benchmarks/_config.py``): ``linkage-febrl`` is its DB-index
    "synthetic" Febrl experiment, ``iot-road`` and ``tenant-churn`` its
    dynamic-DBSCAN Road experiment (Figs. 5(b)/5(c)), one copy per
    tenant.
    """

    name: str
    dataset: str  # "febrl" or "road"
    n_tenants: int
    initial: int  # objects per tenant in the bulk load
    rounds: int  # snapshots of the hottest tenant, training rounds included
    add: float
    remove: float
    update: float
    #: Dataset shape: Febrl originals/duplicates, or roads/points per road.
    shape: tuple[int, int] = (0, 0)
    #: Generator seed of the harness's dataset; tenant ``i`` uses
    #: ``data_seed + i``.
    data_seed: int = 0
    #: Dynamic DBSCAN similarity threshold and core-point size (Road).
    sim_eps: float = 0.0
    min_pts: int = 0
    reads: str = "own"  # "own": read-your-writes; "uniform": any tenant
    durable: bool = False
    max_resident_tenants: int | None = None
    replica: bool = False
    sync_every: int = 0
    maintain_every: int = 0


def _scaled(value: int, scale: float) -> int:
    # The harness's own size knob (``REPRO_BENCH_SCALE``): counts of
    # entities, records and roads scale, shapes and mixes do not.
    return max(int(round(value * scale)), 1)


def _febrl(scale: float) -> dict:
    """``DBINDEX_DATASETS["synthetic"]`` of ``benchmarks/_config.py``."""
    return dict(
        dataset="febrl",
        shape=(_scaled(150, scale), _scaled(350, scale)),
        data_seed=103,
        initial=_scaled(180, scale),
        rounds=8,
        add=0.12,
        remove=0.02,
        update=0.06,
    )


def _road(scale: float) -> dict:
    """``DBSCAN_ROAD`` of ``benchmarks/_config.py``."""
    return dict(
        dataset="road",
        shape=(_scaled(45, scale), 60),
        data_seed=106,
        sim_eps=0.37,
        min_pts=3,
        initial=_scaled(900, scale),
        rounds=10,
        add=0.13,
        remove=0.02,
        update=0.02,
    )


#: Harness scale of every workload (README.md gives the measured cost
#: at scale 1 that rules it out).
SCALE = 0.25

SPECS: dict[str, Spec] = {
    "linkage-febrl": Spec(
        name="linkage-febrl", n_tenants=1, **_febrl(SCALE)
    ),
    "iot-road": Spec(
        name="iot-road",
        n_tenants=4,
        durable=True,
        replica=True,
        sync_every=2,
        maintain_every=8,
        **_road(SCALE),
    ),
    "tenant-churn": Spec(
        name="tenant-churn",
        n_tenants=12,
        reads="uniform",
        durable=True,
        max_resident_tenants=3,
        **_road(SCALE),
    ),
}


def tiny(spec: Spec) -> Spec:
    """The same workload shrunk to run in about a second (tests, warm-up)."""
    return replace(
        spec,
        initial=max(30, spec.initial // 4),
        rounds=TRAIN_ROUNDS + 3,
        sync_every=min(spec.sync_every, 2),
        maintain_every=min(spec.maintain_every, 2),
    )


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------
@dataclass
class Write:
    tenant: str
    ops: list[tuple]
    written: list[int]  # added or updated ids
    removed: list[int]


@dataclass
class Read:
    tenant: str
    ids: list[int]


@dataclass
class TenantPlan:
    name: str
    initial: list[tuple]
    training: list[Write]
    final: dict[int, Any]  # live payloads after the whole plan


@dataclass
class Plan:
    spec: Spec
    tenants: list[TenantPlan]
    requests: list[tuple[str, Any]]  # ("write"|"read"|"sync"|"maintain", arg)
    hot: str  # the tenant with the most writes (carries the replica)
    similarity_cls: type
    graph: Callable[[], Any]  # a fresh, empty similarity graph


@functools.lru_cache(maxsize=None)
def _dataset(spec: Spec, tenant: int):
    """Tenant ``tenant``'s dataset, fixed as a real dataset is.

    Its records arrive in the generator's order, as in the harness; the
    run's seed draws the removals, the updates, the order of requests
    and the ids each read looks up.
    """
    from repro.data.generators import generate_febrl, generate_road

    first, second = spec.shape
    seed = spec.data_seed + tenant
    if spec.dataset == "febrl":
        return generate_febrl(
            n_originals=first, n_duplicates=second, distribution="zipf", seed=seed
        )
    return generate_road(n_roads=first, points_per_road=second, seed=seed)


def tenant_rounds(spec: Spec) -> list[int]:
    """Measured write rounds per tenant, hottest first.

    The hottest tenant gets the harness's round count; the others get
    their Zipf share of it relative to the hottest, at least one each.
    """
    measured = spec.rounds - (TRAIN_ROUNDS - 1)
    weights = zipf_weights(spec.n_tenants, TENANT_SKEW)
    return [max(1, round(measured * w / weights[0])) for w in weights]


def _write(tenant: str, snapshot) -> Write:
    return Write(
        tenant=tenant,
        ops=[(op.kind, op.obj_id, op.payload) for op in snapshot.as_operations()],
        written=sorted(set(snapshot.added) | set(snapshot.updated)),
        removed=list(snapshot.removed),
    )


def plan_count(spec: Spec) -> int:
    """The fewest plans that reach ``MIN_WRITES`` write requests."""
    return -(-MIN_WRITES // sum(tenant_rounds(spec)))


def make_plans(spec: Spec, seed: int, count: int) -> list[Plan]:
    """The run's plans: ``count`` independent draws from ``seed``."""
    return [make_plan(spec, seed * 1000 + index) for index in range(count)]


def make_plan(spec: Spec, seed: int) -> Plan:
    """Generate the whole workload from ``seed`` (same seed, same plan)."""
    from repro.data.workload import OperationMix, build_workload

    rng = np.random.default_rng(seed)
    names = [f"t{index:02d}" for index in range(spec.n_tenants)]
    # Zipf-skewed traffic with fixed per-tenant round counts, in a
    # seeded order: the hottest tenant's share of the writes is the same
    # in every plan, so it does not move the tail latency from one seed
    # to the next.
    per_tenant = tenant_rounds(spec)
    order = rng.permutation(np.repeat(np.arange(spec.n_tenants), per_tenant))
    mix = OperationMix(add=spec.add, remove=spec.remove, update=spec.update)
    training_rounds = TRAIN_ROUNDS - 1
    snapshots: dict[str, list] = {}
    tenants: list[TenantPlan] = []
    live: dict[str, set[int]] = {}
    dataset = None
    for index, name in enumerate(names):
        rounds = training_rounds + per_tenant[index]
        dataset = _dataset(spec, index)
        workload = build_workload(
            dataset,
            initial_count=spec.initial,
            n_snapshots=rounds,
            mixes=mix,
            seed=seed * 1000 + index + 500,
        )
        final = dict(workload.initial)
        for snapshot in workload.snapshots:
            for obj_id in snapshot.removed:
                del final[obj_id]
            final.update(snapshot.updated)
            final.update(snapshot.added)
        tenants.append(
            TenantPlan(
                name=name,
                initial=[("add", obj_id, payload) for obj_id, payload in workload.initial.items()],
                training=[_write(name, s) for s in workload.snapshots[:training_rounds]],
                final=final,
            )
        )
        snapshots[name] = list(workload.snapshots[training_rounds:])
        live[name] = workload.live_ids_after(training_rounds)

    requests: list[tuple[str, Any]] = []
    cursor = {name: 0 for name in names}
    for count, tenant_index in enumerate(order, start=1):
        name = names[tenant_index]
        snapshot = snapshots[name][cursor[name]]
        cursor[name] += 1
        write = _write(name, snapshot)
        live[name] -= set(snapshot.removed)
        live[name] |= set(snapshot.added)
        requests.append(("write", write))
        if spec.reads == "own":
            target = name
            ids = write.written[:READ_IDS]
        else:
            target = names[int(rng.integers(spec.n_tenants))]
            ids = []
        if len(ids) < READ_IDS:
            pool = sorted(live[target] - set(ids))
            extra = rng.choice(len(pool), size=min(READ_IDS - len(ids), len(pool)), replace=False)
            ids = ids + [pool[int(i)] for i in extra]
        requests.append(("read", Read(target, ids)))
        if spec.sync_every and count % spec.sync_every == 0:
            requests.append(("sync", None))
        if spec.maintain_every and count % spec.maintain_every == 0:
            requests.append(("maintain", None))
    for name, tenant in zip(names, tenants):
        if live[name] != set(tenant.final):
            raise RuntimeError(f"plan for {name} tracks a different live set")
    hot = names[0]
    return Plan(
        spec=spec,
        tenants=tenants,
        requests=requests,
        hot=hot,
        similarity_cls=type(dataset.similarity),
        graph=dataset.graph,
    )


# ----------------------------------------------------------------------
# Engines and the batch reference
# ----------------------------------------------------------------------
def engine_factory(plan: Plan) -> Callable[[], Any]:
    """The zero-argument engine factory every tenant shard is built by."""
    from repro.clustering.objectives import DBIndexObjective
    from repro.core import DynamicC, make_dynamic_dbscan

    spec, graph = plan.spec, plan.graph
    if spec.dataset == "febrl":
        return lambda: DynamicC(graph(), DBIndexObjective(), seed=0)
    return lambda: make_dynamic_dbscan(graph(), spec.sim_eps, spec.min_pts, seed=0)


def batch_partition(plan: Plan, payloads: dict[int, Any]) -> frozenset:
    """The batch algorithm run from scratch on ``payloads``."""
    from repro.clustering.batch import DBSCAN, HillClimbing
    from repro.clustering.objectives import DBIndexObjective

    graph = plan.graph()
    graph.add_objects(payloads)
    if plan.spec.dataset == "febrl":
        clustering = HillClimbing(DBIndexObjective()).cluster(graph)
    else:
        clustering = DBSCAN(plan.spec.sim_eps, plan.spec.min_pts).run(graph).clustering
    return clustering.as_partition()


# ----------------------------------------------------------------------
# One episode
# ----------------------------------------------------------------------
@dataclass
class Episode:
    write_ops: int = 0  # ops accepted by measured writes
    accepted: int = 0
    refused: int = 0
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    f1: dict[str, float] | None = None
    clusters: dict[str, int] = field(default_factory=dict)
    #: Times of the host-speed probe, taken between timed segments
    #: (untimed), in order.
    probe_s: list[float] = field(default_factory=list)
    #: Every timed segment as ``(kind, seconds, probe)``: ``kind`` is
    #: "setup" or the request's kind, and the segment ran between probes
    #: ``probe`` and ``probe + 1``. A read shares its write's probes.
    timeline: list[tuple[str, float, int]] = field(default_factory=list)


def _serve_kwargs(spec: Spec, root) -> dict:
    kwargs = dict(
        n_shards=1,
        # Each write request is exactly one round: flush cuts it, the
        # count trigger never fires.
        batch_max_ops=1 << 20,
        train_rounds=TRAIN_ROUNDS,
    )
    if root is not None:
        kwargs["root_dir"] = root
    if spec.max_resident_tenants is not None:
        kwargs["max_resident_tenants"] = spec.max_resident_tenants
    return kwargs


def run_episode(
    plan: Plan, workdir, tracer=None, f1: bool = False, recovery: bool = True
) -> Episode:
    """Set up, drive the plan, check outputs; ``workdir`` holds durable state.

    ``f1`` adds the quality measurement and ``recovery`` the reopen
    check. The host-speed probe runs, untimed, before every timed
    segment but reads and after the last one (``Episode.timeline``).
    """
    from repro.errors import DegradedError, QuotaExceeded
    from repro.serve import Service

    spec = plan.spec
    root = workdir if spec.durable else None
    if root is not None and root.exists():
        shutil.rmtree(root)
    factory = engine_factory(plan)
    kwargs = _serve_kwargs(spec, root)
    episode = Episode()
    # An uninstalled tracer makes pause/resume no-ops.
    tracer = tracer if tracer is not None else LayerTracer()
    pause, resume = tracer.pause, tracer.resume

    def ingest(handle, ops) -> bool:
        episode.attempted += len(ops)
        try:
            episode.accepted += handle.ingest(ops)
            handle.flush()
        except (QuotaExceeded, DegradedError):
            episode.refused += len(ops)
            return False
        return True

    def read(handle, ids):
        found = [handle.cluster_of(obj_id) for obj_id in ids]
        return found, handle.members(found[0]) if found[0] else frozenset()

    def timed(kind, call):
        """Run one segment with the tracer on and log its time."""
        if kind != "read":
            # Each read follows its write directly, as a client's
            # read-your-writes does, so the two share the probes around
            # them.
            episode.probe_s.append(probe_s())
        resume()
        try:
            begin = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - begin
        finally:
            pause()
        episode.timeline.append((kind, elapsed, len(episode.probe_s) - 1))
        return result

    def load(tenant):
        handle = service.tenant(tenant.name)
        ingest(handle, tenant.initial)
        for write in tenant.training:
            ingest(handle, write.ops)

    def start_replica():
        replica = service.tenant(plan.hot).add_replica()
        service.sync()
        return replica

    # Set-up runs as one segment per tenant, then the replica's, so the
    # probes between them follow the host's speed.
    service = timed("setup", lambda: Service.open(engine_factory=factory, **kwargs))
    try:
        for tenant in plan.tenants:
            timed("setup", lambda: load(tenant))
        replica = timed("setup", start_replica) if spec.replica else None

        for kind, arg in plan.requests:
            if kind == "write":
                handle = service.tenant(arg.tenant)
                before = episode.accepted
                ok = timed(kind, lambda: ingest(handle, arg.ops))
                episode.write_ops += episode.accepted - before
                if ok:
                    episode.errors += check_write_visible(
                        arg.tenant, handle.cluster_of, arg.written, arg.removed
                    )
            elif kind == "read":
                handle = service.tenant(arg.tenant)
                found, members = timed(kind, lambda: read(handle, arg.ids))
                if None in found or arg.ids[0] not in members:
                    episode.errors.append(
                        f"{arg.tenant}: read of live ids {arg.ids} got {found}"
                    )
            elif kind == "sync":
                timed(kind, service.sync)
            else:  # maintain
                timed(kind, lambda: (service.checkpoint(), service.compact()))
        episode.probe_s.append(probe_s())

        # -- output checks (untimed, untraced) --------------------------
        live = {}
        for tenant in plan.tenants:
            live[tenant.name] = service.tenant(tenant.name).partition()
            episode.errors += check_partition(
                tenant.name, live[tenant.name], set(tenant.final)
            )
            episode.clusters[tenant.name] = len(live[tenant.name])
        episode.errors += check_accounting(
            episode.accepted, episode.refused, episode.attempted
        )
        if replica is not None:
            service.sync()
            episode.errors += check_same_partitions(
                "replica", {plan.hot: live[plan.hot]}, {plan.hot: replica.partition()}
            )
        if f1:
            from repro.eval.pair_metrics import pair_f1

            episode.f1 = {
                tenant.name: pair_f1(live[tenant.name], batch_partition(plan, tenant.final))
                for tenant in plan.tenants
            }
    finally:
        pause()
        service.close()
    if root is not None and recovery:
        reopened = Service.open(engine_factory=factory, **kwargs)
        try:
            recovered = {
                tenant.name: reopened.tenant(tenant.name).partition()
                for tenant in plan.tenants
            }
        finally:
            reopened.close()
        episode.errors += check_same_partitions("recovered", live, recovered)
    if root is not None:
        shutil.rmtree(root)
    return episode
