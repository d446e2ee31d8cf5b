"""ReadReplica: a follower that serves reads from shipped log state.

A replica is "anything that can read the log": it bootstraps from the
latest checkpoint — its own, one handed over in-process, or a
:class:`~repro.replica.segment.SnapshotArtifact` polled off the
transport — then tails shipped
:class:`~repro.replica.segment.LogSegment` batches, persisting each to
its *own* operation log before applying it, so a durable follower is
itself recoverable and, via :meth:`promote`, a primary-in-waiting.
Because snapshots arrive over the same channel as segments, a follower
given nothing but a transport (a mailbox spool directory, say) is
fully self-contained: it never reads the primary's checkpoint or log
directories, and it can join a primary whose log was compacted long
before the follower existed.

Applying reuses :meth:`ClusteringService.apply_logged
<repro.stream.service.ClusteringService.apply_logged>`, the same code
path crash recovery replays through — which is exactly why a caught-up
follower reproduces the primary's partition *identically* (frozenset
equality), not approximately: same log, same round cuts, same
deterministic engines.

Consumption is gap-refusing and duplicate-tolerant: a segment that
skips past ``received_seq + 1`` raises
:class:`~repro.replica.segment.ReplicationGap` (stale-but-consistent
beats divergent), while an already-seen segment (at-least-once
transport redelivery) is dropped and a partially-overlapping one is
sliced to its new suffix. A gap inside one :meth:`poll` is held open
rather than raised immediately — a snapshot later in the same drain
re-syncs past it; only a gap no polled snapshot healed escapes.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable

from repro.faults.inject import fire
from repro.obs.health import check_replica_lag
from repro.obs.telemetry import make_telemetry
from repro.stream.checkpoint import open_checkpoints
from repro.stream.service import (
    ClusteringService,
    StreamConfig,
    _internal_construction,
)
from repro.stream.shard import EngineFactory

from .segment import LogSegment, ReplicationGap, SnapshotArtifact
from .transport import Transport


class ReadReplica:
    """A read-serving follower fed by shipped log segments.

    Parameters
    ----------
    engine_factory:
        The same deterministic factory the primary uses — a must, or
        replayed rounds diverge.
    config:
        The replica's own :class:`~repro.stream.service.StreamConfig`.
        Round-cut parameters must match the primary's; ``oplog_path`` /
        ``checkpoint_dir`` name the *replica's* durable state (may be
        ``None`` for a disposable in-memory follower).
    transport:
        The channel this replica polls segments from.
    snapshot:
        Optional checkpoint state to bootstrap from when the replica
        has no durable store of its own (see :meth:`bootstrap`).
    """

    def __init__(
        self,
        engine_factory: EngineFactory,
        config: StreamConfig,
        transport: Transport,
        *,
        name: str = "replica",
        clock: Callable[[], float] = time.time,
        snapshot: dict | None = None,
        max_lag_ops: int = 10_000,
        max_staleness_s: float = 60.0,
        tenant: str | None = None,
    ) -> None:
        self.name = name
        self.transport = transport
        self.clock = clock
        self.max_lag_ops = max_lag_ops
        self.max_staleness_s = max_staleness_s
        #: Tenant filter over a shared (multi-tenant) log: when set,
        #: only operations stamped with this tenant are applied — the
        #: replica serves that namespace alone, while seq accounting
        #: still tracks the *full* shared log (gaps between this
        #: tenant's operations are other tenants' traffic, not loss).
        #: Tenant-filtered replicas must be ephemeral: a local oplog
        #: would either hold a gappy tenant-only log (unreplayable) or
        #: the full log (which a plain restart would replay unfiltered).
        self.tenant = tenant
        if tenant is not None and config.oplog_path is not None:
            raise ValueError(
                f"{name}: a tenant-filtered replica must not keep its own "
                "oplog (oplog_path=None) — it applies a filtered stream "
                "that a later unfiltered recover would contradict"
            )
        # The replica's name is the ``replica`` label on its service's
        # e2e_visibility_seconds / watermark instruments and its
        # structured-log component.
        if config.node_name != name:
            config = replace(config, node_name=name)
        if snapshot is not None and config.oplog_path is not None:
            # The local log will start right after the snapshot's seq.
            # Unless the local checkpoint store holds that snapshot,
            # any later recover-from-disk (a restart, promote()) would
            # replay a log whose prefix is nowhere and refuse the gap —
            # the replica would be durable in name only.
            raise ValueError(
                f"{name}: an in-memory-only snapshot cannot seed a replica "
                "with its own oplog; use bootstrap(), which stores the "
                "snapshot in the replica's checkpoint_dir first (required)"
            )
        # Resolve the recorder once and share the *instance* with the
        # service (it survives the service replacements apply_snapshot
        # and promote() perform, so one replica = one telemetry stream).
        obs = make_telemetry(config.telemetry)
        if obs.enabled:
            config = replace(config, telemetry=obs)
        # The recover path does all the heavy lifting: restore the
        # newest snapshot, refuse divergent round-cut parameters,
        # replay the local log suffix.
        fire("replica.bootstrap", config.oplog_path)
        with obs.span("replica.bootstrap", component=name):
            with _internal_construction():
                self.service = ClusteringService.recover(
                    engine_factory, config, snapshot=snapshot
                )
        #: Last seq this replica holds (log content, markers included).
        self.received_seq = (
            self.service.oplog.last_seq
            if self.service.oplog is not None
            else self.service.applied_seq
        )
        #: The primary's last committed seq, as of the last segment heard.
        self.primary_seq = self.received_seq
        self.last_heard_at: float | None = None
        self.segments_applied = 0
        self.duplicates_dropped = 0
        self.snapshots_applied = 0
        self.snapshots_skipped = 0
        # Process-local monotonic stamp of the last applied segment or
        # snapshot; feeds the ``applied_age_s`` gauge. Unlike
        # ``staleness_s`` (derived from the shipper's wall-clock
        # ``shipped_at``), it cannot go negative or jump under clock
        # skew between primary and replica hosts.
        self._applied_mono: float | None = None
        #: The primary's freshness watermark, as of the newest artifact
        #: heard (wall clock; ``None`` until an artifact carries one).
        self.primary_watermark_ts: float | None = None
        self._register_health()

    def _register_health(self) -> None:
        """(Re)register the replication check on the live service.

        Called at construction and after every service replacement
        (:meth:`apply_snapshot` rebuilds the service, and with it the
        health registry), so ``/readyz`` always sees replication lag.
        """
        self.service.health.register(
            "replication",
            check_replica_lag(
                self.lag,
                max_seq_delta=self.max_lag_ops,
                max_staleness_s=self.max_staleness_s,
            ),
        )

    @property
    def obs(self):
        """The live service's telemetry recorder (tracks replacements)."""
        return self.service.telemetry

    @classmethod
    def bootstrap(
        cls,
        engine_factory: EngineFactory,
        config: StreamConfig,
        transport: Transport,
        *,
        snapshot: dict | None = None,
        name: str = "replica",
        clock: Callable[[], float] = time.time,
        tenant: str | None = None,
    ) -> "ReadReplica":
        """Start a follower, seeding it from a primary's snapshot.

        A durable replica copies the snapshot into its *own* checkpoint
        store first — so it restarts (and promotes) from local state
        without needing the primary again; an ephemeral replica restores
        the snapshot directly in memory. A local snapshot newer than the
        offered one wins.
        """
        if snapshot is not None and config.oplog_path is not None and config.checkpoint_dir is None:
            raise ValueError(
                f"{name}: a snapshot-seeded replica with its own oplog also "
                "needs its own checkpoint_dir — its log starts past the "
                "snapshot, so restart/promote() without a locally stored "
                "snapshot would refuse the log gap"
            )
        if snapshot is not None and config.checkpoint_dir is not None:
            store = open_checkpoints(
                config.checkpoint_dir,
                backend=config.checkpoint_backend,
                keep=config.keep_checkpoints,
            )
            local = store.load_latest()
            if local is None or int(local["applied_seq"]) < int(snapshot["applied_seq"]):
                store.save(snapshot)
            store.close()
            snapshot = None  # recover reads the seeded store
        return cls(
            engine_factory,
            config,
            transport,
            name=name,
            clock=clock,
            snapshot=snapshot,
            tenant=tenant,
        )

    # ------------------------------------------------------------------
    # Tailing
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Drain the transport and apply; returns operations applied.

        A segment that gaps past ``received_seq`` does not abort the
        drain: the gap is held open while later artifacts are scanned,
        because a :class:`SnapshotArtifact` further down the same batch
        (the shipper publishes snapshot-then-suffix) re-syncs past it.
        Only a gap that no polled snapshot healed is raised — at which
        point the fix is a primary-side
        :meth:`~repro.replica.shipper.LogShipper.resync`, whose
        artifacts the *next* poll consumes.
        """
        with self.obs.span("replica.poll", component=self.name):
            applied = 0
            gap: ReplicationGap | None = None
            for artifact in self.transport.poll():
                if isinstance(artifact, SnapshotArtifact):
                    before = self.received_seq
                    applied += self.apply_snapshot(artifact)
                    if self.received_seq > before:
                        gap = None  # the restore jumped us past it
                    continue
                try:
                    applied += self.apply_segment(artifact)
                except ReplicationGap as exc:
                    # Segments consumed while a gap is open are lost, but
                    # they were unusable anyway; resync re-ships the whole
                    # suffix after the snapshot, so nothing is skipped.
                    gap = exc
            if gap is not None:
                raise gap
            return applied

    def apply_segment(self, segment: LogSegment) -> int:
        """Persist and apply one shipped segment; returns ops applied."""
        self.primary_seq = max(self.primary_seq, segment.primary_seq)
        if self.last_heard_at is None or segment.shipped_at > self.last_heard_at:
            self.last_heard_at = segment.shipped_at
        self._advance_watermark(segment.primary_watermark_ts)
        if segment.is_heartbeat:
            return 0
        if segment.last_seq <= self.received_seq:
            # At-least-once transports may redeliver; already applied.
            self.duplicates_dropped += 1
            return 0
        if segment.first_seq > self.received_seq + 1:
            raise ReplicationGap(
                f"{self.name} holds seq {self.received_seq} but was shipped "
                f"[{segment.first_seq}, {segment.last_seq}]; refusing to "
                "apply past a gap — re-bootstrap from a newer checkpoint"
            )
        # A partial redelivery (e.g. a segment cut just after a snapshot
        # restore) contributes only its unseen suffix.
        operations = segment.operations[self.received_seq - segment.first_seq + 1 :]
        if self.tenant is not None:
            # Shared multi-tenant log: apply only this tenant's slice.
            # Contiguity cannot be asserted on the filtered stream (the
            # holes are other tenants), so gap detection lives entirely
            # in the full-segment bounds checked above.
            operations = tuple(
                op for op in operations if op.tenant == self.tenant
            )
            with self.obs.span(
                "replica.segment.apply", component=self.name, ops=len(operations)
            ):
                self.service.apply_logged(operations, contiguous=False)
        else:
            with self.obs.span(
                "replica.segment.apply", component=self.name, ops=len(operations)
            ):
                if self.service.oplog is not None:
                    # Hard state first (the WAL rule), then derived state.
                    self.service.oplog.append_stamped(operations)
                self.service.apply_logged(operations, expect_after=self.received_seq)
        self.received_seq = segment.last_seq
        self.segments_applied += 1
        self._applied_mono = time.monotonic()
        return len(operations)

    def apply_snapshot(self, artifact: SnapshotArtifact) -> int:
        """Restore this replica from a shipped checkpoint snapshot.

        The transport-only bootstrap/re-sync path: an artifact newer
        than ``received_seq`` replaces all derived state (through the
        same :meth:`ClusteringService.recover
        <repro.stream.service.ClusteringService.recover>` path a crash
        restart uses) and jumps the cursor to its ``applied_seq``; an
        older or already-covered one is skipped. A durable replica
        stores the snapshot in its *own* checkpoint store first and
        truncates its local log through the snapshot — so a later
        restart or :meth:`promote` works from local state alone.
        Returns 0 (snapshots carry state, not operations).
        """
        self.primary_seq = max(self.primary_seq, artifact.primary_seq)
        if self.last_heard_at is None or artifact.shipped_at > self.last_heard_at:
            self.last_heard_at = artifact.shipped_at
        self._advance_watermark(artifact.primary_watermark_ts)
        if artifact.applied_seq <= self.received_seq:
            self.snapshots_skipped += 1
            return 0
        config = self.service.config
        if config.oplog_path is not None and config.checkpoint_dir is None:
            raise ValueError(
                f"{self.name}: cannot restore a shipped snapshot into a "
                "replica with an oplog but no checkpoint_dir — its log "
                "would restart past a prefix stored nowhere"
            )
        for field_name, want in config.round_cut_params().items():
            # Validate BEFORE saving or closing anything: storing a
            # divergent snapshot would poison the local store (every
            # later restart reloads it and refuses), and recover()'s own
            # check would fire only after the old service was torn down.
            have = artifact.state.get(field_name)
            if have is not None and int(have) != want:
                raise ValueError(
                    f"{self.name}: shipped snapshot has {field_name}={have}, "
                    f"this replica's config wants {want}; refusing divergent "
                    "round-cut parameters"
                )
        factory = self.service._engine_factory
        with self.obs.span(
            "replica.snapshot.apply",
            component=self.name,
            applied_seq=artifact.applied_seq,
        ):
            if self.service.checkpoints is not None:
                # Own the snapshot locally, then recover from the store —
                # the exact restart path, so a crash right after this poll
                # comes back to the same state.
                self.service.checkpoints.save(dict(artifact.state))
                self.service.close()
                with _internal_construction():
                    self.service = ClusteringService.recover(factory, config)
            else:
                self.service.close()
                with _internal_construction():
                    self.service = ClusteringService.recover(
                        factory, config, snapshot=artifact.state
                    )
            if self.service.oplog is not None:
                # The local log's pre-snapshot content is now covered (and
                # disconnected from future appends); drop it.
                self.service.oplog.truncate_through(artifact.applied_seq)
        self.received_seq = artifact.applied_seq
        self.snapshots_applied += 1
        self._applied_mono = time.monotonic()
        self._register_health()  # the restore built a fresh service
        return 0

    def _advance_watermark(self, watermark_ts: float | None) -> None:
        if watermark_ts is not None and (
            self.primary_watermark_ts is None
            or watermark_ts > self.primary_watermark_ts
        ):
            self.primary_watermark_ts = watermark_ts

    def lag(self) -> dict:
        """How far behind the primary this replica's answers are.

        ``seq_delta`` is in operations (primary's last committed seq
        minus the last seq received here); ``staleness_s`` is the
        wall-clock age of the last heard segment/heartbeat, ``None``
        until first contact. ``staleness_s`` compares this host's clock
        against the shipper's ``shipped_at`` stamp, so it is clamped to
        ``>= 0`` — skewed clocks must not report answers from the
        future. ``applied_age_s`` is the skew-immune companion: seconds
        since this process last applied a segment or snapshot, measured
        entirely on the replica's own monotonic clock (``None`` until
        something has been applied).

        The watermark trio measures *data freshness* rather than
        transport freshness: ``primary_watermark_ts`` is the newest
        primary ``ingest_ts`` this replica has heard of,
        ``applied_watermark_ts`` the newest one visible to its queries,
        and ``visibility_lag_s`` their difference — both stamps come
        from the *primary's* clock, so the subtraction is skew-free,
        and it is still clamped ``>= 0`` because an artifact race
        (snapshot stamped before a concurrent ingest) may briefly order
        them oddly. Each is ``None`` until the relevant stamp exists
        (empty log, pre-watermark log, never-polled replica).
        """
        applied_watermark = self.service.applied_watermark_ts
        visibility_lag = None
        if self.primary_watermark_ts is not None and applied_watermark is not None:
            visibility_lag = max(0.0, self.primary_watermark_ts - applied_watermark)
        return {
            "primary_watermark_ts": self.primary_watermark_ts,
            "applied_watermark_ts": applied_watermark,
            "visibility_lag_s": visibility_lag,
            "name": self.name,
            "received_seq": self.received_seq,
            "applied_seq": self.service.applied_seq,
            "primary_seq": self.primary_seq,
            "seq_delta": max(0, self.primary_seq - self.received_seq),
            "staleness_s": (
                max(0.0, self.clock() - self.last_heard_at)
                if self.last_heard_at is not None
                else None
            ),
            "applied_age_s": (
                time.monotonic() - self._applied_mono
                if self._applied_mono is not None
                else None
            ),
        }

    # ------------------------------------------------------------------
    # Reads (same query surface as a tenant handle)
    # ------------------------------------------------------------------
    def cluster_of(self, obj_id: int) -> str | None:
        return self.service.cluster_of(obj_id)

    def members(self, gcid: str) -> frozenset[int]:
        return self.service.members(gcid)

    def clusters(self) -> dict[str, frozenset[int]]:
        return self.service.clusters()

    def partition(self) -> frozenset[frozenset[int]]:
        return self.service.partition()

    def num_objects(self) -> int:
        return self.service.num_objects()

    def stats(self) -> dict:
        snapshot = self.service.stats()
        snapshot["replica"] = self.lag()
        snapshot["segments_applied"] = self.segments_applied
        snapshot["duplicates_dropped"] = self.duplicates_dropped
        snapshot["snapshots_applied"] = self.snapshots_applied
        snapshot["snapshots_skipped"] = self.snapshots_skipped
        # Spool damage the transport set aside (0 for transports that
        # never quarantine, e.g. in-process queues).
        snapshot["transport_quarantined"] = getattr(self.transport, "quarantined", 0)
        return snapshot

    def checkpoint(self):
        """Snapshot replica state and compact its local log copy.

        Keeps a long-lived durable follower's disk footprint bounded,
        independently of the primary's checkpoint cadence.
        """
        return self.service.checkpoint()

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def promote(self, config: StreamConfig | None = None) -> ClusteringService:
        """Fail over: this follower becomes a primary.

        Checkpoints local state, then rebuilds through
        :meth:`ClusteringService.recover` over the replica's own log and
        checkpoint store — the exact crash-recovery path, so the
        promoted primary's subsequent ingest matches an uninterrupted
        run's. Only a durable follower can be promoted: a primary must
        own a log for its ingest to be recoverable (and shippable to
        the remaining followers).

        ``config`` may adjust storage policy (fsync, retention) for the
        new primary; divergent round-cut parameters are refused.
        """
        current = self.service.config
        if config is None:
            config = current
        elif config.round_cut_params() != current.round_cut_params():
            raise ValueError(
                f"promotion refused: new config round-cut parameters "
                f"{config.round_cut_params()} diverge from the replicated "
                f"state's {current.round_cut_params()}"
            )
        if self.service.oplog is None:
            raise ValueError(
                f"{self.name} is ephemeral (no oplog); only a durable "
                "replica can be promoted to primary"
            )
        factory = self.service._engine_factory
        if self.service.checkpoints is not None:
            # Snapshot first so the recover below replays only the
            # (tiny) logged-but-unapplied suffix, not the whole log.
            self.service.checkpoint()
        self.service.close()
        with _internal_construction():
            return ClusteringService.recover(factory, config)

    def close(self) -> None:
        self.service.close()
        self.transport.close()

    def __enter__(self) -> "ReadReplica":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
