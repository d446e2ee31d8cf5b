"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public entry points of each ``repro`` layer
for the duration of a traced run and restores them afterwards; nothing
under ``src/`` changes. Every wrapped call is a span on one stack: its
duration is added to the span's metric key (outermost call of that key
only, so nested calls of one key are not counted twice), and its *self
time* — duration minus the time of the wrapped calls nested inside it —
is added to its layer. Self times therefore partition the traced wall
time that falls inside any layer, which is what
``trace.attributed_frac`` reports.

Spans are aggregated as they close rather than kept, so a long run
costs no memory.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = ("similarity", "core", "clustering", "stream", "serve", "replica", "faults")

_MISSING = object()


class LayerTracer:
    """Span stack, per-key totals and per-layer self time."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.time_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [child_s, key]
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any]] = []
        #: While paused, wrappers call straight through (the episode
        #: loop pauses around its own bookkeeping and output checks).
        self.paused = True

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------
    def _enter(self, key: str) -> list:
        frame = [0.0, key]
        self._stack.append(frame)
        self._active[key] += 1
        return frame

    def _exit(self, frame: list, layer: str, duration: float) -> None:
        self._stack.pop()
        key = frame[1]
        self._active[key] -= 1
        if not self._active[key]:
            self.time_s[key] += duration
        self.self_s[layer] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        key: str,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a timed wrapper until :meth:`uninstall`.

        ``before(args, kwargs)`` runs outside the span and its value is
        handed to ``after(args, kwargs, result, duration, token)``,
        which also runs outside the span, so bookkeeping is not charged
        to the layer.
        """
        original = getattr(owner, attr)
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            tracer.calls[key] += 1
            frame = tracer._enter(key)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._exit(frame, layer, duration)
            if after is not None:
                after(args, kwargs, result, duration, token)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_iterator(self, owner: Any, attr: str, layer: str, key: str) -> None:
        """Time a generator method by the ``next()`` calls that produce items.

        A generator's work is interleaved with its consumer's, so the
        span covers only the time spent inside the generator; the items
        produced are counted under ``<key>.records``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            if tracer.paused:
                return iterator
            tracer.calls[key] += 1

            def produce():
                try:
                    while True:
                        frame = tracer._enter(key)
                        start = time.perf_counter()
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(frame, layer, time.perf_counter() - start)
                        tracer.counts[f"{key}.records"] += 1
                        yield item
                finally:
                    close = getattr(iterator, "close", None)
                    if close is not None:
                        close()

            return produce()

        self._patch(owner, attr, wrapper)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        previous = owner.__dict__.get(attr, _MISSING)
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


def install_repro_wrappers(tracer: LayerTracer, similarity_cls: type) -> None:
    """Wrap the public entry points of every ``repro`` layer.

    ``similarity_cls`` is the concrete similarity function of the
    workload (the graph looks ``similarity`` up on its instance).
    """
    import repro.core.dynamicc as dynamicc_module
    from repro.clustering.batch.hill_climbing import HillClimbing
    from repro.clustering.incremental import IncrementalClusterer
    from repro.clustering.objectives.dbindex import DBIndexObjective
    from repro.core.density import DBSCANBatchAdapter, DensityObjective
    from repro.core.dynamicc import DynamicC
    from repro.faults.retry import RetryPolicy
    from repro.replica.replica import ReadReplica
    from repro.replica.shipper import LogShipper
    from repro.serve.tenant import TenantManager
    from repro.similarity.graph import SimilarityGraph
    from repro.stream.checkpoint import CheckpointManager
    from repro.stream.oplog import OperationLog
    from repro.stream.router import LeastLoadedRouter, Router
    from repro.stream.service import ClusteringService
    from repro.stream.shard import StreamShard

    wrap = tracer.wrap
    count = tracer.count

    # -- repro.similarity ----------------------------------------------
    wrap(similarity_cls, "similarity", "similarity", "similarity")

    def edges_before(args, kwargs):
        return args[0].edge_count()

    def edges_added(args, kwargs, result, duration, before):
        count("graph.edges_stored", args[0].edge_count() - before)

    def edges_of_updated(args, kwargs, result, duration, token):
        graph, obj_id = args[0], args[1]
        if obj_id in graph:
            count("graph.edges_stored", len(graph.neighbors(obj_id)))

    wrap(SimilarityGraph, "add_objects", "similarity", "graph.maintain",
         before=edges_before, after=edges_added)
    wrap(SimilarityGraph, "update_object", "similarity", "graph.maintain",
         after=edges_of_updated)
    wrap(SimilarityGraph, "remove_object", "similarity", "graph.maintain")

    # -- repro.core ----------------------------------------------------
    wrap(DynamicC, "observe_round", "core", "engine.observe")

    def round_stats(args, kwargs, result, duration, token):
        stats = args[0].last_round_stats
        count("engine.candidates", stats.candidates_scored)
        count("engine.merge_predicted", stats.merge_predicted)
        count("engine.verifications", stats.verifications)
        count(
            "engine.changes_applied",
            stats.merges_applied + stats.splits_applied + stats.moves_applied,
        )

    # apply_round is inherited; wrapping the base function on DynamicC
    # keeps other clusterers untouched.
    tracer._patch(DynamicC, "apply_round", IncrementalClusterer.apply_round)
    wrap(DynamicC, "apply_round", "core", "engine.predict", after=round_stats)
    wrap(DynamicC, "train", "core", "engine.train")
    wrap(dynamicc_module, "merge_algorithm", "core", "engine.merge")
    wrap(dynamicc_module, "split_algorithm", "core", "engine.split")

    # -- repro.clustering ----------------------------------------------
    for objective in (DBIndexObjective, DensityObjective):
        for name in ("delta_merge", "delta_merge_group", "delta_split", "delta_move"):
            wrap(objective, name, "clustering", "objective.delta")
    wrap(HillClimbing, "cluster", "clustering", "batch")
    wrap(DBSCANBatchAdapter, "cluster", "clustering", "batch")

    # -- repro.stream --------------------------------------------------
    wrap(Router, "assign", "stream", "stream.route")
    wrap(LeastLoadedRouter, "assign", "stream", "stream.route")

    def shard_round(args, kwargs, result, duration, token):
        ops = args[1]
        if not ops.is_empty():
            count("stream.rounds")
            count("stream.round_ops", len(ops))

    wrap(StreamShard, "apply", "stream", "stream.shard_apply", after=shard_round)
    wrap(ClusteringService, "apply_logged", "stream", "stream.apply")
    wrap(ClusteringService, "cluster_of", "stream", "stream.read")
    wrap(ClusteringService, "members", "stream", "stream.read")

    def log_size(args, kwargs):
        return args[0].size_bytes()

    def log_appended(args, kwargs, result, duration, before):
        count("oplog.records", len(result))
        count("oplog.bytes", args[0].size_bytes() - before)

    wrap(OperationLog, "append", "stream", "oplog.append",
         before=log_size, after=log_appended)
    tracer.wrap_iterator(OperationLog, "iter_from", "stream", "oplog.replay")

    def checkpoint_saved(args, kwargs, result, duration, token):
        count("checkpoint.bytes", result.stat().st_size)

    wrap(CheckpointManager, "save", "stream", "checkpoint.save",
         after=checkpoint_saved)
    wrap(CheckpointManager, "load_latest", "stream", "checkpoint.load")

    # -- repro.serve ---------------------------------------------------
    def residency(args, kwargs):
        return args[1] in args[0]._residents

    def activated(args, kwargs, result, duration, was_resident):
        if not was_resident:
            count("serve.activations")
            count("serve.activate_s", duration)

    wrap(TenantManager, "activate", "serve", "serve.activate",
         before=residency, after=activated)
    wrap(TenantManager, "evict", "serve", "serve.evict")

    # -- repro.replica -------------------------------------------------
    def cursors(args, kwargs):
        return sum(args[0].cursors())

    def shipped(args, kwargs, result, duration, before):
        count("ship.segments", result)
        count("ship.ops", sum(args[0].cursors()) - before)

    wrap(LogShipper, "ship", "replica", "ship", before=cursors, after=shipped)

    def polled(args, kwargs, result, duration, token):
        count("replica.ops_applied", result)

    wrap(ReadReplica, "poll", "replica", "replica.poll", after=polled)

    # -- repro.faults --------------------------------------------------
    # backoff_s is drawn once per retry (never on a first attempt).
    wrap(RetryPolicy, "backoff_s", "faults", "retry.backoff")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: LayerTracer, episodes: int) -> dict[str, float]:
    """Every per-layer metric, per traced episode.

    Counts and times are totals over the traced episodes divided by
    their number, so a run that fits more episodes reports the same
    scale. Ratios are taken over the totals.
    """
    calls, time_s, counts = tracer.calls, tracer.time_s, tracer.counts
    n = max(episodes, 1)
    rounds = counts["stream.rounds"]
    poll_s = time_s["replica.poll"]
    return {
        "similarity.calls": calls["similarity"] / n,
        "similarity.s": time_s["similarity"] / n,
        "graph.maintain_s": time_s["graph.maintain"] / n,
        "graph.edge_yield": _ratio(counts["graph.edges_stored"], calls["similarity"]),
        "engine.observe_rounds": calls["engine.observe"] / n,
        "engine.predict_rounds": calls["engine.predict"] / n,
        "engine.observe_s": time_s["engine.observe"] / n,
        "engine.train_s": time_s["engine.train"] / n,
        "engine.merge_s": time_s["engine.merge"] / n,
        "engine.split_s": time_s["engine.split"] / n,
        "engine.candidates": counts["engine.candidates"] / n,
        "engine.merge_predicted": counts["engine.merge_predicted"] / n,
        "engine.verifications": counts["engine.verifications"] / n,
        "engine.changes_applied": counts["engine.changes_applied"] / n,
        "engine.predict_ratio": _ratio(
            counts["engine.merge_predicted"], counts["engine.candidates"]
        ),
        "engine.verify_yield": _ratio(
            counts["engine.changes_applied"], counts["engine.verifications"]
        ),
        "objective.delta_calls": calls["objective.delta"] / n,
        "objective.delta_s": time_s["objective.delta"] / n,
        "batch.calls": calls["batch"] / n,
        "batch.s": time_s["batch"] / n,
        "stream.route_s": time_s["stream.route"] / n,
        "stream.rounds": rounds / n,
        "stream.ops_per_round": _ratio(counts["stream.round_ops"], rounds),
        "oplog.append_s": time_s["oplog.append"] / n,
        "oplog.records": counts["oplog.records"] / n,
        "oplog.bytes": counts["oplog.bytes"] / n,
        "oplog.replay_calls": calls["oplog.replay"] / n,
        "oplog.replay_records": counts["oplog.replay.records"] / n,
        "oplog.replay_s": time_s["oplog.replay"] / n,
        "checkpoint.saves": calls["checkpoint.save"] / n,
        "checkpoint.save_s": time_s["checkpoint.save"] / n,
        "checkpoint.bytes": counts["checkpoint.bytes"] / n,
        "checkpoint.loads": calls["checkpoint.load"] / n,
        "checkpoint.load_s": time_s["checkpoint.load"] / n,
        "serve.activations": counts["serve.activations"] / n,
        "serve.evictions": calls["serve.evict"] / n,
        "serve.activate_s": counts["serve.activate_s"] / n,
        "serve.evict_s": time_s["serve.evict"] / n,
        "ship.segments": counts["ship.segments"] / n,
        "ship.ops": counts["ship.ops"] / n,
        "ship.s": time_s["ship"] / n,
        "replica.ops_applied": counts["replica.ops_applied"] / n,
        "replica.poll_s": poll_s / n,
        "replica.catchup_ops_per_s": _ratio(counts["replica.ops_applied"], poll_s),
        "retry.attempts": calls["retry.backoff"] / n,
    }
