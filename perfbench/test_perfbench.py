"""Tests of the benchmark itself: tiny runs and the output checks.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from bench_checks import (
    check_accounting,
    check_partition,
    check_same_partitions,
    check_write_visible,
)
from bench_trace import LayerTracer, install_repro_wrappers
from bench_workloads import SPECS, make_plan, run_episode, tiny

HERE = pathlib.Path(__file__).resolve().parent


def _load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


runner = _load_runner()
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


def _run(capsys, *args: str) -> tuple[int, dict, str]:
    code = runner.main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


# ----------------------------------------------------------------------
# Tiny runs through the same code path as the real benchmark
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(SPECS))
def test_tiny_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    code, result, out = _run(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", "0", "--tiny",
    )
    assert code == 0, out
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = _declared("end_to_end")
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
        assert f"{name} " in out  # printed by name
    report = json.loads(out.strip().splitlines()[-2])["report"]
    assert report["host"]["nproc"] >= 1 and report["calibration_s"] > 0
    assert report["samples"]["write_ms"] >= 1


def test_times_scale_by_the_probes_around_each_segment(tmp_path):
    from bench_workloads import Episode

    ref = runner.REFERENCE_PROBE_S
    # Set-up between probes 0 and 1, a write and its read between 1 and
    # 2; the host ran at half speed while the write and read did.
    episode = Episode(
        probe_s=[ref, ref, 3 * ref],
        timeline=[("setup", 0.5, 0), ("write", 0.04, 1), ("read", 0.002, 1)],
    )
    assert runner._segments(episode) == {
        "setup": [0.5],
        "write": [pytest.approx(0.02)],
        "read": [pytest.approx(0.002 / 2 ** runner.SPEED_EXPONENT["read"])],
    }
    assert runner._segments(episode, scaled=False) == {
        "setup": [0.5], "write": [0.04], "read": [0.002]
    }
    plan = make_plan(tiny(SPECS["iot-road"]), 2)
    tiny_run = run_episode(plan, tmp_path / "ep")
    kinds = [kind for kind, _, _ in tiny_run.timeline]
    assert kinds[: 2 + len(plan.tenants)] == ["setup"] * (2 + len(plan.tenants))
    assert kinds[2 + len(plan.tenants) :] == [kind for kind, _ in plan.requests]
    assert max(at for _, _, at in tiny_run.timeline) + 1 == len(tiny_run.probe_s) - 1


def test_tiny_traced_run_reports_per_layer_metrics(capsys):
    code, result, out = _run(
        capsys, "--workload", "iot-road", "--seed", "3", "--seconds", "0",
        "--trace", "1", "--tiny",
    )
    assert code == 0, out
    assert set(result["metrics"]) == set(_declared("per_layer"))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name in (
        "similarity.calls", "graph.maintain_s", "engine.predict_rounds",
        "engine.merge_s", "objective.delta_calls", "batch.calls",
        "stream.rounds", "oplog.records", "checkpoint.saves",
        "serve.activations", "ship.ops", "replica.ops_applied",
        "oplog.append_frac", "checkpoint.save_frac", "ship.frac",
        "replica.poll_frac",
    ):
        assert metrics[name] > 0, name
    assert metrics["retry.attempts"] == 0
    assert 0.5 < metrics["trace.attributed_frac"] <= 1.0
    assert "trace.overhead_frac" in metrics
    report = json.loads(out.strip().splitlines()[-2])["report"]
    assert report["durable_times_s"]["ship.s"] > 0


def test_same_seed_same_plan_and_different_seed_differs():
    spec = tiny(SPECS["tenant-churn"])
    first, again, other = make_plan(spec, 5), make_plan(spec, 5), make_plan(spec, 6)
    assert [t.final.keys() for t in first.tenants] == [t.final.keys() for t in again.tenants]
    assert [(k, repr(a)) for k, a in first.requests] == [
        (k, repr(a)) for k, a in again.requests
    ]
    assert [(k, repr(a)) for k, a in first.requests] != [
        (k, repr(a)) for k, a in other.requests
    ]


def test_tracer_uninstall_restores_every_entry_point():
    from repro.clustering.incremental import IncrementalClusterer
    from repro.core.dynamicc import DynamicC
    from repro.similarity.euclidean import EuclideanSimilarity
    from repro.similarity.graph import SimilarityGraph

    before = (SimilarityGraph.add_objects, EuclideanSimilarity.similarity)
    tracer = LayerTracer()
    install_repro_wrappers(tracer, EuclideanSimilarity)
    assert SimilarityGraph.add_objects is not before[0]
    tracer.uninstall()
    assert (SimilarityGraph.add_objects, EuclideanSimilarity.similarity) == before
    assert "apply_round" not in DynamicC.__dict__
    assert DynamicC.apply_round is IncrementalClusterer.apply_round


def test_without_sources_the_runner_fails_without_a_result(tmp_path):
    for name in ("run.py", "bench_checks.py", "bench_host.py",
                 "bench_trace.py", "bench_workloads.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        shutil.copy(HERE / name, tmp_path / "perfbench" / name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linkage-febrl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# Every check rejects a deliberately broken input
# ----------------------------------------------------------------------
def test_partition_check_accepts_exact_cover():
    assert check_partition("t", [{1, 2}, {3}], {1, 2, 3}) == []


def test_partition_check_rejects_dropped_id():
    assert check_partition("t", [{1, 2}], {1, 2, 3})


def test_partition_check_rejects_overlap_and_extra_ids():
    assert check_partition("t", [{1, 2}, {2, 3}], {1, 2, 3})
    assert check_partition("t", [{1, 2}, {3, 4}], {1, 2, 3})


def test_write_check_rejects_invisible_write_and_resolvable_removal():
    lookup = {1: "0:1", 2: "0:1"}.get
    assert check_write_visible("t", lookup, [1, 2], [3]) == []
    assert check_write_visible("t", lookup, [1, 4], [])
    assert check_write_visible("t", lookup, [], [2])


def test_accounting_check_rejects_lost_ops():
    assert check_accounting(7, 3, 10) == []
    assert check_accounting(7, 2, 10)


def test_replica_check_rejects_one_moved_id():
    primary = {"t00": frozenset({frozenset({1, 2}), frozenset({3})})}
    moved = {"t00": frozenset({frozenset({1}), frozenset({2, 3})})}
    assert check_same_partitions("replica", primary, primary) == []
    assert check_same_partitions("replica", primary, moved)


def test_recovered_check_rejects_missing_tenant():
    live = {"t00": frozenset({frozenset({1})}), "t01": frozenset({frozenset({2})})}
    assert check_same_partitions("recovered", live, {"t00": live["t00"]})


def test_episode_flags_a_served_partition_missing_an_id(monkeypatch):
    from repro.serve.service import TenantHandle

    served = TenantHandle.partition

    def drop_one(self):
        groups = sorted(served(self), key=min)
        first = sorted(groups[0])
        return frozenset([frozenset(first[1:])] + groups[1:])

    monkeypatch.setattr(TenantHandle, "partition", drop_one)
    episode = run_episode(make_plan(tiny(SPECS["linkage-febrl"]), 1), None)
    assert any("missing from the partition" in error for error in episode.errors)


def test_episode_flags_a_replica_that_diverged(monkeypatch, tmp_path):
    from repro.replica.replica import ReadReplica

    served = ReadReplica.partition

    def move_one(self):
        groups = sorted(served(self), key=min)
        moved = min(groups[0])
        rest = [frozenset(groups[0] - {moved})] if len(groups[0]) > 1 else []
        return frozenset(rest + [groups[1] | {moved}] + groups[2:])

    monkeypatch.setattr(ReadReplica, "partition", move_one)
    episode = run_episode(make_plan(tiny(SPECS["iot-road"]), 1), tmp_path / "root")
    assert any(error.startswith("replica:") for error in episode.errors)
