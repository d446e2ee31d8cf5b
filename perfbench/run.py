"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload iot-road --seed 1 --seconds 40 --trace 0

Run from the repository root (``src/`` must be next to this directory:
the benchmark drives the package from source). ``--trace 0`` reports
the end-to-end metrics of untraced episodes; ``--trace 1`` reports the
per-layer metrics of traced episodes, plus the tracing overhead against
untraced episodes of the same plans. Every metric is printed by name
with its unit, followed by a JSON report (host fingerprint, calibration,
sample counts, durable-layer times in seconds) and, as the last line,
the result object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Layer times that are zero by construction on a workload that
#: bypasses the layer. The result carries each as its share of the
#: traced wall time (``<name>`` with ``_s`` replaced by ``_frac``), so
#: no reported time reads 0 on every run; the seconds are in the report.
DURABLE_TIMES = (
    "oplog.append_s",
    "oplog.replay_s",
    "checkpoint.save_s",
    "checkpoint.load_s",
    "serve.evict_s",
    "ship.s",
    "replica.poll_s",
)


def _share_name(name: str) -> str:
    return name[: -len("s")] + "frac"


def _units() -> dict[str, str]:
    """Every metric's unit, as ``BENCHMARK.json`` declares it."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }


def _percentile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def _workdir(workload: str) -> pathlib.Path:
    path = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


#: Timed seconds of one episode of each workload on the development
#: host in its fast phase (2-vCPU VM, see README.md). ``--seconds`` buys
#: ``seconds / EPISODE_SECONDS`` plans, and never fewer than it takes to
#: reach ``MIN_WRITES`` write requests: a count fixed by the command
#: line, never by how fast the program runs, so two commits time the
#: same work.
EPISODE_SECONDS = {"linkage-febrl": 0.85, "iot-road": 1.4, "tenant-churn": 6.0}
#: Durable workloads check recovery (close, reopen, compare) on every
#: this many episodes, the first included: the reopen costs about a
#: fifth of an ``iot-road`` episode, and fewer plans per run would
#: spread its figures more.
RECOVERY_EVERY = 3

#: Probe time (``bench_host.probe_s``) of the host every reported time
#: is scaled to: each timed segment by (this ÷ the mean of the probes
#: taken just before and after it) ** ``SPEED_EXPONENT``, so a run that
#: lands in a slow phase of a shared host reports what the same work
#: takes on a host of fixed speed. About the development host's fast
#: phase.
REFERENCE_PROBE_S = 0.002
#: How a segment's time follows the probe's, by segment kind (1 when
#: not listed). A read takes some 20 µs and slows less than longer
#: segments in the host's slow phase: over 157 ``linkage-febrl``
#: episodes its median grew 1.30x from the fast phase to the slow one
#: while the probe grew about 1.8x (README.md, "Host fingerprint,
#: calibration and steadiness").
SPEED_EXPONENT = {"read": 0.5}


def _segments(ep, scaled: bool = True) -> dict[str, list[float]]:
    """Seconds of each of ``ep``'s timed segments, keyed by kind.

    ``scaled`` puts each segment at the reference speed, from the mean
    of the two probes around it.
    """
    out: dict[str, list[float]] = {}
    for kind, seconds, at in ep.timeline:
        if scaled:
            probe = (ep.probe_s[at] + ep.probe_s[at + 1]) / 2
            seconds *= (REFERENCE_PROBE_S / probe) ** SPEED_EXPONENT.get(kind, 1)
        out.setdefault(kind, []).append(seconds)
    return out


def _at_reference(ep) -> float:
    """All of ``ep``'s timed seconds, at the reference speed."""
    return sum(sum(times) for times in _segments(ep).values())


def _times(episodes, scaled: bool) -> dict:
    """Set-up, throughput and latency figures of ``episodes``.

    ``scaled`` puts every time at the reference speed. Latency
    percentiles are taken over the requests of all episodes, so a run's
    figures average over many input draws.
    """
    each = [_segments(ep, scaled) for ep in episodes]

    def pooled(kind: str) -> list[float]:
        return [s * 1e3 for seg in each for s in seg.get(kind, ())]

    writes, reads, syncs = pooled("write"), pooled("read"), pooled("sync")
    measured = sum(
        s for seg in each for kind, times in seg.items() if kind != "setup" for s in times
    )
    times = {
        "setup_s": statistics.median(sum(seg["setup"]) for seg in each),
        "ops_per_s": sum(ep.write_ops for ep in episodes) / measured,
        "write_ms_p50": _percentile(writes, 50),
        "write_ms_p90": _percentile(writes, 90),
        "read_ms_p50": _percentile(reads, 50),
        "read_ms_p90": _percentile(reads, 90),
    }
    if syncs:
        times["sync_ms_p50"] = _percentile(syncs, 50)
        times["sync_ms_p90"] = _percentile(syncs, 90)
    return times


def end_to_end(plans, workdir) -> tuple[dict, dict, list]:
    """End-to-end metrics over one untraced episode per plan.

    Times are scaled to the reference host speed (``REFERENCE_PROBE_S``);
    the report carries the raw figures too.
    """
    from bench_workloads import run_episode

    episodes = [
        run_episode(plan, workdir / f"ep{index}", recovery=index % RECOVERY_EVERY == 0)
        for index, plan in enumerate(plans)
    ]
    scaled = _times(episodes, scaled=True)
    metrics = {name: scaled.pop(name) for name in list(scaled) if "sync" not in name}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "episodes": len(episodes),
        "samples": {
            f"{kind}_ms": sum(k == kind for ep in episodes for k, _, _ in ep.timeline)
            for kind in ("write", "read", "sync")
        },
        **scaled,
        "raw": _times(episodes, scaled=False),
        "probe_s": statistics.median(p for ep in episodes for p in ep.probe_s),
        "clusters_per_tenant": [ep.clusters for ep in episodes],
        "live_per_tenant": [
            {t.name: len(t.final) for t in plan.tenants} for plan in plans
        ],
        "failed_frac": sum(ep.refused for ep in episodes)
        / max(sum(ep.attempted for ep in episodes), 1),
    }
    return metrics, report, episodes


def per_layer(plans, workdir) -> tuple[dict, dict, list]:
    """Per-layer metrics of traced episodes on half the plans.

    Each traced episode directly follows an untraced episode of the
    same plan, so the two see the same host conditions;
    ``trace.overhead_frac`` is the median over these pairs of traced ÷
    untraced timed seconds − 1, both at the reference speed. The
    wrappers are installed for the traced episodes only, so the
    untraced ones run the unmodified program.
    """
    from bench_trace import LAYERS, LayerTracer, install_repro_wrappers, layer_metrics
    from bench_workloads import run_episode

    tracer = LayerTracer()
    untraced, traced = [], []
    for index, plan in enumerate(plans[: -(-len(plans) // 2)]):
        untraced.append(
            run_episode(
                plan, workdir / f"untraced{index}", recovery=index % RECOVERY_EVERY == 0
            )
        )
        install_repro_wrappers(tracer, plan.similarity_cls)
        try:
            traced.append(
                run_episode(
                    plan, workdir / f"traced{index}", tracer=tracer, f1=True, recovery=False
                )
            )
        finally:
            tracer.uninstall()

    def wall(ep) -> float:
        return sum(seconds for _, seconds, _ in ep.timeline)

    traced_wall = sum(wall(ep) for ep in traced)
    layers = layer_metrics(tracer, len(traced))
    metrics = {name: value for name, value in layers.items() if name not in DURABLE_TIMES}
    for name in DURABLE_TIMES:
        metrics[_share_name(name)] = layers[name] * len(traced) / traced_wall
    f1 = {
        f"plan{index}/{tenant}": value
        for index, ep in enumerate(traced)
        for tenant, value in ep.f1.items()
    }
    metrics["f1_vs_batch"] = statistics.fmean(f1.values())
    metrics["trace.attributed_frac"] = tracer.attributed_s() / traced_wall
    metrics["trace.overhead_frac"] = (
        statistics.median(
            _at_reference(t) / _at_reference(u) for t, u in zip(traced, untraced)
        )
        - 1.0
    )
    for layer in LAYERS:
        metrics[f"self_frac.{layer}"] = tracer.self_s[layer] / traced_wall
    report = {
        "episodes": len(traced),
        "traced_wall_s": [wall(ep) for ep in traced],
        "untraced_wall_s": [wall(ep) for ep in untraced],
        "layer_self_s": {layer: tracer.self_s[layer] for layer in LAYERS},
        "durable_times_s": {name: layers[name] for name in DURABLE_TIMES},
        "f1_vs_batch_per_tenant": f1,
    }
    return metrics, report, untraced + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrunken inputs (smoke tests)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench_host import calibration_s, fingerprint
    from bench_workloads import SPECS, make_plan, make_plans, plan_count, run_episode, tiny

    if args.workload not in SPECS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(SPECS)})",
            file=sys.stderr,
        )
        return 2
    spec = SPECS[args.workload]
    if args.tiny:
        spec = tiny(spec)
    count = max(plan_count(spec), round(args.seconds / EPISODE_SECONDS[args.workload]))
    plans = make_plans(spec, args.seed, count=2 if args.tiny else count)
    workdir = _workdir(args.workload)
    try:
        host = fingerprint()
        calibration = calibration_s()
        # Warm-up: imports, first-call set-up and allocator growth,
        # paid once per process, stay out of every measured episode.
        run_episode(make_plan(tiny(spec), args.seed), workdir / "warmup")
        if args.trace:
            metrics, report, episodes = per_layer(plans, workdir)
        else:
            metrics, report, episodes = end_to_end(plans, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    errors = [error for ep in episodes for error in ep.errors]
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.refused for ep in episodes)
    units = _units()
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}")
    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        host=host,
        calibration_s=calibration,
        checks_failed=len(errors),
    )
    print(json.dumps({"report": report}, default=str))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
