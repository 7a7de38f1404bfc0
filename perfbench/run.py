"""rlaod benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 20 --trace 0

Workloads: train, evaluate, evaluate_color, detect_external (see
perfbench/README.md). With --trace 0 the run measures the end-to-end
metrics of BENCHMARK.json; with --trace 1 it runs the same work once
untraced and once traced and reports the per-layer metrics. Earlier lines
of standard output carry the fingerprint and details; the last line is
the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ROUND_SLACK = 1.1  # a further round may end this far past --seconds


def import_rlaod() -> None:
    """Import rlaod from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import rlaod
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import rlaod from {src}: {exc}")
    if not Path(rlaod.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: rlaod imported from {rlaod.__file__}, not {src}")


def run_rounds(workload, seconds: float, max_rounds: int | None = None) -> int:
    """Run rounds until the next one would end past the time limit, or
    exactly max_rounds rounds."""
    t0 = time.perf_counter()
    k = 0
    while max_rounds is None or k < max_rounds:
        workload.run_round(k)
        k += 1
        elapsed = time.perf_counter() - t0
        if max_rounds is None and elapsed * (k + 1) / k > seconds * ROUND_SLACK:
            break
    return k


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(wl, workload_cls, seed: int, seconds: float, size) -> tuple[dict, dict, object]:
    """End-to-end run: set up several times, then measure rounds."""
    w = workload_cls(seed, size)
    try:
        w.prepare(repeats=w.setup_repeats)
        t0 = time.perf_counter()
        rounds = run_rounds(w, seconds)
        measured_s = time.perf_counter() - t0
    finally:
        w.close()
    w.check_reference()
    t = w.tally
    metrics = {
        "setup_s": wl.median(t.setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "items_per_s": w.items_per_s(),
        "item_ms_p50": wl.percentile(t.item_ms, 50),
        "item_ms_p90": wl.percentile(t.item_ms, 90),
        "item_ms_p99": wl.percentile(t.item_ms, 99),
        "detect_rtt_ms_p50": wl.percentile(t.detect_ms, 50),
        "detect_rtt_ms_p90": wl.percentile(t.detect_ms, 90),
        "detect_rtt_ms_p99": wl.percentile(t.detect_ms, 99),
    }
    detail = {
        "rounds": rounds,
        "measured_s": measured_s,
        "all": metrics,
        "round_items_per_s": t.round_items_per_s,
        "samples": {
            "setup": len(t.setup_s),
            "items_per_s": len(t.round_items_per_s) or sum(map(len, t.phase_rates.values())),
            "item_ms": len(t.item_ms),
            "detect_ms": len(t.detect_ms),
        },
        "phases": w.phase_metrics(),
    }
    return metrics, detail, w


def traced_run(wl, workload_cls, seed: int, seconds: float, size) -> tuple[dict, dict, list]:
    """Per-layer run: the same work untraced, then traced."""
    from tracer import Tracer

    untraced = workload_cls(seed, size)
    try:
        t0 = time.perf_counter()
        untraced.prepare(repeats=1)
        rounds = run_rounds(untraced, seconds / 2)
        untraced_ns = int((time.perf_counter() - t0) * 1e9)
    finally:
        untraced.close()

    traced = workload_cls(seed, size)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter_ns()
        try:
            traced.prepare(repeats=1)
            run_rounds(traced, seconds, max_rounds=rounds)
        finally:
            traced.close()
        wall_ns = time.perf_counter_ns() - t0
    finally:
        tracer.remove()
    traced.check_reference()

    layers = tracer.layer_metrics(wall_ns)
    layer_ms = sum(v for k, v in layers.items() if k.endswith(".ms"))
    wall_ms = wall_ns / 1e6
    gap_ms = wall_ms - (layer_ms + layers["orchestrator.self_ms"])
    steps = layers["environment.step_episode.calls"]
    attempted = untraced.tally.attempted + traced.tally.attempted
    failed = untraced.tally.failed + traced.tally.failed
    metrics = {
        **layers,
        "environment.render_cache.hit_ratio": 1.0 - tracer.cache_misses / steps if steps else 0.0,
        "trace.wall_ms": wall_ms,
        "trace.untraced_wall_ms": untraced_ns / 1e6,
        "trace.overhead_ms": wall_ms - untraced_ns / 1e6,
        "trace.reconcile_gap_ms": gap_ms,
        "trace.missing_sites": len(tracer.missing),
        "error_rate": failed / attempted if attempted else 0.0,
        **untraced.phase_metrics(),
    }
    problems = untraced.tally.problems + traced.tally.problems
    if abs(gap_ms) > 1e-3 * wall_ms:
        problems.append(f"layer self times miss the traced wall time by {gap_ms:.3f} ms")
    path = wl.OUT_DIR / f"trace_{workload_cls.name}_seed{seed}.csv.gz"
    tracer.write(path)
    detail = {
        "rounds": rounds,
        "spans": len(tracer.spans),
        "span_file": str(path.relative_to(ROOT)),
        "missing_sites": tracer.missing,
    }
    return metrics, detail, (attempted, failed, problems)


def select(metrics: dict, specs: list[dict]) -> dict:
    """Exactly the metrics BENCHMARK.json names, with their units."""
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        raise RuntimeError(f"workload did not produce metrics {missing}")
    return {s["name"]: {"value": float(metrics[s["name"]]), "unit": s["unit"]} for s in specs}


def run(args, smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result, detail)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads as wl

    size = wl.SMOKE if smoke else wl.FULL
    workload_cls = wl.WORKLOADS[args.workload]
    if args.trace:
        metrics, detail, (attempted, failed, problems) = traced_run(
            wl, workload_cls, args.seed, args.seconds, size
        )
        specs = bench["per_layer"]
    else:
        metrics, detail, w = timed_run(wl, workload_cls, args.seed, args.seconds, size)
        attempted, failed, problems = w.tally.attempted, w.tally.failed, w.tally.problems
        specs = bench["end_to_end"]
    detail["problems"] = problems
    result = {
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(metrics, specs),
    }
    return result, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "evaluate", "evaluate_color", "detect_external"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        raise SystemExit("perfbench: --seed must be non-negative")
    import_rlaod()
    from fingerprint import fingerprint

    print(json.dumps({"fingerprint": fingerprint(ROOT)}), flush=True)
    try:
        result, detail = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
