#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train_batched --seed 1 --seconds 30 --trace 0

``BENCHMARK.json`` lists ``train_batched``, ``sched`` and ``serve``.
``train`` (the same campaign on the scalar engine) still runs on request,
for comparison with ``train_batched``; the scalar campaign is also what
``sched`` and ``serve`` time as part of ``setup_s``.

``--trace 0`` sets the workload up several times, measures it for
``--seconds`` with tracing off and prints every end-to-end metric.
``--trace 1`` sets it up once, runs untraced and then traced passes and
prints every per-layer metric (metrics of layers a workload does not use
read 0).  Either way the outputs are checked, a human-readable table
goes to standard output, and the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a
traced pass are written to ``.perfbench/<workload>-spans.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "digests.json"

WORKLOADS = {
    "train": "perfbench.train",
    "train_batched": "perfbench.train",
    "sched": "perfbench.sched",
    "serve": "perfbench.serve",
}

#: Set-ups per --trace 0 run; setup_s is their median.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "rate_per_s": "1/s",
}

PER_LAYER = {
    "workload.plan.calls": "count",
    "workload.plan.self_s": "s",
    "engine.compile.calls": "count",
    "engine.compile.self_s": "s",
    "engine.compile.unique_ratio": "ratio",
    "engine.run.calls": "count",
    "engine.run.self_s": "s",
    "engine.events": "count",
    "engine.events_per_s": "1/s",
    "engine.batched.self_s": "s",
    "engine.batched.batches": "count",
    "engine.batched.occupancy": "ratio",
    "sampling.steady_state.calls": "count",
    "sampling.steady_state.self_s": "s",
    "core.campaign.self_s": "s",
    "core.campaign.design_s": "s",
    "core.campaign.execute_s": "s",
    "core.campaign.assemble_s": "s",
    "core.campaign.tasks.profile": "count",
    "core.campaign.tasks.spoiler": "count",
    "core.campaign.tasks.mix": "count",
    "core.fit.models": "count",
    "core.fit.self_s": "s",
    "core.predict_many.calls": "count",
    "core.predict_many.keys_per_call": "count",
    "core.predict_many.self_s": "s",
    "core.predict_candidates.calls": "count",
    "core.predict_candidates.self_s": "s",
    "serving.app.self_s": "s",
    "serving.protocol.parse_s": "s",
    "serving.serialize_s": "s",
    "serving.cache.self_s": "s",
    "serving.cache.hit_ratio": "ratio",
    "serving.cache.evictions": "count",
    "serving.batcher.wait_s": "s",
    "serving.batcher.mean_batch": "count",
    "serving.batcher.coalesced_ratio": "ratio",
    "serving.request_s.predict": "s",
    "serving.request_s.predict_batch": "s",
    "serving.request_s.observe": "s",
    "serving.transport_s": "s",
    "serving.e2e.predict_p50_ms": "ms",
    "serving.e2e.predict_tail_ms": "ms",
    "serving.e2e.batch_p50_ms": "ms",
    "serving.e2e.batch_tail_ms": "ms",
    "serving.e2e.observe_p50_ms": "ms",
    "serving.e2e.observe_tail_ms": "ms",
    "serving.e2e.light_tail_ms": "ms",
    "serving.e2e.max_rps": "1/s",
    "lifecycle.ingest.calls": "count",
    "lifecycle.ingest.self_s": "s",
    "lifecycle.drifted": "count",
    "sched.replay.self_s": "s",
    "sched.dispatch.self_s": "s",
    "sched.pick.self_s": "s",
    "sched.decisions": "count",
    "sched.deferrals": "count",
    "loadgen.sent": "count",
    "loadgen.succeeded": "count",
    "loadgen.failed": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.reconcile_gap": "ratio",
}


def recorded_digests(seed: int) -> dict:
    """Digests recorded for *seed*, or ``{}`` when the seed has none."""
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get("seeds", {}).get(str(seed), {})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still reaches the teardown below, which stops the
    # server process the serve workload starts.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    module = importlib.import_module(WORKLOADS[args.workload])
    recorded = recorded_digests(args.seed)

    repeats = SETUP_REPEATS if args.trace == 0 else 1
    setup_times = []
    ctx = None
    for i in range(repeats):
        t0 = time.perf_counter()
        ctx = module.setup(args.workload, ROOT, args.seed)
        setup_times.append(time.perf_counter() - t0)
        if i < repeats - 1:
            module.teardown(ctx)
    ctx["trace_dir"] = ROOT / ".perfbench"
    try:
        if args.trace == 0:
            out = module.measure(args.workload, ctx, args.seed, args.seconds, recorded)
        else:
            out = module.traced(args.workload, ctx, args.seed, args.seconds, recorded)
    finally:
        module.teardown(ctx)

    if args.trace == 0:
        values = dict(out["metrics"])
        values["setup_s"] = sorted(setup_times)[len(setup_times) // 2]
        units = END_TO_END
    else:
        values = {name: 0.0 for name in PER_LAYER}
        values.update(out["metrics"])
        units = PER_LAYER
    unknown = set(values) - set(units)
    missing = set(units) - set(values)
    if unknown or missing:
        raise SystemExit(f"metric set mismatch: unknown={unknown} missing={missing}")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    if args.trace == 0:
        print("setup runs (s): " + ", ".join(f"{s:.4f}" for s in setup_times))
    for note in out["notes"]:
        print(note)
    for failure in out["failures"]:
        print(f"CHECK FAILED: {failure}")
    for name in units:
        print(f"  {name:<34} {values[name]:>14.6g} {units[name]}")
    correct = not out["failures"] and out["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(out["attempted"]),
                "failed": int(out["failed"]),
                "metrics": {
                    name: {"value": float(values[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
