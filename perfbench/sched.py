"""``sched``: replay a diurnal arrival trace under the predictive policy.

About 2,000 arrivals drawn uniformly over the 25 templates follow a
sinusoidal rate whose peak overloads five execution slots and whose
trough leaves them mostly idle, so :class:`PredictivePolicy` decides on
full eight-candidate windows at the peak and on short ones in the
trough.  The model is the seed's full campaign, fitted in-process.  The
unit operation is one ``pick`` as the dispatcher runs it.
"""

from __future__ import annotations

import contextlib
import gc
import time
from pathlib import Path
from typing import Dict, List

from . import estimators as est
from . import train
from .spans import SpanRecorder, layer_metrics, patched, reconcile

ARRIVALS = 2000
#: Mean arrivals per simulated second; the peak (1.8x) outruns five slots.
RATE = 0.004
#: Two full diurnal cycles over the trace.
PERIOD = ARRIVALS / RATE / 2
MAX_MPL = 5
WINDOW = 8

RECONCILE_TOLERANCE = 0.05

LAYERS = {
    "workload.plan": {"workload.plan.calls": "calls", "workload.plan.self_s": "self_s"},
    "engine.compile": {"engine.compile.calls": "calls", "engine.compile.self_s": "self_s"},
    "engine.run": {"engine.run.calls": "calls", "engine.run.self_s": "self_s"},
    "sched.replay": {"sched.replay.self_s": "self_s"},
    "sched.dispatch": {"sched.dispatch.self_s": "self_s"},
    "sched.pick": {"sched.pick.self_s": "self_s"},
    "core.predict_candidates": {"core.predict_candidates.calls": "calls", "core.predict_candidates.self_s": "self_s"},
}


class TimedPolicy:
    """A policy that times each ``pick`` of the policy it wraps."""

    def __init__(self, inner, clock=time.perf_counter):
        self.inner = inner
        self.name = inner.name
        self.clock = clock
        self.pick_ms: List[float] = []

    def pick(self, now, running, queue):
        t0 = self.clock()
        choice = self.inner.pick(now, running, queue)
        self.pick_ms.append((self.clock() - t0) * 1000.0)
        return choice


def make_trace(template_ids, seed: int):
    from repro.sched import TemplateDistribution, TraceConfig, generate_trace

    return generate_trace(
        TraceConfig(
            kind="diurnal",
            templates=TemplateDistribution.uniform(template_ids),
            rate=RATE,
            count=ARRIVALS,
            seed=seed,
            period=PERIOD,
        )
    )


def setup(workload: str, root: Path, seed: int) -> Dict:
    """Catalog, the seed's full campaign, and the fitted model."""
    from repro.apps.admission import ContenderBackend
    from repro.core.training import collect_training_data

    catalog = train.catalog_for("virtual_time")
    data = collect_training_data(
        catalog, mpls=train.MPLS, lhs_runs_per_mpl=train.LHS_RUNS, seed=seed, jobs=1
    )
    contender = train.fit(data)
    return {"catalog": catalog, "contender": contender, "backend": ContenderBackend(contender)}


def teardown(ctx: Dict) -> None:
    pass


def replay(ctx: Dict, trace):
    from repro.sched import PredictivePolicy, replay_trace

    policy = TimedPolicy(PredictivePolicy(ctx["backend"], window=WINDOW))
    gc.collect()
    t0 = time.perf_counter()
    result = replay_trace(trace, policy, ctx["catalog"], max_mpl=MAX_MPL)
    return result, time.perf_counter() - t0, policy.pick_ms


def check(result, trace, expected, seen: list, failures: list) -> bool:
    before = len(failures)
    doc_digest = est.digest(result.to_doc())
    if len(result.outcomes) != len(trace.arrivals):
        failures.append(
            f"replay completed {len(result.outcomes)} of {len(trace.arrivals)}"
        )
    if seen and seen[0] != doc_digest:
        failures.append("replay: pass digests differ")
    seen.append(doc_digest)
    est.check_digest("replay", doc_digest, expected, failures)
    return len(failures) == before


def measure(workload: str, ctx: Dict, seed: int, seconds: float, recorded: Dict) -> Dict:
    trace = make_trace(ctx["contender"].template_ids, seed)
    expected = recorded.get("sched")
    failures: List[str] = []
    seen: List[str] = []
    # One untimed, checked replay first: the first replay of a process
    # pays for first allocations and cold caches.
    warm_ok = check(replay(ctx, trace)[0], trace, expected, seen, failures)
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        result, job_s, pick_ms = replay(ctx, trace)
        ok = check(result, trace, expected, seen, failures)
        passes.append({"job_s": job_s, "op_ms": pick_ms, "ok": ok})
    job = [p["job_s"] for p in passes]
    tails = [est.tail(p["op_ms"]) for p in passes]
    metrics = {
        "job_s": est.steady(job),
        "peak_rss_mb": est.self_peak_rss_mb(),
        "op_p50_ms": est.steady([est.median(p["op_ms"]) for p in passes]),
        "op_tail_ms": est.steady([t[1] for t in tails]),
        "rate_per_s": ARRIVALS / est.steady(job),
    }
    return {
        "metrics": metrics,
        "attempted": len(passes) + 1,
        "failed": sum(1 for p in passes if not p["ok"]) + (0 if warm_ok else 1),
        "failures": failures,
        "notes": [
            f"passes={len(passes)} arrivals={ARRIVALS} decisions={result.decisions} "
            f"deferrals={result.deferrals} decision tail=p{tails[0][0]} of "
            f"n={tails[0][2]} per pass (upper quartile over passes); digest check: "
            + ("recorded" if expected else "pass-to-pass only (seed not recorded)"),
            "job_s per pass (after one untimed warm-up): "
            + ", ".join(f"{p['job_s']:.3f}" for p in passes),
            "op_p50_ms per pass: "
            + ", ".join(f"{est.median(p['op_ms']):.4f}" for p in passes),
        ],
    }


def traced(workload: str, ctx: Dict, seed: int, seconds: float, recorded: Dict) -> Dict:
    """Two untraced replays, then one with every layer wrapped."""
    from repro.sched import PredictivePolicy, replay_trace
    import repro.engine.executor as executor_mod
    import repro.sched.replay as replay_mod

    trace = make_trace(ctx["contender"].template_ids, seed)
    expected = recorded.get("sched")
    failures: List[str] = []
    seen: List[str] = []
    untraced = []
    for _ in range(2):
        result, job_s, _ = replay(ctx, trace)
        check(result, trace, expected, seen, failures)
        untraced.append(job_s)

    rec = SpanRecorder()
    counters: Dict = {"events": 0}

    policy = PredictivePolicy(ctx["backend"], window=WINDOW)
    contender = ctx["contender"]
    with contextlib.ExitStack() as stack:
        train.add_layer_wrappers(stack, rec, counters)
        stack.enter_context(
            patched(
                executor_mod.ConcurrentExecutor,
                "run",
                train.engine_run_wrapper(rec, counters),
            )
        )
        stack.enter_context(
            patched(replay_mod.QueueDispatcher, "poll", lambda fn: rec.wrap("sched.dispatch", fn))
        )
        stack.enter_context(
            patched(policy, "pick", lambda fn: rec.wrap("sched.pick", fn))
        )
        stack.enter_context(
            patched(
                contender,
                "predict_candidates",
                lambda fn: rec.wrap("core.predict_candidates", fn),
            )
        )
        t0 = time.perf_counter()
        with rec.span("bench.job"), rec.span("sched.replay"):
            result = replay_trace(trace, policy, ctx["catalog"], max_mpl=MAX_MPL)
        traced_s = time.perf_counter() - t0
    ok = check(result, trace, expected, seen, failures)
    gap = reconcile(rec, LAYERS, traced_s, RECONCILE_TOLERANCE, failures)
    out = layer_metrics(rec, LAYERS)
    out.update(train.engine_counters(rec, counters))
    out["sched.decisions"] = float(result.decisions)
    out["sched.deferrals"] = float(result.deferrals)
    base = est.median(untraced)
    out["trace.overhead_frac"] = (traced_s - base) / base
    out["trace.reconcile_gap"] = gap
    rec.dump(Path(ctx["trace_dir"]) / f"{workload}-spans.jsonl")
    return {
        "metrics": out,
        "attempted": 3,
        "failed": 0 if ok and not failures else 1,
        "failures": failures,
        "notes": [
            f"traced replay {traced_s:.3f}s vs untraced median {base:.3f}s; "
            f"self times reconcile within {gap:.4f} (tolerance {RECONCILE_TOLERANCE})"
        ],
    }
