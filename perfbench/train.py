"""``train`` and ``train_batched``: the paper's sampling campaign plus the fit.

One job is the full default campaign — all 25 templates, MPLs 2-5, four
LHS runs per MPL above 2, ``jobs=1`` — followed by a
:class:`~repro.core.contender.Contender` with every QS model fitted.
``train`` runs the scalar ``virtual_time`` engine, ``train_batched`` the
lockstep ``batched`` engine; their training data must agree bit for bit.
The unit operation is an in-process ``predict_known`` on every training
observation with the freshly fitted model.
"""

from __future__ import annotations

import contextlib
import gc
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import estimators as est
from .spans import SpanRecorder, layer_metrics, patched, reconcile

ENGINES = {"train": "virtual_time", "train_batched": "batched"}
MPLS = (2, 3, 4, 5)
LHS_RUNS = 4
#: Rounds of timed predictions over every training observation per pass;
#: many short samples spread over the run steady the op_* estimates.
OP_ROUNDS = 5

#: A traced pass must explain its wall time to within this share.
RECONCILE_TOLERANCE = 0.05

#: Span name -> {per-layer metric: "calls" or "self_s"} for the traced pass.
LAYERS = {
    "workload.plan": {"workload.plan.calls": "calls", "workload.plan.self_s": "self_s"},
    "engine.compile": {"engine.compile.calls": "calls", "engine.compile.self_s": "self_s"},
    "engine.run": {"engine.run.calls": "calls", "engine.run.self_s": "self_s"},
    "engine.batched": {"engine.batched.self_s": "self_s"},
    "sampling.steady_state": {"sampling.steady_state.calls": "calls", "sampling.steady_state.self_s": "self_s"},
    "core.campaign": {"core.campaign.self_s": "self_s"},
    "core.fit": {"core.fit.self_s": "self_s"},
}

# Importing the training stack is part of what set-up measures.
_SETUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.config import CampaignConfig, SimulationConfig, SystemConfig
from repro.core.contender import Contender
from repro.core.training import collect_training_data
from repro.workload.catalog import TemplateCatalog
config = SystemConfig(
    simulation=SimulationConfig(engine=sys.argv[2]),
    campaign=CampaignConfig(jobs=1),
)
TemplateCatalog(config=config).fact_scan_seconds()
"""


def catalog_for(engine: str):
    from repro.config import CampaignConfig, SimulationConfig, SystemConfig
    from repro.workload.catalog import TemplateCatalog

    config = SystemConfig(
        simulation=SimulationConfig(engine=engine),
        campaign=CampaignConfig(jobs=1),
    )
    return TemplateCatalog(config=config)


def setup(workload: str, root: Path, seed: int) -> Dict:
    """A fresh interpreter imports the training stack and builds the catalog.

    Set-up runs in a child process so that import and catalog
    construction are measured the way a user starting a campaign pays
    for them; the parent only needs its own catalog afterwards.
    """
    subprocess.run(
        [sys.executable, "-c", _SETUP_SCRIPT, str(root / "src"), ENGINES[workload]],
        check=True,
        timeout=120,
    )
    return {"engine": ENGINES[workload]}


def collect(catalog, seed: int, tracer=None, metrics=None):
    """The full default campaign, in-process."""
    from repro.core.training import collect_training_data

    return collect_training_data(
        catalog,
        mpls=MPLS,
        lhs_runs_per_mpl=LHS_RUNS,
        seed=seed,
        jobs=1,
        tracer=tracer,
        metrics=metrics,
    )


def run_job(catalog, seed: int):
    """One campaign plus a fit of every QS model; returns (data, contender)."""
    data = collect(catalog, seed)
    return data, fit(data)


def fit(data):
    from repro.core.contender import Contender

    contender = Contender(data)
    for mpl in MPLS:
        contender.reference_models(mpl)
    return contender


def observation_keys(data) -> List[tuple]:
    return [
        (obs.primary, obs.mix)
        for mpl in sorted(data.observations)
        for obs in data.observations[mpl]
    ]


def task_count(data) -> int:
    """Campaign tasks behind *data*: profiles, spoiler points, distinct mixes."""
    mixes = {
        (mpl, obs.mix)
        for mpl, observations in data.observations.items()
        for obs in observations
    }
    spoilers = sum(len(curve.latencies) for curve in data.spoilers.values())
    return len(data.profiles) + spoilers + len(mixes)


def predict_all(contender, keys) -> tuple:
    """Time ``predict_known`` on every key; ``(latencies_ms, predictions)``."""
    clock = time.perf_counter
    times: List[float] = []
    predictions: List[float] = []
    for primary, mix in keys:
        t0 = clock()
        value = contender.predict_known(primary, mix)
        times.append((clock() - t0) * 1000.0)
        predictions.append(value)
    return times, predictions


def reference_digest(workload: str, seed: int) -> str:
    """The other engine's campaign digest: the check for unrecorded seeds."""
    other = "batched" if workload == "train" else "virtual_time"
    data, _ = run_job(catalog_for(other), seed)
    return est.digest(data.to_json())


class _Checker:
    """Compares every pass against the recorded (or reference) digests."""

    def __init__(self, workload: str, seed: int, recorded: Dict):
        self.workload = workload
        self.seed = seed
        self.expected_data = recorded.get("train")
        self.expected_pred = recorded.get("predict")
        self.source = "recorded" if self.expected_data else "reference run"
        self.seen_data: Optional[str] = None
        self.seen_pred: Optional[str] = None
        self.failures: List[str] = []

    def check(self, data_digest: str, pred_digest: str) -> bool:
        before = len(self.failures)
        for label, actual, attr in (
            ("training data", data_digest, "seen_data"),
            ("predictions", pred_digest, "seen_pred"),
        ):
            seen = getattr(self, attr)
            if seen is None:
                setattr(self, attr, actual)
            elif seen != actual:
                self.failures.append(f"{label}: pass digests differ")
        est.check_digest("training data", data_digest, self.expected_data, self.failures)
        est.check_digest("predictions", pred_digest, self.expected_pred, self.failures)
        return len(self.failures) == before

    def finish(self) -> None:
        """For a seed with no record, compare against the other engine."""
        if self.expected_data is None and self.seen_data is not None:
            self.expected_data = reference_digest(self.workload, self.seed)
            est.check_digest(
                f"training data vs {self.source}",
                self.seen_data,
                self.expected_data,
                self.failures,
            )


def _one_pass(catalog, seed: int, checker: _Checker) -> Dict:
    clock = time.perf_counter
    # Garbage of the previous pass is collected here, not inside the timing.
    gc.collect()
    t0 = clock()
    data, contender = run_job(catalog, seed)
    job_s = clock() - t0
    keys = observation_keys(data)
    rounds = [predict_all(contender, keys) for _ in range(OP_ROUNDS)]
    ok = all(
        checker.check(est.digest(data.to_json()), est.digest(predictions))
        for _, predictions in rounds
    )
    return {"job_s": job_s, "rounds": [times for times, _ in rounds], "ok": ok, "data": data}


def measure(workload: str, ctx: Dict, seed: int, seconds: float, recorded: Dict) -> Dict:
    catalog = catalog_for(ctx["engine"])
    checker = _Checker(workload, seed, recorded)
    # The first pass of a process runs 10-20% slower (imports, first
    # allocations); it is checked but not timed.
    warm = _one_pass(catalog, seed, checker)
    del warm["data"]
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(_one_pass(catalog, seed, checker))
        data = passes[-1].pop("data")
    checker.finish()
    job = [p["job_s"] for p in passes]
    rounds = [times for p in passes for times in p["rounds"]]
    tails = [est.tail(times) for times in rounds]
    tasks = task_count(data)
    metrics = {
        "job_s": est.steady(job),
        "peak_rss_mb": est.self_peak_rss_mb(),
        "op_p50_ms": est.steady([est.median(times) for times in rounds]),
        # Round tails are spiky (one interrupt moves a p99 of 1,750
        # calls), so their median, not their upper quartile.
        "op_tail_ms": est.median([t[1] for t in tails]),
        "rate_per_s": tasks / est.steady(job),
    }
    notes = [
        f"passes={len(passes)} tasks={tasks} observations={tails[0][2]} "
        f"op tail=p{tails[0][0]} of each of {len(rounds)} prediction rounds "
        f"(p50: upper quartile, tail: median over rounds); "
        f"digest check: {checker.source}",
        "job_s per pass (after one untimed warm-up): "
        + ", ".join(f"{j:.3f}" for j in job),
    ]
    failed = sum(1 for p in [warm] + passes if not p["ok"])
    if checker.failures and not failed:
        failed = len(passes) + 1
    return {
        "metrics": metrics,
        "attempted": len(passes) + 1,
        "failed": failed,
        "failures": checker.failures,
        "notes": notes,
    }


def traced(workload: str, ctx: Dict, seed: int, seconds: float, recorded: Dict) -> Dict:
    """Two untraced passes, then one pass with every layer wrapped."""
    from repro.obs.metrics import Registry
    from repro.obs.tracing import TraceRecorder

    catalog = catalog_for(ctx["engine"])
    checker = _Checker(workload, seed, recorded)
    untraced = [_one_pass(catalog, seed, checker)["job_s"] for _ in range(2)]

    rec = SpanRecorder()
    program_trace = TraceRecorder(seed=seed)
    registry = Registry()
    counters = {"events": 0, "keys": {}, "occupancy": [], "models": 0}
    clock = time.perf_counter
    with _campaign_wrappers(rec, counters, registry):
        t0 = clock()
        with rec.span("bench.job"):
            with rec.span("core.campaign"):
                data = collect(catalog, seed, program_trace, registry)
            with rec.span("core.fit"):
                contender = fit(data)
        traced_s = clock() - t0
    times, predictions = predict_all(contender, observation_keys(data))
    ok = checker.check(est.digest(data.to_json()), est.digest(predictions))
    checker.finish()
    failures = checker.failures

    gap = reconcile(rec, LAYERS, traced_s, RECONCILE_TOLERANCE, failures)
    out = layer_metrics(rec, LAYERS)
    out.update(_campaign_counters(rec, counters, registry, program_trace))
    out["core.fit.models"] = float(counters["models"])
    out["trace.overhead_frac"] = (traced_s - est.median(untraced)) / est.median(untraced)
    out["trace.reconcile_gap"] = gap
    rec.dump(Path(ctx["trace_dir"]) / f"{workload}-spans.jsonl")
    return {
        "metrics": out,
        "attempted": 3,
        "failed": 0 if ok and not failures else 1,
        "failures": failures,
        "notes": [
            f"traced job {traced_s:.3f}s vs untraced median "
            f"{est.median(untraced):.3f}s; self times reconcile within "
            f"{gap:.4f} (tolerance {RECONCILE_TOLERANCE})"
        ],
    }


@contextlib.contextmanager
def _campaign_wrappers(rec: SpanRecorder, counters: Dict, registry):
    """Wrap plan building, compilation, the engines, sampling and QS fits."""
    import repro.core.contender as contender_mod
    import repro.core.training as training_mod
    import repro.engine.executor as executor_mod

    def wrap_batch(fn):
        def run_batch(*args, **kwargs):
            idx = rec.open("engine.batched")
            try:
                results = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            counters["events"] += sum(r.events for r in results)
            gauge = registry.get("engine_batch_occupancy")
            if gauge is not None:
                counters["occupancy"].append(gauge.value)
            return results

        return run_batch

    def wrap_fit(fn):
        def fit_qs_model(*args, **kwargs):
            counters["models"] += 1
            return fn(*args, **kwargs)

        return fit_qs_model

    with contextlib.ExitStack() as stack:
        add_layer_wrappers(stack, rec, counters)
        stack.enter_context(
            patched(executor_mod.ConcurrentExecutor, "run", engine_run_wrapper(rec, counters))
        )
        stack.enter_context(patched(training_mod, "run_batch", wrap_batch))
        for name in ("run_steady_state", "mix_streams", "trimmed_samples"):
            stack.enter_context(
                patched(training_mod, name, lambda fn: rec.wrap("sampling.steady_state", fn))
            )
        stack.enter_context(patched(contender_mod, "fit_qs_model", wrap_fit))
        yield


def add_layer_wrappers(stack, rec: SpanRecorder, counters: Dict) -> None:
    """Wrap ``TemplateCatalog.plan`` and ``compile_plan`` (shared with sched).

    Each compile is keyed by ``(template, instance parameters)`` — the
    inputs that determine the compiled profile — so the trace can report
    how many compiles produced a profile already compiled before.
    """
    import repro.workload.catalog as catalog_mod

    last = {"params": None, "key": None}
    keys: Dict = counters.setdefault("keys", {})

    def wrap_draw(fn):
        def draw_params(*args, **kwargs):
            params = fn(*args, **kwargs)
            last["params"] = params
            return params

        return draw_params

    def wrap_plan(fn):
        def plan(self, template_id, rng=None):
            last["params"] = None
            idx = rec.open("workload.plan")
            try:
                return fn(self, template_id, rng)
            finally:
                rec.close(idx)
                last["key"] = (template_id, last["params"])

        return plan

    def wrap_compile(fn):
        def compile_plan(*args, **kwargs):
            key = last["key"]
            keys[key] = keys.get(key, 0) + 1
            idx = rec.open("engine.compile")
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return compile_plan

    stack.enter_context(patched(catalog_mod, "draw_params", wrap_draw))
    stack.enter_context(patched(catalog_mod.TemplateCatalog, "plan", wrap_plan))
    stack.enter_context(patched(catalog_mod, "compile_plan", wrap_compile))


def engine_run_wrapper(rec: SpanRecorder, counters: Dict):
    """Wrapper factory for ``ConcurrentExecutor.run``: a span plus its events."""

    def wrap_run(fn):
        def run(self, *args, **kwargs):
            idx = rec.open("engine.run")
            try:
                result = fn(self, *args, **kwargs)
            finally:
                rec.close(idx)
            counters["events"] += result.events
            return result

        return run

    return wrap_run


def compile_unique_ratio(counters: Dict) -> float:
    keys = counters.get("keys", {})
    calls = sum(keys.values())
    return len(keys) / calls if calls else 0.0


def engine_counters(rec: SpanRecorder, counters: Dict) -> Dict[str, float]:
    table = rec.by_name()
    engine_s = sum(
        table.get(name, {"self_s": 0.0})["self_s"]
        for name in ("engine.run", "engine.batched")
    )
    events = float(counters["events"])
    return {
        "engine.events": events,
        "engine.events_per_s": events / engine_s if engine_s else 0.0,
        "engine.compile.unique_ratio": compile_unique_ratio(counters),
    }


def _campaign_counters(rec, counters, registry, program_trace) -> Dict[str, float]:
    out = engine_counters(rec, counters)
    occupancy = counters["occupancy"]
    out["engine.batched.batches"] = float(len(occupancy))
    out["engine.batched.occupancy"] = (
        sum(occupancy) / len(occupancy) if occupancy else 0.0
    )
    for phase in ("design", "execute", "assemble"):
        spans = program_trace.find(f"campaign.{phase}")
        out[f"core.campaign.{phase}_s"] = sum(s.duration for s in spans)
    tasks = registry.get("campaign_tasks_total")
    by_kind = {labels[0]: child.value for labels, child in tasks.children()} if tasks else {}
    for kind in ("profile", "spoiler", "mix"):
        out[f"core.campaign.tasks.{kind}"] = float(by_kind.get(kind, 0.0))
    return out


def teardown(ctx: Dict) -> None:
    pass
