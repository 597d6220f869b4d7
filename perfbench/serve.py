"""``serve``: open-loop HTTP traffic against ``MultiWorkerServer``.

The server runs in its own process with one worker (so ``/metrics`` and
``/v1/stats`` cover all traffic and the second core is left to the load
generator), serving the seed's full campaign model.  The traffic mix:

* ~70% ``/v1/predict``: half the keys come from a hot pool of 64 mixes
  that fits the 4,096-entry cache, half are fresh MPL 2-5 mixes;
* ~20% ``/v1/predict-batch`` of 8 candidates, a scheduler's window: one
  of 16 running mixes plus each candidate, so windows repeat and are
  mostly cached;
* ~10% ``/v1/observe``, each carrying the campaign-measured latency of a
  training mix, so residuals stay stationary and no drift latches.

Phases: a warm-up, a light rate, a heavy rate (250/s, 30-40% of what two
saturating connections complete), five closed-loop bursts of a fixed
request count and, in the traced run only, a rising rate ladder stopped
at the first rate that misses the latency limit.  The per-layer split comes from replaying requests of
the same mix through an in-process ``ServingApp.handle`` with the model's
``Contender``, the cache, the batcher and the app's monitor wrapped from
outside; the server itself is never patched.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

from . import estimators as est
from . import loadgen, train
from .spans import SpanRecorder, layer_metrics, patched, reconcile

CONNECTIONS = 2
HOT_KEYS = 64
RUNNING_MIXES = 16
WINDOW = 8
#: Shares of predict and predict-batch requests; observe takes the rest.
PREDICT_SHARE, BATCH_SHARE = 0.7, 0.2

WARMUP = (200.0, 200)  # (rate per second, requests)
LIGHT_RATE = 100.0
HEAVY_RATE = 250.0
LADDER_START, LADDER_STEP, LADDER_TOP = 400.0, 50.0, 2000.0
#: Tail latency (all request kinds, from due time) a ladder rate must meet.
LIMIT_MS = 25.0
#: Rise in mean queueing delay across a ladder step that counts as backlog.
BACKLOG_SLACK_MS = 5.0
#: The closed-loop job: BURSTS bursts of BURST requests each.
BURST, BURSTS = 250, 5
REPLAY = 500
#: Consecutive slices of the heavy phase behind op_p50_ms and op_tail_ms.
SLICES = 4

RECONCILE_TOLERANCE = 0.05

LAYERS = {
    "serving.app": {"serving.app.self_s": "self_s"},
    "serving.protocol.parse": {"serving.protocol.parse_s": "self_s"},
    "serving.serialize": {"serving.serialize_s": "self_s"},
    "serving.cache": {"serving.cache.self_s": "self_s"},
    "serving.batcher.wait": {"serving.batcher.wait_s": "self_s"},
    "core.predict_many": {
        "core.predict_many.calls": "calls",
        "core.predict_many.self_s": "self_s",
    },
    "lifecycle.ingest": {
        "lifecycle.ingest.calls": "calls",
        "lifecycle.ingest.self_s": "self_s",
    },
}

ENDPOINTS = {"predict": "predict", "batch": "predict_batch", "observe": "observe"}


# ----------------------------------------------------------------------
# Set-up: campaign, fit, artifact, server process.


def setup(workload: str, root: Path, seed: int) -> Dict:
    from repro.core.training import collect_training_data
    from repro.serving import save_artifact

    catalog = train.catalog_for("virtual_time")
    data = collect_training_data(
        catalog, mpls=train.MPLS, lhs_runs_per_mpl=train.LHS_RUNS, seed=seed, jobs=1
    )
    contender = train.fit(data)
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=work))
    artifact = workdir / "model.json"
    save_artifact(contender, artifact)
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("serve_proc.py")),
         str(root / "src"), str(artifact)],
        stdout=subprocess.PIPE,
        text=True,
    )
    ctx = {"proc": proc, "workdir": workdir, "artifact": artifact,
           "contender": contender, "data": data}
    try:
        line = proc.stdout.readline().split()
        if len(line) != 3 or line[0] != "READY":
            raise RuntimeError(f"server did not start: {line!r}")
        ctx["port"], ctx["worker_pid"] = int(line[1]), int(line[2])
    except BaseException:
        teardown(ctx)
        raise
    return ctx


def teardown(ctx: Dict) -> None:
    proc = ctx["proc"]
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    proc.stdout.close()
    shutil.rmtree(ctx["workdir"], ignore_errors=True)


# ----------------------------------------------------------------------
# Traffic.


class Traffic:
    """Seeded request payloads ``(kind, args, expected)``.

    ``expected`` is the in-process ``predict_known`` answer for every key
    (on the sorted mix, as the server computes it), so each reply can be
    checked for bit equality.
    """

    def __init__(self, contender, data, seed: int):
        self.rng = random.Random(seed)
        self.contender = contender
        self.templates = list(contender.template_ids)
        self.hot = [self._fresh() for _ in range(HOT_KEYS)]
        self.running = [
            tuple(self.rng.sample(self.templates, self.rng.randint(1, 4)))
            for _ in range(RUNNING_MIXES)
        ]
        self.observations = [
            (obs.primary, obs.mix, obs.latency)
            for mpl in sorted(data.observations)
            for obs in data.observations[mpl]
        ]
        self._expected: Dict[Tuple[int, Tuple[int, ...]], float] = {}

    def _fresh(self) -> Tuple[int, Tuple[int, ...]]:
        mix = tuple(self.rng.sample(self.templates, self.rng.randint(2, 5)))
        return self.rng.choice(mix), mix

    def expected(self, primary: int, mix) -> float:
        key = (primary, tuple(sorted(mix)))
        if key not in self._expected:
            self._expected[key] = self.contender.predict_known(*key)
        return self._expected[key]

    def _key(self) -> Tuple[int, Tuple[int, ...]]:
        return self.rng.choice(self.hot) if self.rng.random() < 0.5 else self._fresh()

    def payload(self):
        u = self.rng.random()
        if u < PREDICT_SHARE:
            primary, mix = self._key()
            return ("predict", (primary, mix), self.expected(primary, mix))
        if u < PREDICT_SHARE + BATCH_SHARE:
            running = self.rng.choice(self.running)
            items = [
                (c, running + (c,))
                for c in self.rng.sample(
                    [t for t in self.templates if t not in running], WINDOW
                )
            ]
            return ("batch", items, [self.expected(p, m) for p, m in items])
        primary, mix, observed = self.rng.choice(self.observations)
        return ("observe", (primary, mix, observed), self.expected(primary, mix))

    def phase(self, rate: float, count: int):
        return (
            loadgen.poisson_offsets(self.rng, rate, count),
            [self.payload() for _ in range(count)],
        )


def make_sender(client, version: str):
    from repro.serving.protocol import PredictRequest

    def send(payload) -> bool:
        kind, args, expected = payload
        if kind == "predict":
            r = client.predict(*args)
            return r.latency == expected and r.model_version == version
        if kind == "batch":
            r = client.predict_batch(
                [PredictRequest(primary=p, mix=tuple(m)) for p, m in args]
            )
            return [i.latency for i in r.items] == expected and all(
                i.model_version == version for i in r.items
            )
        r = client.observe(*args)
        return r.predicted == expected and r.model_version == version

    return send


def _kind(payload) -> str:
    return payload[0]


# ----------------------------------------------------------------------
# The HTTP phases.


def _phase(traffic, send, rate, count):
    offsets, payloads = traffic.phase(rate, count)
    return loadgen.run_open_loop(offsets, payloads, send, _kind, CONNECTIONS)


def max_rate(steps: List[Tuple[float, float, bool]]) -> float:
    """Highest sustainable rate from ladder ``(rate, tail_ms, passed)`` steps.

    Interpolates linearly between the last passing step and the first
    failing one at the rate where the tail crosses :data:`LIMIT_MS`, so
    the estimate is continuous rather than one of the ladder's rungs.
    """
    prev = None
    for rate, tail_ms, passed in steps:
        if not passed:
            if prev is None:
                return rate * min(1.0, LIMIT_MS / tail_ms)
            p_rate, p_tail = prev
            if tail_ms <= LIMIT_MS or tail_ms <= p_tail:
                return p_rate
            return p_rate + (rate - p_rate) * (LIMIT_MS - p_tail) / (tail_ms - p_tail)
        prev = (rate, tail_ms)
    return steps[-1][0]


def run_http(ctx: Dict, seed: int, seconds: float, ladder: bool) -> Dict:
    """The HTTP phases; the rate ladder only when *ladder* is set."""
    from repro.serving import PredictionClient

    client = PredictionClient("127.0.0.1", ctx["port"])
    try:
        version = client.health().model_version
        traffic = Traffic(ctx["contender"], ctx["data"], seed)
        send = make_sender(client, version)
        phases: Dict[str, List[loadgen.Record]] = {}
        phases["warmup"] = _phase(traffic, send, *WARMUP)
        phases["light"] = _phase(
            traffic, send, LIGHT_RATE, round(LIGHT_RATE * max(1.5, 0.15 * seconds))
        )
        phases["heavy"] = _phase(
            traffic, send, HEAVY_RATE, round(HEAVY_RATE * max(2.0, 0.55 * seconds))
        )
        for i in range(BURSTS):
            payloads = [traffic.payload() for _ in range(BURST)]
            phases[f"burst-{i}"] = loadgen.run_open_loop(
                [0.0] * BURST, payloads, send, _kind, CONNECTIONS
            )
        steps = []
        rate = LADDER_START
        step_s = max(0.5, 0.05 * seconds)
        while ladder and rate <= LADDER_TOP:
            records = _phase(traffic, send, rate, round(rate * step_s))
            phases[f"ladder-{int(rate)}"] = records
            tail_ms = est.tail(loadgen.latencies(records))[1]
            passed = (
                tail_ms <= LIMIT_MS
                and not loadgen.backlog_growing(records, BACKLOG_SLACK_MS)
            )
            steps.append((rate, tail_ms, passed))
            if not passed:
                break
            rate += LADDER_STEP
        # Before the scrape: a drift verdict makes /v1/stats run the
        # root-cause simulations inside the worker.
        peak_rss_mb = est.proc_peak_rss_mb(ctx["worker_pid"])
        stats = client.stats()
        metrics_text = client.metrics_text()
    finally:
        client.close()
    return {
        "phases": phases,
        "steps": steps,
        "stats": stats,
        "metrics_text": metrics_text,
        "peak_rss_mb": peak_rss_mb,
    }


def check_server(run: Dict, failures: List[str]) -> None:
    """Request counters equal requests sent, and every request succeeded.

    Drifted templates are reported (``lifecycle.drifted``), not failed
    on: the monitor's latching detectors raise false drift on stationary
    residuals of randomly drawn training mixes after a few hundred
    observations, so a drift verdict here is a finding about the
    detectors, not a wrong served answer.
    """
    sent: Dict[str, int] = {}
    for records in run["phases"].values():
        for r in records:
            sent[ENDPOINTS[r.kind]] = sent.get(ENDPOINTS[r.kind], 0) + 1
    counted = run["stats"]["requests"]
    for endpoint, count in sent.items():
        if counted.get(endpoint, 0) != count:
            failures.append(
                f"/v1/stats counts {counted.get(endpoint, 0)} {endpoint} "
                f"requests, the generator sent {count}"
            )
    for name, records in run["phases"].items():
        bad = sum(1 for r in records if not r.ok)
        if bad:
            failures.append(f"{name}: {bad} of {len(records)} requests failed or were wrong")


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 1e9


def measure(workload: str, ctx: Dict, seed: int, seconds: float, recorded: Dict) -> Dict:
    run = run_http(ctx, seed, seconds, ladder=False)
    failures: List[str] = []
    check_server(run, failures)
    heavy = loadgen.latencies(run["phases"]["heavy"])
    pct, tail_ms, n = est.segmented_tail(heavy, SLICES)
    size = len(heavy) // SLICES
    bursts = [rs for name, rs in run["phases"].items() if name.startswith("burst")]
    records = [r for rs in run["phases"].values() for r in rs]
    job_s = est.steady([max(r.done for r in b) - min(r.due for r in b) for b in bursts])
    metrics = {
        "job_s": job_s,
        "peak_rss_mb": run["peak_rss_mb"],
        "op_p50_ms": _finite(
            est.steady([est.median(heavy[i * size : (i + 1) * size]) for i in range(SLICES)])
        ),
        "op_tail_ms": _finite(tail_ms),
        "rate_per_s": BURST / job_s,
    }
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "failures": failures,
        "notes": _notes(run, pct, n),
    }


def _notes(run: Dict, pct: float, n: int) -> List[str]:
    lines = [
        f"heavy-rate tail: median over {SLICES} slices of the p{pct} "
        f"of n={n} requests each (all kinds, from due time)"
    ]
    for name, records in run["phases"].items():
        ok = sum(1 for r in records if r.ok)
        lines.append(
            f"phase {name}: sent={len(records)} succeeded={ok} "
            f"failed={len(records) - ok} late_tail_ms={loadgen.late_tail_ms(records):.3f}"
            if len(records) > 10
            else f"phase {name}: sent={len(records)} succeeded={ok}"
        )
    if run["steps"]:
        lines.append(
            "ladder (rate, tail ms, passed): "
            + ", ".join(f"({r:.0f}, {t:.2f}, {p})" for r, t, p in run["steps"])
            + f"; limit {LIMIT_MS} ms; max_rps {max_rate(run['steps']):.1f}"
        )
    return lines


# ----------------------------------------------------------------------
# The traced pass.


_SERIES = re.compile(r'^(\w+)\{endpoint="(\w+)"\} (\S+)$')


def request_seconds(metrics_text: str) -> Dict[str, Tuple[float, float]]:
    """``{endpoint: (sum_s, count)}`` of ``serving_request_seconds``."""
    sums: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for line in metrics_text.splitlines():
        m = _SERIES.match(line)
        if not m:
            continue
        name, endpoint, value = m.groups()
        if name == "serving_request_seconds_sum":
            sums[endpoint] = float(value)
        elif name == "serving_request_seconds_count":
            counts[endpoint] = float(value)
    return {e: (sums[e], counts[e]) for e in sums if e in counts}


def http_layer_metrics(run: Dict) -> Dict[str, float]:
    stats = run["stats"]
    out: Dict[str, float] = {}
    cache = stats["cache"]
    batching = stats["batching"]
    out["serving.cache.hit_ratio"] = float(cache["hit_rate"])
    out["serving.cache.evictions"] = float(cache["evictions"])
    out["serving.batcher.mean_batch"] = batching["requests"] / max(1, batching["batches"])
    out["serving.batcher.coalesced_ratio"] = batching["coalesced"] / max(1, batching["requests"])
    server = request_seconds(run["metrics_text"])
    for endpoint in ENDPOINTS.values():
        total, count = server.get(endpoint, (0.0, 0.0))
        out[f"serving.request_s.{endpoint}"] = total / count if count else 0.0
    records = [r for rs in run["phases"].values() for r in rs]
    client_s = sum(r.done - r.sent for r in records)
    server_s = sum(server.get(e, (0.0, 0.0))[0] for e in ENDPOINTS.values())
    out["serving.transport_s"] = (client_s - server_s) / len(records)
    out["lifecycle.drifted"] = float(len(stats.get("lifecycle", {}).get("drifted", [])))
    out["loadgen.sent"] = float(len(records))
    out["loadgen.succeeded"] = float(sum(1 for r in records if r.ok))
    out["loadgen.failed"] = float(sum(1 for r in records if not r.ok))
    heavy = run["phases"]["heavy"]
    out["loadgen.late_p99_ms"] = loadgen.late_tail_ms(heavy)
    for kind, label in (("predict", "predict"), ("batch", "batch"), ("observe", "observe")):
        values = loadgen.latencies(heavy, kind)
        out[f"serving.e2e.{label}_p50_ms"] = _finite(est.median(values))
        out[f"serving.e2e.{label}_tail_ms"] = _finite(est.tail(values)[1])
    out["serving.e2e.max_rps"] = max_rate(run["steps"])
    out["serving.e2e.light_tail_ms"] = _finite(
        est.tail(loadgen.latencies(run["phases"]["light"]))[1]
    )
    return out


def _bodies(ctx: Dict, seed: int) -> List[Tuple[str, bytes, object]]:
    """:data:`REPLAY` requests of the seed's mix as ``(path, body, payload)``."""
    traffic = Traffic(ctx["contender"], ctx["data"], seed)
    out = []
    for payload in (traffic.payload() for _ in range(REPLAY)):
        kind, args, _ = payload
        if kind == "predict":
            path, doc = "/v1/predict", {"primary": args[0], "mix": list(args[1])}
        elif kind == "batch":
            path = "/v1/predict-batch"
            doc = {"items": [{"primary": p, "mix": list(m)} for p, m in args]}
        else:
            path = "/v1/observe"
            doc = {"primary": args[0], "mix": list(args[1]), "observed_latency": args[2]}
        out.append((path, json.dumps(doc).encode("utf-8"), payload))
    return out


def _replay(ctx: Dict, bodies, rec: SpanRecorder = None):
    """Replay *bodies* through a fresh in-process app.

    Returns ``(wall_s, failures, keys)``, *keys* being the batch size of
    every vectorized model call when *rec* traces the pass.
    """
    from repro.serving import ModelRegistry, RegistryModelProvider, ServingApp

    registry = ModelRegistry()
    registry.register("bench", ctx["artifact"])
    app = ServingApp(RegistryModelProvider(registry, "bench"))
    failures: List[str] = []
    clock = time.perf_counter
    wall = 0.0
    keys: List[int] = []
    with contextlib.ExitStack() as stack:
        if rec is not None:
            keys = _wrap_app(stack, rec, app, registry.get("bench"))
        try:
            for i, (path, body, payload) in enumerate(bodies):
                if rec is not None:
                    rec.request = i
                t0 = clock()
                if rec is not None:
                    with rec.span("serving.app"):
                        response = app.handle("POST", path, body)
                else:
                    response = app.handle("POST", path, body)
                wall += clock() - t0
                if response.status != 200 or not _reply_ok(payload, response.body):
                    failures.append(f"in-process {path} request {i} answered wrongly")
        finally:
            app.close()
    return wall, failures, keys


def _reply_ok(payload, body: bytes) -> bool:
    kind, _, expected = payload
    doc = json.loads(body)
    if kind == "predict":
        return doc["latency"] == expected
    if kind == "batch":
        return [item["latency"] for item in doc["items"]] == expected
    return doc["predicted"] == expected


class _TracedFuture:
    """A batcher future whose ``result`` closes the request's wait span."""

    def __init__(self, future, on_result):
        self._future = future
        self._on_result = on_result

    def result(self, timeout=None):
        try:
            return self._future.result(timeout)
        finally:
            self._on_result()


def _wrap_app(stack, rec: SpanRecorder, app, contender) -> List[int]:
    """Wrap parse, cache, batcher, model, monitor and serialize from outside.

    Returns the list that collects the key count of every vectorized
    model call.
    """
    import repro.serving.app as app_mod
    from repro.serving import protocol

    def wrap(name):
        return lambda fn: rec.wrap(name, fn)

    stack.enter_context(patched(app_mod, "decode_json", wrap("serving.protocol.parse")))
    for cls in (protocol.PredictRequest, protocol.BatchPredictRequest, protocol.ObserveRequest):
        stack.enter_context(patched(cls, "from_doc", wrap("serving.protocol.parse")))
    stack.enter_context(patched(app_mod.AppResponse, "from_doc", wrap("serving.serialize")))
    for cls in (protocol.PredictResponse, protocol.BatchPredictResponse, protocol.ObserveResponse):
        stack.enter_context(patched(cls, "to_doc", wrap("serving.serialize")))
    for attr in ("get", "put"):
        stack.enter_context(patched(app.cache, attr, wrap("serving.cache")))
    stack.enter_context(patched(app.monitor, "ingest", wrap("lifecycle.ingest")))
    stack.enter_context(patched(contender, "predict_known", wrap("core.predict_many")))

    keys: List[int] = []

    def wrap_many(fn):
        traced = rec.wrap("core.predict_many", fn)

        def predict_known_many(pairs):
            keys.append(len(pairs))
            return traced(pairs)

        return predict_known_many

    stack.enter_context(patched(contender, "predict_known_many", wrap_many))

    waiting = {"span": None, "outstanding": 0}

    def wrap_submit(fn):
        def submit(key):
            if waiting["span"] is None:
                waiting["span"] = rec.open("serving.batcher.wait")
            waiting["outstanding"] += 1
            return _TracedFuture(fn(key), resolved)

        return submit

    def resolved():
        waiting["outstanding"] -= 1
        if waiting["outstanding"] == 0:
            rec.close(waiting["span"])
            waiting["span"] = None

    stack.enter_context(patched(app.batcher, "submit", wrap_submit))
    return keys


def traced(workload: str, ctx: Dict, seed: int, seconds: float, recorded: Dict) -> Dict:
    run = run_http(ctx, seed, seconds, ladder=True)
    failures: List[str] = []
    check_server(run, failures)
    out = http_layer_metrics(run)

    bodies = _bodies(ctx, seed)
    untraced_s, replay_failures, _ = _replay(ctx, bodies)
    failures.extend(replay_failures)
    rec = SpanRecorder()
    traced_s, traced_failures, keys = _replay(ctx, bodies, rec)
    replay_failures += traced_failures
    failures.extend(traced_failures)
    gap = reconcile(rec, LAYERS, traced_s, RECONCILE_TOLERANCE, failures)
    out.update(layer_metrics(rec, LAYERS))
    out["core.predict_many.keys_per_call"] = sum(keys) / len(keys) if keys else 0.0
    out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    out["trace.reconcile_gap"] = gap
    rec.dump(Path(ctx["trace_dir"]) / f"{workload}-spans.jsonl")
    records = [r for rs in run["phases"].values() for r in rs]
    pct, _, n = est.segmented_tail(loadgen.latencies(run["phases"]["heavy"]), SLICES)
    return {
        "metrics": out,
        "attempted": len(records) + 2 * len(bodies),
        "failed": sum(1 for r in records if not r.ok) + (1 if replay_failures else 0),
        "failures": failures,
        "notes": _notes(run, pct, n)
        + [
            f"in-process replay of {len(bodies)} requests: traced {traced_s:.3f}s "
            f"vs untraced {untraced_s:.3f}s; self times reconcile within "
            f"{gap:.4f} (tolerance {RECONCILE_TOLERANCE})"
        ],
    }
