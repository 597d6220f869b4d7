"""Serving-path benchmarks: end-to-end QPS and per-layer costs.

Measures what a deployment cares about, client-observed:

* sustained throughput and tail latency of the HTTP front end (one
  forked worker) under a repeated-mix load at 8 concurrent submitters
  (p50/p99/QPS land in the benchmark's ``extra_info``);
* the single-request round trip on a warm cache;
* the raw model call the server amortizes, for comparison.
"""

import pytest

from repro.config import ServingConfig
from repro.core.contender import Contender
from repro.serving import (
    LoadGenerator,
    MultiWorkerServer,
    PredictionClient,
    mix_pool_workload,
    save_artifact,
)

SUBMITTERS = 8
REQUESTS = 600


@pytest.fixture(scope="module")
def contender(ctx):
    return Contender(ctx.training_data())


@pytest.fixture(scope="module")
def server(contender, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-serving") / "model.json"
    save_artifact(contender, path)
    config = ServingConfig(port=0, workers=4, batch_window=0.001)
    with MultiWorkerServer(path, config) as srv:
        yield srv


def test_perf_serving_throughput(benchmark, contender, server):
    """Full load-test round: N submitters over a repeated-mix pool."""
    workload = mix_pool_workload(
        contender.template_ids, requests=REQUESTS, pool_size=24, seed=3
    )

    def run():
        return LoadGenerator(
            server.host, server.port, submitters=SUBMITTERS
        ).run(workload)

    report = benchmark.pedantic(run, rounds=3, warmup_rounds=1)
    assert report.errors == 0
    assert report.qps > 0
    assert report.p50_ms <= report.p99_ms
    benchmark.extra_info["qps"] = round(report.qps, 1)
    benchmark.extra_info["p50_ms"] = round(report.p50_ms, 3)
    benchmark.extra_info["p99_ms"] = round(report.p99_ms, 3)
    benchmark.extra_info["submitters"] = SUBMITTERS
    benchmark.extra_info["requests"] = REQUESTS
    print(
        f"\nserving throughput: {report.qps:,.0f} req/s, "
        f"p50 {report.p50_ms:.2f} ms, p99 {report.p99_ms:.2f} ms "
        f"({SUBMITTERS} submitters, {REQUESTS} requests)"
    )


def test_perf_single_round_trip_warm_cache(benchmark, server):
    """One HTTP predict on a keep-alive connection, cache warm."""
    with PredictionClient(server.host, server.port) as client:
        client.predict(26, (26, 65))  # warm the cache entry
        result = benchmark(client.predict, 26, (26, 65))
    assert result.latency > 0
    assert result.cached


def test_perf_direct_model_call(benchmark, contender):
    """The in-process prediction the server amortizes per unique mix."""
    contender.predict_known(26, (26, 65))  # warm the QS-model cache
    latency = benchmark(contender.predict_known, 26, (26, 65))
    assert latency > 0
