"""End-to-end serving tests: artifact → server → concurrent load client.

The acceptance path of the serving subsystem: start the HTTP front end
(one forked worker unless a test says otherwise) from a saved registry
artifact, drive it with the load client at 8 concurrent
submitters, and require (a) served predictions that match direct
``Contender.predict`` output exactly, (b) a cache hit rate above 50 % on
a repeated-mix workload, and (c) a throughput report with p50/p99/QPS.
"""

import dataclasses

import pytest

from repro.apps.admission import AdmissionController
from repro.config import ServingConfig
from repro.core.contender import SpoilerMode
from repro.core.isolated import perturb_profile
from repro.errors import ModelError, ProtocolError
from repro.serving import (
    LoadGenerator,
    MultiWorkerServer,
    PredictionClient,
    RemotePredictionBackend,
    mix_pool_workload,
    save_artifact,
)

SUBMITTERS = 8


@pytest.fixture(scope="module")
def artifact_path(small_contender, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "model.json"
    save_artifact(small_contender, path)
    return path


@pytest.fixture(scope="module")
def server(artifact_path):
    config = ServingConfig(port=0, workers=2, batch_window=0.001)
    with MultiWorkerServer(artifact_path, config) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with PredictionClient(server.host, server.port) as cli:
        yield cli


def test_served_predictions_match_direct_exactly(small_contender, client):
    ids = small_contender.template_ids
    for primary in ids:
        for other in ids:
            mix = (primary, other)
            served = client.predict(primary, mix).latency
            assert served == small_contender.predict_known(primary, mix)


def test_load_client_hits_cache_and_reports_percentiles(
    small_contender, server, client
):
    workload = mix_pool_workload(
        small_contender.template_ids, requests=400, pool_size=12, seed=7
    )
    report = LoadGenerator(
        server.host, server.port, submitters=SUBMITTERS
    ).run(workload)

    # (a) Every request succeeded and spot-checks match the model.
    assert report.errors == 0
    assert report.requests == 400
    sample = workload[0]
    assert client.predict(sample.primary, sample.mix).latency == (
        small_contender.predict_known(sample.primary, sample.mix)
    )

    # (b) Repeated mixes are memoized.
    stats = client.stats()
    assert stats["cache"]["hit_rate"] > 0.5

    # (c) The throughput report carries p50/p99/QPS.
    assert report.qps > 0
    assert 0 < report.p50_ms <= report.p99_ms <= report.max_ms
    table = report.format_table()
    assert "p50" in table and "p99" in table and "req/s" in table


def test_served_new_template_matches_direct(small_contender, client, rng):
    profile = dataclasses.replace(
        perturb_profile(small_contender.data.profile(71), rng),
        template_id=999,
    )
    mix = (999, 26)
    served = client.predict_new(profile, mix, spoiler_mode=SpoilerMode.KNN)
    assert served.latency == small_contender.predict_new(
        profile, mix, spoiler_mode=SpoilerMode.KNN
    )


def test_remote_admission_matches_embedded(small_contender, server):
    remote = AdmissionController(
        RemotePredictionBackend(PredictionClient(server.host, server.port)),
        sla_factor=1.5,
        max_mpl=3,
    )
    embedded = AdmissionController(small_contender, sla_factor=1.5, max_mpl=3)
    ids = small_contender.template_ids
    # The small fixture trains MPL 2 only, so keep mixes at |running| <= 1.
    for running in [(), (26,)]:
        for candidate in ids[:3]:
            assert remote.check(running, candidate) == embedded.check(
                running, candidate
            )
    # Beyond the trained MPL both sides fail identically (error parity).
    with pytest.raises(ModelError, match="MPL 3"):
        embedded.check((26, 65), 71)
    with pytest.raises(ModelError, match="MPL 3"):
        remote.check((26, 65), 71)


def test_predict_batch_matches_single_predicts(small_contender, client):
    from repro.serving.protocol import PredictRequest

    mix = (26, 65)
    items = [PredictRequest(primary=p, mix=mix) for p in mix]
    batched = client.predict_batch(items)
    assert len(batched.items) == len(items)
    for item, served in zip(items, batched.items):
        assert served.latency == small_contender.predict_known(
            item.primary, item.mix
        )


def test_remote_admission_uses_one_rpc_per_check(small_contender, server):
    raw_client = PredictionClient(server.host, server.port)
    calls = []
    original = raw_client._raw_request

    def counting(verb, path, doc=None):
        calls.append((verb, path))
        return original(verb, path, doc)

    raw_client._raw_request = counting
    controller = AdmissionController(
        RemotePredictionBackend(raw_client), sla_factor=1.5, max_mpl=3
    )

    controller.check((26,), 65)
    # First check: one batched predict for the whole simulated mix,
    # then one health RPC (isolated latencies, cached thereafter).
    assert calls == [
        ("POST", "/v1/predict-batch"),
        ("GET", "/v1/health"),
    ]

    calls.clear()
    controller.check((65,), 71)
    # Steady state: a 2-member mix is priced by exactly one RPC, not
    # one per member.
    assert calls == [("POST", "/v1/predict-batch")]


def test_admit_endpoint_mirrors_controller(small_contender, client):
    embedded = AdmissionController(small_contender, sla_factor=1.5, max_mpl=5)
    decision = embedded.check((26,), 65)
    served = client.admit((26,), 65, sla_factor=1.5, max_mpl=5)
    assert served.admitted == decision.admitted
    assert served.worst_ratio == decision.worst_ratio
    assert served.mix_after == decision.mix_after


def test_admit_mpl_cap_over_the_wire(client):
    served = client.admit((26, 65, 71), 22, max_mpl=3)
    assert not served.admitted
    assert served.worst_ratio == float("inf")


def test_health_reports_model_and_templates(small_contender, client):
    health = client.health()
    assert health.status == "ok"
    assert list(health.template_ids) == small_contender.template_ids
    assert health.model_version.startswith("v1-")
    assert health.isolated_latencies[26] == (
        small_contender.data.profile(26).isolated_latency
    )


def test_unknown_template_is_model_error(client):
    with pytest.raises(ModelError):
        client.predict(12345, (12345, 26))


def test_malformed_request_is_protocol_error(client):
    with pytest.raises(ProtocolError):
        client.predict(26, (65, 71))  # primary not in mix


def test_unknown_endpoint_is_404(server):
    import http.client

    conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
    try:
        conn.request("GET", "/nope")
        response = conn.getresponse()
        response.read()
        assert response.status == 404
    finally:
        conn.close()


def test_reload_noop_when_artifact_unchanged(client):
    answer = client.reload()
    assert answer["reloaded"] is False


def test_hot_reload_swaps_model_and_clears_cache(
    small_contender, small_training_data, tmp_path
):
    from repro.core.contender import Contender

    path = tmp_path / "hot.json"
    save_artifact(small_contender, path)
    config = ServingConfig(port=0, workers=1, batch_window=0.0)
    with MultiWorkerServer(path, config) as srv:
        with PredictionClient(srv.host, srv.port) as cli:
            before = cli.health().model_version
            cli.predict(26, (26, 65))

            import os

            smaller = small_training_data.restricted_to(
                [t for t in small_training_data.template_ids if t != 22]
            )
            save_artifact(Contender(smaller), path)
            os.utime(path, (1, 1))

            answer = cli.reload()
            assert answer["reloaded"] is True
            assert answer["model_version"] != before
            # The swapped model no longer knows template 22.
            with pytest.raises(ModelError):
                cli.predict(22, (22, 26))
            assert cli.stats()["cache"]["size"] == 0


def test_reload_under_concurrent_traffic_never_mixes_models(
    small_contender, small_training_data, tmp_path
):
    """Flip the artifact A/B under live ``/predict`` load.

    Every response pairs a latency with the version that produced it; a
    half-swapped model would show one version's tag with the other
    version's number.
    """
    import os
    import threading

    from repro.core.contender import Contender
    from repro.serving import load_artifact

    mix = (26, 65)
    smaller = Contender(
        small_training_data.restricted_to(
            [t for t in small_training_data.template_ids if t != 22]
        )
    )
    blobs, expected = [], {}
    for i, model in enumerate((small_contender, smaller)):
        variant = tmp_path / f"variant{i}.json"
        save_artifact(model, variant)
        expected[load_artifact(variant).info.version] = model.predict_known(
            mix[0], mix
        )
        blobs.append(variant.read_bytes())
    assert len(set(expected.values())) == 2, "variants must predict apart"

    path = tmp_path / "live.json"
    path.write_bytes(blobs[0])
    config = ServingConfig(
        port=0, workers=2, batch_window=0.0, worker_processes=2
    )
    with MultiWorkerServer(path, config) as srv:
        stop = threading.Event()
        failures = []

        def drive():
            with PredictionClient(srv.host, srv.port) as cli:
                while not stop.is_set():
                    resp = cli.predict(mix[0], mix)
                    if resp.latency != expected[resp.model_version]:
                        failures.append((resp.model_version, resp.latency))
                        return

        drivers = [threading.Thread(target=drive) for _ in range(4)]
        for t in drivers:
            t.start()
        try:
            with PredictionClient(srv.host, srv.port) as admin:
                for flip in range(1, 9):
                    path.write_bytes(blobs[flip % 2])
                    os.utime(path, (flip, flip))
                    assert admin.reload()["reloaded"] is True
        finally:
            stop.set()
            for t in drivers:
                t.join()
        assert failures == []


def test_graceful_shutdown_refuses_new_connections(artifact_path):
    from repro.errors import ServingError

    config = ServingConfig(port=0, workers=1)
    server = MultiWorkerServer(artifact_path, config)
    server.start()
    with PredictionClient(server.host, server.port) as cli:
        assert cli.health().status == "ok"
    server.shutdown()
    server.shutdown()  # idempotent
    with pytest.raises(ServingError):
        with PredictionClient(server.host, server.port, timeout=1.0) as cli:
            cli.health()
