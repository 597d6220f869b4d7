"""``POST /v1/explain``: blame reports served with generation fencing."""

import json

import pytest

from repro.config import LifecycleConfig, ServingConfig
from repro.errors import ProtocolError, ServingError
from repro.serving import (
    ModelRegistry,
    PredictionClient,
    RegistryModelProvider,
    ServingApp,
    save_artifact,
)

MIX = [26, 71]


@pytest.fixture(scope="module")
def artifact_path(small_contender, tmp_path_factory):
    path = tmp_path_factory.mktemp("explain") / "model.json"
    save_artifact(small_contender, path)
    return path


@pytest.fixture(scope="module")
def app(artifact_path):
    registry = ModelRegistry()
    registry.register("default", artifact_path)
    provider = RegistryModelProvider(registry, "default")
    app = ServingApp(
        provider, config=ServingConfig(workers=1, batch_window=0.0)
    )
    yield app
    app.close()


def _post_explain(app, doc):
    response = app.handle("POST", "/v1/explain", json.dumps(doc).encode())
    return response.status, json.loads(response.body.decode())


def test_explain_returns_report_and_ranking(app):
    status, doc = _post_explain(app, {"mix": MIX})
    assert status == 200
    assert doc["cached"] is False
    assert doc["model_version"]
    report = doc["report"]
    assert report["mix"] == MIX
    assert report["max_residual"] <= 1e-6
    primaries = [entry["template_id"] for entry in report["templates"]]
    assert primaries == sorted(set(MIX))
    # Each primary's ranking names the other member of the pair first.
    assert doc["top"]["26"][0] == 71
    assert doc["top"]["71"][0] == 26


def test_explain_is_cached_and_identical_on_repeat(app):
    first_status, first = _post_explain(app, {"mix": MIX})
    status, second = _post_explain(app, {"mix": MIX})
    assert first_status == status == 200
    assert second["cached"] is True
    assert second["report"] == first["report"]
    assert app.counter_snapshot()["explain"] >= 2


def test_explain_top_k_truncates(app):
    status, doc = _post_explain(app, {"mix": [26, 71, 65], "top_k": 1})
    assert status == 200
    assert all(len(ranked) == 1 for ranked in doc["top"].values())


def test_explain_rejects_bad_requests(app):
    status, doc = _post_explain(app, {"mix": []})
    assert status == 400
    assert doc["type"] == "protocol"
    status, doc = _post_explain(app, {"mix": MIX, "top_k": 0})
    assert status == 400


def test_explain_unknown_template_maps_to_422(app):
    status, doc = _post_explain(app, {"mix": [26, 987654]})
    assert status == 422
    assert doc["type"] == "model"


def test_explain_backend_is_lazy_and_reused(app):
    first = app._explain_parts()
    assert app._explain_parts() is first


def test_client_explain_round_trip(app, serve_http):
    with serve_http(app) as port:
        with PredictionClient("127.0.0.1", port) as cli:
            response = cli.explain(MIX, top_k=2)
            assert response.model_version
            assert response.top[26][0] == 71
            assert response.report["mix"] == MIX
            again = cli.explain(MIX, top_k=2)
            assert again.cached is True
            with pytest.raises(ProtocolError):
                cli.explain([])


#: Small windows so drift latches within a handful of observations.
FAST = LifecycleConfig(
    reference_window=4, test_window=2, min_samples=4, residual_window=8
)


def test_stats_attach_root_cause_for_drifted_templates(artifact_path):
    registry = ModelRegistry()
    registry.register("default", artifact_path)
    provider = RegistryModelProvider(registry, "default")
    app = ServingApp(
        provider,
        config=ServingConfig(workers=1, batch_window=0.0),
        lifecycle=FAST,
    )
    try:
        predicted = 100.0
        for i in range(14):
            observed = 100.0 if i < 8 else 150.0
            app.ingest_observation(26, predicted, observed, mix=tuple(MIX))
        assert app.monitor.drifted_templates() == [26]
        response = app.handle("GET", "/v1/stats", b"")
        doc = json.loads(response.body.decode())
        root_cause = doc["lifecycle"]["root_cause"]
        analysis = root_cause["26"]
        assert analysis["mixes"] == [MIX]
        assert analysis["top"][0]["template_id"] == 71
    finally:
        app.close()


def test_observation_without_mix_skips_root_cause(artifact_path):
    registry = ModelRegistry()
    registry.register("default", artifact_path)
    provider = RegistryModelProvider(registry, "default")
    app = ServingApp(
        provider,
        config=ServingConfig(workers=1, batch_window=0.0),
        lifecycle=FAST,
    )
    try:
        for i in range(14):
            observed = 100.0 if i < 8 else 150.0
            app.ingest_observation(26, 100.0, observed)
        assert app.monitor.drifted_templates() == [26]
        snapshot = app.monitor.snapshot()
        assert "root_cause" not in snapshot
    finally:
        app.close()


def test_ingest_observation_requires_monitor(artifact_path):
    registry = ModelRegistry()
    registry.register("default", artifact_path)
    provider = RegistryModelProvider(registry, "default")
    app = ServingApp(
        provider,
        config=ServingConfig(workers=1, batch_window=0.0),
        lifecycle=LifecycleConfig(enabled=False),
    )
    try:
        with pytest.raises(ServingError, match="disabled"):
            app.ingest_observation(26, 1.0, 1.0)
    finally:
        app.close()
