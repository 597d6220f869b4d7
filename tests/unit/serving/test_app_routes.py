"""Routes of the serving core driven in-process through ``ServingApp.handle``.

HTTP transports answer ``predict-batch`` and ``observe`` from forked
workers; these cases pin the same routes on the synchronous handler.
"""

import json

import pytest

from repro.config import LifecycleConfig
from repro.serving import save_artifact

MIX = [26, 65]

#: Small windows so drift latches within a handful of observations.
FAST = LifecycleConfig(
    reference_window=4, test_window=2, min_samples=4, residual_window=16
)


@pytest.fixture(scope="module")
def artifact_path(small_contender, tmp_path_factory):
    path = tmp_path_factory.mktemp("routes") / "model.json"
    save_artifact(small_contender, path)
    return path


def _post(app, path, doc):
    response = app.handle("POST", path, json.dumps(doc).encode())
    return response.status, json.loads(response.body)


def test_predict_batch_route_matches_the_model(
    small_contender, artifact_path, make_app
):
    app = make_app(artifact_path)
    try:
        items = [{"primary": p, "mix": MIX} for p in MIX]
        status, doc = _post(app, "/v1/predict-batch", {"items": items})
        assert status == 200
        served = [item["latency"] for item in doc["items"]]
        assert served == [
            small_contender.predict_known(p, tuple(MIX)) for p in MIX
        ]
        assert app.counter_snapshot()["predict_batch"] == 1
    finally:
        app.close()


def test_observe_route_ingests_and_reports_drift(artifact_path, make_app):
    app = make_app(artifact_path, lifecycle=FAST)
    try:
        status, doc = _post(app, "/v1/predict", {"primary": 26, "mix": MIX})
        assert status == 200
        latency = doc["latency"]
        verdicts = []
        for factor in (1.02,) * 4 + (2.0,) * 4:
            status, doc = _post(
                app,
                "/v1/observe",
                {"primary": 26, "mix": MIX, "observed_latency": latency * factor},
            )
            assert status == 200
            assert doc["predicted"] == latency
            assert doc["residual"] == pytest.approx(1.0 - 1.0 / factor)
            verdicts.append(doc["verdict"])
        # No fan-in sink in-process: verdicts come back inline.
        assert doc["drifted"] is True
        assert any(v is not None for v in verdicts)
        stats = json.loads(app.handle("GET", "/v1/stats", b"").body)
        assert stats["lifecycle"]["drifted"] == [26]
    finally:
        app.close()


def test_observe_route_without_monitor_is_a_serving_error(
    artifact_path, make_app
):
    app = make_app(artifact_path, lifecycle=LifecycleConfig(enabled=False))
    try:
        status, doc = _post(
            app,
            "/v1/observe",
            {"primary": 26, "mix": MIX, "observed_latency": 1.0},
        )
        assert status == 503
        assert "disabled" in doc["error"]
    finally:
        app.close()
