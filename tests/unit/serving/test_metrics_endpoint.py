"""The serving ``/metrics`` endpoint and its per-endpoint instruments.

Driven in-process through :meth:`ServingApp.handle`, so the shared
metrics registry is the test's own object.
"""

import contextlib
import json

import pytest

from repro.config import ServingConfig
from repro.obs.export import CONTENT_TYPE_LATEST
from repro.obs.metrics import Registry
from repro.serving import save_artifact


@pytest.fixture(scope="module")
def artifact_path(small_contender, tmp_path_factory):
    path = tmp_path_factory.mktemp("metrics") / "model.json"
    save_artifact(small_contender, path)
    return path


@pytest.fixture()
def serve(artifact_path, make_app):
    @contextlib.contextmanager
    def serve(metrics=None, **config_kwargs):
        defaults = dict(workers=1, batch_window=0.0)
        defaults.update(config_kwargs)
        app = make_app(
            artifact_path, config=ServingConfig(**defaults), metrics=metrics
        )
        try:
            yield app
        finally:
            app.close()

    return serve


def _predict(app, primary, mix):
    body = json.dumps({"primary": primary, "mix": list(mix)}).encode()
    return app.handle("POST", "/v1/predict", body)


def _metrics_text(app):
    response = app.handle("GET", "/metrics", b"")
    assert response.status == 200
    return response.body.decode("utf-8")


def _metric_value(text, name, **labels):
    """The value of *name* with exactly the given labels in exposition text."""
    wanted = {f'{k}="{v}"' for k, v in labels.items()}
    for line in text.splitlines():
        if not line.startswith(name):
            continue
        rest = line[len(name) :]
        if rest.startswith("{"):
            body, _, value = rest[1:].partition("} ")
            if set(body.split(",")) == wanted:
                return float(value)
        elif not wanted and rest.startswith(" "):
            return float(rest[1:])
    raise AssertionError(f"{name}{labels} not found in exposition:\n{text}")


def test_metrics_endpoint_serves_prometheus_text(serve):
    with serve() as app:
        assert _predict(app, 26, (26, 65)).status == 200
        assert _predict(app, 26, (26, 65)).status == 200  # cache hit
        assert app.handle("GET", "/v1/health", b"").status == 200
        assert _predict(app, 12345, (12345, 26)).status == 422
        text = _metrics_text(app)

    assert _metric_value(text, "serving_requests_total", endpoint="predict") == 3
    assert _metric_value(text, "serving_requests_total", endpoint="health") == 1
    assert _metric_value(text, "serving_errors_total", type="model") == 1
    assert (
        _metric_value(text, "serving_request_seconds_count", endpoint="predict")
        == 3
    )
    assert _metric_value(text, "serving_cache_hits") == 1
    assert _metric_value(text, "serving_cache_misses") == 2
    assert _metric_value(text, "serving_model_generation") == 1
    # The scrape itself is in flight while the page renders.
    assert _metric_value(text, "serving_requests_in_flight") == 1
    assert _metric_value(text, "serving_uptime_seconds") >= 0
    # The batcher saw work, and its histogram carries per-batch sizes.
    assert _metric_value(text, "serving_batch_size_count") >= 1


def test_metrics_content_type_and_unknown_endpoint_count(serve):
    with serve() as app:
        response = app.handle("GET", "/metrics", b"")
        assert response.status == 200
        assert response.content_type == CONTENT_TYPE_LATEST
        assert "# TYPE serving_requests_total counter" in response.body.decode()

        missing = app.handle("GET", "/nope", b"")
        assert missing.status == 404
        text = _metrics_text(app)
    assert _metric_value(text, "serving_requests_total", endpoint="unknown") == 1
    assert _metric_value(text, "serving_errors_total", type="not_found") == 1


def test_metrics_agree_with_stats_endpoint(serve):
    with serve() as app:
        for other in (65, 71, 65):
            assert _predict(app, 26, (26, other)).status == 200
        stats = json.loads(app.handle("GET", "/v1/stats", b"").body)
        text = _metrics_text(app)
    assert stats["metrics_enabled"] is True
    assert _metric_value(text, "serving_cache_hits") == stats["cache"]["hits"]
    assert _metric_value(text, "serving_cache_size") == stats["cache"]["size"]
    assert (
        _metric_value(text, "serving_batcher_requests")
        == stats["batching"]["requests"]
    )


def test_shared_registry_is_used_verbatim(serve):
    reg = Registry()
    reg.counter("unrelated_total").inc()
    with serve(metrics=reg) as app:
        assert app.metrics is reg
        app.handle("GET", "/v1/health", b"")
        text = _metrics_text(app)
    assert "unrelated_total 1" in text
    assert _metric_value(text, "serving_requests_total", endpoint="health") == 1


def test_disabled_metrics_404_and_skip_instruments(serve):
    with serve(metrics_enabled=False) as app:
        assert _predict(app, 26, (26, 65)).status == 200
        stats = json.loads(app.handle("GET", "/v1/stats", b"").body)
        assert stats["metrics_enabled"] is False
        assert app.handle("GET", "/metrics", b"").status == 404
        assert app.metrics is None
