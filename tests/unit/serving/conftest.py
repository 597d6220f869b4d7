"""Serving-tier fixtures: a ServingApp reachable over HTTP in this process.

Production HTTP runs in forked workers (``MultiWorkerServer``), where
``scripts/coverage_check.py`` cannot trace it.  Unit tests that need a
socket instead run the same connection handler the workers run
(:func:`repro.serving.frontend._serve_connection`) on an event loop in a
background thread of the test process.
"""

import asyncio
import contextlib
import threading

import pytest

from repro.config import ServingConfig
from repro.serving import ModelRegistry, RegistryModelProvider, ServingApp
from repro.serving.frontend import _serve_connection


def _make_app(artifact_path, **kwargs) -> ServingApp:
    registry = ModelRegistry()
    registry.register("default", artifact_path)
    kwargs.setdefault("config", ServingConfig(workers=1, batch_window=0.0))
    return ServingApp(RegistryModelProvider(registry, "default"), **kwargs)


@contextlib.contextmanager
def _serve(app: ServingApp):
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def run(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(10.0)

    server = run(
        asyncio.start_server(
            lambda r, w: _serve_connection(app, r, w), "127.0.0.1", 0
        )
    )

    async def stop():
        server.close()
        await server.wait_closed()
        current = asyncio.current_task()
        tasks = [t for t in asyncio.all_tasks() if t is not current]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await loop.shutdown_default_executor()

    try:
        yield server.sockets[0].getsockname()[1]
    finally:
        run(stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5.0)
        loop.close()


@pytest.fixture(scope="session")
def make_app():
    """``make_app(path, **kwargs)`` — a ServingApp over a registry holding
    the artifact at *path* (no batch window, one batch worker unless
    ``config=`` says otherwise).  The caller closes it."""
    return _make_app


@pytest.fixture(scope="session")
def serve_http():
    """``with serve_http(app) as port:`` — *app* over HTTP on 127.0.0.1."""
    return _serve
