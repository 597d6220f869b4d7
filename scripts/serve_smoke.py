#!/usr/bin/env python3
"""Smoke test for the serving stack: pack -> serve -> 50 predictions.

Exercises the full deployment path in one process tree: collect a small
training campaign, pack it into a model artifact, start the HTTP
prediction server (one forked worker) on an ephemeral port, issue 50
predictions through
the client, and check a sample against the in-process model.  Exits
non-zero (with a message on stderr) on any failure, so it can gate CI:

    make serve-smoke        # or: python scripts/serve_smoke.py
"""

import sys
import tempfile
from pathlib import Path

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # a checkout without `make install`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.config import ServingConfig
from repro.core.contender import Contender
from repro.core.training import collect_training_data
from repro.sampling.steady_state import SteadyStateConfig
from repro.serving import (
    MultiWorkerServer,
    PredictionClient,
    mix_pool_workload,
    save_artifact,
)
from repro.workload.catalog import TemplateCatalog

TEMPLATES = (22, 26, 62, 65, 71)
REQUESTS = 50


def main() -> int:
    print("serve-smoke: collecting small training campaign ...")
    data = collect_training_data(
        TemplateCatalog().subset(TEMPLATES),
        mpls=(2,),
        lhs_runs_per_mpl=1,
        steady_config=SteadyStateConfig(samples_per_stream=3),
    )
    contender = Contender(data)

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        artifact = Path(tmp) / "model.json"
        info = save_artifact(contender, artifact)
        print(f"serve-smoke: packed {info.version} -> {artifact.name}")

        config = ServingConfig(port=0, workers=2, batch_window=0.001)
        with MultiWorkerServer(artifact, config) as server:
            print(f"serve-smoke: serving on {server.host}:{server.port}")
            workload = mix_pool_workload(
                contender.template_ids,
                requests=REQUESTS,
                pool_size=8,
                seed=11,
            )
            with PredictionClient(server.host, server.port) as client:
                if client.health().status != "ok":
                    raise AssertionError("health endpoint not ok")
                for request in workload:
                    result = client.predict(request.primary, request.mix)
                    if not result.latency > 0:
                        raise AssertionError(
                            f"non-positive latency for {request}"
                        )
                sample = workload[0]
                served = client.predict(sample.primary, sample.mix).latency
                direct = contender.predict_known(sample.primary, sample.mix)
                if served != direct:
                    raise AssertionError(
                        f"served {served!r} != direct {direct!r}"
                    )
                hit_rate = client.stats()["cache"]["hit_rate"]
            print(
                f"serve-smoke: {REQUESTS} predictions ok, sample matches "
                f"direct model exactly, cache hit rate {hit_rate:.0%}"
            )
    print("serve-smoke: PASS")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except AssertionError as exc:
        print(f"serve-smoke: FAIL: {exc}", file=sys.stderr)
        raise SystemExit(1)
