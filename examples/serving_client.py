#!/usr/bin/env python3
"""Serving: the prediction service from a client's point of view.

Contender normally lives inside the process that needs predictions.
The serving subsystem (``repro.serving``) instead packs a trained model
into a versioned JSON artifact and serves it over HTTP, so schedulers,
admission controllers, and dashboards can share one warm model.

This example runs the whole loop from one script:

1. train a small campaign and pack it into a model artifact,
2. start the prediction server (one forked worker process) on an
   ephemeral localhost port,
3. predict known-template latencies over the wire (exactly equal to the
   in-process model, and cached on repetition),
4. onboard a *new* template remotely from its isolated profile,
5. drive SLA-aware admission control through the remote backend,
6. measure throughput with the built-in load generator.

Run:  python examples/serving_client.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.apps.admission import AdmissionController
from repro.config import ServingConfig
from repro.core import Contender, SpoilerMode, collect_training_data
from repro.core.isolated import perturb_profile
from repro.sampling import SteadyStateConfig
from repro.serving import (
    LoadGenerator,
    MultiWorkerServer,
    PredictionClient,
    RemotePredictionBackend,
    mix_pool_workload,
    save_artifact,
)
from repro.workload import TemplateCatalog

TEMPLATES = (22, 26, 62, 65, 71)


def main() -> None:
    # --- 1. Train and pack.  `repro pack` does the same from the CLI.
    catalog = TemplateCatalog().subset(TEMPLATES)
    data = collect_training_data(
        catalog,
        mpls=(2,),
        lhs_runs_per_mpl=1,
        steady_config=SteadyStateConfig(samples_per_stream=3),
    )
    contender = Contender(data)
    tmp = tempfile.TemporaryDirectory(prefix="serving-example-")
    artifact = Path(tmp.name) / "model.json"
    info = save_artifact(contender, artifact)
    print(f"packed model {info.version} ({artifact.stat().st_size:,} bytes)")

    # --- 2. Serve it.  `repro serve model.json` does this from the CLI
    # (one worker per CPU there); port 0 picks a free ephemeral port.
    config = ServingConfig(port=0, workers=2, worker_processes=1)
    with MultiWorkerServer(artifact, config) as server:
        print(f"serving on http://{server.host}:{server.port}\n")
        with PredictionClient(server.host, server.port) as client:

            # --- 3. Known-template predictions over the wire.
            print("known-template predictions (served == in-process):")
            for primary, mix in [(26, (26, 65)), (22, (22, 71)), (62, (62, 26))]:
                served = client.predict(primary, mix)
                direct = contender.predict_known(primary, mix)
                assert served.latency == direct
                again = client.predict(primary, mix)
                print(
                    f"  T{primary} in {mix}: {served.latency:7.1f} s "
                    f"(model {served.model_version}, "
                    f"repeat cached={again.cached})"
                )

            # --- 4. Onboard a new template remotely: ship its isolated
            # profile, get a prediction back — zero concurrent samples.
            rng = np.random.default_rng(7)
            profile = perturb_profile(data.profile(71), rng)
            result = client.predict_new(
                profile, (71, 26), spoiler_mode=SpoilerMode.KNN
            )
            print(
                f"\nnew template (T71's profile, perturbed) in (71, 26): "
                f"{result.latency:.1f} s via KNN spoiler"
            )

            # --- 5. Admission control against the remote model: the same
            # AdmissionController runs embedded or over HTTP.
            controller = AdmissionController(
                RemotePredictionBackend(client), sla_factor=1.6, max_mpl=4
            )
            decision = controller.check(running=(26,), candidate=65)
            verdict = "admit" if decision.admitted else "reject"
            print(
                f"admission (26,)+65 @ SLA 1.6x: {verdict} "
                f"(worst ratio {decision.worst_ratio:.2f}x isolated)"
            )

        # --- 6. Throughput: repeated-mix workload, 8 concurrent clients.
        workload = mix_pool_workload(
            contender.template_ids, requests=400, pool_size=12, seed=3
        )
        report = LoadGenerator(server.host, server.port, submitters=8).run(
            workload
        )
        print(f"\nload test ({len(workload)} requests, 8 submitters):")
        print(report.format_table())
    tmp.cleanup()


if __name__ == "__main__":
    main()
