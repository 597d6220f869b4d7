#!/usr/bin/env python3
"""Record the output digests the benchmark checks its runs against.

Usage (from the repository root)::

    python3 perfbench/record_digests.py 0 100

records seeds 0-99 into ``perfbench/digests.json`` (existing seeds are
kept): for each seed, the ``TrainingData`` of the full default campaign,
the fitted model's predictions on every training observation, and the
``sched`` workload's ``ReplayResult.to_doc()``.  Re-record only when the
program's outputs are meant to change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def record(seed: int) -> dict:
    from perfbench import estimators as est
    from perfbench import sched, train
    from repro.apps.admission import ContenderBackend

    catalog = train.catalog_for("virtual_time")
    data, contender = train.run_job(catalog, seed)
    _, predictions = train.predict_all(contender, train.observation_keys(data))
    ctx = {"catalog": catalog, "backend": ContenderBackend(contender)}
    result, _, _ = sched.replay(ctx, sched.make_trace(contender.template_ids, seed))
    return {
        "train": est.digest(data.to_json()),
        "predict": est.digest(predictions),
        "sched": est.digest(result.to_doc()),
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    first, stop = int(sys.argv[1]), int(sys.argv[2])
    path = ROOT / "perfbench" / "digests.json"
    doc = json.loads(path.read_text())
    for seed in range(first, stop):
        doc["seeds"][str(seed)] = record(seed)
        print(f"seed {seed}: {doc['seeds'][str(seed)]['train'][:16]}", flush=True)
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
