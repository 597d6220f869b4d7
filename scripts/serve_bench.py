#!/usr/bin/env python
"""Serving-tier throughput gate, standalone.

Runs only the serving metrics from ``scripts/bench_check.py`` — the
predict-batch throughput of the two-worker HTTP front end against its
absolute floor, and the plain predict p99 against its ceiling — so
`make serve-bench` answers "did I break the serving tier?" in under a
minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "scripts"))

from bench_check import (  # noqa: E402
    SERVING_P99_CEILING_MS,
    SERVING_PREDICTIONS_FLOOR,
    _serving_throughput_metrics,
)


def main() -> int:
    print("measuring serving throughput (interleaved rounds)...")
    serving = _serving_throughput_metrics()
    rows = [
        (
            "multi-worker batched",
            f"{serving['predictions_per_sec']:,.0f} predictions/sec "
            f"(floor {SERVING_PREDICTIONS_FLOOR:,.0f})",
        ),
        (
            "plain predict p99",
            f"{serving['p99_ms']:.2f} ms (ceiling {SERVING_P99_CEILING_MS:.0f} ms)",
        ),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")

    failures = []
    if serving["predictions_per_sec"] < SERVING_PREDICTIONS_FLOOR:
        failures.append(
            f"throughput {serving['predictions_per_sec']:,.0f}/s is below "
            f"the floor ({SERVING_PREDICTIONS_FLOOR:,.0f}/s)"
        )
    if serving["p99_ms"] > SERVING_P99_CEILING_MS:
        failures.append(
            f"p99 {serving['p99_ms']:.2f} ms exceeds "
            f"{SERVING_P99_CEILING_MS:.0f} ms"
        )
    if failures:
        print("\nFAIL: " + "; ".join(failures))
        return 1
    print("\nserving gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
