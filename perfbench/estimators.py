"""Estimators shared by every workload: medians, tails, digests, memory."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
from typing import Any, Optional, Sequence, Tuple

#: Fewest samples a reported tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Percentiles the tail estimator may report, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(pct, value, n)``: the highest percentile with >= 10 samples beyond.

    A percentile ``p`` of ``n`` samples leaves ``n - ceil(p/100 * n)``
    samples strictly beyond its nearest rank; the estimator reports the
    highest of :data:`TAIL_PERCENTILES` leaving at least
    :data:`TAIL_BEYOND`, so a tail is never read off a handful of points.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return pct, float(ordered[rank - 1]), n
    raise ValueError(
        f"{n} samples cannot leave {TAIL_BEYOND} beyond any percentile"
    )


def segmented_tail(values: Sequence[float], segments: int) -> Tuple[float, float, int]:
    """Median over *segments* consecutive slices of each slice's :func:`tail`.

    One scheduler hiccup lands in one slice, so the median of the slice
    tails is far steadier run to run than one tail over the whole sample.
    Returns ``(pct, value, n)`` with *n* the slice size.
    """
    size = len(values) // segments
    tails = [tail(values[i * size : (i + 1) * size]) for i in range(segments)]
    return tails[0][0], median([t[1] for t in tails]), size


def steady(values: Sequence[float]) -> float:
    """Upper quartile (nearest rank) of repeated measurements of one job.

    On a shared host the machine runs in a contended steady state broken
    by episodes, seconds to tens of seconds long, in which the same pass
    runs up to 1.7x faster.  A run's passes fall partly into such an
    episode often enough that their median jumps between the two states
    from run to run; the upper quartile follows the steady state unless
    nearly the whole run is an episode.  Over a 46-pass series of the
    ``train`` job, windows of five passes spread (IQR over median) 4% with
    this estimator against 17% with the median.
    """
    return percentile(sorted(values), 75.0)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def digest(payload: Any) -> str:
    """SHA-256 of *payload*: a string as is, anything else as sorted JSON."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check_digest(
    label: str, actual: str, expected: Optional[str], failures: list
) -> bool:
    """Record a failure in *failures* unless *actual* equals *expected*."""
    if expected is None or actual == expected:
        return True
    failures.append(f"{label}: digest {actual[:16]} != expected {expected[:16]}")
    return False


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of process *pid*, MB, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
