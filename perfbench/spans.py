"""In-memory spans recorded from outside the program, and self times.

The benchmark puts timing wrappers around the calls into each layer
(:func:`patched` swaps an attribute for the duration of a traced pass
and restores it afterwards).  Every wrapper opens a span whose parent is
the innermost span still open when it starts.  The workloads trace one
job or one request at a time, so a single open-span stack shared by all
threads gives the right parent even when a layer runs on a helper
thread (the serving batcher) while the caller waits.

A span's self time is its duration minus the part of its interval that
its children cover.  When children nest inside their parent and do not
overlap, the self times of a tree sum to its root's duration; the
workloads check that sum against independently measured wall time.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List


class SpanRecorder:
    """Spans ``(name, start, end, parent, request)`` kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.request = 0
        self._stack: List[int] = []
        self._lock = threading.Lock()

    def open(self, name: str) -> int:
        with self._lock:
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.requests.append(self.request)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        end = self.clock()
        with self._lock:
            self.ends[idx] = end
            self._stack.remove(idx)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* with every call recorded as a span called *name*."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def self_times(self) -> List[float]:
        """Self time of every span, in recording order."""
        children: Dict[int, List[int]] = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        out = []
        for idx in range(len(self.names)):
            lo, hi = self.starts[idx], self.ends[idx]
            covered = 0.0
            reach = lo
            for child in sorted(children[idx], key=self.starts.__getitem__):
                c_lo = max(self.starts[child], reach)
                c_hi = min(self.ends[child], hi)
                if c_hi > c_lo:
                    covered += c_hi - c_lo
                    reach = c_hi
            out.append((hi - lo) - covered)
        return out

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "self_s"}}`` over all spans."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}
        )
        for idx, own in enumerate(self.self_times()):
            row = table[self.names[idx]]
            row["calls"] += 1
            row["self_s"] += own
        return dict(table)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (name, times, parent, request)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start": self.starts[idx],
                            "end": self.ends[idx],
                            "parent": self.parents[idx],
                            "request": self.requests[idx],
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def patched(owner: Any, attr: str, make: Callable[[Any], Any]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` until the block ends.

    Class attributes are read through ``__dict__`` so static methods are
    wrapped as the functions they are and restored as static methods.
    """
    own = attr in vars(owner)
    raw = vars(owner)[attr] if own else getattr(owner, attr)
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    try:
        yield
    finally:
        if own:
            setattr(owner, attr, raw)
        else:  # an instance attribute shadowing a method: drop the shadow
            delattr(owner, attr)


def layer_metrics(
    recorder: SpanRecorder, layers: Dict[str, Dict[str, str]]
) -> Dict[str, float]:
    """Per-layer metrics from span totals.

    *layers* maps a span name to ``{metric name: "calls" | "self_s"}``;
    span names absent from the trace read zero.
    """
    table = recorder.by_name()
    out: Dict[str, float] = {}
    for name, wanted in layers.items():
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        for metric, field in wanted.items():
            out[metric] = float(row[field])
    return out


def reconcile(
    recorder: SpanRecorder,
    layers: Iterable[str],
    wall_s: float,
    tolerance: float,
    failures: list,
) -> float:
    """Relative gap between the layers' summed self times and *wall_s*.

    Only spans named in *layers* count, so the gap is the share of the
    traced wall time that no reported layer explains (plus any double
    counting); past *tolerance* it is recorded in *failures*.
    """
    names = set(layers)
    summed = sum(
        own
        for name, own in zip(recorder.names, recorder.self_times())
        if name in names
    )
    gap = abs(summed - wall_s) / wall_s
    if gap > tolerance:
        failures.append(
            f"trace: layer self times sum to {summed:.4f}s against "
            f"{wall_s:.4f}s traced wall time (gap {gap:.3f} > {tolerance})"
        )
    return gap
