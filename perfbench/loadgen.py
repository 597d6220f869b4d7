"""Open-loop load from one process on at most two keep-alive connections.

Each request has a due time on a fixed schedule.  A sender takes the
next request in schedule order, waits until it is due if it is early,
sends it and waits for the reply.  Latency is measured from the due
time, not the send time, so when the server stalls every request queued
behind the stall is charged the wait it caused.  Lateness is how far
past ``max(due, moment the sender became free)`` the send actually
happened: the generator's own timing error, which must stay small for
the latencies to mean anything.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from . import estimators as est


@dataclass
class Record:
    """One request: schedule, timings (clock seconds) and outcome."""

    kind: str
    due: float
    sent: float
    done: float
    ok: bool
    late: float

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


def poisson_offsets(rng: random.Random, rate: float, count: int) -> List[float]:
    """*count* Poisson arrival offsets (seconds) at mean *rate* per second."""
    offsets, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        offsets.append(now)
    return offsets


def run_open_loop(
    offsets: Sequence[float],
    payloads: Sequence[Any],
    send: Callable[[Any], bool],
    kind_of: Callable[[Any], str],
    connections: int = 2,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Record]:
    """Send ``payloads[i]`` at ``start + offsets[i]`` on *connections* senders.

    *send* returns whether the reply was correct; an exception counts as
    a failed request.  With one connection the calling thread sends;
    otherwise it is one of the senders.
    """
    records: List[Optional[Record]] = [None] * len(payloads)
    cursor = [0]
    lock = threading.Lock()
    start = clock() + 0.005

    def sender() -> None:
        free_since = start
        while True:
            with lock:
                i = cursor[0]
                if i >= len(payloads):
                    return
                cursor[0] += 1
            due = start + offsets[i]
            now = clock()
            if now < due:
                sleep(due - now)
            sent = clock()
            try:
                ok = bool(send(payloads[i]))
            except Exception:  # noqa: BLE001 — a failed request, not a crash
                ok = False
            done = clock()
            records[i] = Record(
                kind=kind_of(payloads[i]),
                due=due,
                sent=sent,
                done=done,
                ok=ok,
                late=max(0.0, sent - max(due, free_since)),
            )
            free_since = done

    helpers = [threading.Thread(target=sender) for _ in range(connections - 1)]
    for thread in helpers:
        thread.start()
    try:
        sender()
    finally:
        for thread in helpers:
            thread.join()
    return [r for r in records if r is not None]


def latencies(records: Sequence[Record], kind: Optional[str] = None) -> List[float]:
    """Latency from due time, ms; a failed request counts as infinitely late."""
    return [
        r.latency_ms if r.ok else float("inf")
        for r in records
        if kind is None or r.kind == kind
    ]


def backlog_growing(records: Sequence[Record], slack_ms: float) -> bool:
    """Whether queueing delay (send minus due) rose across the phase.

    Compares the mean delay of the last quarter of requests with the
    first quarter; a server that keeps up shows no upward trend.
    """
    ordered = sorted(records, key=lambda r: r.due)
    quarter = max(1, len(ordered) // 4)
    first = [r.sent - r.due for r in ordered[:quarter]]
    last = [r.sent - r.due for r in ordered[-quarter:]]
    return (sum(last) / len(last) - sum(first) / len(first)) * 1000.0 > slack_ms


def late_tail_ms(records: Sequence[Record]) -> float:
    return est.tail([r.late * 1000.0 for r in records])[1]
