"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import estimators as est
from perfbench import loadgen, run, sched, serve, train
from perfbench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


class FakeClock:
    """A clock that only moves when the code under test sleeps or works."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def sleep(self, seconds):
        self.t += seconds


def test_stall_is_charged_to_requests_queued_behind_it():
    clock = FakeClock()

    def send(payload):
        clock.t += 0.001  # 1 ms service time
        if payload == 3:
            clock.t += 0.050  # the server stalls for 50 ms
        return True

    offsets = [i * 0.002 for i in range(10)]  # one request due every 2 ms
    records = loadgen.run_open_loop(
        offsets, list(range(10)), send, lambda p: "predict",
        connections=1, clock=clock.now, sleep=clock.sleep,
    )
    assert [r.ok for r in records] == [True] * 10
    # Before the stall every request is served in its 1 ms service time.
    assert all(r.latency_ms == pytest.approx(1.0) for r in records[:3])
    assert records[3].latency_ms == pytest.approx(51.0)
    # Every later request waited behind the stall: timed from its due
    # time it is charged that wait, though its own round trip is 1 ms.
    for r in records[4:]:
        assert (r.done - r.sent) * 1000.0 == pytest.approx(1.0)
        assert r.latency_ms > 40.0
    assert records[4].latency_ms == pytest.approx(50.0)
    # The generator itself was never late: the delay is the server's.
    assert all(r.late == 0.0 for r in records)


def test_backlog_detector_sees_the_queue_grow():
    clock = FakeClock()

    def slow(payload):
        clock.t += 0.003  # 3 ms per request, one due every 2 ms
        return True

    records = loadgen.run_open_loop(
        [i * 0.002 for i in range(40)], list(range(40)), slow, lambda p: "x",
        connections=1, clock=clock.now, sleep=clock.sleep,
    )
    assert loadgen.backlog_growing(records, slack_ms=5.0)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert est.tail(range(1, 1001)) == (99.0, 990.0, 1000)
    # One sample fewer leaves only 9 beyond p99, so p98 is reported.
    assert est.tail(range(1, 1000)) == (98.0, 980.0, 999)
    assert est.tail(range(1, 2001)) == (99.5, 1990.0, 2000)
    assert est.tail(range(1, 21)) == (50.0, 10.0, 20)
    with pytest.raises(ValueError):
        est.tail(range(15))


def _perturbed(digest):
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def test_perturbed_digest_fails_the_sched_check():
    doc = {"policy": "predictive", "completed": 3}
    result = SimpleNamespace(to_doc=lambda: doc, outcomes=[1, 2, 3])
    trace = SimpleNamespace(arrivals=[1, 2, 3])
    good = est.digest(doc)

    failures = []
    assert sched.check(result, trace, good, [], failures)
    assert failures == []
    assert not sched.check(result, trace, _perturbed(good), [], failures)
    assert failures and "digest" in failures[0]


def test_perturbed_digest_fails_the_train_check():
    data, pred = est.digest("training data"), est.digest([1.0, 2.0])
    checker = train._Checker("train", 7, {"train": data, "predict": pred})
    assert checker.check(data, pred)
    bad = train._Checker("train", 7, {"train": _perturbed(data), "predict": pred})
    assert not bad.check(data, pred)
    assert bad.failures


def test_served_value_off_by_one_ulp_fails_the_serve_check():
    import math

    reply = SimpleNamespace(latency=math.nextafter(2.5, 3.0), model_version="v1")
    client = SimpleNamespace(predict=lambda primary, mix: reply)
    send = serve.make_sender(client, "v1")
    assert not send(("predict", (26, (26, 65)), 2.5))
    assert send(("predict", (26, (26, 65)), reply.latency))


def test_self_times_of_nested_spans_sum_to_the_root():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock.now)
    with rec.span("root"):
        clock.t += 1.0
        with rec.span("child"):
            clock.t += 2.0
            with rec.span("grandchild"):
                clock.t += 3.0
        clock.t += 4.0
    assert rec.self_times() == [5.0, 2.0, 3.0]
    assert rec.by_name()["child"]["self_s"] == 2.0


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    names = e2e + layers + [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(set(e2e + layers)) == len(e2e + layers)
    assert e2e == list(run.END_TO_END)
    assert layers == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for table in (spec["end_to_end"], spec["per_layer"]):
        for metric in table:
            assert metric["unit"] == {**run.END_TO_END, **run.PER_LAYER}[metric["name"]]
