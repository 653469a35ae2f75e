"""The frontend/worker split: framing, bit-exactness, drain, crash recovery.

The fleet tests fork worker processes, so they rely on the ``fork`` start
method (hand-registered test models inherit across the fork without
pickling) — available on every POSIX platform CI runs on.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import time

import numpy as np
import pytest

from repro.serve.registry import ModelRegistry
from repro.serve.server import ModelServer, ServerClosed
from repro.serve.transport import (
    MSG_CONTROL,
    MSG_REQUEST,
    MSG_RESPONSE,
    FrameConnection,
    TransportError,
)

from .conftest import make_served_model

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet tests hand models across os.fork()",
)

#: The >=4-model mix the fleet tests serve.
FLEET_MODELS = ("mix/a", "mix/b", "mix/c", "mix/d")


@pytest.fixture()
def fleet_registry(sequential_design):
    """Four hand-registered copies of the test design under distinct names."""
    registry = ModelRegistry()
    for name in FLEET_MODELS:
        registry.register(make_served_model(sequential_design, name=name))
    return registry


def make_fleet(registry, **kwargs):
    kwargs.setdefault("max_batch_size", 16)
    kwargs.setdefault("max_latency_ms", 1.0)
    kwargs.setdefault("workers", 2)
    return ModelServer(registry, **kwargs)


# --------------------------------------------------------------------------- #
# Transport framing
# --------------------------------------------------------------------------- #
def test_frame_round_trip_preserves_kinds_and_payloads():
    left_sock, right_sock = socket.socketpair()
    left, right = FrameConnection(left_sock), FrameConnection(right_sock)
    rows = np.arange(12, dtype=float).reshape(3, 4)
    left.send(MSG_REQUEST, (7, "mix/a", "ids", rows))
    left.send(MSG_CONTROL, (8, "ping", None))
    kind, body = right.recv()
    assert kind == MSG_REQUEST
    assert body[0] == 7 and body[1] == "mix/a" and body[2] == "ids"
    assert np.array_equal(body[3], rows)
    assert right.recv() == (MSG_CONTROL, (8, "ping", None))
    right.send(MSG_RESPONSE, (7, np.zeros(3, dtype=np.int64)))
    kind, (req_id, payload) = left.recv()
    assert kind == MSG_RESPONSE and req_id == 7 and payload.dtype == np.int64
    left.close()
    right.close()


def test_clean_eof_is_none_torn_frame_raises():
    left_sock, right_sock = socket.socketpair()
    left, right = FrameConnection(left_sock), FrameConnection(right_sock)
    left.close()
    assert right.recv() is None  # peer closed at a frame boundary

    left_sock, right_sock = socket.socketpair()
    # A header announcing 100 payload bytes, then death mid-frame.
    left_sock.sendall(b"\x01\x00\x00\x00\x64partial")
    left_sock.close()
    with pytest.raises(TransportError):
        FrameConnection(right_sock).recv()


def test_send_on_closed_connection_raises_oserror():
    left_sock, _right_sock = socket.socketpair()
    conn = FrameConnection(left_sock)
    conn.close()
    with pytest.raises(OSError):
        conn.send(MSG_CONTROL, (1, "ping", None))


# --------------------------------------------------------------------------- #
# Fleet vs oracle bit-exactness
# --------------------------------------------------------------------------- #
@needs_fork
def test_fleet_bit_identical_to_single_process_oracle(
    fleet_registry, sequential_design, request_rows
):
    """Every request mode agrees exactly with the workers=0 oracle."""
    expected = sequential_design.simulate_batch(request_rows)
    labels = sequential_design.model.classes[expected]
    with make_fleet(fleet_registry, workers=2, lanes_per_worker=2) as fleet:
        for name in FLEET_MODELS:
            bulk = fleet.predict_many(name, request_rows)
            assert bulk["class_ids"] == [int(i) for i in expected]
            assert bulk["predictions"] == labels.tolist()

        single = fleet.predict(FLEET_MODELS[0], request_rows[0])
        assert single["class_id"] == int(expected[0])
        assert single["prediction"] == labels[0].item()
        assert single["latency_ms"] >= 0.0

        ids = fleet.submit(FLEET_MODELS[1], request_rows[:1]).result(timeout=30.0)
        assert ids[0] == expected[0]

        futures = fleet.submit_many(FLEET_MODELS[2], request_rows)
        got = np.concatenate([f.result(timeout=30.0) for f in futures])
        assert np.array_equal(got, expected)

        empty = fleet.predict_many(FLEET_MODELS[3], [])
        assert empty["class_ids"] == [] and empty["n_samples"] == 0


@needs_fork
def test_fleet_relays_validation_errors(fleet_registry, request_rows):
    with make_fleet(fleet_registry) as fleet:
        with pytest.raises(ValueError, match="exactly one sample"):
            fleet.predict(FLEET_MODELS[0], request_rows[:2])
        with pytest.raises(ValueError, match="features"):
            fleet.predict_many(FLEET_MODELS[0], np.zeros((3, 2)))
        with pytest.raises(ValueError):
            fleet.open_lane("not-a/model")
        # The failed route must not pin the bogus name to a worker.
        assert all(
            "not-a/model" not in w["models"] for w in fleet.stats()["workers"]
        )


@needs_fork
def test_lanes_per_worker_spreads_models(fleet_registry):
    with make_fleet(fleet_registry, workers=2, lanes_per_worker=2) as fleet:
        for name in FLEET_MODELS:
            fleet.open_lane(name)
        counts = sorted(len(w["models"]) for w in fleet.stats()["workers"])
        assert counts == [2, 2]  # least-loaded under the cap, 4 models / 2 seats


# --------------------------------------------------------------------------- #
# Graceful drain
# --------------------------------------------------------------------------- #
@needs_fork
def test_fleet_graceful_drain_completes_in_flight_requests(
    sequential_design, request_rows
):
    """shutdown(drain=True) answers queued slow work; new requests fail fast."""
    design = sequential_design

    def slow_kernel(X):
        time.sleep(0.005)
        return design.simulate_batch(X)

    registry = ModelRegistry()
    for name in FLEET_MODELS[:2]:
        registry.register(make_served_model(design, name=name, batch_fn=slow_kernel))
    fleet = make_fleet(registry, workers=2, max_batch_size=4, max_latency_ms=0.0)
    try:
        for name in FLEET_MODELS[:2]:
            fleet.open_lane(name)
        futures = [
            fleet.submit(FLEET_MODELS[i % 2], request_rows[i : i + 1])
            for i in range(20)
        ]
        fleet.shutdown(drain=True)
        expected = design.simulate_batch(request_rows[:20])
        got = [future.result(timeout=30.0)[0] for future in futures]
        assert got == [int(i) for i in expected]
        with pytest.raises(ServerClosed):
            fleet.predict(FLEET_MODELS[0], request_rows[0])
        fleet.shutdown()  # idempotent
    finally:
        fleet.shutdown()


# --------------------------------------------------------------------------- #
# Crash recovery
# --------------------------------------------------------------------------- #
@needs_fork
def test_worker_crash_mid_load_restarts_and_loses_nothing(
    sequential_design, request_rows
):
    """SIGKILL a worker with requests in flight: the frontend restarts it and
    resubmits, so every future resolves exactly once with the right answer."""
    design = sequential_design

    def slow_kernel(X):
        time.sleep(0.004)
        return design.simulate_batch(X)

    registry = ModelRegistry()
    for name in FLEET_MODELS[:2]:
        registry.register(make_served_model(design, name=name, batch_fn=slow_kernel))
    rows = np.tile(request_rows, (8, 1))
    expected = design.simulate_batch(rows)

    with make_fleet(
        registry, workers=2, lanes_per_worker=1, max_batch_size=8, max_latency_ms=0.0
    ) as fleet:
        for name in FLEET_MODELS[:2]:
            fleet.open_lane(name)
        stats = fleet.stats()
        victim = stats["workers"][0]
        victim_model = victim["models"][0]

        # Many slow micro-batches in flight on the victim, then kill it.
        futures = fleet.submit_many(victim_model, rows)
        time.sleep(0.01)
        os.kill(victim["pid"], signal.SIGKILL)

        results = [int(f.result(timeout=60.0)[0]) for f in futures]
        assert results == [int(i) for i in expected]  # nothing lost, nothing dup

        after = fleet.stats()
        assert after["workers"][0]["restarts"] == 1
        assert after["workers"][0]["alive"]
        assert after["workers"][0]["pid"] != victim["pid"]
        # The replacement re-opened the victim's lanes and keeps serving.
        again = fleet.predict(victim_model, request_rows[0])
        assert again["class_id"] == int(design.simulate_batch(request_rows[:1])[0])


@needs_fork
def test_fleet_ready_reflects_worker_health(fleet_registry):
    fleet = make_fleet(fleet_registry, workers=2, restart_workers=False)
    try:
        deadline = time.monotonic() + 30.0
        while not fleet.ready and time.monotonic() < deadline:
            time.sleep(0.01)
        assert fleet.ready
        os.kill(fleet.stats()["workers"][0]["pid"], signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while fleet.ready and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not fleet.ready  # a dead, unrestarted worker makes the fleet unready
    finally:
        fleet.shutdown()


# --------------------------------------------------------------------------- #
# Fleet-wide /stats aggregation
# --------------------------------------------------------------------------- #
@needs_fork
def test_fleet_stats_aggregate_across_workers(fleet_registry, request_rows):
    """Per-model sections come from the owning workers; counts add up."""
    per_model = {name: 3 + i for i, name in enumerate(FLEET_MODELS)}
    with make_fleet(fleet_registry, workers=2, lanes_per_worker=2) as fleet:
        for name, n in per_model.items():
            for i in range(n):
                fleet.predict(name, request_rows[i])
        stats = fleet.stats()

    assert stats["workers_configured"] == 2
    assert len(stats["workers"]) == 2
    owned = [set(w["models"]) for w in stats["workers"]]
    assert owned[0] | owned[1] == set(FLEET_MODELS)
    assert owned[0] & owned[1] == set()  # each model lives on exactly one worker
    for worker in stats["workers"]:
        assert worker["alive"] and worker["ready"]
        assert worker["restarts"] == 0
        assert worker["uptime_s"] > 0.0
    for name, n in per_model.items():
        snap = stats["models"][name]
        assert snap["requests_total"] == n
        assert snap["samples_total"] == n
        assert snap["latency_p50_ms"] <= snap["latency_p99_ms"]
    total = sum(s["requests_total"] for s in stats["models"].values())
    assert total == sum(per_model.values())


# --------------------------------------------------------------------------- #
# Frames over the transport ceiling
# --------------------------------------------------------------------------- #
@needs_fork
def test_oversized_frame_fails_alone_and_a_later_crash_loses_nothing(
    monkeypatch, sequential_design, request_rows
):
    """A request too big for one frame raises at submit and leaves no
    pending entry behind: when the worker later dies, every other request
    in flight is still resubmitted and resolves."""
    import repro.serve.transport

    design = sequential_design

    def slow_kernel(X):
        time.sleep(0.05)
        return design.simulate_batch(X)

    name = FLEET_MODELS[0]
    registry = ModelRegistry()
    registry.register(make_served_model(design, name=name, batch_fn=slow_kernel))
    with make_fleet(registry, workers=1, max_batch_size=1, max_latency_ms=0.0) as fleet:
        fleet.open_lane(name)
        victim = fleet.stats()["workers"][0]["pid"]
        monkeypatch.setattr(repro.serve.transport, "MAX_FRAME_BYTES", 4096)
        with pytest.raises(ValueError, match="ceiling"):
            fleet.submit(name, np.tile(request_rows, (64, 1)))

        futures = [fleet.submit(name, request_rows[i : i + 1]) for i in range(6)]
        os.kill(victim, signal.SIGKILL)
        results = [int(f.result(timeout=10.0)[0]) for f in futures]
        assert results == [int(i) for i in design.simulate_batch(request_rows[:6])]
