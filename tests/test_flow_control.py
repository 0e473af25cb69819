"""Tests for the RC send window (flow control)."""

import pytest

from repro.core import TnicDevice
from repro.net import ArpServer, Link
from repro.roce import QueuePair
from repro.sim import Simulator

KEY = b"flow-control-key-0123456789abcd!"
SESSION = 5


def build_pair(window=4, mtu=4096):
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "mac-a", arp)
    b = TnicDevice(sim, 2, "10.0.0.2", "mac-b", arp)
    a.roce.send_window = window
    a.roce.path_mtu = mtu
    b.roce.path_mtu = mtu
    Link(sim, a.mac, b.mac)
    a.install_session(SESSION, KEY)
    b.install_session(SESSION, KEY)
    qp_a = QueuePair(qp_number=1, session_id=SESSION,
                     local_ip="10.0.0.1", remote_ip="10.0.0.2")
    qp_b = QueuePair(qp_number=2, session_id=SESSION,
                     local_ip="10.0.0.2", remote_ip="10.0.0.1")
    a.create_qp(qp_a)
    b.create_qp(qp_b)
    a.connect_qp(1, 2)
    b.connect_qp(2, 1)
    return sim, a, b


def test_window_never_exceeded():
    sim, a, b = build_pair(window=3)
    state = a.roce.tables.get(1)
    max_inflight = {"n": 0}

    original_record = state.record_send

    def spying_record(*args):
        psn = original_record(*args)
        max_inflight["n"] = max(max_inflight["n"], len(state.inflight))
        return psn

    state.record_send = spying_record
    completions = [a.send(1, f"m{i}".encode()) for i in range(20)]
    for completion in completions:
        sim.run(completion)
    sim.run()
    assert max_inflight["n"] <= 3
    assert [i["payload"] for i in b.drain(2)] == [
        f"m{i}".encode() for i in range(20)
    ]


def test_backlog_drains_in_order():
    sim, a, b = build_pair(window=2)
    payloads = [f"ordered-{i}".encode() for i in range(12)]
    completions = [a.send(1, p) for p in payloads]
    for completion in completions:
        sim.run(completion)
    sim.run()
    assert [i["payload"] for i in b.drain(2)] == payloads


def test_oversized_message_progresses_when_window_empty():
    """A message with more segments than the window still transmits
    once the wire is idle."""
    sim, a, b = build_pair(window=2, mtu=512)
    payload = b"L" * 3000  # 6 segments > window of 2
    completion = a.send(1, payload)
    sim.run(completion)
    sim.run()
    assert b.drain(2)[0]["payload"] == payload


def test_windowed_pipelining_still_faster_than_serial():
    import time

    sim, a, b = build_pair(window=16)
    completions = [a.send(1, b"x" * 64) for _ in range(30)]
    for completion in completions:
        sim.run(completion)
    pipelined_time = sim.now

    sim2, a2, b2 = build_pair(window=16)
    for i in range(30):
        sim2.run(a2.send(1, b"x" * 64))
    serial_time = sim2.now
    assert pipelined_time < serial_time
