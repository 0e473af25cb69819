#!/usr/bin/env python3
"""The generic CFT→BFT transformation recipe (§6.2, Listing 1) live.

Takes a plain CFT primary/backup counter — unchanged application code —
and wraps its send/recv in the TNIC transformation: state digests,
deterministic simulation of the sender, and the system-view check.
Then drives three Byzantine deviations through it and shows each one
detected at the exact check Listing 1 performs.

Run:  python examples/cft_to_bft_transform.py
"""

from repro.api import Cluster
from repro.api.transform import BftTransform, TransformViolation
from repro.crypto.hashing import sha256


class CounterReplica:
    """The *unchanged* CFT application: a replicated counter."""

    def __init__(self):
        self.value = 0

    def digest(self) -> bytes:
        return sha256("counter-state", self.value)

    def execute(self, command: bytes) -> None:
        if command == b"incr":
            self.value += 1

    def simulate_peer(self, command: bytes) -> bytes:
        """Deterministic simulation of a peer executing *command*."""
        peer_value = self.value + (1 if command == b"incr" else 0)
        return sha256("counter-state", peer_value)


def build_channel():
    cluster = Cluster(["primary", "backup"])
    p_conn, b_conn = cluster.connect("primary", "backup")
    primary_app = CounterReplica()
    backup_app = CounterReplica()
    sender = BftTransform(p_conn, primary_app.digest)
    receiver = BftTransform(
        b_conn, backup_app.digest, simulate_sender=backup_app.simulate_peer
    )
    return cluster, sender, receiver, primary_app, backup_app


def honest_replication() -> None:
    print("-- honest primary: three replicated increments --")
    cluster, sender, receiver, primary, backup = build_channel()
    for _ in range(3):
        primary.execute(b"incr")
        cluster.run(sender.send(b"incr"))
        cluster.run()
        command = receiver.deliver()
        backup.execute(command)
    print(f"  primary={primary.value} backup={backup.value}  (in sync)\n")


def byzantine_state() -> None:
    print("-- Byzantine primary: claims an unreachable state --")
    cluster, sender, receiver, primary, _ = build_channel()
    primary.value = 41  # deviates from its own execution
    cluster.run(sender.send(b"incr"))
    cluster.run()
    try:
        receiver.deliver()
    except TransformViolation as exc:
        print(f"  detected (L10 simulation): {exc}\n")


def diverging_view() -> None:
    print("-- Byzantine primary: echoes a fabricated receiver state --")
    cluster, sender, receiver, primary, _ = build_channel()
    primary.execute(b"incr")
    sender.observe_peer_state(sha256("never-happened"))
    cluster.run(sender.send(b"incr"))
    cluster.run()
    try:
        receiver.deliver()
    except TransformViolation as exc:
        print(f"  detected (L11-12 view check): {exc}\n")


def wire_tampering() -> None:
    print("-- network adversary: tampering handled below the transform --")
    from repro.net.fabric import NetworkFault

    state = {"hit": False}

    def tamper(pkt):
        if pkt.payload and pkt.trailer is not None and not state["hit"]:
            state["hit"] = True
            return pkt.with_payload(
                bytes([pkt.payload[0] ^ 0xFF]) + pkt.payload[1:]
            )
        return None

    cluster = Cluster(["p", "b"], fault=NetworkFault(tamper=tamper))
    p_conn, b_conn = cluster.connect("p", "b")
    primary, backup = CounterReplica(), CounterReplica()
    sender = BftTransform(p_conn, primary.digest)
    receiver = BftTransform(b_conn, backup.digest,
                            simulate_sender=backup.simulate_peer)
    primary.execute(b"incr")
    cluster.run(sender.send(b"incr"))
    cluster.run()
    command = receiver.deliver()
    rejections = cluster["b"].device.roce.verification_failures
    print(f"  delivered {command!r} after {rejections} NIC-level "
          f"rejection(s); the transform never saw the forgery")


def main() -> None:
    honest_replication()
    byzantine_state()
    diverging_view()
    wire_tampering()


if __name__ == "__main__":
    main()
