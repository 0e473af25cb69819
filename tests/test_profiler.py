"""The deterministic profiler: attribution, the two-ledger split, and
the zero-cost-when-detached contract (mirrors test_instrument_gate.py)."""

import json
from functools import partial

import pytest

from repro.api import Cluster, auth_send
from repro.cli import _instrumented_workload
from repro.systems.bft import BftCounter
from repro.systems.raft import TeeRaft
from repro.telemetry.exporters import metrics_document
from repro.telemetry.profiler import Profiler, _callsite


def _run_auth_round(cluster: Cluster) -> None:
    conn, _ = cluster.connect("a", "b")
    cluster.run(auth_send(conn, b"profiler-test"))
    cluster.run()


class FakeClock:
    """Deterministic host-clock stand-in: advances 1000ns per read."""

    def __init__(self):
        self.now_ns = 0

    def __call__(self) -> int:
        self.now_ns += 1000
        return self.now_ns


@pytest.fixture
def account_spy(monkeypatch):
    calls = {"account": 0}
    real_account = Profiler.account

    def spy(self, *args, **kwargs):
        calls["account"] += 1
        return real_account(self, *args, **kwargs)

    monkeypatch.setattr(Profiler, "account", spy)
    return calls


def test_no_profiler_work_when_detached(account_spy):
    cluster = Cluster(["a", "b"])
    assert cluster.sim.profiler is None
    _run_auth_round(cluster)
    # Not merely "empty ledgers": the accounting hook never ran.
    assert account_spy["account"] == 0


def test_account_runs_when_attached(account_spy):
    cluster = Cluster(["a", "b"])
    profiler = Profiler.attach(cluster.sim, clock=FakeClock())
    _run_auth_round(cluster)
    assert account_spy["account"] > 0
    assert sum(profiler.events.values()) == account_spy["account"]


def test_detach_restores_the_noop_path(account_spy):
    cluster = Cluster(["a", "b"])
    profiler = Profiler.attach(cluster.sim, clock=FakeClock())
    profiler.detach()
    assert cluster.sim.profiler is None
    _run_auth_round(cluster)
    assert account_spy["account"] == 0


def test_sim_ledger_is_deterministic_across_runs():
    reports = []
    for _ in range(2):
        cluster = Cluster(["a", "b"], seed=5)
        profiler = Profiler.attach(cluster.sim, clock=FakeClock())
        _run_auth_round(cluster)
        reports.append(json.dumps(profiler.sim_report(), sort_keys=True))
    assert reports[0] == reports[1]


def test_sim_time_sums_to_final_clock():
    cluster = Cluster(["a", "b"], seed=1)
    profiler = Profiler.attach(cluster.sim, clock=FakeClock())
    _run_auth_round(cluster)
    assert sum(profiler.sim_us.values()) == pytest.approx(cluster.sim.now)


def test_callsite_attribution_names_process_generators():
    cluster = Cluster(["a", "b"], seed=0)
    profiler = Profiler.attach(cluster.sim, clock=FakeClock())
    _run_auth_round(cluster)
    keys = set(profiler.events)
    # Every key is Kind:callsite; process resumptions carry the
    # generator's qualified name, not a kernel-internal frame.
    assert all(":" in key for key in keys)
    assert any(key.startswith("Completion:") or key.startswith("Event:")
               for key in keys)
    # A bound-method step is keyed Owner.method, so every stage of the
    # call-chained datapath has a row of its own; the send's completion
    # is the one event its stages leave.
    assert {"Call:_Send._fetched", "Call:_Send._attested",
            "Event:_Send._acked",
            "Call:AttestationKernel._settle",
            "Call:EthernetMac._serialised",
            "Call:EthernetMac.deliver"} <= keys


def test_a_reply_is_booked_to_the_client_step():
    system = BftCounter("tnic", f=1, seed=0)
    profiler = Profiler.attach(system.sim, clock=FakeClock())
    system.run_workload(20, pipeline_depth=4)
    keys = set(profiler.events)
    # A reply's arrival is the client's own call, booked to the step
    # that counts it; the run's first step and its end are one entry
    # each.
    client = {"Call:_Client.begin", "Call:_Client._arrived",
              "Event:<idle>"}
    assert client <= keys
    assert profiler.events["Call:_Client.begin"] == 1
    assert profiler.events["Event:<idle>"] == 1
    # A replica is a station: its messages' arrivals are no entries, and
    # each stage is a call booked to its protocol step (a PoE check's
    # step is the authenticator's verdict).
    assert keys - client == {
        "Call:BroadcastAuthenticator._settle",
        "Call:_Replica._broadcast", "Call:_Replica._followed"}
    assert profiler.events["Call:_Replica._broadcast"] == 20
    assert profiler.events["Call:_Replica._followed"] == 20 * 2


def test_a_served_completion_is_booked_to_the_replica_handler():
    system = TeeRaft(nodes=3)
    profiler = Profiler.attach(system.sim, clock=FakeClock())
    system.run_workload(20)
    keys = set(profiler.events)
    # A station's one stage per message is a call to the protocol step:
    # the entry is the replica's, not the network's.
    assert {"Call:_RaftNode.lead", "Call:_RaftNode.follow",
            "Call:_Client._arrived"} <= keys
    assert profiler.events["Call:_RaftNode.lead"] == 20 * 3
    assert profiler.events["Call:_RaftNode.follow"] == 20 * 2
    assert not any("EmulatedNetwork" in key for key in keys)


def test_callsite_fallbacks():
    assert _callsite(None) == "<idle>"

    def plain(event):
        pass

    assert _callsite(plain) == (
        "test_callsite_fallbacks.<locals>.plain"
    )

    class Stage:
        def fired(self, event):
            pass

    assert _callsite(Stage().fired) == "Stage.fired"
    # A bound partial is booked to the function it binds.
    assert _callsite(partial(Stage().fired, None)) == "Stage.fired"


def test_host_ledger_stays_out_of_the_metrics_document():
    cluster, hub = _instrumented_workload(2, seed=0, tamper=False,
                                          profile=True)
    document = json.dumps(metrics_document(hub), sort_keys=True)
    assert "host_cpu_ns" not in document
    assert "perf_counter" not in document
    profile = cluster.sim.profiler.document()
    assert set(profile) == {
        "clock_us", "events_total", "host_cpu_ns", "host_cpu_ns_total",
        "sim",
    }
    assert profile["events_total"] == sum(
        row["events"] for row in profile["sim"].values()
    )
    assert profile["host_cpu_ns_total"] == sum(
        profile["host_cpu_ns"].values()
    )


def test_fake_clock_host_ledger_counts_reads():
    cluster = Cluster(["a", "b"], seed=0)
    clock = FakeClock()
    profiler = Profiler.attach(cluster.sim, clock=clock)
    _run_auth_round(cluster)
    total = sum(profiler.host_ns.values())
    events = sum(profiler.events.values())
    # The kernel brackets each event with two clock reads 1000ns apart.
    assert total == events * 1000


def test_profile_artifact_cli(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "profile.json"
    assert main(["trace", "--ops", "2", "--profile", str(out)]) == 0
    capsys.readouterr()
    profile = json.loads(out.read_text())
    assert profile["events_total"] > 0
    assert "sim" in profile and "host_cpu_ns" in profile
