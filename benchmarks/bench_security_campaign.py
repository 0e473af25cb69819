"""Security campaign — every adversarial strategy, zero acceptances.

Not a paper figure, but the quantitative form of the paper's security
claims: across forgery, replay, reordering, impersonation and a hostile
wire (drops + duplication + reordering + replay + tampering), no
adversarial message is ever accepted and FIFO exactly-once delivery of
the genuine stream is preserved.
"""

from conftest import register_artefact

from repro.bench.report import Table
from repro.byzantine import (
    forge_attack,
    impersonation_attack,
    replay_attack,
    run_wire_campaign,
    stale_counter_attack,
)
from repro.core import AttestationKernel

KEY = b"campaign-key-0123456789abcdef012"


def measure():
    sender = AttestationKernel(1)
    receiver = AttestationKernel(2)
    sender.install_session(1, KEY)
    receiver.install_session(1, KEY)
    return [
        forge_attack(receiver, 1, attempts=200),
        replay_attack(sender, receiver, 1, messages=50),
        stale_counter_attack(sender, receiver, 1, messages=20),
        impersonation_attack(receiver, 1, attempts=50),
        run_wire_campaign(messages=40, seed=5),
    ]


def test_security_campaign(benchmark):
    reports = benchmark.pedantic(measure, rounds=1, iterations=1)

    for report in reports:
        assert report.defended, f"{report.attack}: {report.notes}"
    # The wire campaign actually exercised the defences.
    wire = reports[-1]
    assert wire.rejected >= 1

    table = Table(
        "Security campaign: adversarial acceptance rate",
        ["attack", "attempts", "rejected", "accepted"],
    )
    for report in reports:
        table.add_row(report.attack, report.attempts, report.rejected,
                      report.accepted)
    register_artefact("Security campaign", table.render())
