"""Command-line interface: ``python -m repro <command>``.

Gives downstream users one entry point to the library's headline
capabilities without writing code:

* ``demo``       — the quickstart: trusted send + attack rejection.
* ``stacks``     — the §8.2 latency sweep across the five stacks.
* ``systems``    — throughput of the four systems across providers.
* ``lemmas``     — model-check the §4.4 lemmas (plus secrecy).
* ``attack``     — run the adversary campaigns and report the outcome.
* ``resources``  — the Table-5 / Figure-13 FPGA resource analysis.
* ``lint``       — the static-analysis passes (determinism, trusted
  boundaries, key-secrecy taint, hot-path cost, liveness).
* ``sanitize``   — the one check of schedule independence: tier-1
  protocol scenarios under N seeded tie shuffles; final-state digests
  must match.
* ``metrics``    — run a seeded cluster workload with telemetry on and
  print the metrics document (text, ``--json`` or ``--prom``).
* ``trace``      — the same workload's trace buffer, filterable with
  ``--category``.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.api import Cluster, auth_send, local_send, local_verify
    from repro.api.ops import recv
    from repro.core.attestation import AttestedMessage

    cluster = Cluster(["alice", "bob"])
    conn_a, conn_b = cluster.connect("alice", "bob")
    cluster.run(auth_send(conn_a, b"hello, trusted world"))
    cluster.run()
    item = recv(conn_b)
    print(f"delivered: {item['payload']!r} "
          f"(device={item['message'].device_id}, "
          f"counter={item['message'].counter})")

    def attack():
        genuine = yield local_send(conn_a, b"genuine")
        forged = AttestedMessage(
            payload=b"forged", alpha=genuine.alpha,
            session_id=genuine.session_id, device_id=genuine.device_id,
            counter=genuine.counter,
        )
        ok = yield local_verify(conn_b, forged)
        return ok

    accepted = cluster.run(cluster.sim.process(attack()))
    print(f"forged message accepted: {accepted}  (expected: False)")
    return 0


def _cmd_stacks(args: argparse.Namespace) -> int:
    from repro.bench import PACKET_SIZE_SWEEP
    from repro.bench.report import Series, render_figure
    from repro.stacks import measure_latency
    from repro.stacks.variants import ALL_STACKS

    series = []
    for name, stack_cls in ALL_STACKS.items():
        line = Series(name)
        for size in PACKET_SIZE_SWEEP:
            line.add(size, measure_latency(stack_cls, size,
                                           operations=args.ops).latency_us)
        series.append(line)
    print(render_figure("Send latency (Figure 9)", "bytes", "us", series))
    return 0


def _cmd_systems(args: argparse.Namespace) -> int:
    from repro.bench import kv_workload
    from repro.bench.report import Table
    from repro.systems.bft import BftCounter
    from repro.systems.chain import ChainReplication
    from repro.systems.peer_review import PeerReviewSystem

    providers = ["ssl-lib", "ssl-server", "sgx", "amd-sev", "tnic"]
    table = Table(
        "Distributed systems throughput (op/s)",
        ["provider", "BFT counter", "Chain Repl.", "PeerReview"],
    )
    for provider in providers:
        bft = BftCounter(provider, batch=1, seed=1).run_workload(
            args.ops, pipeline_depth=4
        )
        chain = ChainReplication(provider, seed=1).run_workload(
            kv_workload(args.ops, seed=1)
        )
        pr = PeerReviewSystem(provider, audit=True, seed=1).run_workload(
            args.ops
        )
        table.add_row(
            provider,
            f"{bft.throughput_ops:,.0f}",
            f"{chain.throughput_ops:,.0f}",
            f"{pr.throughput_ops:,.0f}",
        )
    table.show()
    return 0


def _cmd_lemmas(args: argparse.Namespace) -> int:
    from repro.verification import (
        AttestationPhaseModel,
        COMMUNICATION_LEMMAS,
        TnicCommunicationModel,
        check_lemma,
        lemma_attestation_precedence,
    )
    from repro.verification.secrecy import (
        bitstream_secret,
        hw_key_secret,
        session_key_secret,
    )

    model = TnicCommunicationModel(max_sends=args.sends)
    failures = 0
    for name, lemma in sorted(COMMUNICATION_LEMMAS.items()):
        result = check_lemma(model, lemma, max_depth=args.depth, name=name)
        print(result.describe())
        failures += 0 if result.holds else 1
    result = check_lemma(
        AttestationPhaseModel(), lemma_attestation_precedence,
        max_depth=6, name="initialization_attested",
    )
    print(result.describe())
    failures += 0 if result.holds else 1
    for name, holds in [
        ("HW_key_priv_secret", hw_key_secret()),
        ("S_key_secret", session_key_secret()),
        ("S_key_secret (late HW-key compromise)",
         session_key_secret(compromise_hw_key_later=True)),
        ("bitstream_secret", bitstream_secret()),
    ]:
        print(f"{name}: {'verified' if holds else 'VIOLATED'}")
        failures += 0 if holds else 1
    return 1 if failures else 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.byzantine import (
        forge_attack,
        impersonation_attack,
        replay_attack,
        run_wire_campaign,
        stale_counter_attack,
    )
    from repro.core import AttestationKernel

    key = b"cli-attack-key-0123456789abcdef!"
    sender = AttestationKernel(1)
    receiver = AttestationKernel(2)
    sender.install_session(1, key)
    receiver.install_session(1, key)
    reports = [
        forge_attack(receiver, 1, attempts=args.attempts),
        replay_attack(sender, receiver, 1),
        stale_counter_attack(sender, receiver, 1),
        impersonation_attack(receiver, 1),
        run_wire_campaign(messages=args.attempts),
    ]
    breached = 0
    for report in reports:
        status = "defended" if report.defended else "BREACHED"
        print(f"{report.attack:16s} attempts={report.attempts:4d} "
              f"rejected={report.rejected:4d}  {status}")
        breached += 0 if report.defended else 1
    return 1 if breached else 0


def _cmd_resources(args: argparse.Namespace) -> int:
    from repro.core.resources import FpgaModel

    model = FpgaModel()
    print(f"max concurrent connections on the U280: "
          f"{model.max_connections()}")
    for connections in (1, 8, 16, 32):
        shares = model.utilisation(connections)
        print(
            f"  {connections:3d} connections: "
            f"LUT {100 * shares['lut']:5.1f}%  "
            f"FF {100 * shares['ff']:5.1f}%  "
            f"RAMB36 {100 * shares['ramb36']:5.1f}%"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Exit codes: 0 clean, 1 findings, 2 usage / internal error."""
    try:
        return _run_lint(args)
    except Exception as exc:  # lint must never die with a traceback in CI
        print(f"lint: internal error: {exc!r}", file=sys.stderr)
        return 2


def _run_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        collect_sources,
        default_package_root,
        render_json,
        render_sarif,
        render_text,
        rule_by_id,
        run_rules,
    )

    if args.explain:
        rule = rule_by_id(args.explain)
        if rule is None:
            from repro.analysis import rule_catalog

            prefixes = sorted({
                rule_id.rstrip("0123456789") for rule_id in rule_catalog()
            })
            print(
                f"lint: no such rule: {args.explain} "
                f"(valid prefixes: {', '.join(prefixes)})",
                file=sys.stderr,
            )
            return 2
        print(f"{rule.rule_id}: {rule.description}")
        if rule.explanation:
            print()
            print(rule.explanation)
        return 0

    only = args.only
    if only:
        from repro.analysis import rule_catalog

        catalog = rule_catalog()
        if not any(rule_id.startswith(only) for rule_id in catalog):
            prefixes = sorted({
                rule_id.rstrip("0123456789") for rule_id in catalog
            })
            print(
                f"lint: no rule matches --only {only} "
                f"(valid prefixes: {', '.join(prefixes)})",
                file=sys.stderr,
            )
            return 2

    targets = [Path(p) for p in args.paths] or [default_package_root()]
    for target in targets:
        if not target.exists():
            print(f"lint: no such path: {target}", file=sys.stderr)
            return 2
    sources = collect_sources(targets)

    findings = run_rules(sources)
    if only:
        findings = [f for f in findings if f.rule.startswith(only)]
    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    """Exit codes: 0 schedule-independent, 1 divergence found, 2 usage."""
    import json
    from pathlib import Path

    from repro.sanitizer import run_sanitize

    try:
        report = run_sanitize(
            scenario_names=args.scenarios or None,
            seeds=args.seeds,
            root_seed=args.root_seed,
        )
    except ValueError as exc:
        print(f"sanitize: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"sanitize: report written to {path}")
    return 0 if report.ok else 1


def _instrumented_workload(
    ops: int, seed: int, tamper: bool, profile: bool = False
):
    """Run a deterministic two-node send/recv workload with telemetry.

    Returns the cluster with its attached :class:`Telemetry` hub.  With
    *tamper* the fabric flips one byte of the first attested payload,
    exercising the rejection path and the flight recorder; go-back-N
    then redelivers the genuine message, so the workload still
    completes.  With *profile* a :class:`~repro.telemetry.profiler
    .Profiler` is attached before the workload runs (reachable as
    ``cluster.sim.profiler``).
    """
    from repro.api import Cluster, auth_send
    from repro.api.ops import recv
    from repro.net.body import materialize
    from repro.net.fabric import NetworkFault
    from repro.telemetry import Telemetry

    fault = None
    if tamper:
        remaining = {"count": 1}

        def _flip(packet):
            if packet.trailer is None or not packet.payload:
                return None
            if remaining["count"] <= 0:
                return None
            remaining["count"] -= 1
            body = materialize(packet.payload)  # segments may be views
            flipped = bytes([body[0] ^ 0xFF]) + body[1:]
            return packet.with_payload(flipped)

        fault = NetworkFault(tamper=_flip)

    cluster = Cluster(["alice", "bob"], seed=seed, fault=fault)
    hub = Telemetry.attach(cluster.sim)
    if profile:
        from repro.telemetry.profiler import Profiler

        Profiler.attach(cluster.sim)
    conn_a, conn_b = cluster.connect("alice", "bob")
    sizes = (64, 256, 1024, 4096)
    for i in range(ops):
        payload = bytes([i % 251]) * sizes[i % len(sizes)]
        cluster.run(auth_send(conn_a, payload))
        cluster.run()
        recv(conn_b)
    return cluster, hub


def _instrumented_bft(batches: int, seed: int, profile: bool = False):
    """Run the seeded Fig. 10 BFT scenario with telemetry attached.

    Every client batch becomes one ``bft.request`` trace spanning the
    client, the leader and every follower.
    """
    from repro.systems.bft import BftCounter
    from repro.telemetry import Telemetry

    system = BftCounter(provider_name="tnic", f=1, seed=seed)
    hub = Telemetry.attach(system.sim)
    if profile:
        from repro.telemetry.profiler import Profiler

        Profiler.attach(system.sim)
    system.run_workload(batches)
    return system, hub


def _cmd_metrics(args: argparse.Namespace) -> int:
    _, hub = _instrumented_workload(args.ops, args.seed, args.tamper)
    if args.json:
        print(hub.render_json())
    elif args.prom:
        print(hub.render_prometheus())
    else:
        print(hub.render_text())
        if args.spans:
            print()
            print(hub.spans.tree())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    profile = bool(args.profile)
    if args.scenario == "bft":
        host, hub = _instrumented_bft(args.ops, args.seed, profile=profile)
    else:
        host, hub = _instrumented_workload(
            args.ops, args.seed, args.tamper, profile=profile
        )
    sim = host.sim

    if args.profile:
        profiler = sim.profiler
        Path(args.profile).write_text(
            _json.dumps(profiler.document(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"trace: profile written to {args.profile}")

    analysis = args.critical_path or args.summary or args.export
    if analysis:
        from repro.telemetry.critical_path import (
            critical_paths,
            render_critical_paths,
            render_summary,
            summarize,
        )

        paths = critical_paths(hub.spans.finished)
        if args.export == "chrome":
            from repro.telemetry import chrome

            doc = chrome.document(hub, profiler=sim.profiler)
            rendered = _json.dumps(doc, indent=2, sort_keys=True)
            if args.output:
                Path(args.output).write_text(rendered + "\n",
                                             encoding="utf-8")
                print(f"trace: chrome trace written to {args.output}")
            else:
                print(rendered)
        elif args.output:
            document = {"critical_paths": paths,
                        "summary": summarize(paths)}
            Path(args.output).write_text(
                _json.dumps(document, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"trace: analysis written to {args.output}")
        if args.critical_path:
            print(render_critical_paths(paths))
        if args.summary:
            print(render_summary(summarize(paths)))
        return 0

    trace = hub.trace
    rendered = trace.render(args.category)
    if rendered:
        print(rendered)
    print(
        f"trace: emitted={trace.emitted} buffered={len(trace)} "
        f"evicted={trace.evicted}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TNIC (ASPLOS'25) reproduction — demos and analyses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="trusted messaging quickstart")

    stacks = sub.add_parser("stacks", help="Figure-9 latency sweep")
    stacks.add_argument("--ops", type=int, default=50)

    systems = sub.add_parser("systems", help="distributed-system comparison")
    systems.add_argument("--ops", type=int, default=8)

    lemmas = sub.add_parser("lemmas", help="model-check the §4.4 lemmas")
    lemmas.add_argument("--sends", type=int, default=3)
    lemmas.add_argument("--depth", type=int, default=7)

    attack = sub.add_parser("attack", help="run adversary campaigns")
    attack.add_argument("--attempts", type=int, default=30)

    sub.add_parser("resources", help="FPGA resource analysis")

    lint = sub.add_parser(
        "lint",
        help="static analysis: determinism, trusted boundaries, "
             "key-secrecy taint, hot-path cost, liveness",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to analyse (default: the repro package)",
    )
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text")
    lint.add_argument(
        "--explain", default=None, metavar="RULE",
        help="print the rationale for one rule (e.g. SEC001) and exit",
    )
    lint.add_argument(
        "--only", default=None, metavar="RULE|PREFIX",
        help="report only findings whose rule id matches the selector "
             "(exact id like LIV005, or a family prefix like LIV); "
             "unknown selectors exit 2 with the valid prefixes",
    )

    sanitize = sub.add_parser(
        "sanitize",
        help="schedule-perturbation harness: tier-1 scenarios under N "
             "seeded tie shuffles; final-state digests must match",
    )
    sanitize.add_argument(
        "--seeds", type=int, default=8, metavar="N",
        help="perturbed schedules per scenario (default 8)",
    )
    sanitize.add_argument(
        "--root-seed", type=int, default=0,
        help="root seed all perturbation seeds derive from (default 0)",
    )
    sanitize.add_argument(
        "--scenario", action="append", dest="scenarios", metavar="NAME",
        choices=["bft", "chain", "a2m", "view_change", "peer_review"],
        help="run only this scenario (repeatable; default: all)",
    )
    sanitize.add_argument("--json", action="store_true",
                          help="emit the full JSON report")
    sanitize.add_argument(
        "--output", default=None, metavar="FILE",
        help="additionally write the JSON report to FILE",
    )

    metrics = sub.add_parser(
        "metrics",
        help="seeded workload with telemetry; print the metrics document",
    )
    trace = sub.add_parser(
        "trace",
        help="seeded workload with tracing; print the trace buffer",
    )
    for command in (metrics, trace):
        command.add_argument("--ops", type=int, default=25,
                             help="number of attested sends (default 25)")
        command.add_argument("--seed", type=int, default=0)
        command.add_argument(
            "--tamper", action="store_true",
            help="flip one byte on the wire to exercise the rejection "
                 "path and the flight recorder",
        )
    metrics.add_argument("--json", action="store_true",
                         help="emit the full JSON metrics document")
    metrics.add_argument("--prom", action="store_true",
                         help="emit Prometheus text exposition format")
    metrics.add_argument("--spans", action="store_true",
                         help="also print the span forest (text mode)")
    trace.add_argument(
        "--category", default=None,
        help="only show records whose category starts with this prefix "
             "(e.g. roce.)",
    )
    trace.add_argument(
        "--scenario", choices=["sendrecv", "bft"], default="sendrecv",
        help="workload to trace: the two-node send/recv loop (default) "
             "or the seeded Fig.-10 BFT cluster (--ops = batches)",
    )
    trace.add_argument(
        "--critical-path", action="store_true",
        help="print the longest causal chain per request with the "
             "Fig.-6 stage breakdown (from the propagated span trees)",
    )
    trace.add_argument(
        "--summary", action="store_true",
        help="print per-stage p50/p99 across all traced requests",
    )
    trace.add_argument(
        "--export", choices=["chrome"], default=None,
        help="export the span forest as Chrome trace-event / Perfetto "
             "JSON (to --output, else stdout)",
    )
    trace.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the analysis/export JSON document to FILE",
    )
    trace.add_argument(
        "--profile", default=None, metavar="FILE",
        help="attach the deterministic profiler and write the profile "
             "artifact (sim + host-CPU attribution) to FILE",
    )
    return parser


_HANDLERS = {
    "demo": _cmd_demo,
    "stacks": _cmd_stacks,
    "systems": _cmd_systems,
    "lemmas": _cmd_lemmas,
    "attack": _cmd_attack,
    "resources": _cmd_resources,
    "lint": _cmd_lint,
    "sanitize": _cmd_sanitize,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


def lint_entry() -> int:
    """Console-script entry point: ``tnic-lint [paths] [options]``."""
    return main(["lint", *sys.argv[1:]])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
