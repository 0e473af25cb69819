"""Key-secrecy and untrusted-input taint rules (SEC001–003, TNT001–002).

TNIC's security argument (§4, §6) makes two flow claims this module
turns into lint rules on top of :mod:`repro.analysis.dataflow`:

1. **Key secrecy** — session/HW key material lives in the attestation
   kernel's Keystore and never leaves the TCB.  ``tests/test_secrecy.py``
   checks this dynamically for the modelled protocol runs; the SEC rules
   check it statically for *every* path in the code:

   * ``SEC001`` — key material reaches a wire / log / telemetry /
     serialization sink, or is passed to an untrusted layer;
   * ``SEC002`` — key material compared with ``==`` / ``!=`` (timing
     side channel; use ``hmac.compare_digest``);
   * ``SEC003`` — key material stored in an attribute / container of a
     module outside the TCB packages.

2. **Verified ingress** — every untrusted wire input passes attestation
   verification before it can mutate trusted state:

   * ``TNT001`` — a received packet reaches a counter advance or
     keystore mutation without passing a verify sanitizer;
   * ``TNT002`` — a verification result is discarded (a bare-statement
     call to a verify-family function).

:data:`TNIC_MANIFEST` is the declarative policy: where taint is born
(``_hw_keys`` reads, ``key`` parameters of TCB modules, and the
Keystore's ``mac_for`` / ``_session_macs`` — a session key is kept as a
keyed HMAC state, which forges an α as well as the key it absorbed and
so carries the same tag — and the ``packet`` parameter of the ingress
handlers), where it must never arrive, and which calls launder it (HMAC
computation and the attestation-verify family — their outputs are safe
to share by construction; keying a state is not one of them).
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.dataflow import (
    FunctionInfo,
    SinkSpec,
    SourceSpec,
    TaintEngine,
    TaintFlow,
    TaintManifest,
    call_name,
    pattern_matches,
)
from repro.analysis.rules import Finding, IndexedRule, Rule
from repro.analysis.walker import SourceFile

#: The paper's TCB packages (mirrors boundaries.TRUSTED_PACKAGES; kept
#: literal here so the manifest is one self-contained declaration).
_TCB = ("repro.core", "repro.crypto", "repro.roce")

TNIC_MANIFEST = TaintManifest(
    sources=(
        # Keystore reads: a session's keyed HMAC state is all the
        # Keystore holds of its key, and all a forger needs of it.
        SourceSpec(tag="key", call="mac_for"),
        SourceSpec(tag="key", attribute="_session_macs"),
        # Direct reads of the manufacturer/vendor HW-key tables of §3.2.
        SourceSpec(tag="key", attribute="_hw_keys"),
        # Inside the TCB, parameters carrying key material are secrets
        # from birth (callers outside can only have obtained them from
        # the sources above, which interprocedural propagation covers).
        SourceSpec(tag="key", param="key", packages=_TCB),
        SourceSpec(tag="key", param="session_key", packages=_TCB),
        SourceSpec(tag="key", param="hw_key", packages=_TCB),
        # Raw wire ingress: the MAC hands every received packet to its
        # ingress handler (``RoceKernel.ingress``), so untrusted bytes
        # are the ``packet`` parameter of the link and transport layers.
        SourceSpec(tag="wire", param="packet",
                   packages=("repro.net", "repro.roce")),
    ),
    sinks=(
        # Logging.
        SinkSpec("key", "log", "print"),
        SinkSpec("key", "log", "logging.*"),
        # Telemetry (repro.telemetry via the repro.sim.instrument hooks).
        SinkSpec("key", "telemetry", "emit"),
        SinkSpec("key", "telemetry", "count"),
        SinkSpec("key", "telemetry", "gauge_set"),
        SinkSpec("key", "telemetry", "observe"),
        SinkSpec("key", "telemetry", "flight_trigger"),
        SinkSpec("key", "telemetry", "span_begin"),
        # Serialization.
        SinkSpec("key", "serialize", "json.dumps"),
        SinkSpec("key", "serialize", "json.dump"),
        SinkSpec("key", "serialize", "pickle.dumps"),
        SinkSpec("key", "serialize", "pickle.dump"),
        # Wire transmit.
        SinkSpec("key", "wire", "transmit"),
        SinkSpec("key", "wire", "post_send"),
        # Trusted-state mutation gated on verification (§6): counter
        # advance and keystore writes must never consume raw wire bytes.
        SinkSpec("wire", "trusted-state", "advance_recv"),
        SinkSpec("wire", "trusted-state", "next_send"),
        SinkSpec("wire", "trusted-state", "install"),
        SinkSpec("wire", "trusted-state", "install_session"),
    ),
    sanitizers=(
        # MAC/hash computation: outputs are safe to share by construction.
        # ``KeyedHmac.mac`` is the MAC boundary — what ``KeyedHmac(key)``
        # returns is still the key, absorbed; only its MACs are clean.
        "mac",
        "mac_encoded",
        "hmac_sha256",
        "sha256",
        # Constant-time comparison and the attestation-verify family.
        "compare_digest",
        "verify_encoded",
        "hmac_verify",
        "batch_verify",
        "verify",
        "verify_event",
        "check_transferable",
        "local_verify",
    ),
    compare_tags=("key",),
    store_tags=("key",),
    store_outside_packages=_TCB,
    untrusted_call_tags=("key",),
    trusted_packages=_TCB,
)

#: Verify-family calls whose result must be consumed (TNT002).  The
#:  boolean verifiers are the dangerous ones: discarding the bool means
#:  the caller proceeds as if verification had happened.
_DISCARD_CHECKED = (
    "verify_encoded",
    "hmac_verify",
    "check_transferable",
    "local_verify",
    "verify_event",
)


#: SEC001's sink kinds, as its message words them.
_SINK_WORDS = {
    "log": "log",
    "telemetry": "telemetry",
    "serialize": "serialization",
    "wire": "wire-transmit",
    "untrusted-call": "untrusted-layer",
}


def _flow_rule(flow: TaintFlow) -> tuple[str, str] | None:
    """``(rule id, message)`` for one engine flow, or None if no rule owns it."""
    path = flow.describe_path()
    if flow.tag == "key" and flow.kind in _SINK_WORDS:
        return "SEC001", (
            f"key material reaches {_SINK_WORDS[flow.kind]} sink "
            f"`{flow.sink}`{path}")
    if flow.tag == "key" and flow.kind == "compare":
        return "SEC002", (
            "key material compared with `==`/`!=` (timing side channel)"
            f"{path}; use hmac.compare_digest")
    if flow.tag == "key" and flow.kind == "store":
        return "SEC003", f"key material stored outside the TCB: {flow.sink}{path}"
    if flow.tag == "wire" and flow.kind == "trusted-state":
        return "TNT001", (
            f"unverified wire input reaches trusted state `{flow.sink}`"
            f"{path}; verify before mutating")
    return None


def flow_findings(
    sources: Sequence[SourceFile], functions: list[FunctionInfo],
) -> Iterator[Finding]:
    """The flow rules' one pass: the taint engine's flows, as findings."""
    by_path = {str(src.path): src for src in sources}
    for flow in TaintEngine(functions, TNIC_MANIFEST).run():
        owner = _flow_rule(flow)
        if owner is None:
            continue
        src = by_path.get(flow.path)
        yield Finding(
            rule=owner[0], module=flow.module, path=flow.path,
            line=flow.line, col=flow.col, message=owner[1],
            snippet=src.line_text(flow.line) if src is not None else "",
        )


class _FlowRule(IndexedRule):
    family_pass = staticmethod(flow_findings)


class KeyToSinkRule(_FlowRule):
    rule_id = "SEC001"
    description = (
        "key material flows to a wire/log/telemetry/serialization sink "
        "or into an untrusted layer (§4 key secrecy)"
    )
    explanation = (
        "TNIC's security argument needs session and HW key material to\n"
        "stay inside the attestation kernel's TCB (paper §4.1: keys are\n"
        "'unknown to the untrusted parties').  This rule follows key\n"
        "material interprocedurally from its sources (`_hw_keys` reads,\n"
        "TCB `key` parameters, and the Keystore's `mac_for` /\n"
        "`_session_macs` — a session key is kept as a `KeyedHmac` state,\n"
        "which forges an attestation as well as the key would) and fires\n"
        "when it can reach a `print`/logging call, a telemetry hook\n"
        "(`emit`, `count`, ...), `json`/`pickle` serialization, a wire\n"
        "transmit (`transmit`, `post_send`), or a function defined\n"
        "outside the TCB packages.  Outputs of `KeyedHmac.mac`,\n"
        "`mac_encoded`/`hmac_sha256`/`sha256` and the verify family are\n"
        "clean by construction (one-way), so attestation certificates\n"
        "never fire."
    )


class KeyCompareRule(_FlowRule):
    rule_id = "SEC002"
    description = (
        "key material compared with non-constant-time `==`/`!=`; "
        "use hmac.compare_digest"
    )
    explanation = (
        "Comparing secrets with `==` short-circuits on the first\n"
        "differing byte, leaking the match length through timing.  Any\n"
        "comparison where either side carries key taint must go through\n"
        "`hmac.compare_digest` (the repo's `verify_encoded` already does)."
    )


class KeyEscrowRule(_FlowRule):
    rule_id = "SEC003"
    description = (
        "key material stored in an attribute/container outside the TCB "
        "packages (repro.core, repro.crypto, repro.roce)"
    )
    explanation = (
        "The Keystore is 'static memory inside the trusted hardware'\n"
        "(§4.1).  A copy of key material held in an object attribute or\n"
        "container of an untrusted module outlives the call that\n"
        "obtained it and widens the TCB silently.  Intentional\n"
        "exceptions (e.g. the §3.2 manufacturer→vendor HW-key\n"
        "disclosure) carry an inline `# lint: ignore[SEC003]` waiver."
    )


class UnverifiedIngressRule(_FlowRule):
    rule_id = "TNT001"
    description = (
        "unverified wire bytes reach trusted-state mutation (counter "
        "advance / keystore write) without a verify sanitizer (§6)"
    )
    explanation = (
        "Algorithm 1 only advances `recv_cnt` after a fully successful\n"
        "verification; the formal lemmas (§6) lean on that ordering.\n"
        "This rule follows received packets (the `packet` parameter of\n"
        "the MAC and RoCE ingress handlers) and fires when they reach\n"
        "`advance_recv`, `next_send`, `install` or `install_session`\n"
        "without first passing `verify`/`verify_event`/`verify_encoded`/\n"
        "`hmac_verify`/`check_transferable` (whose outputs are clean)."
    )


class DiscardedVerifyRule(Rule):
    rule_id = "TNT002"
    description = (
        "attestation/verification result discarded (bare-statement call "
        "to a verify-family function)"
    )
    explanation = (
        "A verification that nobody reads is a verification that never\n"
        "happened: `verify_encoded`, `hmac_verify`, `check_transferable`,\n"
        "`local_verify` and `verify_event` report their outcome through\n"
        "the return value (a bool or an event), so calling them as a bare\n"
        "statement means the caller proceeds regardless of the result."
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Expr):
                continue
            value = node.value
            if isinstance(value, (ast.Yield, ast.Await)) and value.value is not None:
                value = value.value
            if not isinstance(value, ast.Call):
                continue
            cname = call_name(value.func)
            if cname is None:
                continue
            if any(pattern_matches(p, cname) for p in _DISCARD_CHECKED):
                yield self.finding(
                    src, value.lineno, value.col_offset,
                    f"result of `{cname}()` is discarded; bind and check it",
                )


TAINT_RULES = (
    KeyToSinkRule,
    KeyCompareRule,
    KeyEscrowRule,
    UnverifiedIngressRule,
    DiscardedVerifyRule,
)
