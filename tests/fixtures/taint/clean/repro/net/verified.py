"""TNT001 negative: verification gates the counter advance.

verify_event() is a sanitizer — its result is attested-clean — so the
counter mutation below consumes verified data, not raw wire bytes.
"""


class GoodReceiver:
    def ingress(self, packet):
        event = self.attestation.verify_event(packet.session_id, packet)
        self.counters.advance_recv(event.session_id)
