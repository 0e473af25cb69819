"""Seeded TNT001 violation: wire bytes mutate trusted state unverified."""


class BadReceiver:
    """Advances the receive counter straight off the wire."""

    def ingress(self, packet):
        # The MAC hands every received packet to this handler.  No
        # verify_event() between that hand-off and the counter: a
        # forged packet advances trusted state.
        trailer = packet.trailer
        self.counters.advance_recv(trailer.session_id)
