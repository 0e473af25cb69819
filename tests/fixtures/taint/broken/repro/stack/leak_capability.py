"""Seeded SEC001/SEC003 violations: the session MAC capability escapes.

The Keystore keeps a session key as a keyed HMAC state.  Whoever holds
that state can attest under the session, so it is as secret as the key
bytes it absorbed — only the MACs it computes may leave the TCB.
"""


def ship(mac, store, session_id):
    # SEC001 (serialize + wire): the absorbed state pickled onto the link.
    mac.transmit(pickle.dumps(store.mac_for(session_id)))


def trace(sim, store, session_id):
    # SEC001 (telemetry): the raw table read, not the accessor.
    emit(sim, "stack.session_state", store._session_macs[session_id])


class Forger:
    """An untrusted-layer object keeping a session's MAC capability."""

    def __init__(self):
        self._states = {}

    def remember(self, store, session_id):
        # SEC003: the copy attests for the session from outside the TCB.
        self._states[session_id] = store.mac_for(session_id)
