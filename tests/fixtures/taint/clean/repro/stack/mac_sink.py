"""SEC001 negative: only HMAC *outputs* reach egress sinks.

The key itself feeds hmac_sha256 (a sanitizer: one-way by
construction), and only the MAC travels — exactly what the attestation
kernel does with certificates.
"""


def publish_mac(sim, store, session_id, payload):
    key = store._hw_keys[session_id]
    emit(sim, "stack.mac", hmac_sha256(key, payload))


def send_attested(mac, store, session_id, payload):
    certificate = hmac_sha256(store._hw_keys[session_id], payload)
    mac.transmit(certificate)


def send_session_attested(mac, store, session_id, encoded):
    # The session's keyed state stays put; the MAC it computes travels.
    mac.transmit(store.mac_for(session_id).mac(encoded))
