"""SEC002 negative: constant-time comparison of key-derived MACs."""


def authenticate(store, session_id, provided_mac, payload):
    key = store._hw_keys[session_id]
    return compare_digest(hmac_sha256(key, payload), provided_mac)
