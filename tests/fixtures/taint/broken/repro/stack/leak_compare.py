"""Seeded SEC002 violation: non-constant-time key comparison."""


def authenticate(store, session_id, provided):
    key = store._hw_keys[session_id]
    # `==` short-circuits on the first differing byte: timing oracle.
    return key == provided
