"""Seeded SEC003 violation: key escrow outside the TCB packages."""


class KeyCache:
    """An untrusted-layer object squirrelling away session keys."""

    def __init__(self):
        self._cached = {}

    def remember(self, store, session_id):
        # The copy outlives the call and silently widens the TCB.
        self._cached[session_id] = store._hw_keys[session_id]
