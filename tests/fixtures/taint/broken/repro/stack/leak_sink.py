"""Seeded SEC001 violations: key material reaching egress sinks.

Three leaks, each through a different sink family, including one that
crosses a helper function so the interprocedural summaries are what
catches it — a single-statement pattern matcher would miss it.
"""


def fetch_key(store, session_id):
    return store._hw_keys[session_id]


def debug_dump(store, session_id):
    # Leak 1 (log): the key crosses fetch_key() before hitting print.
    print(fetch_key(store, session_id))


def report(sim, store, session_id):
    # Leak 2 (telemetry): raw key attached to a metrics event.
    key = store._hw_keys[session_id]
    emit(sim, "stack.session_key", key)


def send_raw(mac, data):
    mac.transmit(data)


def exfiltrate(store, mac, session_id):
    # Leak 3 (wire, via-chain): the sink is inside send_raw(), so the
    # finding must be reported here with the hop recorded.
    send_raw(mac, store._hw_keys[session_id])
