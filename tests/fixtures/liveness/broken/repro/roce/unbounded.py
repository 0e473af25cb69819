"""LIV005 shape: a pending completion registered without a deadline."""


class UnboundedEndpoint:
    def __init__(self, sim, rx):
        self.sim = sim
        self.rx = rx
        self._pending = {}

    def call(self, payload):
        done = self.sim.event()  # line 11: no expiry composed
        self._pending[payload.psn] = done
        return done
