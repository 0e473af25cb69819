"""Clean LIV005 twin: deadline-composed completion, plain server loop."""


class BoundedEndpoint:
    def __init__(self, sim, rx):
        self.sim = sim
        self.rx = rx
        self._pending = {}

    def call(self, payload, timeout_us=100.0):
        done = self.sim.event()
        self._pending[payload.psn] = done

        def _expire():
            pending = self._pending.pop(payload.psn, None)
            if pending is not None and not pending.triggered:
                pending.fail(RuntimeError("no response"))

        self.sim.delayed_call(timeout_us, _expire)
        return done

    def recv_loop(self):
        while True:  # server idiom: parks until traffic arrives
            frame = yield self.rx.get()
            self._pending.pop(frame.psn, None)
