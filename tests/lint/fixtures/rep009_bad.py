"""REP009 fixture: engine methods and tick paths that write the ledger.

Relaying a cache-neutral kind is sanctioned; every other write an
``ExecutionEngine`` method or the tick path reaches records a kind the
report fingerprint keeps -- exactly the writes the rule must catch.
"""


class ExecutionEngine:
    def __init__(self, events):
        self.events = events
        self.relays = []

    def compile(self, key):
        for relay in self.relays:
            relay("compile", key.arch)  # neutral relay: sanctioned
            relay("dispatch", key.arch)  # line 17: fingerprinted kind
        return key

    def execute(self, key, kind):
        for relay in self.relays:
            relay(kind, None)  # line 22: dynamic kind
        _log(self.events, key)
        return key

    def prewarm(self, rows):
        rows.append(_row("enqueue", 0.0))  # line 27: loop event row


def _log(events, key):
    events.record("execute", batch=key)  # line 31: reached via a helper


class ControlPlane:
    def __init__(self, events):
        self._events = events

    def tick(self, now, states):
        return self._apply(now, states)

    def _apply(self, now, states):
        self._events.record("control_override", at=now)  # line 42
        return states


def _row(kind, time_s, **detail):
    return (kind, time_s, detail)
