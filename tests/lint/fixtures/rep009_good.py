"""REP009 fixture: the sanctioned observer patterns stay clean.

Engine methods may count and may relay or record the cache-neutral
kinds the fingerprint strips; the tick path may act through sanctioned
seams like ``prewarm``.
"""


class ExecutionEngine:
    def __init__(self, events):
        self.events = events
        self.relays = []
        self.calls = 0

    def compile(self, key):
        self.calls += 1
        for relay in self.relays:
            relay("compile", key.arch, batch=key.batch)
        return key

    def execute(self, key):
        self.events.record("cache_hit", key=key)
        for relay in self.relays:
            relay("cache_hit", None, cache="execute")
        return key


class ControlPlane:
    def __init__(self, engine):
        self._engine = engine

    def tick(self, now, states):
        self._prewarm(states)
        return states

    def _prewarm(self, states):
        for state in states:
            self._engine.prewarm(state)
