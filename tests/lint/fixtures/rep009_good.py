"""REP009 fixture: the sanctioned observer patterns stay clean.

Subscribers may count and trace; the engine relay may record the
cache-neutral kinds the fingerprint strips; the tick path may act
through sanctioned seams like ``prewarm``.
"""


def attach_counters(engine, counters):
    def on_execute(key, report):
        counters[key] = counters.get(key, 0) + 1

    engine.hooks.subscribe("on_execute", on_execute)


def relay_cache_events(engine, events, relay):
    def on_compile(key, plan):
        events.record("compile", key=key)
        relay("compile", key.arch)

    def on_cache_hit(key, plan):
        events.record("cache_hit", key=key)
        relay("cache_hit", key.arch)

    engine.hooks.subscribe("on_compile", on_compile)
    engine.hooks.subscribe("on_cache_hit", on_cache_hit)


class ControlPlane:
    def __init__(self, engine):
        self._engine = engine

    def tick(self, now, states):
        self._prewarm(states)
        return states

    def _prewarm(self, states):
        for state in states:
            self._engine.prewarm(state)
