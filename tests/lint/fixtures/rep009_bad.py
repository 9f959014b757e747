"""REP009 fixture: hook subscribers and tick paths that write the
ledger.

``on_compile`` relays a cache-neutral kind (sanctioned); the other
two subscribers and the tick-reachable helper record kinds the report
fingerprint keeps -- exactly the writes the rule must catch.
"""


def attach_probes(engine, events):
    def on_compile(key, plan):
        events.record("compile", key=key)  # neutral relay: sanctioned

    def on_execute(key, report):
        events.record("execute", batch=key)  # line 15: ledger write

    def on_cache_hit(kind, key):
        events.record(kind, key=key)  # line 18: dynamic kind

    engine.hooks.subscribe("on_compile", on_compile)
    engine.hooks.subscribe("on_execute", on_execute)
    engine.hooks.subscribe("on_cache_hit", on_cache_hit)


class ControlPlane:
    def __init__(self, events):
        self._events = events

    def tick(self, now, states):
        return self._apply(now, states)

    def _apply(self, now, states):
        self._events.record("control_override", at=now)  # line 33
        return states


# The serving loop's two writers: the engine relay and an event row.
def subscribe_relay(engine, relay, rows):
    def on_compile(key, plan):
        relay("compile", key.arch)  # neutral relay: sanctioned
        relay("dispatch", key.arch)  # line 41: relayed routing kind

    def on_cache_hit(kind, key):
        rows.append(_row("enqueue", 0.0))  # line 44: loop event row

    engine.hooks.subscribe("on_compile", on_compile)
    engine.hooks.subscribe("on_cache_hit", on_cache_hit)


def _row(kind, time_s, **detail):
    return (kind, time_s, detail)
