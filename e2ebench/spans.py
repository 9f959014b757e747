"""Wall-clock spans around the public boundaries of ``repro``, installed
from outside the package.

The benchmark never edits ``src/``.  A :class:`Tracer` replaces each
boundary in :data:`BOUNDARIES` with a thin wrapper that records one
span -- name, start, end, parent, op id -- per call while an op is
being traced, and restores the originals on :meth:`Tracer.uninstall`.
A boundary that no longer exists is reported ``missing`` and one that
is never called ``uncalled``; neither raises.

A name bound into another module with ``from x import f`` must be
patched where it is looked up, so a boundary names the module whose
globals the caller reads (``qualify_report`` is patched in the
coordinator, ``validate_result`` in the supervisor).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: ``(span name, module, attribute path)`` of every traced boundary.
#: Several boundaries may share a span name; the per-layer metrics are
#: built from span names.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("core.fleet_build", "repro.serving.shard.worker", "FleetSpec.build"),
    ("core.deploy_all", "repro.core.fleet", "FleetManager.deploy_all"),
    ("core.compile", "repro.core.engine", "ExecutionEngine.compile"),
    ("core.compile", "repro.core.engine", "ExecutionEngine.compile_with_batch"),
    ("core.compile", "repro.core.engine", "ExecutionEngine.prewarm"),
    ("core.execute", "repro.core.engine", "ExecutionEngine.execute"),
    ("serving.route", "repro.serving.router", "RequestRouter.run"),
    ("report.fingerprint", "repro.serving.report", "RouterReport.fingerprint"),
    ("shard.merge", "repro.serving.report", "RouterReport.merge"),
    ("shard.qualify", "repro.serving.shard.coordinator", "qualify_report"),
    ("shard.qualify", "repro.serving.shard.coordinator", "strip_requests"),
    ("shard.coordinator", "repro.serving.shard.coordinator", "FleetCoordinator.run"),
    ("shard.worker", "repro.serving.shard.coordinator", "run_shard"),
    ("resilience.supervise", "repro.resilience.supervisor", "ShardSupervisor.run"),
    ("resilience.validate", "repro.resilience.supervisor", "validate_result"),
    ("control.tick", "repro.control.plane", "ControlPlane.tick"),
    ("control.observe", "repro.control.plane", "ControlPlane.observe_arrival"),
)

#: Span names opened by the benchmark's own code rather than a patch.
OP_SPAN = "bench.op"
EXPORT_SPAN = "report.export"
OBS_EXPORT_SPAN = "obs.export"
OBS_HOOK_SPAN = "obs.hook"

#: Spans kept for the written trace; ops past this total are still
#: measured, only their span rows are not kept.
MAX_KEPT_SPANS = 100_000

# Columns of one span row (a list, so a row is filled in place).
_ID, _PARENT, _NAME, _START, _END, _OP = range(6)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, boundaries=BOUNDARIES) -> None:
        self.boundaries = tuple(boundaries)
        #: ``(module, attribute path)`` -> ``missing``/``uncalled``/``ok``.
        self.status: Dict[Tuple[str, str], str] = {}
        self.recording = False
        self.op_id = -1
        self.rows: List[list] = []
        self._current: Optional[int] = None
        self._restore: List[Tuple[object, str, object]] = []
        self._calls: Dict[Tuple[str, str], int] = {}
        self._kept: List[list] = []
        # Per-op side channels: engines touched (with their stats at
        # first touch) and reports already fingerprinted.
        self._engines: Dict[int, Tuple[object, int, int]] = {}
        self._hashed: Dict[int, object] = {}
        self.fingerprint_repeats = 0

    # -- patches ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary that still exists; note the rest."""
        for name, module_name, path in self.boundaries:
            key = (module_name, path)
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.status[key] = "missing"
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.status[key] = "missing"
                continue
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, (classmethod, staticmethod)):
                wrapped = type(static)(self.wrap(name, static.__func__, key))
            else:
                wrapped = self.wrap(name, static, key)
            self._restore.append((owner, attr, static))
            setattr(owner, attr, wrapped)
            self.status.setdefault(key, "uncalled")
            self._calls.setdefault(key, 0)

    def uninstall(self) -> None:
        """Put every original back (reverse order, so a boundary
        patched twice ends at its first original)."""
        while self._restore:
            owner, attr, static = self._restore.pop()
            setattr(owner, attr, static)

    def wrap(self, name: str, fn: Callable, key=None) -> Callable:
        """``fn`` recording a span named ``name`` while an op is traced."""
        note = {
            "core.compile": self._note_engine,
            "core.execute": self._note_engine,
            "report.fingerprint": self._note_fingerprint,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if key is not None:
                self._calls[key] += 1
            if note is not None:
                note(args[0])
            rows = self.rows
            row = [len(rows), self._current, name, 0.0, 0.0, self.op_id]
            rows.append(row)
            parent = self._current
            self._current = row[_ID]
            row[_START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[_END] = perf_counter()
                self._current = parent

        return traced

    def wrap_public_methods(self, obj: object, name: str) -> None:
        """Wrap every public bound method of one instance (its own
        attributes shadow the class's, so only this object is traced)."""
        for attr in dir(obj):
            if attr.startswith("_"):
                continue
            value = getattr(obj, attr)
            if inspect.ismethod(value) and value.__self__ is obj:
                setattr(obj, attr, self.wrap(name, value))

    # -- ops -------------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self.rows = []
        self._current = None
        self._engines = {}
        self._hashed = {}
        self.fingerprint_repeats = 0
        self.op_id = op_id
        self.recording = True
        self._open(OP_SPAN)

    def end_op(self) -> List[list]:
        """Close the op; returns its span rows."""
        self._close()
        self.recording = False
        for key, calls in self._calls.items():
            if calls:
                self.status[key] = "ok"
        rows = self.rows
        if len(self._kept) + len(rows) <= MAX_KEPT_SPANS:
            self._kept.extend(rows)
        self._hashed = {}
        return rows

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code (no-op untraced)."""
        if not self.recording:
            yield
            return
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> None:
        rows = self.rows
        row = [len(rows), self._current, name, perf_counter(), 0.0, self.op_id]
        rows.append(row)
        self._current = row[_ID]

    def _close(self) -> None:
        row = self.rows[self._current]
        row[_END] = perf_counter()
        self._current = row[_PARENT]

    # -- side channels ---------------------------------------------------
    def _note_engine(self, engine) -> None:
        if id(engine) not in self._engines:
            stats = engine.stats
            self._engines[id(engine)] = (
                engine, stats.compile_calls, stats.compile_hits
            )

    def _note_fingerprint(self, report) -> None:
        if id(report) in self._hashed:
            self.fingerprint_repeats += 1
        else:
            # Holding the report keeps its id from being reused this op.
            self._hashed[id(report)] = report

    def engine_deltas(self) -> Tuple[int, int]:
        """``(compile calls, compile hits)`` this op across every engine
        it touched, from each engine's own ``stats``."""
        calls = hits = 0
        for engine, calls0, hits0 in self._engines.values():
            calls += engine.stats.compile_calls - calls0
            hits += engine.stats.compile_hits - hits0
        return calls, hits

    def kept_spans(self) -> List[dict]:
        return [
            {
                "id": row[_ID],
                "parent": row[_PARENT],
                "name": row[_NAME],
                "start_s": row[_START],
                "end_s": row[_END],
                "op": row[_OP],
            }
            for row in self._kept
        ]


def self_times(
    rows: List[list],
) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
    """Per span name: summed self time, call count, summed inclusive
    time.  Self time is a span's duration minus its children's."""
    child = [0.0] * len(rows)
    for row in rows:
        if row[_PARENT] is not None:
            child[row[_PARENT]] += row[_END] - row[_START]
    own: Dict[str, float] = {}
    count: Dict[str, int] = {}
    inclusive: Dict[str, float] = {}
    for row in rows:
        name = row[_NAME]
        duration = row[_END] - row[_START]
        own[name] = own.get(name, 0.0) + duration - child[row[_ID]]
        count[name] = count.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + duration
    return own, count, inclusive


def outermost_time(rows: List[list], names) -> float:
    """Inclusive time of spans named in ``names`` that have no ancestor
    also named there (nested builds are not counted twice)."""
    names = set(names)
    total = 0.0
    for row in rows:
        if row[_NAME] not in names:
            continue
        parent = row[_PARENT]
        nested = False
        while parent is not None:
            if rows[parent][_NAME] in names:
                nested = True
                break
            parent = rows[parent][_PARENT]
        if not nested:
            total += row[_END] - row[_START]
    return total
