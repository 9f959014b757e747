"""REP009: engine and control-seam purity.

Two seams are contractually *observers* of a routing run, never
authors of it:

* the execution engine (every method of ``ExecutionEngine`` and
  everything it calls) -- it counts its own stats and hands each
  compile and cache hit to the relays a run registers, and the
  fingerprint-neutrality guarantee says what it hands over may be
  counted and traced but must never be a fingerprinted event;
* the predictive control plane's tick path (``ControlPlane.tick`` and
  everything it calls) -- it acts through sanctioned seams (ladder
  escalation, DVFS planning, ``engine.prewarm``) but never by
  recording events into the fingerprinted ledger directly.

Both contracts were previously pinned only by runtime determinism
tests (same-seed double runs).  This rule pins them statically: every
function reachable on the call graph from an ``ExecutionEngine``
method or from ``ControlPlane.tick`` must not call a ledger write --
an event log's ``.record(kind, ...)``, a run's engine
``relay(kind, ...)`` or the serving loop's ``_row(kind, ...)`` event
row -- with any event kind outside the cache-neutral set that
:meth:`RouterReport.fingerprint` strips (``compile`` / ``cache_hit``,
the engine-relay kinds).  A dynamic (non-literal) kind from such a
function is flagged too: the analyzer cannot prove it neutral, and
neutrality is the contract.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Set, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.core import (
    ProjectContext,
    ProjectRule,
    SourceModule,
    Violation,
    registry,
)

__all__ = ["HookPurityRule", "LEDGER_WRITERS", "NEUTRAL_EVENT_KINDS"]

#: Event kinds the report fingerprint strips (cache temperature, not
#: routing behaviour) -- the only kinds the engine may relay.
#: Mirrors ``RouterReport._CACHE_KINDS``.
NEUTRAL_EVENT_KINDS = ("compile", "cache_hit")

#: The calls (method or bare function) that write a ledger event.
LEDGER_WRITERS = ("record", "relay", "_row")


def _engine_roots(graph: CallGraph) -> List[str]:
    """Every method of an ``ExecutionEngine`` class (any scanned
    module)."""
    roots: List[str] = []
    for qualname in sorted(graph.classes):
        info = graph.classes[qualname]
        if info.name == "ExecutionEngine":
            roots.extend(sorted(info.methods.values()))
    return roots


def _tick_roots(graph: CallGraph) -> List[str]:
    """``ControlPlane.tick`` methods (any scanned module)."""
    return [
        qualname
        for qualname in sorted(graph.functions)
        if qualname.endswith(".ControlPlane.tick")
    ]


def _reachable(graph: CallGraph, root: str) -> List[str]:
    """Forward closure over project edges, root included, sorted."""
    seen: Set[str] = {root}
    stack = [root]
    while stack:
        current = stack.pop()
        info = graph.functions.get(current)
        if info is None:
            continue
        for site in info.calls:
            for target in site.targets:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
    return sorted(seen)


@registry.register
class HookPurityRule(ProjectRule):
    """The engine and the control tick path stay ledger-neutral."""

    rule_id = "REP009"
    summary = (
        "ExecutionEngine methods and the ControlPlane tick path never "
        "record non-cache-neutral ledger events"
    )
    rationale = (
        "The engine and the predictive controller are observers: "
        "they may count, relay compiles and cache hits, prewarm and "
        "plan, but a ledger write (a .record call, the engine relay "
        "or an event row of a fingerprinted kind) from either seam "
        "silently changes report fingerprints with cache temperature "
        "or controller wiring -- the exact neutrality the same-seed "
        "replay tests assert dynamically."
    )

    def check_project(
        self, modules: Sequence[SourceModule], context: ProjectContext
    ) -> List[Violation]:
        graph = context.callgraph
        # root qualname -> how it entered the contract.  Engine
        # methods first, then tick paths; sorted processing keeps
        # output deterministic.
        entries: Dict[str, str] = {}
        for root in _engine_roots(graph):
            entries.setdefault(root, "an ExecutionEngine method")
        for root in _tick_roots(graph):
            entries.setdefault(root, "the ControlPlane tick path")

        violations: List[Violation] = []
        reported: Set[Tuple[str, int, int]] = set()
        for root in sorted(entries):
            why = entries[root]
            chains = _witness_chains(graph, root)
            for qualname in _reachable(graph, root):
                info = graph.functions.get(qualname)
                if info is None:
                    continue
                for site in info.calls:
                    verdict = _ledger_write(site.node)
                    if verdict is None:
                        continue
                    key = (
                        info.module.display_path,
                        site.node.lineno,
                        site.node.col_offset,
                    )
                    if key in reported:
                        continue
                    reported.add(key)
                    chain = chains.get(qualname, (qualname,))
                    violations.append(
                        info.module.violation(
                            site.node,
                            self.rule_id,
                            "%s from a fingerprint-neutral seam "
                            "(%s; call chain: %s); the engine and "
                            "the control tick may observe but never "
                            "write the ledger" % (
                                verdict, why, " -> ".join(chain),
                            ),
                            chain=chain,
                        )
                    )
        return sorted(violations)


def _witness_chains(
    graph: CallGraph, root: str
) -> Dict[str, Tuple[str, ...]]:
    """Shortest call chain from ``root`` to each reachable function."""
    chains: Dict[str, Tuple[str, ...]] = {root: (root,)}
    frontier = [root]
    while frontier:
        next_frontier = []
        for current in sorted(frontier):
            info = graph.functions.get(current)
            if info is None:
                continue
            for site in info.calls:
                for target in site.targets:
                    if target not in chains:
                        chains[target] = chains[current] + (target,)
                        next_frontier.append(target)
        frontier = next_frontier
    return chains


def _ledger_write(call: ast.Call):
    """Describe a ledger write, or None if the call is not one.

    A ledger write calls one of :data:`LEDGER_WRITERS` with the kind
    first; a string-literal kind inside :data:`NEUTRAL_EVENT_KINDS` is
    the sanctioned engine relay, anything else (other literals, or a
    kind the analyzer cannot read) is a write.
    """
    func = call.func
    name = getattr(func, "attr", None) or getattr(func, "id", None)
    if name not in LEDGER_WRITERS:
        return None
    if not call.args:
        return None
    kind = call.args[0]
    if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
        if kind.value in NEUTRAL_EVENT_KINDS:
            return None
        return "ledger event %r recorded" % kind.value
    return "ledger event with a dynamic kind recorded"
