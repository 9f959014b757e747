"""REP009: hook and control-seam purity.

Two seams are contractually *observers* of a routing run, never
authors of it:

* functions subscribed to the engine lifecycle hook bus
  (``hooks.subscribe("on_compile", fn)`` and friends) -- PR 5's
  fingerprint-neutrality guarantee says instrumentation may count and
  trace but must not write the ledger;
* the predictive control plane's tick path (``ControlPlane.tick`` and
  everything it calls) -- PR 7 lets it act through sanctioned seams
  (ladder escalation, DVFS planning, ``engine.prewarm``) but never by
  recording events into the fingerprinted ledger directly.

Both contracts were previously pinned only by runtime determinism
tests (same-seed double runs).  This rule pins them statically: every
function reachable on the call graph from a hook registration or from
``ControlPlane.tick`` must not call a ledger write -- an event log's
``.record(kind, ...)``, the serving loop's engine ``relay(kind, ...)``
callback or its ``_row(kind, ...)`` event row -- with any event kind
outside the cache-neutral set that :meth:`RouterReport.fingerprint`
strips (``compile`` / ``cache_hit``, the engine-relay kinds).  A
dynamic (non-literal) kind from such a function is flagged too: the
analyzer cannot prove it neutral, and neutrality is the contract.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Set, Tuple

from repro.lint.callgraph import CallGraph, FunctionInfo
from repro.lint.core import (
    ProjectContext,
    ProjectRule,
    SourceModule,
    Violation,
    registry,
)
from repro.lint.names import dotted_name

__all__ = ["HookPurityRule", "LEDGER_WRITERS", "NEUTRAL_EVENT_KINDS"]

#: Event kinds the report fingerprint strips (cache temperature, not
#: routing behaviour) -- the only kinds a hook subscriber may record.
#: Mirrors ``RouterReport._CACHE_KINDS``.
NEUTRAL_EVENT_KINDS = ("compile", "cache_hit")

#: The calls (method or bare function) that write a ledger event.
LEDGER_WRITERS = ("record", "relay", "_row")


def _hook_registrations(
    graph: CallGraph,
) -> List[Tuple[str, str, FunctionInfo]]:
    """``(subscriber qualname, hook name, registering function)``.

    A registration is any ``<...>.subscribe("on_*", fn)`` call whose
    callback resolves to a project function: a bare name (lexically
    scoped, so closure callbacks resolve) or a ``self.method``
    reference.
    """
    found: List[Tuple[str, str, FunctionInfo]] = []
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        for site in info.calls:
            call = site.node
            func = call.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "subscribe"
            ):
                continue
            if len(call.args) < 2:
                continue
            hook = call.args[0]
            if not (
                isinstance(hook, ast.Constant)
                and isinstance(hook.value, str)
                and hook.value.startswith("on_")
            ):
                continue
            target = _resolve_callback(graph, info, call.args[1])
            if target is not None:
                found.append((target, hook.value, info))
    return found


def _resolve_callback(
    graph: CallGraph, info: FunctionInfo, node: ast.AST
):
    """The project function a callback argument names, or None."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    if head in ("self", "cls") and rest and "." not in rest:
        owner = info.owner_class
        scope = info
        while owner is None and scope is not None and scope.parent:
            scope = graph.functions.get(scope.parent)
            owner = scope.owner_class if scope is not None else None
        if owner is not None:
            return graph.resolve_method(owner, rest)
        return None
    if rest:
        return None  # attribute chains on objects: unresolvable
    scope = info
    while scope is not None:
        local = scope.local_defs.get(head)
        if local is not None:
            return local if local in graph.functions else None
        scope = (
            graph.functions.get(scope.parent) if scope.parent else None
        )
    module_key = info.module.name or info.module.path.stem
    local = graph.module_defs.get(module_key, {}).get(head)
    if local is not None and local in graph.functions:
        return local
    return None


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
    """Hook subscribers and the control tick path stay ledger-neutral."""

    rule_id = "REP009"
    summary = (
        "engine-hook subscribers and the ControlPlane tick path never "
        "record non-cache-neutral ledger events"
    )
    rationale = (
        "Instrumentation and the predictive controller are observers: "
        "they may count, trace, prewarm and plan, but a ledger write "
        "(EventLog.record, the engine relay or an event row of a "
        "fingerprinted kind) from either seam "
        "silently changes report fingerprints with cache temperature "
        "or controller wiring -- the exact neutrality the same-seed "
        "replay tests assert dynamically."
    )

    def check_project(
        self, modules: Sequence[SourceModule], context: ProjectContext
    ) -> List[Violation]:
        graph = context.callgraph
        # root qualname -> how it entered the contract (description,
        # witness chain prefix).  Hook registrations first, then tick
        # paths; sorted processing keeps output deterministic.
        entries: Dict[str, str] = {}
        for target, hook, registrar in _hook_registrations(graph):
            entries.setdefault(
                target,
                "subscribed to %r at %s" % (hook, registrar.qualname),
            )
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
                            "(%s; call chain: %s); hooks and the "
                            "control tick may observe but never "
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
