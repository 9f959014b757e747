"""Conservative intra-project call graph for whole-program rules.

The module-local rules (REP001..REP004, REP006) see one file at a
time, which is exactly the blind spot the interprocedural rules close:
a wall-clock read two helper calls away from a simulation function, a
closure-capturing class referenced from a spawn spec, an engine method
that reaches the ledger through a helper.  All three need the same
substrate -- *who calls whom, resolved statically* -- so it is built
once per analyzer run (see
:class:`repro.lint.core.ProjectContext`) and shared.

Resolution is deliberately conservative (an under-approximation): an
edge exists only when the target is syntactically certain.

* bare names resolve lexically -- enclosing function scopes, then the
  module's top-level definitions, then the import alias table
  (:class:`repro.lint.names.ImportAliases`);
* ``self.method()`` / ``cls.method()`` resolve through the enclosing
  class and its project-resolvable bases;
* ``ClassName.method()`` and ``module.func()`` resolve through the
  alias table to class-qualified names;
* calling a project class adds edges to its ``__init__`` and
  ``__post_init__`` (both run at construction time);
* anything else (attribute chains on objects, calls through
  variables) resolves to no project edge at all.

Every call site also keeps its alias-expanded dotted name
(``external``), which is how the taint rule recognizes
``time.time()`` behind ``from time import time`` -- the exact
semantics of REP001's direct scan.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.core import SourceModule
from repro.lint.names import ImportAliases, dotted_name

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "build_callgraph",
]


@dataclass
class CallSite:
    """One call expression inside a function body, after resolution."""

    #: The ``ast.Call`` node (anchor for violations).
    node: ast.Call
    #: Project functions this call certainly reaches (usually one;
    #: a class construction yields ``__init__`` + ``__post_init__``).
    targets: Tuple[str, ...] = ()
    #: The alias-expanded dotted name when the call did not resolve to
    #: a project definition (``time.time``, ``numpy.random.rand``).
    external: Optional[str] = None


@dataclass
class FunctionInfo:
    """One function or method definition (nested ones included)."""

    #: Fully qualified name: ``module.func``, ``module.Class.method``
    #: or ``module.outer.<locals>.inner`` for nested definitions.
    qualname: str
    module: SourceModule
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: Qualname of the lexically enclosing function, if any.
    parent: Optional[str] = None
    #: Qualname of the class this is a method of, if any.
    owner_class: Optional[str] = None
    #: Names defined *directly inside* this function -> qualnames
    #: (nested defs and local classes), for lexical resolution.
    local_defs: Dict[str, str] = field(default_factory=dict)
    #: Filled by the link phase.
    calls: List[CallSite] = field(default_factory=list)

    @property
    def is_nested(self) -> bool:
        return "<locals>" in self.qualname


@dataclass
class ClassInfo:
    """One class definition."""

    qualname: str
    name: str
    module: SourceModule
    node: ast.ClassDef
    #: Defined at module scope (what pickle-by-reference requires).
    top_level: bool = True
    #: Raw base-class dotted names, unresolved.
    bases: Tuple[str, ...] = ()
    #: method name -> function qualname.
    methods: Dict[str, str] = field(default_factory=dict)


class CallGraph:
    """The resolved project call graph over one module set."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: module name -> top-level definition name -> qualname.
        self.module_defs: Dict[str, Dict[str, str]] = {}
        self._aliases: Dict[str, ImportAliases] = {}
        self._reverse: Optional[Dict[str, List[Tuple[str, CallSite]]]] = None

    # -- queries ---------------------------------------------------------
    def callers_of(self, qualname: str) -> List[Tuple[str, CallSite]]:
        """``(caller qualname, call site)`` pairs targeting ``qualname``."""
        if self._reverse is None:
            reverse: Dict[str, List[Tuple[str, CallSite]]] = {}
            for name in sorted(self.functions):
                for site in self.functions[name].calls:
                    for target in site.targets:
                        reverse.setdefault(target, []).append((name, site))
            self._reverse = reverse
        return self._reverse.get(qualname, [])

    def resolve_class(
        self, module: SourceModule, name: str
    ) -> Optional[ClassInfo]:
        """A project class an identifier in ``module`` refers to.

        ``name`` may be dotted (``planner.ShardSpec``); resolution goes
        through the module's own definitions first, then the import
        alias table.
        """
        defs = self.module_defs.get(
            module.name or module.path.stem, {}
        )
        head = name.split(".")[0]
        if head in defs and "." not in name:
            return self.classes.get(defs[head])
        expanded = self.alias_table(module).expand(name)
        return self.classes.get(expanded)

    def resolve_method(
        self, class_qualname: str, method: str
    ) -> Optional[str]:
        """Resolve ``method`` on a class or its project bases."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            qualname = stack.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            info = self.classes.get(qualname)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            for base in info.bases:
                resolved = self.resolve_class(info.module, base)
                if resolved is not None:
                    stack.append(resolved.qualname)
        return None

    def alias_table(self, module: SourceModule) -> ImportAliases:
        key = module.name or str(module.path)
        if key not in self._aliases:
            self._aliases[key] = ImportAliases(module.tree)
        return self._aliases[key]

    # -- construction ----------------------------------------------------
    def _constructor_targets(self, class_qualname: str) -> Tuple[str, ...]:
        """The functions that run when a project class is called."""
        info = self.classes.get(class_qualname)
        if info is None:
            return ()
        return tuple(
            info.methods[name]
            for name in ("__init__", "__post_init__")
            if name in info.methods
        )


def _module_key(module: SourceModule) -> str:
    """Stable name even for files outside any package."""
    return module.name or module.path.stem


def _collect_definitions(graph: CallGraph, module: SourceModule) -> None:
    mod_name = _module_key(module)
    defs = graph.module_defs.setdefault(mod_name, {})

    def visit(
        body: Sequence[ast.stmt],
        prefix: str,
        parent_func: Optional[str],
        owner_class: Optional[str],
        at_module_level: bool,
        parent_info: Optional[FunctionInfo],
        class_info: Optional[ClassInfo],
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = "%s.%s" % (prefix, node.name)
                info = FunctionInfo(
                    qualname=qualname,
                    module=module,
                    node=node,
                    parent=parent_func,
                    owner_class=owner_class,
                )
                graph.functions[qualname] = info
                if at_module_level:
                    defs[node.name] = qualname
                if parent_info is not None:
                    parent_info.local_defs[node.name] = qualname
                if class_info is not None:
                    class_info.methods.setdefault(node.name, qualname)
                visit(
                    node.body,
                    qualname + ".<locals>",
                    qualname,
                    None,
                    False,
                    info,
                    None,
                )
            elif isinstance(node, ast.ClassDef):
                qualname = "%s.%s" % (prefix, node.name)
                info = ClassInfo(
                    qualname=qualname,
                    name=node.name,
                    module=module,
                    node=node,
                    top_level=at_module_level,
                    bases=tuple(
                        name
                        for name in (
                            dotted_name(base) for base in node.bases
                        )
                        if name is not None
                    ),
                )
                graph.classes[qualname] = info
                if at_module_level:
                    defs[node.name] = qualname
                if parent_info is not None:
                    parent_info.local_defs[node.name] = qualname
                visit(
                    node.body, qualname, parent_func, qualname,
                    False, parent_info, info,
                )
            elif isinstance(
                node, (ast.If, ast.Try, ast.With, ast.AsyncWith,
                       ast.For, ast.AsyncFor, ast.While)
            ):
                for block_name in ("body", "orelse", "finalbody"):
                    block = getattr(node, block_name, None)
                    if block:
                        visit(
                            block, prefix, parent_func, owner_class,
                            at_module_level, parent_info, class_info,
                        )
                for handler in getattr(node, "handlers", ()):
                    visit(
                        handler.body, prefix, parent_func, owner_class,
                        at_module_level, parent_info, class_info,
                    )

    visit(module.tree.body, mod_name, None, None, True, None, None)


def _scoped_calls(node: ast.AST) -> List[ast.Call]:
    """Calls in ``node``'s own scope (nested def/class bodies excluded)."""
    calls: List[ast.Call] = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
             ast.ClassDef),
        ):
            continue
        if isinstance(child, ast.Call):
            calls.append(child)
        stack.extend(ast.iter_child_nodes(child))
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


def _resolve_call(
    graph: CallGraph, info: FunctionInfo, call: ast.Call
) -> CallSite:
    name = dotted_name(call.func)
    if name is None:
        return CallSite(node=call)
    head, _, rest = name.partition(".")

    # self.method() / cls.method() through the enclosing class; a
    # closure inside a method sees the method's ``self``, so the walk
    # climbs the lexical chain to the nearest method.
    if head in ("self", "cls") and rest:
        owner = info.owner_class
        scope: Optional[FunctionInfo] = info
        while owner is None and scope is not None and scope.parent:
            scope = graph.functions.get(scope.parent)
            owner = scope.owner_class if scope is not None else None
        if owner is not None and "." not in rest:
            target = graph.resolve_method(owner, rest)
            if target is not None:
                return CallSite(node=call, targets=(target,))
        return CallSite(node=call)

    def targets_for(qualname: str, trailing: str) -> Tuple[str, ...]:
        """Project targets for a resolved definition + attribute tail."""
        if trailing:
            if qualname in graph.classes and "." not in trailing:
                method = graph.resolve_method(qualname, trailing)
                return (method,) if method is not None else ()
            return ()
        if qualname in graph.functions:
            return (qualname,)
        if qualname in graph.classes:
            return graph._constructor_targets(qualname)
        return ()

    # Lexical scope chain: enclosing functions' local definitions.
    scope: Optional[FunctionInfo] = info
    while scope is not None:
        local = scope.local_defs.get(head)
        if local is not None:
            return CallSite(node=call, targets=targets_for(local, rest))
        scope = (
            graph.functions.get(scope.parent) if scope.parent else None
        )

    # Module top-level definitions.
    mod_defs = graph.module_defs.get(_module_key(info.module), {})
    local = mod_defs.get(head)
    if local is not None:
        return CallSite(node=call, targets=targets_for(local, rest))

    # Import aliases: a project function/class in another module, or
    # an external dotted name (kept for taint seeding).
    expanded = graph.alias_table(info.module).expand(name)
    if expanded in graph.functions:
        return CallSite(node=call, targets=(expanded,))
    if expanded in graph.classes:
        return CallSite(
            node=call, targets=graph._constructor_targets(expanded)
        )
    # ``module.Class.method`` spelled through an imported module/class.
    prefix, _, attr = expanded.rpartition(".")
    if prefix in graph.classes:
        method = graph.resolve_method(prefix, attr)
        if method is not None:
            return CallSite(node=call, targets=(method,))
    return CallSite(node=call, external=expanded)


def build_callgraph(modules: Sequence[SourceModule]) -> CallGraph:
    """Collect definitions, then link call sites, over ``modules``.

    The result is independent of the input order: both phases key
    everything by qualified name and iterate sorted.
    """
    graph = CallGraph()
    ordered = sorted(modules, key=lambda m: (_module_key(m), str(m.path)))
    for module in ordered:
        _collect_definitions(graph, module)
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        for call in _scoped_calls(info.node):
            info.calls.append(_resolve_call(graph, info, call))
    return graph
