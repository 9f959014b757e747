"""The rule catalog.  Importing this package registers every rule.

Rule ids are stable API: tests, suppression comments and the docs
catalog all refer to them, so ids are never reused or renumbered.

==========  ==========================================================
REP001      No wall-clock or unseeded randomness in simulation paths.
REP002      No float ``==`` / ``!=`` in modeling code.
REP003      Stable iteration order in fingerprint/export paths.
REP004      No arithmetic across mismatched unit suffixes.
REP005      No import cycles; local imports marked ``# cycle-breaker``.
REP006      No mutable default arguments.
REP007      No call chain from simulation code to a clock/entropy read
            anywhere in the project (interprocedural taint).
REP008      Spawn-boundary types are top-level, closure-free and
            importable (static pickle contract).
REP009      ExecutionEngine methods and the ControlPlane tick path
            never write non-cache-neutral ledger events.
==========  ==========================================================

REP007..REP009 are whole-program rules over the shared call graph
(:mod:`repro.lint.callgraph`), built once per analyzer run via
:class:`repro.lint.core.ProjectContext`.
"""

from repro.lint.core import registry
from repro.lint.rules import (  # noqa: F401  (import registers the rules)
    determinism,
    float_equality,
    hook_purity,
    import_graph,
    mutable_defaults,
    ordering,
    spawn_contract,
    taint,
    units,
)

#: Every registered rule, registration-ordered (REP001..REP009).
ALL_RULES = list(registry)

__all__ = ["ALL_RULES"]
