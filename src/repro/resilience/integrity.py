"""Result integrity validation: never trust a worker's payload.

A spawn worker returns its result over a pipe; between ``os.fork`` -
less spawn bootstrap, pickling and a possibly-dying process there are
plenty of ways to receive garbage.  :func:`validate_result` is the
supervisor's acceptance gate: a structural schema check (is this a
shard result at all, does it answer *this* spec), then a semantic
cross-check (a result that crossed a boundary -- the spawn pipe, a
checkpoint file, a fault plan's tamper -- declares its report
fingerprint there; the supervisor recomputes it from the received
report, so any change on the way shows up as a mismatch), then
conservation (every request offered to the shard must have a terminal
record).  A result with no declaration never left the process that
produced it; there is nothing to compare, so its report is not
rendered here.

Everything is duck-typed: the module imports nothing from
:mod:`repro.serving`, so the supervisor stays generic and the import
graph stays acyclic.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["validate_result", "witness_disagreement"]


def _expected_offered(spec) -> Optional[int]:
    """How many requests the spec offers, when it says."""
    loads = getattr(spec, "loads", None)
    if loads is None:
        return None
    total = 0
    for load in loads:
        trace = getattr(load, "trace", None)
        if trace is None or not hasattr(trace, "n_requests"):
            return None
        total += trace.n_requests
    return total


def validate_result(spec, result) -> Optional[str]:
    """The reason ``result`` is unacceptable for ``spec`` (or None).

    Checks, in order: payload shape (``shard_id`` / ``report``
    present, report fingerprintable), identity (the result answers
    this spec's shard and seed), fingerprint integrity (a declared
    fingerprint == the recomputed one; an undeclared result is not
    recomputed), request conservation (``n_offered`` matches the
    spec's loads), and span presence for instrumented specs.
    """
    if result is None:
        return "no result payload"
    shard_id = getattr(result, "shard_id", None)
    report = getattr(result, "report", None)
    if shard_id is None or report is None:
        return "schema: payload is not a shard result (%s)" % (
            type(result).__name__,
        )
    if shard_id != spec.shard_id:
        return "schema: result for shard %r answers spec for shard %r" % (
            shard_id, spec.shard_id,
        )
    seed = getattr(result, "seed", None)
    want_seed = getattr(spec, "seed", None)
    if seed is not None and want_seed is not None and seed != want_seed:
        return "schema: result seed %r != spec seed %r" % (seed, want_seed)
    fingerprint = getattr(report, "fingerprint", None)
    if not callable(fingerprint):
        return "schema: report of type %s is not fingerprintable" % (
            type(report).__name__,
        )
    declared = getattr(result, "declared_fingerprint", None)
    if declared is not None:
        try:
            recomputed = fingerprint()
        except Exception as error:  # corrupted report internals
            return "integrity: fingerprint recompute failed (%s: %s)" % (
                type(error).__name__, error,
            )
        if declared != recomputed:
            return (
                "integrity: declared fingerprint %s != recomputed %s"
                % (declared, recomputed)
            )
    expected = _expected_offered(spec)
    observed = getattr(report, "n_offered", None)
    if expected is not None and observed is not None and observed != expected:
        return (
            "integrity: report accounts for %d requests, spec offered %d"
            % (observed, expected)
        )
    if getattr(spec, "instrument", False) and getattr(
        result, "spans", None
    ) is None:
        return "schema: instrumented spec returned no spans"
    return None


def _validated_fingerprint(result) -> str:
    """A validated result's report fingerprint: its declaration, which
    :func:`validate_result` has just checked against the report, or a
    render when it declares none."""
    declared = getattr(result, "declared_fingerprint", None)
    if declared is not None:
        return declared
    return result.report.fingerprint()


def witness_disagreement(primary, witness) -> Optional[str]:
    """Why a witness re-execution disagrees with the primary (or None).

    Both results have already passed :func:`validate_result`, so a
    declared fingerprint is its report's own and is compared as is;
    only an undeclared (inline) result is rendered.  The witness ran
    the same spec clean, so any fingerprint divergence means the
    primary's report is self-consistent but wrong (forged, or produced
    by a nondeterministic worker).
    """
    primary_fp = _validated_fingerprint(primary)
    witness_fp = _validated_fingerprint(witness)
    if primary_fp != witness_fp:
        return (
            "witness: primary fingerprint %s != witness %s"
            % (primary_fp, witness_fp)
        )
    return None
