"""The fingerprint's byte-for-byte oracle.

``RouterReport.fingerprint`` writes its canonical bytes from the
records' columns (:mod:`repro.serving.canonical`).  This is the
rendering it replaced: ``json.dumps`` over the filtered
``to_dict(include_events=True, include_requests=True)``, with the
cache-kind, obs and prewarm filters.  Tests assert the two agree.
"""

import hashlib
import json

from repro.obs.instrument import cache_neutral_obs_section

#: Engine relay kinds the fingerprint leaves out.
CACHE_KINDS = ("compile", "cache_hit")


def oracle_payload(report) -> str:
    """The canonical JSON the fingerprint hashes, via plain dicts."""
    data = report.to_dict(include_events=True, include_requests=True)
    data["events"] = [
        {key: value for key, value in event.items() if key != "seq"}
        for event in data["events"]
        if event["kind"] not in CACHE_KINDS
    ]
    data["event_counts"] = {
        kind: count
        for kind, count in data["event_counts"].items()
        if kind not in CACHE_KINDS
    }
    if report.obs is not None:
        data["obs"] = cache_neutral_obs_section(report.obs)
    if report.control is not None:
        control = dict(report.control)
        prewarm = control.get("prewarm")
        if isinstance(prewarm, dict):
            control["prewarm"] = {"requested": prewarm.get("requested")}
        data["control"] = control
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def oracle_fingerprint(report) -> str:
    return hashlib.sha1(oracle_payload(report).encode("utf-8")).hexdigest()


def checked_fingerprint(report) -> str:
    """``report.fingerprint()``, asserted equal to the oracle's.  The
    fingerprint is taken first: the oracle builds a lazy report's
    records, and a later fingerprint would read those."""
    fingerprint = report.fingerprint()
    assert fingerprint == oracle_fingerprint(report)
    return fingerprint
