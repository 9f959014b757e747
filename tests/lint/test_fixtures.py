"""Golden fixture tests: every rule fires on seeded bad code at the
expected locations and stays silent on the good twin.

The goldens pin ``(rule_id, line)`` pairs, so a rule that drifts to a
different anchor or grows false positives fails loudly here.
"""

from pathlib import Path

from repro.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file (relative) -> expected unsuppressed (rule, line) pairs.
GOLDEN = {
    "repro/sim/rep001_bad.py": [
        ("REP001", 12),   # time.time()
        ("REP001", 16),   # aliased perf_counter()
        ("REP001", 20),   # os.urandom
        ("REP001", 24),   # uuid.uuid4
        ("REP001", 28),   # random.seed
        ("REP001", 29),   # random.random
        ("REP001", 33),   # np.random.rand
    ],
    "rep002_bad.py": [
        ("REP002", 5),
        ("REP002", 9),
        ("REP002", 13),
        ("REP002", 17),
    ],
    "rep003_bad.py": [
        ("REP003", 7),    # values() in a list comp
        ("REP003", 14),   # unsorted items()
        ("REP003", 16),   # set(...) iteration
        ("REP003", 18),   # dumps without sort_keys
        ("REP003", 22),   # keys() in a list comp
    ],
    "rep004_bad.py": [
        ("REP004", 5),    # ms + s
        ("REP004", 9),    # J - mJ
        ("REP004", 13),   # ms vs s comparison
        ("REP004", 17),   # s + J (cross-dimension)
        ("REP004", 21),   # bytes vs kb
        ("REP004", 24),   # docstring declares seconds, name suffixless
    ],
    "cycle_pkg/alpha.py": [
        ("REP005", 2),    # cycle edge to beta
        ("REP005", 10),   # unmarked local import
    ],
    "cycle_pkg/beta.py": [
        ("REP005", 4),    # cycle edge back to alpha
    ],
    "rep006_bad.py": [
        ("REP006", 4),
        ("REP006", 9),
        ("REP006", 13),
        ("REP006", 17),
    ],
    "repro/sim/rep007_bad.py": [
        ("REP007", 12),  # two hops to time.time via repro.gpu
        ("REP007", 16),  # one hop to uuid.uuid4
    ],
    "repro/serving/shard/rep008_bad.py": [
        ("REP008", 24),  # lambda field(default_factory=...)
        ("REP008", 31),  # closure-captured local class reference
    ],
    "spawn_helpers.py": [
        ("REP008", 11),  # class outside any importable package
    ],
    "rep009_bad.py": [
        ("REP009", 17),  # engine relay handed a fingerprinted kind
        ("REP009", 22),  # engine relay handed a dynamic kind
        ("REP009", 27),  # loop event row of a fingerprinted kind
        ("REP009", 31),  # .record of a fingerprinted kind via a helper
        ("REP009", 42),  # ledger write reached from ControlPlane.tick
    ],
}

#: Fixtures that must produce zero unsuppressed findings.
CLEAN = [
    "repro/sim/rep001_good.py",
    "rep001_outside.py",
    "rep002_good.py",
    "rep003_good.py",
    "rep004_good.py",
    "cycle_pkg/gamma.py",
    "cycle_pkg/delta.py",
    "rep006_good.py",
    "repro/sim/rep007_good.py",
    "repro/gpu/clock_helpers.py",
    "repro/serving/shard/rep008_good.py",
    "rep009_good.py",
    "stale.py",
]


def _found(report, fixture):
    suffix = str(Path(fixture))
    return sorted(
        (v.rule_id, v.line)
        for v in report.violations
        if v.path.endswith(suffix)
    )


def test_bad_fixtures_fire_exactly_the_goldens():
    report = run_lint([FIXTURES])
    for fixture, expected in GOLDEN.items():
        assert _found(report, fixture) == sorted(expected), fixture


def test_good_fixtures_stay_silent():
    report = run_lint([FIXTURES])
    for fixture in CLEAN:
        assert _found(report, fixture) == [], fixture


def test_no_unexpected_files_fire():
    report = run_lint([FIXTURES])
    expected_files = {str(Path(f)) for f in GOLDEN} | {"suppressed.py"}
    for violation in report.violations:
        assert any(
            violation.path.endswith(name) for name in expected_files
        ), violation.render()


def test_suppression_fixture_splits_records():
    report = run_lint([FIXTURES / "suppressed.py"])
    suppressed = sorted(
        (v.rule_id, v.line) for v in report.suppressed
    )
    assert suppressed == [
        ("REP002", 5), ("REP004", 9), ("REP006", 8),
    ]
    assert [(v.rule_id, v.line) for v in report.violations] == [
        ("REP006", 17)
    ]
    assert all(v.suppressed for v in report.suppressed)
    assert not report.ok


def test_rep007_renders_the_full_call_chain():
    report = run_lint([FIXTURES])
    hits = [
        v
        for v in report.violations
        if v.rule_id == "REP007" and v.path.endswith("rep007_bad.py")
    ]
    by_line = {v.line: v for v in hits}
    assert by_line[12].chain == (
        "repro.sim.rep007_bad.step_window",
        "repro.gpu.clock_helpers.middle",
        "repro.gpu.clock_helpers.deep_clock",
        "time.time",
    )
    assert (
        "call chain: repro.sim.rep007_bad.step_window -> "
        "repro.gpu.clock_helpers.middle -> "
        "repro.gpu.clock_helpers.deep_clock -> time.time"
        in by_line[12].message
    )
    assert by_line[16].chain == (
        "repro.sim.rep007_bad.label_run",
        "repro.gpu.clock_helpers.fresh_tag",
        "uuid.uuid4",
    )


def test_rep007_containment_marker_records_a_suppression():
    # The ``# lint: ignore[REP007]`` on the banned read both stops
    # the seed (watchdog_deadline stays clean) and files the read in
    # the reviewable suppression inventory -- never silently dropped.
    report = run_lint([FIXTURES])
    contained = [
        (v.rule_id, v.line)
        for v in report.suppressed
        if v.path.endswith("clock_helpers.py")
    ]
    assert contained == [("REP007", 24)]


def test_stale_suppressions_are_inventoried():
    report = run_lint([FIXTURES])
    stale = [
        (Path(s.path).name, s.line, s.rule_id, s.reason)
        for s in report.stale
    ]
    assert ("stale.py", 10, "REP002", "unused") in stale
    assert ("stale.py", 14, "REP999", "unknown-rule") in stale
    # suppressed.py line 8 names REP004+REP006 but only REP006 fires
    # there -- the rotted half of the comma list is flagged.
    assert ("suppressed.py", 8, "REP004", "unused") in stale
    assert len(stale) == 3
    # Stale markers never affect the exit-status contract by default.
    assert all(not s.path.endswith("stale.py") for s in report.suppressed)


def test_rule_filter_restricts_findings():
    report = run_lint([FIXTURES], rule_ids=["REP006"])
    assert report.rules_run == ["REP006"]
    assert {v.rule_id for v in report.violations} == {"REP006"}


def test_single_rule_on_single_file():
    report = run_lint(
        [FIXTURES / "rep002_bad.py"], rule_ids=["REP002"]
    )
    assert len(report.violations) == len(GOLDEN["rep002_bad.py"])
    assert report.files_scanned == 1
