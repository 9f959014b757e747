"""The analyzer's acceptance gate: ``src/repro`` is violation-free.

Every finding in the package is either fixed or carries a reviewed
``# lint: ignore[...]`` suppression; this test pins both halves so a
new violation *or* an unreviewed suppression fails CI.
"""

from pathlib import Path

import repro
from repro.lint import run_lint

PACKAGE_ROOT = Path(repro.__file__).parent

#: The reviewed suppression inventory: (module path suffix, rule, count).
#: Adding a suppression means updating this list in the same PR.
RECORDED_SUPPRESSIONS = [
    ("core/runtime/accuracy_tuning.py", "REP002", 1),
    ("nn/perforation.py", "REP002", 3),
    # The supervisor's single wall-clock read: shard timeouts measure
    # real elapsed time by definition, and nothing derived from it is
    # fingerprinted (see the module docstring's containment invariant).
    ("resilience/supervisor.py", "REP001", 1),
]


#: The reviewed benchmark-sweep inventory (REP002/REP003/REP006 over
#: benchmarks/ and examples/): exact-sentinel assertions only --
#: piecewise SoC curves saturating to exactly 0/1 and Table VI
#: configuration constants.
BENCH_SUPPRESSIONS = [
    ("benchmarks/bench_fig13_runtime_soctime.py", "REP002", 3),
    ("benchmarks/bench_fig3_satisfaction_curves.py", "REP002", 5),
    ("benchmarks/bench_table4_kernel_detail.py", "REP002", 2),
]

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_package_has_zero_unsuppressed_violations():
    report = run_lint([PACKAGE_ROOT])
    assert report.ok, "\n".join(v.render() for v in report.violations)


def test_package_has_zero_stale_suppressions():
    # Every marker in the package must still cover a live finding --
    # the suppression inventory cannot rot silently.
    report = run_lint([PACKAGE_ROOT])
    assert report.stale == [], "\n".join(
        stale.render() for stale in report.stale
    )


def test_whole_program_rules_are_clean_standalone():
    # REP007..REP009 alone (interprocedural taint, spawn contract,
    # engine and tick purity): zero findings and zero suppressions in the
    # package -- the call-graph rules hold without any carve-outs.
    report = run_lint(
        [PACKAGE_ROOT], rule_ids=["REP007", "REP008", "REP009"]
    )
    assert report.ok, "\n".join(v.render() for v in report.violations)
    assert not report.suppressed, [
        v.render() for v in report.suppressed
    ]


def test_benchmarks_and_examples_sweep_is_clean():
    # Satellite scope: the module-local correctness rules also hold
    # over benchmarks/ and examples/, modulo the recorded exact
    # -sentinel suppressions above.
    report = run_lint(
        [REPO_ROOT / "benchmarks", REPO_ROOT / "examples"],
        rule_ids=["REP002", "REP003", "REP006"],
    )
    assert report.ok, "\n".join(v.render() for v in report.violations)
    assert report.stale == [], [s.render() for s in report.stale]
    actual = {}
    for violation in report.suppressed:
        key = (violation.path, violation.rule_id)
        actual[key] = actual.get(key, 0) + 1
    expected_total = sum(count for _, _, count in BENCH_SUPPRESSIONS)
    assert len(report.suppressed) == expected_total, sorted(actual)
    for suffix, rule_id, count in BENCH_SUPPRESSIONS:
        matches = sum(
            n for (path, rule), n in actual.items()
            if rule == rule_id and path.endswith(str(Path(suffix)))
        )
        assert matches == count, (suffix, rule_id, sorted(actual))


def test_package_scans_every_module():
    report = run_lint([PACKAGE_ROOT])
    n_files = len(list(PACKAGE_ROOT.rglob("*.py")))
    assert report.files_scanned == n_files
    assert report.errors == {}


def test_suppression_inventory_matches_recorded():
    report = run_lint([PACKAGE_ROOT])
    actual = {}
    for violation in report.suppressed:
        key = (violation.path, violation.rule_id)
        actual[key] = actual.get(key, 0) + 1
    expected_total = sum(count for _, _, count in RECORDED_SUPPRESSIONS)
    assert len(report.suppressed) == expected_total, sorted(actual)
    for suffix, rule_id, count in RECORDED_SUPPRESSIONS:
        matches = sum(
            n for (path, rule), n in actual.items()
            if rule == rule_id and path.endswith(str(Path(suffix)))
        )
        assert matches == count, (suffix, rule_id, sorted(actual))


def test_simulation_packages_exist_for_rep001_scope():
    # REP001's scope list must track the real package layout; a rename
    # would silently unscope the determinism rule.
    from repro.lint.rules.determinism import SIMULATION_PACKAGES

    for package in SIMULATION_PACKAGES:
        relative = Path(*package.split(".")[1:])
        assert (PACKAGE_ROOT / relative / "__init__.py").exists(), package


def test_obs_package_is_rep001_rep003_clean():
    # The observability layer feeds trace/metric fingerprints, so it
    # sits inside REP001's simulation scope and its exporters must be
    # REP003-clean -- pinned explicitly, not just via the package scan.
    from repro.lint.rules.determinism import SIMULATION_PACKAGES

    assert "repro.obs" in SIMULATION_PACKAGES
    obs_root = PACKAGE_ROOT / "obs"
    report = run_lint([obs_root], rule_ids=["REP001", "REP003"])
    assert report.ok, "\n".join(v.render() for v in report.violations)
    assert report.files_scanned == len(list(obs_root.rglob("*.py")))
    assert not report.suppressed, "obs must not carry suppressions"


def test_control_package_is_rep001_clean():
    # The predictive control plane feeds forecasts and DVFS commands
    # straight into fingerprinted router runs, so it lives inside
    # REP001's simulation scope and must be wall-clock/ambient-entropy
    # free with no suppressions.
    from repro.lint.rules.determinism import SIMULATION_PACKAGES

    assert "repro.control" in SIMULATION_PACKAGES
    control_root = PACKAGE_ROOT / "control"
    report = run_lint([control_root], rule_ids=["REP001"])
    assert report.ok, "\n".join(v.render() for v in report.violations)
    assert report.files_scanned == len(list(control_root.rglob("*.py")))
    assert not report.suppressed, "control must not carry suppressions"


def test_resilience_package_is_rep001_clean():
    # Supervision is where wall-clock time is *allowed* to exist, which
    # is exactly why the package sits inside REP001's scope: every real
    # -time read must be a reviewed suppression, and there is precisely
    # one (the supervisor's timeout clock).  Anything else -- fault
    # plans, integrity checks, checkpoints -- must be clock-free.
    from repro.lint.rules.determinism import SIMULATION_PACKAGES

    assert "repro.resilience" in SIMULATION_PACKAGES
    resilience_root = PACKAGE_ROOT / "resilience"
    report = run_lint([resilience_root], rule_ids=["REP001"])
    assert report.ok, "\n".join(v.render() for v in report.violations)
    assert report.files_scanned == len(
        list(resilience_root.rglob("*.py"))
    )
    suppressed = [
        (violation.path, violation.rule_id)
        for violation in report.suppressed
    ]
    assert len(suppressed) == 1, suppressed
    path, rule_id = suppressed[0]
    assert rule_id == "REP001"
    assert path.endswith("supervisor.py")

def test_vectorized_backend_is_rep001_rep007_clean():
    # The columnar loop (repro.serving.vec_router plus the arrival
    # columns of repro.serving.request) serves every plain run of the
    # fingerprinted hot path as array programs, so it inherits
    # REP001's determinism scope through the repro.serving prefix --
    # pinned explicitly so a module move cannot silently unscope it.
    # Both the module-local rule and the interprocedural taint rule
    # must hold with zero suppressions.
    from repro.lint.rules.determinism import SIMULATION_PACKAGES

    assert any(
        "repro.serving".startswith(package)
        for package in SIMULATION_PACKAGES
    )
    modules = [
        PACKAGE_ROOT / "serving" / "vec_router.py",
        PACKAGE_ROOT / "serving" / "request.py",
    ]
    assert all(module.exists() for module in modules)
    report = run_lint(modules, rule_ids=["REP001", "REP007"])
    assert report.ok, "\n".join(v.render() for v in report.violations)
    assert report.files_scanned == len(modules)
    assert not report.suppressed, (
        "the columnar loop must not carry suppressions"
    )
