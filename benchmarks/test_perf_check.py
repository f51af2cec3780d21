"""Performance of the artifact linter's release gate.

``repro-clx check --fail-on error`` over every artifact the synthesizer
produces for the 47-task suite is the admission-control sweep CI runs
before artifacts ship; it has to stay interactive.  This benchmark
compiles the whole suite, runs one ``check`` invocation over all
artifacts (static passes + ReDoS probe), asserts the gate passes, and
records synthesis/check wall-time into ``benchmarks/BENCH_pipeline.json``
alongside the profile/apply trajectories.

Also two prove-or-remove rows: the coverage audit's subsumption fast
path (CLX012), ``check_coverage`` against a union-search-only loop over
the suite's artifacts and their profiled hierarchies; and the shift-and
language search, every witness query ``analyze_program(probe=False)``
issues over those artifacts replayed through ``repro.analysis.lang`` and
through the frozenset reference in ``tests/lang_reference.py``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.analysis import analyze_program, flow, lang
from repro.analysis.lang import subsumed_by_union
from repro.analysis.passes import ProgramLanguages, check_coverage
from repro.cli import main
from repro.core.session import CLXSession
from repro.util.errors import SynthesisError
from repro.util.text import format_table

#: Where the check wall-time trajectory is recorded.
BENCH_PATH = Path(__file__).resolve().parent / "BENCH_pipeline.json"

#: Runs kept in the trajectory file.
TRAJECTORY_LIMIT = 20

#: The full sweep (47 artifacts, exact NFA passes + probes) must stay
#: well inside interactive latency even on contended CI runners.
CHECK_BUDGET_SECONDS = 30.0

#: Timed repeats of the coverage-audit row; the verdict is their median.
COVERAGE_REPEATS = 3

#: A mechanism stays only if it wins by at least this much.
COVERAGE_MIN_SPEEDUP = 1.2

#: Timed repeats of the language-search row; the verdict is their median.
SEARCH_REPEATS = 3

#: The shift-and search stays only if it wins by at least this much.
SEARCH_MIN_SPEEDUP = 1.2

#: The frozenset search ``lang`` replaced, kept with the differential tests.
LANG_REFERENCE_PATH = Path(__file__).resolve().parents[1] / "tests" / "lang_reference.py"


@pytest.fixture(scope="module")
def recorder():
    """Collects the sweep's timings and appends to the trajectory file."""
    record = {
        "cpu_count": os.cpu_count(),
        "timestamp": time.time(),
    }
    yield record
    try:
        history = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
        runs = history.get("runs", [])
    except (OSError, ValueError):
        runs = []
    runs.append(record)
    BENCH_PATH.write_text(
        json.dumps({"runs": runs[-TRAJECTORY_LIMIT:]}, indent=2) + "\n",
        encoding="utf-8",
    )


def test_perf_check_suite_sweep(suite_tasks, tmp_path, recorder, capsys):
    start = time.perf_counter()
    paths = []
    for task in suite_tasks:
        session = CLXSession(task.inputs)
        session.label_target(task.target_pattern())
        try:
            compiled = session.compile(metadata={"task": task.task_id})
        except SynthesisError:
            continue
        path = tmp_path / f"{task.task_id}.clx.json"
        path.write_text(compiled.dumps(), encoding="utf-8")
        paths.append(str(path))
    synth_seconds = time.perf_counter() - start
    assert paths, "no suite task compiled an artifact"

    start = time.perf_counter()
    exit_code = main(["check", *paths, "--fail-on", "error"])
    check_seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    assert exit_code == 0, captured.out

    recorder["check"] = {
        "artifacts": len(paths),
        "synth_seconds": synth_seconds,
        "check_seconds": check_seconds,
        "artifacts_per_sec": len(paths) / check_seconds if check_seconds else float("inf"),
    }
    print(f"\nartifact lint sweep over {len(paths)} artifacts")
    rows_table = [
        ("compile suite", f"{synth_seconds:.2f} s", f"{len(paths) / synth_seconds:,.1f} artifacts/s"),
        ("check --fail-on error", f"{check_seconds:.2f} s", f"{len(paths) / check_seconds:,.1f} artifacts/s"),
    ]
    print(format_table(["stage", "latency", "throughput"], rows_table))

    assert check_seconds < CHECK_BUDGET_SECONDS, (
        f"lint sweep took {check_seconds:.1f} s over {len(paths)} artifacts "
        f"(budget {CHECK_BUDGET_SECONDS:.0f} s)"
    )


def _union_only_uncovered(compiled, hierarchy):
    """The reference: one exact union search per leaf, no fast path."""
    leaves = list(hierarchy.leaf_nodes)
    languages = ProgramLanguages(compiled, extra_patterns=[leaf.pattern for leaf in leaves])
    cover = [languages.nfa(compiled.target)] + [
        languages.nfa(branch.pattern)
        for branch in compiled.program.branches
        if branch.guard is None
    ]
    return [
        leaf.pattern.notation()
        for leaf in leaves
        if not subsumed_by_union(languages.nfa(leaf.pattern), cover, languages.atoms)
    ]


def _audited_uncovered(compiled, hierarchy):
    return [f.data["pattern"] for f in check_coverage(compiled, hierarchy, "suite")]


def _timed_audit(audit, artifacts):
    start = time.perf_counter()
    results = [audit(compiled, hierarchy) for compiled, hierarchy in artifacts]
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def suite_artifacts(suite_tasks):
    """(task id, compiled, profiled hierarchy) per synthesizable suite task."""
    artifacts = []
    for task in suite_tasks:
        session = CLXSession(task.inputs)
        session.label_target(task.target_pattern())
        try:
            artifacts.append((task.task_id, session.compile(), session.hierarchy))
        except SynthesisError:
            continue
    assert artifacts, "no suite task compiled an artifact"
    return artifacts


def test_perf_coverage_audit(suite_artifacts):
    artifacts = [(compiled, hierarchy) for _task_id, compiled, hierarchy in suite_artifacts]
    speedups = []
    for _ in range(COVERAGE_REPEATS):
        reference, reference_seconds = _timed_audit(_union_only_uncovered, artifacts)
        audited, audited_seconds = _timed_audit(_audited_uncovered, artifacts)
        assert audited == reference
        speedups.append(reference_seconds / audited_seconds)
    speedup = statistics.median(speedups)
    leaves = sum(len(hierarchy.leaf_nodes) for _compiled, hierarchy in artifacts)
    uncovered = sum(len(found) for found in audited)
    rows_table = [
        ("artifacts", f"{len(artifacts)}", f"{leaves} leaves, {uncovered} CLX012"),
        ("union search only", f"{reference_seconds:.3f} s", "last repeat"),
        ("subsumption fast path", f"{audited_seconds:.3f} s", "last repeat"),
        ("median speed-up", f"{speedup:.1f}x", f"of {COVERAGE_REPEATS} repeats"),
    ]
    print("\n" + format_table(["coverage audit", "value", "detail"], rows_table))
    assert speedup >= COVERAGE_MIN_SPEEDUP, (
        f"coverage fast path is only {speedup:.2f}x the union search "
        f"(median of {speedups}); expected >= {COVERAGE_MIN_SPEEDUP}x"
    )


def _recorded_queries(suite_artifacts, monkeypatch):
    """Every witness query the analyzer issues, as machine recipes.

    A recipe rebuilds a machine in either implementation: ``("pattern",
    pattern, atoms)`` or ``("contains", keyword, atoms, case_sensitive)``.
    """
    recipes = {}
    queries = []
    build_pattern, build_contains, search = lang.pattern_nfa, lang.contains_nfa, lang._search

    def pattern_nfa(pattern, atoms):
        machine = build_pattern(pattern, atoms)
        recipes[id(machine)] = ("pattern", pattern, tuple(atoms))
        return machine

    def contains_nfa(keyword, atoms, case_sensitive=True):
        machine = build_contains(keyword, atoms, case_sensitive)
        recipes[id(machine)] = ("contains", keyword, tuple(atoms), case_sensitive)
        return machine

    def recording_search(machines, atoms, required):
        queries.append(([recipes[id(machine)] for machine in machines], tuple(atoms), required))
        return search(machines, atoms, required)

    with monkeypatch.context() as patch:
        patch.setattr(lang, "pattern_nfa", pattern_nfa)
        patch.setattr(flow, "pattern_nfa", pattern_nfa)
        patch.setattr(lang, "contains_nfa", contains_nfa)
        patch.setattr(lang, "_search", recording_search)
        for task_id, compiled, hierarchy in suite_artifacts:
            analyze_program(compiled, name=task_id, probe=False, hierarchy=hierarchy)
    return queries


def _replayed_witnesses(module, queries):
    """Answer ``queries`` with ``module``'s machines (one per recipe) and search."""
    machines = {}
    witnesses = []
    for recipes, atoms, required in queries:
        built = []
        for recipe in recipes:
            machine = machines.get(recipe)
            if machine is None:
                if recipe[0] == "pattern":
                    machine = module.pattern_nfa(recipe[1], recipe[2])
                else:
                    machine = module.contains_nfa(*recipe[1:])
                machines[recipe] = machine
            built.append(machine)
        if required == 1:
            witnesses.append(module.difference_witness(built[0], built[1:], atoms))
        else:
            witnesses.append(
                module.overlap_witness(built[0], built[1], atoms, excluding=built[2:])
            )
    return witnesses


def _timed_replay(module, queries):
    start = time.perf_counter()
    witnesses = _replayed_witnesses(module, queries)
    return witnesses, time.perf_counter() - start


def test_perf_language_search(suite_artifacts, monkeypatch):
    spec = importlib.util.spec_from_file_location("lang_reference", LANG_REFERENCE_PATH)
    assert spec is not None and spec.loader is not None
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    queries = _recorded_queries(suite_artifacts, monkeypatch)
    assert queries, "the analyzer issued no witness query"
    speedups = []
    for _ in range(SEARCH_REPEATS):
        expected, reference_seconds = _timed_replay(reference, queries)
        witnesses, search_seconds = _timed_replay(lang, queries)
        assert witnesses == expected
        speedups.append(reference_seconds / search_seconds)
    speedup = statistics.median(speedups)
    found = sum(witness is not None for witness in witnesses)
    rows_table = [
        ("queries", f"{len(queries)}", f"{found} with a witness, {len(suite_artifacts)} artifacts"),
        ("frozenset reference", f"{reference_seconds * 1000:.1f} ms", "last repeat"),
        ("shift-and search", f"{search_seconds * 1000:.1f} ms", "last repeat"),
        ("median speed-up", f"{speedup:.1f}x", f"of {SEARCH_REPEATS} repeats"),
    ]
    print("\n" + format_table(["language search", "value", "detail"], rows_table))
    assert speedup >= SEARCH_MIN_SPEEDUP, (
        f"shift-and search is only {speedup:.2f}x the frozenset reference "
        f"(median of {speedups}); expected >= {SEARCH_MIN_SPEEDUP}x"
    )
