"""Analyzer soundness over the full benchmark suite.

The property tying the analyzer to the dispatch semantics: a program is
reachability-clean exactly when every branch is load-bearing on the
exemplars it was synthesized from.

- Forward: the synthesizer's output for every suite task has no
  CLX001/CLX002/CLX010 findings, and deleting *any* branch changes the
  outputs or the matched patterns on the task's own inputs.
- Backward (seeded mutation): appending a duplicate of an unguarded
  branch makes the analyzer flag exactly that arm as shadowed — and
  deleting the flagged arm changes nothing, i.e. the analyzer's "dead"
  verdict is semantically exact.

Plus the release gate itself: one ``check --fail-on error`` run over all
47 compiled artifacts exits 0.

And the coverage audit's subsumption fast path: token-wise
``Pattern.subsumes`` implies exact language inclusion on random pattern
pairs, and ``check_coverage`` reports exactly what a union-search-only
loop reports on every suite task (and with its first branch pruned).
"""

from __future__ import annotations

import pytest

from repro.analysis import Severity, analyze_program
from repro.analysis.lang import atom_alphabet, pattern_nfa, subsumed_by_union
from repro.analysis.passes import ProgramLanguages, check_coverage
from repro.bench.suite import benchmark_suite
from repro.cli import main
from repro.core.session import CLXSession
from repro.dsl.ast import Branch, UniFiProgram
from repro.engine.compiled import CompiledProgram
from repro.patterns.parse import parse_pattern
from repro.patterns.pattern import Pattern
from repro.tokens.classes import GENERALIZATION_ORDER, TokenClass
from repro.tokens.token import PLUS, Token
from repro.util.errors import SynthesisError

DEAD_ARM_RULES = ("CLX001", "CLX002", "CLX010")

TASKS = benchmark_suite()


@pytest.fixture(scope="module")
def suite_programs():
    """(task, compiled, run report) for every synthesizable suite task.

    Synthesis over the whole suite runs once per module; the tests below
    slice it different ways.
    """
    programs = []
    for task in TASKS:
        session = CLXSession(task.inputs)
        session.label_target(task.target_pattern())
        try:
            report = session.transform()
        except SynthesisError:
            continue
        programs.append((task, session.compile(), report))
    assert programs, "no suite task synthesized a program"
    return programs


def _pruned(compiled, index):
    branches = compiled.program.branches
    return CompiledProgram(
        UniFiProgram(branches[:index] + branches[index + 1 :]), compiled.target
    )


def _same_behavior(candidate, baseline, inputs):
    run = candidate.run(inputs)
    return (
        run.outputs == baseline.outputs
        and run.matched_pattern == baseline.matched_pattern
    )


class TestEveryBranchLoadBearing:
    def test_suite_programs_are_reachability_clean(self, suite_programs):
        for task, compiled, _ in suite_programs:
            report = analyze_program(compiled, name=task.task_id, probe=False)
            dead = [f for f in report.findings if f.rule_id in DEAD_ARM_RULES]
            assert dead == [], f"{task.task_id}: analyzer reports dead arms"

    def test_deleting_any_branch_changes_the_task_outputs(self, suite_programs):
        for task, compiled, baseline in suite_programs:
            for index in range(len(compiled.program.branches)):
                assert not _same_behavior(
                    _pruned(compiled, index), baseline, task.inputs
                ), (
                    f"{task.task_id}: branch[{index + 1}] is analyzer-live "
                    "but deleting it changes nothing on the task inputs"
                )


class TestSeededDeadArm:
    def _mutant(self, compiled):
        """Append a duplicate of the first unguarded branch, if any."""
        branches = compiled.program.branches
        for branch in branches:
            if branch.guard is None:
                duplicate = Branch(branch.pattern, branch.plan)
                return CompiledProgram(
                    UniFiProgram(branches + (duplicate,)), compiled.target
                )
        return None

    def test_duplicated_branch_is_flagged_and_semantically_dead(
        self, suite_programs
    ):
        exercised = 0
        for task, compiled, _ in suite_programs:
            mutant = self._mutant(compiled)
            if mutant is None:
                continue
            exercised += 1
            report = analyze_program(mutant, name=task.task_id, probe=False)
            dead_locations = [
                f.location
                for f in report.findings
                if f.rule_id in ("CLX001", "CLX002")
            ]
            last = f"{task.task_id}:branch[{len(mutant.program.branches)}]"
            assert last in dead_locations, (
                f"{task.task_id}: duplicated arm not flagged dead"
            )
            # The analyzer's verdict is exact: deleting the flagged arm
            # is a no-op on the task's own inputs.
            baseline = mutant.run(task.inputs)
            pruned = _pruned(mutant, len(mutant.program.branches) - 1)
            assert _same_behavior(pruned, baseline, task.inputs)
        assert exercised, "no suite program has an unguarded branch"


class TestSuiteGate:
    def test_all_artifacts_pass_check_fail_on_error(
        self, suite_programs, tmp_path, capsys
    ):
        paths = []
        for task, compiled, _ in suite_programs:
            path = tmp_path / f"{task.task_id}.clx.json"
            path.write_text(compiled.dumps())
            paths.append(str(path))
        exit_code = main(["check", *paths, "--fail-on", "error", "--no-probe"])
        captured = capsys.readouterr()
        assert exit_code == 0, captured.out


class TestSessionAnalyzeApi:
    def test_session_analyze_threads_the_session_hierarchy(self):
        session = CLXSession(["555.1234", "555.9999", "not a phone"])
        session.label_target_from_notation("<D>3'-'<D>4")
        session.transform()
        report = session.analyze(name="interactive")
        residual = [f for f in report.findings if f.rule_id == "CLX012"]
        assert residual, "session hierarchy not threaded into coverage audit"
        assert residual[0].location == "interactive"
        assert report.max_severity() >= Severity.WARN


# ----------------------------------------------------------------------
# Coverage audit: subsumption fast path vs the exact union search
# ----------------------------------------------------------------------

_LITERALS = ("-", "_", "/", "a", "7", "ab", "Q", "x9")
_CLASSES = (
    TokenClass.DIGIT,
    TokenClass.LOWER,
    TokenClass.UPPER,
    TokenClass.ALPHA,
    TokenClass.ALNUM,
)


def _random_token(rng):
    if rng.random() < 0.35:
        return Token.lit(rng.choice(_LITERALS))
    quantifier = PLUS if rng.random() < 0.3 else rng.randint(1, 3)
    return Token.base(rng.choice(_CLASSES), quantifier)


def _generalized(rng, token):
    """``token`` or a token one or two refinement steps more general."""
    if rng.random() < 0.4:
        return token
    if token.is_literal:
        classes = [
            klass
            for klass in _CLASSES
            if all(klass.accepts_char(char) for char in token.literal)
        ]
        if not classes:
            return token
        quantifier = PLUS if rng.random() < 0.5 else len(token.literal)
        return Token.base(rng.choice(classes), quantifier)
    klass = token.klass
    for _ in range(rng.randint(0, 2)):
        klass = GENERALIZATION_ORDER.get(klass, klass)
    quantifier = PLUS if rng.random() < 0.5 else token.quantifier
    return Token.base(klass, quantifier)


def _nfa_subsumes(parent, child):
    atoms = atom_alphabet([parent, child])
    return subsumed_by_union(
        pattern_nfa(child, atoms), [pattern_nfa(parent, atoms)], atoms
    )


class TestSubsumesImpliesInclusion:
    def test_fixed_width_does_not_subsume_plus(self):
        fixed, plus = parse_pattern("<D>3"), parse_pattern("<D>+")
        assert fixed.subsumes(plus) is False
        assert _nfa_subsumes(fixed, plus) is False
        assert plus.subsumes(fixed) and _nfa_subsumes(plus, fixed)

    def test_alnum_subsumes_a_dash_literal(self):
        alnum, dash = parse_pattern("<AN>"), parse_pattern("'-'")
        assert alnum.subsumes(dash) is True
        assert _nfa_subsumes(alnum, dash)

    def test_random_pairs(self, property_rng):
        subsumed = 0
        for _ in range(600):
            child = Pattern(
                [_random_token(property_rng) for _ in range(property_rng.randint(1, 4))]
            )
            if property_rng.random() < 0.25:
                parent = Pattern([_random_token(property_rng) for _ in child])
            else:
                parent = Pattern([_generalized(property_rng, t) for t in child])
            if parent.subsumes(child):
                subsumed += 1
                assert _nfa_subsumes(parent, child), (
                    parent.notation(),
                    child.notation(),
                )
        assert subsumed >= 200, f"only {subsumed} subsuming pairs drawn"


def _union_only_coverage(compiled, hierarchy, name, max_samples=3):
    """CLX012 by the exact union search alone, one search per leaf."""
    leaves = list(hierarchy.leaf_nodes)
    languages = ProgramLanguages(
        compiled, extra_patterns=[leaf.pattern for leaf in leaves]
    )
    cover = [languages.nfa(compiled.target)] + [
        languages.nfa(branch.pattern)
        for branch in compiled.program.branches
        if branch.guard is None
    ]
    rows = []
    for leaf in leaves:
        if subsumed_by_union(languages.nfa(leaf.pattern), cover, languages.atoms):
            continue
        samples = leaf.cluster.sample(max_samples) if leaf.cluster is not None else []
        rows.append(
            (
                "CLX012",
                name,
                f"profiled cluster {leaf.pattern.notation()} ({leaf.size} row(s)) "
                "matches no branch; those rows pass through unchanged",
                leaf.pattern.notation(),
                leaf.size,
                samples,
            )
        )
    return rows


def _coverage_rows(compiled, hierarchy, name):
    return [
        (
            f.rule_id,
            f.location,
            f.message,
            f.data["pattern"],
            f.data["rows"],
            list(f.data["samples"]),
        )
        for f in check_coverage(compiled, hierarchy, name)
    ]


class TestCoverageAuditDifferential:
    def test_findings_equal_union_search_on_every_task(self, suite_programs):
        produced = 0
        for task, compiled, _ in suite_programs:
            hierarchy = CLXSession(task.inputs).hierarchy
            rows = _coverage_rows(compiled, hierarchy, task.task_id)
            assert rows == _union_only_coverage(compiled, hierarchy, task.task_id)
            produced += len(rows)
        assert produced >= 1, "no suite task produced a CLX012 finding"

    def test_findings_equal_union_search_with_first_branch_pruned(
        self, suite_programs
    ):
        # Deleting a branch uncovers its leaves, so the fast path's misses
        # and the union search's findings are exercised on every task.
        produced = 0
        for task, compiled, _ in suite_programs:
            hierarchy = CLXSession(task.inputs).hierarchy
            pruned = _pruned(compiled, 0)
            rows = _coverage_rows(pruned, hierarchy, task.task_id)
            assert rows == _union_only_coverage(pruned, hierarchy, task.task_id)
            produced += len(rows)
        assert produced >= len(suite_programs)
