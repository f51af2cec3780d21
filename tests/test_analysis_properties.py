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

Finally two differentials over random programs (guarded arms, including
unsatisfiable keywords; duplicated, widened and jointly shadowed arms):
liveness — the dispatch model's CLX001/CLX002/CLX010 findings and live
set equal a reference that searches reachability and flow liveness
separately, each over its own alphabet — and re-entry — every
CLX017/CLX018/CLX021 witness really reaches the reported branch under
concrete first-match dispatch.

Last, the shift-and search differential: on random patterns, guard
keywords and alphabets, ``lang``'s one-int joint search returns exactly
the shortest witnesses of the frozenset subset simulation kept in
``tests/lang_reference.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import Severity, analyze_program, check_composition, check_flow, lang
from repro.analysis.findings import finding
from repro.analysis.flow import branch_output_pattern
from repro.analysis.lang import (
    atom_alphabet,
    guard_satisfiable,
    pattern_nfa,
    subsumed_by_union,
)
from repro.analysis.passes import (
    ProgramLanguages,
    check_coverage,
    check_plan_sanity,
    check_reachability,
)
from repro.bench.suite import benchmark_suite
from repro.cli import main
from repro.core.session import CLXSession
from repro.dsl.ast import AtomicPlan, Branch, ConstStr, Extract, UniFiProgram
from repro.dsl.guards import ContainsGuard
from repro.engine.compiled import CompiledProgram
from repro.patterns.parse import parse_pattern
from repro.patterns.pattern import Pattern
from repro.patterns.regex import compile_pattern
from repro.tokens.classes import GENERALIZATION_ORDER, TokenClass
from repro.tokens.token import PLUS, Token
from repro.util.errors import SynthesisError

import lang_reference

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


# ----------------------------------------------------------------------
# Liveness and re-entry differentials over random programs
# ----------------------------------------------------------------------

#: Guard keywords: some occur in generated patterns, some ("kg", "Zz")
#: mostly cannot, so unsatisfiable guards are common.
_KEYWORDS = ("-", "a", "7", "Q", "ab", "x9", "kg", "Zz")
_CONSTANTS = ("x", "-", "1", "#", "ab", "Q7")

#: Random programs per differential.
RANDOM_PROGRAMS = 400


def _random_pattern(rng):
    return Pattern([_random_token(rng) for _ in range(rng.randint(1, 3))])


def _random_plan(rng, pattern):
    width = len(pattern)
    if rng.random() < 0.15:
        return AtomicPlan([Extract(1, width)])  # identity
    expressions = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.35:
            expressions.append(ConstStr(rng.choice(_CONSTANTS)))
        else:
            start = rng.randint(1, width)
            expressions.append(Extract(start, rng.randint(start, width)))
    return AtomicPlan(expressions)


def _jointly_covering(pattern):
    """Patterns whose union is ``L(pattern)`` but none of which alone is.

    Splits one class token: ``<C>+`` into ``<C>`` and ``<C><C>+``, or a
    single ``<A>`` into ``<L>`` and ``<U>``.  Empty when nothing splits.
    """
    tokens = list(pattern.tokens)
    for position, token in enumerate(tokens):
        if token.is_literal:
            continue
        head, tail = tokens[:position], tokens[position + 1 :]
        if token.is_plus:
            single = Token.base(token.klass, 1)
            return [Pattern(head + [single] + tail), Pattern(head + [single, token] + tail)]
        if token.klass is TokenClass.ALPHA and token.quantifier == 1:
            return [
                Pattern(head + [Token.base(klass, 1)] + tail)
                for klass in (TokenClass.LOWER, TokenClass.UPPER)
            ]
    return []


def _random_guard(rng):
    if rng.random() < 0.3:
        return ContainsGuard(rng.choice(_KEYWORDS), case_sensitive=rng.random() < 0.7)
    return None


def _random_program(rng):
    """A random program exercising every way an arm can die (or not)."""
    target = _random_pattern(rng)
    patterns = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if patterns and roll < 0.15:
            patterns.append(rng.choice(patterns))  # duplicated arm
        elif patterns and roll < 0.3:  # widened arm
            patterns.append(Pattern([_generalized(rng, t) for t in rng.choice(patterns)]))
        elif roll < 0.4:  # near the target
            patterns.append(Pattern([_generalized(rng, t) for t in target]))
        elif roll < 0.55:  # joint shadowing: the split arms, then the whole
            whole = Pattern([_generalized(rng, t) for t in _random_pattern(rng)])
            patterns.extend(_jointly_covering(whole) + [whole])
        else:
            patterns.append(_random_pattern(rng))
    branches = [
        Branch(pattern, _random_plan(rng, pattern), guard=_random_guard(rng))
        for pattern in patterns
    ]
    return CompiledProgram(UniFiProgram(branches), target)


def _reference_keywords(branches):
    keywords = []
    for branch in branches:
        if isinstance(branch.guard, ContainsGuard):
            keyword = branch.guard.keyword
            keywords.extend((keyword, keyword.lower(), keyword.upper()))
    return keywords


def _reference_dead_arms(compiled, name):
    """CLX001/CLX002 and CLX010 as separate searches over the input alphabet.

    The reachability pass and the guard check each run their own
    subset searches over an alphabet of the target, the branch patterns
    and the guard keywords — no shared fate.
    """
    branches = compiled.program.branches
    atoms = atom_alphabet(
        [compiled.target, *(b.pattern for b in branches)],
        extra_text=_reference_keywords(branches),
    )
    target_nfa = pattern_nfa(compiled.target, atoms)
    rows = []
    earlier_unguarded = []
    for index, branch in enumerate(branches):
        machine = pattern_nfa(branch.pattern, atoms)
        location = f"{name}:branch[{index + 1}]"
        if subsumed_by_union(machine, [target_nfa], atoms):
            rows.append(
                finding(
                    "CLX001",
                    location,
                    f"branch pattern {branch.pattern.notation()} is subsumed by the "
                    f"target {compiled.target.notation()}; every match passes through "
                    "before this branch is consulted",
                    pattern=branch.pattern.notation(),
                    target=compiled.target.notation(),
                )
            )
        elif earlier_unguarded and subsumed_by_union(
            machine, [target_nfa] + [m for _, m in earlier_unguarded], atoms
        ):
            shadowers = [
                i + 1
                for i, earlier in earlier_unguarded
                if subsumed_by_union(machine, [earlier], atoms)
            ]
            if shadowers:
                reason = f"shadowed by earlier branch(es) {shadowers}"
            else:
                reason = "jointly shadowed by the target and earlier branches"
            rows.append(
                finding(
                    "CLX002",
                    location,
                    f"branch pattern {branch.pattern.notation()} can never fire: {reason}",
                    pattern=branch.pattern.notation(),
                    shadowed_by=shadowers,
                )
            )
        if branch.guard is None:
            earlier_unguarded.append((index, machine))
        guard = branch.guard
        if isinstance(guard, ContainsGuard) and not guard_satisfiable(
            machine, guard.keyword, atoms, guard.case_sensitive
        ):
            rows.append(
                finding(
                    "CLX010",
                    location,
                    f"guard {guard.describe()} can never hold for "
                    f"{branch.pattern.notation()}; the branch is dead",
                    keyword=guard.keyword,
                )
            )
    return rows


def _reference_live(compiled):
    """Flow liveness over the flow alphabet (outputs included)."""
    branches = compiled.program.branches
    outputs = [branch_output_pattern(branch) for branch in branches]
    atoms = atom_alphabet(
        [compiled.target, *(b.pattern for b in branches), *outputs],
        extra_text=_reference_keywords(branches),
    )
    target_nfa = pattern_nfa(compiled.target, atoms)
    live = []
    earlier_unguarded = []
    for index, branch in enumerate(branches):
        machine = pattern_nfa(branch.pattern, atoms)
        dead = subsumed_by_union(machine, [target_nfa, *earlier_unguarded], atoms)
        guard = branch.guard
        if not dead and isinstance(guard, ContainsGuard):
            dead = not guard_satisfiable(machine, guard.keyword, atoms, guard.case_sensitive)
        if not dead:
            live.append(index)
        if branch.guard is None:
            earlier_unguarded.append(machine)
    return tuple(live)


def _finding_rows(findings):
    return sorted(
        (f.location, f.rule_id, f.message, repr(sorted(f.data.items()))) for f in findings
    )


def _dispatched_branch(compiled, value):
    """The branch index first-match dispatch picks for ``value``.

    ``-1`` for the target pass-through, ``None`` when nothing matches.
    """
    if compile_pattern(compiled.target).fullmatch(value):
        return -1
    for index, branch in enumerate(compiled.program.branches):
        if compile_pattern(branch.pattern).fullmatch(value) and branch.accepts(value):
            return index
    return None


def _assert_reaches(compiled, witness, reported):
    """No arm dispatch tries before branch ``reported`` surely takes ``witness``.

    The target and earlier unguarded arms never capture it.  When the
    reported arm is unguarded, dispatch lands on it (or on an earlier
    guarded arm whose guard happens to hold).
    """
    branches = compiled.program.branches
    taken = _dispatched_branch(compiled, witness)
    assert taken != -1, f"witness {witness!r} passes through the target"
    assert taken is None or taken >= reported or branches[taken].guard is not None, (
        f"witness {witness!r} is captured by earlier unguarded branch {taken + 1}"
    )
    if branches[reported].guard is None:
        assert taken is not None and taken <= reported, (
            f"witness {witness!r} never reaches branch {reported + 1}"
        )


class TestLivenessDifferential:
    def test_fates_equal_separate_searches(self, property_rng):
        counts = {"CLX001": 0, "CLX002": 0, "CLX010": 0, "joint": 0, "live": 0}
        for number in range(RANDOM_PROGRAMS):
            compiled = _random_program(property_rng)
            name = f"random-{number}"
            languages = ProgramLanguages(compiled)
            produced = check_reachability(languages, name) + [
                f for f in check_plan_sanity(languages, name) if f.rule_id == "CLX010"
            ]
            expected = _reference_dead_arms(compiled, name)
            assert _finding_rows(produced) == _finding_rows(expected), name
            live = languages.live
            assert live == _reference_live(compiled), name
            for item in expected:
                counts[item.rule_id] += 1
                if item.rule_id == "CLX002" and not item.data["shadowed_by"]:
                    counts["joint"] += 1
            counts["live"] += len(live)
        # Every verdict kind must actually have been exercised.
        assert all(count >= 10 for count in counts.values()), counts


class TestReentryDifferential:
    def test_reentry_witnesses_reach_the_reported_branch(self, property_rng):
        checked = 0
        for number in range(RANDOM_PROGRAMS):
            compiled = _random_program(property_rng)
            for item in check_flow(compiled, "random"):
                if item.rule_id == "CLX017":
                    reported = item.data["reenters_branch"] - 1
                elif item.rule_id == "CLX018":
                    reported = int(item.location.rsplit("[", 1)[1].rstrip("]")) - 1
                else:
                    continue
                _assert_reaches(compiled, item.data["witness"], reported)
                checked += 1
        assert checked >= 20, f"only {checked} re-entry findings drawn"

    def test_retransform_witnesses_reach_the_reported_branch(self, property_rng):
        checked = 0
        for _ in range(RANDOM_PROGRAMS):
            source = _random_program(property_rng)
            sink = _random_program(property_rng)
            producer = CompiledProgram(source.program, source.target, metadata={"column": "c"})
            consumer = CompiledProgram(
                sink.program, sink.target, metadata={"column": "c_transformed"}
            )
            named = [("p", producer), ("c", consumer)]
            for item in check_composition(named):
                if item.rule_id != "CLX021":
                    continue
                witness = item.data["witness"]
                assert compile_pattern(producer.target).fullmatch(witness)
                reported = int(item.location.rsplit("[", 1)[1].rstrip("]")) - 1
                _assert_reaches(consumer, witness, reported)
                checked += 1
        assert checked >= 10, f"only {checked} re-transform findings drawn"


# ----------------------------------------------------------------------
# Shift-and search vs the frozenset reference
# ----------------------------------------------------------------------

#: Random queries per test of the shift-and differential.
SEARCH_CASES = 300


def _search_pattern(rng):
    """A random pattern of up to four tokens, empty one time in twenty."""
    if rng.random() < 0.05:
        return Pattern([])
    return Pattern([_random_token(rng) for _ in range(rng.randint(1, 4))])


def _random_guard_spec(rng):
    """A ``(keyword, case_sensitive)`` containment query; may be empty."""
    keyword = "" if rng.random() < 0.1 else rng.choice(_KEYWORDS)
    return keyword, rng.random() < 0.5


def _machine_spec(rng, near):
    """A pattern near ``near``, an unrelated pattern or a guard query."""
    roll = rng.random()
    if roll < 0.45:
        return Pattern([_generalized(rng, token) for token in near])
    if roll < 0.8:
        return _search_pattern(rng)
    return _random_guard_spec(rng)


def _search_alphabet(rng, specs):
    patterns = [spec for spec in specs if isinstance(spec, Pattern)]
    extra = []
    for spec in specs:
        if not isinstance(spec, Pattern):
            keyword, case_sensitive = spec
            extra += [keyword] if case_sensitive else [keyword, keyword.lower(), keyword.upper()]
    if rng.random() < 0.3:
        extra.append(rng.choice(" #/x"))  # an atom no pattern names
    return atom_alphabet(patterns, extra_text=extra)


def _build(module, spec, atoms):
    if isinstance(spec, Pattern):
        return module.pattern_nfa(spec, atoms)
    keyword, case_sensitive = spec
    return module.contains_nfa(keyword, atoms, case_sensitive)


def _witnesses(rng, specs, required):
    """(lang's witness, the reference's witness) for one query.

    ``required`` 1 asks ``difference_witness(specs[0], specs[1:])``, 2
    asks ``overlap_witness(specs[0], specs[1], excluding=specs[2:])``.
    """
    atoms = _search_alphabet(rng, specs)
    answers = []
    for module in (lang, lang_reference):
        machines = [_build(module, spec, atoms) for spec in specs]
        if required == 1:
            answers.append(module.difference_witness(machines[0], machines[1:], atoms))
        else:
            answers.append(
                module.overlap_witness(machines[0], machines[1], atoms, excluding=machines[2:])
            )
    return answers


def _describe(specs):
    return [spec.notation() if isinstance(spec, Pattern) else spec for spec in specs]


class TestShiftAndSearchDifferential:
    """``lang``'s one-int joint search returns the frozenset reference's
    shortest witnesses byte for byte, not just the same emptiness."""

    def _check(self, rng, draw, required):
        answers = {"witness": 0, "none": 0}
        for _ in range(SEARCH_CASES):
            specs = draw(rng)
            got, expected = _witnesses(rng, specs, required)
            assert got == expected, _describe(specs)
            answers["none" if expected is None else "witness"] += 1
        assert min(answers.values()) >= 30, answers

    def test_difference_witness_with_one_to_four_parents(self, property_rng):
        def draw(rng):
            child = _search_pattern(rng)
            return [child] + [_machine_spec(rng, child) for _ in range(rng.randint(1, 4))]

        self._check(property_rng, draw, required=1)

    def test_overlap_witness_with_excluding(self, property_rng):
        def draw(rng):
            first = _search_pattern(rng)
            second = _machine_spec(rng, first)
            if not isinstance(second, Pattern):
                second = Pattern([_generalized(rng, token) for token in first])
            return [first, second] + [_machine_spec(rng, first) for _ in range(rng.randint(0, 3))]

        self._check(property_rng, draw, required=2)

    @pytest.mark.parametrize("case_sensitive", [True, False])
    def test_guard_queries(self, property_rng, case_sensitive):
        # guard_satisfiable's overlap and keyword_always_present's
        # difference, with the containment query as the second machine.
        def draw(rng):
            keyword, _ = _random_guard_spec(rng)
            return [_search_pattern(rng), (keyword, case_sensitive)]

        for required in (1, 2):
            self._check(property_rng, draw, required=required)

    def test_edge_cases(self):
        empty, digits, digit = Pattern([]), parse_pattern("<D>+"), parse_pattern("<D>")
        for specs, required in [
            # The empty pattern and the empty keyword accept at the start.
            ([empty, digits], 1),
            ([digits, empty], 1),
            ([empty, ("", True)], 1),
            ([empty, ("", False)], 2),
            ([digits, ("", True), empty], 2),
            ([empty, empty, ("7", False)], 2),
            # The child keeps accepting on every step, so a carry out of
            # its field would restart the next machine: "000" only
            # escapes if <D> never re-arms.
            ([digits, digit, parse_pattern("<D>2")], 1),
        ]:
            rng = random.Random(0)
            got, expected = _witnesses(rng, specs, required)
            assert got == expected, _describe(specs)
