"""The analyzer's individual passes over one (or several) compiled programs.

Each language pass reads one program's
:class:`~repro.analysis.flow.ProgramLanguages` — its single dispatch
model — and yields :class:`~repro.analysis.findings.Finding` objects.
The model mirrors exactly how ``CompiledProgram.run_one`` dispatches —
target pass-through first, then first matching branch, guards checked
before patterns — so "dead" here means dead *in that dispatch order*,
not merely similar.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # hierarchy types only flow in, never out
    from repro.clustering.hierarchy import PatternHierarchy

from repro.analysis import redos
from repro.analysis.findings import Finding, finding
from repro.analysis.flow import (
    ProgramLanguages,
    branch_location,
    flow_findings,
    plan_is_identity,
)
from repro.analysis.lang import keyword_always_present, languages_overlap, subsumed_by_union
from repro.dsl.ast import ConstStr, Extract
from repro.dsl.guards import ContainsGuard
from repro.engine.compiled import CompiledProgram
from repro.patterns.matching import compiled_with_groups
from repro.patterns.pattern import Pattern
from repro.patterns.regex import compile_pattern, pattern_to_regex


# ----------------------------------------------------------------------
# Pass 1+2: dispatch reachability and overlap/ambiguity
# ----------------------------------------------------------------------

def check_reachability(languages: ProgramLanguages, name: str) -> List[Finding]:
    """Dead arms (CLX001/CLX002) under first-match dispatch — exact.

    A branch is dead iff its language is contained in the union of the
    target's language (the pass-through check runs first) and the
    languages of all *earlier unguarded* branches (an earlier guarded
    branch may decline a value, so it shadows nothing for sure).
    """
    findings: List[Finding] = []
    target = languages.compiled.target.notation()
    for index, fate in enumerate(languages.fates):
        if fate not in ("target", "shadowed"):
            continue
        pattern = languages.branches[index].pattern.notation()
        if fate == "target":
            findings.append(
                finding(
                    "CLX001",
                    branch_location(name, index),
                    f"branch pattern {pattern} is subsumed by the target {target}; "
                    "every match passes through before this branch is consulted",
                    pattern=pattern,
                    target=target,
                )
            )
        else:
            shadowers = languages.shadowers(index)
            if shadowers:
                reason = f"shadowed by earlier branch(es) {shadowers}"
            else:
                reason = "jointly shadowed by the target and earlier branches"
            findings.append(
                finding(
                    "CLX002",
                    branch_location(name, index),
                    f"branch pattern {pattern} can never fire: {reason}",
                    pattern=pattern,
                    shadowed_by=shadowers,
                )
            )
    return findings


def check_overlap(languages: ProgramLanguages, name: str) -> List[Finding]:
    """Order-dependent unguarded overlaps (CLX003).

    Two live unguarded branches with different plans whose languages
    intersect *outside* the target language (pass-through values never
    reach the dispatch table) make the program's output depend on
    branch order — legal, but worth a warning.
    """
    findings: List[Finding] = []
    branches = languages.branches
    fates = languages.fates
    for second in range(len(branches)):
        if fates[second] is not None or branches[second].guard is not None:
            continue
        for first in range(second):
            if fates[first] is not None or branches[first].guard is not None:
                continue
            if branches[first].plan == branches[second].plan:
                continue
            if languages_overlap(
                languages.branch_nfas[first],
                languages.branch_nfas[second],
                languages.atoms,
                excluding=[languages.target_nfa],
            ):
                findings.append(
                    finding(
                        "CLX003",
                        branch_location(name, second),
                        f"pattern {branches[second].pattern.notation()} overlaps "
                        f"branch {first + 1} ({branches[first].pattern.notation()}) "
                        "with a different plan; output depends on branch order",
                        pattern=branches[second].pattern.notation(),
                        overlaps_branch=first + 1,
                    )
                )
                break  # one overlap report per branch is enough
    return findings


# ----------------------------------------------------------------------
# Pass 3: regex safety
# ----------------------------------------------------------------------

def check_regex_safety(
    compiled: CompiledProgram, name: str, probe: bool = True
) -> List[Finding]:
    """Ambiguous repetition (CLX005) + empirical probe (CLX006).

    Decided on the token patterns the compiled program renders its
    regexes from: the target (anchored regex) and every branch (grouped
    dispatch regex).  Only flagged patterns are rendered and probed, so
    clean programs pay nothing and the probe itself is time-bounded.
    CLX004 never fires here: no rendering nests a quantifier.
    """
    findings: List[Finding] = []
    subjects: List[Tuple[str, Pattern, bool]] = [(name, compiled.target, False)]
    for index, branch in enumerate(compiled.program.branches):
        subjects.append((branch_location(name, index), branch.pattern, True))
    for location, pattern, grouped in subjects:
        if not redos.ambiguous_repetition(pattern):
            continue
        source = compiled_with_groups(pattern).pattern if grouped else pattern_to_regex(pattern)
        findings.append(
            finding(
                "CLX005",
                location,
                "ambiguous repetition: adjacent unbounded repetitions over "
                "overlapping character sets",
                regex=source,
            )
        )
        measured = redos.probe(source, redos.pump(pattern)) if probe else None
        if measured is not None and measured.slow:
            findings.append(
                finding(
                    "CLX006",
                    location,
                    f"adversarial input of {measured.input_length} chars took "
                    f"{measured.seconds * 1000:.0f}ms to reject; applying this "
                    "artifact can stall on hostile values",
                    input_length=measured.input_length,
                    seconds=round(measured.seconds, 4),
                )
            )
    return findings


# ----------------------------------------------------------------------
# Pass 4: plan and guard sanity
# ----------------------------------------------------------------------

def check_plan_sanity(languages: ProgramLanguages, name: str) -> List[Finding]:
    """Identity plans, constant outputs, unused tokens, degenerate guards."""
    findings: List[Finding] = []
    target_match = compile_pattern(languages.compiled.target).fullmatch
    for index, branch in enumerate(languages.branches):
        location = branch_location(name, index)
        expressions = branch.plan.expressions

        if plan_is_identity(branch):
            findings.append(
                finding(
                    "CLX007",
                    location,
                    f"plan rewrites every match of {branch.pattern.notation()} to "
                    "itself; the branch only flips the matched flag",
                    pattern=branch.pattern.notation(),
                )
            )
        elif expressions and all(isinstance(e, ConstStr) for e in expressions):
            constant = "".join(e.text for e in expressions)  # type: ignore[union-attr]
            duplicates = target_match(constant) is not None
            suffix = " (the constant already matches the target)" if duplicates else ""
            findings.append(
                finding(
                    "CLX008",
                    location,
                    f"plan maps every match of {branch.pattern.notation()} to the "
                    f"constant {constant!r}{suffix}",
                    constant=constant,
                    matches_target=duplicates,
                )
            )

        used: set = set()
        constant_only = bool(expressions) and all(
            isinstance(e, ConstStr) for e in expressions
        )
        for expression in expressions:
            if isinstance(expression, Extract):
                used.update(range(expression.start, expression.end + 1))
        unused = [
            position + 1
            for position, token in enumerate(branch.pattern.tokens)
            if not token.is_literal and (position + 1) not in used
        ]
        if unused and not constant_only and not plan_is_identity(branch):
            notations = ", ".join(
                branch.pattern.tokens[position - 1].notation() for position in unused
            )
            findings.append(
                finding(
                    "CLX009",
                    location,
                    f"data token(s) {notations} at position(s) {unused} are never "
                    "extracted by the plan",
                    unused_tokens=unused,
                )
            )

        guard = branch.guard
        if isinstance(guard, ContainsGuard):
            if not languages.guard_can_hold(index):
                findings.append(
                    finding(
                        "CLX010",
                        location,
                        f"guard {guard.describe()} can never hold for "
                        f"{branch.pattern.notation()}; the branch is dead",
                        keyword=guard.keyword,
                    )
                )
            elif keyword_always_present(branch.pattern, guard.keyword, guard.case_sensitive):
                findings.append(
                    finding(
                        "CLX011",
                        location,
                        f"guard {guard.describe()} holds for every match of "
                        f"{branch.pattern.notation()}; the guard is redundant",
                        keyword=guard.keyword,
                    )
                )
    return findings


# ----------------------------------------------------------------------
# Pass 5: coverage audit against a profile
# ----------------------------------------------------------------------

def check_coverage(
    compiled: CompiledProgram,
    hierarchy: "PatternHierarchy",
    name: str,
    max_samples: int = 3,
) -> List[Finding]:
    """Profiled clusters no branch (nor the target) matches — CLX012.

    ``hierarchy`` is a :class:`~repro.clustering.hierarchy.PatternHierarchy`
    (e.g. lowered from a :class:`~repro.clustering.incremental.ColumnProfile`).
    Residual clusters would silently pass through an apply unchanged;
    the finding carries row counts so drift quarantine can budget.

    A leaf that the target or an unguarded branch pattern token-wise
    subsumes (:meth:`Pattern.subsumes`, which holds for equal patterns,
    is language inclusion) is covered without a search; the exact union
    search settles the rest.
    """
    leaves = list(hierarchy.leaf_nodes)
    languages = ProgramLanguages(compiled, extra_patterns=[leaf.pattern for leaf in leaves])
    cover_patterns = [compiled.target] + [
        branch.pattern for branch in compiled.program.branches if branch.guard is None
    ]
    cover = [languages.nfa(pattern) for pattern in cover_patterns]
    findings: List[Finding] = []
    for leaf in leaves:
        if any(pattern.subsumes(leaf.pattern) for pattern in cover_patterns):
            continue
        if subsumed_by_union(languages.nfa(leaf.pattern), cover, languages.atoms):
            continue
        samples: List[str] = []
        if leaf.cluster is not None:
            samples = leaf.cluster.sample(max_samples)
        findings.append(
            finding(
                "CLX012",
                name,
                f"profiled cluster {leaf.pattern.notation()} ({leaf.size} row(s)) "
                "matches no branch; those rows pass through unchanged",
                pattern=leaf.pattern.notation(),
                rows=leaf.size,
                samples=samples,
            )
        )
    return findings


# ----------------------------------------------------------------------
# Pass 6: multi-artifact conflicts
# ----------------------------------------------------------------------

def check_conflicts(named: Sequence[Tuple[str, CompiledProgram]]) -> List[Finding]:
    """Cross-artifact conflicts when several artifacts apply together.

    CLX013: two artifacts record the same source column — a joint apply
    refuses this outright.  CLX014: one artifact's source column equals
    another's default output column (``<column>_transformed``), so the
    result depends on which artifact ran first.
    """
    findings: List[Finding] = []
    columns: Dict[str, List[str]] = {}
    for name, compiled in named:
        column = compiled.metadata.get("column")
        if isinstance(column, str) and column:
            columns.setdefault(column, []).append(name)
    for column, owners in sorted(columns.items()):
        if len(owners) > 1:
            findings.append(
                finding(
                    "CLX013",
                    owners[0],
                    f"column {column!r} is targeted by {len(owners)} artifacts "
                    f"({', '.join(owners)}); applying them together is rejected",
                    column=column,
                    artifacts=owners,
                )
            )
    for column, owners in sorted(columns.items()):
        produced = f"{column}_transformed"
        consumers = columns.get(produced)
        if consumers:
            findings.append(
                finding(
                    "CLX014",
                    consumers[0],
                    f"artifact reads column {produced!r}, which is the default "
                    f"output column of {owners[0]} (source {column!r}); results "
                    "depend on apply order",
                    column=produced,
                    produced_by=owners,
                )
            )
    return findings


def reachability_only(
    compiled: CompiledProgram, name: str
) -> List[Finding]:
    """The cheap pre-flight used by ``apply``: reachability, no probes."""
    return check_reachability(ProgramLanguages(compiled), name)


def analyze_compiled(
    compiled: CompiledProgram,
    name: str = "<program>",
    probe: bool = True,
    hierarchy: "PatternHierarchy | None" = None,
) -> List[Finding]:
    """Run every single-artifact pass over ``compiled``."""
    languages = ProgramLanguages(compiled)
    findings = check_reachability(languages, name)
    findings.extend(check_overlap(languages, name))
    findings.extend(flow_findings(languages, name))
    findings.extend(check_regex_safety(compiled, name, probe=probe))
    findings.extend(check_plan_sanity(languages, name))
    if hierarchy is not None:
        findings.extend(check_coverage(compiled, hierarchy, name))
    return findings
