"""One program's dispatch model, and what the program *produces*.

:class:`ProgramLanguages` is the single model of how a compiled program
dispatches — atom alphabet, NFAs, symbolic outputs, and each arm's
fate — that every pass in :mod:`repro.analysis.passes` and here reads.
Those passes reason about the **input** side of each branch (which
values reach it).  This module adds the output side: a symbolic
interpreter lifts each branch's
:class:`~repro.dsl.ast.AtomicPlan` into an output *pattern* — and hence,
via :mod:`repro.analysis.lang`, into an output-language ChainNFA:

* ``ConstStr(s)`` contributes the literal token ``'s'``;
* ``Extract(i, j)`` contributes source tokens ``i..j`` of the branch
  pattern verbatim — the extracted text ranges exactly over the language
  of those tokens.

The concatenation of these contributions is a plain
:class:`~repro.patterns.pattern.Pattern`, so every decidable query of
the input-side machinery applies unchanged to outputs.  Three verdict
families build on it:

**Target conformance (CLX015/CLX016).**  ``L(output_j) ⊆ L(target)``
for every reachable branch is the paper's headline guarantee: the
transform provably emits only target-shaped values.  For *unguarded*
branches the computed output language is exact, so a violation is an
ERROR with a shortest counterexample output.  For *guarded* branches the
plan only sees values the guard admits, so the computed language is an
over-approximation; an escape there is reported as "conformance
undecided" (WARN), never as a false proof.  Identity-plan branches are
exempt: they re-emit their input verbatim, so — exactly like an
unmatched value passing through — they cannot *corrupt* anything; their
coverage gap is CLX007/CLX012's story.  An artifact is **verified** iff
no live branch raises either finding: apply provably never emits a
malformed value it didn't already receive.

**Idempotence / fixpoint safety (CLX017/CLX018).**  A conforming branch
is automatically idempotent: its outputs hit the target pass-through on
a second apply.  A *non*-conforming output that re-enters some branch's
dispatch language with a non-identity plan — outside everything
first-match dispatch tries before that branch — means
``apply ∘ apply ≠ apply``: re-runs and streaming tails double-transform.

**Pipeline composition (CLX019–CLX021).**  When several artifacts apply
together and artifact C reads the default output column of artifact P
(``<col>_transformed``), the statically known components P can emit —
its target language (pass-through) and every live branch's output
language — are checked against what C accepts, so a mis-ordered chain
fails in the pre-flight instead of corrupting data.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Literal, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, finding
from repro.analysis.lang import (
    ChainNFA,
    atom_alphabet,
    difference_witness,
    guard_satisfiable,
    overlap_witness,
    pattern_nfa,
    sample_string,
    subsumed_by_union,
)
from repro.dsl.ast import AtomicPlan, Branch, ConstStr, Extract
from repro.dsl.guards import ContainsGuard
from repro.engine.compiled import CompiledProgram
from repro.patterns.pattern import Pattern
from repro.tokens.token import Token

VERIFY_RULES: Tuple[str, ...] = ("CLX015", "CLX016")


def plan_is_identity(branch: Branch) -> bool:
    """Whether the plan reproduces every match verbatim.

    The plan must emit source tokens 1..n in order.  An ``Extract``
    emits the tokens it names; a ``ConstStr`` emits the literal source
    tokens at the cursor whose text it spells, since a literal token
    matches only its own text: ``'x'<D>+ → ConstStr('x'), Extract(2)``
    echoes every match.  Equal output and branch patterns would not be
    enough: ``<D><D> → Extract(2), Extract(1)`` swaps the digits.
    """
    tokens = branch.pattern.tokens
    cursor = 0  # tokens[:cursor] are already emitted
    for expression in branch.plan.expressions:
        if isinstance(expression, Extract):
            if expression.start != cursor + 1:
                return False
            cursor = expression.end
            continue
        text = expression.text
        while text and cursor < len(tokens):
            literal = tokens[cursor].literal
            if literal is None or not text.startswith(literal):
                break
            text = text[len(literal):]
            cursor += 1
        if text:
            return False
    return cursor == len(tokens)


def branch_output_pattern(branch: Branch) -> Pattern:
    """The symbolic output of ``branch``'s plan, as a pattern.

    Exact for unguarded branches: the plan's output over all matches of
    the branch pattern is precisely the language of this pattern.  For
    guarded branches it over-approximates (the guard restricts which
    matches the plan ever sees).
    """
    tokens: List[Token] = []
    for expression in branch.plan.expressions:
        if isinstance(expression, ConstStr):
            tokens.append(Token.lit(expression.text))
        else:
            tokens.extend(branch.pattern.tokens[expression.start - 1 : expression.end])
    return Pattern(tokens)


def plan_conforms(pattern: Pattern, plan: AtomicPlan, target: Pattern) -> bool:
    """Whether ``plan``'s symbolic output over ``pattern`` provably lies
    inside ``target`` — the per-branch verified condition, ignoring guards.

    Used by the synthesizer to prefer provably conforming candidate plans
    (and hierarchy refinements) so that compiled artifacts earn the
    ``verified`` proof whenever the data admits one.
    """
    output = branch_output_pattern(Branch(pattern=pattern, plan=plan))
    atoms = atom_alphabet([output, target])
    return subsumed_by_union(
        pattern_nfa(output, atoms), [pattern_nfa(target, atoms)], atoms
    )


def branch_location(name: str, index: int) -> str:
    """1-based branch anchor, matching how programs are explained."""
    return f"{name}:branch[{index + 1}]"


def _guard_keywords(branches: Iterable[Branch]) -> List[str]:
    keywords: List[str] = []
    for branch in branches:
        guard = branch.guard
        if isinstance(guard, ContainsGuard):
            keywords.extend((guard.keyword, guard.keyword.lower(), guard.keyword.upper()))
    return keywords


#: Why a branch can never fire: subsumed by the target (CLX001), by the
#: target plus earlier unguarded branches (CLX002), or its guard never
#: holds on its pattern (CLX010).  ``None`` means the arm is live.
Fate = Optional[Literal["target", "shadowed", "guard"]]


class ProgramLanguages:
    """One program's dispatch model, shared by every analyzer pass.

    The atom alphabet distinguishes the target, every branch pattern,
    every symbolic output pattern, every guard keyword (with its case
    foldings) and any ``extra_patterns`` (profiled leaves for the
    coverage audit), so input-side and output-side queries run over one
    consistent quotient.  A finer alphabet never changes a yes/no
    language answer; the flow witnesses are shortest strings over
    exactly this alphabet.  ``atoms`` overrides the alphabet when
    several programs must share one (chained artifacts).

    Each branch's fate is decided lazily and once: one union search
    against :meth:`dispatch_before`, a target-only search only for dead
    arms (CLX001 vs CLX002), and a guard search only for guarded arms
    that union search leaves reachable.  Guard answers are cached, so
    CLX010 (asked of every guarded arm) repeats no search.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        extra_patterns: Sequence[Pattern] = (),
        atoms: Optional[Sequence[str]] = None,
    ) -> None:
        self.compiled = compiled
        self.branches: Tuple[Branch, ...] = compiled.program.branches
        self.outputs: Tuple[Pattern, ...] = tuple(
            branch_output_pattern(branch) for branch in self.branches
        )
        if atoms is None:
            patterns = [compiled.target, *(branch.pattern for branch in self.branches)]
            atoms = atom_alphabet(
                [*patterns, *self.outputs, *extra_patterns],
                extra_text=_guard_keywords(self.branches),
            )
        self.atoms: Tuple[str, ...] = tuple(atoms)
        self._nfas: Dict[Pattern, ChainNFA] = {}
        self._guard_can_hold: Dict[int, bool] = {}

    def nfa(self, pattern: Pattern) -> ChainNFA:
        machine = self._nfas.get(pattern)
        if machine is None:
            machine = pattern_nfa(pattern, self.atoms)
            self._nfas[pattern] = machine
        return machine

    @cached_property
    def target_nfa(self) -> ChainNFA:
        return self.nfa(self.compiled.target)

    @cached_property
    def branch_nfas(self) -> Tuple[ChainNFA, ...]:
        return tuple(self.nfa(branch.pattern) for branch in self.branches)

    def dispatch_before(self, index: int) -> List[ChainNFA]:
        """The languages first-match dispatch tries before branch ``index``.

        The target (the pass-through check runs first), then every
        earlier *unguarded* branch — an earlier guarded branch may
        decline a value, so it captures nothing for sure.
        """
        return [
            self.target_nfa,
            *(
                self.branch_nfas[earlier]
                for earlier in range(index)
                if self.branches[earlier].guard is None
            ),
        ]

    def guard_can_hold(self, index: int) -> bool:
        """Whether branch ``index``'s guard (if any) holds on some match."""
        known = self._guard_can_hold.get(index)
        if known is None:
            guard = self.branches[index].guard
            known = not isinstance(guard, ContainsGuard) or guard_satisfiable(
                self.branch_nfas[index], guard.keyword, self.atoms, guard.case_sensitive
            )
            self._guard_can_hold[index] = known
        return known

    @cached_property
    def fates(self) -> Tuple[Fate, ...]:
        """Each branch's :data:`Fate` under first-match dispatch — exact."""
        fates: List[Fate] = []
        for index, machine in enumerate(self.branch_nfas):
            before = self.dispatch_before(index)
            fate: Fate = None
            if subsumed_by_union(machine, before, self.atoms):
                target_only = len(before) == 1 or subsumed_by_union(
                    machine, before[:1], self.atoms
                )
                fate = "target" if target_only else "shadowed"
            elif not self.guard_can_hold(index):
                fate = "guard"
            fates.append(fate)
        return tuple(fates)

    @cached_property
    def live(self) -> Tuple[int, ...]:
        """Branches that can fire under first-match dispatch."""
        return tuple(index for index, fate in enumerate(self.fates) if fate is None)

    def shadowers(self, index: int) -> List[int]:
        """1-based earlier unguarded branches that alone subsume ``index``."""
        machine = self.branch_nfas[index]
        return [
            earlier + 1
            for earlier in range(index)
            if self.branches[earlier].guard is None
            and subsumed_by_union(machine, [self.branch_nfas[earlier]], self.atoms)
        ]

    def conformance_witness(self, index: int) -> Optional[str]:
        """Shortest output of branch ``index`` outside the target language."""
        return difference_witness(self.nfa(self.outputs[index]), [self.target_nfa], self.atoms)

    def reentry(self, index: int) -> Optional[Tuple[int, str]]:
        """First live branch whose dispatch captures branch ``index``'s output.

        A capture counts only where dispatch actually reaches the
        capturing branch: outside the target (a conforming output hits
        the pass-through) and outside every earlier unguarded branch.
        Branches with identity plans are skipped (re-matching them
        rewrites nothing).  Returns ``(capturing_index, witness)``.
        """
        output = self.nfa(self.outputs[index])
        for other in self.live:
            if plan_is_identity(self.branches[other]):
                continue
            witness = overlap_witness(
                output,
                self.branch_nfas[other],
                self.atoms,
                excluding=self.dispatch_before(other),
            )
            if witness is not None:
                return other, witness
        return None


def check_flow(compiled: CompiledProgram, name: str) -> List[Finding]:
    """Per-artifact flow verdicts: CLX015–CLX018."""
    return flow_findings(ProgramLanguages(compiled), name)


def flow_findings(languages: ProgramLanguages, name: str) -> List[Finding]:
    """:func:`check_flow` over an already-built dispatch model."""
    branches = languages.branches
    target = languages.compiled.target.notation()
    findings: List[Finding] = []
    for index in languages.live:
        branch = branches[index]
        if plan_is_identity(branch):
            continue  # re-emits its input verbatim; cannot corrupt
        location = branch_location(name, index)
        output = languages.outputs[index]
        witness = languages.conformance_witness(index)
        if witness is None:
            continue  # conforming, hence also idempotent
        shown = output.notation() or "(empty)"
        if branch.guard is None:
            rule_id = "CLX015"
            message = (
                f"plan output {shown} escapes the target {target}: e.g. input "
                f"{sample_string(branch.pattern)!r} can produce {witness!r}"
            )
        else:
            rule_id = "CLX016"
            message = (
                f"guarded branch output {shown} is not provably inside the target "
                f"{target} (e.g. {witness!r}); conformance is undecided"
            )
        findings.append(
            finding(
                rule_id,
                location,
                message,
                output=output.notation(),
                target=target,
                witness=witness,
            )
        )
        reentry = languages.reentry(index)
        if reentry is not None:
            other, captured = reentry
            if other == index:
                findings.append(
                    finding(
                        "CLX018",
                        location,
                        f"output {captured!r} re-enters this branch's own dispatch "
                        f"({branch.pattern.notation()}); repeated applies keep "
                        "rewriting the value",
                        witness=captured,
                    )
                )
            else:
                findings.append(
                    finding(
                        "CLX017",
                        location,
                        f"output {captured!r} re-enters branch {other + 1} "
                        f"({branches[other].pattern.notation()}); applying the "
                        "artifact twice transforms it twice",
                        reenters_branch=other + 1,
                        witness=captured,
                    )
                )
    return findings


def is_verified(findings: Iterable[Finding]) -> bool:
    """The per-artifact ``verified`` proof: no conformance finding.

    True iff no live branch raised CLX015 (output provably escapes the
    target) or CLX016 (guarded, conformance undecided) — i.e. applying
    the artifact provably never emits a malformed value it didn't
    already receive (identity branches and pass-through re-emit inputs
    verbatim; every transforming branch emits only target-shaped
    values).
    """
    return not any(f.rule_id in VERIFY_RULES for f in findings)


# ----------------------------------------------------------------------
# Pipeline composition (multi-artifact)
# ----------------------------------------------------------------------

def check_composition(named: Sequence[Tuple[str, CompiledProgram]]) -> List[Finding]:
    """Static producer→consumer checks for chained artifacts: CLX019–CLX021.

    An artifact C whose source column is ``<col>_transformed`` consumes
    the default output column of the artifact P with source column
    ``<col>``.  The statically known components P emits — its target
    language (pass-through) plus each live branch's output language —
    are checked against C's dispatch.
    """
    findings: List[Finding] = []
    producers: Dict[str, Tuple[str, CompiledProgram]] = {}
    for name, compiled in named:
        column = compiled.metadata.get("column")
        if isinstance(column, str) and column:
            producers.setdefault(f"{column}_transformed", (name, compiled))
    for name, compiled in named:
        column = compiled.metadata.get("column")
        if not (isinstance(column, str) and column):
            continue
        producer = producers.get(column)
        if producer is None or producer[0] == name:
            continue
        findings.extend(_check_chain(producer[0], producer[1], name, compiled))
    return findings


def _check_chain(
    producer_name: str,
    producer: CompiledProgram,
    consumer_name: str,
    consumer: CompiledProgram,
) -> List[Finding]:
    producer_branches = producer.program.branches
    consumer_branches = consumer.program.branches

    # One joint alphabet so producer outputs and consumer dispatch share
    # a quotient.
    patterns = [
        producer.target,
        *(branch.pattern for branch in producer_branches),
        *(branch_output_pattern(branch) for branch in producer_branches),
        consumer.target,
        *(branch.pattern for branch in consumer_branches),
    ]
    atoms = atom_alphabet(
        patterns, extra_text=_guard_keywords((*producer_branches, *consumer_branches))
    )
    # One dispatch model per program, both over the joint alphabet.
    made = ProgramLanguages(producer, atoms=atoms)
    taken = ProgramLanguages(consumer, atoms=atoms)

    # What P provably emits: pass-through (target) + live branch outputs.
    components: List[Tuple[str, ChainNFA, Pattern]] = [
        ("target pass-through", made.target_nfa, producer.target)
    ]
    for index in made.live:
        output = made.outputs[index]
        components.append((f"branch {index + 1} output", made.nfa(output), output))

    # What C can match at all (guarded arms included: over-approximation
    # keeps "never accepts" sound) vs. what it *surely* matches
    # (unguarded arms only).
    accepts_any = [taken.target_nfa] + [taken.branch_nfas[i] for i in taken.live]
    accepts_surely = [taken.target_nfa] + [
        taken.branch_nfas[i] for i in taken.live if consumer_branches[i].guard is None
    ]

    findings: List[Finding] = []
    feeds = any(
        any(overlap_witness(machine, accepted, atoms) is not None for accepted in accepts_any)
        for _, machine, _ in components
    )
    if not feeds:
        example = sample_string(components[0][2])
        findings.append(
            finding(
                "CLX019",
                consumer_name,
                f"chained artifact (reads {consumer.metadata.get('column')!r}) can "
                f"never match anything {producer_name} emits — e.g. {example!r} "
                "hits no branch and no pass-through; the chain is mis-ordered "
                "or mismatched",
                producer=producer_name,
                example=example,
            )
        )
        return findings  # leak/re-transform verdicts are vacuous here

    for label, machine, pattern in components:
        witness = difference_witness(machine, accepts_surely, atoms)
        if witness is not None:
            findings.append(
                finding(
                    "CLX020",
                    consumer_name,
                    f"{producer_name} {label} ({pattern.notation() or '(empty)'}) is "
                    f"not fully consumed: e.g. {witness!r} passes through "
                    "unmatched",
                    producer=producer_name,
                    component=pattern.notation(),
                    witness=witness,
                )
            )
            break  # one leak report per chain is enough

    for index in taken.live:
        if plan_is_identity(consumer_branches[index]):
            continue
        witness = overlap_witness(
            made.target_nfa,
            taken.branch_nfas[index],
            atoms,
            excluding=taken.dispatch_before(index),
        )
        if witness is not None:
            findings.append(
                finding(
                    "CLX021",
                    branch_location(consumer_name, index),
                    f"branch rewrites values already conforming to {producer_name}'s "
                    f"target ({producer.target.notation()}): e.g. {witness!r} is "
                    "transformed again",
                    producer=producer_name,
                    witness=witness,
                )
            )
            break  # one re-transform report per chain is enough
    return findings
