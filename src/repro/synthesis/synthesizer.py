"""The UniFi synthesizer — Algorithm 2 of the paper.

Given the pattern cluster hierarchy and the user-selected target pattern,
the synthesizer traverses the hierarchy top-down.  A node is

* **skipped** when its pattern is the target pattern (or is subsumed by
  it) — its data are already in the desired form;
* **solved** when it passes source-candidate validation *and* token
  alignment finds at least one plan — the node's whole subtree is covered
  by a single branch, which is what keeps programs small;
* **expanded** otherwise — its children are pushed for consideration;
  leaves that can never be solved are reported as *uncovered* (the data
  they describe is left unchanged and flagged, per Section 6.1).

Synthesis is additionally **verification-guided**: candidate plans whose
symbolic output language provably lies inside the target (see
:func:`repro.analysis.flow.plan_conforms`) are preferred over equally
ranked plans that don't, and a node whose best plan is *not* provably
conforming is first **narrowed** — ``+`` tokens tighten to the fixed
quantifier every leaf descendant agrees on, keeping one generalized
branch that still covers all profiled rows — and, failing that, refined
into its children when the whole subtree can be covered by provably
conforming branches.  This is what turns the paper's verifiability claim
into a default: artifacts earn the analyzer's ``verified`` proof
whenever the profiled data admits one.

The result carries, for every solved source pattern, the full ranked and
deduplicated list of candidate plans so that program repair (Section 6.4)
can swap the default plan without re-running synthesis.  The list comes
from a best-first search of the alignment DAG
(:func:`repro.synthesis.plans.iter_plans`) that builds only the plans
inside the deduplication window, and only as far as someone reads them:
synthesis takes the default plan and leaves the search paused behind it
(:class:`CandidatePlans`), because only a repair reads the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union, overload

from repro.analysis.flow import plan_conforms
from repro.clustering.hierarchy import HierarchyNode, PatternHierarchy
from repro.dsl.ast import AtomicPlan, Branch, UniFiProgram
from repro.patterns.pattern import Pattern
from repro.synthesis.alignment import align_tokens
from repro.synthesis.plans import iter_plans
from repro.synthesis.validate import validate_source
from repro.tokens.token import Token
from repro.util.errors import SynthesisError
from repro.util.validate import validated_non_negative_int, validated_positive_int


class CandidatePlans(Sequence[AtomicPlan]):
    """One source's ranked candidate plans, searched as far as they are read.

    Holds the default plan and the paused :func:`~repro.synthesis.plans.iter_plans`
    search that found it.  ``[0]`` and ``bool()`` read the default and
    never resume the search.  Any other index or slice resumes it as far
    as that read needs; ``len``, ``==``, ``repr`` and negative indices
    finish it, and iteration resumes it plan by plan.  The plans it
    holds are always a prefix of the finished list, and the finished
    list equals the eager :func:`~repro.synthesis.plans.search_plans`
    list, whatever order it is read in.  The sequence is read-only.
    """

    __slots__ = ("_plans", "_rest")

    def __init__(self, first: AtomicPlan, rest: Iterator[AtomicPlan]) -> None:
        self._plans = [first]
        self._rest: Optional[Iterator[AtomicPlan]] = rest

    def _found(self, count: Optional[int] = None) -> List[AtomicPlan]:
        """The plans, searched until ``count`` are found (all when ``None``)."""
        if self._rest is not None:
            wanted = None if count is None else count - len(self._plans)
            if wanted is None or wanted > 0:
                before = len(self._plans)
                self._plans.extend(islice(self._rest, wanted))
                if wanted is None or len(self._plans) - before < wanted:
                    self._rest = None
        return self._plans

    @overload
    def __getitem__(self, index: int) -> AtomicPlan:
        ...

    @overload
    def __getitem__(self, index: slice) -> List[AtomicPlan]:
        ...

    def __getitem__(self, index: Union[int, slice]) -> Union[AtomicPlan, List[AtomicPlan]]:
        if isinstance(index, slice):
            start, stop, step = index.start or 0, index.stop, index.step or 1
            bounded = stop is not None and stop >= 0 and start >= 0 and step > 0
            return self._found(stop if bounded else None)[index]
        if index == 0:
            return self._plans[0]
        return self._found(index + 1 if index >= 0 else None)[index]

    def __len__(self) -> int:
        return len(self._found())

    def __bool__(self) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CandidatePlans):
            return self._found() == other._found()
        if isinstance(other, list):
            return self._found() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._found())


@dataclass
class SynthesisResult:
    """Outcome of synthesizing a UniFi program for one target pattern.

    Attributes:
        target: The target pattern.
        program: The synthesized program (default plan per source).
        candidates: Ranked, deduplicated candidate plans per solved source
            pattern; ``candidates[p][0]`` is the default plan used in
            ``program``.  A list's search finishes only when it is read
            past its first plan (see :class:`CandidatePlans`); read in
            full, it is the eagerly searched list.
        uncovered: Leaf patterns for which no plan could be synthesized;
            their data is left unchanged and flagged.
        already_target: Patterns whose data already matches the target.
    """

    target: Pattern
    program: UniFiProgram
    candidates: Dict[Pattern, Sequence[AtomicPlan]] = field(default_factory=dict)
    uncovered: List[Pattern] = field(default_factory=list)
    already_target: List[Pattern] = field(default_factory=list)

    @property
    def source_patterns(self) -> List[Pattern]:
        """Solved source patterns, in branch order."""
        return [branch.pattern for branch in self.program.branches]

    def alternatives(self, source: Pattern, count: int = 5) -> List[AtomicPlan]:
        """Up to ``count`` repair alternatives for ``source`` (excluding the default).

        Only the first ``count + 1`` candidates are searched for.

        Raises:
            ValidationError: If ``count`` is negative.
        """
        validated_non_negative_int(count, "count")
        plans = self.candidates.get(source, [])
        return list(plans[1 : 1 + count])

    def repaired(self, source: Pattern, plan: AtomicPlan) -> "SynthesisResult":
        """Return a copy of the result with ``source``'s plan replaced by ``plan``."""
        return SynthesisResult(
            target=self.target,
            program=self.program.replacing_branch(source, plan),
            candidates=dict(self.candidates),
            uncovered=list(self.uncovered),
            already_target=list(self.already_target),
        )

    def compiled(self, metadata: "dict | None" = None):
        """Compile the synthesized program into a serializable executable.

        Returns:
            A :class:`repro.engine.compiled.CompiledProgram` pairing the
            program with its target pattern, ready for batch/streaming
            apply or JSON persistence.
        """
        from repro.engine.compiled import CompiledProgram

        return CompiledProgram(self.program, self.target, metadata=metadata)


@dataclass(frozen=True)
class Synthesizer:
    """Configurable UniFi synthesizer.

    Attributes:
        max_plans_per_source: Work bound of the plan search
            (:func:`repro.synthesis.plans.search_plans`): at most this
            many partial paths are popped per source pattern.  A source
            whose alignment DAG has a path still gets at least one plan
            at any bound.
        keep_candidates: Maximum number of ranked candidate plans retained
            per source pattern for later repair (the paper keeps the top
            ``k``).
        dedup_window: How many of the best-ranked plans equivalence
            deduplication (Appendix B) runs over before the
            ``keep_candidates`` cut is applied.  It is part of the
            candidate-list contract: widening it changes the repair
            alternatives (e.g. 46 → 50 candidates for the suite's name
            tasks' ``<U>+<L>+'.'' '<U>+<L>+' '<U>+<L>+`` source).

    Synthesis searches each source's plans only as far as the default:
    the rest of ``keep_candidates`` are found when a repair first reads
    past it (:class:`CandidatePlans`).  A default that is not provably
    conforming is the exception: every candidate is searched then, to
    move the conforming ones to the front.

    Every knob must be an integer >= 1: zero would report every pattern
    as uncovered, and a negative value would slice candidates off the
    end of the ranked list.  The knobs are checked once, at construction,
    so the instance is frozen.

    Raises:
        ValidationError: On a knob that is not a positive integer.
    """

    max_plans_per_source: int = 5_000
    keep_candidates: int = 50
    dedup_window: int = 200

    def __post_init__(self) -> None:
        for name in ("max_plans_per_source", "keep_candidates", "dedup_window"):
            validated_positive_int(getattr(self, name), name)

    def synthesize(self, hierarchy: PatternHierarchy, target: Pattern) -> SynthesisResult:
        """Run Algorithm 2 over ``hierarchy`` for ``target``.

        Raises:
            SynthesisError: If the hierarchy is empty.
        """
        if not hierarchy.layers or not hierarchy.leaf_nodes:
            raise SynthesisError("cannot synthesize from an empty hierarchy")

        unsolved: List[HierarchyNode] = list(hierarchy.roots)
        solved: List[Tuple[Pattern, Sequence[AtomicPlan]]] = []
        uncovered: List[Pattern] = []
        already_target: List[Pattern] = []
        seen_sources: set = set()

        while unsolved:
            node = unsolved.pop(0)
            pattern = node.pattern
            if pattern == target or target.subsumes(pattern):
                already_target.append(pattern)
                continue
            if pattern in seen_sources:
                continue
            plans, conforms = self._plans_for(pattern, target)
            if plans:
                if not conforms:
                    cover = self._verified_resolution(node, target)
                    if cover is not None:
                        covered_solved, covered_already = cover
                        for covered_pattern, covered_plans in covered_solved:
                            if covered_pattern in seen_sources:
                                continue
                            seen_sources.add(covered_pattern)
                            solved.append((covered_pattern, covered_plans))
                        already_target.extend(covered_already)
                        continue
                seen_sources.add(pattern)
                solved.append((pattern, plans))
                continue
            if node.children:
                unsolved.extend(node.children)
            else:
                uncovered.append(pattern)

        branches = [
            Branch(pattern=pattern, plan=plans[0]) for pattern, plans in solved
        ]
        # More specific (longer, fewer '+') patterns first so that
        # first-match-wins evaluation prefers precise branches when
        # patterns from different subtrees happen to overlap.
        branches.sort(key=lambda b: (b.pattern.has_plus, -len(b.pattern)))
        program = UniFiProgram(branches)
        return SynthesisResult(
            target=target,
            program=program,
            candidates={pattern: plans for pattern, plans in solved},
            uncovered=uncovered,
            already_target=already_target,
        )

    # ------------------------------------------------------------------
    def _verified_resolution(
        self, node: HierarchyNode, target: Pattern
    ) -> Optional[Tuple[List[Tuple[Pattern, Sequence[AtomicPlan]]], List[Pattern]]]:
        """Replace an unverifiable node solution with a provable one.

        Tries, in order: the *narrowed* node pattern (one branch, still
        covering every profiled row), then a cover of the subtree by
        provably conforming descendant branches.  Returns
        ``(solved, already_target)`` or ``None`` when neither works —
        the caller then keeps the node's own (unverifiable) solution
        rather than losing coverage.
        """
        narrowed = self._narrowed_pattern(node)
        if narrowed != node.pattern:
            if target == narrowed or target.subsumes(narrowed):
                # Every profiled row under this node is already in the
                # desired form; the pass-through handles it.
                return [], [narrowed]
            plans, conforms = self._plans_for(narrowed, target)
            if conforms:
                return [(narrowed, plans)], []
        return self._conforming_cover(node, target)

    @staticmethod
    def _narrowed_pattern(node: HierarchyNode) -> Pattern:
        """Tighten ``+`` tokens to the width every leaf descendant shares.

        The result still subsumes every leaf under ``node`` (narrowing
        only happens where all leaves agree), so swapping it in for the
        node's pattern never drops a profiled row — it only stops the
        branch from matching *unseen* widths the plan could transform
        into non-target-shaped output.  Patterns are compared
        positionally; any length mismatch disables narrowing.
        """
        leaves: List[Pattern] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.children:
                stack.extend(current.children)
            else:
                leaves.append(current.pattern)
        pattern = node.pattern
        if not leaves or any(len(leaf) != len(pattern) for leaf in leaves):
            return pattern
        tokens: List[Token] = []
        for position, token in enumerate(pattern.tokens):
            if token.is_plus:
                widths = {leaf.tokens[position].fixed_length for leaf in leaves}
                if len(widths) == 1 and None not in widths:
                    width = widths.pop()
                    assert width is not None
                    tokens.append(Token.base(token.klass, width))
                    continue
            tokens.append(token)
        return Pattern(tokens)

    def _conforming_cover(
        self, node: HierarchyNode, target: Pattern
    ) -> Optional[Tuple[List[Tuple[Pattern, Sequence[AtomicPlan]]], List[Pattern]]]:
        """Cover ``node``'s subtree with provably conforming branches.

        Returns ``(solved, already_target)`` when every descendant either
        already matches the target or admits a default plan whose output
        language provably lies inside it — or ``None`` when no such cover
        exists.
        """
        pattern = node.pattern
        if pattern == target or target.subsumes(pattern):
            return [], [pattern]
        plans, conforms = self._plans_for(pattern, target)
        if conforms:
            return [(pattern, plans)], []
        if not node.children:
            return None
        solved: List[Tuple[Pattern, Sequence[AtomicPlan]]] = []
        already: List[Pattern] = []
        for child in node.children:
            sub = self._conforming_cover(child, target)
            if sub is None:
                return None
            solved.extend(sub[0])
            already.extend(sub[1])
        return solved, already

    def _plans_for(self, source: Pattern, target: Pattern) -> Tuple[Sequence[AtomicPlan], bool]:
        """Validated + aligned + ranked + deduplicated plans for one source.

        When the MDL-best plan provably conforms, the plans are a
        :class:`CandidatePlans` holding it and the paused search.  When
        it does not, the search is finished here, and if some other
        candidate conforms, the conforming candidates are stably moved
        to the front — verification breaks ranking ties the description length
        cannot see (e.g. which of several ``<D>+`` tokens feeds a
        ``<D>3`` target).

        Returns:
            The plans, and whether the first of them provably conforms
            to ``target`` (``False`` when there are none), so callers
            need not decide it again.
        """
        if not validate_source(source, target):
            return [], False
        search = iter_plans(
            align_tokens(source, target),
            source,
            window=self.dedup_window,
            max_paths=self.max_plans_per_source,
        )
        first = next(search, None)
        if first is None:
            return [], False
        rest = islice(search, self.keep_candidates - 1)
        if plan_conforms(source, first, target):
            return CandidatePlans(first, rest), True
        kept = [first, *rest]
        conforming = [plan for plan in kept[1:] if plan_conforms(source, plan, target)]
        if not conforming:
            return kept, False
        chosen = set(conforming)
        return conforming + [plan for plan in kept if plan not in chosen], True


def synthesize(
    hierarchy: PatternHierarchy,
    target: Pattern,
    max_plans_per_source: int = 5_000,
    keep_candidates: int = 50,
) -> SynthesisResult:
    """Convenience wrapper constructing a :class:`Synthesizer` and running it."""
    synthesizer = Synthesizer(
        max_plans_per_source=max_plans_per_source,
        keep_candidates=keep_candidates,
    )
    return synthesizer.synthesize(hierarchy, target)
