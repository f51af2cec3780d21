"""Plan enumeration, MDL ranking and the best-first plan search (paper Section 6.3).

Finding an atomic transformation plan is finding a path from node 0 to
node ``len(target)`` in the alignment DAG; every combination of edge
expressions along a path is one plan.  Plans are ranked by Minimum
Description Length, the paper's formalization of Occam's razor: the plan
with the lowest description length becomes the default, the next ``k``
are offered as repair alternatives.

:func:`enumerate_plans` → :func:`rank_plans` → slice →
:func:`~repro.synthesis.equivalence.deduplicate_plans` is the
specification of a source's candidate list: it builds every plan, then
sorts them all.  :func:`iter_plans` is what the synthesizer runs: a
best-first search of the DAG that ranks and deduplicates only the plans
inside the window, yields them one at a time, and pauses between them.
:func:`search_plans` is its first ``keep`` plans, the same list as the
specification whenever the search's work bound does not bind.  The
FlashFill baseline, the lazy-user simulation and the tests use the
specification.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import islice
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.dsl.ast import AtomicPlan, Extract, StringExpression
from repro.dsl.mdl import OPERATION_TYPES, expression_cost
from repro.patterns.pattern import Pattern
from repro.synthesis.dag import AlignmentDAG
from repro.synthesis.equivalence import _admit, _literal_table, _split

#: Safety cap on the number of enumerated plans (and on the partial paths
#: the search pops); the DAGs produced by whole-token alignment are small,
#: so this cap is rarely reached, but it bounds worst-case behaviour on
#: adversarial patterns (e.g. long free-text sources where many tokens are
#: syntactically similar to each target token).
DEFAULT_MAX_PLANS = 5_000


def enumerate_plans(dag: AlignmentDAG, max_plans: int = DEFAULT_MAX_PLANS) -> List[AtomicPlan]:
    """Enumerate atomic transformation plans as paths through ``dag``.

    Args:
        dag: Alignment DAG built by :func:`repro.synthesis.alignment.align_tokens`.
        max_plans: Upper bound on the number of plans returned; when the
            bound is hit enumeration stops (depth-first, left-to-right),
            which still includes the single-extract "simple" plans MDL
            prefers because combined edges are explored like any other.

    Returns:
        A list of distinct plans (no particular order); empty when no
        path reaches the sink.
    """
    if dag.target_length == 0:
        return [AtomicPlan(())]

    plans: List[AtomicPlan] = []
    seen: set = set()
    prefix: List[StringExpression] = []

    # Pre-sort outgoing edges per node for deterministic enumeration:
    # longer jumps (fewer expressions per plan) first.
    adjacency = {}
    for node in range(dag.target_length):
        edges = sorted(dag.outgoing(node), key=lambda item: -item[0])
        adjacency[node] = edges

    def visit(node: int) -> None:
        if len(plans) >= max_plans:
            return
        if node == dag.sink_node:
            plan = AtomicPlan(tuple(prefix))
            if plan not in seen:
                seen.add(plan)
                plans.append(plan)
            return
        for end, expressions in adjacency.get(node, []):
            for expression in expressions:
                if len(plans) >= max_plans:
                    return
                prefix.append(expression)
                visit(end)
                prefix.pop()

    visit(dag.source_node)
    return plans


def overlap_violations(plan: AtomicPlan) -> int:
    """Number of Extracts that re-extract a source token already used.

    A formatting transformation almost never copies the same source field
    twice, but compact plans that do (e.g. reusing the phone prefix for
    the area code, or folding a neighbouring separator into two ranges)
    can have a *lower* description length than the correct plan.  Counting
    range overlaps lets the ranking prefer overlap-free plans before
    comparing description lengths, which is what keeps the default plan
    correct for the common reformatting tasks; overlapping plans remain
    available as repair candidates.
    """
    used: set = set()
    violations = 0
    for expression in plan.expressions:
        if not isinstance(expression, Extract):
            continue
        span = set(range(expression.start, expression.end + 1))
        if span & used:
            violations += 1
        used |= span
    return violations


def monotonicity_violations(plan: AtomicPlan) -> int:
    """Number of Extracts that reuse or go backwards over source tokens.

    MDL alone cannot distinguish ``Extract(1)`` from ``Extract(3)`` when
    both source tokens are syntactically similar to the target token (the
    date-ambiguity example of Section 6.4).  As a tie-breaker we prefer
    plans whose extracts walk the source left-to-right without reusing a
    token, which is how the vast majority of real formatting
    transformations behave; the MDL score itself is never overridden.
    """
    violations = 0
    last_end = 0
    for expression in plan.expressions:
        if not isinstance(expression, Extract):
            continue
        if expression.start <= last_end:
            violations += 1
        last_end = max(last_end, expression.end)
    return violations


def rank_plans(
    plans: Sequence[AtomicPlan],
    source: Pattern,
) -> List[AtomicPlan]:
    """Rank candidate plans: overlap-free first, then by description length.

    The primary criterion within the overlap-free (and within the
    overlapping) group is the MDL score of Section 6.3; remaining ties are
    broken by fewer monotonicity violations (left-to-right extraction),
    fewer expressions, and finally the plan's string form, so ranking is
    fully deterministic.

    The sort key is ``(overlap_violations, plan_description_length,
    monotonicity_violations, len, str)`` of each plan, computed in one
    pass over its expressions.  DAG edge expressions are shared objects,
    so each distinct object's span bitmask, cost and text is computed
    once per call, looked up by identity: hashing the frozen dataclasses
    by value costs more than it saves.  The plans keep every expression
    alive for the whole call, so no ``id`` is reused within it.

    Args:
        plans: Candidate plans for one source pattern.
        source: The candidate source pattern (its length parameterizes the
            Extract cost in the MDL formula).
    """
    source_length = max(1, len(source))
    model_cost = math.log2(OPERATION_TYPES)
    facts: Dict[int, Tuple[int, int, int, float, str]] = {}

    def expression_facts(expression: StringExpression) -> Tuple[int, int, int, float, str]:
        cost = expression_cost(expression, source_length)
        if isinstance(expression, Extract):
            start, end = expression.start, expression.end
            # Bits start..end: the source tokens the extract copies.
            span = (1 << (end + 1)) - (1 << start)
            return span, start, end, cost, str(expression)
        # A ConstStr copies no source token; its empty span skips both checks.
        return 0, 0, 0, cost, str(expression)

    def key(plan: AtomicPlan):
        used = overlaps = backwards = last_end = 0
        costs: List[float] = []
        texts: List[str] = []
        for expression in plan.expressions:
            entry = facts.get(id(expression))
            if entry is None:
                entry = facts[id(expression)] = expression_facts(expression)
            span, start, end, cost, text = entry
            if span:
                if span & used:
                    overlaps += 1
                used |= span
                if start <= last_end:
                    backwards += 1
                if end > last_end:
                    last_end = end
            costs.append(cost)
            texts.append(text)
        # ``sum`` over the plan-ordered list, as plan_description_length
        # does: a running ``+=`` can round differently from the
        # compensated float ``sum`` of Python 3.12+ and reorder MDL ties.
        return (
            overlaps,
            len(costs) * model_cost + sum(costs),
            backwards,
            len(costs),
            "Concat(" + ", ".join(texts) + ")",
        )

    return sorted(plans, key=key)


#: Slack when comparing running description lengths: the search adds
#: costs up one ``+=`` at a time, which can differ in the last bits from
#: the exact ``sum`` the ranking key takes.
_TOLERANCE = 1e-9


def search_plans(
    dag: AlignmentDAG,
    source: Pattern,
    window: int,
    keep: int,
    max_paths: int = DEFAULT_MAX_PLANS,
) -> List[AtomicPlan]:
    """The first ``keep`` plans of :func:`iter_plans`, as a list.

    Returns what ``deduplicate_plans(rank_plans(plans, source)[:window],
    source)[:keep]`` returns for ``plans``, every plan of ``dag`` (all of
    :func:`enumerate_plans` when its cap does not bind), whenever
    ``max_paths`` does not bind, without building the plans nobody sees.
    """
    return list(islice(iter_plans(dag, source, window, max_paths), keep))


def iter_plans(
    dag: AlignmentDAG,
    source: Pattern,
    window: int,
    max_paths: int = DEFAULT_MAX_PLANS,
) -> Iterator[AtomicPlan]:
    """The ranked, deduplicated candidate plans, found best-first, one at a time.

    Partial paths pop from a heap keyed by (overlaps, running
    description length).  Both parts only grow as a path is extended,
    so complete plans pop in non-decreasing order of the key's first two
    parts.  They are ranked in batches: once the frontier's key is above
    a batch's last key (plus a float tolerance, so MDL ties stay in one
    batch), no plan still to come ranks before any plan in the batch.
    A batch is sorted by the exact five-part key of :func:`rank_plans`,
    exact duplicates (two paths spelling one plan) are dropped, and the
    rest pass the Appendix-B deduplication of
    :func:`~repro.synthesis.equivalence.deduplicate_plans` in order; each
    plan that passes is yielded at once.  The search ends when ``window``
    distinct plans are ranked.

    The search runs only as far as its reader reads: it pauses after
    each plan and resumes where it stopped.  What it has yielded is
    always a prefix of the whole sequence, so the first plan is the
    first of :func:`search_plans` at every ``keep``.

    Args:
        dag: Alignment DAG built by :func:`repro.synthesis.alignment.align_tokens`.
        source: The candidate source pattern.
        window: How many of the best-ranked plans deduplication runs over.
        max_paths: Bound on popped partial paths, a work bound.  When it
            is reached, the plans ranked so far end the sequence; if none
            has completed, the search follows only each path's first move
            until one does, so a DAG with a path always yields a plan.

    Yields:
        Plans, best first; none when no path reaches the sink.
    """
    sink = dag.sink_node
    if sink == 0:
        yield AtomicPlan(())
        return

    source_length = max(1, len(source))
    model_cost = math.log2(OPERATION_TYPES)
    literals = _literal_table(source)
    leaving: Dict[int, List[Tuple[int, List[StringExpression]]]] = {}
    for (start, end), bucket in dag.edges.items():
        leaving.setdefault(start, []).append((end, bucket))

    # Facts by expression text.  A path is the tuple of its expressions'
    # texts: no text is a proper prefix of another (each closes its own
    # parenthesis, after a complete ``repr`` for a ConstStr), so paths of
    # equal length compare as their ``Concat(...)`` strings, the last part
    # of rank_plans' key, and equal paths are equal plans.
    expression_of: Dict[str, StringExpression] = {}
    costs: Dict[str, float] = {}
    split_keys: Dict[str, tuple] = {}
    split_picks: Dict[str, tuple] = {}
    # moves[node]: (end, text, span, first token, last token, step) per
    # expression on an edge to a live node, one that reaches the sink;
    # found from the sink backwards, so no dead end is searched.
    moves: List[List[Tuple[int, str, int, int, int, float]]] = [[] for _ in range(sink)]
    live = [False] * sink + [True]
    for node in range(sink - 1, -1, -1):
        out = moves[node]
        for end, bucket in leaving.get(node, ()):
            if not live[end]:
                continue
            for expression in bucket:
                text = str(expression)
                if text not in expression_of:
                    expression_of[text] = expression
                    costs[text] = expression_cost(expression, source_length)
                    split_key, picks = _split((expression,), literals)
                    split_keys[text], split_picks[text] = split_key, tuple(picks)
                step = model_cost + costs[text]
                if isinstance(expression, Extract):
                    first, last = expression.start, expression.end
                    # Bits first..last: the source tokens the extract copies.
                    span = (1 << (last + 1)) - (1 << first)
                    out.append((end, text, span, first, last, step))
                else:
                    out.append((end, text, 0, 0, 0, step))
        live[node] = bool(out)
    if not live[0]:
        return

    cost_of = costs.__getitem__
    key_of, picks_of = split_keys.__getitem__, split_picks.__getitem__
    buckets: Dict[tuple, List[tuple]] = {}
    ranked = kept = 0
    done = False

    def settle(batch: List[Tuple[int, int, Tuple[str, ...]]]) -> Iterator[AtomicPlan]:
        """Rank and deduplicate one batch, yielding the plans it keeps."""
        nonlocal ranked, kept, done
        if len(batch) == 1:
            paths = [batch[0][2]]
        else:
            # rank_plans' key, with the path for the plan's string.
            keys = sorted(
                (
                    overlaps,
                    len(path) * model_cost + sum(map(cost_of, path)),
                    backwards,
                    len(path),
                    path,
                )
                for overlaps, backwards, path in batch
            )
            paths = []
            for key in keys:
                # Two paths may spell one plan: equal plans sort together.
                if not paths or key[4] != paths[-1]:
                    paths.append(key[4])
        for path in paths:
            ranked += 1
            if ranked > window:
                done = True
                return
            if _admit(buckets, sum(map(key_of, path), ()), sum(map(picks_of, path), ())):
                kept += 1
                yield AtomicPlan(map(expression_of.__getitem__, path))
        done = ranked == window

    # Entries: overlaps, running MDL, node, used-token mask, last extracted
    # token, backward extracts, path.
    heap: List[Tuple[int, float, int, int, int, int, Tuple[str, ...]]] = [(0, 0.0, 0, 0, 0, 0, ())]
    batch: List[Tuple[int, int, Tuple[str, ...]]] = []
    batch_overlaps, batch_mdl = 0, 0.0
    pops = 0
    while heap:
        if pops >= max_paths and (batch or kept):
            break
        overlaps, mdl, node, used, last_end, backwards, path = heappop(heap)
        pops += 1
        if batch and (overlaps != batch_overlaps or mdl > batch_mdl + _TOLERANCE):
            # No plan still to come ranks before any plan in the batch.
            yield from settle(batch)
            batch = []
            if done:
                return
        if node == sink:
            batch.append((overlaps, backwards, path))
            batch_overlaps, batch_mdl = overlaps, mdl
            continue
        for end, text, span, first, last, step in (
            moves[node] if pops <= max_paths else moves[node][:1]
        ):
            if span:
                heappush(
                    heap,
                    (
                        overlaps + 1 if span & used else overlaps,
                        mdl + step,
                        end,
                        used | span,
                        last if last > last_end else last_end,
                        backwards + 1 if first <= last_end else backwards,
                        path + (text,),
                    ),
                )
            else:
                heappush(
                    heap, (overlaps, mdl + step, end, used, last_end, backwards, path + (text,))
                )
    if batch:
        yield from settle(batch)
