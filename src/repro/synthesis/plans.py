"""Plan enumeration and MDL ranking (paper Section 6.3).

Finding an atomic transformation plan is finding a path from node 0 to
node ``len(target)`` in the alignment DAG; every combination of edge
expressions along a path is one plan.  Plans are ranked by Minimum
Description Length, the paper's formalization of Occam's razor: the plan
with the lowest description length becomes the default, the next ``k``
are offered as repair alternatives.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.dsl.ast import AtomicPlan, Extract, StringExpression
from repro.dsl.mdl import OPERATION_TYPES, expression_cost
from repro.patterns.pattern import Pattern
from repro.synthesis.dag import AlignmentDAG

#: Safety cap on the number of enumerated plans; the DAGs produced by
#: whole-token alignment are small, so this cap is rarely reached, but it
#: bounds worst-case behaviour on adversarial patterns (e.g. long free-text
#: sources where many tokens are syntactically similar to each target token).
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
