"""Eager reference for the resumable plan search and the synthesizer's lists.

The best-first search as it ran before it became a generator
(:func:`eager_search_plans`), and the synthesizer's per-source
candidate list built from it (:func:`eager_plans_for`): the search run
to ``keep`` plans at once, then the conforming reorder.  The
differential tests in ``test_synthesis_candidates.py`` and the
``test_perf_first_plan_synthesis`` bench row compare the lazily
searched lists against these.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, List, Tuple

from repro.analysis.flow import plan_conforms
from repro.dsl.ast import AtomicPlan, Extract, StringExpression
from repro.dsl.mdl import OPERATION_TYPES, expression_cost
from repro.patterns.pattern import Pattern
from repro.synthesis.alignment import align_tokens
from repro.synthesis.dag import AlignmentDAG
from repro.synthesis.equivalence import _admit, _literal_table, _split
from repro.synthesis.plans import DEFAULT_MAX_PLANS, _TOLERANCE
from repro.synthesis.validate import validate_source


def eager_plans_for(synthesizer, source: Pattern, target: Pattern) -> Tuple[List[AtomicPlan], bool]:
    """``Synthesizer._plans_for`` with the whole list searched up front."""
    if not validate_source(source, target):
        return [], False
    kept = eager_search_plans(
        align_tokens(source, target),
        source,
        window=synthesizer.dedup_window,
        keep=synthesizer.keep_candidates,
        max_paths=synthesizer.max_plans_per_source,
    )
    if not kept:
        return [], False
    if plan_conforms(source, kept[0], target):
        return kept, True
    conforming = [plan for plan in kept[1:] if plan_conforms(source, plan, target)]
    if not conforming:
        return kept, False
    chosen = set(conforming)
    return conforming + [plan for plan in kept if plan not in chosen], True


def eager_search_plans(
    dag: AlignmentDAG,
    source: Pattern,
    window: int,
    keep: int,
    max_paths: int = DEFAULT_MAX_PLANS,
) -> List[AtomicPlan]:
    """The candidate list, searched in one go: the search before it paused.

    Same heap, tie batches, deduplication, ``window`` and ``keep`` stops
    and ``max_paths`` first-move fallback as
    :func:`repro.synthesis.plans.iter_plans`, with every kept plan built
    at the end.
    """
    sink = dag.sink_node
    if sink == 0:
        return [AtomicPlan(())]

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
        return []

    cost_of = costs.__getitem__
    key_of, picks_of = split_keys.__getitem__, split_picks.__getitem__
    kept: List[Tuple[str, ...]] = []
    buckets: Dict[tuple, List[tuple]] = {}
    ranked = 0

    def settle(batch: List[Tuple[int, int, Tuple[str, ...]]]) -> bool:
        """Rank and deduplicate one batch; whether the search is done."""
        nonlocal ranked
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
                return True
            if _admit(buckets, sum(map(key_of, path), ()), sum(map(picks_of, path), ())):
                kept.append(path)
                if len(kept) == keep:
                    return True
        return ranked == window

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
            done = settle(batch)
            batch = []
            if done:
                break
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
        settle(batch)
    return [AtomicPlan(map(expression_of.__getitem__, path)) for path in kept]
