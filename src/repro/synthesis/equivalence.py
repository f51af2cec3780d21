"""Equivalent-plan detection and deduplication (paper Appendix B).

Two plans are *equivalent* when, for the same source pattern, they always
produce the same output for any matching string — e.g. extracting a
constant '/' from the source versus emitting it as a ``ConstStr``.
Showing equivalent plans as separate repair options only wastes user
effort, so only the simplest representative of each equivalence class is
kept.

Deduplication compares a plan only with the kept plans that share its
*canonical key* (:func:`_canonical_key`): equivalent plans always share a
key, so no equivalent pair is missed.  The key is a filter, not the
verdict — the pairwise relation is not transitive (``Extract(i)`` and
``Extract(j)`` of the same literal are each equivalent to its
``ConstStr`` but not to each other), so the exact pairwise check still
decides within a bucket.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.dsl.ast import AtomicPlan, ConstStr, Extract, StringExpression
from repro.patterns.pattern import Pattern

#: A plan's canonical key: token indices and constant texts.
_Key = Tuple[Union[int, str], ...]


def _split_extracts(plan: AtomicPlan) -> List[StringExpression]:
    """Step 1 of Appendix B: split ``Extract(m, n)`` into single extracts."""
    flattened: List[StringExpression] = []
    for expression in plan.expressions:
        if isinstance(expression, Extract):
            flattened.extend(Extract(index) for index in range(expression.start, expression.end + 1))
        else:
            flattened.append(expression)
    return flattened


def _literal_text(extract: Extract, source: Pattern) -> Optional[str]:
    """The text of the literal source token a single ``Extract`` copies, if any."""
    if extract.start != extract.end:
        return None
    if extract.start > len(source):
        return None
    token = source[extract.start - 1]
    return token.literal if token.is_literal else None


def _operations_interchangeable(
    left: StringExpression, right: StringExpression, source: Pattern
) -> bool:
    """Step 2(b): one op extracts a constant whose text equals the other's ConstStr."""
    if isinstance(left, Extract) and isinstance(right, ConstStr):
        extract, const = left, right
    elif isinstance(left, ConstStr) and isinstance(right, Extract):
        extract, const = right, left
    else:
        return False
    return _literal_text(extract, source) == const.text


def _split_equivalent(
    left: Sequence[StringExpression], right: Sequence[StringExpression], source: Pattern
) -> bool:
    """The pairwise check of Appendix B over two already-split plans."""
    if len(left) != len(right):
        return False
    for left_op, right_op in zip(left, right):
        if left_op == right_op:
            continue
        if _operations_interchangeable(left_op, right_op, source):
            continue
        return False
    return True


def _canonical_key(split: Sequence[StringExpression], source: Pattern) -> _Key:
    """``split`` with every extract of a literal token rewritten to its text.

    A ``ConstStr`` keys as its text and any other extract as its token
    index, so aligned ops that are equal or interchangeable share a key
    element and equivalent plans always share a key.
    """
    key: List[Union[int, str]] = []
    for op in split:
        if isinstance(op, ConstStr):
            key.append(op.text)
            continue
        text = _literal_text(op, source)
        key.append(op.start if text is None else text)
    return tuple(key)


def plans_equivalent(first: AtomicPlan, second: AtomicPlan, source: Pattern) -> bool:
    """Whether two plans always yield the same output for ``source`` strings.

    Implements the pairwise check of Appendix B: after splitting
    multi-token extracts, the plans must have equal length and each pair
    of aligned operations must be identical or interchangeable (an
    extract of a constant source token versus the same text as ConstStr).
    """
    return _split_equivalent(_split_extracts(first), _split_extracts(second), source)


def deduplicate_plans(plans: Sequence[AtomicPlan], source: Pattern) -> List[AtomicPlan]:
    """Keep only the first (i.e. simplest, given MDL-ranked input) plan per class.

    Each plan is split once and compared, with the exact pairwise check,
    only against the kept plans in its canonical-key bucket; the result
    equals comparing it against every kept plan.

    Args:
        plans: Plans already ranked by description length (ascending).
        source: Source pattern the plans apply to.

    Returns:
        The ranked plans with equivalent duplicates removed, preserving
        order.
    """
    kept: List[AtomicPlan] = []
    buckets: Dict[_Key, List[List[StringExpression]]] = {}
    for plan in plans:
        split = _split_extracts(plan)
        bucket = buckets.setdefault(_canonical_key(split, source), [])
        if any(_split_equivalent(split, existing, source) for existing in bucket):
            continue
        bucket.append(split)
        kept.append(plan)
    return kept
