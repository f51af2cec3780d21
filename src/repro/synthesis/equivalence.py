"""Equivalent-plan detection and deduplication (paper Appendix B).

Two plans are *equivalent* when, for the same source pattern, they always
produce the same output for any matching string — e.g. extracting a
constant '/' from the source versus emitting it as a ``ConstStr``.
Showing equivalent plans as separate repair options only wastes user
effort, so only the simplest representative of each equivalence class is
kept.

Deduplication compares a plan only with the kept plans that share its
*canonical key*: equivalent plans always share a key, so no equivalent
pair is missed.  The key is a filter, not the verdict — the pairwise
relation is not transitive (``Extract(i)`` and ``Extract(j)`` of the
same literal are each equivalent to its ``ConstStr`` but not to each
other), so the exact pairwise check still decides within a bucket.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.dsl.ast import AtomicPlan, ConstStr, StringExpression
from repro.patterns.pattern import Pattern

#: A plan's canonical key: token indices and constant texts.
_Key = Tuple[Union[int, str], ...]

#: Per split op, the source index of a literal extract, else 0.  Only
#: compared position by position: ``_split`` keeps the list it builds,
#: and the plan search concatenates per-expression tuples.
_Picks = Sequence[int]

#: Literal text by 1-based source index; ``None`` for class tokens.
_Literals = List[Optional[str]]


def _literal_table(source: Pattern) -> _Literals:
    """The text of each literal source token, by 1-based index."""
    return [None] + [token.literal if token.is_literal else None for token in source]


def _split(expressions: Sequence[StringExpression], literals: _Literals) -> Tuple[_Key, _Picks]:
    """Split a plan's ``expressions`` into its canonical key and its literal picks.

    Step 1 of Appendix B splits ``Extract(m, n)`` into single extracts.
    Each split op keys as a ``ConstStr``'s text, a literal extract's
    literal, or any other extract's index (also one past the source, which
    copies nothing), so aligned ops that are equal or interchangeable share
    a key element.  ``picks`` holds the index a literal extract copies and
    0 for every other op: it is what the key forgets.
    """
    key: List[Union[int, str]] = []
    picks: List[int] = []
    size = len(literals)
    for expression in expressions:
        if isinstance(expression, ConstStr):
            key.append(expression.text)
            picks.append(0)
            continue
        for index in range(expression.start, expression.end + 1):
            text = literals[index] if index < size else None
            if text is None:
                key.append(index)
                picks.append(0)
            else:
                key.append(text)
                picks.append(index)
    return tuple(key), picks


def _split_equivalent(left: _Picks, right: _Picks) -> bool:
    """Step 2 of Appendix B for two plans with equal canonical keys.

    Equal key elements are equal ops or interchangeable ones (an extract
    of a literal versus its text as ``ConstStr``) unless both are extracts
    of *different* occurrences of the same literal — the one case where
    both picks are non-zero and unequal.
    """
    return all(a == b or not a or not b for a, b in zip(left, right))


def _admit(buckets: Dict[_Key, List[_Picks]], key: _Key, picks: _Picks) -> bool:
    """Whether a plan split into ``key``/``picks`` is new; if so, record it.

    ``buckets`` holds the picks of the plans kept so far by canonical
    key; the plan is new when no kept plan with its key is equivalent.
    """
    bucket = buckets.get(key)
    if bucket is None:
        buckets[key] = [picks]
        return True
    for existing in bucket:
        if _split_equivalent(picks, existing):
            return False
    bucket.append(picks)
    return True


def plans_equivalent(first: AtomicPlan, second: AtomicPlan, source: Pattern) -> bool:
    """Whether two plans always yield the same output for ``source`` strings.

    Implements the pairwise check of Appendix B: after splitting
    multi-token extracts, the plans must have equal length and each pair
    of aligned operations must be identical or interchangeable (an
    extract of a constant source token versus the same text as ConstStr).
    """
    literals = _literal_table(source)
    first_key, first_picks = _split(first.expressions, literals)
    second_key, second_picks = _split(second.expressions, literals)
    return first_key == second_key and _split_equivalent(first_picks, second_picks)


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
    literals = _literal_table(source)
    kept: List[AtomicPlan] = []
    buckets: Dict[_Key, List[_Picks]] = {}
    for plan in plans:
        key, picks = _split(plan.expressions, literals)
        if _admit(buckets, key, picks):
            kept.append(plan)
    return kept
