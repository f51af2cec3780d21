"""Evaluation of UniFi programs on raw strings.

``apply_plan`` evaluates one atomic transformation plan against a string
that matches a given source pattern; ``apply_program`` evaluates a whole
Switch, returning the input unchanged (and flagging it) when no branch
matches — the paper leaves unmatched data "unchanged and flagged for
additional review" (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.dsl.ast import AtomicPlan, ConstStr, Extract, UniFiProgram
from repro.patterns.matching import match_pattern
from repro.patterns.pattern import Pattern
from repro.util.errors import TransformError


def apply_plan(plan: AtomicPlan, token_texts: Sequence[str]) -> str:
    """Evaluate ``plan`` against the per-token substrings of a source string.

    Args:
        plan: The atomic transformation plan.
        token_texts: Substring covered by each source-pattern token, as
            returned by :func:`repro.patterns.matching.match_pattern`.

    Returns:
        The transformed string.

    Raises:
        TransformError: If an Extract references token indices that do not
            exist in the source pattern.
    """
    pieces: List[str] = []
    for expression in plan.expressions:
        if isinstance(expression, ConstStr):
            pieces.append(expression.text)
            continue
        if isinstance(expression, Extract):
            if expression.end > len(token_texts):
                raise TransformError(
                    f"{expression} out of range for source with {len(token_texts)} tokens"
                )
            pieces.append("".join(token_texts[expression.start - 1 : expression.end]))
            continue
        raise TransformError(f"unsupported expression {expression!r}")
    return "".join(pieces)


@dataclass(frozen=True)
class TransformOutcome:
    """Result of applying a UniFi program to one string.

    Attributes:
        output: The transformed string (equal to the input when no branch
            matched).
        matched: Whether any branch matched.
        pattern: The source pattern of the branch that matched, if any.
    """

    output: str
    matched: bool
    pattern: Optional[Pattern] = None


def apply_program(program: UniFiProgram, value: str) -> TransformOutcome:
    """Apply ``program`` to ``value`` (first matching branch wins).

    Returns a :class:`TransformOutcome`; unmatched values come back
    unchanged with ``matched=False`` so callers can flag them for review.
    """
    for branch in program.branches:
        if not branch.accepts(value):
            continue
        token_texts = match_pattern(value, branch.pattern)
        if token_texts is None:
            continue
        output = apply_plan(branch.plan, token_texts)
        return TransformOutcome(output=output, matched=True, pattern=branch.pattern)
    return TransformOutcome(output=value, matched=False, pattern=None)


def apply_with_target(program: UniFiProgram, target: Pattern, value: str) -> TransformOutcome:
    """Apply ``program`` to ``value``, passing target-conforming values through.

    The reference semantics of a compiled artifact: a value that already
    matches ``target`` comes back unchanged and matched by the target,
    anything else goes through :func:`apply_program`.
    """
    if match_pattern(value, target) is not None:
        return TransformOutcome(output=value, matched=True, pattern=target)
    return apply_program(program, value)


def transform_all(program: UniFiProgram, values: Sequence[str]) -> List[TransformOutcome]:
    """Apply ``program`` to every value, preserving order."""
    return [apply_program(program, value) for value in values]
