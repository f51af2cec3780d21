"""Matching strings against patterns, with per-token spans.

Two operations live here:

* :func:`match_pattern` — test whether a string matches a pattern and, if
  so, return the substring covered by every token.  The per-token spans
  are what the UniFi interpreter's ``Extract`` needs.
* :func:`pattern_of_string` — the leaf pattern of a string (tokenization
  wrapped into a :class:`~repro.patterns.pattern.Pattern`).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import List, Optional

from repro.patterns.pattern import Pattern
from repro.tokens.tokenizer import tokenize


@lru_cache(maxsize=4096)
def compiled_with_groups(pattern: Pattern) -> "re.Pattern[str]":
    """Compile ``pattern`` to an anchored regex with one capture group per token.

    The per-token groups are what ``Extract`` evaluation consumes; the
    compiled object is cached so repeated matching against the same
    pattern re-uses one regex.  :class:`repro.engine.compiled.CompiledProgram`
    stores these objects directly in its dispatch table, skipping the
    cache lookup (and the pattern hashing it implies) on the hot path.
    """
    body = "".join(f"({token.to_regex()})" for token in pattern.tokens)
    return re.compile(f"^{body}$")


def match_pattern(value: str, pattern: Pattern) -> Optional[List[str]]:
    """Match ``value`` against ``pattern`` exactly.

    Args:
        value: The raw string.
        pattern: Pattern to match against.

    Returns:
        The list of substrings covered by each token (in order) when the
        whole string matches, otherwise ``None``.  An empty pattern
        matches only the empty string (returning ``[]``).
    """
    if not pattern.tokens:
        return [] if value == "" else None
    match = compiled_with_groups(pattern).fullmatch(value)
    if match is None:
        return None
    return list(match.groups())


def matches(value: str, pattern: Pattern) -> bool:
    """Boolean form of :func:`match_pattern`."""
    return match_pattern(value, pattern) is not None


def pattern_of_string(value: str) -> Pattern:
    """Return the leaf-level pattern of ``value`` (its tokenization)."""
    return Pattern(tokenize(value))
