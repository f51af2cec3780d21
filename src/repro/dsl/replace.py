"""Regexp ``Replace`` operations — the explained form of UniFi branches.

A :class:`ReplaceOperation` is what the user actually sees and verifies
(Figure 4 of the paper): a regular expression over the source pattern in
which extractable token runs are capture groups, plus a replacement
template using ``$1``, ``$2``, … back-references.  The operation is
executable, so tests can check that the explanation and the UniFi branch
it came from transform data identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class ReplaceOperation:
    """One regexp replace operation shown to the user.

    Attributes:
        regex: Anchored regular expression with capture groups around the
            extracted token runs.
        replacement: Replacement template using ``$1``-style references.
        description: Optional human-readable summary (Wrangler-style
            rendering of the source pattern), used for display only.
    """

    regex: str
    replacement: str
    description: str = ""

    def compiled(self) -> "re.Pattern[str]":
        """The compiled regular expression."""
        return re.compile(self.regex)

    def matches(self, value: str) -> bool:
        """Whether this operation applies to ``value``."""
        return self.compiled().fullmatch(value) is not None

    def apply(self, value: str) -> str:
        """Apply the replacement to ``value``.

        Returns ``value`` unchanged when the regex does not match, which
        mirrors how an ordered list of Replace operations behaves in a
        wrangling tool.
        """
        match = self.compiled().fullmatch(value)
        if match is None:
            return value
        return _substitute(self.replacement, match)

    def __str__(self) -> str:
        return f"Replace '{self.regex}' with '{self.replacement}'"


def _substitute(template: str, match: "re.Match[str]") -> str:
    """Expand ``$N`` references in ``template`` from ``match`` groups."""
    out: List[str] = []
    index = 0
    length = len(template)
    while index < length:
        char = template[index]
        if char == "$" and index + 1 < length and template[index + 1].isdigit():
            digits_start = index + 1
            cursor = digits_start
            while cursor < length and template[cursor].isdigit():
                cursor += 1
            group_number = int(template[digits_start:cursor])
            out.append(match.group(group_number) or "")
            index = cursor
            continue
        if char == "$" and index + 1 < length and template[index + 1] == "$":
            out.append("$")
            index += 2
            continue
        out.append(char)
        index += 1
    return "".join(out)


def apply_replace(operation: ReplaceOperation, value: str) -> str:
    """Apply a single replace operation (function form of :meth:`ReplaceOperation.apply`)."""
    return operation.apply(value)


def apply_replacements(operations: Sequence[ReplaceOperation], value: str) -> str:
    """Apply the *first matching* operation of an ordered list to ``value``.

    The explained form of a UniFi Switch is a list of Replace operations
    with mutually exclusive source patterns, so first-match semantics is
    equivalent to the Switch semantics.
    """
    for operation in operations:
        if operation.matches(value):
            return operation.apply(value)
    return value
