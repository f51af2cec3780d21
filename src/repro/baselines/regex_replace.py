"""The RegexReplace baseline (Trifacta Wrangler's manual replace feature).

The paper's third system is not PBE at all: the user hand-writes regexp
``Replace`` operations, one per ill-formatted source format, and the tool
applies them to the column.  :class:`RegexReplaceSession` models that
loop — each :meth:`~RegexReplaceSession.add_rule` is the user typing two
regular expressions (a match pattern and a replacement), which is why the
Step metric of Section 7.4 charges two steps per rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.dsl.replace import ReplaceOperation
from repro.patterns.matching import matches
from repro.patterns.pattern import Pattern
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class RegexRule:
    """One hand-written replace rule.

    Attributes:
        regex: Anchored regular expression with capture groups.
        replacement: Replacement template with ``$1``-style references.
    """

    regex: str
    replacement: str

    def as_operation(self) -> ReplaceOperation:
        """View the rule as an executable :class:`~repro.dsl.replace.ReplaceOperation`."""
        return ReplaceOperation(regex=self.regex, replacement=self.replacement)

    def matches(self, value: str) -> bool:
        """Whether this rule applies to ``value``."""
        return re.fullmatch(self.regex, value) is not None


class RegexReplaceSession:
    """One RegexReplace run over a column of raw values.

    Rules are applied in the order they were added; the first rule whose
    regex matches a value rewrites it, later rules see the already
    rewritten column state only through subsequent calls (each rule is an
    independent column transform, as in Wrangler).

    Args:
        values: The raw column (must be non-empty).

    Raises:
        ValidationError: If ``values`` is empty.
    """

    def __init__(self, values: Sequence[str]) -> None:
        self._values: List[str] = [str(value) for value in values]
        if not self._values:
            raise ValidationError("RegexReplaceSession requires at least one value")
        self._rules: List[RegexRule] = []

    # ------------------------------------------------------------------
    @property
    def values(self) -> List[str]:
        """The raw column values."""
        return list(self._values)

    @property
    def rules(self) -> List[RegexRule]:
        """Rules added so far, in application order."""
        return list(self._rules)

    @property
    def rule_count(self) -> int:
        """Number of rules added so far."""
        return len(self._rules)

    # ------------------------------------------------------------------
    def add_rule(self, regex: str, replacement: str) -> RegexRule:
        """Add a replace rule (the user typing two regular expressions).

        Raises:
            ValidationError: If the regular expression does not compile.
        """
        try:
            re.compile(regex)
        except re.error as exc:
            raise ValidationError(f"invalid regular expression {regex!r}: {exc}") from exc
        rule = RegexRule(regex=regex, replacement=replacement)
        self._rules.append(rule)
        return rule

    def add_operation(self, operation: ReplaceOperation) -> RegexRule:
        """Add a rule from an existing :class:`~repro.dsl.replace.ReplaceOperation`."""
        return self.add_rule(operation.regex, operation.replacement)

    def outputs(self) -> List[str]:
        """Column after applying every rule in order to each value."""
        results = []
        for value in self._values:
            current = value
            for rule in self._rules:
                operation = rule.as_operation()
                if operation.matches(current):
                    current = operation.apply(current)
            results.append(current)
        return results

    # ------------------------------------------------------------------
    def failing_rows(self, expected: Dict[str, str]) -> List[str]:
        """Raw rows whose current output differs from ``expected``."""
        failing = []
        for raw, output in zip(self._values, self.outputs()):
            if output != expected.get(raw, raw):
                failing.append(raw)
        return failing

    def failing_rows_against_pattern(self, target: Pattern) -> List[str]:
        """Raw rows whose current output does not match ``target``."""
        return [
            raw
            for raw, output in zip(self._values, self.outputs())
            if not matches(output, target)
        ]

    def is_complete(self, expected: Dict[str, str]) -> bool:
        """Whether every row currently transforms to its expected output."""
        return not self.failing_rows(expected)
