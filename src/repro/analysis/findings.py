"""Finding and rule vocabulary of the artifact linter.

Every analysis pass reports :class:`Finding` objects carrying a stable
rule id (``CLX001``…), a severity, a location string (artifact name plus
an optional ``branch[i]`` anchor), a human message, and a
machine-readable ``data`` mapping.  The rule table below is the single
source of truth for ids, default severities, and one-line descriptions —
the README's rule table and the ``--json`` reporter both render from it,
so ids can never drift between code and docs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.util.errors import CLXError


class Severity(enum.IntEnum):
    """Finding severity, ordered so comparisons mean "at least as severe"."""

    INFO = 10
    WARN = 20
    ERROR = 30

    @property
    def label(self) -> str:
        """Lower-case name used in reports and CLI flags."""
        return self.name.lower()

    @classmethod
    def parse(cls, name: str) -> "Severity":
        """Parse a severity name (case-insensitive; accepts ``warning``).

        Raises:
            CLXError: On a name that is not a severity.
        """
        normalized = name.strip().lower()
        if normalized == "warning":
            normalized = "warn"
        for severity in cls:
            if severity.label == normalized:
                return severity
        known = ", ".join(severity.label for severity in cls)
        raise CLXError(f"unknown severity {name!r} (expected one of: {known})")


@dataclass(frozen=True)
class Rule:
    """One linter rule: stable id, default severity, one-line description."""

    rule_id: str
    severity: Severity
    title: str


#: The rule table.  Ids are append-only and never renumbered.
RULES: Tuple[Rule, ...] = (
    Rule("CLX001", Severity.ERROR, "dead branch: pattern subsumed by the target pass-through"),
    Rule("CLX002", Severity.ERROR, "dead branch: pattern shadowed by earlier unguarded branches"),
    Rule("CLX003", Severity.WARN, "overlapping unguarded branches make the output order-dependent"),
    Rule("CLX004", Severity.ERROR, "ReDoS-prone regex: nested unbounded quantifiers (unreachable: "
                                   "no token pattern renders one)"),
    Rule("CLX005", Severity.WARN, "ReDoS-prone regex: ambiguous unbounded repetition (adjacent "
                                  "overlapping '+' tokens)"),
    Rule("CLX006", Severity.ERROR, "pathological matching time observed on an adversarial probe input"),
    Rule("CLX007", Severity.INFO, "identity plan: the branch rewrites every match to itself"),
    Rule("CLX008", Severity.WARN, "constant-only plan: every match produces the same output"),
    Rule("CLX009", Severity.INFO, "unused source tokens: data tokens never extracted by the plan"),
    Rule("CLX010", Severity.ERROR, "dead branch: guard can never hold on the branch pattern"),
    Rule("CLX011", Severity.INFO, "redundant guard: guard holds for every match of the pattern"),
    Rule("CLX012", Severity.WARN, "coverage residual: profiled cluster that no branch matches"),
    Rule("CLX013", Severity.ERROR, "multi-artifact conflict: one source column targeted by several "
                                   "artifacts"),
    Rule("CLX014", Severity.WARN, "artifact chain: a source column collides with another artifact's "
                                  "output column"),
    Rule("CLX015", Severity.ERROR, "output nonconformance: a reachable branch can produce output "
                                   "outside the target language"),
    Rule("CLX016", Severity.WARN, "unverified branch: guarded branch whose over-approximated output "
                                  "language escapes the target (conformance undecided)"),
    Rule("CLX017", Severity.WARN, "non-idempotent: branch output re-enters another branch's dispatch "
                                  "with a non-identity plan (apply twice ≠ apply once)"),
    Rule("CLX018", Severity.WARN, "divergent fixpoint: branch output re-enters its own dispatch with "
                                  "a non-identity plan (repeated apply keeps rewriting)"),
    Rule("CLX019", Severity.ERROR, "broken pipeline: a chained artifact can never accept anything "
                                   "its producer emits"),
    Rule("CLX020", Severity.WARN, "leaky pipeline: some producer outputs pass through the chained "
                                  "artifact unmatched"),
    Rule("CLX021", Severity.WARN, "pipeline re-transform: a chained artifact rewrites values already "
                                  "conforming to its producer's target"),
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in RULES}

#: Version of the rule table above.  Bumped whenever rules are added or a
#: verdict's meaning changes; stamped into ``RegistryEntry.analysis`` so
#: ``artifacts list`` can flag summaries produced by an older analyzer as
#: ``stale`` instead of presenting them as current verdicts.
RULESET_VERSION = 2


@dataclass(frozen=True)
class Finding:
    """One analysis finding.

    Attributes:
        rule_id: Stable rule id from :data:`RULES` (``CLX001``…).
        severity: The finding's severity (defaults per rule).
        location: Where the finding anchors, e.g.
            ``phone.clx.json:branch[2]`` (branch indices are 1-based,
            matching how programs are explained to the user).
        message: Human-readable one-line description.
        data: Machine-readable details, JSON-serializable.
    """

    rule_id: str
    severity: Severity
    location: str
    message: str
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form used by the ``--json`` reporter."""
        return {
            "rule": self.rule_id,
            "severity": self.severity.label,
            "location": self.location,
            "message": self.message,
            "data": dict(self.data),
        }

    def render(self) -> str:
        """One text-report line: ``ERROR CLX002 loc: message``."""
        return f"{self.severity.name:<5} {self.rule_id} {self.location}: {self.message}"


def finding(rule_id: str, location: str, message: str, **data: Any) -> Finding:
    """Build a :class:`Finding` with the rule's default severity.

    Raises:
        CLXError: On an unknown rule id (a bug in the calling pass).
    """
    rule = RULES_BY_ID.get(rule_id)
    if rule is None:
        raise CLXError(f"unknown analysis rule id {rule_id!r}")
    return Finding(
        rule_id=rule_id,
        severity=rule.severity,
        location=location,
        message=message,
        data=data,
    )
