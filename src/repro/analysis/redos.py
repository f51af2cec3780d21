"""Regex safety analysis: ambiguous repetition + bounded-time probes.

``CompiledProgram`` matches every non-pass-through value against one
anchored regex per branch, so a pathological branch regex turns a blind
million-row apply into a hang.  Every regex it matches with is rendered
from a token :class:`~repro.patterns.pattern.Pattern`
(``pattern_to_regex`` for the target, ``compiled_with_groups`` for each
branch), and a rendering has no alternation and no quantifier over a
group.  So the ReDoS shapes are decided on the tokens:

* **nested unbounded quantifiers** (rule CLX004) cannot occur;
* **ambiguous unbounded repetition** (rule CLX005) is two adjacent
  ``+`` base tokens whose classes overlap, e.g. ``<L>+<AN>+``.  The
  classes form a lattice (``<D>``, ``<L>`` and ``<U>`` are disjoint,
  ``<A>`` and ``<AN>`` are their unions), so two overlap exactly when
  one generalizes the other.

A flagged regex is then *probed*: it is matched against a greedy
adversarial input (:func:`pump`) plus a poison byte on a short length
ladder with a hard per-match time budget, so a merely-theoretical
ambiguity stays a WARN while a regex that actually exhibits superlinear
matching is reported as CLX006 at ERROR severity.  Clean patterns are
never probed, and the probe can never hang: the ladder aborts at the
first budget overrun.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Optional

from repro.patterns.pattern import Pattern
from repro.tokens.classes import ALL_BASE_CLASSES
from repro.tokens.token import Token

#: A byte no token regex matches, appended so the pump *almost* matches
#: and the engine backtracks through every ambiguous split.
_POISON = "\x00"

#: Longest adversarial input tried.
_PROBE_MAX_LENGTH = 256

#: Ladder step in characters.  Kept small on purpose: for a regex whose
#: matching time grows by a factor ``g`` per character, the first
#: over-budget match overshoots the budget by at most ``g**4`` (~16x for
#: the classic doubling case), so a single probe can never hang.
_PROBE_STEP = 4

#: One match slower than this (seconds) on a <=256-char input is ~1000x
#: a healthy regex and flags CLX006.
PROBE_BUDGET_SECONDS = 0.05

#: Total time the whole ladder may consume before giving up.
_PROBE_TOTAL_SECONDS = 0.5

#: The smallest ASCII character of each base class: ``0``, ``a``, ``A``,
#: ``A`` and ``-`` for ``<D>``, ``<L>``, ``<U>``, ``<A>`` and ``<AN>``.
_PUMP_CHAR = {
    klass: min(char for char in map(chr, range(128)) if klass.accepts_char(char))
    for klass in ALL_BASE_CLASSES
}


def ambiguous_repetition(pattern: Pattern) -> bool:
    """Whether two adjacent ``+`` base tokens of ``pattern`` overlap (CLX005)."""
    tokens = pattern.tokens
    return any(
        left.is_plus
        and right.is_plus
        and (left.klass.generalizes(right.klass) or right.klass.generalizes(left.klass))
        for left, right in zip(tokens, tokens[1:])
    )


def pump(pattern: Pattern, length: int = _PROBE_MAX_LENGTH) -> str:
    """A greedy adversarial input for ``pattern`` of at most ``length`` characters.

    Each token contributes its class's smallest character, repeated an
    equal share of ``length`` for ``+`` and its count otherwise; a
    literal contributes its text.  The pump is uniform within each
    ``+`` run, so the prefixes the probe's ladder tries stay adversarial.
    """
    share = max(2, length // max(1, sum(token.is_plus for token in pattern.tokens)))
    return "".join(_pump_piece(token, share) for token in pattern.tokens)[:length]


def _pump_piece(token: Token, share: int) -> str:
    if token.literal is not None:
        return token.literal
    return _PUMP_CHAR[token.klass] * (share if token.is_plus else int(token.quantifier))


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the bounded-time adversarial probe."""

    slow: bool
    input_length: int
    seconds: float


def probe(regex_source: str, pumped: str) -> Optional[ProbeResult]:
    """Time the regex against prefixes of ``pumped``, bounded.

    Returns the first budget-exceeding measurement, the final (fast)
    measurement when the regex stays healthy through the ladder, or
    ``None`` when the regex does not compile or ``pumped`` is empty.
    """
    try:
        compiled = re.compile(regex_source)
    except re.error:
        return None
    if not pumped:
        return None
    last: Optional[ProbeResult] = None
    started = time.perf_counter()
    for length in range(min(8, len(pumped)), len(pumped) + 1, _PROBE_STEP):
        adversarial = pumped[:length] + _POISON
        begin = time.perf_counter()
        compiled.match(adversarial)
        elapsed = time.perf_counter() - begin
        last = ProbeResult(
            slow=elapsed > PROBE_BUDGET_SECONDS,
            input_length=len(adversarial),
            seconds=elapsed,
        )
        if last.slow:
            return last
        if time.perf_counter() - started > _PROBE_TOTAL_SECONDS:
            break
    return last
