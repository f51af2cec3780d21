"""Regex safety analysis: ReDoS-prone structure + bounded-time probes.

``CompiledProgram`` matches every non-pass-through value against one
anchored regex per branch, so a pathological branch regex turns a blind
million-row apply into a hang.  This module walks the compiled regex
*source strings* (a tiny recursive-descent parser covering exactly the
constructs the token renderer and Python's ``re`` share) and flags:

* **nested unbounded quantifiers** — ``(x+)+`` shapes, exponential
  backtracking (rule CLX004);
* **ambiguous unbounded repetition** — an alternation with overlapping
  arms under an unbounded quantifier, or two adjacent unbounded repeats
  whose character sets overlap, e.g. ``([a-z]+)([a-z0-9]+)`` — the
  token-level spelling of the same ambiguity (rule CLX005);

and then *confirms* severity empirically: structurally flagged regexes
are probed with synthesized adversarial inputs (greedy pump + poison
byte) on a short length ladder with a hard per-match time budget, so a
merely-theoretical ambiguity stays a WARN while a regex that actually
exhibits superlinear matching is reported as CLX006 at ERROR severity.
Only flagged regexes are probed — clean regexes cost nothing and the
probe can never hang: the ladder aborts at the first budget overrun.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple, Union

# ----------------------------------------------------------------------
# Tiny regex AST
# ----------------------------------------------------------------------

#: Sentinel charset meaning "any character" (``.``, negated classes, …).
ANY = "ANY"

CharSet = Union[FrozenSet[str], str]  # frozenset of chars, or the ANY sentinel


@dataclass(frozen=True)
class Chars:
    """A single-character matcher (literal, escape class, or ``[...]``)."""

    chars: CharSet


@dataclass(frozen=True)
class Seq:
    items: Tuple["Node", ...]


@dataclass(frozen=True)
class Alt:
    arms: Tuple["Node", ...]


@dataclass(frozen=True)
class Repeat:
    body: "Node"
    minimum: int
    maximum: Optional[int]  # None = unbounded

    @property
    def unbounded(self) -> bool:
        return self.maximum is None


@dataclass(frozen=True)
class Group:
    """Capturing or non-capturing group — transparent for analysis."""

    body: "Node"


@dataclass(frozen=True)
class Look:
    """Zero-width assertion ``(?=…)`` / ``(?!…)`` — off the match path."""

    body: "Node"


@dataclass(frozen=True)
class Empty:
    pass


Node = Union[Chars, Seq, Alt, Repeat, Group, Look, Empty]


class RegexParseError(ValueError):
    """The regex uses a construct the analyzer does not model."""


_ESCAPE_CLASSES = {
    "d": frozenset("0123456789"),
    "w": frozenset(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
    ),
    "s": frozenset(" \t\n\r\f\v"),
}

#: Cap on expanded ``[a-…]`` range size; wider ranges degrade to ANY.
_RANGE_CAP = 512


class _Parser:
    """Recursive-descent parser for the analyzer's regex subset."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.position = 0

    def parse(self) -> Node:
        node = self._alternation()
        if self.position != len(self.source):
            raise RegexParseError(f"trailing input at {self.position}")
        return node

    # -- grammar -------------------------------------------------------
    def _alternation(self) -> Node:
        arms = [self._sequence()]
        while self._peek() == "|":
            self.position += 1
            arms.append(self._sequence())
        if len(arms) == 1:
            return arms[0]
        return Alt(tuple(arms))

    def _sequence(self) -> Node:
        items: List[Node] = []
        while True:
            char = self._peek()
            if char is None or char in "|)":
                break
            items.append(self._quantified())
        if not items:
            return Empty()
        if len(items) == 1:
            return items[0]
        return Seq(tuple(items))

    def _quantified(self) -> Node:
        atom = self._atom()
        char = self._peek()
        if char == "*":
            self.position += 1
            node: Node = Repeat(atom, 0, None)
        elif char == "+":
            self.position += 1
            node = Repeat(atom, 1, None)
        elif char == "?":
            self.position += 1
            node = Repeat(atom, 0, 1)
        elif char == "{":
            node = self._braced(atom)
        else:
            return atom
        if self._peek() == "?":  # lazy variant: same language, same risks
            self.position += 1
        return node

    def _braced(self, atom: Node) -> Node:
        closing = self.source.find("}", self.position)
        if closing < 0:
            raise RegexParseError("unterminated {…} quantifier")
        inner = self.source[self.position + 1 : closing]
        self.position = closing + 1
        if "," not in inner:
            count = int(inner)
            return Repeat(atom, count, count)
        low, _, high = inner.partition(",")
        minimum = int(low) if low else 0
        maximum = int(high) if high else None
        return Repeat(atom, minimum, maximum)

    def _atom(self) -> Node:
        char = self._peek()
        if char is None:
            return Empty()
        if char == "^" or char == "$":
            self.position += 1
            return Empty()  # anchors are zero-width
        if char == ".":
            self.position += 1
            return Chars(ANY)
        if char == "[":
            return self._char_class()
        if char == "(":
            return self._group()
        if char == "\\":
            return self._escape()
        if char in "*+?{":
            raise RegexParseError(f"dangling quantifier at {self.position}")
        self.position += 1
        return Chars(frozenset(char))

    def _group(self) -> Node:
        assert self.source[self.position] == "("
        self.position += 1
        lookahead = False
        if self._peek() == "?":
            self.position += 1
            marker = self._peek()
            if marker == ":":
                self.position += 1
            elif marker in ("=", "!"):
                self.position += 1
                lookahead = True
            elif marker == "P":
                self.position += 1
                if self._peek() != "<":
                    raise RegexParseError("unsupported (?P…) construct")
                closing = self.source.find(">", self.position)
                if closing < 0:
                    raise RegexParseError("unterminated group name")
                self.position = closing + 1
            elif marker == "i":
                self.position += 1
                if self._peek() != ":":
                    raise RegexParseError("unsupported inline flag group")
                self.position += 1
            else:
                raise RegexParseError(f"unsupported group marker {marker!r}")
        body = self._alternation()
        if self._peek() != ")":
            raise RegexParseError("unterminated group")
        self.position += 1
        if lookahead:
            return Look(body)
        return Group(body)

    def _escape(self) -> Node:
        assert self.source[self.position] == "\\"
        self.position += 1
        char = self._peek()
        if char is None:
            raise RegexParseError("dangling backslash")
        self.position += 1
        if char in _ESCAPE_CLASSES:
            return Chars(_ESCAPE_CLASSES[char])
        if char in ("D", "W", "S"):
            return Chars(ANY)  # negated classes: safe over-approximation
        if char in ("b", "B", "A", "Z"):
            return Empty()  # zero-width
        if char == "x":
            code = self.source[self.position : self.position + 2]
            self.position += 2
            return Chars(frozenset(chr(int(code, 16))))
        return Chars(frozenset(char))

    def _char_class(self) -> Node:
        assert self.source[self.position] == "["
        self.position += 1
        negated = False
        if self._peek() == "^":
            negated = True
            self.position += 1
        chars: set = set()
        first = True
        while True:
            char = self._peek()
            if char is None:
                raise RegexParseError("unterminated character class")
            if char == "]" and not first:
                self.position += 1
                break
            first = False
            if char == "\\":
                self.position += 1
                escaped = self._peek()
                if escaped is None:
                    raise RegexParseError("dangling backslash in class")
                self.position += 1
                if escaped in _ESCAPE_CLASSES:
                    chars |= set(_ESCAPE_CLASSES[escaped])
                    continue
                current = escaped
            else:
                self.position += 1
                current = char
            if self._peek() == "-" and self._lookahead(1) not in (None, "]"):
                self.position += 1
                end = self._peek()
                assert end is not None
                self.position += 1
                if end == "\\":
                    end = self._peek()
                    if end is None:
                        raise RegexParseError("dangling backslash in range")
                    self.position += 1
                span = ord(end) - ord(current) + 1
                if span < 0:
                    raise RegexParseError(f"reversed range {current}-{end}")
                if span > _RANGE_CAP:
                    return self._drain_class_as_any()
                chars |= {chr(code) for code in range(ord(current), ord(end) + 1)}
            else:
                chars.add(current)
        if negated:
            return Chars(ANY)
        return Chars(frozenset(chars))

    def _drain_class_as_any(self) -> Node:
        while self._peek() not in (None, "]"):
            if self._peek() == "\\":
                self.position += 1
            self.position += 1
        if self._peek() != "]":
            raise RegexParseError("unterminated character class")
        self.position += 1
        return Chars(ANY)

    # -- low level -----------------------------------------------------
    def _peek(self) -> Optional[str]:
        return self._lookahead(0)

    def _lookahead(self, offset: int) -> Optional[str]:
        index = self.position + offset
        if index >= len(self.source):
            return None
        return self.source[index]


def parse_regex(source: str) -> Node:
    """Parse ``source`` into the analyzer's AST.

    Raises:
        RegexParseError: On constructs outside the modeled subset.
    """
    return _Parser(source).parse()


# ----------------------------------------------------------------------
# Structural analysis
# ----------------------------------------------------------------------

def _charset(node: Node) -> CharSet:
    """Union of all characters the node can consume (ANY-absorbing)."""
    if isinstance(node, Chars):
        return node.chars
    if isinstance(node, (Group,)):
        return _charset(node.body)
    if isinstance(node, Repeat):
        return _charset(node.body)
    if isinstance(node, (Look, Empty)):
        return frozenset()
    if isinstance(node, Seq):
        parts = [_charset(item) for item in node.items]
    elif isinstance(node, Alt):
        parts = [_charset(arm) for arm in node.arms]
    else:  # pragma: no cover - exhaustive over Node
        raise AssertionError(f"unknown node {node!r}")
    if any(part == ANY for part in parts):
        return ANY
    union: FrozenSet[str] = frozenset()
    for part in parts:
        assert isinstance(part, frozenset)
        union |= part
    return union


def _sets_overlap(first: CharSet, second: CharSet) -> bool:
    if first == ANY:
        return second == ANY or bool(second)
    if second == ANY:
        return bool(first)
    assert isinstance(first, frozenset) and isinstance(second, frozenset)
    return bool(first & second)


def _can_match_nonempty(node: Node) -> bool:
    if isinstance(node, Chars):
        return node.chars == ANY or bool(node.chars)
    if isinstance(node, Group):
        return _can_match_nonempty(node.body)
    if isinstance(node, Repeat):
        return (node.maximum is None or node.maximum > 0) and _can_match_nonempty(node.body)
    if isinstance(node, (Look, Empty)):
        return False
    if isinstance(node, Seq):
        return any(_can_match_nonempty(item) for item in node.items)
    if isinstance(node, Alt):
        return any(_can_match_nonempty(arm) for arm in node.arms)
    raise AssertionError(f"unknown node {node!r}")  # pragma: no cover


def _contains_unbounded_repeat(node: Node) -> bool:
    if isinstance(node, Repeat):
        if node.unbounded and _can_match_nonempty(node.body):
            return True
        return _contains_unbounded_repeat(node.body)
    if isinstance(node, Group):
        return _contains_unbounded_repeat(node.body)
    if isinstance(node, Seq):
        return any(_contains_unbounded_repeat(item) for item in node.items)
    if isinstance(node, Alt):
        return any(_contains_unbounded_repeat(arm) for arm in node.arms)
    return False  # Chars, Look, Empty


def _unwrap(node: Node) -> Node:
    while isinstance(node, Group):
        node = node.body
    return node


@dataclass(frozen=True)
class StructuralIssue:
    """One structural ReDoS signal found by :func:`scan_structure`."""

    kind: str  # "nested" or "ambiguous"
    detail: str


def scan_structure(node: Node) -> List[StructuralIssue]:
    """All structural ReDoS signals in the AST, outermost first."""
    issues: List[StructuralIssue] = []
    _scan(node, issues)
    return issues


def _scan(node: Node, issues: List[StructuralIssue]) -> None:
    node = _unwrap(node)
    if isinstance(node, Repeat):
        body = _unwrap(node.body)
        if node.unbounded and _contains_unbounded_repeat(body):
            issues.append(
                StructuralIssue(
                    "nested",
                    "unbounded quantifier over a subexpression that itself "
                    "repeats unboundedly",
                )
            )
        if node.unbounded and isinstance(body, Alt):
            arms = [_charset(arm) for arm in body.arms]
            for index in range(len(arms)):
                for other in range(index + 1, len(arms)):
                    if _sets_overlap(arms[index], arms[other]):
                        issues.append(
                            StructuralIssue(
                                "ambiguous",
                                "alternation with overlapping arms under an "
                                "unbounded quantifier",
                            )
                        )
                        break
                else:
                    continue
                break
        _scan(node.body, issues)
        return
    if isinstance(node, Seq):
        flat = [_unwrap(item) for item in node.items]
        consuming = [item for item in flat if not isinstance(item, (Look, Empty))]
        for left, right in zip(consuming, consuming[1:]):
            if (
                isinstance(left, Repeat)
                and left.unbounded
                and isinstance(right, Repeat)
                and right.unbounded
                and _sets_overlap(_charset(left.body), _charset(right.body))
            ):
                issues.append(
                    StructuralIssue(
                        "ambiguous",
                        "adjacent unbounded repetitions over overlapping "
                        "character sets",
                    )
                )
        for item in node.items:
            _scan(item, issues)
        return
    if isinstance(node, Alt):
        for arm in node.arms:
            _scan(arm, issues)
        return
    if isinstance(node, Look):
        _scan(node.body, issues)
        return
    # Chars / Empty: nothing below


# ----------------------------------------------------------------------
# Empirical probe
# ----------------------------------------------------------------------

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


def _pump(node: Node, length: int) -> str:
    """A greedy adversarial input of at most ``length`` characters.

    Nested unbounded repeats multiply the share, so the generated string
    is truncated to ``length``; the pump text is uniform within each
    repeat region, so a prefix stays adversarial.
    """
    unbounded = _count_unbounded(node)
    share = max(2, length // max(1, unbounded))
    return "".join(_pump_node(node, share))[:length]


def _count_unbounded(node: Node) -> int:
    node = _unwrap(node)
    if isinstance(node, Repeat):
        return (1 if node.unbounded else 0) + _count_unbounded(node.body)
    if isinstance(node, Seq):
        return sum(_count_unbounded(item) for item in node.items)
    if isinstance(node, Alt):
        return max((_count_unbounded(arm) for arm in node.arms), default=0)
    return 0


def _pump_node(node: Node, share: int) -> List[str]:
    node = _unwrap(node)
    if isinstance(node, Chars):
        if node.chars == ANY:
            return ["a"]
        if not node.chars:
            return []
        return [min(node.chars)]
    if isinstance(node, Repeat):
        body = _pump_node(node.body, share)
        if not body:
            return []
        count = share if node.unbounded else node.minimum
        return body * max(count, node.minimum, 1)
    if isinstance(node, Seq):
        pieces: List[str] = []
        for item in node.items:
            pieces.extend(_pump_node(item, share))
        return pieces
    if isinstance(node, Alt):
        if not node.arms:
            return []
        return _pump_node(node.arms[0], share)
    return []  # Look, Empty


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the bounded-time adversarial probe."""

    slow: bool
    input_length: int
    seconds: float


def probe(regex_source: str, node: Node) -> Optional[ProbeResult]:
    """Time the regex against pumped adversarial inputs, bounded.

    Returns the first budget-exceeding measurement, the final (fast)
    measurement when the regex stays healthy through the ladder, or
    ``None`` when no adversarial input could be synthesized.
    """
    try:
        compiled = re.compile(regex_source)
    except re.error:
        return None
    full = _pump(node, _PROBE_MAX_LENGTH)
    if not full:
        return None
    lengths = list(range(min(8, len(full)), len(full) + 1, _PROBE_STEP))
    if not lengths:
        lengths = [len(full)]
    last: Optional[ProbeResult] = None
    started = time.perf_counter()
    for length in lengths:
        adversarial = full[:length] + _POISON
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


def analyze_regex(
    regex_source: str, probe: bool = True
) -> Tuple[List[StructuralIssue], Optional[ProbeResult]]:
    """Structural scan + (for flagged regexes only) the empirical probe.

    Unparseable regexes — constructs outside the modeled subset — yield
    no findings: the linter's regex pass is best-effort by design.  With
    ``probe=False`` the timed probe is skipped and the result is
    ``None``; the structural issues are the same either way.
    """
    try:
        node = parse_regex(regex_source)
    except (RegexParseError, ValueError):
        return [], None
    issues = scan_structure(node)
    if not issues:
        return [], None
    return issues, _run_probe(regex_source, node) if probe else None


def _run_probe(regex_source: str, node: Node) -> Optional[ProbeResult]:
    """Call the module's :func:`probe` (shadowed by ``analyze_regex``'s flag)."""
    return probe(regex_source, node)
