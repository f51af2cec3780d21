"""A token rule for CLX004/CLX005, held to the regex parser's verdicts.

``check_regex_safety`` only sees regexes the repo renders from token
patterns: ``pattern_to_regex`` for the target and
``compiled_with_groups`` for each branch.  On those, the structural scan
of ``repro.analysis.redos`` reduces to a rule on the tokens:

* CLX004 (nested unbounded quantifiers) never fires;
* CLX005 (ambiguous repetition) fires exactly when two adjacent ``+``
  base tokens share a character.

``redos_verdicts.json`` records the parser's verdicts on both renderings
of every pattern the suite's sessions see (hierarchy nodes, targets and
branch patterns) and of a seeded random sample, so the rule can be held
to them once the parser is gone.  Regenerate it with::

    PYTHONPATH=src python tests/test_analysis_redos_tokens.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.analysis.redos import analyze_regex
from repro.patterns.matching import compiled_with_groups
from repro.patterns.parse import parse_pattern
from repro.patterns.pattern import Pattern
from repro.patterns.regex import pattern_to_regex
from repro.tokens.classes import ALL_BASE_CLASSES
from repro.tokens.token import PLUS, Token

FIXTURE = Path(__file__).with_name("redos_verdicts.json")

#: Seed and size of the fixture's random sample.
SAMPLE_SEED = 1729
SAMPLE_SIZE = 1_000

#: One character from each cell the base classes are unions of: digits,
#: lowercase, uppercase, and ``<AN>``'s ``-`` and ``_``.
_CELLS = "0aA-_"

_LITERALS = ("-", "_", "x", "ab", " ")

_RULES = (("CLX004", "nested"), ("CLX005", "ambiguous"))


def token_rule(pattern: Pattern) -> list:
    """The rules the token rule fires on either rendering of ``pattern``."""
    tokens = pattern.tokens
    ambiguous = any(
        left.is_plus
        and right.is_plus
        and not left.is_literal
        and not right.is_literal
        and any(left.klass.accepts_char(c) and right.klass.accepts_char(c) for c in _CELLS)
        for left, right in zip(tokens, tokens[1:])
    )
    return ["CLX005"] if ambiguous else []


def _parser_rules(regex: str) -> list:
    issues, _measured = analyze_regex(regex, probe=False)
    kinds = {issue.kind for issue in issues}
    return [rule for rule, kind in _RULES if kind in kinds]


def parser_verdicts(pattern: Pattern) -> list:
    """``[anchored rules, grouped rules]``: the parser on both renderings."""
    return [
        _parser_rules(pattern_to_regex(pattern)),
        _parser_rules(compiled_with_groups(pattern).pattern),
    ]


def random_pattern(rng: random.Random) -> Pattern:
    """1-6 tokens: every base class, ``+`` and fixed quantifiers, literals."""
    tokens = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.25:
            tokens.append(Token.lit(rng.choice(_LITERALS)))
        else:
            quantifier = rng.choice((PLUS, PLUS, 1, 2, 3))
            tokens.append(Token.base(rng.choice(ALL_BASE_CLASSES), quantifier))
    return Pattern(tokens)


def suite_patterns() -> list:
    """Every pattern the suite's sessions see, sorted by notation."""
    from repro.bench.suite import benchmark_suite
    from repro.core.session import CLXSession

    patterns = set()
    for task in benchmark_suite():
        session = CLXSession(task.inputs)
        session.label_target(task.target_pattern())
        for layer in session.hierarchy.layers:
            patterns.update(node.pattern for node in layer)
        patterns.add(task.target_pattern())
        patterns.update(session.synthesize().source_patterns)
    return sorted(patterns, key=Pattern.notation)


def sample_patterns() -> list:
    rng = random.Random(SAMPLE_SEED)
    return [random_pattern(rng) for _ in range(SAMPLE_SIZE)]


def _rows(patterns) -> list:
    return [[pattern.notation(), *parser_verdicts(pattern)] for pattern in patterns]


def write_fixture() -> None:
    sections = {"suite": _rows(suite_patterns()), "sample": _rows(sample_patterns())}
    lines = ["{", f'  "sample_seed": {SAMPLE_SEED},']
    for index, (name, rows) in enumerate(sections.items()):
        lines.append(f'  "{name}": [')
        lines.extend(
            "    " + json.dumps(row) + ("," if position < len(rows) - 1 else "")
            for position, row in enumerate(rows)
        )
        lines.append("  ]" + ("," if index < len(sections) - 1 else ""))
    lines.append("}")
    FIXTURE.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _fixture_rows():
    fixture = _fixture()
    return fixture["suite"] + fixture["sample"]


class TestFixture:
    def test_covers_the_suite_and_the_sample(self):
        fixture = _fixture()
        assert fixture["sample_seed"] == SAMPLE_SEED
        assert [row[0] for row in fixture["suite"]] == [p.notation() for p in suite_patterns()]
        assert [row[0] for row in fixture["sample"]] == [p.notation() for p in sample_patterns()]

    def test_records_both_verdicts(self):
        verdicts = [tuple(map(tuple, row[1:])) for row in _fixture_rows()]
        assert ((), ()) in verdicts
        assert (("CLX005",), ("CLX005",)) in verdicts

    def test_notations_parse_back(self):
        for notation, *_verdicts in _fixture_rows():
            assert parse_pattern(notation).notation() == notation

    def test_live_parser_agrees(self):
        for notation, *verdicts in _fixture_rows():
            assert parser_verdicts(parse_pattern(notation)) == verdicts, notation


class TestTokenRule:
    def test_agrees_with_the_fixture(self):
        for notation, anchored, grouped in _fixture_rows():
            expected = token_rule(parse_pattern(notation))
            assert anchored == expected, notation
            assert grouped == expected, notation

    def test_agrees_with_the_live_parser(self, property_rng):
        for _ in range(500):
            pattern = random_pattern(property_rng)
            expected = token_rule(pattern)
            assert parser_verdicts(pattern) == [expected, expected], pattern.notation()


if __name__ == "__main__":
    write_fixture()
