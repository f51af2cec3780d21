"""CLX004/CLX005 on tokens, held to the deleted regex parser's verdicts.

``check_regex_safety`` decides regex safety on the token patterns the
repo renders its regexes from (``pattern_to_regex`` for the target,
``compiled_with_groups`` for each branch) with
``repro.analysis.redos.ambiguous_repetition``.  Before that rule, a
recursive-descent parser re-read each rendered regex and scanned its
syntax tree for nested unbounded quantifiers (CLX004) and ambiguous
repetition (CLX005).

``redos_verdicts.json`` is the frozen record of that parser's verdicts
on both renderings of every pattern the suite's sessions see (hierarchy
nodes, targets and branch patterns) and of a seeded random sample.  The
parser is gone, so the fixture can no longer be produced: it is the
oracle, and it must never be regenerated.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.analysis.redos import ambiguous_repetition
from repro.patterns.parse import parse_pattern
from repro.patterns.pattern import Pattern
from repro.tokens.classes import ALL_BASE_CLASSES
from repro.tokens.token import PLUS, Token

FIXTURE = Path(__file__).with_name("redos_verdicts.json")

#: Seed and size of the fixture's random sample.
SAMPLE_SEED = 1729
SAMPLE_SIZE = 1_000

_LITERALS = ("-", "_", "x", "ab", " ")


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


class TestTokenRule:
    def test_agrees_with_the_fixture(self):
        for notation, anchored, grouped in _fixture_rows():
            expected = ["CLX005"] if ambiguous_repetition(parse_pattern(notation)) else []
            assert anchored == expected, notation
            assert grouped == expected, notation
