"""Tests for equivalent-plan detection and deduplication (Appendix B)."""

from __future__ import annotations

from repro.dsl.ast import AtomicPlan, ConstStr, Extract
from repro.patterns.parse import parse_pattern
from repro.synthesis.equivalence import deduplicate_plans, plans_equivalent


SOURCE = parse_pattern("<D>2'/'<D>2")


class TestPlansEquivalent:
    def test_paper_appendix_b_example(self):
        """Extract(3),Const('/'),Extract(1) == Extract(3),Extract(2),Extract(1)."""
        first = AtomicPlan((Extract(3), ConstStr("/"), Extract(1)))
        second = AtomicPlan((Extract(3), Extract(2), Extract(1)))
        assert plans_equivalent(first, second, SOURCE)

    def test_identical_plans_are_equivalent(self):
        plan = AtomicPlan((Extract(1, 3),))
        assert plans_equivalent(plan, plan, SOURCE)

    def test_range_extract_equivalent_to_split_extracts(self):
        combined = AtomicPlan((Extract(1, 3),))
        split = AtomicPlan((Extract(1), Extract(2), Extract(3)))
        assert plans_equivalent(combined, split, SOURCE)

    def test_different_extractions_not_equivalent(self):
        first = AtomicPlan((Extract(1),))
        second = AtomicPlan((Extract(3),))
        assert not plans_equivalent(first, second, SOURCE)

    def test_const_differs_from_non_constant_extract(self):
        # Extract(1) pulls a digit field, ConstStr('42') is a constant: the
        # results differ on most strings, so the plans are not equivalent.
        first = AtomicPlan((Extract(1),))
        second = AtomicPlan((ConstStr("42"),))
        assert not plans_equivalent(first, second, SOURCE)

    def test_const_matching_literal_source_token_is_equivalent(self):
        first = AtomicPlan((Extract(2),))
        second = AtomicPlan((ConstStr("/"),))
        assert plans_equivalent(first, second, SOURCE)

    def test_different_lengths_not_equivalent(self):
        first = AtomicPlan((Extract(1),))
        second = AtomicPlan((Extract(1), ConstStr("x")))
        assert not plans_equivalent(first, second, SOURCE)

    def test_equivalence_is_symmetric(self):
        first = AtomicPlan((Extract(3), ConstStr("/"), Extract(1)))
        second = AtomicPlan((Extract(3), Extract(2), Extract(1)))
        assert plans_equivalent(second, first, SOURCE)


class TestDeduplicatePlans:
    def test_keeps_first_representative(self):
        plans = [
            AtomicPlan((Extract(1, 3),)),
            AtomicPlan((Extract(1), Extract(2), Extract(3))),
            AtomicPlan((Extract(1), ConstStr("/"), Extract(3))),
            AtomicPlan((Extract(3),)),
        ]
        deduped = deduplicate_plans(plans, SOURCE)
        assert deduped[0] == plans[0]
        assert AtomicPlan((Extract(3),)) in deduped
        assert len(deduped) == 2

    def test_no_duplicates_is_identity(self):
        plans = [AtomicPlan((Extract(1),)), AtomicPlan((Extract(3),))]
        assert deduplicate_plans(plans, SOURCE) == plans

    def test_empty_input(self):
        assert deduplicate_plans([], SOURCE) == []

    def test_extracts_of_the_same_literal_are_both_kept(self):
        # Tokens 2 and 4 are the same '/' literal: each extract equals
        # ConstStr('/'), but the two extracts are not equivalent to each
        # other, so dedup must keep both (the relation is not transitive).
        source = parse_pattern("<D>2'/'<D>2'/'<D>4")
        first = AtomicPlan((Extract(2),))
        second = AtomicPlan((Extract(4),))
        const = AtomicPlan((ConstStr("/"),))
        assert plans_equivalent(first, const, source)
        assert plans_equivalent(second, const, source)
        assert not plans_equivalent(first, second, source)
        assert deduplicate_plans([first, second], source) == [first, second]
        assert deduplicate_plans([const, first, second], source) == [const]


def _split_reference(plan):
    """Step 1 of Appendix B: every ``Extract(m, n)`` as single extracts."""
    split = []
    for op in plan.expressions:
        if isinstance(op, Extract):
            split.extend(Extract(index) for index in range(op.start, op.end + 1))
        else:
            split.append(op)
    return split


def _equivalent_reference(first, second, source):
    """Step 2 of Appendix B, op by op, independent of the module's helpers."""

    def literal(op):
        if isinstance(op, Extract) and op.start <= len(source):
            token = source[op.start - 1]
            return token.literal if token.is_literal else None
        return None

    def interchangeable(left, right):
        if isinstance(left, ConstStr) and isinstance(right, Extract):
            left, right = right, left
        return isinstance(right, ConstStr) and literal(left) == right.text

    left, right = _split_reference(first), _split_reference(second)
    return len(left) == len(right) and all(
        a == b or interchangeable(a, b) for a, b in zip(left, right)
    )


def _pairwise_reference(plans, source):
    """Deduplication by comparing each plan with every kept plan."""
    kept = []
    for plan in plans:
        if any(_equivalent_reference(plan, existing, source) for existing in kept):
            continue
        kept.append(plan)
    return kept


_LITERALS = ("/", "-", ".", "ab")
_CLASS_TOKENS = ("<D>2", "<D>+", "<L>+", "<U>", "<AN>+")


def _random_source(rng):
    parts = []
    # Few distinct literals, so a source often holds one literal twice.
    literals = rng.sample(_LITERALS, rng.randint(1, 2))
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            parts.append(f"'{rng.choice(literals)}'")
        else:
            parts.append(rng.choice(_CLASS_TOKENS))
    return parse_pattern("".join(parts))


def _random_plan(rng, source):
    literals = [token.literal for token in source if token.is_literal]
    ops = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.3:
            # A range that may span literal and class tokens and run up
            # to three indices past the source, which are never literals.
            start = rng.randint(1, len(source) + 3)
            ops.append(Extract(start, rng.randint(start, start + 3)))
        elif roll < 0.55:
            # A single-token extract: of a literal (possibly one of several
            # occurrences of the same text), a class token, or past the end.
            ops.append(Extract(rng.randint(1, len(source) + 2)))
        elif roll < 0.8 and literals:
            ops.append(ConstStr(rng.choice(literals)))
        else:
            ops.append(ConstStr(rng.choice(_LITERALS + ("x",))))
    return AtomicPlan(ops)


class TestDeduplicateProperties:
    def test_bucketed_dedup_equals_pairwise_reference(self, property_rng):
        for _ in range(400):
            source = _random_source(property_rng)
            plans = [
                _random_plan(property_rng, source)
                for _ in range(property_rng.randint(0, 40))
            ]
            assert deduplicate_plans(plans, source) == _pairwise_reference(
                plans, source
            ), (source.notation(), [str(list(map(str, p))) for p in plans])

    def test_plans_equivalent_equals_reference(self, property_rng):
        for _ in range(2000):
            source = _random_source(property_rng)
            first = _random_plan(property_rng, source)
            second = _random_plan(property_rng, source)
            expected = _equivalent_reference(first, second, source)
            assert plans_equivalent(first, second, source) == expected, (
                source.notation(), str(first), str(second)
            )

    def test_extracts_of_repeated_literals(self):
        source = parse_pattern("<D>2'/'<D>2'/'<D>4'/'")
        slash = ConstStr("/")
        plans = [
            AtomicPlan((Extract(1), Extract(2), Extract(3))),
            AtomicPlan((Extract(1), Extract(4), Extract(3))),  # another '/': kept
            AtomicPlan((Extract(1), slash, Extract(3))),  # ~ plans[0]
            AtomicPlan((Extract(1, 2), Extract(6))),
            AtomicPlan((Extract(1), slash, slash)),  # ~ plans[3]
            AtomicPlan((Extract(1), Extract(4), Extract(6))),  # picks differ: kept
            AtomicPlan((Extract(1), Extract(4, 6))),  # spans '/', <D>4, '/'
            AtomicPlan((Extract(1), Extract(4), Extract(5), slash)),  # ~ plans[6]
            AtomicPlan((Extract(1), Extract(7, 8), slash)),  # past the end
            AtomicPlan((Extract(1), Extract(7), Extract(8), Extract(6))),  # ~ plans[8]
            AtomicPlan((Extract(1), Extract(8), Extract(7), slash)),  # order matters: kept
        ]
        kept = deduplicate_plans(plans, source)
        assert kept == _pairwise_reference(plans, source)
        assert kept == [plans[index] for index in (0, 1, 3, 5, 6, 8, 10)]
