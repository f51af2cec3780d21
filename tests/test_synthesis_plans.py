"""Tests for plan enumeration and MDL ranking (Section 6.3)."""

from __future__ import annotations

from repro.dsl.ast import AtomicPlan, ConstStr, Extract
from repro.dsl.mdl import plan_description_length
from repro.patterns.matching import pattern_of_string
from repro.patterns.parse import parse_pattern
from repro.patterns.pattern import Pattern
from repro.synthesis.alignment import align_tokens
from repro.synthesis.dag import AlignmentDAG
from repro.synthesis.plans import (
    enumerate_plans,
    monotonicity_violations,
    overlap_violations,
    rank_plans,
)


class TestEnumeratePlans:
    def test_empty_target_yields_empty_plan(self):
        plans = enumerate_plans(AlignmentDAG(target_length=0))
        assert plans == [AtomicPlan(())]

    def test_no_path_yields_no_plans(self):
        dag = AlignmentDAG(target_length=2)
        dag.add_edge(0, 1, Extract(1))
        assert enumerate_plans(dag) == []

    def test_all_edge_combinations_enumerated(self):
        dag = AlignmentDAG(target_length=2)
        dag.add_edge(0, 1, Extract(1))
        dag.add_edge(0, 1, Extract(3))
        dag.add_edge(1, 2, ConstStr("-"))
        plans = enumerate_plans(dag)
        assert len(plans) == 2
        assert AtomicPlan((Extract(1), ConstStr("-"))) in plans
        assert AtomicPlan((Extract(3), ConstStr("-"))) in plans

    def test_max_plans_cap_respected(self):
        source = pattern_of_string("a.b.c.d.e.f")
        dag = align_tokens(source, source)
        assert len(enumerate_plans(dag, max_plans=10)) <= 10

    def test_plans_are_distinct(self):
        source = parse_pattern("<D>3'.'<D>3'.'<D>4")
        target = parse_pattern("'('<D>3')'' '<D>3'-'<D>4")
        plans = enumerate_plans(align_tokens(source, target))
        assert len(plans) == len(set(plans))


class TestMonotonicityViolations:
    def test_in_order_extracts_have_none(self):
        plan = AtomicPlan((Extract(1), ConstStr("-"), Extract(3), Extract(5)))
        assert monotonicity_violations(plan) == 0

    def test_reuse_counts(self):
        plan = AtomicPlan((Extract(1), Extract(1)))
        assert monotonicity_violations(plan) == 1

    def test_backwards_counts(self):
        plan = AtomicPlan((Extract(3), Extract(1)))
        assert monotonicity_violations(plan) == 1

    def test_const_only_plan_has_none(self):
        assert monotonicity_violations(AtomicPlan((ConstStr("a"), ConstStr("b")))) == 0


class TestRankPlans:
    def test_simplest_plan_first_paper_example_9(self):
        source = parse_pattern("<D>2'/'<D>2'/'<D>4")
        target = parse_pattern("<D>2'/'<D>2")
        ranked = rank_plans(enumerate_plans(align_tokens(source, target)), source)
        assert ranked[0] == AtomicPlan((Extract(1, 3),))

    def test_order_preserving_tiebreak(self):
        """With equal MDL, the left-to-right non-reusing plan wins."""
        source = parse_pattern("<D>3'.'<D>3'.'<D>4")
        target = parse_pattern("<D>3'-'<D>3'-'<D>4")
        ranked = rank_plans(enumerate_plans(align_tokens(source, target)), source)
        best = ranked[0]
        extracts = [e for e in best.expressions if isinstance(e, Extract)]
        assert [e.start for e in extracts] == [1, 3, 5]

    def test_ranking_is_deterministic(self):
        source = parse_pattern("<D>3'.'<D>3'.'<D>4")
        target = parse_pattern("'('<D>3')'' '<D>3'-'<D>4")
        plans = enumerate_plans(align_tokens(source, target))
        assert rank_plans(plans, source) == rank_plans(list(reversed(plans)), source)

    def test_ranking_preserves_plan_multiset(self):
        source = parse_pattern("<D>2'/'<D>2")
        plans = enumerate_plans(align_tokens(source, source))
        ranked = rank_plans(plans, source)
        assert sorted(map(str, ranked)) == sorted(map(str, plans))


def _reference_key(source):
    """The ranking's specification: five parts, each from its own function."""
    source_length = max(1, len(source))

    def key(plan):
        return (
            overlap_violations(plan),
            plan_description_length(plan, source_length),
            monotonicity_violations(plan),
            len(plan),
            str(plan),
        )

    return key


_TOKENS = ("<D>2", "<D>+", "<L>+", "<U>", "'/'", "'-'", "' '")
_TEXTS = ("-", "/", " ", "ab", "::", "xyz", "'", '"q"')


def _random_source(rng):
    # Lengths 1 and 2 exercise max(1, |P|) and log2(max(|P|, 2)).
    length = rng.choice((1, 1, 2, 2, 3, 4, 6))
    return parse_pattern("".join(rng.choice(_TOKENS) for _ in range(length)))


def _random_expression(rng, source_length):
    if rng.random() < 0.65:
        # Ranges may overlap, run backwards relative to each other, and
        # reach past the source; ranking never reads the source tokens.
        start = rng.randint(1, source_length + 1)
        return Extract(start, start + rng.choice((0, 0, 0, 1, 2)))
    return ConstStr(rng.choice(_TEXTS))


def _random_plans(rng, source):
    """Plans mixing shared expression objects with equal, unshared ones."""
    shared = [_random_expression(rng, len(source)) for _ in range(rng.randint(1, 8))]
    plans = []
    for _ in range(rng.randint(0, 60)):
        expressions = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.7:
                expressions.append(rng.choice(shared))
            else:
                expressions.append(_random_expression(rng, len(source)))
        plans.append(AtomicPlan(expressions))
    if plans and rng.random() < 0.5:
        # Repeated plans: one object twice, and an equal fresh copy.
        repeated = rng.choice(plans)
        plans.append(repeated)
        plans.append(AtomicPlan(list(repeated.expressions)))
        rng.shuffle(plans)
    return plans


class TestRankPlansDifferential:
    """``rank_plans`` equals sorting by the specification's five-part key."""

    def test_random_plan_lists(self, property_rng):
        for _ in range(500):
            source = _random_source(property_rng)
            plans = _random_plans(property_rng, source)
            expected = sorted(plans, key=_reference_key(source))
            ranked = rank_plans(plans, source)
            assert ranked == expected, (source.notation(), [str(p) for p in plans])
            # Stable: equal plans keep their input order, object for object.
            assert [id(p) for p in ranked] == [id(p) for p in expected]

    def test_enumerated_plans(self):
        for source_text, target_text in [
            ("<D>3'.'<D>3'.'<D>4", "'('<D>3')'' '<D>3'-'<D>4"),
            ("<D>2'/'<D>2'/'<D>4", "<D>4'-'<D>2'-'<D>2"),
            ("<U>+<L>+' '<U>+<L>+", "<U>+<L>+', '<U>+<L>+"),
        ]:
            source = parse_pattern(source_text)
            plans = enumerate_plans(align_tokens(source, parse_pattern(target_text)))
            assert rank_plans(plans, source) == sorted(plans, key=_reference_key(source))

    def test_ties_on_everything_but_the_string_form(self):
        source = parse_pattern("<D>2'/'<D>2")
        plans = [
            AtomicPlan((Extract(3), ConstStr("-"))),
            AtomicPlan((Extract(2), ConstStr("-"))),
            AtomicPlan((Extract(1), ConstStr("-"))),
            AtomicPlan((Extract(1), ConstStr("+"))),
        ]
        key = _reference_key(source)
        assert len({key(plan)[:4] for plan in plans}) == 1
        assert rank_plans(plans, source) == [
            AtomicPlan((Extract(1), ConstStr("+"))),
            AtomicPlan((Extract(1), ConstStr("-"))),
            AtomicPlan((Extract(2), ConstStr("-"))),
            AtomicPlan((Extract(3), ConstStr("-"))),
        ]

    def test_empty_source_and_empty_plan(self):
        source = Pattern([])
        plans = [AtomicPlan((ConstStr("ab"),)), AtomicPlan(()), AtomicPlan((Extract(1),))]
        assert rank_plans(plans, source) == sorted(plans, key=_reference_key(source))
