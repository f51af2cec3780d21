"""Tests for plan enumeration, MDL ranking and the best-first plan search (Section 6.3)."""

from __future__ import annotations

from repro.dsl.ast import AtomicPlan, ConstStr, Extract
from repro.dsl.mdl import plan_description_length
from repro.patterns.matching import pattern_of_string
from repro.patterns.parse import parse_pattern
from repro.patterns.pattern import Pattern
from repro.synthesis.alignment import align_tokens
from repro.synthesis.dag import AlignmentDAG
from repro.synthesis.equivalence import deduplicate_plans
from repro.synthesis.plans import (
    enumerate_plans,
    monotonicity_violations,
    overlap_violations,
    rank_plans,
    search_plans,
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


#: Enumeration bound the differential DAGs stay under, so neither side caps.
_UNCAPPED = 3_000


def _specification(dag, source, window, keep):
    """The candidate list the search must equal: enumerate, rank, slice, dedup."""
    ranked = rank_plans(enumerate_plans(dag, max_plans=_UNCAPPED), source)
    return deduplicate_plans(ranked[:window], source)[:keep]

#: (window, keep) pairs: single plans, tiny windows, and the default window.
_BOUNDS = [(window, keep) for window in (1, 2, 3, 200) for keep in (1, 2, 3, 200)]

_PAIR_TOKENS = ("<D>2", "<D>+", "<L>+", "<U>+", "<U>", "'/'", "'-'", "' '", "'ab'")


def _random_pattern(rng, lengths):
    return parse_pattern("".join(rng.choice(_PAIR_TOKENS) for _ in range(rng.choice(lengths))))


def _random_dag(rng):
    """A hand-built DAG: shared and equal-valued expressions, dead ends."""
    length = rng.randint(0, 5)
    dag = AlignmentDAG(target_length=length)
    pool = [
        Extract(1),
        Extract(2),
        Extract(1, 2),
        Extract(3),
        Extract(10),
        ConstStr("-"),
        ConstStr("a"),
        ConstStr("ab"),
        ConstStr("'"),
        ConstStr('"q"'),
    ]
    for _ in range(rng.randint(0, 12)):
        if length == 0:
            break
        start = rng.randint(0, length - 1)
        end = rng.randint(start + 1, min(length, start + 2))
        expression = rng.choice(pool)
        if rng.random() < 0.3:
            # An equal but separate object, on any edge: two paths may
            # spell one plan, and the DAG may hold one value twice.
            expression = type(expression)(*vars(expression).values())
        dag.edges.setdefault((start, end), []).append(expression)
    return dag


class TestSearchPlansDifferential:
    """``search_plans`` equals enumerate → rank → slice → deduplicate."""

    def test_random_aligned_pairs(self, property_rng):
        checked = 0
        for _ in range(150):
            source = _random_pattern(property_rng, (1, 2, 3, 4, 5, 6))
            target = _random_pattern(property_rng, (1, 2, 3, 4, 5))
            dag = align_tokens(source, target)
            if len(enumerate_plans(dag, max_plans=_UNCAPPED)) >= _UNCAPPED:
                continue
            for window, keep in _BOUNDS:
                expected = _specification(dag, source, window, keep)
                actual = search_plans(dag, source, window, keep, max_paths=10**6)
                assert actual == expected, (source.notation(), target.notation(), window, keep)
            checked += 1
        assert checked > 100

    def test_random_hand_built_dags(self, property_rng):
        for _ in range(300):
            dag = _random_dag(property_rng)
            source = _random_pattern(property_rng, (1, 2, 3))
            for window, keep in _BOUNDS:
                expected = _specification(dag, source, window, keep)
                assert search_plans(dag, source, window, keep) == expected, (
                    dag.target_length,
                    {edge: [str(e) for e in exprs] for edge, exprs in dag.edges.items()},
                    window,
                    keep,
                )

    def test_mdl_ties_keep_the_specification_order(self):
        # Every date token can feed every target date token: the plans tie
        # on MDL and differ only in the later parts of the key.
        source = parse_pattern("<D>2'/'<D>2'/'<D>2")
        target = parse_pattern("<D>2'-'<D>2'-'<D>2")
        dag = align_tokens(source, target)
        for window, keep in _BOUNDS:
            assert search_plans(dag, source, window, keep) == _specification(
                dag, source, window, keep
            )

    def test_duplicate_paths_yield_one_plan(self):
        first, second = ConstStr("a"), Extract(1)
        dag = AlignmentDAG(target_length=3)
        dag.add_edge(0, 1, first)
        dag.add_edge(1, 3, second)
        dag.add_edge(0, 2, ConstStr("a"))
        dag.add_edge(2, 3, Extract(1))
        source = parse_pattern("<D>2")
        assert search_plans(dag, source, 200, 50) == [AtomicPlan((first, second))]
        assert _specification(dag, source, 200, 50) == [AtomicPlan((first, second))]

    def test_dead_end_nodes_are_skipped(self):
        dag = AlignmentDAG(target_length=3)
        dag.add_edge(0, 1, Extract(1))
        dag.add_edge(1, 2, Extract(2))
        dag.add_edge(0, 3, Extract(1, 3))
        source = parse_pattern("<D>2'-'<D>2")
        assert search_plans(dag, source, 200, 50) == [AtomicPlan((Extract(1, 3),))]

    def test_no_path_and_empty_target(self):
        source = parse_pattern("<D>2")
        dag = AlignmentDAG(target_length=2)
        dag.add_edge(0, 1, Extract(1))
        assert search_plans(dag, source, 200, 50) == []
        empty = AlignmentDAG(target_length=0)
        assert search_plans(empty, source, 200, 50) == [AtomicPlan(())]


class TestSearchPlansCap:
    """``max_paths`` bounds popped partial paths, yet never starves a DAG."""

    def _dag(self):
        source = parse_pattern("<D>3'.'<D>3'.'<D>4")
        target = parse_pattern("'('<D>3')'' '<D>3'-'<D>4")
        return source, align_tokens(source, target)

    def test_cap_one_on_a_multi_path_dag_still_yields_a_plan(self):
        source, dag = self._dag()
        assert dag.path_count() > 1
        plans = search_plans(dag, source, 200, 50, max_paths=1)
        assert plans
        assert all(plan in enumerate_plans(dag) for plan in plans)

    def test_every_cap_yields_valid_plans(self):
        source, dag = self._dag()
        every = enumerate_plans(dag)
        for cap in (1, 2, 3, 5, 10, 50, 10**6):
            plans = search_plans(dag, source, 200, 50, max_paths=cap)
            assert 1 <= len(plans) <= 50
            assert all(plan in every for plan in plans)
            assert len(set(plans)) == len(plans)

    def test_uncapped_search_equals_the_specification(self):
        source, dag = self._dag()
        assert search_plans(dag, source, 200, 50, max_paths=10**6) == _specification(
            dag, source, 200, 50
        )
