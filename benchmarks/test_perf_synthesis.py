"""Performance A4 — end-to-end synthesis latency per benchmark task.

Measures how long the full CLX pipeline (profile, synthesize, transform)
takes per task of the 47-task suite.  The paper positions CLX as an
interactive tool, so the latency per task should stay well under a second
on laptop-class hardware for the benchmark-sized inputs.

Also the prove-or-remove rows for the synthesis hot spots, over the
alignment DAGs the suite's synthesis actually searches:

* the best-first plan search: ``search_plans`` against the specification
  it replaces, enumerate → rank → slice → deduplicate;
* candidate lists searched on first read: ``Synthesizer().synthesize``
  over the suite's hierarchies, which searches each source only as far
  as its default plan, against the same calls followed by reading every
  candidate list in full, which is the work of searching them eagerly;
* MDL ranking (Section 6.3): the one-pass ``rank_plans`` against sorting
  by the five-part key of the specification functions, over every plan
  each DAG enumerates;
* plan deduplication (Appendix B): the flat key/picks ``deduplicate_plans``
  against the pairwise loop and against the split-and-bucket version that
  built ``Extract`` objects per split op, over each DAG's ranked window.
"""

from __future__ import annotations

import statistics
import time

import pytest

import repro.synthesis.synthesizer as synthesizer_module
from repro.clustering.profiler import PatternProfiler
from repro.core.session import CLXSession
from repro.core.transformer import transform_column
from repro.dsl.ast import ConstStr, Extract
from repro.dsl.mdl import plan_description_length
from repro.synthesis.equivalence import deduplicate_plans, plans_equivalent
from repro.synthesis.plans import (
    DEFAULT_MAX_PLANS,
    enumerate_plans,
    iter_plans,
    monotonicity_violations,
    overlap_violations,
    rank_plans,
    search_plans,
)
from repro.synthesis.synthesizer import Synthesizer
from repro.util.errors import SynthesisError
from repro.util.text import format_table

#: Timed repeats of each prove-or-remove row; the verdict is their median.
REPEATS = 3

#: A mechanism stays only if it wins by at least this much.
MIN_SPEEDUP = 1.2

#: The synthesizer's default ``dedup_window`` and ``keep_candidates``.
DEDUP_WINDOW = Synthesizer().dedup_window
KEEP_CANDIDATES = Synthesizer().keep_candidates


def _run_task(task):
    hierarchy = PatternProfiler().profile(task.inputs)
    result = Synthesizer().synthesize(hierarchy, task.target_pattern())
    transform_column(result.program, task.inputs, result.target)


def test_perf_synthesis_latency(suite_tasks, benchmark):
    # Official timing sample: one representative mid-sized task.
    representative = next(t for t in suite_tasks if t.task_id == "sygus-phone-2")
    benchmark.pedantic(_run_task, args=(representative,), rounds=1, iterations=1)

    timings = []
    for task in suite_tasks:
        start = time.perf_counter()
        _run_task(task)
        timings.append((task.task_id, time.perf_counter() - start))

    slowest = sorted(timings, key=lambda item: -item[1])[:5]
    rows = [(task_id, f"{seconds * 1000:.1f} ms") for task_id, seconds in slowest]
    print("\nSlowest five tasks (profile + synthesize + transform)")
    print(format_table(["task", "latency"], rows))
    total = sum(seconds for _tid, seconds in timings)
    print(f"total for 47 tasks: {total:.2f}s, mean {total / len(timings) * 1000:.1f} ms")

    assert max(seconds for _tid, seconds in timings) < 5.0
    assert total / len(timings) < 1.0


@pytest.fixture(scope="module")
def suite_synthesis_dags(suite_tasks):
    """Every ``(dag, source)`` the suite's synthesis searches for plans."""
    searched = []

    def record(dag, source, *args, **kwargs):
        searched.append((dag, source))
        return iter_plans(dag, source, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesizer_module, "iter_plans", record)
        for task in suite_tasks:
            session = CLXSession(task.inputs)
            session.label_target(task.target_pattern())
            try:
                session.synthesize()
            except SynthesisError:
                continue
    return searched


@pytest.fixture(scope="module")
def suite_synthesis_inputs(suite_synthesis_dags):
    """The ``(plans, source)`` lists the specification ranks and deduplicates.

    Built from the suite's DAGs exactly as enumerate → rank → slice →
    deduplicate builds them: ``rank_plans`` sees every enumerated plan,
    ``deduplicate_plans`` the ranked plans inside the default window.
    """
    ranked, deduplicated = [], []
    for dag, source in suite_synthesis_dags:
        plans = enumerate_plans(dag, max_plans=DEFAULT_MAX_PLANS)
        if not plans:
            continue
        ranked.append((plans, source))
        deduplicated.append((rank_plans(plans, source)[:DEDUP_WINDOW], source))
    return ranked, deduplicated


def _reference_rank(plans, source):
    """The specification: sort by the five-part key of the spec functions."""
    source_length = max(1, len(source))

    def key(plan):
        return (
            overlap_violations(plan),
            plan_description_length(plan, source_length),
            monotonicity_violations(plan),
            len(plan),
            str(plan),
        )

    return sorted(plans, key=key)


def _pairwise_dedup(plans, source):
    """The reference: compare each plan with every kept plan."""
    kept = []
    for plan in plans:
        if any(plans_equivalent(plan, existing, source) for existing in kept):
            continue
        kept.append(plan)
    return kept


def _bucketed_extract_dedup(plans, source):
    """The split-and-bucket dedup the flat key/picks version replaced.

    Splits every plan into single ``Extract`` objects, buckets by the
    same canonical key, and decides within a bucket by comparing ops.
    """

    def literal_text(extract):
        if extract.start != extract.end or extract.start > len(source):
            return None
        token = source[extract.start - 1]
        return token.literal if token.is_literal else None

    def split_extracts(plan):
        flattened = []
        for expression in plan.expressions:
            if isinstance(expression, Extract):
                flattened.extend(
                    Extract(index) for index in range(expression.start, expression.end + 1)
                )
            else:
                flattened.append(expression)
        return flattened

    def interchangeable(left, right):
        if isinstance(left, Extract) and isinstance(right, ConstStr):
            extract, const = left, right
        elif isinstance(left, ConstStr) and isinstance(right, Extract):
            extract, const = right, left
        else:
            return False
        return literal_text(extract) == const.text

    def split_equivalent(left, right):
        if len(left) != len(right):
            return False
        return all(a == b or interchangeable(a, b) for a, b in zip(left, right))

    def canonical_key(split):
        key = []
        for op in split:
            if isinstance(op, ConstStr):
                key.append(op.text)
                continue
            text = literal_text(op)
            key.append(op.start if text is None else text)
        return tuple(key)

    kept, buckets = [], {}
    for plan in plans:
        split = split_extracts(plan)
        bucket = buckets.setdefault(canonical_key(split), [])
        if any(split_equivalent(split, existing) for existing in bucket):
            continue
        bucket.append(split)
        kept.append(plan)
    return kept


def _timed(function, inputs):
    start = time.perf_counter()
    results = [function(plans, source) for plans, source in inputs]
    return results, time.perf_counter() - start


def _speedups(baseline, candidate, inputs):
    """(median speed-up of ``candidate`` over ``baseline``, all, last seconds)."""
    speedups = []
    for _ in range(REPEATS):
        expected, baseline_seconds = _timed(baseline, inputs)
        actual, candidate_seconds = _timed(candidate, inputs)
        assert actual == expected
        speedups.append(baseline_seconds / candidate_seconds)
    return statistics.median(speedups), speedups, (baseline_seconds, candidate_seconds)


def test_perf_rank_plans(suite_synthesis_inputs):
    inputs, _deduplicated = suite_synthesis_inputs
    assert inputs, "the suite ranked no plan list"
    speedup, speedups, seconds = _speedups(_reference_rank, rank_plans, inputs)
    plans = sum(len(listed) for listed, _source in inputs)
    rows_table = [
        ("plan lists", f"{len(inputs)}", f"{plans} plans"),
        ("five-part reference key", f"{seconds[0]:.3f} s", "last repeat"),
        ("one-pass rank_plans", f"{seconds[1]:.3f} s", "last repeat"),
        ("median speed-up", f"{speedup:.1f}x", f"of {REPEATS} repeats"),
    ]
    print("\n" + format_table(["plan ranking", "value", "detail"], rows_table))
    assert speedup >= MIN_SPEEDUP, (
        f"one-pass ranking is only {speedup:.2f}x the reference key "
        f"(median of {speedups}); expected >= {MIN_SPEEDUP}x"
    )


def test_perf_plan_dedup(suite_synthesis_inputs):
    _ranked, inputs = suite_synthesis_inputs
    assert inputs, "the suite deduplicated no plan list"
    pairwise, pairwise_speedups, pairwise_seconds = _speedups(
        _pairwise_dedup, deduplicate_plans, inputs
    )
    bucketed, bucketed_speedups, bucketed_seconds = _speedups(
        _bucketed_extract_dedup, deduplicate_plans, inputs
    )
    plans = sum(len(ranked) for ranked, _source in inputs)
    rows_table = [
        ("plan lists", f"{len(inputs)}", f"{plans} ranked plans"),
        ("pairwise reference", f"{pairwise_seconds[0]:.3f} s", "last repeat"),
        ("split-and-bucket (Extract ops)", f"{bucketed_seconds[0]:.3f} s", "last repeat"),
        ("flat key/picks dedup", f"{bucketed_seconds[1]:.3f} s", "last repeat"),
        ("median speed-up vs pairwise", f"{pairwise:.1f}x", f"of {REPEATS} repeats"),
        ("median speed-up vs split-and-bucket", f"{bucketed:.1f}x", f"of {REPEATS} repeats"),
    ]
    print("\n" + format_table(["plan dedup", "value", "detail"], rows_table))
    assert pairwise >= MIN_SPEEDUP, (
        f"flat dedup is only {pairwise:.2f}x the pairwise loop "
        f"(median of {pairwise_speedups}); expected >= {MIN_SPEEDUP}x"
    )
    assert bucketed >= MIN_SPEEDUP, (
        f"flat dedup is only {bucketed:.2f}x the split-and-bucket version "
        f"(median of {bucketed_speedups}); expected >= {MIN_SPEEDUP}x"
    )


def _specification_lists(inputs):
    """enumerate → rank → slice → deduplicate, per ``(dag, source)``."""
    return [
        deduplicate_plans(rank_plans(enumerate_plans(dag), source)[:DEDUP_WINDOW], source)[
            :KEEP_CANDIDATES
        ]
        for dag, source in inputs
    ]


def _searched_lists(inputs):
    return [search_plans(dag, source, DEDUP_WINDOW, KEEP_CANDIDATES) for dag, source in inputs]


def test_perf_plan_search(suite_synthesis_dags):
    inputs = suite_synthesis_dags
    assert inputs, "the suite searched no DAG"
    # Where enumeration hits its cap, depth-first truncation decides which
    # plans the specification ranks at all, so only the lists below the
    # cap must agree.
    capped = [len(enumerate_plans(dag)) >= DEFAULT_MAX_PLANS for dag, _source in inputs]
    speedups = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        expected = _specification_lists(inputs)
        specification_seconds = time.perf_counter() - start
        start = time.perf_counter()
        actual = _searched_lists(inputs)
        search_seconds = time.perf_counter() - start
        for index, (want, got) in enumerate(zip(expected, actual)):
            if capped[index]:
                assert got, f"the search found no plan for capped DAG {index}"
            else:
                assert got == want, f"DAG {index}: the search differs from the specification"
        speedups.append(specification_seconds / search_seconds)
    speedup = statistics.median(speedups)
    rows_table = [
        ("DAGs", f"{len(inputs)}", f"{sum(capped)} at the enumeration cap"),
        ("enumerate, rank, slice, dedup", f"{specification_seconds:.3f} s", "last repeat"),
        ("best-first search_plans", f"{search_seconds:.3f} s", "last repeat"),
        ("median speed-up", f"{speedup:.1f}x", f"of {REPEATS} repeats"),
    ]
    print("\n" + format_table(["plan search", "value", "detail"], rows_table))
    assert speedup >= MIN_SPEEDUP, (
        f"the plan search is only {speedup:.2f}x the specification "
        f"(median of {speedups}); expected >= {MIN_SPEEDUP}x"
    )


@pytest.fixture(scope="module")
def suite_hierarchies(suite_tasks):
    """``(hierarchy, target)`` of every suite task that synthesizes."""
    inputs = []
    for task in suite_tasks:
        session = CLXSession(task.inputs)
        target = task.target_pattern()
        try:
            Synthesizer().synthesize(session.hierarchy, target)
        except SynthesisError:
            continue
        inputs.append((session.hierarchy, target))
    return inputs


def _synthesized(inputs):
    return [Synthesizer().synthesize(hierarchy, target) for hierarchy, target in inputs]


def _synthesized_and_read(inputs):
    results = _synthesized(inputs)
    for result in results:
        for plans in result.candidates.values():
            len(plans)
    return results


def test_perf_first_plan_synthesis(suite_hierarchies):
    inputs = suite_hierarchies
    assert len(inputs) == 47
    _synthesized_and_read(inputs)
    speedups = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        expected = _synthesized_and_read(inputs)
        read_seconds = time.perf_counter() - start
        start = time.perf_counter()
        actual = _synthesized(inputs)
        first_seconds = time.perf_counter() - start
        for want, got in zip(expected, actual):
            assert got.program == want.program
            assert got.candidates == want.candidates
        speedups.append(read_seconds / first_seconds)
    speedup = statistics.median(speedups)
    lists = sum(len(result.candidates) for result in expected)
    rows_table = [
        ("hierarchies", f"{len(inputs)}", f"{lists} candidate lists"),
        ("synthesize, every list read", f"{read_seconds:.3f} s", "last repeat"),
        ("synthesize, default plans only", f"{first_seconds:.3f} s", "last repeat"),
        ("median speed-up", f"{speedup:.1f}x", f"of {REPEATS} repeats"),
    ]
    print("\n" + format_table(["first-plan synthesis", "value", "detail"], rows_table))
    assert speedup >= MIN_SPEEDUP, (
        f"searching only the default plans is {speedup:.2f}x reading every list "
        f"(median of {speedups}); expected >= {MIN_SPEEDUP}x"
    )
