"""Performance A4 — end-to-end synthesis latency per benchmark task.

Measures how long the full CLX pipeline (profile, synthesize, transform)
takes per task of the 47-task suite.  The paper positions CLX as an
interactive tool, so the latency per task should stay well under a second
on laptop-class hardware for the benchmark-sized inputs.

Also the prove-or-remove row for bucketed plan deduplication (Appendix
B): ``deduplicate_plans`` against the pairwise loop it replaced, over the
ranked plan lists the suite's synthesis actually deduplicates.
"""

from __future__ import annotations

import statistics
import time

import repro.synthesis.synthesizer as synthesizer_module
from repro.clustering.profiler import PatternProfiler
from repro.core.session import CLXSession
from repro.core.transformer import transform_column
from repro.synthesis.equivalence import deduplicate_plans, plans_equivalent
from repro.synthesis.synthesizer import Synthesizer
from repro.util.errors import SynthesisError
from repro.util.text import format_table

#: Timed repeats of the dedup row; the verdict is their median.
DEDUP_REPEATS = 3

#: A mechanism stays only if it wins by at least this much.
DEDUP_MIN_SPEEDUP = 1.2


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


def _suite_dedup_inputs(suite_tasks, monkeypatch):
    """Every ``(ranked plans, source)`` the suite's synthesis deduplicates."""
    recorded = []

    def recording(plans, source):
        recorded.append((list(plans), source))
        return deduplicate_plans(plans, source)

    monkeypatch.setattr(synthesizer_module, "deduplicate_plans", recording)
    for task in suite_tasks:
        session = CLXSession(task.inputs)
        session.label_target(task.target_pattern())
        try:
            session.synthesize()
        except SynthesisError:
            continue
    monkeypatch.undo()
    return recorded


def _pairwise_dedup(plans, source):
    """The reference: compare each plan with every kept plan."""
    kept = []
    for plan in plans:
        if any(plans_equivalent(plan, existing, source) for existing in kept):
            continue
        kept.append(plan)
    return kept


def _timed(dedup, inputs):
    start = time.perf_counter()
    results = [dedup(plans, source) for plans, source in inputs]
    return results, time.perf_counter() - start


def test_perf_plan_dedup(suite_tasks, monkeypatch):
    inputs = _suite_dedup_inputs(suite_tasks, monkeypatch)
    assert inputs, "the suite deduplicated no plan list"
    speedups = []
    for _ in range(DEDUP_REPEATS):
        reference, reference_seconds = _timed(_pairwise_dedup, inputs)
        bucketed, bucketed_seconds = _timed(deduplicate_plans, inputs)
        assert bucketed == reference
        speedups.append(reference_seconds / bucketed_seconds)
    speedup = statistics.median(speedups)
    plans = sum(len(ranked) for ranked, _source in inputs)
    rows_table = [
        ("plan lists", f"{len(inputs)}", f"{plans} ranked plans"),
        ("pairwise reference", f"{reference_seconds:.3f} s", "last repeat"),
        ("bucketed dedup", f"{bucketed_seconds:.3f} s", "last repeat"),
        ("median speed-up", f"{speedup:.1f}x", f"of {DEDUP_REPEATS} repeats"),
    ]
    print("\n" + format_table(["plan dedup", "value", "detail"], rows_table))
    assert speedup >= DEDUP_MIN_SPEEDUP, (
        f"bucketed dedup is only {speedup:.2f}x the pairwise loop "
        f"(median of {speedups}); expected >= {DEDUP_MIN_SPEEDUP}x"
    )
