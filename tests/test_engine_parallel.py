"""Equivalence of the engine's value-level apply shapes.

Across every program the synthesizer produces for the 47-task benchmark
suite, batch ``run`` and streaming ``run_iter`` must yield identical
:class:`TransformOutcome` sequences — chunking is an execution detail,
never a semantics change.  The multi-process paths are covered by the
table and dataset suites (``test_engine_table.py``,
``test_engine_dataset_apply.py``).
"""

from __future__ import annotations

from repro.bench.suite import benchmark_suite
from repro.core.session import CLXSession
from repro.util.errors import SynthesisError


def _engines_for_suite():
    """(task, engine) for every synthesizable task of the 47-task suite."""
    pairs = []
    for task in benchmark_suite():
        session = CLXSession(task.inputs)
        session.label_target(task.target_pattern())
        try:
            engine = session.engine()
        except SynthesisError:
            continue
        pairs.append((task, engine))
    return pairs


def _signature(outcomes):
    return [(o.output, o.matched, o.pattern) for o in outcomes]


class TestSuiteEquivalence:
    def test_run_and_run_iter_agree_across_the_suite(self):
        pairs = _engines_for_suite()
        assert len(pairs) >= 40  # almost all of the 47 tasks synthesize
        for task, engine in pairs:
            report = engine.run(task.inputs)
            batch = list(
                zip(
                    report.outputs,
                    [pattern is not None for pattern in report.matched_pattern],
                    report.matched_pattern,
                )
            )
            streamed = _signature(engine.run_iter(iter(task.inputs), chunk_size=7))
            assert streamed == batch, task.task_id
