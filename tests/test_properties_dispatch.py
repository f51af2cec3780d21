"""Differential property suite for the memoized dispatch hot loop.

The claim under test: :class:`CompiledProgram` — flattened plans,
precompiled branch regexes, bounded-LRU value memo — is
*outcome-identical* to the reference interpreter.  Same output string,
same matched pattern, same sink bytes at any worker count.  The oracle
is :func:`repro.dsl.interpreter.apply_with_target` on the artifact's
own program and target: target pass-through via ``match_pattern``, then
``apply_program``'s first-match-wins loop.  It shares only the
per-branch regex with the engine, not its dispatch table, op
flattening or memo.

Coverage: all 47 benchmark-suite artifacts, their real task inputs,
deterministic + seeded-random samples from every branch's input
language, heavy-hitter repeated streams (the workload the memo exists
for), and mutated near-miss strings.  Run with
``CLX_PROPERTY_SEED=random`` for a fresh seed per run, or
``CLX_PROPERTY_SEED=<n>`` to replay a failure (see conftest).
"""

from __future__ import annotations

import csv

import pytest

from repro.analysis.lang import random_sample_string, sample_string
from repro.bench.suite import benchmark_suite
from repro.core.session import CLXSession
from repro.dsl.interpreter import apply_with_target
from repro.engine.compiled import CompiledProgram
from repro.engine.executor import TransformEngine

#: Random input samples drawn per branch pattern.
RANDOM_SAMPLES_PER_BRANCH = 3


@pytest.fixture(scope="module")
def suite_artifacts():
    """Every benchmark task compiled through the full session flow."""
    artifacts = {}
    for task in benchmark_suite():
        session = CLXSession(task.inputs)
        session.label_target(task.target_pattern())
        artifacts[task.task_id] = (
            session.compile(metadata={"column": task.task_id}),
            list(task.inputs),
        )
    return artifacts


def _reference(compiled, value):
    """The interpreter's outcome for ``value`` under ``compiled``'s artifact."""
    return apply_with_target(compiled.program, compiled.target, value)


def _mutate(value, rng):
    """A near-miss probe: one random edit of a real value."""
    if not value:
        return "x"
    index = rng.randrange(len(value))
    choice = rng.random()
    if choice < 0.4:
        return value[:index] + value[index + 1 :]  # delete
    replacement = rng.choice("0aZ .-@")
    if choice < 0.8:
        return value[:index] + replacement + value[index + 1 :]  # replace
    return value[:index] + replacement + value[index:]  # insert


def _probe_values(compiled, inputs, rng):
    """Real inputs, per-branch language samples, and mutated near-misses."""
    values = list(inputs)
    for branch in compiled.program.branches:
        values.append(sample_string(branch.pattern))
        values.append(sample_string(branch.pattern, plus_length=3))
        for _ in range(RANDOM_SAMPLES_PER_BRANCH):
            values.append(random_sample_string(branch.pattern, rng))
    values.extend(_mutate(value, rng) for value in inputs)
    values.append("")
    return values


class TestOutcomeIdentity:
    def test_all_suite_artifacts_match_naive_loop(self, suite_artifacts, property_rng):
        checked = 0
        for task_id, (compiled, inputs) in suite_artifacts.items():
            fast = CompiledProgram.loads(compiled.dumps())
            for value in _probe_values(compiled, inputs, property_rng):
                expected = _reference(fast, value)
                actual = fast.run_one(value)
                assert (actual.output, actual.matched, actual.pattern) == (
                    expected.output,
                    expected.matched,
                    expected.pattern,
                ), f"{task_id}: dispatch diverged on {value!r}"
                checked += 1
        assert checked > 1000  # the suite must stay well exercised

    def test_batch_run_matches_naive_loop(self, suite_artifacts, property_rng):
        for task_id, (compiled, inputs) in suite_artifacts.items():
            fast = CompiledProgram.loads(compiled.dumps())
            stream = _probe_values(compiled, inputs, property_rng)
            # Heavy-hitter repetition: every value appears several times
            # in shuffled order, so memo hits dominate.
            stream = stream * 3
            property_rng.shuffle(stream)
            fast_report = fast.run(stream)
            expected = [_reference(fast, value) for value in stream]
            assert fast_report.outputs == [outcome.output for outcome in expected], task_id
            assert fast_report.matched_pattern == [
                outcome.pattern for outcome in expected
            ], task_id
            stats = fast.memo_stats()
            assert stats["hits"] + stats["misses"] == len(stream), task_id
            assert stats["hits"] > 0, task_id

    def test_tiny_memo_thrash_stays_correct(self, suite_artifacts, property_rng):
        # A memo of 2 entries evicts constantly; correctness must not
        # depend on the bound.
        task_id, (compiled, inputs) = next(iter(suite_artifacts.items()))
        artifact = compiled.dumps()
        tiny = CompiledProgram.loads(artifact, memo_size=2)
        stream = _probe_values(compiled, inputs, property_rng) * 4
        property_rng.shuffle(stream)
        assert tiny.run(stream).outputs == [
            _reference(tiny, value).output for value in stream
        ]


class TestSinkByteIdentity:
    """Dispatch must not change a single sink byte.

    One representative artifact applied over a heavy-hitter CSV through
    the full dataset path at several worker counts: the sink bytes are
    identical at every count, and every sink cell and the flagged count
    equal the reference interpreter's.
    """

    @pytest.fixture(scope="class")
    def apply_case(self, tmp_path_factory):
        task = next(iter(benchmark_suite()))
        session = CLXSession(task.inputs)
        session.label_target(task.target_pattern())
        compiled = session.compile(metadata={"column": "value"})

        root = tmp_path_factory.mktemp("dispatch-sink")
        source = root / "values.csv"
        values = list(task.inputs) * 8 + ["definitely-not-matching"] * 5
        with source.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["value"])
            for value in values:
                writer.writerow([value])
        return compiled, values, source, root

    def test_bytes_identical_at_any_worker_count(self, apply_case):
        compiled, values, source, root = apply_case
        expected = [_reference(compiled, value) for value in values]
        sinks = {}
        for workers in (1, 2, 3):
            engine = TransformEngine.loads(compiled.dumps())
            destination = root / f"out-{workers}.csv"
            result = engine.apply_dataset(
                source,
                "value",
                output=destination,
                workers=workers,
                chunk_size=7,  # tiny chunks: many tasks, many memo reuses
            )
            assert result.flagged == sum(not outcome.matched for outcome in expected)
            sinks[workers] = destination.read_bytes()
        assert sinks[2] == sinks[1] and sinks[3] == sinks[1]
        with (root / "out-1.csv").open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["value", "value_transformed"]
        assert rows[1:] == [[value, outcome.output] for value, outcome in zip(values, expected)]
