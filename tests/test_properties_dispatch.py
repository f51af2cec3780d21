"""Differential property suite for the memoized, merged-regex hot loop.

The claim under test: the optimized dispatch path — bounded-LRU value
memo plus one merged alternation regex over the leading unguarded
branches — is *outcome-identical* to the naive sequential branch loop.
Same output string, same matched pattern, same sink bytes at any worker
count.  The oracle is the same artifact reloaded with ``memo_size=0,
merged_dispatch=False``, which recovers the pre-optimization loop
exactly.

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


def _dispatch_pair(compiled):
    """(optimized, naive-oracle) rebuilt from the same wire artifact."""
    artifact = compiled.dumps()
    fast = CompiledProgram.loads(artifact)
    naive = CompiledProgram.loads(artifact, memo_size=0, merged_dispatch=False)
    return fast, naive


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
            fast, naive = _dispatch_pair(compiled)
            for value in _probe_values(compiled, inputs, property_rng):
                expected = naive.run_one(value)
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
            fast, naive = _dispatch_pair(compiled)
            stream = _probe_values(compiled, inputs, property_rng)
            # Heavy-hitter repetition: every value appears several times
            # in shuffled order, so memo hits dominate.
            stream = stream * 3
            property_rng.shuffle(stream)
            fast_report = fast.run(stream)
            naive_report = naive.run(stream)
            assert fast_report.outputs == naive_report.outputs, task_id
            assert fast_report.matched_pattern == naive_report.matched_pattern, task_id
            stats = fast.memo_stats()
            assert stats["hits"] + stats["misses"] == len(stream), task_id
            assert stats["hits"] > 0, task_id

    def test_tiny_memo_thrash_stays_correct(self, suite_artifacts, property_rng):
        # A memo of 2 entries evicts constantly; correctness must not
        # depend on the bound.
        task_id, (compiled, inputs) = next(iter(suite_artifacts.items()))
        artifact = compiled.dumps()
        tiny = CompiledProgram.loads(artifact, memo_size=2)
        naive = CompiledProgram.loads(artifact, memo_size=0, merged_dispatch=False)
        stream = _probe_values(compiled, inputs, property_rng) * 4
        property_rng.shuffle(stream)
        assert tiny.run(stream).outputs == naive.run(stream).outputs


class TestSinkByteIdentity:
    """Optimized dispatch must not change a single sink byte.

    One representative artifact applied over a heavy-hitter CSV through
    the full dataset path: naive single-process oracle vs memo+merged at
    several worker counts.
    """

    @pytest.fixture(scope="class")
    def apply_case(self, tmp_path_factory):
        task = next(iter(benchmark_suite()))
        session = CLXSession(task.inputs)
        session.label_target(task.target_pattern())
        compiled = session.compile(metadata={"column": "value"})
        artifact = compiled.dumps()

        root = tmp_path_factory.mktemp("dispatch-sink")
        source = root / "values.csv"
        rng_values = list(task.inputs) * 8 + ["definitely-not-matching"] * 5
        with source.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["value"])
            for value in rng_values:
                writer.writerow([value])
        return artifact, source, root

    def _apply_bytes(self, artifact, source, destination, **kwargs):
        engine = TransformEngine.loads(artifact, **kwargs.pop("load_kwargs", {}))
        engine.apply_dataset(source, "value", output=destination, **kwargs)
        return destination.read_bytes()

    def test_bytes_identical_at_any_worker_count(self, apply_case):
        artifact, source, root = apply_case
        oracle = self._apply_bytes(
            artifact,
            source,
            root / "naive.csv",
            load_kwargs={"memo_size": 0, "merged_dispatch": False},
            workers=1,
        )
        for workers in (1, 2, 3):
            actual = self._apply_bytes(
                artifact,
                source,
                root / f"fast-{workers}.csv",
                workers=workers,
                chunk_size=7,  # tiny chunks: many tasks, many memo reuses
            )
            assert actual == oracle, f"workers={workers}"
