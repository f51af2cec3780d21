"""Candidate lists searched on first read equal the eagerly searched lists.

``Synthesizer`` keeps a source's plan search paused behind the default
plan (:class:`~repro.synthesis.synthesizer.CandidatePlans`).  The
reference is the search run to ``keep`` plans at once
(``plans_reference.py``): every list, however and in whatever order it
is read, must equal the eager one, at every ``window``/``keep`` and at
the work bounds 1 and 5,000; reading the default must never resume the
search, and finishing a list must resume it rather than search again.
"""

from __future__ import annotations

import pytest

import repro.synthesis.plans as plans_module
import repro.synthesis.synthesizer as synthesizer_module
from plans_reference import eager_plans_for, eager_search_plans
from repro.bench.suite import benchmark_suite
from repro.core.session import CLXSession
from repro.dsl.ast import AtomicPlan, Extract
from repro.patterns.parse import parse_pattern
from repro.synthesis.alignment import align_tokens
from repro.synthesis.plans import search_plans
from repro.synthesis.repair import oracle_repair, repair_options
from repro.synthesis.synthesizer import CandidatePlans, Synthesizer
from repro.util.errors import SynthesisError

#: Work bounds: the first-move fallback, and the default.
CAPS = (1, 5_000)

#: (window, keep) pairs: single plans, tiny windows, and the default window.
BOUNDS = [(window, keep) for window in (1, 2, 3, 200) for keep in (1, 2, 3, 200)]

_PAIR_TOKENS = ("<D>2", "<D>+", "<L>+", "<U>+", "<U>", "'/'", "'-'", "' '", "'ab'")


def _random_pattern(rng, lengths):
    return parse_pattern("".join(rng.choice(_PAIR_TOKENS) for _ in range(rng.choice(lengths))))


def _eager_synthesize(synthesizer, hierarchy, target):
    """What ``synthesize`` returned when every list was searched up front."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Synthesizer, "_plans_for", eager_plans_for)
        return synthesizer.synthesize(hierarchy, target)


@pytest.fixture(scope="module")
def suite_runs():
    """``(task id, hierarchy, target)`` of every suite task that synthesizes."""
    runs = []
    for task in benchmark_suite():
        session = CLXSession(task.inputs)
        target = task.target_pattern()
        try:
            Synthesizer().synthesize(session.hierarchy, target)
        except SynthesisError:
            continue
        runs.append((task.task_id, session.hierarchy, target))
    assert len(runs) == 47
    return runs


@pytest.fixture(scope="module")
def suite_pairs(suite_runs):
    """Every ``(source, target)`` the suite's synthesis looks for plans of."""
    pairs = []
    original = Synthesizer._plans_for

    def record(self, source, target):
        pairs.append((source, target))
        return original(self, source, target)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Synthesizer, "_plans_for", record)
        for _task_id, hierarchy, target in suite_runs:
            Synthesizer().synthesize(hierarchy, target)
    return pairs


ITER_PLANS = plans_module.iter_plans


class CountingSearch:
    """Stands in for ``iter_plans``: counts searches and the plans each yields."""

    def __init__(self):
        self.yielded = []

    def __call__(self, *args, **kwargs):
        index = len(self.yielded)
        self.yielded.append(0)
        for plan in ITER_PLANS(*args, **kwargs):
            self.yielded[index] += 1
            yield plan


@pytest.fixture
def counting(monkeypatch):
    counter = CountingSearch()
    monkeypatch.setattr(plans_module, "iter_plans", counter)
    monkeypatch.setattr(synthesizer_module, "iter_plans", counter)
    return counter


class TestCandidatePlans:
    """The sequence itself, over a known plan list."""

    PLANS = [AtomicPlan((Extract(index),)) for index in range(1, 6)]

    def _lazy(self, counter):
        def rest():
            for plan in self.PLANS[1:]:
                counter.append(plan)
                yield plan

        return CandidatePlans(self.PLANS[0], rest())

    def test_default_and_truth_never_resume(self):
        pulled = []
        plans = self._lazy(pulled)
        assert plans[0] == self.PLANS[0]
        assert plans
        assert plans[0:1] == self.PLANS[:1]
        assert pulled == []

    def test_reads_resume_only_as_far_as_they_need(self):
        pulled = []
        plans = self._lazy(pulled)
        assert plans[2] == self.PLANS[2]
        assert len(pulled) == 2
        assert plans[1:4] == self.PLANS[1:4]
        assert len(pulled) == 3
        assert plans[-1] == self.PLANS[-1]
        assert len(pulled) == 4

    def test_every_read_matches_the_list(self):
        reads = [
            lambda p: p[3],
            lambda p: p[-2],
            lambda p: p[1:],
            lambda p: p[::2],
            lambda p: p[-3:],
            lambda p: p[4:1:-1],
            lambda p: p[2:100],
            lambda p: len(p),
            lambda p: list(p),
            lambda p: tuple(p),
            lambda p: list(reversed(p)),
            lambda p: self.PLANS[3] in p,
            lambda p: p.index(self.PLANS[2]),
            lambda p: repr(p),
        ]
        for read in reads:
            assert read(self._lazy([])) == read(list(self.PLANS))
        with pytest.raises(IndexError):
            self._lazy([])[5]

    def test_equality_both_ways_and_unhashable(self):
        plans = self._lazy([])
        assert plans == self.PLANS
        assert self.PLANS == plans
        assert plans == self._lazy([])
        assert plans != self.PLANS[:-1]
        assert plans != tuple(self.PLANS)
        with pytest.raises(TypeError):
            hash(plans)

    def test_read_only(self):
        plans = self._lazy([])
        with pytest.raises(TypeError):
            plans[0] = self.PLANS[1]
        assert not hasattr(plans, "append")


class TestSearchPrefix:
    """``search_plans`` at any ``keep`` and cap equals the eager search."""

    def test_random_pairs_at_every_bound_and_cap(self, property_rng):
        for _ in range(120):
            source = _random_pattern(property_rng, (1, 2, 3, 4, 5, 6))
            target = _random_pattern(property_rng, (1, 2, 3, 4, 5))
            dag = align_tokens(source, target)
            for cap in CAPS + (2, 3):
                for window, keep in BOUNDS:
                    expected = eager_search_plans(dag, source, window, keep, cap)
                    assert search_plans(dag, source, window, keep, cap) == expected, (
                        source.notation(),
                        target.notation(),
                        window,
                        keep,
                        cap,
                    )


class TestListsEqualTheEagerLists:
    """``_plans_for``'s lists, read in full, equal the eagerly searched ones."""

    def _check(self, synthesizer, source, target):
        plans, conforms = synthesizer._plans_for(source, target)
        expected, expected_conforms = eager_plans_for(synthesizer, source, target)
        assert conforms == expected_conforms
        assert list(plans) == expected, (source.notation(), target.notation(), synthesizer)
        return type(plans)

    def test_suite_searches(self, suite_pairs):
        kinds = set()
        for cap in CAPS:
            for window, keep in BOUNDS:
                synthesizer = Synthesizer(
                    max_plans_per_source=cap, keep_candidates=keep, dedup_window=window
                )
                for source, target in suite_pairs:
                    kinds.add(self._check(synthesizer, source, target))
        # Both kinds of entry: paused searches, and lists finished because
        # the first plan did not conform (or that are empty).
        assert kinds == {CandidatePlans, list}

    def test_suite_has_conforming_reordered_sources(self, suite_pairs):
        synthesizer = Synthesizer()
        reordered = 0
        for source, target in suite_pairs:
            plans, conforms = synthesizer._plans_for(source, target)
            if conforms and isinstance(plans, list):
                reordered += 1
        assert reordered >= 1

    def test_random_pairs(self, property_rng):
        for _ in range(60):
            source = _random_pattern(property_rng, (1, 2, 3, 4, 5, 6))
            target = _random_pattern(property_rng, (1, 2, 3, 4, 5))
            for cap in CAPS:
                for window, keep in BOUNDS:
                    synthesizer = Synthesizer(
                        max_plans_per_source=cap, keep_candidates=keep, dedup_window=window
                    )
                    self._check(synthesizer, source, target)


class TestResults:
    """Whole synthesis results, lazily searched vs eagerly searched."""

    def test_results_equal_the_eager_results(self, suite_runs):
        for cap in CAPS:
            synthesizer = Synthesizer(max_plans_per_source=cap)
            for task_id, hierarchy, target in suite_runs:
                result = synthesizer.synthesize(hierarchy, target)
                expected = _eager_synthesize(synthesizer, hierarchy, target)
                assert result.program == expected.program, task_id
                assert result == expected, task_id
                assert {source: list(plans) for source, plans in result.candidates.items()} == (
                    expected.candidates
                ), task_id

    def test_read_order_does_not_matter(self, suite_runs, property_rng):
        reads = {
            "first": lambda result, source: result.candidates[source][0],
            "alternatives": lambda result, source: result.alternatives(source, 3),
            "slice": lambda result, source: result.candidates[source][2:6],
            "last": lambda result, source: result.candidates[source][-1],
            "len": lambda result, source: len(result.candidates[source]),
            "tuple": lambda result, source: tuple(result.candidates[source]),
            "options": lambda result, source: repair_options(result, source).plans,
        }
        names = sorted(reads)
        for task_id, hierarchy, target in suite_runs:
            expected = _eager_synthesize(Synthesizer(), hierarchy, target)
            for _ in range(3):
                order = property_rng.sample(names, len(names))
                result = Synthesizer().synthesize(hierarchy, target)
                for name in order:
                    for source in result.candidates:
                        assert reads[name](result, source) == reads[name](expected, source), (
                            task_id,
                            order,
                            name,
                        )
                for source, plans in result.candidates.items():
                    assert plans == expected.candidates[source], (task_id, order)

    def test_repairs_do_not_depend_on_reading(self, suite_runs):
        for task_id, hierarchy, target in suite_runs:
            unread = Synthesizer().synthesize(hierarchy, target)
            read = Synthesizer().synthesize(hierarchy, target)
            for plans in read.candidates.values():
                len(plans)
            for source in unread.candidates:
                plan = read.candidates[source][-1]
                assert unread.repaired(source, plan) == read.repaired(source, plan), task_id
            assert unread == read, task_id

    def test_oracle_repair_equals_the_eager_repair(self, suite_runs):
        expected_by_task = {task.task_id: task.expected for task in benchmark_suite()}
        for task_id, hierarchy, target in suite_runs:
            result = Synthesizer().synthesize(hierarchy, target)
            eager = _eager_synthesize(Synthesizer(), hierarchy, target)
            repaired, repairs = oracle_repair(result, expected_by_task[task_id])
            eager_repaired, eager_repairs = oracle_repair(eager, expected_by_task[task_id])
            assert repairs == eager_repairs, task_id
            assert repaired == eager_repaired, task_id


class TestSearchesResume:
    """The counting patch: what each read costs in searched plans."""

    def test_first_plan_never_resumes_the_search(self, suite_runs, counting):
        results = [Synthesizer().synthesize(h, t) for _id, h, t in suite_runs]
        after_synthesis = list(counting.yielded)
        paused = 0
        for result in results:
            for source, plans in result.candidates.items():
                assert plans[0] == result.program.branch_for(source).plan
                assert plans
                assert result.alternatives(source, 0) == []
                paused += isinstance(plans, CandidatePlans)
        assert counting.yielded == after_synthesis
        assert paused > 100
        # Synthesis itself read only the default of each paused search.
        assert after_synthesis.count(1) >= paused

    def test_finishing_a_list_resumes_its_search(self, suite_runs, counting):
        results = [Synthesizer().synthesize(h, t) for _id, h, t in suite_runs]
        searches = len(counting.yielded)
        before = sum(counting.yielded)
        unread = sum(
            len(eager) - 1
            for result, (_id, h, t) in zip(results, suite_runs)
            for source, eager in _eager_synthesize(Synthesizer(), h, t).candidates.items()
            if isinstance(result.candidates[source], CandidatePlans)
        )
        for result in results:
            for plans in result.candidates.values():
                list(plans)
        # No list searched again; each paused one found exactly its rest.
        assert len(counting.yielded) == searches
        assert sum(counting.yielded) == before + unread

    def test_alternatives_search_count_plus_one(self, suite_runs, counting):
        count = 2
        results = [Synthesizer().synthesize(h, t) for _id, h, t in suite_runs]
        needed = 0
        for result, (_id, h, t) in zip(results, suite_runs):
            eager = _eager_synthesize(Synthesizer(), h, t)
            for source, plans in result.candidates.items():
                if isinstance(plans, CandidatePlans):
                    needed += min(count + 1, len(eager.candidates[source])) - 1
        # The eager reference runs its own search, not the counted one.
        before = sum(counting.yielded)
        for result in results:
            for source in result.candidates:
                result.alternatives(source, count)
        assert sum(counting.yielded) - before == needed

