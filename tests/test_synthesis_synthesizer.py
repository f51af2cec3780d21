"""Tests for Algorithm 2 (UniFi program synthesis over the hierarchy)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.clustering.profiler import PatternProfiler, profile
from repro.core.session import CLXSession
from repro.core.transformer import transform_column
from repro.patterns.parse import parse_pattern
from repro.synthesis.synthesizer import Synthesizer, synthesize
from repro.util.errors import SynthesisError, ValidationError


class TestSynthesizeOnPhones:
    def test_produces_branches_for_transformable_formats(self, phone_values, phone_paren_target):
        hierarchy = profile(phone_values)
        result = synthesize(hierarchy, phone_paren_target)
        notations = {p.notation() for p in result.source_patterns}
        assert "<D>3'-'<D>3'-'<D>4" in notations
        assert "<D>3'.'<D>3'.'<D>4" in notations

    def test_untransformable_formats_are_uncovered(self, phone_values, phone_paren_target):
        hierarchy = profile(phone_values)
        result = synthesize(hierarchy, phone_paren_target)
        uncovered = {p.notation() for p in result.uncovered}
        assert "<D>10" in uncovered          # bare digits cannot be split
        assert "<U>'/'<U>" in uncovered      # N/A noise

    def test_target_pattern_itself_is_skipped(self, phone_values, phone_paren_target):
        hierarchy = profile(phone_values)
        result = synthesize(hierarchy, phone_paren_target)
        assert phone_paren_target not in set(result.source_patterns)
        assert any(phone_paren_target == p for p in result.already_target)

    def test_transforming_with_the_program_conforms(self, small_phone_column, phone_target):
        raw, expected = small_phone_column
        result = synthesize(profile(raw), phone_target)
        report = transform_column(result.program, raw, phone_target)
        # Every row of the 4-format study data is transformable, so every
        # output matches the target pattern even before any repair.
        assert report.is_perfect
        # After oracle repair the outputs are also semantically correct.
        from repro.synthesis.repair import oracle_repair

        repaired, _repairs = oracle_repair(result, expected)
        repaired_report = transform_column(repaired.program, raw, phone_target)
        for value, output in zip(repaired_report.inputs, repaired_report.outputs):
            assert output == expected[value]

    def test_candidates_contain_default_plan_first(self, small_phone_column, phone_target):
        raw, _expected = small_phone_column
        result = synthesize(profile(raw), phone_target)
        for branch in result.program:
            assert result.candidates[branch.pattern][0] == branch.plan

    def test_empty_hierarchy_raises(self, phone_target):
        empty = PatternProfiler(allow_empty=True).profile([])
        with pytest.raises(SynthesisError):
            synthesize(empty, phone_target)


class TestPaperExample5:
    def test_medical_codes_program(self, medical_codes):
        hierarchy = profile(medical_codes)
        target = parse_pattern("'['<U>+'-'<D>+']'")
        result = synthesize(hierarchy, target)
        report = transform_column(result.program, medical_codes, target)
        assert report.outputs == ["[CPT-00350]", "[CPT-00340]", "[CPT-11536]", "[CPT-115]"]

    def test_number_of_branches_matches_paper(self, medical_codes):
        """The paper's Example 5 program has three Switch branches."""
        hierarchy = profile(medical_codes)
        target = parse_pattern("'['<U>+'-'<D>+']'")
        result = synthesize(hierarchy, target)
        assert len(result.program) == 3


class TestHierarchyTraversal:
    def test_single_generalized_branch_covers_several_leaves(self):
        """Names of different widths are covered by one generalized branch."""
        values = ["John Smith", "Christopher Anderson", "Mary Jones", "Smith, J."]
        hierarchy = profile(values)
        target = parse_pattern("<U><L>+','' '<U>'.'")
        result = synthesize(hierarchy, target)
        # A single generalized branch suffices for the three first-last
        # names even though they are three distinct leaves.  The initial
        # <U>+ tokens are narrowed to <U> (every profiled row has a
        # one-character uppercase run there) so the branch's output
        # provably conforms to the target's single-<U> initial.
        first_last_branches = [
            p for p in result.source_patterns if p.notation() == "<U><L>+' '<U><L>+"
        ]
        assert len(first_last_branches) == 1
        assert len(result.program) < 3

    def test_keep_candidates_limit(self, small_phone_column, phone_target):
        raw, _expected = small_phone_column
        result = Synthesizer(keep_candidates=2).synthesize(profile(raw), phone_target)
        for plans in result.candidates.values():
            assert len(plans) <= 2

    def test_repaired_result_swaps_plan(self, small_phone_column, phone_target):
        raw, _expected = small_phone_column
        result = synthesize(profile(raw), phone_target)
        source = result.source_patterns[0]
        alternatives = result.candidates[source]
        if len(alternatives) > 1:
            repaired = result.repaired(source, alternatives[1])
            assert repaired.program.branch_for(source).plan == alternatives[1]
            assert result.program.branch_for(source).plan == alternatives[0]


PHONE_TRIO = ["555-123-4567", "(555) 123 4567", "555.123.4567"]
PAREN_SPACE_TARGET = "'('<D>3')'' '<D>3' '<D>4"
KNOBS = ("max_plans_per_source", "keep_candidates", "dedup_window")


class TestKnobValidation:
    """Each knob must be an int >= 1, checked when the synthesizer is built."""

    @pytest.mark.parametrize("knob", KNOBS)
    @pytest.mark.parametrize("value", [0, -1, True, 1.5, "5", None])
    def test_rejects_non_positive_or_non_int(self, knob, value):
        with pytest.raises(ValidationError, match=knob):
            Synthesizer(**{knob: value})

    @pytest.mark.parametrize("knob", KNOBS)
    def test_rejected_through_session(self, knob):
        with pytest.raises(ValidationError, match=knob):
            CLXSession(PHONE_TRIO, synthesizer=Synthesizer(**{knob: 0}))

    def test_knobs_cannot_be_changed_after_validation(self):
        synthesizer = Synthesizer()
        with pytest.raises(dataclasses.FrozenInstanceError):
            synthesizer.keep_candidates = 0  # type: ignore[misc]

    def test_one_candidate_keeps_the_default_plan(self):
        default = CLXSession(PHONE_TRIO)
        single = CLXSession(PHONE_TRIO, synthesizer=Synthesizer(keep_candidates=1))
        for session in (default, single):
            session.label_target(parse_pattern(PAREN_SPACE_TARGET))
        full, kept = default.synthesize(), single.synthesize()
        assert len(kept.program) == len(full.program) == 2
        assert kept.uncovered == []
        for source, plans in kept.candidates.items():
            assert plans == full.candidates[source][:1]
        assert single.transform().outputs == ["(555) 123 4567"] * 3


class TestAlternativesCount:
    """``alternatives(source, count)`` takes a count >= 0."""

    def _result(self):
        session = CLXSession(PHONE_TRIO)
        session.label_target(parse_pattern(PAREN_SPACE_TARGET))
        result = session.synthesize()
        source = max(result.candidates, key=lambda pattern: len(result.candidates[pattern]))
        assert len(result.candidates[source]) >= 4
        return result, source

    @pytest.mark.parametrize("count", [-1, -3, True, 1.5, "2", None])
    def test_rejects_negative_or_non_int(self, count):
        result, source = self._result()
        with pytest.raises(ValidationError, match="count"):
            result.alternatives(source, count)

    def test_counts_from_zero(self):
        result, source = self._result()
        plans = list(result.candidates[source])
        assert result.alternatives(source, 0) == []
        assert result.alternatives(source, 3) == plans[1:4]
        assert result.alternatives(source, 10**6) == plans[1:]
