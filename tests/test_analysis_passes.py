"""The analyzer's passes and report container over hand-built programs.

Every rule id gets a program seeded to trip exactly it; a final test
checks the clean program stays clean.  The analyzer consumes real
CompiledProgram artifacts, so these double as integration tests of the
dispatch semantics the passes model.
"""

from __future__ import annotations

import pytest

from repro.analysis import AnalysisReport, Severity, analyze_program, finding
from repro.analysis.analyzer import analyze_artifacts
from repro.analysis.passes import check_conflicts, reachability_only
from repro.dsl.ast import AtomicPlan, Branch, ConstStr, Extract, UniFiProgram
from repro.dsl.guards import ContainsGuard
from repro.engine.compiled import CompiledProgram
from repro.patterns.parse import parse_pattern as P
from repro.util.errors import CLXError

TARGET = P("<D>3'-'<D>4")

#: The canonical live branch: 555.1234 -> 555-1234.
DOT_BRANCH = Branch(
    P("<D>3'.'<D>4"), AtomicPlan([Extract(1), ConstStr("-"), Extract(3)])
)


def _compiled(branches, target=TARGET, metadata=None):
    return CompiledProgram(UniFiProgram(branches), target, metadata=metadata)


def _rules(report):
    return [item.rule_id for item in report.findings]


class TestReachability:
    def test_branch_subsumed_by_target_is_clx001(self):
        report = analyze_program(
            _compiled([DOT_BRANCH, Branch(P("<D>3'-'<D>4"), AtomicPlan([Extract(1, 3)]))])
        )
        assert "CLX001" in _rules(report)
        [item] = [f for f in report.findings if f.rule_id == "CLX001"]
        assert item.location.endswith("branch[2]")
        assert item.severity is Severity.ERROR

    def test_branch_shadowed_by_earlier_unguarded_is_clx002(self):
        shadowed = Branch(P("<D>3'.'<D>4"), AtomicPlan([ConstStr("000-0000")]))
        report = analyze_program(_compiled([DOT_BRANCH, shadowed]))
        [item] = [f for f in report.findings if f.rule_id == "CLX002"]
        assert item.location.endswith("branch[2]")
        assert item.data["shadowed_by"] == [1]

    def test_guarded_branches_shadow_nothing(self):
        guarded = Branch(
            P("<D>3'.'<D>4"),
            AtomicPlan([Extract(1), ConstStr("-"), Extract(3)]),
            guard=ContainsGuard("555"),
        )
        fallback = Branch(P("<D>3'.'<D>4"), AtomicPlan([ConstStr("000-0000")]))
        report = analyze_program(_compiled([guarded, fallback]))
        assert "CLX002" not in _rules(report)

    def test_wider_earlier_branch_shadows_narrower_later(self):
        wide = Branch(P("<D>+'.'<D>+"), AtomicPlan([Extract(1), ConstStr("-"), Extract(3)]))
        narrow = Branch(P("<D>3'.'<D>4"), AtomicPlan([ConstStr("000-0000")]))
        report = analyze_program(_compiled([wide, narrow]))
        assert "CLX002" in _rules(report)

    def test_reachability_only_is_just_the_dead_arm_rules(self):
        compiled = _compiled(
            [DOT_BRANCH, Branch(P("<D>3'-'<D>4"), AtomicPlan([Extract(1, 3)]))]
        )
        findings = reachability_only(compiled, "pre-flight")
        assert [f.rule_id for f in findings] == ["CLX001"]
        assert findings[0].location == "pre-flight:branch[2]"


class TestOverlap:
    def test_overlapping_unguarded_with_different_plans_is_clx003(self):
        wide = Branch(P("<D>+'.'<D>4"), AtomicPlan([ConstStr("000-0000")]))
        report = analyze_program(_compiled([DOT_BRANCH, wide]))
        [item] = [f for f in report.findings if f.rule_id == "CLX003"]
        assert item.location.endswith("branch[2]")
        assert item.data["overlaps_branch"] == 1

    def test_identical_plans_do_not_warn(self):
        wide = Branch(
            P("<D>+'.'<D>4"), AtomicPlan([Extract(1), ConstStr("-"), Extract(3)])
        )
        report = analyze_program(_compiled([DOT_BRANCH, wide]))
        assert "CLX003" not in _rules(report)

    def test_overlap_only_inside_target_language_is_ignored(self):
        # Both branches also accept strings the target intercepts; if
        # that is the *only* overlap, order cannot matter.
        first = Branch(P("<D>3'-'<D>+"), AtomicPlan([Extract(1, 3)]))
        second = Branch(P("<D>3'-'<D>4"), AtomicPlan([ConstStr("000-0000")]))
        report = analyze_program(_compiled([first, second]))
        # branch 2 is fully dead (CLX001) — and precisely because every
        # shared string is a target string, no CLX003 fires.
        assert "CLX003" not in _rules(report)


class TestPlanAndGuardSanity:
    def test_identity_plan_is_clx007(self):
        identity = Branch(P("<D>+'/'<D>+"), AtomicPlan([Extract(1, 3)]))
        report = analyze_program(_compiled([identity]))
        assert "CLX007" in _rules(report)

    def test_constant_only_plan_is_clx008(self):
        # A trailing newline keeps a constant out of the target language.
        for text, matches_target in (("555-0000", True), ("555-0000\n", False)):
            constant = Branch(P("<L>+"), AtomicPlan([ConstStr(text)]))
            report = analyze_program(_compiled([constant]))
            [item] = [f for f in report.findings if f.rule_id == "CLX008"]
            assert item.data["constant"] == text
            assert item.data["matches_target"] is matches_target

    def test_unused_data_tokens_are_clx009(self):
        partial = Branch(P("<D>3'.'<D>4"), AtomicPlan([Extract(1)]))
        report = analyze_program(_compiled([partial]))
        [item] = [f for f in report.findings if f.rule_id == "CLX009"]
        assert item.data["unused_tokens"] == [3]

    def test_unsatisfiable_guard_is_clx010(self):
        guarded = Branch(
            P("<U>3'-'<D>2"), AtomicPlan([Extract(3)]), guard=ContainsGuard("zzz")
        )
        report = analyze_program(_compiled([guarded]))
        assert "CLX010" in _rules(report)

    def test_redundant_guard_is_clx011(self):
        guarded = Branch(
            P("'ID-'<D>4"), AtomicPlan([Extract(2)]), guard=ContainsGuard("ID")
        )
        report = analyze_program(_compiled([guarded]))
        assert "CLX011" in _rules(report)

    def test_satisfiable_informative_guard_is_clean(self):
        guarded = Branch(
            P("<D>+' '<L>+"),
            AtomicPlan([Extract(1)]),
            guard=ContainsGuard("kg"),
        )
        report = analyze_program(_compiled([guarded]))
        assert "CLX010" not in _rules(report)
        assert "CLX011" not in _rules(report)


class TestCoverage:
    def test_residual_cluster_is_clx012(self):
        from repro.clustering.incremental import ColumnProfile

        profile = ColumnProfile()
        profile.observe_all(["555.1234", "555.9999", "(555) 1234"])
        report = analyze_program(
            _compiled([DOT_BRANCH]), name="a.clx.json",
            hierarchy=profile.to_hierarchy(),
        )
        [item] = [f for f in report.findings if f.rule_id == "CLX012"]
        assert item.location == "a.clx.json"
        assert item.data["rows"] == 1
        assert item.data["samples"] == ["(555) 1234"]

    def test_covered_profile_is_clean(self):
        from repro.clustering.incremental import ColumnProfile

        profile = ColumnProfile()
        profile.observe_all(["555.1234", "555-1234"])  # branch + target
        report = analyze_program(
            _compiled([DOT_BRANCH]), hierarchy=profile.to_hierarchy()
        )
        assert "CLX012" not in _rules(report)


class TestConflicts:
    def test_same_column_is_clx013(self):
        first = _compiled([DOT_BRANCH], metadata={"column": "phone"})
        second = _compiled([DOT_BRANCH], metadata={"column": "phone"})
        findings = check_conflicts([("a.json", first), ("b.json", second)])
        [item] = [f for f in findings if f.rule_id == "CLX013"]
        assert item.data["artifacts"] == ["a.json", "b.json"]

    def test_output_chain_collision_is_clx014(self):
        first = _compiled([DOT_BRANCH], metadata={"column": "phone"})
        second = _compiled([DOT_BRANCH], metadata={"column": "phone_transformed"})
        findings = check_conflicts([("a.json", first), ("b.json", second)])
        assert [f.rule_id for f in findings] == ["CLX014"]

    def test_distinct_columns_are_clean(self):
        first = _compiled([DOT_BRANCH], metadata={"column": "phone"})
        second = _compiled([DOT_BRANCH], metadata={"column": "fax"})
        assert check_conflicts([("a.json", first), ("b.json", second)]) == []

    def test_analyze_artifacts_includes_conflicts(self):
        first = _compiled([DOT_BRANCH], metadata={"column": "phone"})
        second = _compiled([DOT_BRANCH], metadata={"column": "phone"})
        report = analyze_artifacts([("a.json", first), ("b.json", second)])
        assert "CLX013" in _rules(report)


class TestCleanProgram:
    def test_a_sensible_program_has_no_findings(self):
        paren = Branch(
            P("'('<D>3') '<D>4"),
            AtomicPlan([Extract(2), ConstStr("-"), Extract(4)]),
        )
        report = analyze_program(_compiled([DOT_BRANCH, paren]))
        assert report.findings == []
        assert report.summary() == {"info": 0, "warn": 0, "error": 0}
        assert report.max_severity() is None
        assert report.exit_code(Severity.ERROR) == 0


class TestReportContainer:
    def test_ordering_is_by_location_then_rule(self):
        items = [
            finding("CLX003", "z.json:branch[2]", "m"),
            finding("CLX001", "z.json:branch[10]", "m"),
            finding("CLX012", "z.json", "m"),
            finding("CLX001", "a.json:branch[1]", "m"),
        ]
        report = AnalysisReport(items)
        assert [(f.location, f.rule_id) for f in report.findings] == [
            ("a.json:branch[1]", "CLX001"),
            ("z.json", "CLX012"),
            ("z.json:branch[2]", "CLX003"),
            ("z.json:branch[10]", "CLX001"),
        ]

    def test_exit_code_thresholds(self):
        report = AnalysisReport([finding("CLX003", "a", "m")])  # one WARN
        assert report.exit_code(Severity.ERROR) == 0
        assert report.exit_code(Severity.WARN) == 1
        assert report.exit_code(Severity.INFO) == 1

    def test_severity_parse_accepts_aliases_and_rejects_unknown(self):
        assert Severity.parse("WARN") is Severity.WARN
        assert Severity.parse("warning") is Severity.WARN
        assert Severity.parse(" error ") is Severity.ERROR
        with pytest.raises(CLXError, match="unknown severity"):
            Severity.parse("banana")

    def test_unknown_rule_id_is_a_bug(self):
        with pytest.raises(CLXError, match="rule id"):
            finding("CLX999", "a", "m")
